"""Absolute distance estimation from monocular drone video.

Three estimators over detector boxes and relative depth maps:

* ``regression``: supervised box-feature model for the followed person,
* ``geometry``: pinhole model from known object heights,
* ``depth``: calibrated depth-map scores with online drift detection and
  recalibration,

plus evaluation metrics, a synthetic-scene oracle, shipped calibration
profiles, and a command-line front end.
"""

from .common import (
    DistanceEstimate,
    DomainError,
    EmptyInputError,
    FormatError,
    MissingDataError,
    MonorangeError,
    NotReadyError,
    SingularFitError,
)
from .depth import (
    CalibrationSample,
    DepthCoefficients,
    DepthMap,
    FrameObservation,
    NormalizationMethod,
    RecalibrationConfig,
    RecalibrationState,
    ScoreSmoother,
    detect_drift,
    estimate_distance_depth,
    fit_coefficients,
    normalize_region,
    recalibrate,
    select_calibration_pair,
    step,
)
from .geometry import (
    BoundingBox,
    CameraIntrinsics,
    Detection,
    DronePose,
    FocalEstimate,
    HeightTable,
    WorldPoint,
    estimate_distance_geometric,
    estimate_focal_length,
    project_world_point,
    scale_bbox,
)
from .metrics import ErrorRecord, MetricsSummary, QuadrantMatrix, quadrant_matrix, summarize
from .regression import (
    LabeledFrame,
    RegressionFeatures,
    RegressionModel,
    fit_regression,
    predict_distance,
)
from .synth import DepthLawSpec, SceneObject, drift_sequence

__version__ = "0.1.0"
