"""Supervised linear distance estimator for the followed person.

Fits ``distance = a*width + b*height + c*area`` (no intercept) over labeled
frames of the person's detection box, either with all three features or with
width and height only. Models are immutable once fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import DistanceEstimate, DomainError, SingularFitError
from .geometry import BoundingBox

MODE_THREE = "three"
MODE_TWO = "two"

_FEATURE_NAMES = ("w_b", "h_b", "area")

# Condition-number ceiling for the normal equations; beyond this the fit
# falls back to a rank-revealing least-squares solve.
_NORMAL_EQ_COND_LIMIT = 1e12


@dataclass(frozen=True)
class RegressionFeatures:
    """Width and height (pixels) of a person detection box; the area is their product."""

    w_b: float
    h_b: float

    def __post_init__(self):
        if not self.w_b > 0 or not self.h_b > 0:
            raise DomainError(f"box dimensions must be positive, got {self.w_b}x{self.h_b}")
        if not math.isfinite(self.area):
            raise DomainError(f"box area {self.area} is not finite")

    @property
    def area(self) -> float:
        return self.w_b * self.h_b

    @classmethod
    def from_bbox(cls, bbox: BoundingBox) -> "RegressionFeatures":
        return cls(bbox.width_px, bbox.height_px)

    def as_row(self, mode: str) -> tuple[float, ...]:
        if mode == MODE_THREE:
            return (self.w_b, self.h_b, self.area)
        return (self.w_b, self.h_b)


@dataclass(frozen=True)
class LabeledFrame:
    """One training observation: box features plus the measured distance."""

    features: RegressionFeatures
    true_distance_m: float

    def __post_init__(self):
        if not self.true_distance_m > 0:
            raise DomainError(
                f"true distance must be positive, got {self.true_distance_m}"
            )
        if self.true_distance_m == math.inf:
            raise DomainError("true distance must be finite, got inf")


@dataclass(frozen=True)
class RegressionModel:
    """Fitted coefficients; in two-feature mode the area coefficient is zero."""

    a: float
    b: float
    c: float
    mode: str = MODE_THREE
    calibrated_for: str = ""

    def __post_init__(self):
        if self.mode not in (MODE_THREE, MODE_TWO):
            raise DomainError(f"unknown mode {self.mode!r}")
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not math.isfinite(value):
                raise DomainError(f"coefficient {name} must be finite, got {value}")
        if self.mode == MODE_TWO and self.c != 0.0:
            raise DomainError("two-feature model must have c == 0")


def _independent_columns(design: np.ndarray, names: tuple[str, ...]) -> list[str]:
    """Greedy Gram-Schmidt scan; returns names of columns dependent on earlier ones."""
    dependent = []
    basis: list[np.ndarray] = []
    for j, name in enumerate(names):
        col = design[:, j].astype(float)
        norm = np.linalg.norm(col)
        if norm == 0.0:
            dependent.append(name)
            continue
        resid = col.copy()
        for q in basis:
            resid -= (resid @ q) * q
        if np.linalg.norm(resid) <= 1e-10 * norm:
            dependent.append(name)
        else:
            basis.append(resid / np.linalg.norm(resid))
    return dependent


def fit_regression(
    frames: list[LabeledFrame], mode: str = MODE_THREE, vip_id: str = ""
) -> RegressionModel:
    """Ordinary least squares over labeled frames, no intercept term.

    Solves the normal equations directly; if their conditioning exceeds
    ``1e12`` the fit falls back to a rank-revealing least-squares solve.

    Raises:
        DomainError: fewer frames than coefficients.
        SingularFitError: design matrix is rank deficient; ``columns`` names
            the collinear features.
    """
    if mode not in (MODE_THREE, MODE_TWO):
        raise DomainError(f"unknown mode {mode!r}")
    names = _FEATURE_NAMES if mode == MODE_THREE else _FEATURE_NAMES[:2]
    min_frames = len(names)
    if len(frames) < min_frames:
        raise DomainError(
            f"{mode}-feature fit needs at least {min_frames} frames, got {len(frames)}"
        )

    design = np.array([f.features.as_row(mode) for f in frames], dtype=float)
    target = np.array([f.true_distance_m for f in frames], dtype=float)

    dependent = _independent_columns(design, names)
    if dependent:
        raise SingularFitError(
            f"design matrix is rank deficient; collinear columns: {', '.join(dependent)}"
        )

    gram = design.T @ design
    if np.linalg.cond(gram) > _NORMAL_EQ_COND_LIMIT:
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    else:
        coef = np.linalg.solve(gram, design.T @ target)

    if mode == MODE_THREE:
        a, b, c = coef
    else:
        (a, b), c = coef, 0.0
    return RegressionModel(a=float(a), b=float(b), c=float(c), mode=mode, calibrated_for=vip_id)


def predict_distance(model: RegressionModel, features: RegressionFeatures) -> DistanceEstimate:
    """Evaluate the fitted model; results not positive and finite are flagged out-of-domain.

    The linear form can extrapolate to non-positive distances on boxes unlike
    its training data, and huge coefficients overflow, so the value is
    returned with a warning flag instead of being clamped.
    """
    value = model.a * features.w_b + model.b * features.h_b
    if model.mode == MODE_THREE:
        value += model.c * features.area
    return DistanceEstimate(value_m=float(value), out_of_domain=not 0.0 < value < math.inf)
