"""Calibrated absolute distances from relative depth maps.

A depth network scores every pixel with a relative value; a linear map
``distance = m * score + s`` turns a normalized per-object score into meters
once ``(m, s)`` have been calibrated against known distances. This module
covers the whole lifecycle:

* collapsing a box's pixel scores to one representative score
  (:func:`normalize_region`),
* fitting and selecting the ``(m, s)`` coefficients
  (:func:`fit_coefficients`, :func:`select_calibration_pair`),
* temporal smoothing (:class:`ScoreSmoother`),
* online drift detection against a trusted per-frame distance
  (:func:`detect_drift`) and weighted recalibration (:func:`recalibrate`),
* the per-frame driver tying it together (:func:`step`).

Everything except :class:`RecalibrationState` and :class:`ScoreSmoother` is
pure and freely concurrent; each of those two holds one stream's mutable
state and belongs to exactly one stream and one writer at a time.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .common import (
    DegenerateGeometryError,
    DistanceEstimate,
    DomainError,
    EmptyInputError,
    MissingDataError,
    NotReadyError,
    SingularFitError,
    linear_quantile,
    mean_exact,
)
from .geometry import BoundingBox, Detection, pixel_window, scale_bbox

CENTER = "center"
FIVE_POINT_UNIFORM = "five_point_uniform"
FIVE_POINT_CENTER_WEIGHTED = "five_point_center_weighted"
DISC_CENTER = "disc_center"
CENTER_RING = "center_ring"
LOW_THRESHOLD = "low_threshold"
MEDIAN = "median"
MEAN = "mean"

METHOD_KINDS = (
    CENTER,
    FIVE_POINT_UNIFORM,
    FIVE_POINT_CENTER_WEIGHTED,
    DISC_CENTER,
    CENTER_RING,
    LOW_THRESHOLD,
    MEDIAN,
    MEAN,
)

PROVENANCE_STATIC = "static"
PROVENANCE_RECALIBRATED = "recalibrated"


class DepthMap:
    """Per-pixel relative depth scores for one frame.

    Scores are stored as a read-only float32 array of shape
    ``(height, width)``, row major, top row first. Statistics equal their
    float64 formulas with exactly rounded (``math.fsum``) sums, whatever the
    pixel order.

    The scores always live in an immutable ``bytes`` object, so no one can
    make them writable again. A read-only array that already lives in one
    (as :func:`monorange.neod.read_depth_map` produces) is kept without a
    copy. Any other input, writable or not, is copied into a new ``bytes``
    object, so later writes to the caller's array never reach the map.

    The map keeps the extremes that its finiteness check computes, as
    ``bounds`` ``(min, max)``; they bracket every score of every box, so the
    exact sums of :func:`normalize_region` need not scan a box for them.
    """

    def __init__(self, scores):
        arr = np.asarray(scores)
        if arr.dtype != np.float32:
            with np.errstate(over="ignore"):  # a score beyond float32 becomes inf, rejected below
                arr = arr.astype(np.float32)
        if arr.ndim != 2:
            raise DomainError(f"depth map must be 2-D, got shape {arr.shape}")
        if arr.size == 0:
            raise DomainError("depth map must not be empty")
        # min and max propagate NaN and reach +-inf, so finite extremes mean
        # every score is finite
        lo = float(arr.min())
        hi = float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("depth map contains non-finite scores")
        owner = arr
        while isinstance(owner, np.ndarray):
            owner = owner.base
        if not isinstance(owner, bytes):  # numpy never writes through bytes
            arr = np.frombuffer(arr.tobytes(), dtype=np.float32).reshape(arr.shape)
        self._scores = arr
        self._bounds = (lo, hi)

    @property
    def scores(self) -> np.ndarray:
        return self._scores

    @property
    def bounds(self) -> tuple[float, float]:
        """The smallest and largest score of the map."""
        return self._bounds

    @property
    def width(self) -> int:
        return self._scores.shape[1]

    @property
    def height(self) -> int:
        return self._scores.shape[0]


@dataclass(frozen=True)
class NormalizationMethod:
    """Rule collapsing a box's pixel scores to one representative score.

    ``lt_take`` selects which score tail counts as nearest for the
    low-threshold method: "lowest" for score maps where small values are
    near (the default), "highest" for inverted maps.
    """

    kind: str = LOW_THRESHOLD
    diameter_px: int = 40
    lt_percentile: float = 10.0
    center_weight: float = 0.5
    lt_take: str = "lowest"

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise DomainError(f"unknown normalization method {self.kind!r}")
        if not 0 < self.lt_percentile <= 100:
            raise DomainError(f"percentile {self.lt_percentile} outside (0, 100]")
        if self.diameter_px < 1:
            raise DomainError(f"diameter {self.diameter_px} must be >= 1 px")
        if not 0.0 <= self.center_weight <= 1.0:
            raise DomainError(f"center weight {self.center_weight} outside [0, 1]")
        if self.lt_take not in ("lowest", "highest"):
            raise DomainError(f"lt_take must be 'lowest' or 'highest', got {self.lt_take!r}")


def _pixel_value(region: np.ndarray, x: float, y: float, c0: int, r0: int) -> float:
    """Score of the pixel containing the continuous point (x, y), clamped to the region."""
    col = min(max(int(math.floor(x)) - c0, 0), region.shape[1] - 1)
    row = min(max(int(math.floor(y)) - r0, 0), region.shape[0] - 1)
    return float(region[row, col])


def _float64_sum_is_exact(n: int, lo: float, hi: float) -> bool:
    """Whether ``n`` float32 values with magnitudes within ``[lo, hi]``, both
    nonzero, add exactly in float64 in any order (see :func:`_exact_sum`)."""
    spread = abs(math.frexp(hi)[1] - math.frexp(lo)[1])
    return n <= 2.0 ** (29 - spread)


def _exact_sum(values: np.ndarray, bounds: tuple[float, float]) -> float:
    """Correctly rounded sum of float32 ``values``, equal to ``math.fsum`` of them.

    A nonzero float32 whose frexp exponent is ``e`` is a whole multiple of
    ``2**(e - 24)``, so every value is a multiple of the unit of the smallest
    nonzero magnitude present. When ``n * max|x|`` is at most ``2**53`` such
    units, every partial sum is a float64 integer multiple of that unit, so
    float64 addition in any order is exact. Otherwise ``math.fsum`` decides.

    ``bounds`` ``(lo, hi)`` must bracket every value, as a depth map's
    extremes bracket the scores of any of its boxes. When both have one
    sign, ``lo > 0`` or ``hi < 0``, the values hold no zero and their
    magnitudes lie between ``|lo|`` and ``|hi|``: the smallest magnitude
    present is a multiple of the unit of the bound nearer zero (its exponent
    is no smaller), and the largest is at most the farther bound. The proof
    above then holds with the bounds in place of the values' own extremes, so
    the two reductions that find those are skipped. When the bounds straddle
    zero or are too wide to prove the sum exact, the values' own extremes
    decide as above; the result is the same either way.
    """
    lo, hi = bounds
    if (lo > 0.0 or hi < 0.0) and _float64_sum_is_exact(values.size, lo, hi):
        return float(values.sum(dtype=np.float64))
    # with one sign and no zeros, the extremes are the smallest and largest
    # magnitudes; otherwise those come from the absolute values
    lo = float(values.min())
    hi = float(values.max())
    if not (lo > 0.0 or hi < 0.0):
        mags = np.abs(values)
        hi = float(mags.max())
        lo = float(mags.min(where=mags > 0.0, initial=math.inf))
    if hi != 0.0 and _float64_sum_is_exact(values.size, lo, hi):
        return float(values.sum(dtype=np.float64))
    # a range too wide to prove exact, or all zeros (fsum picks their sign)
    return math.fsum(values.ravel().tolist())


def normalize_region(
    depth_map: DepthMap, bbox: BoundingBox, method: NormalizationMethod
) -> float:
    """Collapse a box's pixel scores to one representative score.

    The box must already be expressed in the depth map's resolution (use
    :func:`monorange.geometry.scale_bbox` when it came from the detector).
    The box's pixels are its :func:`monorange.geometry.pixel_window`, the
    ones the synthetic generator paints; disc and ring membership use pixel
    centers. Every averaging method returns the correctly rounded mean of its
    pixels, so the result does not depend on pixel order.
    """
    if bbox.resolution_w != depth_map.width or bbox.resolution_h != depth_map.height:
        raise DomainError(
            f"box resolution {bbox.resolution_w}x{bbox.resolution_h} does not match "
            f"depth map {depth_map.width}x{depth_map.height}; scale the box first"
        )
    r0, r1, c0, c1 = pixel_window(bbox)
    region = depth_map.scores[r0:r1, c0:c1]

    kind = method.kind
    cx, cy = bbox.center

    if kind == CENTER:
        return _pixel_value(region, cx, cy, c0, r0)

    if kind in (FIVE_POINT_UNIFORM, FIVE_POINT_CENTER_WEIGHTED):
        w4 = bbox.width_px / 4.0
        h4 = bbox.height_px / 4.0
        points = [
            (cx, cy),
            (bbox.x_min + w4, bbox.y_min + h4),
            (bbox.x_max - w4, bbox.y_min + h4),
            (bbox.x_min + w4, bbox.y_max - h4),
            (bbox.x_max - w4, bbox.y_max - h4),
        ]
        values = [_pixel_value(region, x, y, c0, r0) for x, y in points]
        if kind == FIVE_POINT_UNIFORM:
            return mean_exact(values)
        # center_weight to the center pixel, the rest shared by the quadrants
        w_c = method.center_weight
        return w_c * values[0] + (1.0 - w_c) * mean_exact(values[1:])

    if kind in (DISC_CENTER, CENTER_RING):
        radius = method.diameter_px / 2.0
        # no pixel center farther than radius + 0.5 from (cx, cy) on either
        # axis can be a member, so only this window of the box is measured
        wr0 = max(r0, int(math.floor(cy - radius - 1.0)))
        wr1 = min(r1, int(math.ceil(cy + radius + 1.0)))
        wc0 = max(c0, int(math.floor(cx - radius - 1.0)))
        wc1 = min(c1, int(math.ceil(cx + radius + 1.0)))
        rows = np.arange(wr0, wr1, dtype=np.float64) + 0.5
        cols = np.arange(wc0, wc1, dtype=np.float64) + 0.5
        dist = np.hypot(cols[np.newaxis, :] - cx, rows[:, np.newaxis] - cy)
        if kind == DISC_CENTER:
            mask = dist <= radius
        else:
            mask = np.abs(dist - radius) <= 0.5
        picked = depth_map.scores[wr0:wr1, wc0:wc1][mask]
        if picked.size == 0:
            raise DegenerateGeometryError(
                f"{kind} of diameter {method.diameter_px} px has no pixels inside the box"
            )
        return _exact_sum(picked, depth_map.bounds) / picked.size

    n = region.size
    if kind == LOW_THRESHOLD:
        k = int(math.ceil(method.lt_percentile / 100.0 * n))
        k = min(max(k, 1), n)
        flat = region.flatten()
        bits = flat.view(np.int32)
        # Finite float32 values with a clear sign bit order exactly as their
        # bit patterns read as int32, and equal values share one pattern, so
        # the int32 partition (several times faster) moves the same multiset
        # into the tail. A set sign bit breaks this: negative values order
        # backwards as int32, and -0.0 ties with +0.0 as a float but not as
        # bits, while the float partition's tie order decides the sign of an
        # all-zero tail. Boxes with any sign bit set keep the float order. A
        # map whose scores are all above zero has no sign bit set anywhere.
        keys = bits if depth_map.bounds[0] > 0.0 or bits.min() >= 0 else flat
        if method.lt_take == "lowest":
            keys.partition(k - 1)
            tail = flat[:k]
        else:
            keys.partition(n - k)
            tail = flat[n - k :]
        return _exact_sum(tail, depth_map.bounds) / k
    if kind == MEDIAN:
        return linear_quantile(np.sort(region, axis=None), 0.5)
    # MEAN
    return _exact_sum(region, depth_map.bounds) / n


@dataclass(frozen=True)
class DepthCoefficients:
    """Scale/shift pair mapping a normalized score to meters."""

    m: float
    s: float
    provenance: str = PROVENANCE_STATIC
    sample_count: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.m) or self.m == 0.0:
            raise DomainError(f"scale coefficient must be finite and nonzero, got {self.m}")
        if not math.isfinite(self.s):
            raise DomainError(f"shift coefficient must be finite, got {self.s}")
        if self.provenance not in (PROVENANCE_STATIC, PROVENANCE_RECALIBRATED):
            raise DomainError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class CalibrationSample:
    """One (normalized score, measured distance) observation."""

    normalized_score: float
    true_distance_m: float

    def __post_init__(self):
        if not math.isfinite(self.normalized_score):
            raise DomainError(f"normalized score must be finite, got {self.normalized_score}")
        if not self.true_distance_m > 0:
            raise DomainError(f"true distance must be positive, got {self.true_distance_m}")
        if self.true_distance_m == math.inf:
            raise DomainError("true distance must be finite, got inf")


def _fit_line(scores: Sequence[float], distances: Sequence[float]) -> tuple[float, float]:
    """Least-squares line distance = m * score + s via exact centered sums."""
    n = len(scores)
    x_bar = math.fsum(scores) / n
    y_bar = math.fsum(distances) / n
    sxx = math.fsum((x - x_bar) ** 2 for x in scores)
    if sxx == 0.0:
        raise SingularFitError("all scores identical; cannot fit a line")
    sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(scores, distances))
    m = sxy / sxx
    if m == 0.0:
        raise SingularFitError("fitted slope is zero; distances do not vary with score")
    return m, y_bar - m * x_bar


def fit_coefficients(samples: Sequence[CalibrationSample]) -> DepthCoefficients:
    """Least-squares fit of the score-to-distance line over calibration samples."""
    if len(samples) < 2:
        raise EmptyInputError(f"need at least 2 calibration samples, got {len(samples)}")
    m, s = _fit_line(
        [smp.normalized_score for smp in samples],
        [smp.true_distance_m for smp in samples],
    )
    return DepthCoefficients(m=m, s=s, provenance=PROVENANCE_STATIC, sample_count=len(samples))


def estimate_distance_depth(score: float, coeffs: DepthCoefficients) -> DistanceEstimate:
    """Apply the calibrated line; negative and non-finite results are flagged out-of-domain."""
    value = coeffs.m * score + coeffs.s
    return DistanceEstimate(value_m=float(value), out_of_domain=not 0.0 <= value < math.inf)


def select_calibration_pair(
    videos: Mapping[float, Sequence[float]],
    candidate_pairs: Sequence[tuple[float, float]],
) -> tuple[tuple[float, float], DepthCoefficients]:
    """Pick the calibration distance pair that validates best.

    For each candidate pair the per-frame two-point lines are solved and their
    median ``(m, s)`` taken; candidates are ranked by the sum over all
    distances in ``videos`` of the absolute per-distance median signed error,
    ties broken by the magnitudes of the summed positive and negative median
    errors. The first minimal candidate wins remaining ties.
    """
    if not candidate_pairs:
        raise EmptyInputError("no candidate pairs to select from")
    best_key = None
    best_pair = None
    best_coeffs = None
    for pair in candidate_pairs:
        d1, d2 = float(pair[0]), float(pair[1])
        if d1 not in videos or d2 not in videos:
            raise MissingDataError(f"no frames recorded at both distances of pair {pair}")
        scores_1 = videos[d1]
        scores_2 = videos[d2]
        slopes = []
        shifts = []
        for a, b in zip(scores_1, scores_2):
            if b == a:
                continue  # this frame pair cannot pin a line
            m = (d2 - d1) / (b - a)
            slopes.append(m)
            shifts.append(d1 - m * a)
        if not slopes:
            raise SingularFitError(f"pair {pair}: every frame pair has identical scores")
        m_med = linear_quantile(sorted(slopes), 0.5)
        s_med = linear_quantile(sorted(shifts), 0.5)

        median_errors = []
        for dist, frame_scores in sorted(videos.items()):
            errors = sorted(dist - (m_med * sc + s_med) for sc in frame_scores)
            median_errors.append(linear_quantile(errors, 0.5))
        primary = math.fsum(abs(e) for e in median_errors)
        positive = math.fsum(e for e in median_errors if e > 0)
        negative = math.fsum(e for e in median_errors if e < 0)
        key = (primary, abs(positive) + abs(negative))
        if best_key is None or key < best_key:
            best_key = key
            best_pair = (d1, d2)
            best_coeffs = DepthCoefficients(
                m=m_med,
                s=s_med,
                provenance=PROVENANCE_STATIC,
                sample_count=len(slopes),
            )
    return best_pair, best_coeffs


def _check_window(size: int, what: str) -> None:
    if size > sys.maxsize:  # the longest deque
        raise DomainError(f"{what} {size} is longer than the longest window ({sys.maxsize})")


class ScoreSmoother:
    """Sliding-window mean over the last ``window`` scores of one tracked object."""

    def __init__(self, window: int = 5):
        if window < 1:
            raise DomainError(f"window must be >= 1, got {window}")
        _check_window(window, "smoothing window")
        self._history: deque[float] = deque(maxlen=window)

    def push(self, score: float) -> float:
        """Add a score; the mean of the window so far (partial windows allowed)."""
        self._history.append(float(score))
        return mean_exact(self._history)


@dataclass(frozen=True)
class RecalibrationConfig:
    """Windows, thresholds and weights for online drift handling.

    ``w`` counts once-per-second samples in the detection window; ``w_prime_s``
    seconds of full-rate frames feed the recalibration buffer; ``alpha`` is the
    weight kept on the offline calibration set; drift triggers when the mean
    absolute disagreement exceeds ``tau_m``.
    """

    w: int = 5
    w_prime_s: float = 5.0
    fps: int = 30
    alpha: float = 0.75
    tau_m: float = 0.30
    n_o: int = 20

    def __post_init__(self):
        if self.w < 1:
            raise DomainError(f"detection window must be >= 1, got {self.w}")
        if not self.w_prime_s > 0:
            raise DomainError(f"train window must be positive, got {self.w_prime_s}")
        if not 1 <= self.fps <= sys.maxsize:
            raise DomainError(f"fps must be between 1 and {sys.maxsize}, got {self.fps}")
        _check_window(self.w, "detection window")
        if not self.w_prime_s * self.fps < sys.maxsize:  # an infinite window included
            raise DomainError(
                f"train window {self.w_prime_s} s at {self.fps} fps holds more samples "
                f"than the longest window ({sys.maxsize})"
            )
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha {self.alpha} outside (0, 1)")
        if not self.tau_m > 0:
            raise DomainError(f"drift threshold must be positive, got {self.tau_m}")
        if self.n_o < 2:
            raise DomainError(f"need at least 2 offline samples, got {self.n_o}")
        if self.n_new > self.train_buffer_capacity:
            raise DomainError(
                f"recalibration needs {self.n_new} recent samples but the train "
                f"buffer only holds {self.train_buffer_capacity}"
            )

    @property
    def n_new(self) -> int:
        """Number of recent samples mixed into a recalibration fit.

        ``(1 - alpha) / alpha * n_o`` rounded half up (it is never negative), at least 1.
        """
        return max(1, math.floor((1.0 - self.alpha) / self.alpha * self.n_o + 0.5))

    @property
    def warmup_samples(self) -> int:
        """Once-per-second samples that must accumulate before detection may fire."""
        return max(5, self.w)

    @property
    def train_buffer_capacity(self) -> int:
        return int(round(self.w_prime_s * self.fps))


class RecalibrationState:
    """Sliding windows driving drift detection for one stream.

    Single-writer: one stream owns one state, and :meth:`observe` is the only
    way a frame enters it. ``T`` holds (score, trusted distance) pairs at full
    frame rate; ``errors`` holds ``|trusted - estimated|`` for the first frame
    of each wall-clock second. ``errors`` stops while a detection is latched
    (``flag``) and restarts empty after recalibration clears it; ``T`` keeps
    filling, so a detection that latches before ``T`` holds ``n_new`` samples
    refits once it does.
    """

    def __init__(
        self,
        config: RecalibrationConfig,
        original_samples: Iterable[CalibrationSample],
        seed: int = 0,
    ):
        samples = tuple(original_samples)
        if len(samples) != config.n_o:
            raise DomainError(
                f"config declares n_o={config.n_o} offline samples, got {len(samples)}"
            )
        self.errors: deque[float] = deque(maxlen=config.w)
        self.T: deque[CalibrationSample] = deque(maxlen=config.train_buffer_capacity)
        self.flag = False
        self.original_samples = samples
        self.seconds_seen = 0
        self._last_second: int | None = None
        self._rng = np.random.default_rng(seed)

    def observe(self, timestamp_s: float, sample: CalibrationSample, estimated_m: float) -> None:
        """Take one frame's trusted sample and the estimate made for it."""
        self.T.append(sample)
        if self.flag:
            return
        second = math.floor(timestamp_s)
        if self._last_second is None or second > self._last_second:
            self.errors.append(abs(sample.true_distance_m - estimated_m))
            self.seconds_seen += 1
            self._last_second = second


def detect_drift(state: RecalibrationState, config: RecalibrationConfig) -> bool:
    """True (and latches the flag) when the windowed mean absolute error exceeds tau.

    Never fires during warm-up or before the error window is full; the
    comparison is strict, so a mean exactly at tau does not trigger.
    """
    if state.seconds_seen < config.warmup_samples or len(state.errors) < config.w:
        return False
    if math.fsum(state.errors) / config.w > config.tau_m:
        state.flag = True
        return True
    return False


def recalibrate(state: RecalibrationState, config: RecalibrationConfig) -> DepthCoefficients:
    """Refit the score-to-distance line after a latched drift detection.

    Draws ``config.n_new`` samples uniformly at random (seeded, without
    replacement) from the recent-frame buffer, fits over the offline samples
    plus the drawn ones, clears the flag, and empties the error window so
    detection restarts against estimates made with the new coefficients. The
    offline sample set itself is never mutated.

    Raises:
        NotReadyError: the recent-frame buffer holds fewer than ``n_new``
            entries; the detection stays latched.
    """
    if not state.flag:
        raise DomainError("recalibrate requires a latched drift detection")
    n_new = config.n_new
    if len(state.T) < n_new:
        raise NotReadyError(
            f"train buffer holds {len(state.T)} samples, need {n_new}"
        )
    recent = list(state.T)
    fit_set = list(state.original_samples)
    fit_set += [recent[i] for i in state._rng.choice(len(recent), size=n_new, replace=False)]
    m, s = _fit_line(
        [smp.normalized_score for smp in fit_set],
        [smp.true_distance_m for smp in fit_set],
    )
    state.flag = False
    state.errors.clear()
    return DepthCoefficients(
        m=m,
        s=s,
        provenance=PROVENANCE_RECALIBRATED,
        sample_count=len(fit_set),
    )


@dataclass(frozen=True)
class FrameObservation:
    """One frame's detections plus its depth map and capture time."""

    detections: tuple[Detection, ...]
    depth_map: DepthMap
    timestamp_s: float


@dataclass(frozen=True)
class ObjectEstimate:
    detection: Detection
    score: float
    distance: DistanceEstimate


@dataclass(frozen=True)
class StepResult:
    timestamp_s: float
    vip_distance: DistanceEstimate | None
    estimates: tuple[ObjectEstimate, ...]
    coeffs: DepthCoefficients
    drift_detected: bool
    recalibrated: bool
    warning: str | None = None


def step(
    frame: FrameObservation,
    vip_truth: DistanceEstimate | None,
    state: RecalibrationState | None,
    config: RecalibrationConfig | None,
    coeffs: DepthCoefficients,
    method: NormalizationMethod,
    smoother: ScoreSmoother | None = None,
) -> StepResult:
    """Process one frame: score, update buffers, detect drift, recalibrate, estimate.

    ``vip_truth`` is the trusted distance to the followed person for this
    frame (typically the regression estimate). Frames without a usable truth
    or without a detected person leave every buffer untouched and reuse the
    current coefficients; truths flagged out-of-domain (person bending,
    sitting, ...) are likewise excluded. The once-per-second cadence is driven
    by timestamps: the first frame of each wall-clock second feeds the
    detection window.

    All objects in the frame are estimated with the coefficients current at
    the end of the step, so a recalibration applies from its own frame onward.
    With ``state`` and ``config`` None there is no drift handling: the frame
    is scored and estimated with ``coeffs``, and ``vip_truth`` is not used.
    """
    vips = [i for i, det in enumerate(frame.detections) if det.is_vip]
    if len(vips) > 1:
        raise DomainError(f"{len(vips)} detections flagged as the followed person; expected one")

    depth_map = frame.depth_map
    scores: list[float] = []
    for det in frame.detections:
        scaled = scale_bbox(det.bbox, depth_map.width, depth_map.height)
        score = normalize_region(depth_map, scaled, method)
        if det.is_vip and smoother is not None:
            score = smoother.push(score)
        scores.append(score)

    warning = None
    drift_detected = False
    recalibrated = False
    if not vips:
        warning = "no-vip-detection"
    elif state is not None:
        vip_score = scores[vips[0]]
        if vip_truth is None:
            warning = "no-vip-truth"
        elif vip_truth.out_of_domain:
            warning = "vip-truth-out-of-domain"
        else:
            sample = CalibrationSample(vip_score, vip_truth.value_m)
            state.observe(frame.timestamp_s, sample, coeffs.m * vip_score + coeffs.s)

        if not state.flag:
            drift_detected = detect_drift(state, config)
        if state.flag:
            try:
                coeffs = recalibrate(state, config)
                recalibrated = True
            except NotReadyError:
                warning = "recalibration-not-ready"

    estimates = tuple(
        ObjectEstimate(
            detection=det,
            score=scores[i],
            distance=estimate_distance_depth(scores[i], coeffs),
        )
        for i, det in enumerate(frame.detections)
    )
    return StepResult(
        timestamp_s=frame.timestamp_s,
        vip_distance=estimates[vips[0]].distance if vips else None,
        estimates=estimates,
        coeffs=coeffs,
        drift_detected=drift_detected,
        recalibrated=recalibrated,
        warning=warning,
    )
