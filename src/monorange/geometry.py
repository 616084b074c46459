"""Pinhole-camera transforms and box-height distance estimation.

Conventions used throughout:

* Detector frame: origin at the top-left corner, x right, y down, pixels.
* Camera-centered frame: origin at the image center, x right, y up, pixels.
* World distances and heights are in meters; pixel quantities stay in pixels.

All functions here are pure and all types are immutable, so everything in
this module is safe to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .common import (
    BehindCameraError,
    DegenerateBoxError,
    DomainError,
    EmptyInputError,
    MissingDataError,
    quartiles,
)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal length and frame dimensions of a monocular camera."""

    focal_length_px: float
    image_width_px: int
    image_height_px: int
    fov_deg: float | None = None  # informational only

    def __post_init__(self):
        if not self.focal_length_px > 0:
            raise DomainError(f"focal length must be positive, got {self.focal_length_px}")
        if self.image_width_px <= 0 or self.image_height_px <= 0:
            raise DomainError(
                f"image dimensions must be positive, got "
                f"{self.image_width_px}x{self.image_height_px}"
            )


@dataclass(frozen=True)
class BoundingBox:
    """A pixel rectangle in a declared frame resolution (origin top-left, y down)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    resolution_w: int
    resolution_h: int

    def __post_init__(self):
        if self.resolution_w <= 0 or self.resolution_h <= 0:
            raise DomainError(
                f"resolution must be positive, got {self.resolution_w}x{self.resolution_h}"
            )
        if not (0 <= self.x_min < self.x_max <= self.resolution_w):
            raise DomainError(
                f"x extent [{self.x_min}, {self.x_max}] invalid for width {self.resolution_w}"
            )
        if not (0 <= self.y_min < self.y_max <= self.resolution_h):
            raise DomainError(
                f"y extent [{self.y_min}, {self.y_max}] invalid for height {self.resolution_h}"
            )

    @property
    def width_px(self) -> float:
        return self.x_max - self.x_min

    @property
    def height_px(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0


@dataclass(frozen=True)
class Detection:
    """One labeled detector output box."""

    bbox: BoundingBox
    class_label: str
    confidence: float
    is_vip: bool = False

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise DomainError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class WorldPoint:
    """A 3D point in meters; homogeneous scale is fixed at 1."""

    x_w: float
    y_w: float
    z_w: float

    @property
    def homogeneous(self) -> tuple[float, float, float, float]:
        return (self.x_w, self.y_w, self.z_w, 1.0)


@dataclass(frozen=True)
class DronePose:
    """Drone height above the ground, meters."""

    height_m: float

    def __post_init__(self):
        if not self.height_m > 0:
            raise DomainError(f"drone height must be positive, got {self.height_m}")


@dataclass(frozen=True)
class HeightTable:
    """Expected per-class object heights plus optional measured instance heights."""

    expected_m: Mapping[str, float]
    actual_m: Mapping[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for label, h in self.expected_m.items():
            if not h > 0:
                raise DomainError(f"expected height for {label!r} must be positive, got {h}")
        for label, heights in self.actual_m.items():
            for h in heights:
                if not h > 0:
                    raise DomainError(f"actual height for {label!r} must be positive, got {h}")

    def expected(self, class_label: str) -> float:
        try:
            return float(self.expected_m[class_label])
        except KeyError:
            raise MissingDataError(f"no expected height for class {class_label!r}") from None

    def actual(self, class_label: str) -> float:
        """Measured height of the class instance; falls back to the first entry.

        Detections carry no instance identity, so when several instances were
        measured the first listed height is used.
        """
        heights = self.actual_m.get(class_label)
        if not heights:
            raise MissingDataError(f"no actual height recorded for class {class_label!r}")
        return float(heights[0])


@dataclass(frozen=True)
class RiskPolicy:
    """Distance bands and bounds used for positioning and reporting."""

    imminent_band_m: float = 1.5
    low_risk_band_m: float = 5.5
    near_threshold_m: float = 4.0
    far_limit_m: float = 8.0
    d_min_m: float = 2.0
    d_max_m: float = 4.0

    # Lateral free-space width and walking speed also shape a deployment's
    # envelope, but they feed no computation here and are deliberately not
    # fields of this policy.

    def __post_init__(self):
        if not 0 < self.imminent_band_m < self.low_risk_band_m:
            raise DomainError("bands must satisfy 0 < imminent < low_risk")
        if not self.d_min_m < self.d_max_m:
            raise DomainError("d_min must be below d_max")
        if not self.near_threshold_m < self.far_limit_m:
            raise DomainError("near threshold must be below far limit")

    def risk_band(self, distance_from_vip_m: float) -> str:
        """Classify an obstacle by its distance ahead of the followed person."""
        if distance_from_vip_m <= self.imminent_band_m:
            return "imminent"
        if distance_from_vip_m <= self.low_risk_band_m:
            return "low"
        return "clear"


def frame_to_camera_coords(
    p: tuple[float, float], intrinsics: CameraIntrinsics
) -> tuple[float, float]:
    """Re-center a detector-frame pixel on the image center, flipping y to point up."""
    x, y = p
    w = intrinsics.image_width_px
    h = intrinsics.image_height_px
    if not (0 <= x <= w and 0 <= y <= h):
        raise DomainError(f"point {p} outside frame {w}x{h}")
    return x - w / 2.0, -(y - h / 2.0)


def camera_to_frame_coords(
    p: tuple[float, float], intrinsics: CameraIntrinsics
) -> tuple[float, float]:
    """Inverse of :func:`frame_to_camera_coords` (no bounds check: projections
    of world points may legitimately fall outside the frame)."""
    x_c, y_c = p
    return x_c + intrinsics.image_width_px / 2.0, intrinsics.image_height_px / 2.0 - y_c


def project_world_point(
    point: WorldPoint, pose: DronePose, intrinsics: CameraIntrinsics
) -> tuple[float, float]:
    """Project a world point to camera-centered pixel coordinates.

    The drone flies at ``pose.height_m``, so the world y-coordinate is shifted
    by that height before the perspective divide.
    """
    if point.z_w <= 0:
        raise BehindCameraError(f"point at z={point.z_w} is not in front of the camera")
    f = intrinsics.focal_length_px
    px_c = f * point.x_w / point.z_w
    py_c = f * (point.y_w + pose.height_m) / point.z_w
    return px_c, py_c


def estimate_distance_geometric(
    bbox: BoundingBox, object_height_m: float, intrinsics: CameraIntrinsics
) -> float:
    """Distance from similar triangles: focal_length * real_height / pixel_height."""
    if not object_height_m > 0:
        raise DomainError(f"object height must be positive, got {object_height_m}")
    h_i = bbox.height_px
    if not h_i > 0:
        raise DegenerateBoxError("bounding box has zero pixel height")
    return intrinsics.focal_length_px * object_height_m / h_i


@dataclass(frozen=True)
class FocalEstimate:
    """Quartiles of a per-sample focal-length distribution; the median is the
    value to calibrate with."""

    q1: float
    median: float
    q3: float


def estimate_focal_length(
    samples: Sequence[tuple[BoundingBox, float, float]]
) -> FocalEstimate:
    """Estimate the focal length from reference frames of an object of known size.

    Each sample is ``(bbox, object_height_m, true_distance_m)``; the per-sample
    focal length is ``distance * pixel_height / real_height``.
    """
    if not samples:
        raise EmptyInputError("focal-length estimation needs at least one sample")
    per_sample = []
    for bbox, object_height_m, true_distance_m in samples:
        if not object_height_m > 0:
            raise DomainError(f"object height must be positive, got {object_height_m}")
        if not true_distance_m > 0:
            raise DomainError(f"true distance must be positive, got {true_distance_m}")
        h_i = bbox.height_px
        if not h_i > 0:
            raise DegenerateBoxError("bounding box has zero pixel height")
        per_sample.append(true_distance_m * h_i / object_height_m)
    q1, q2, q3 = quartiles(per_sample)
    return FocalEstimate(q1=q1, median=q2, q3=q3)


@dataclass(frozen=True)
class PositioningEnvelope:
    """Valid (height-offset, distance) pairs for the drone behind the person.

    Pairs lie on the line ``offset = tan(fov/2) * distance`` with the distance
    clamped to the policy's ``[d_min_m, d_max_m]`` range.
    """

    fov_deg: float
    vip_height_m: float
    d_min_m: float
    d_max_m: float

    @property
    def slope(self) -> float:
        return math.tan(math.radians(self.fov_deg) / 2.0)

    def clamp_distance(self, distance_m: float) -> float:
        return min(max(distance_m, self.d_min_m), self.d_max_m)

    def offset_at(self, distance_m: float) -> tuple[float, float]:
        """(height offset above the head, clamped distance) for a requested distance."""
        d = self.clamp_distance(distance_m)
        return self.slope * d, d

    def drone_height_at(self, distance_m: float) -> float:
        """Ground-relative drone height for a requested follow distance."""
        offset, _ = self.offset_at(distance_m)
        return self.vip_height_m + offset


def positioning_envelope(
    fov_deg: float, vip_height_m: float, policy: RiskPolicy
) -> PositioningEnvelope:
    """Build the follow-envelope for a camera FoV and person height."""
    if not 0 < fov_deg < 180:
        raise DomainError(f"field of view {fov_deg} must be in (0, 180) degrees")
    if not vip_height_m > 0:
        raise DomainError(f"person height must be positive, got {vip_height_m}")
    return PositioningEnvelope(
        fov_deg=fov_deg,
        vip_height_m=vip_height_m,
        d_min_m=policy.d_min_m,
        d_max_m=policy.d_max_m,
    )


def scale_bbox(bbox: BoundingBox, target_w: int, target_h: int) -> BoundingBox:
    """Rescale a box to a different frame resolution.

    Every cross-resolution use of a box (detector frame vs depth-map frame)
    must go through here so coordinates never silently mix resolutions.
    """
    if target_w <= 0 or target_h <= 0:
        raise DomainError(f"target resolution must be positive, got {target_w}x{target_h}")
    sx = bbox.resolution_w
    sy = bbox.resolution_h
    return BoundingBox(
        x_min=bbox.x_min * target_w / sx,
        y_min=bbox.y_min * target_h / sy,
        x_max=bbox.x_max * target_w / sx,
        y_max=bbox.y_max * target_h / sy,
        resolution_w=target_w,
        resolution_h=target_h,
    )
