"""Camera and box types, box scaling and box-height distance estimation.

Conventions used throughout:

* Detector frame: origin at the top-left corner, x right, y down, pixels.
* World distances and heights are in meters; pixel quantities stay in pixels.

All functions here are pure and all types are immutable, so everything in
this module is safe to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .common import (
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
        # A camera sees less than a half-turn, and more than nothing; the
        # comparison is false for NaN too.
        if self.fov_deg is not None and not 0.0 < self.fov_deg < 180.0:
            raise DomainError(
                f"field of view must be strictly between 0 and 180 degrees, got {self.fov_deg}"
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
        """Always positive: ``y_min < y_max``, and float subtraction underflows gradually."""
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


def estimate_distance_geometric(
    bbox: BoundingBox, object_height_m: float, intrinsics: CameraIntrinsics
) -> float:
    """Distance from similar triangles: focal_length * real_height / pixel_height."""
    if not object_height_m > 0:
        raise DomainError(f"object height must be positive, got {object_height_m}")
    return intrinsics.focal_length_px * object_height_m / bbox.height_px


@dataclass(frozen=True)
class FocalEstimate:
    """Quartiles of a per-sample focal-length distribution; the median is the
    value to calibrate with."""

    q1: float
    median: float
    q3: float


def sample_focal_length(
    bbox: BoundingBox, object_height_m: float, true_distance_m: float
) -> float:
    """Focal length of one reference frame: ``distance * pixel_height / real_height``."""
    if not object_height_m > 0:
        raise DomainError(f"object height must be positive, got {object_height_m}")
    if not true_distance_m > 0:
        raise DomainError(f"true distance must be positive, got {true_distance_m}")
    focal = true_distance_m * bbox.height_px / object_height_m
    if not math.isfinite(focal):
        raise DomainError(f"focal length {focal} px is not finite")
    if not focal > 0:  # an infinite height, or a product that underflows
        raise DomainError(f"focal length {focal} px is not positive")
    return focal


def estimate_focal_length(
    samples: Sequence[tuple[BoundingBox, float, float]]
) -> FocalEstimate:
    """Estimate the focal length from reference frames of an object of known size.

    Each sample is ``(bbox, object_height_m, true_distance_m)``; its focal
    length is :func:`sample_focal_length`.
    """
    if not samples:
        raise EmptyInputError("focal-length estimation needs at least one sample")
    q1, q2, q3 = quartiles([sample_focal_length(*sample) for sample in samples])
    return FocalEstimate(q1=q1, median=q2, q3=q3)


def pixel_window(bbox: BoundingBox) -> tuple[int, int, int, int]:
    """Rows ``r0:r1`` and columns ``c0:c1`` of the pixels a box covers.

    A pixel is covered when its index range meets the box's continuous
    extent. The synthetic generator paints, and the depth scorer reads,
    exactly this window. It is never empty and never leaves the box's
    resolution: a :class:`BoundingBox` holds ``0 <= x_min < x_max <=
    resolution_w``, with ``resolution_w`` whole, so ``0 <= floor(x_min) <
    ceil(x_max) <= resolution_w``, and likewise for y.
    """
    return (
        int(math.floor(bbox.y_min)),
        int(math.ceil(bbox.y_max)),
        int(math.floor(bbox.x_min)),
        int(math.ceil(bbox.x_max)),
    )


def scale_bbox(bbox: BoundingBox, target_w: int, target_h: int) -> BoundingBox:
    """Rescale a box to a different frame resolution.

    Every cross-resolution use of a box (detector frame vs depth-map frame)
    must go through here so coordinates never silently mix resolutions.
    """
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
