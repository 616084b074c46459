"""Forward generator for synthetic detections and depth maps.

Scenes are generated from ground-truth geometry so every estimator has an
exact round-trip check: boxes come from projecting object tops and bottoms
through the pinhole model, and depth-map pixels inside each box carry the
score the generating line assigns to the object's distance. Objects are
placed vertically centered on the optical axis, which keeps them in frame at
any distance; the generator owns that convention since box height depends
only on object height and distance.

Generation is pure given (scene, seed): identical seeds produce byte-identical
depth maps. Objects stand still, so their boxes are projected once per
sequence, and identical frames are rendered once: consecutive frames under
one noiseless law share one immutable :class:`DepthMap`. A noisy law renders
every frame, so its random draws, and every output byte, do not depend on
how often a noiseless map is reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .common import DomainError, read_json
from .depth import DepthMap, FrameObservation
from .geometry import (
    BoundingBox,
    CameraIntrinsics,
    Detection,
    DronePose,
    WorldPoint,
    camera_to_frame_coords,
    project_world_point,
    scale_bbox,
)

LOW_NEAR = "low-near"
HIGH_NEAR = "high-near"

# Score assigned to pixels outside every object box; far enough that it never
# wins a nearest-region statistic inside a box.
BACKGROUND_DISTANCE_M = 50.0

# Synthetic boxes need a lateral extent; width is tied to height since only
# the height feeds any estimator under test.
DEFAULT_ASPECT = 0.6

DEFAULT_DEPTH_W = 1024
DEFAULT_DEPTH_H = 320

# An object's distance and the rows r0:r1 and columns c0:c1 its box covers in
# the depth map.
Region = tuple[float, int, int, int, int]


@dataclass(frozen=True)
class SceneObject:
    """One object standing in the synthetic scene."""

    class_label: str
    height_m: float
    distance_m: float
    lateral_offset_m: float = 0.0
    is_vip: bool = False
    width_m: float | None = None  # defaults to DEFAULT_ASPECT * height_m

    def __post_init__(self):
        if not self.height_m > 0:
            raise DomainError(f"object height must be positive, got {self.height_m}")
        if not self.distance_m > 0:
            raise DomainError(f"object distance must be positive, got {self.distance_m}")
        if self.width_m is not None and not self.width_m > 0:
            raise DomainError(f"object width must be positive, got {self.width_m}")

    @property
    def effective_width_m(self) -> float:
        return self.width_m if self.width_m is not None else DEFAULT_ASPECT * self.height_m


@dataclass(frozen=True)
class DepthLawSpec:
    """The line generating scores from distances: score = (d - s_true) / m_true.

    ``score_orientation`` documents which tail is nearest and must agree with
    the sign of ``m_true`` (positive slope means low scores are near).
    """

    m_true: float
    s_true: float
    noise_sigma: float = 0.0
    score_orientation: str = LOW_NEAR

    def __post_init__(self):
        if self.m_true == 0.0:
            raise DomainError("generating slope must be nonzero")
        if self.noise_sigma < 0:
            raise DomainError(f"noise sigma must be >= 0, got {self.noise_sigma}")
        if self.score_orientation not in (LOW_NEAR, HIGH_NEAR):
            raise DomainError(f"unknown orientation {self.score_orientation!r}")
        expected = LOW_NEAR if self.m_true > 0 else HIGH_NEAR
        if self.score_orientation != expected:
            raise DomainError(
                f"orientation {self.score_orientation!r} inconsistent with "
                f"m_true={self.m_true} (expected {expected!r})"
            )

    def score_for_distance(self, distance_m: float) -> float:
        return (distance_m - self.s_true) / self.m_true


@dataclass(frozen=True)
class SynthFrame:
    """One generated frame: detections, depth map, and per-detection truths."""

    detections: tuple[Detection, ...]
    depth_map: DepthMap
    truths: tuple[float, ...]
    timestamp_s: float
    law: DepthLawSpec

    def to_observation(self) -> FrameObservation:
        return FrameObservation(
            detections=self.detections,
            depth_map=self.depth_map,
            timestamp_s=self.timestamp_s,
        )


def _object_bbox(
    obj: SceneObject, intrinsics: CameraIntrinsics, pose: DronePose, clip: bool
) -> BoundingBox:
    """Project an object's extent into the detector frame.

    The object spans ``height_m`` vertically, centered on the optical axis,
    at depth ``distance_m`` and lateral offset ``lateral_offset_m``.
    """
    axis_y = -pose.height_m  # world y of the optical axis
    half_h = obj.height_m / 2.0
    half_w = obj.effective_width_m / 2.0
    top = project_world_point(
        WorldPoint(obj.lateral_offset_m, axis_y + half_h, obj.distance_m), pose, intrinsics
    )
    bottom = project_world_point(
        WorldPoint(obj.lateral_offset_m, axis_y - half_h, obj.distance_m), pose, intrinsics
    )
    left = project_world_point(
        WorldPoint(obj.lateral_offset_m - half_w, axis_y, obj.distance_m), pose, intrinsics
    )
    right = project_world_point(
        WorldPoint(obj.lateral_offset_m + half_w, axis_y, obj.distance_m), pose, intrinsics
    )
    x_min, _ = camera_to_frame_coords(left, intrinsics)
    x_max, _ = camera_to_frame_coords(right, intrinsics)
    _, y_min = camera_to_frame_coords(top, intrinsics)
    _, y_max = camera_to_frame_coords(bottom, intrinsics)
    w, h = intrinsics.image_width_px, intrinsics.image_height_px
    if x_min < 0 or y_min < 0 or x_max > w or y_max > h:
        if not clip:
            raise DomainError(
                f"object {obj.class_label!r} at {obj.distance_m} m projects outside "
                f"the {w}x{h} frame: [{x_min:.1f}, {y_min:.1f}, {x_max:.1f}, {y_max:.1f}]"
            )
        x_min = max(0.0, x_min)
        y_min = max(0.0, y_min)
        x_max = min(float(w), x_max)
        y_max = min(float(h), y_max)
        if x_min >= x_max or y_min >= y_max:
            raise DomainError(
                f"object {obj.class_label!r} lies entirely outside the frame"
            )
    return BoundingBox(x_min, y_min, x_max, y_max, w, h)


def _project(
    objects: Sequence[SceneObject],
    intrinsics: CameraIntrinsics,
    pose: DronePose,
    clip: bool,
    depth_w: int,
    depth_h: int,
) -> tuple[tuple[Detection, ...], tuple[float, ...], tuple[Region, ...]]:
    """The detections, truths and painted regions of a scene's still objects.

    Regions are listed far to near so closer objects overwrite overlapping ones.
    """
    boxes = [_object_bbox(obj, intrinsics, pose, clip) for obj in objects]
    detections = tuple(
        Detection(bbox=bbox, class_label=obj.class_label, confidence=1.0, is_vip=obj.is_vip)
        for obj, bbox in zip(objects, boxes)
    )
    regions = []
    for i in sorted(range(len(objects)), key=lambda i: -objects[i].distance_m):
        scaled = scale_bbox(boxes[i], depth_w, depth_h)
        c0 = max(0, int(math.floor(scaled.x_min)))
        c1 = min(depth_w, int(math.ceil(scaled.x_max)))
        r0 = max(0, int(math.floor(scaled.y_min)))
        r1 = min(depth_h, int(math.ceil(scaled.y_max)))
        regions.append((objects[i].distance_m, r0, r1, c0, c1))
    return detections, tuple(obj.distance_m for obj in objects), tuple(regions)


def _render(
    regions: Sequence[Region],
    law: DepthLawSpec,
    rng: np.random.Generator,
    depth_w: int,
    depth_h: int,
) -> DepthMap:
    """Paint one depth map: the background, then each region far to near."""
    # The map is painted in float64 and rounded to float32 once, by DepthMap.
    # Painting straight into float32 saves a pass, but then the largest block
    # synth frees is one float32 map, which keeps glibc's dynamic trim
    # threshold at twice a map's size: a process that goes on to read maps
    # (estimate after synth in one process) then has its heap trimmed and
    # faulted back in on some frames, which raised its p98 frame time by 40 %.
    # Identical frames are rendered once (drift_sequence), which changes how
    # often this canvas is painted, not how.
    background = law.score_for_distance(BACKGROUND_DISTANCE_M)
    scores = np.full((depth_h, depth_w), background, dtype=np.float64)
    for distance_m, r0, r1, c0, c1 in regions:
        value = law.score_for_distance(distance_m)
        if law.noise_sigma > 0:
            value = value + rng.normal(0.0, law.noise_sigma, size=(r1 - r0, c1 - c0))
        scores[r0:r1, c0:c1] = value
    return DepthMap(scores)


def drift_sequence(
    objects: Sequence[SceneObject],
    intrinsics: CameraIntrinsics,
    pose: DronePose,
    pre_law: DepthLawSpec,
    post_law: DepthLawSpec,
    switch_time_s: float,
    duration_s: float,
    fps: int,
    seed: int = 0,
    depth_w: int = DEFAULT_DEPTH_W,
    depth_h: int = DEFAULT_DEPTH_H,
    clip: bool = False,
) -> Iterator[SynthFrame]:
    """Replayable frame stream whose generating law switches mid-run.

    Frames with ``timestamp < switch_time_s`` follow ``pre_law``, later ones
    ``post_law``; timestamps advance at ``1/fps``. Boxes, detections and
    truths are projected once; a frame whose map equals the previous frame's
    shares that frame's :class:`DepthMap`.
    """
    if not duration_s > switch_time_s:
        raise DomainError(
            f"duration {duration_s}s must exceed the switch time {switch_time_s}s"
        )
    if switch_time_s < 0:
        raise DomainError(f"switch time must be >= 0, got {switch_time_s}")
    if fps < 1:
        raise DomainError(f"fps must be >= 1, got {fps}")
    rng = np.random.default_rng(seed)
    detections, truths, regions = _project(objects, intrinsics, pose, clip, depth_w, depth_h)
    n_frames = int(round(duration_s * fps))
    frame = None
    for i in range(n_frames):
        t = i / fps
        law = pre_law if t < switch_time_s else post_law
        # Objects stand still, so a map changes only with the law or its noise.
        # Objects that move must add "and no object moved" to this condition.
        if frame is not None and frame.law == law and law.noise_sigma == 0:
            depth_map = frame.depth_map
        else:
            depth_map = _render(regions, law, rng, depth_w, depth_h)
        frame = SynthFrame(detections, depth_map, truths, t, law)
        yield frame


@dataclass(frozen=True)
class SceneSpec:
    """Parsed scene description for the command-line generator."""

    intrinsics: CameraIntrinsics
    pose: DronePose
    objects: tuple[SceneObject, ...]
    law: DepthLawSpec
    fps: int = 30
    duration_s: float = 1.0
    depth_w: int = DEFAULT_DEPTH_W
    depth_h: int = DEFAULT_DEPTH_H
    post_law: DepthLawSpec | None = None
    switch_time_s: float = 0.0
    vip_id: str = ""

    def __post_init__(self):
        if self.depth_w < 1 or self.depth_h < 1:
            raise DomainError(
                f"depth resolution must be positive, got {self.depth_w}x{self.depth_h}"
            )

    def frames(self, seed: int = 0) -> Iterator[SynthFrame]:
        """The scene's frames; without a ``post_law`` the law never switches."""
        yield from drift_sequence(
            self.objects,
            self.intrinsics,
            self.pose,
            self.law,
            self.law if self.post_law is None else self.post_law,
            self.switch_time_s,
            self.duration_s,
            self.fps,
            seed=seed,
            depth_w=self.depth_w,
            depth_h=self.depth_h,
        )


def _parse_law(payload: dict) -> DepthLawSpec:
    return DepthLawSpec(
        m_true=float(payload["m_true"]),
        s_true=float(payload["s_true"]),
        noise_sigma=float(payload.get("noise_sigma", 0.0)),
        score_orientation=payload.get(
            "score_orientation", LOW_NEAR if float(payload["m_true"]) > 0 else HIGH_NEAR
        ),
    )


def _whole(value, name: str) -> int:
    """A count or a size given as a number with no fractional part."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{name} {value} is not a whole number")
    return int(number)


def _scene_spec(payload: dict) -> SceneSpec:
    cam = payload["camera"]
    intrinsics = CameraIntrinsics(
        focal_length_px=float(cam["focal_length_px"]),
        image_width_px=_whole(cam["image_w"], "image_w"),
        image_height_px=_whole(cam["image_h"], "image_h"),
        fov_deg=float(cam["fov_deg"]) if "fov_deg" in cam else None,
    )
    objects = tuple(
        SceneObject(
            class_label=obj["class_label"],
            height_m=float(obj["height_m"]),
            distance_m=float(obj["distance_m"]),
            lateral_offset_m=float(obj.get("lateral_offset_m", 0.0)),
            is_vip=bool(obj.get("is_vip", False)),
            width_m=float(obj["width_m"]) if "width_m" in obj else None,
        )
        for obj in payload["objects"]
    )
    depth_w, depth_h = payload.get("depth_resolution", (DEFAULT_DEPTH_W, DEFAULT_DEPTH_H))
    drift = payload.get("drift")
    return SceneSpec(
        intrinsics=intrinsics,
        pose=DronePose(height_m=float(payload.get("drone_height_m", 1.5))),
        objects=objects,
        law=_parse_law(payload["law"]),
        fps=_whole(payload.get("fps", 30), "fps"),
        duration_s=float(payload.get("duration_s", 1.0)),
        depth_w=_whole(depth_w, "depth width"),
        depth_h=_whole(depth_h, "depth height"),
        post_law=_parse_law(drift["post_law"]) if drift else None,
        switch_time_s=float(drift["switch_time_s"]) if drift else 0.0,
        vip_id=payload.get("vip_id", ""),
    )


def load_scene_spec(path: str | Path) -> SceneSpec:
    """Parse a scene description JSON file.

    Every fault, a value outside its domain included, is a
    :class:`FormatError` that names the file.
    """
    return read_json(path, "scene file", "scene spec", _scene_spec)
