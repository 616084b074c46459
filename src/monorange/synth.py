"""Forward generator for synthetic detections and depth maps.

Scenes are generated from ground-truth geometry so every estimator has an
exact round-trip check: a box's edges come from the pinhole formula, in
which a length ``l`` at distance ``z`` spans ``f * l / z`` pixels, and the
depth-map pixels of its :func:`~monorange.geometry.pixel_window`, the ones the
depth scorer reads, carry the score the generating line assigns to the
object's distance.
Objects are placed vertically centered on the optical axis, which keeps them
in frame at any distance; the generator owns that convention since box height
depends only on object height and distance.

Generation is pure given (scene, seed): identical seeds produce byte-identical
depth maps. Objects stand still, so their boxes are projected once per
sequence, and identical frames are rendered once: consecutive frames under
one noiseless law share one immutable :class:`DepthMap`. A noisy law renders
every frame, so its random draws, and every output byte, do not depend on
how often a noiseless map is reused.

Each frame is drawn and painted on the thread that asks for it; nothing here
starts a thread. A noisy frame fills one float64 buffer, sized to the largest
region, with each region's draws just before it paints that region, so the
seeded generator is called as for a float64 map of ``rng.normal`` noise.
Maps are painted into one float32 canvas per law, which each frame's
:class:`DepthMap` copies; the bytes are those of a float64 map rounded once
to float32. While it paints a noisy frame the generator holds that canvas,
the buffer and no earlier map, so a caller that keeps no earlier frame holds
one frame's memory. A noiseless scene allocates no noise buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .common import DomainError, read_json, whole
from .depth import DepthMap, FrameObservation
from .geometry import (
    BoundingBox,
    CameraIntrinsics,
    Detection,
    pixel_window,
    scale_bbox,
)
from .profiles import camera_from_payload

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

    The sign of ``m_true`` says which scores are near: low ones for a positive
    slope, high ones for a negative slope.
    """

    m_true: float
    s_true: float
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.m_true == 0.0:
            raise DomainError("generating slope must be nonzero")
        if not self.noise_sigma >= 0:  # NaN too, which would be neither noisy nor noiseless
            raise DomainError(f"noise sigma must be >= 0, got {self.noise_sigma}")

    def score_for_distance(self, distance_m: float) -> float:
        return (distance_m - self.s_true) / self.m_true


@dataclass(frozen=True)
class SynthFrame(FrameObservation):
    """One generated frame, with each detection's true distance and the law it follows."""

    truths: tuple[float, ...]
    law: DepthLawSpec


def _object_bbox(obj: SceneObject, intrinsics: CameraIntrinsics) -> BoundingBox:
    """Project an object's extent into the detector frame.

    The object spans ``height_m`` vertically, centered on the optical axis,
    at depth ``distance_m`` and lateral offset ``lateral_offset_m``.
    """
    f, z = intrinsics.focal_length_px, obj.distance_m
    w, h = intrinsics.image_width_px, intrinsics.image_height_px
    half_w = obj.effective_width_m / 2.0
    half_h_px = f * (obj.height_m / 2.0) / z
    x_min = w / 2.0 + f * (obj.lateral_offset_m - half_w) / z
    x_max = w / 2.0 + f * (obj.lateral_offset_m + half_w) / z
    y_min, y_max = h / 2.0 - half_h_px, h / 2.0 + half_h_px
    if x_min < 0 or y_min < 0 or x_max > w or y_max > h:
        raise DomainError(
            f"object {obj.class_label!r} at {obj.distance_m} m projects outside "
            f"the {w}x{h} frame: [{x_min:.1f}, {y_min:.1f}, {x_max:.1f}, {y_max:.1f}]"
        )
    return BoundingBox(x_min, y_min, x_max, y_max, w, h)


def _project(
    objects: Sequence[SceneObject],
    intrinsics: CameraIntrinsics,
    depth_w: int,
    depth_h: int,
) -> tuple[tuple[Detection, ...], tuple[float, ...], tuple[Region, ...]]:
    """The detections, truths and painted regions of a scene's still objects.

    Regions are listed far to near so closer objects overwrite overlapping ones.
    """
    boxes = [_object_bbox(obj, intrinsics) for obj in objects]
    detections = tuple(
        Detection(bbox=bbox, class_label=obj.class_label, confidence=1.0, is_vip=obj.is_vip)
        for obj, bbox in zip(objects, boxes)
    )
    regions = tuple(
        (obj.distance_m, *pixel_window(scale_bbox(bbox, depth_w, depth_h)))
        for obj, bbox in sorted(zip(objects, boxes), key=lambda pair: -pair[0].distance_m)
    )
    return detections, tuple(obj.distance_m for obj in objects), regions


def _noise_buffer(regions: Sequence[Region]) -> np.ndarray:
    """One flat float64 buffer for the noise of any one region, empty without regions."""
    return np.empty(max(((r1 - r0) * (c1 - c0) for _, r0, r1, c0, c1 in regions), default=0))


def _canvas(law: DepthLawSpec, depth_w: int, depth_h: int) -> np.ndarray:
    """A float32 map of ``law``'s background score, for :func:`_paint` to paint into."""
    with np.errstate(over="ignore"):  # a score beyond float32 becomes inf, rejected by DepthMap
        return np.full(
            (depth_h, depth_w), law.score_for_distance(BACKGROUND_DISTANCE_M), dtype=np.float32
        )


def _paint(
    regions: Sequence[Region],
    law: DepthLawSpec,
    canvas: np.ndarray,
    rng: np.random.Generator | None = None,
    noise: np.ndarray | None = None,
) -> DepthMap:
    """Paint each region far to near into ``canvas``, which holds ``law``'s background.

    A noisy law takes its draws from ``rng`` into ``noise``, a
    :func:`_noise_buffer` of these regions: each region's standard normal
    draws ``z`` are made just before the region is painted, in painting
    order, as ``rng.normal(0.0, sigma, size)`` would make them before it
    returns ``0.0 + sigma * z``. Every region is painted whole on every
    call, so a canvas painted before under the same law gives the same map.
    """
    # Each score is one float64 sum rounded once to float32: the bytes of a
    # float64 map rounded by astype, as ``(value + 0.0) + sigma * z`` equals
    # ``value + (0.0 + sigma * z)`` for every double, signed zeros included.
    # The canvas may be reused because DepthMap copies it into bytes of its
    # own, and it is allocated once per law: a fresh float32 canvas per frame
    # once let glibc trim and re-fault the heap of a process that reads maps
    # after synth, which raised its p98 frame time by 40 %. On a 2-vCPU KVM
    # Xeon, six processes that ran synth on drift_hd and then read its maps
    # saw 0.51 minor faults per map read with this canvas and with the
    # float64 canvas per frame alike, and a p98 of 0.53-0.77 ms against
    # 0.56-0.85 ms.
    with np.errstate(over="ignore"):  # a score beyond float32 becomes inf, rejected below
        for distance_m, r0, r1, c0, c1 in regions:
            value = law.score_for_distance(distance_m)
            if law.noise_sigma == 0:
                canvas[r0:r1, c0:c1] = value
            else:
                z = noise[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
                rng.standard_normal(out=z)
                np.multiply(z, law.noise_sigma, out=z)
                np.add(z, value + 0.0, out=canvas[r0:r1, c0:c1], casting="same_kind")
    return DepthMap(canvas)


@dataclass(frozen=True)
class SceneSpec:
    """A synthetic scene: camera, still objects and generating law; it renders its own frames."""

    intrinsics: CameraIntrinsics
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
        """Replayable frame stream whose generating law may switch mid-run.

        Frames with ``timestamp < switch_time_s`` follow ``law``, later ones
        ``post_law``; without a ``post_law`` the law never switches.
        Timestamps advance at ``1/fps``. Boxes, detections and truths are
        projected once; a frame whose map equals the previous frame's shares
        that frame's :class:`DepthMap`. Each map is rendered on the calling
        thread when its frame is asked for, and a fault raises from that
        frame's ``next()``. The generator drops the previous map before it
        paints a noisy frame, and the old canvas before it makes a new law's
        one, so a noisy frame holds one canvas, one noise buffer and its own
        map.
        """
        duration_s, switch_time_s, fps = self.duration_s, self.switch_time_s, self.fps
        if not duration_s > switch_time_s:
            raise DomainError(
                f"duration {duration_s}s must exceed the switch time {switch_time_s}s"
            )
        if switch_time_s < 0:
            raise DomainError(f"switch time must be >= 0, got {switch_time_s}")
        if fps < 1:
            raise DomainError(f"fps must be >= 1, got {fps}")
        if not math.isfinite(duration_s * fps):
            raise DomainError(
                f"duration {duration_s}s at {fps} fps holds too many frames to count"
            )
        n_frames = int(round(duration_s * fps))
        if n_frames < 1:
            raise DomainError(f"duration {duration_s}s at {fps} fps holds no frame")
        rng = np.random.default_rng(seed)
        depth_w, depth_h = self.depth_w, self.depth_h
        detections, truths, regions = _project(self.objects, self.intrinsics, depth_w, depth_h)
        post_law = self.law if self.post_law is None else self.post_law
        noisy = self.law.noise_sigma > 0 or post_law.noise_sigma > 0
        noise = _noise_buffer(regions) if noisy else None
        last_law = canvas = depth_map = None
        for i in range(n_frames):
            law = self.law if i / fps < switch_time_s else post_law
            # Objects stand still, so a map changes only with the law or its
            # noise. Objects that move must add "or an object moved" to this
            # condition.
            if law != last_law or law.noise_sigma > 0:
                # The old map, and on a switch the old canvas, go before the
                # new ones are made, so no two are alive at once.
                depth_map = None
                if law != last_law:
                    canvas = None
                    canvas = _canvas(law, depth_w, depth_h)
                depth_map = _paint(regions, law, canvas, rng, noise)
            last_law = law
            yield SynthFrame(detections, depth_map, i / fps, truths, law)


def _parse_law(payload: dict) -> DepthLawSpec:
    return DepthLawSpec(
        m_true=float(payload["m_true"]),
        s_true=float(payload["s_true"]),
        noise_sigma=float(payload.get("noise_sigma", 0.0)),
    )


def _scene_spec(payload: dict) -> SceneSpec:
    intrinsics = camera_from_payload(payload["camera"])
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
        objects=objects,
        law=_parse_law(payload["law"]),
        fps=whole(payload.get("fps", 30), "fps"),
        duration_s=float(payload.get("duration_s", 1.0)),
        depth_w=whole(depth_w, "depth width"),
        depth_h=whole(depth_h, "depth height"),
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
