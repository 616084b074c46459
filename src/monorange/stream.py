"""The frame-stream and estimate-record formats, each rule written once.

A frame stream is JSONL, one frame per line: its detections, an optional
depth-map path (relative to the stream's directory unless absolute), ground
truth by truth key, and the followed person's id. An estimate stream is JSONL
too: one record per estimated detection, plus ``recalibration`` and ``error``
events. Both are written with the canonical JSONL encoder, so a run is
byte-reproducible, and both are read through :func:`monorange.common.read_jsonl`,
so every fault names its file and line.

A frame's depth map is loaded by :func:`load_depth_map`. ``estimate``'s
depth estimators read the next frame's map bytes ahead, with
:func:`map_read` as the job of :func:`monorange.common.one_ahead`, and hand
each finished read to :func:`load_depth_map`, which builds and checks the map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import neod
from .common import (
    DistanceEstimate, FormatError, MissingDataError, NonFiniteError, canonical_jsonl_line,
    read_jsonl, unreadable, whole,
)
from .depth import DepthMap
from .geometry import BoundingBox, Detection


def truth_key(class_label: str, is_vip: bool) -> str:
    """Ground-truth join key for a detection: 'vip' for the followed person."""
    return "vip" if is_vip else class_label


@dataclass(frozen=True)
class FrameAnnotation:
    """One input frame: detections plus optional depth map and ground truth.

    Construction enforces the rules of a frame, each as a :class:`FormatError`:
    a finite timestamp, positive finite ground-truth distances, at most one
    followed person, and no truth key that more than one detection carries.
    """

    frame_id: str
    timestamp_s: float
    detections: tuple[Detection, ...]
    depth_map_path: str | None = None
    ground_truth: dict[str, float] | None = None
    vip_id: str = ""

    def __post_init__(self):
        if not math.isfinite(self.timestamp_s):
            raise FormatError(f"timestamp {self.timestamp_s} is not finite")
        truth = self.ground_truth or {}
        for key, distance in truth.items():
            if not (distance > 0.0 and math.isfinite(distance)):
                raise FormatError(
                    f"ground truth {key!r} is {distance}, not a positive finite distance"
                )
        carried = [truth_key(det.class_label, det.is_vip) for det in self.detections]
        if len(set(carried)) == len(carried):
            return  # keys all differ, so no two followed persons and no shared key
        vips = [det.is_vip for det in self.detections].count(True)
        if vips > 1:
            raise FormatError(
                f"{vips} detections flagged is_vip; a frame has at most one followed person"
            )
        for key in truth:
            if carried.count(key) > 1:
                raise FormatError(
                    f"ambiguous ground truth ({carried.count(key)} detections carry "
                    f"the ground-truth key {key!r})"
                )


def ground_truth(detections: Sequence[Detection], distances: Sequence[float]) -> dict[str, float]:
    """The ground truth of a frame whose i-th detection lies ``distances[i]`` away."""
    return {truth_key(det.class_label, det.is_vip): d for det, d in zip(detections, distances)}


def _detection_payload(det: Detection) -> dict:
    box = det.bbox
    return {
        "class_label": det.class_label, "confidence": det.confidence, "is_vip": det.is_vip,
        "bbox": {
            "x_min": box.x_min, "y_min": box.y_min, "x_max": box.x_max, "y_max": box.y_max,
            "resolution_w": box.resolution_w, "resolution_h": box.resolution_h,
        },
    }


def bbox_from_payload(box: dict) -> BoundingBox:
    x_min, y_min = float(box["x_min"]), float(box["y_min"])
    x_max, y_max = float(box["x_max"]), float(box["y_max"])
    w, h = box["resolution_w"], box["resolution_h"]
    # An int that a float can hold is whole already; passing it on unchecked
    # keeps a frame's decoding cost flat.
    return BoundingBox(
        x_min, y_min, x_max, y_max,
        w if type(w) is int and w < 1e308 else whole(w, "resolution_w"),
        h if type(h) is int and h < 1e308 else whole(h, "resolution_h"),
    )


def annotation_payload(ann: FrameAnnotation) -> dict:
    payload = {
        "frame_id": ann.frame_id,
        "timestamp_s": ann.timestamp_s,
        "detections": [_detection_payload(d) for d in ann.detections],
    }
    if ann.depth_map_path is not None:
        payload["depth_map_path"] = ann.depth_map_path
    if ann.ground_truth is not None:
        payload["ground_truth"] = dict(sorted(ann.ground_truth.items()))
    if ann.vip_id:
        payload["vip_id"] = ann.vip_id
    return payload


def _annotation(payload: dict) -> FrameAnnotation:
    """The frame a decoded stream line describes.

    A field of the wrong JSON type raises one of ``PARSE_ERRORS``; a frame that
    breaks a rule of the format raises :class:`FormatError`.
    """
    frame_id = str(payload["frame_id"])
    timestamp_s = float(payload["timestamp_s"])
    detections = []
    for det in payload.get("detections", ()):
        bbox = bbox_from_payload(det["bbox"])
        is_vip = bool(det.get("is_vip", False))
        label = str(det["class_label"])
        detections.append(Detection(bbox, label, float(det.get("confidence", 1.0)), is_vip))
    depth_map_path = payload.get("depth_map_path")
    if depth_map_path is not None and type(depth_map_path) is not str:
        raise TypeError(f"depth_map_path is {type(depth_map_path).__name__}, not a string")
    truth = payload.get("ground_truth")
    if truth is None:
        ground_truth = None
    elif type(truth) is dict:
        ground_truth = {str(k): float(v) for k, v in truth.items()} or None
    else:
        raise TypeError(f"ground_truth is {type(truth).__name__}, not an object")
    return FrameAnnotation(
        frame_id, timestamp_s, tuple(detections), depth_map_path, ground_truth,
        str(payload.get("vip_id", "")),
    )


def read_annotations(path: str | Path) -> Iterator[FrameAnnotation]:
    """Stream frame annotations, enforcing non-decreasing timestamps and unique frame ids.

    A frame that breaks a rule of :class:`FrameAnnotation` or of the stream is
    a :class:`FormatError` naming file:line.
    """
    previous_ts = -math.inf
    frame_ids: set[str] = set()

    def frame(payload: dict) -> FrameAnnotation:
        nonlocal previous_ts
        ann = _annotation(payload)
        if ann.timestamp_s < previous_ts:
            raise FormatError(
                f"timestamps must be non-decreasing ({ann.timestamp_s} after {previous_ts})"
            )
        if ann.frame_id in frame_ids:
            raise FormatError(f"repeated frame_id {ann.frame_id!r}")
        frame_ids.add(ann.frame_id)
        previous_ts = ann.timestamp_s
        return ann

    return read_jsonl(Path(path), "frame annotation", frame, file_kind="stream file")


def _map_path(stream_path: Path, ann: FrameAnnotation) -> Path:
    if ann.depth_map_path is None:
        raise MissingDataError(f"frame {ann.frame_id}: no depth map recorded")
    return stream_path.parent / ann.depth_map_path  # an absolute path stays as it is


def map_read(stream_path: Path, ann: FrameAnnotation) -> Callable[[], tuple] | None:
    """The read of frame ``ann``'s map bytes, :func:`monorange.neod.read_payload`.

    None for a frame that names no map: :func:`load_depth_map` reports that.
    """
    if ann.depth_map_path is None:
        return None
    return functools.partial(neod.read_payload, _map_path(stream_path, ann))


def load_depth_map(stream_path: Path, ann: FrameAnnotation, read=None) -> DepthMap:
    """The depth map of frame ``ann``; a relative path starts at the stream's directory.

    The map is built from ``read``, the ``Future`` of the frame's finished
    :func:`map_read`, or else read from its file here.
    """
    map_path = _map_path(stream_path, ann)
    try:
        if read is None:
            return neod.read_depth_map(map_path)
        width, height, payload = read.result()
    except OSError as exc:
        raise unreadable(f"frame {ann.frame_id}: depth map {map_path}", exc) from exc
    return neod.depth_map_from_payload(map_path, width, height, payload)


def record(ann: FrameAnnotation, fields: dict) -> dict:
    """``fields`` plus the id and timestamp of frame ``ann``: one estimate-stream record.

    An event's ``fields`` name it under ``event``.
    """
    fields["frame_id"] = ann.frame_id
    fields["timestamp_s"] = ann.timestamp_s
    return fields


def object_record(
    ann: FrameAnnotation, det: Detection, estimate: DistanceEstimate | None, flags: list[str],
    provenance: str | None = None, score: float | None = None,
) -> dict:
    """The record of one detection's estimate; depth estimators add ``provenance`` and ``score``."""
    distance_m = None if estimate is None else estimate.value_m
    rec = record(ann, {"class_label": det.class_label, "is_vip": det.is_vip,
                       "distance_m": distance_m, "flags": sorted(flags)})
    if provenance is not None:
        rec["provenance"] = provenance
    if score is not None:
        rec["score"] = score
    return rec


def record_lines(ann: FrameAnnotation, records: list[dict]) -> list[str]:
    """The frame's records as JSONL lines; a NaN or infinite number is a frame error."""
    try:
        return [canonical_jsonl_line(rec) for rec in records]
    except ValueError:  # the encoder refuses non-finite numbers
        key, value = next(
            (key, value)
            for rec in records
            for key, value in rec.items()
            if isinstance(value, float) and not math.isfinite(value)
        )
        raise NonFiniteError(f"frame {ann.frame_id}: {key} {value} is not finite") from None


def estimate_entry(payload: dict) -> tuple[tuple[str, str], float | None] | None:
    """An estimate record's truth join key and distance; None for an event line."""
    if "event" in payload:
        return None
    frame_id = str(payload["frame_id"])
    key = truth_key(str(payload["class_label"]), bool(payload.get("is_vip", False)))
    distance = payload["distance_m"]
    if distance is not None:
        distance = float(distance)
        if not math.isfinite(distance):
            raise ValueError(f"distance_m {distance} is not finite")
    return (frame_id, key), distance
