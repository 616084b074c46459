"""Command-line front end: calibrate, estimate, evaluate, synth, focal.

Streams are JSONL (one frame per line), metric tables are CSV, and profiles
are canonical JSON, so every run is diffable and byte-reproducible for a
fixed ``--seed``. Environment variables are never consulted.

Exit codes: 0 success, 2 input-format error, 3 calibration-fit error,
4 missing-data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from . import depth as depth_mod
from . import metrics, neod, profiles, synth
from .common import (
    PARSE_ERRORS,
    DegenerateGeometryError,
    DistanceEstimate,
    DomainError,
    EmptyInputError,
    FormatError,
    MissingDataError,
    MonorangeError,
    NoPixelsError,
    NonFiniteError,
    SingularFitError,
    canonical_jsonl_line,
    read_jsonl,
    read_lines,
    unreadable,
    unwritable,
)
from .geometry import (
    BoundingBox,
    CameraIntrinsics,
    Detection,
    estimate_distance_geometric,
    estimate_focal_length,
    sample_focal_length,
    scale_bbox,
)
from .regression import (
    LabeledFrame,
    MODE_THREE,
    MODE_TWO,
    RegressionFeatures,
    fit_regression,
    predict_distance,
)

log = logging.getLogger("monorange")

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_FIT = 3
EXIT_MISSING = 4


@dataclass(frozen=True)
class FrameAnnotation:
    """One input frame: detections plus optional depth map and ground truth."""

    frame_id: str
    timestamp_s: float
    detections: tuple[Detection, ...]
    depth_map_path: str | None = None
    ground_truth: dict[str, float] | None = None
    vip_id: str = ""
    scene: str = ""


def truth_key(det: Detection) -> str:
    """Ground-truth join key for a detection: 'vip' for the followed person."""
    return "vip" if det.is_vip else det.class_label


def _detection_payload(det: Detection) -> dict:
    return {
        "class_label": det.class_label,
        "confidence": det.confidence,
        "is_vip": det.is_vip,
        "bbox": {
            "x_min": det.bbox.x_min,
            "y_min": det.bbox.y_min,
            "x_max": det.bbox.x_max,
            "y_max": det.bbox.y_max,
            "resolution_w": det.bbox.resolution_w,
            "resolution_h": det.bbox.resolution_h,
        },
    }


def _bbox_from_payload(box: dict) -> BoundingBox:
    return BoundingBox(
        float(box["x_min"]),
        float(box["y_min"]),
        float(box["x_max"]),
        float(box["y_max"]),
        int(box["resolution_w"]),
        int(box["resolution_h"]),
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
    if ann.scene:
        payload["scene"] = ann.scene
    return payload


def _annotation(payload: dict) -> tuple[FrameAnnotation, int, int]:
    """The frame a decoded stream line describes, its count of is_vip detections
    and its count of distinct truth keys.

    A field of the wrong JSON type raises one of ``PARSE_ERRORS``.
    """
    frame_id = str(payload["frame_id"])
    timestamp_s = float(payload["timestamp_s"])
    detections = []
    vips = 0
    keys = set()
    for det in payload.get("detections", ()):
        bbox = _bbox_from_payload(det["bbox"])
        is_vip = bool(det.get("is_vip", False))
        vips += is_vip
        label = str(det["class_label"])
        keys.add("vip" if is_vip else label)
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
    ann = FrameAnnotation(
        frame_id,
        timestamp_s,
        tuple(detections),
        depth_map_path,
        ground_truth,
        str(payload.get("vip_id", "")),
        str(payload.get("scene", "")),
    )
    return ann, vips, len(keys)


def _shared_truth_key(detections: Sequence[Detection], truth: dict) -> str | None:
    """Why ``truth`` is ambiguous for ``detections``: a key more than one of them carries."""
    carried = [truth_key(det) for det in detections]
    for key in truth:
        if carried.count(key) > 1:
            return f"{carried.count(key)} detections carry the ground-truth key {key!r}"
    return None


def read_annotations(path: str | Path) -> Iterator[FrameAnnotation]:
    """Stream frame annotations, enforcing non-decreasing timestamps.

    A frame holds at most one followed person, its ground-truth distances
    are positive and finite, and each of their keys names one detection at most.
    """
    p = Path(path)
    previous_ts = None
    for lineno, line in read_lines(p, "stream file"):
        try:
            ann, vips, distinct_keys = _annotation(json.loads(line))
        except (DomainError, *PARSE_ERRORS) as exc:
            raise FormatError(f"{p}:{lineno}: malformed frame annotation ({exc})") from exc
        if not math.isfinite(ann.timestamp_s):
            raise FormatError(f"{p}:{lineno}: timestamp {ann.timestamp_s} is not finite")
        for key, truth in (ann.ground_truth or {}).items():
            if not (truth > 0.0 and math.isfinite(truth)):
                raise FormatError(
                    f"{p}:{lineno}: ground truth {key!r} is {truth}, "
                    "not a positive finite distance"
                )
        if vips > 1:
            raise FormatError(
                f"{p}:{lineno}: {vips} detections flagged is_vip; "
                "a frame has at most one followed person"
            )
        if distinct_keys < len(ann.detections) and ann.ground_truth:
            shared = _shared_truth_key(ann.detections, ann.ground_truth)
            if shared is not None:
                raise FormatError(f"{p}:{lineno}: ambiguous ground truth ({shared})")
        if previous_ts is not None and ann.timestamp_s < previous_ts:
            raise FormatError(
                f"{p}:{lineno}: timestamps must be non-decreasing "
                f"({ann.timestamp_s} after {previous_ts})"
            )
        previous_ts = ann.timestamp_s
        yield ann


def _resolve_map_path(stream_path: Path, depth_map_path: str) -> Path:
    candidate = Path(depth_map_path)
    return candidate if candidate.is_absolute() else stream_path.parent / candidate


def _load_depth_map(stream_path: Path, ann: FrameAnnotation) -> depth_mod.DepthMap:
    if ann.depth_map_path is None:
        raise MissingDataError(f"frame {ann.frame_id}: no depth map recorded")
    map_path = _resolve_map_path(stream_path, ann.depth_map_path)
    try:
        return neod.read_depth_map(map_path)
    except OSError as exc:
        raise unreadable(f"frame {ann.frame_id}: depth map {map_path}", exc) from exc


def _norm_method_from_args(args, depth_profile=None) -> depth_mod.NormalizationMethod:
    lt_percentile = args.lt_percentile
    if lt_percentile is None:
        lt_percentile = depth_profile.lt_percentile if depth_profile is not None else 10.0
    return depth_mod.NormalizationMethod(
        kind=args.norm_method,
        diameter_px=args.diameter_px,
        lt_percentile=lt_percentile,
        center_weight=args.center_weight,
        lt_take=args.lt_take,
    )


# ---------------------------------------------------------------------------
# calibrate


def _labeled_frame(payload: dict) -> LabeledFrame:
    return LabeledFrame(
        features=RegressionFeatures.from_dims(float(payload["w_b"]), float(payload["h_b"])),
        true_distance_m=float(payload["true_distance_m"]),
    )


def _cmd_calibrate_regression(args) -> int:
    frames = list(read_jsonl(args.frames, "labeled frame", _labeled_frame))
    model = fit_regression(frames, mode=args.mode, vip_id=args.vip_id)
    residual = math.sqrt(
        math.fsum(
            (f.true_distance_m - predict_distance(model, f.features).value_m) ** 2
            for f in frames
        )
    )
    profiles.save_profile(args.out, model)
    print(
        f"regression profile -> {args.out}  "
        f"a={model.a:.6g} b={model.b:.6g} c={model.c:.6g} "
        f"samples={len(frames)} residual_norm={residual:.6g}"
    )
    return EXIT_OK


def _focal_sample(payload: dict) -> tuple[BoundingBox, float, float]:
    """A reference sample whose domain and own focal length are checked."""
    sample = (
        _bbox_from_payload(payload["bbox"]),
        float(payload["object_height_m"]),
        float(payload["true_distance_m"]),
    )
    sample_focal_length(*sample)
    return sample


def _cmd_calibrate_focal(args) -> int:
    samples = list(read_jsonl(args.samples, "focal sample", _focal_sample))
    estimate = estimate_focal_length(samples)
    bbox = samples[-1][0]
    camera = CameraIntrinsics(
        focal_length_px=estimate.median,
        image_width_px=bbox.resolution_w,
        image_height_px=bbox.resolution_h,
        fov_deg=args.fov_deg,
    )
    profiles.save_profile(args.out, camera)
    print(
        f"camera profile -> {args.out}  "
        f"q1={estimate.q1:.6g} median={estimate.median:.6g} q3={estimate.q3:.6g} "
        f"samples={len(samples)}"
    )
    return EXIT_OK


def _collect_vip_scores(
    stream_paths: Sequence[str], method: depth_mod.NormalizationMethod
) -> dict[float, list[float]]:
    """Normalized VIP scores grouped by the frame's ground-truth distance."""
    by_distance: dict[float, list[float]] = {}
    for stream in stream_paths:
        stream_path = Path(stream)
        for ann in read_annotations(stream_path):
            truth = (ann.ground_truth or {}).get("vip")
            if truth is None:
                continue
            vips = [d for d in ann.detections if d.is_vip]
            if not vips:
                continue
            depth_map = _load_depth_map(stream_path, ann)
            scaled = scale_bbox(vips[0].bbox, depth_map.width, depth_map.height)
            score = depth_mod.normalize_region(depth_map, scaled, method)
            by_distance.setdefault(float(truth), []).append(score)
    return by_distance


def _parse_pair(text: str, sep: str, flag: str) -> tuple[float, float]:
    try:
        a, b = (float(x) for x in text.split(sep))
    except ValueError as exc:
        raise FormatError(f"{flag}: expected 'd1{sep}d2', got {text!r}") from exc
    return a, b


def _cmd_calibrate_depth(args) -> int:
    method = _norm_method_from_args(args)
    if args.candidate_pairs:
        pairs = [
            _parse_pair(chunk, ":", "--candidate-pairs")
            for chunk in args.candidate_pairs.split(",")
        ]
    else:
        pair = _parse_pair(args.pair, ",", "--pair")
    by_distance = _collect_vip_scores(args.stream, method)
    if not by_distance:
        raise MissingDataError("no frames with a detected person and ground truth found")

    if args.candidate_pairs:
        pair, coeffs = depth_mod.select_calibration_pair(by_distance, pairs)
    else:
        samples = []
        for dist in pair:
            if dist not in by_distance:
                raise MissingDataError(f"no frames at calibration distance {dist} m")
            samples.extend(
                depth_mod.CalibrationSample(score, dist) for score in by_distance[dist]
            )
        coeffs = depth_mod.fit_coefficients(samples)

    residual = math.sqrt(
        math.fsum(
            (dist - (coeffs.m * score + coeffs.s)) ** 2
            for dist, scores in sorted(by_distance.items())
            for score in scores
        )
    )
    profile = profiles.DepthProfile(
        vip_id=args.vip_id,
        m=coeffs.m,
        s=coeffs.s,
        unit="m",
        pair=pair,
        lt_percentile=method.lt_percentile,
        smooth_window=args.smooth_window,
    )
    profiles.save_profile(args.out, profile)
    print(
        f"depth profile -> {args.out}  m={coeffs.m:.6g} s={coeffs.s:.6g} "
        f"pair={pair} samples={coeffs.sample_count} residual_norm={residual:.6g}"
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    if args.subject == "regression":
        return _cmd_calibrate_regression(args)
    if args.subject == "focal":
        return _cmd_calibrate_focal(args)
    return _cmd_calibrate_depth(args)


# ---------------------------------------------------------------------------
# estimate


def _profile(source, flag: str, loader, who: str):
    """Load the profile ``flag`` names; ``who`` needs it, so it must be given."""
    if not source:
        raise MissingDataError(f"{who} needs {flag}")
    return loader(source)


def _object_record(
    ann: FrameAnnotation,
    det: Detection,
    estimate: DistanceEstimate | None,
    flags: list[str],
    provenance: str | None = None,
    score: float | None = None,
) -> dict:
    record = {
        "frame_id": ann.frame_id,
        "timestamp_s": ann.timestamp_s,
        "class_label": det.class_label,
        "is_vip": det.is_vip,
        "distance_m": None if estimate is None else estimate.value_m,
        "flags": sorted(flags),
    }
    if provenance is not None:
        record["provenance"] = provenance
    if score is not None:
        record["score"] = score
    return record


class _RegressionRunner:
    """Applies a fitted box-feature model to the stream's person detections.

    Features are meaningful only in the resolution the model was calibrated
    in, so boxes from any other resolution are rejected; the native resolution
    comes from the camera profile when given, otherwise from the first frame.
    """

    needs_depth_map = False

    def __init__(self, name: str, args):
        self.model = _profile(
            args.regression_profile, "--regression-profile",
            profiles.load_regression_profile, f"estimator {name!r}",
        )
        camera = profiles.load_camera_profile(args.camera_profile) if args.camera_profile else None
        self.native = (camera.image_width_px, camera.image_height_px) if camera else None
        self._warned_vip = False

    def run_frame(self, ann: FrameAnnotation, depth_map, out: list[dict]):
        if (
            not self._warned_vip
            and ann.vip_id
            and self.model.calibrated_for
            and ann.vip_id != self.model.calibrated_for
        ):
            log.info(
                "predicting person %s with a profile calibrated for %s",
                ann.vip_id, self.model.calibrated_for,
            )
            self._warned_vip = True
        for det in ann.detections:
            if not det.is_vip:
                continue  # this estimator only covers the followed person
            resolution = (det.bbox.resolution_w, det.bbox.resolution_h)
            if self.native is None:
                self.native = resolution
            elif resolution != self.native:
                raise DomainError(
                    f"frame {ann.frame_id}: box resolution {resolution[0]}x{resolution[1]} "
                    f"differs from the calibrated {self.native[0]}x{self.native[1]}; "
                    "scale the box first"
                )
            estimate = predict_distance(self.model, RegressionFeatures.from_bbox(det.bbox))
            flags = ["out-of-domain"] if estimate.out_of_domain else []
            out.append(_object_record(ann, det, estimate, flags))


class _GeometricRunner:
    """Pinhole distances from class-average heights, or measured ones with ``actual``."""

    needs_depth_map = False

    def __init__(self, name: str, args, actual: bool):
        self.intrinsics = _profile(
            args.camera_profile, "--camera-profile", profiles.load_camera_profile,
            f"estimator {name!r}",
        )
        heights = (
            profiles.load_height_table(args.height_table) if args.height_table
            else profiles.DEFAULT_HEIGHTS
        )
        self.height = heights.actual if actual else heights.expected
        self.resolution = (self.intrinsics.image_width_px, self.intrinsics.image_height_px)

    def run_frame(self, ann: FrameAnnotation, depth_map, out: list[dict]):
        for det in ann.detections:
            resolution = (det.bbox.resolution_w, det.bbox.resolution_h)
            if resolution != self.resolution:
                raise DomainError(
                    f"detection resolution {resolution[0]}x{resolution[1]} does not match "
                    f"the camera profile {self.resolution[0]}x{self.resolution[1]}; "
                    "scale the box first"
                )
            try:
                height = self.height(truth_key(det))
            except MissingDataError:
                out.append(_object_record(ann, det, None, ["no-height"]))
                continue
            value = estimate_distance_geometric(det.bbox, height, self.intrinsics)
            out.append(_object_record(ann, det, DistanceEstimate(value), []))


def _calibration_sample(payload: dict) -> depth_mod.CalibrationSample:
    return depth_mod.CalibrationSample(
        normalized_score=float(payload["normalized_score"]),
        true_distance_m=float(payload["true_distance_m"]),
    )


class _NeoRunner:
    """Calibrated depth-score distances, with online recalibration when asked.

    Without ``recalibrate`` (``neo_norc``) the profile's line is kept for the
    whole stream; both go through :func:`monorange.depth.step`.
    """

    needs_depth_map = True

    def __init__(self, name: str, args, recalibrate: bool):
        profile = _profile(
            args.depth_profile, "--depth-profile", profiles.load_depth_profile,
            f"estimator {name!r}",
        )
        self.method = _norm_method_from_args(args, profile)
        window = args.smooth_window if args.smooth_window is not None else profile.smooth_window
        if window < 1:
            raise DomainError(f"smooth window must be >= 1, got {window}")
        self.smoother = depth_mod.ScoreSmoother(window) if window > 1 else None
        self.coeffs = profile.to_coefficients()
        self.config = self.state = self.gt_model = None
        if not recalibrate:
            return
        self.config = depth_mod.RecalibrationConfig(
            w=args.window,
            w_prime_s=args.train_window_s,
            fps=args.fps,
            alpha=args.alpha,
            tau_m=args.tau_cm / 100.0,
            n_o=args.n_o,
        )
        if args.gt_source == "regression":
            self.gt_model = _profile(
                args.regression_profile, "--regression-profile",
                profiles.load_regression_profile,
                f"estimator {name!r} with --gt-source regression",
            )
        self.state = depth_mod.RecalibrationState(
            self.config, self._load_recal_samples(args, profile), seed=args.seed
        )

    def _load_recal_samples(self, args, profile: profiles.DepthProfile):
        """Offline anchor samples for recalibration.

        Prefers an explicit sidecar file; otherwise reconstructs ``n_o`` anchors
        from the profile's fitted line at its calibration pair distances.
        """
        n_o = self.config.n_o
        if args.recal_samples:
            samples = list(read_jsonl(args.recal_samples, "sample", _calibration_sample))
            if len(samples) != n_o:
                raise DomainError(
                    f"--n-o is {n_o} but {args.recal_samples} holds {len(samples)}"
                )
            return samples
        if profile.pair is None:
            raise MissingDataError(
                "depth profile has no calibration pair; provide --recal-samples"
            )
        coeffs = profile.to_coefficients()
        d1, d2 = profile.pair
        n1 = n_o // 2
        anchors = [depth_mod.CalibrationSample((d1 - coeffs.s) / coeffs.m, d1)] * n1
        anchors += [depth_mod.CalibrationSample((d2 - coeffs.s) / coeffs.m, d2)] * (n_o - n1)
        return anchors

    def vip_truth(self, ann: FrameAnnotation) -> DistanceEstimate | None:
        if self.gt_model is None:
            value = (ann.ground_truth or {}).get("vip")
            return None if value is None else DistanceEstimate(float(value))
        vips = [d for d in ann.detections if d.is_vip]
        if not vips:
            return None
        return predict_distance(self.gt_model, RegressionFeatures.from_bbox(vips[0].bbox))

    def run_frame(self, ann: FrameAnnotation, depth_map, out: list[dict]):
        frame = depth_mod.FrameObservation(
            detections=ann.detections, depth_map=depth_map, timestamp_s=ann.timestamp_s
        )
        result = depth_mod.step(
            frame,
            None if self.state is None else self.vip_truth(ann),
            self.state,
            self.config,
            self.coeffs,
            method=self.method,
            smoother=self.smoother,
        )
        self.coeffs = result.coeffs
        if result.recalibrated:
            out.append(
                {
                    "event": "recalibration",
                    "frame_id": ann.frame_id,
                    "timestamp_s": ann.timestamp_s,
                    "m": result.coeffs.m,
                    "s": result.coeffs.s,
                    "sample_count": result.coeffs.sample_count,
                }
            )
        for est in result.estimates:
            flags = ["out-of-domain"] if est.distance.out_of_domain else []
            out.append(
                _object_record(
                    ann, est.detection, est.distance, flags,
                    provenance=self.coeffs.provenance, score=est.score,
                )
            )


def _record_lines(ann: FrameAnnotation, records: list[dict]) -> list[str]:
    """The frame's records as JSONL lines; a NaN or infinite number is a frame error."""
    try:
        return [canonical_jsonl_line(record) for record in records]
    except ValueError:  # the encoder refuses non-finite numbers
        key, value = next(
            (key, value)
            for record in records
            for key, value in record.items()
            if isinstance(value, float) and not math.isfinite(value)
        )
        raise NonFiniteError(f"frame {ann.frame_id}: {key} {value} is not finite") from None


# Each estimator's runner, built once per run as ``runner(name, args)``. It
# loads and checks the profiles it needs, and ``run_frame(ann, depth_map,
# out)`` appends the frame's records to ``out``; ``depth_map`` is None unless
# ``needs_depth_map``.
RUNNERS = {
    "regression": _RegressionRunner,
    "geometric": functools.partial(_GeometricRunner, actual=False),
    "geometric_star": functools.partial(_GeometricRunner, actual=True),
    "neo": functools.partial(_NeoRunner, recalibrate=True),
    "neo_norc": functools.partial(_NeoRunner, recalibrate=False),
}

ESTIMATORS = tuple(RUNNERS)


def cmd_estimate(args) -> int:
    runner = RUNNERS[args.estimator](args.estimator, args)
    stream_path = Path(args.stream)
    out_path = Path(args.out)
    tmp_path = out_path.with_name(out_path.name + ".tmp")
    frames = records = recals = errors = 0
    try:
        with open(tmp_path, "w") as fh:
            for ann in read_annotations(stream_path):
                frames += 1
                out: list[dict] = []
                try:
                    depth_map = (
                        _load_depth_map(stream_path, ann) if runner.needs_depth_map else None
                    )
                    runner.run_frame(ann, depth_map, out)
                    lines = _record_lines(ann, out)
                except (
                    MissingDataError, NoPixelsError, DegenerateGeometryError, NonFiniteError
                ) as exc:
                    out = [
                        {
                            "event": "error",
                            "frame_id": ann.frame_id,
                            "timestamp_s": ann.timestamp_s,
                            "reason": str(exc),
                        }
                    ]
                    lines = [canonical_jsonl_line(out[0])]
                    errors += 1
                for record, line in zip(out, lines):
                    fh.write(line)
                    recals += record.get("event") == "recalibration"
                records += len(out)
        os.replace(tmp_path, out_path)
    except OSError as exc:
        raise unwritable(f"output file {out_path}", exc) from exc
    finally:
        if tmp_path.exists():
            tmp_path.unlink()
    print(
        f"estimates -> {out_path}  frames={frames} records={records} "
        f"recalibrations={recals} frame_errors={errors}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _estimate_entry(payload: dict) -> tuple[tuple[str, str], float | None] | None:
    """An estimate record's truth join key and distance; None for an event line."""
    if "event" in payload:
        return None
    frame_id = str(payload["frame_id"])
    label = str(payload["class_label"])
    is_vip = bool(payload.get("is_vip", False))
    distance = payload["distance_m"]
    if distance is not None:
        distance = float(distance)
        if not math.isfinite(distance):
            raise ValueError(f"distance_m {distance} is not finite")
    return (frame_id, "vip" if is_vip else label), distance


def cmd_evaluate(args) -> int:
    near_m, far_m = args.near_threshold_m, args.far_limit_m
    if not near_m < far_m:
        raise DomainError("near threshold must be below far limit")
    truth: dict[tuple[str, str], float] = {}
    for ann in read_annotations(args.truth):
        for key, value in (ann.ground_truth or {}).items():
            truth[(ann.frame_id, key)] = float(value)

    joined: list[metrics.ErrorRecord] = []
    unmatched_estimates = 0
    beyond_limit = 0
    for entry in read_jsonl(args.estimates, "record", _estimate_entry):
        if entry is None:
            continue
        key, distance = entry
        if distance is None or key not in truth:
            unmatched_estimates += 1
            continue
        true_m = truth[key]
        if true_m > far_m:
            beyond_limit += 1
            continue
        joined.append(
            metrics.ErrorRecord(
                frame_id=key[0],
                class_label=key[1],
                true_distance_m=true_m,
                predicted_distance_m=distance,
            )
        )

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if joined:
            metrics.write_records_csv(joined, out_dir / "records.csv")
            per_class: dict[str, list[metrics.ErrorRecord]] = {"overall": list(joined)}
            for rec in joined:
                per_class.setdefault(rec.class_label, []).append(rec)
            metrics.write_summary_csv(per_class, out_dir / "summary.csv")
            metrics.write_quadrant_csv(
                metrics.quadrant_matrix(joined, near_m),
                out_dir / "quadrant.csv",
            )
    except OSError as exc:
        raise unwritable(f"output path {exc.filename or out_dir}", exc) from exc
    print(
        f"metrics -> {out_dir}  joined={len(joined)} unmatched={unmatched_estimates} "
        f"beyond_{far_m:g}m={beyond_limit}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


def _synth_ground_truth(scene: str, frame: synth.SynthFrame) -> dict[str, float]:
    """A synthetic frame's distances by truth key, each key naming one detection."""
    truth = {truth_key(det): dist for det, dist in zip(frame.detections, frame.truths)}
    if len(truth) < len(frame.detections):
        shared = _shared_truth_key(frame.detections, truth)
        raise FormatError(f"{scene}: ambiguous ground truth ({shared})")
    return truth


def cmd_synth(args) -> int:
    spec = synth.load_scene_spec(args.scene)
    # The first frame shows every fault of the scene itself (an object outside
    # the frame, a map that is not finite, a shared truth key), so a scene
    # with one fails before the output directory is created or touched.
    frames = spec.frames(seed=args.seed)
    try:
        frame = next(frames, None)
    except DomainError as exc:
        raise FormatError(f"{args.scene}: scene cannot be rendered ({exc})") from exc
    if frame is not None:
        _synth_ground_truth(args.scene, frame)
    out_dir = Path(args.out_dir)
    maps_dir = out_dir / "maps"
    stream_path = out_dir / "frames.jsonl"
    i = 0
    try:
        maps_dir.mkdir(parents=True, exist_ok=True)
        with open(stream_path, "w") as fh:
            try:
                # One frame is held at a time: holding the first one as well
                # would keep one more map alive for the whole run.
                while frame is not None:
                    map_name = f"maps/frame_{i:06d}.neod"
                    try:
                        neod.write_depth_map(out_dir / map_name, frame.depth_map)
                    except OSError as exc:
                        raise unwritable(f"depth map {out_dir / map_name}", exc) from exc
                    ann = FrameAnnotation(
                        frame_id=f"frame_{i:06d}",
                        timestamp_s=frame.timestamp_s,
                        detections=frame.detections,
                        depth_map_path=map_name,
                        ground_truth=_synth_ground_truth(args.scene, frame),
                        vip_id=spec.vip_id,
                    )
                    fh.write(canonical_jsonl_line(annotation_payload(ann)))
                    i += 1
                    frame = next(frames, None)
            except BaseException:
                # The frames before the failure would read as a whole stream.
                stream_path.unlink(missing_ok=True)
                raise
    except OSError as exc:
        raise unwritable(f"output path {exc.filename or stream_path}", exc) from exc
    except DomainError as exc:  # a later frame renders outside some domain
        raise FormatError(f"{args.scene}: scene cannot be rendered ({exc})") from exc
    print(f"synthetic stream -> {stream_path}  frames={i} maps={i}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point


def _add_norm_flags(parser):
    parser.add_argument(
        "--norm-method", choices=depth_mod.METHOD_KINDS, default=depth_mod.LOW_THRESHOLD
    )
    parser.add_argument("--lt-percentile", type=float, default=None)
    parser.add_argument("--lt-take", choices=("lowest", "highest"), default="lowest")
    parser.add_argument("--diameter-px", type=int, default=40)
    parser.add_argument("--center-weight", type=float, default=0.5)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after that.

    Building it takes milliseconds, and callers such as the synthetic suite
    run many commands in one process. Every caller gets the same object, so
    none may add arguments to it or change its defaults. Each command names
    its handler, which :func:`main` looks up in this module when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="monorange",
        description="Distance estimation from monocular drone video.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="fit a calibration profile")
    cal_sub = cal.add_subparsers(dest="subject", required=True)

    cal_reg = cal_sub.add_parser("regression", help="fit box-feature regression")
    cal_reg.add_argument("--frames", required=True, help="JSONL of labeled frames")
    cal_reg.add_argument("--mode", choices=(MODE_THREE, MODE_TWO), default=MODE_THREE)
    cal_reg.add_argument("--vip-id", default="")
    cal_reg.add_argument("--out", required=True)
    cal_reg.set_defaults(handler="cmd_calibrate")

    cal_depth = cal_sub.add_parser("depth", help="fit depth-map scale/shift")
    cal_depth.add_argument("--stream", action="append", required=True)
    cal_depth.add_argument("--pair", default="2.5,4.0", help="calibration distances 'd1,d2'")
    cal_depth.add_argument(
        "--candidate-pairs", default=None, help="pairs to rank, 'd1:d2,d1:d2,...'"
    )
    cal_depth.add_argument("--vip-id", default="")
    cal_depth.add_argument("--smooth-window", type=int, default=5)
    cal_depth.add_argument("--out", required=True)
    _add_norm_flags(cal_depth)
    cal_depth.set_defaults(handler="cmd_calibrate")

    focal = sub.add_parser("focal", help="estimate the focal length")
    focal.add_argument("--samples", required=True, help="JSONL of reference-object samples")
    focal.add_argument("--fov-deg", type=float, default=None)
    focal.add_argument("--out", required=True)
    focal.set_defaults(handler="cmd_calibrate", subject="focal")

    est = sub.add_parser("estimate", help="estimate distances over a frame stream")
    est.add_argument("--stream", required=True)
    est.add_argument("--estimator", choices=ESTIMATORS, required=True)
    est.add_argument("--camera-profile", default=None)
    est.add_argument("--regression-profile", default=None)
    est.add_argument("--depth-profile", default=None)
    est.add_argument("--height-table", default=None)
    est.add_argument("--recal-samples", default=None)
    est.add_argument("--gt-source", choices=("regression", "truth"), default="regression")
    est.add_argument("--alpha", type=float, default=0.75)
    est.add_argument("--tau-cm", type=float, default=30.0)
    est.add_argument("--window", type=int, default=5)
    est.add_argument("--train-window-s", type=float, default=5.0)
    est.add_argument("--fps", type=int, default=30)
    est.add_argument("--n-o", type=int, default=20)
    est.add_argument("--smooth-window", type=int, default=None)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out", required=True)
    _add_norm_flags(est)
    est.set_defaults(handler="cmd_estimate")

    ev = sub.add_parser("evaluate", help="join estimates with truth and emit metric CSVs")
    ev.add_argument("--estimates", required=True)
    ev.add_argument("--truth", required=True, help="frame-annotation JSONL with ground truth")
    ev.add_argument("--near-threshold-m", type=float, default=4.0)
    ev.add_argument("--far-limit-m", type=float, default=8.0)
    ev.add_argument("--out-dir", required=True)
    ev.set_defaults(handler="cmd_evaluate")

    sy = sub.add_parser("synth", help="generate a synthetic stream from a scene spec")
    sy.add_argument("--scene", required=True)
    sy.add_argument("--out-dir", required=True)
    sy.add_argument("--seed", type=int, default=0)
    sy.set_defaults(handler="cmd_synth")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except (SingularFitError, EmptyInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except MissingDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except MonorangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


def entrypoint() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
