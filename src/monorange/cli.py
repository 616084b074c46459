"""Command-line front end: calibrate, estimate, evaluate, synth, focal.

Streams are JSONL (one frame per line), metric tables are CSV, and profiles
are canonical JSON, so every run is diffable and byte-reproducible for a
fixed ``--seed``. Environment variables are never consulted.

Exit codes: 0 success, 2 input-format error, 3 calibration-fit error,
4 missing-data error.
"""

from __future__ import annotations

import argparse
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
    DegenerateGeometryError,
    DistanceEstimate,
    DomainError,
    EmptyInputError,
    FormatError,
    MissingDataError,
    MonorangeError,
    NoPixelsError,
    SingularFitError,
    canonical_jsonl_line,
)
from .geometry import (
    BoundingBox,
    Detection,
    RiskPolicy,
    estimate_distance_geometric,
    estimate_focal_length,
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

ESTIMATORS = ("regression", "geometric", "geometric_star", "neo", "neo_norc")


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


def _detection_from_payload(payload: dict) -> Detection:
    box = payload["bbox"]
    return Detection(
        bbox=BoundingBox(
            x_min=float(box["x_min"]),
            y_min=float(box["y_min"]),
            x_max=float(box["x_max"]),
            y_max=float(box["y_max"]),
            resolution_w=int(box["resolution_w"]),
            resolution_h=int(box["resolution_h"]),
        ),
        class_label=str(payload["class_label"]),
        confidence=float(payload.get("confidence", 1.0)),
        is_vip=bool(payload.get("is_vip", False)),
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


def read_annotations(path: str | Path) -> Iterator[FrameAnnotation]:
    """Stream frame annotations, enforcing non-decreasing timestamps."""
    p = Path(path)
    if not p.exists():
        raise MissingDataError(f"stream file not found: {p}")
    previous_ts = None
    with open(p) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                ann = FrameAnnotation(
                    frame_id=str(payload["frame_id"]),
                    timestamp_s=float(payload["timestamp_s"]),
                    detections=tuple(
                        _detection_from_payload(d) for d in payload.get("detections", [])
                    ),
                    depth_map_path=payload.get("depth_map_path"),
                    ground_truth={
                        str(k): float(v)
                        for k, v in (payload.get("ground_truth") or {}).items()
                    }
                    or None,
                    vip_id=str(payload.get("vip_id", "")),
                    scene=str(payload.get("scene", "")),
                )
            except (DomainError, KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{p}:{lineno}: malformed frame annotation ({exc})") from exc
            if not math.isfinite(ann.timestamp_s):
                raise FormatError(f"{p}:{lineno}: timestamp {ann.timestamp_s} is not finite")
            for key, truth in (ann.ground_truth or {}).items():
                if not math.isfinite(truth):
                    raise FormatError(f"{p}:{lineno}: ground truth {key!r} is {truth}")
            if previous_ts is not None and ann.timestamp_s < previous_ts:
                raise FormatError(
                    f"{p}:{lineno}: timestamps must be non-decreasing "
                    f"({ann.timestamp_s} after {previous_ts})"
                )
            previous_ts = ann.timestamp_s
            yield ann


def _read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    p = Path(path)
    if not p.exists():
        raise MissingDataError(f"input file not found: {p}")
    with open(p) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{p}:{lineno}: invalid JSON ({exc})") from exc


def _resolve_map_path(stream_path: Path, depth_map_path: str) -> Path:
    candidate = Path(depth_map_path)
    return candidate if candidate.is_absolute() else stream_path.parent / candidate


def _load_depth_map(stream_path: Path, ann: FrameAnnotation) -> depth_mod.DepthMap:
    if ann.depth_map_path is None:
        raise MissingDataError(f"frame {ann.frame_id}: no depth map recorded")
    map_path = _resolve_map_path(stream_path, ann.depth_map_path)
    try:
        return neod.read_depth_map(map_path)
    except FileNotFoundError as exc:
        raise MissingDataError(f"frame {ann.frame_id}: depth map {map_path} not found") from exc
    except OSError as exc:
        raise MissingDataError(
            f"frame {ann.frame_id}: depth map {map_path} unreadable ({exc.strerror})"
        ) from exc


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


def _cmd_calibrate_regression(args) -> int:
    frames = []
    for lineno, payload in _read_jsonl(args.frames):
        try:
            frames.append(
                LabeledFrame(
                    features=RegressionFeatures.from_dims(
                        float(payload["w_b"]), float(payload["h_b"])
                    ),
                    true_distance_m=float(payload["true_distance_m"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{args.frames}:{lineno}: malformed labeled frame ({exc})") from exc
    model = fit_regression(frames, mode=args.mode, vip_id=args.vip_id)
    residual = math.sqrt(
        math.fsum(
            (f.true_distance_m - predict_distance(model, f.features).value_m) ** 2
            for f in frames
        )
    )
    profile = profiles.RegressionProfile(
        vip_id=args.vip_id, mode=model.mode, a=model.a, b=model.b, c=model.c
    )
    profiles.save_profile(args.out, profile)
    print(
        f"regression profile -> {args.out}  "
        f"a={model.a:.6g} b={model.b:.6g} c={model.c:.6g} "
        f"samples={len(frames)} residual_norm={residual:.6g}"
    )
    return EXIT_OK


def _cmd_calibrate_focal(args) -> int:
    samples = []
    resolution = None
    for lineno, payload in _read_jsonl(args.samples):
        try:
            det = _detection_from_payload(
                {"bbox": payload["bbox"], "class_label": "reference", "confidence": 1.0}
            )
            samples.append(
                (det.bbox, float(payload["object_height_m"]), float(payload["true_distance_m"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{args.samples}:{lineno}: malformed focal sample ({exc})") from exc
        resolution = (det.bbox.resolution_w, det.bbox.resolution_h)
    estimate = estimate_focal_length(samples)
    profile = profiles.CameraProfile(
        focal_length_px=estimate.median,
        image_w=resolution[0],
        image_h=resolution[1],
        fov_deg=args.fov_deg,
    )
    profiles.save_profile(args.out, profile)
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
            if len(vips) != 1:
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


@dataclass(frozen=True)
class RunConfig:
    """Everything one estimation run needs, resolved from flags and profiles."""

    estimator: str
    camera: profiles.CameraProfile | None
    regression: profiles.RegressionProfile | None
    depth_profile: profiles.DepthProfile | None
    heights: "profiles.HeightTable | None"
    method: depth_mod.NormalizationMethod | None
    recal: depth_mod.RecalibrationConfig | None
    policy: RiskPolicy
    seed: int
    gt_source: str
    smooth_window: int


def _run_config_from_args(args) -> RunConfig:
    estimator = args.estimator
    camera = profiles.load_camera_profile(args.camera_profile) if args.camera_profile else None
    regression = (
        profiles.load_regression_profile(args.regression_profile)
        if args.regression_profile
        else None
    )
    depth_profile = (
        profiles.load_depth_profile(args.depth_profile) if args.depth_profile else None
    )
    heights = profiles.load_height_table(args.height_table) if args.height_table else None

    if estimator == "regression" and regression is None:
        raise MissingDataError("estimator 'regression' needs --regression-profile")
    if estimator in ("geometric", "geometric_star"):
        if camera is None:
            raise MissingDataError(f"estimator {estimator!r} needs --camera-profile")
        if heights is None:
            heights = profiles.DEFAULT_HEIGHTS
    if estimator in ("neo", "neo_norc") and depth_profile is None:
        raise MissingDataError(f"estimator {estimator!r} needs --depth-profile")

    method = None
    recal = None
    smooth_window = 1
    if estimator in ("neo", "neo_norc"):
        method = _norm_method_from_args(args, depth_profile)
        smooth_window = (
            args.smooth_window if args.smooth_window is not None
            else depth_profile.smooth_window
        )
        if smooth_window < 1:
            raise DomainError(f"smooth window must be >= 1, got {smooth_window}")
    if estimator == "neo":
        recal = depth_mod.RecalibrationConfig(
            w=args.window,
            w_prime_s=args.train_window_s,
            fps=args.fps,
            alpha=args.alpha,
            tau_m=args.tau_cm / 100.0,
            n_o=args.n_o,
        )
        if args.gt_source == "regression" and regression is None:
            raise MissingDataError(
                "estimator 'neo' with --gt-source regression needs --regression-profile"
            )
    return RunConfig(
        estimator=estimator,
        camera=camera,
        regression=regression,
        depth_profile=depth_profile,
        heights=heights,
        method=method,
        recal=recal,
        policy=RiskPolicy(near_threshold_m=args.near_threshold_m, far_limit_m=args.far_limit_m),
        seed=args.seed,
        gt_source=args.gt_source,
        smooth_window=smooth_window,
    )


def _check_detector_resolution(det: Detection, camera: profiles.CameraProfile | None):
    if camera is None:
        return
    if (det.bbox.resolution_w, det.bbox.resolution_h) != (camera.image_w, camera.image_h):
        raise DomainError(
            f"detection resolution {det.bbox.resolution_w}x{det.bbox.resolution_h} does not "
            f"match the camera profile {camera.image_w}x{camera.image_h}; scale the box first"
        )


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

    def __init__(self, config: RunConfig):
        self.model = config.regression.to_model()
        self.camera = config.camera
        self.native = (
            (config.camera.image_w, config.camera.image_h) if config.camera else None
        )
        self._warned_vip = False

    def run_frame(self, ann: FrameAnnotation, out: list[dict]):
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


def _estimate_geometric(config: RunConfig, ann: FrameAnnotation, out: list[dict]):
    intrinsics = config.camera.to_intrinsics()
    use_actual = config.estimator == "geometric_star"
    for det in ann.detections:
        _check_detector_resolution(det, config.camera)
        label = truth_key(det)
        try:
            height = (
                config.heights.actual(label) if use_actual else config.heights.expected(label)
            )
        except MissingDataError:
            out.append(_object_record(ann, det, None, ["no-height"]))
            continue
        value = estimate_distance_geometric(det.bbox, height, intrinsics)
        out.append(_object_record(ann, det, DistanceEstimate(value), []))


class _NeoRunner:
    """Carries depth-estimator state across frames of one stream."""

    def __init__(self, config: RunConfig, recal_samples):
        self.config = config
        self.coeffs = config.depth_profile.to_coefficients()
        self.smoother = (
            depth_mod.ScoreSmoother(config.smooth_window) if config.smooth_window > 1 else None
        )
        self.state = None
        self._gt_model = None
        if config.estimator == "neo":
            self.state = depth_mod.RecalibrationState(
                config.recal, recal_samples, seed=config.seed
            )

    def vip_truth(self, ann: FrameAnnotation) -> DistanceEstimate | None:
        if self.config.gt_source == "truth":
            value = (ann.ground_truth or {}).get("vip")
            return None if value is None else DistanceEstimate(float(value))
        if self._gt_model is None:
            self._gt_model = self.config.regression.to_model()
        vips = [d for d in ann.detections if d.is_vip]
        if len(vips) != 1:
            return None
        return predict_distance(self._gt_model, RegressionFeatures.from_bbox(vips[0].bbox))

    def run_frame(self, ann: FrameAnnotation, depth_map, out: list[dict]):
        frame = depth_mod.FrameObservation(
            detections=ann.detections, depth_map=depth_map, timestamp_s=ann.timestamp_s
        )
        if self.state is not None:
            result = depth_mod.step(
                frame,
                self.vip_truth(ann),
                self.state,
                self.config.recal,
                self.coeffs,
                method=self.config.method,
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
        else:
            for det in ann.detections:
                scaled = scale_bbox(det.bbox, depth_map.width, depth_map.height)
                score = depth_mod.normalize_region(depth_map, scaled, self.config.method)
                if det.is_vip and self.smoother is not None:
                    score = self.smoother.push(score)
                estimate = depth_mod.estimate_distance_depth(score, self.coeffs)
                flags = ["out-of-domain"] if estimate.out_of_domain else []
                out.append(
                    _object_record(
                        ann, det, estimate, flags,
                        provenance=self.coeffs.provenance, score=score,
                    )
                )


def _load_recal_samples(args, config: RunConfig):
    """Offline anchor samples for recalibration.

    Prefers an explicit sidecar file; otherwise reconstructs ``n_o`` anchors
    from the profile's fitted line at its calibration pair distances.
    """
    if config.estimator != "neo":
        return None
    if args.recal_samples:
        samples = []
        for lineno, payload in _read_jsonl(args.recal_samples):
            try:
                samples.append(
                    depth_mod.CalibrationSample(
                        normalized_score=float(payload["normalized_score"]),
                        true_distance_m=float(payload["true_distance_m"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(
                    f"{args.recal_samples}:{lineno}: malformed sample ({exc})"
                ) from exc
        if len(samples) != config.recal.n_o:
            raise DomainError(
                f"--n-o is {config.recal.n_o} but {args.recal_samples} holds {len(samples)}"
            )
        return samples
    profile = config.depth_profile
    if profile.pair is None:
        raise MissingDataError(
            "depth profile has no calibration pair; provide --recal-samples"
        )
    coeffs = profile.to_coefficients()
    d1, d2 = profile.pair
    n1 = config.recal.n_o // 2
    n2 = config.recal.n_o - n1
    anchors = [depth_mod.CalibrationSample((d1 - coeffs.s) / coeffs.m, d1)] * n1
    anchors += [depth_mod.CalibrationSample((d2 - coeffs.s) / coeffs.m, d2)] * n2
    return anchors


def cmd_estimate(args) -> int:
    config = _run_config_from_args(args)
    stream_path = Path(args.stream)
    out_path = Path(args.out)
    runner = None
    regression_runner = None
    if config.estimator in ("neo", "neo_norc"):
        runner = _NeoRunner(config, _load_recal_samples(args, config))
    elif config.estimator == "regression":
        regression_runner = _RegressionRunner(config)

    records: list[dict] = []
    frames = 0
    errors = 0
    for ann in read_annotations(stream_path):
        frames += 1
        if config.estimator == "regression":
            regression_runner.run_frame(ann, records)
        elif config.estimator in ("geometric", "geometric_star"):
            _estimate_geometric(config, ann, records)
        else:
            frame_records: list[dict] = []
            try:
                depth_map = _load_depth_map(stream_path, ann)
                runner.run_frame(ann, depth_map, frame_records)
            except (MissingDataError, NoPixelsError, DegenerateGeometryError) as exc:
                records.append(
                    {
                        "event": "error",
                        "frame_id": ann.frame_id,
                        "timestamp_s": ann.timestamp_s,
                        "reason": str(exc),
                    }
                )
                errors += 1
                continue
            records.extend(frame_records)

    tmp_path = out_path.with_name(out_path.name + ".tmp")
    try:
        with open(tmp_path, "w") as fh:
            for record in records:
                fh.write(canonical_jsonl_line(record))
        os.replace(tmp_path, out_path)
    finally:
        if tmp_path.exists():
            tmp_path.unlink()
    recals = sum(1 for r in records if r.get("event") == "recalibration")
    print(
        f"estimates -> {out_path}  frames={frames} records={len(records)} "
        f"recalibrations={recals} frame_errors={errors}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    policy = RiskPolicy(near_threshold_m=args.near_threshold_m, far_limit_m=args.far_limit_m)
    truth: dict[tuple[str, str], float] = {}
    for ann in read_annotations(args.truth):
        for key, value in (ann.ground_truth or {}).items():
            truth[(ann.frame_id, key)] = float(value)

    joined: list[metrics.ErrorRecord] = []
    unmatched_estimates = 0
    beyond_limit = 0
    for lineno, payload in _read_jsonl(args.estimates):
        if "event" in payload:
            continue
        try:
            frame_id = str(payload["frame_id"])
            label = str(payload["class_label"])
            is_vip = bool(payload.get("is_vip", False))
            distance = payload["distance_m"]
            if distance is not None:
                distance = float(distance)
                if not math.isfinite(distance):
                    raise ValueError(f"distance_m {distance} is not finite")
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{args.estimates}:{lineno}: malformed record ({exc})") from exc
        key = (frame_id, "vip" if is_vip else label)
        if distance is None or key not in truth:
            unmatched_estimates += 1
            continue
        true_m = truth[key]
        if true_m > policy.far_limit_m:
            beyond_limit += 1
            continue
        joined.append(
            metrics.ErrorRecord(
                frame_id=frame_id,
                class_label=key[1],
                true_distance_m=true_m,
                predicted_distance_m=distance,
            )
        )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if joined:
        metrics.write_records_csv(joined, out_dir / "records.csv")
        per_class: dict[str, list[metrics.ErrorRecord]] = {"overall": list(joined)}
        for rec in joined:
            per_class.setdefault(rec.class_label, []).append(rec)
        metrics.write_summary_csv(per_class, out_dir / "summary.csv")
        metrics.write_quadrant_csv(
            metrics.quadrant_matrix(joined, policy.near_threshold_m),
            out_dir / "quadrant.csv",
        )
    print(
        f"metrics -> {out_dir}  joined={len(joined)} unmatched={unmatched_estimates} "
        f"beyond_{policy.far_limit_m:g}m={beyond_limit}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    spec = synth.load_scene_spec(args.scene)
    out_dir = Path(args.out_dir)
    maps_dir = out_dir / "maps"
    maps_dir.mkdir(parents=True, exist_ok=True)
    stream_path = out_dir / "frames.jsonl"
    frames = 0
    with open(stream_path, "w") as fh:
        for i, frame in enumerate(spec.frames(seed=args.seed)):
            map_name = f"maps/frame_{i:06d}.neod"
            neod.write_depth_map(out_dir / map_name, frame.depth_map)
            ground_truth = {
                truth_key(det): dist for det, dist in zip(frame.detections, frame.truths)
            }
            ann = FrameAnnotation(
                frame_id=f"frame_{i:06d}",
                timestamp_s=frame.timestamp_s,
                detections=frame.detections,
                depth_map_path=map_name,
                ground_truth=ground_truth,
                vip_id=spec.vip_id,
            )
            fh.write(canonical_jsonl_line(annotation_payload(ann)))
            frames += 1
    print(f"synthetic stream -> {stream_path}  frames={frames} maps={frames}")
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


def _add_focal_flags(parser):
    parser.add_argument("--samples", required=True, help="JSONL of reference-object samples")
    parser.add_argument("--fov-deg", type=float, default=None)
    parser.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
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
    cal_reg.set_defaults(func=cmd_calibrate)

    cal_focal = cal_sub.add_parser("focal", help="estimate the focal length")
    _add_focal_flags(cal_focal)
    cal_focal.set_defaults(func=cmd_calibrate)

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
    cal_depth.set_defaults(func=cmd_calibrate)

    focal = sub.add_parser("focal", help="alias for 'calibrate focal'")
    _add_focal_flags(focal)
    focal.set_defaults(func=cmd_calibrate, subject="focal")

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
    est.add_argument("--near-threshold-m", type=float, default=4.0)
    est.add_argument("--far-limit-m", type=float, default=8.0)
    est.add_argument("--out", required=True)
    _add_norm_flags(est)
    est.set_defaults(func=cmd_estimate)

    ev = sub.add_parser("evaluate", help="join estimates with truth and emit metric CSVs")
    ev.add_argument("--estimates", required=True)
    ev.add_argument("--truth", required=True, help="frame-annotation JSONL with ground truth")
    ev.add_argument("--near-threshold-m", type=float, default=4.0)
    ev.add_argument("--far-limit-m", type=float, default=8.0)
    ev.add_argument("--out-dir", required=True)
    ev.set_defaults(func=cmd_evaluate)

    sy = sub.add_parser("synth", help="generate a synthetic stream from a scene spec")
    sy.add_argument("--scene", required=True)
    sy.add_argument("--out-dir", required=True)
    sy.add_argument("--seed", type=int, default=0)
    sy.set_defaults(func=cmd_synth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SingularFitError, EmptyInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except MissingDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (FormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except MonorangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


def entrypoint() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
