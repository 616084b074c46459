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
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

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
    NonFiniteError,
    SingularFitError,
    canonical_jsonl_line,
    read_jsonl,
    unwritable,
)
from .geometry import (
    BoundingBox,
    CameraIntrinsics,
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
from .stream import (
    FrameAnnotation, annotation_payload, bbox_from_payload, estimate_entry, ground_truth,
    load_depth_map, object_record, read_annotations, record, record_lines, truth_key,
)

log = logging.getLogger("monorange")

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_FIT = 3
EXIT_MISSING = 4


# ---------------------------------------------------------------------------
# calibrate


def _labeled_frame(payload: dict) -> LabeledFrame:
    return LabeledFrame(
        features=RegressionFeatures(float(payload["w_b"]), float(payload["h_b"])),
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
        bbox_from_payload(payload["bbox"]),
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
            depth_map = load_depth_map(stream_path, ann)
            try:
                scaled = scale_bbox(vips[0].bbox, depth_map.width, depth_map.height)
                score = depth_mod.normalize_region(depth_map, scaled, method)
            except DomainError as exc:  # a box that collapses at the map's resolution
                raise _frame_fault(stream, ann, exc) from exc
            by_distance.setdefault(float(truth), []).append(score)
    return by_distance


def _parse_pair(text: str, sep: str, flag: str) -> tuple[float, float]:
    """The two distances in ``text``, each positive and finite, or a FormatError naming ``flag``."""
    try:
        a, b = (float(x) for x in text.split(sep))
    except ValueError:
        a = b = math.nan
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise FormatError(f"{flag}: expected 'd1{sep}d2' of positive finite distances, "
                          f"got {text!r}")
    return a, b


def _cmd_calibrate_depth(args) -> int:
    method = depth_mod.NormalizationMethod(
        kind=args.norm_method, lt_percentile=args.lt_percentile, lt_take=args.lt_take
    )
    depth_mod.ScoreSmoother(args.smooth_window)  # which checks the window before any read
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
        norm_method=method.kind,
        lt_percentile=method.lt_percentile,
        lt_take=method.lt_take,
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


def _frame_fault(stream: str, ann: FrameAnnotation, fault) -> DomainError:
    """The exit-2 error for ``fault`` in frame ``ann`` of ``stream``, naming both."""
    return DomainError(f"{stream}: frame {ann.frame_id}: {fault}")


def _check_resolution(bbox: BoundingBox, expected: tuple[int, int], what: str) -> None:
    """Reject a box that is not in the ``expected`` resolution of ``what``."""
    if (bbox.resolution_w, bbox.resolution_h) != expected:
        raise DomainError(
            f"box resolution {bbox.resolution_w}x{bbox.resolution_h} differs from the {what} "
            f"{expected[0]}x{expected[1]}; scale the box first"
        )


class _CheckedRegression:
    """A fitted box-feature model that predicts only in its calibrated resolution.

    Features are meaningful only in the resolution the model was calibrated
    in, so a box from any other resolution is rejected; the native resolution
    comes from the camera profile when given, otherwise from the first box.
    """

    def __init__(self, who: str, args):
        self.model = _profile(
            args.regression_profile, "--regression-profile", profiles.load_regression_profile, who
        )
        camera = profiles.load_camera_profile(args.camera_profile) if args.camera_profile else None
        self.native = (camera.image_width_px, camera.image_height_px) if camera else None

    def predict(self, bbox: BoundingBox) -> DistanceEstimate:
        if self.native is None:
            self.native = (bbox.resolution_w, bbox.resolution_h)
        _check_resolution(bbox, self.native, "calibrated")
        return predict_distance(self.model, RegressionFeatures.from_bbox(bbox))


class _RegressionRunner:
    """Applies a fitted box-feature model to the stream's person detections."""

    needs_depth_map = False

    def __init__(self, name: str, args):
        self.regression = _CheckedRegression(f"estimator {name!r}", args)
        self._warned_vip = False

    def run_frame(self, ann: FrameAnnotation, depth_map, out: list[dict]):
        calibrated_for = self.regression.model.calibrated_for
        if (
            not self._warned_vip
            and ann.vip_id
            and calibrated_for
            and ann.vip_id != calibrated_for
        ):
            log.info(
                "predicting person %s with a profile calibrated for %s",
                ann.vip_id, calibrated_for,
            )
            self._warned_vip = True
        for det in ann.detections:
            if not det.is_vip:
                continue  # this estimator only covers the followed person
            estimate = self.regression.predict(det.bbox)
            flags = ["out-of-domain"] if estimate.out_of_domain else []
            out.append(object_record(ann, det, estimate, flags))


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
            _check_resolution(det.bbox, self.resolution, "camera profile")
            try:
                height = self.height(truth_key(det.class_label, det.is_vip))
            except MissingDataError:
                out.append(object_record(ann, det, None, ["no-height"]))
                continue
            value = estimate_distance_geometric(det.bbox, height, self.intrinsics)
            out.append(object_record(ann, det, DistanceEstimate(value), []))


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
        # The profile's line holds for scores made its way; --norm-method may
        # only swap the method.
        self.method = replace(profile.method, kind=args.norm_method or profile.norm_method)
        window = profile.smooth_window
        # A one-score mean is not always the score: fsum turns -0.0 into 0.0.
        self.smoother = depth_mod.ScoreSmoother(window) if window > 1 else None
        self.coeffs = profile.to_coefficients()
        self.config = self.state = self.gt_regression = None
        if not recalibrate:
            return
        self.config = depth_mod.RecalibrationConfig(
            w=args.window,
            w_prime_s=args.train_window_s,
            fps=args.fps,
            alpha=args.alpha,
            tau_m=args.tau_cm / 100.0,
        )
        if args.gt_source == "regression":
            self.gt_regression = _CheckedRegression(
                f"estimator {name!r} with --gt-source regression", args
            )
        self.state = depth_mod.RecalibrationState(
            self.config, self._anchors(args.depth_profile, profile.pair), seed=args.seed
        )

    def _anchors(self, source: str, pair: tuple[float, float] | None):
        """The offline set: ``n_o`` samples on the profile's line, half at each pair distance."""
        if pair is None:
            raise MissingDataError("depth profile has no calibration pair")
        c, n_o = self.coeffs, self.config.n_o
        try:
            at_d1, at_d2 = (depth_mod.CalibrationSample((d - c.s) / c.m, d) for d in pair)
        except DomainError as exc:  # a line so flat that an anchor's score overflows
            raise DomainError(
                f"depth profile {source}: its line gives no usable anchor ({exc})"
            ) from exc
        return [at_d1] * (n_o // 2) + [at_d2] * (n_o - n_o // 2)

    def vip_truth(self, ann: FrameAnnotation) -> DistanceEstimate | None:
        if self.gt_regression is None:
            value = (ann.ground_truth or {}).get("vip")
            return None if value is None else DistanceEstimate(float(value))
        vips = [d for d in ann.detections if d.is_vip]
        if not vips:
            return None
        return self.gt_regression.predict(vips[0].bbox)

    def run_frame(self, ann: FrameAnnotation, depth_map, out: list[dict]):
        frame = depth_mod.FrameObservation(
            detections=ann.detections, depth_map=depth_map, timestamp_s=ann.timestamp_s
        )
        truth = None if self.state is None else self.vip_truth(ann)
        result = depth_mod.step(frame, truth, self.state, self.config, self.coeffs,
                                method=self.method, smoother=self.smoother)
        self.coeffs = result.coeffs
        if result.recalibrated:
            c = self.coeffs
            out.append(record(ann, {"event": "recalibration", "m": c.m, "s": c.s,
                                    "sample_count": c.sample_count}))
        for est in result.estimates:
            flags = ["out-of-domain"] if est.distance.out_of_domain else []
            out.append(
                object_record(
                    ann, est.detection, est.distance, flags,
                    provenance=self.coeffs.provenance, score=est.score,
                )
            )


# Each estimator's runner, built once per run as ``runner(name, args)``. It
# loads and checks the profiles it needs, and ``run_frame(ann, depth_map,
# out)`` appends the frame's records to ``out``; ``depth_map`` is None unless
# ``needs_depth_map``. A ``DomainError`` it raises is a fault of the frame.
RUNNERS = {
    "regression": _RegressionRunner,
    "geometric": functools.partial(_GeometricRunner, actual=False),
    "geometric_star": functools.partial(_GeometricRunner, actual=True),
    "neo": functools.partial(_NeoRunner, recalibrate=True),
    "neo_norc": functools.partial(_NeoRunner, recalibrate=False),
}

ESTIMATORS = tuple(RUNNERS)


def _run_frame(runner, stream: str, ann: FrameAnnotation, depth_map, out: list[dict]) -> None:
    """``runner``'s records of frame ``ann`` into ``out``; a fault names the stream and frame."""
    try:
        runner.run_frame(ann, depth_map, out)
    except DomainError as exc:
        raise _frame_fault(stream, ann, exc) from exc


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
                    # Not a local, which would keep this map while the next is built;
                    # loaded here, so a fault of the map names the map, not the frame.
                    _run_frame(
                        runner, args.stream, ann,
                        load_depth_map(stream_path, ann) if runner.needs_depth_map else None, out,
                    )
                    lines = record_lines(ann, out)
                except (MissingDataError, DegenerateGeometryError, NonFiniteError) as exc:
                    out = [record(ann, {"event": "error", "reason": str(exc)})]
                    lines = record_lines(ann, out)
                    errors += 1
                for rec, line in zip(out, lines):
                    fh.write(line)
                    recals += rec.get("event") == "recalibration"
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


def cmd_evaluate(args) -> int:
    near_m, far_m = args.near_threshold_m, args.far_limit_m
    if not near_m < far_m:
        raise DomainError("near threshold must be below far limit")
    truth = {
        (ann.frame_id, key): value
        for ann in read_annotations(args.truth)
        for key, value in (ann.ground_truth or {}).items()
    }

    joined: list[metrics.ErrorRecord] = []
    unmatched_estimates = 0
    beyond_limit = 0
    named = set()  # the truth keys that some estimate record names
    for entry in read_jsonl(args.estimates, "record", estimate_entry):
        if entry is None:
            continue
        key, distance = entry
        named.add(key)
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
        else:  # so that no table of an earlier run reads as this run's
            for name in ("records.csv", "summary.csv", "quadrant.csv"):
                (out_dir / name).unlink(missing_ok=True)
    except OSError as exc:
        raise unwritable(f"output path {exc.filename or out_dir}", exc) from exc
    print(
        f"metrics -> {out_dir}  joined={len(joined)} unmatched={unmatched_estimates} "
        f"beyond_{far_m:g}m={beyond_limit} missed={len(truth.keys() - named)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


def _synth_frames(scene: str, spec: synth.SceneSpec, seed: int):
    """The depth map and the annotation of each frame; a fault names the scene.

    No frame is kept while the next one is rendered: frames are counted by
    hand because ``enumerate`` keeps its last item alive while it takes the
    next one.
    """
    i = 0
    try:
        for frame in spec.frames(seed=seed):
            truth = ground_truth(frame.detections, frame.truths)
            yield frame.depth_map, FrameAnnotation(
                f"frame_{i:06d}", frame.timestamp_s, frame.detections,
                f"maps/frame_{i:06d}.neod", truth, spec.vip_id,
            )
            del frame
            i += 1
    except (DomainError, MemoryError) as exc:  # MemoryError: a map too large to allocate
        raise FormatError(f"{scene}: scene cannot be rendered ({exc})") from exc
    except FormatError as exc:  # a shared truth key
        raise FormatError(f"{scene}: {exc}") from exc


def cmd_synth(args) -> int:
    spec = synth.load_scene_spec(args.scene)
    # The first frame shows every fault of the scene itself (an object outside
    # the frame, a map that is not finite or too large to allocate, a shared
    # truth key), so a scene with one fails before the output directory is
    # created or touched.
    frames = _synth_frames(args.scene, spec, args.seed)
    item = next(frames)
    out_dir = Path(args.out_dir)
    stream_path = out_dir / "frames.jsonl"
    i = 0
    try:
        (out_dir / "maps").mkdir(parents=True, exist_ok=True)
        with open(stream_path, "w") as fh:
            try:
                # One frame is held at a time: each frame's references are
                # dropped before the next one is rendered.
                while item is not None:
                    depth_map, ann = item
                    item = None
                    map_path = out_dir / ann.depth_map_path
                    try:
                        neod.write_depth_map(map_path, depth_map)
                    except OSError as exc:
                        raise unwritable(f"depth map {map_path}", exc) from exc
                    del depth_map
                    fh.write(canonical_jsonl_line(annotation_payload(ann)))
                    i += 1
                    item = next(frames, None)
            except BaseException:
                # The frames before the failure would read as a whole stream.
                stream_path.unlink(missing_ok=True)
                raise
    except OSError as exc:
        raise unwritable(f"output path {exc.filename or stream_path}", exc) from exc
    print(f"synthetic stream -> {stream_path}  frames={i} maps={i}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point


def _seed(text: str) -> int:
    """A ``--seed``: numpy's random generators take only a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _fov_deg(text: str) -> float:
    """A ``--fov-deg``: a camera sees less than a half-turn, and more than nothing."""
    try:
        fov = float(text)
    except ValueError:
        fov = math.nan
    if not 0.0 < fov < 180.0:  # false for NaN too
        raise argparse.ArgumentTypeError(
            f"expected degrees strictly between 0 and 180, got {text!r}"
        )
    return fov


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
    cal_depth.add_argument(
        "--norm-method", choices=depth_mod.METHOD_KINDS, default=depth_mod.LOW_THRESHOLD
    )
    cal_depth.add_argument("--lt-percentile", type=float, default=10.0)
    cal_depth.add_argument("--lt-take", choices=("lowest", "highest"), default="lowest")
    cal_depth.add_argument("--smooth-window", type=int, default=5)
    cal_depth.add_argument("--out", required=True)
    cal_depth.set_defaults(handler="cmd_calibrate")

    focal = sub.add_parser("focal", help="estimate the focal length")
    focal.add_argument("--samples", required=True, help="JSONL of reference-object samples")
    focal.add_argument("--fov-deg", type=_fov_deg, default=None)
    focal.add_argument("--out", required=True)
    focal.set_defaults(handler="cmd_calibrate", subject="focal")

    est = sub.add_parser("estimate", help="estimate distances over a frame stream")
    est.add_argument("--stream", required=True)
    est.add_argument("--estimator", choices=ESTIMATORS, required=True)
    est.add_argument("--camera-profile", default=None)
    est.add_argument("--regression-profile", default=None)
    est.add_argument("--depth-profile", default=None)
    est.add_argument("--height-table", default=None)
    est.add_argument("--gt-source", choices=("regression", "truth"), default="regression")
    est.add_argument("--alpha", type=float, default=0.75)
    est.add_argument("--tau-cm", type=float, default=30.0)
    est.add_argument("--window", type=int, default=5)
    est.add_argument("--train-window-s", type=float, default=5.0)
    est.add_argument("--fps", type=int, default=30)
    # Scores with this method in place of the one the depth profile records.
    est.add_argument("--norm-method", choices=depth_mod.METHOD_KINDS, default=None)
    est.add_argument("--seed", type=_seed, default=0)
    est.add_argument("--out", required=True)
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
    sy.add_argument("--seed", type=_seed, default=0)
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
