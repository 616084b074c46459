#!/usr/bin/env python3
"""monorange benchmark: synthetic workloads through the CLI and the library API.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload drift_hd --seed 1 --seconds 55 --trace 0

The package is imported from the checkout's own ``src/``, never from an
install, so two checkouts each measure their own code. One process runs
everything, one call at a time, as a closed loop: the next pass starts only
after the previous one returns. No worker threads or processes are started.

A run:

1. generates the workload's inputs from ``--seed`` in a scratch directory
   under the checkout (removed at exit): the scene's frame stream and NEOD
   maps via ``monorange synth`` (untimed; it also warms the page cache),
   two calibration streams, regression and focal samples;
2. runs rounds for ``--seconds`` (at least two). A round sets up (package
   import, ``calibrate depth``, ``calibrate regression``, ``focal``, profile
   load; ``setup_s`` is the median over rounds), then runs ``synth``,
   ``estimate`` with every estimator, ``evaluate`` on every estimate file,
   and an online replay that calls ``neod.read_depth_map`` and ``depth.step``
   frame by frame. A pass shorter than ``MIN_STAGE_S`` is repeated in its
   round;
3. checks every output after each round (``_check_setup``, ``_check_round``)
   and compares the sha256 of every output file across rounds.

With ``--trace 1`` untraced and traced rounds alternate; spans around calls
into each module's public functions (``tracer.py``) give the per-layer
metrics, and the traced and untraced outputs must be byte-identical. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (frames) and ``metrics``. Lines before it give each metric with
its sample count, the run's metadata and the output digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from tracer import SpanStats, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

# On a shared 2-vCPU VM (Xeon, KVM) the speed of a core was seen to swing by
# up to 1.6x within a second, as if an SMT sibling went busy and idle, with
# the mix drifting over minutes. So a run is many short rounds that each hold
# one set-up and a pass of every stage, and each throughput is total units
# over total seconds of all its passes in the run: every metric then samples
# the whole run rather than a few moments of it.
MIN_STAGE_S = 0.5
MIN_ROUNDS = 2
CALIBRATION_DISTANCES_M = (2.5, 4.0)
ESTIMATORS = ("neo", "neo_norc", "geometric", "geometric_star", "regression")
LAYERS = (
    "cli", "common", "neod", "depth", "geometry", "regression", "synth", "metrics", "profiles",
)


@dataclass(frozen=True)
class Workload:
    scene: str
    sweep_methods: bool  # neo_norc once per --norm-method instead of once with the default
    why: str


# Each workload runs the same pipeline; they differ in the inputs that decide
# which layer does the work. In both, the geometric and regression estimators
# and evaluate never read a depth map, so a depth-side change should leave
# their metrics unchanged while a parsing or serialization change moves them.
WORKLOADS = {
    "drift_hd": Workload(
        "drift_hd.json", False,
        "1024x320 noisy maps for 20 s with a depth-law switch at 12 s: neod read/write, "
        "DepthMap validation, low_threshold sorting and the drift refit do most of the work",
    ),
    "norm_sweep": Workload(
        "norm_sweep.json", True,
        "near objects (~225x245 depth pixels per box) on noiseless 1024x320 maps, neo_norc "
        "with all 8 normalization methods: point methods, discs and sorts on constant patches",
    ),
}

# (name, unit) of every end-to-end metric, reported by --trace 0, in print order.
END_TO_END = (
    ("estimate_fps.neo", "frames/s"),
    ("estimate_fps.neo_norc", "frames/s"),
    ("estimate_fps.geometric", "frames/s"),
    ("estimate_fps.geometric_star", "frames/s"),
    ("estimate_fps.regression", "frames/s"),
    ("evaluate_rps", "records/s"),
    ("synth_fps", "frames/s"),
    ("setup_s", "s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p98", "ms"),
    ("peak_rss_mb", "MB"),
)

# (name, unit) of every per-layer metric, reported by --trace 1.
PER_LAYER_UNITS = {
    "cli.read_annotations.us_per_frame": "us",
    "common.canonical_jsonl_line.us_per_record": "us",
    "neod.read_depth_map.ms": "ms",
    "neod.read_depth_map.mb_per_s": "MB/s",
    "neod.write_depth_map.ms": "ms",
    "depth.DepthMap.init_ms": "ms",
    "depth.DepthMap.calls": "count",
    **{f"depth.normalize_region.us.{kind}": "us" for kind in (
        "center", "five_point_uniform", "five_point_center_weighted", "disc_center",
        "center_ring", "low_threshold", "median", "mean")},
    "depth.normalize_region.pixels_per_call": "px",
    "depth.step.self_us": "us",
    "depth.recalibrate.us": "us",
    "depth.recalibrate.done": "count",
    "depth.recalibrate.not_ready": "count",
    "depth.refit_ratio": "ratio",
    "depth.fit_coefficients.ms": "ms",
    "geometry.scale_bbox.us": "us",
    "geometry.estimate_distance_geometric.us": "us",
    "regression.predict_distance.us": "us",
    "synth.frame_ms": "ms",
    "metrics.summarize.ms": "ms",
    "metrics.quadrant_matrix.ms": "ms",
    "metrics.write_csv.ms": "ms",
    "profiles.load.ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "counts.frames": "count",
    "counts.records": "count",
    "counts.error_events": "count",
    "failed_frac": "ratio",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """monorange was imported from somewhere other than the checkout's src/."""


class StageError(Exception):
    """A monorange command returned a non-zero exit code."""


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Scene:
    """What the benchmark needs to know of a scene spec to check outputs."""

    path: Path
    payload: dict
    frames: int
    objects: int
    fps: int
    switch_time_s: float | None
    map_bytes: int

    @classmethod
    def load(cls, path: Path) -> "Scene":
        payload = json.loads(path.read_text())
        w, h = payload["depth_resolution"]
        drift = payload.get("drift")
        return cls(
            path=path,
            payload=payload,
            frames=int(round(payload["duration_s"] * payload["fps"])),
            objects=len(payload["objects"]),
            fps=int(payload["fps"]),
            switch_time_s=float(drift["switch_time_s"]) if drift else None,
            map_bytes=12 + 4 * w * h,
        )

    @property
    def vip(self) -> dict:
        return next(obj for obj in self.payload["objects"] if obj.get("is_vip"))

    def calibration_spec(self, distance_m: float) -> dict:
        """The scene's camera, maps and pre-drift law with the VIP alone at one distance."""
        spec = {k: v for k, v in self.payload.items() if k != "drift"}
        spec.update(fps=1, duration_s=10)
        spec["objects"] = [dict(self.vip, distance_m=distance_m, lateral_offset_m=0.0)]
        return spec


def write_regression_frames(path: Path, scene: Scene, rng: Random) -> None:
    """Labeled VIP boxes from the pinhole model with a jittered aspect ratio."""
    cam = scene.payload["camera"]
    f, height_m = cam["focal_length_px"], scene.vip["height_m"]
    with open(path, "w") as fh:
        for _ in range(60):
            d = rng.uniform(2.0, 8.0)
            h_b = f * height_m / d
            fh.write(json.dumps(
                {"w_b": h_b * rng.uniform(0.5, 0.7), "h_b": h_b, "true_distance_m": d}
            ) + "\n")


def write_focal_samples(path: Path, scene: Scene, rng: Random) -> None:
    """Centered VIP boxes at random distances, sized by the scene's true focal length."""
    cam = scene.payload["camera"]
    f, w, h = cam["focal_length_px"], cam["image_w"], cam["image_h"]
    height_m = scene.vip["height_m"]
    with open(path, "w") as fh:
        for _ in range(40):
            d = rng.uniform(2.0, 6.0)
            bh, bw = f * height_m / d, 0.6 * f * height_m / d
            bbox = {
                "x_min": (w - bw) / 2, "y_min": (h - bh) / 2,
                "x_max": (w + bw) / 2, "y_max": (h + bh) / 2,
                "resolution_w": w, "resolution_h": h,
            }
            fh.write(json.dumps(
                {"bbox": bbox, "object_height_m": height_m, "true_distance_m": d}
            ) + "\n")


# ---------------------------------------------------------------------------
# checks and digests


def sha256_file(path: Path, h=None) -> str:
    h = h or hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def digest_tree(path: Path) -> dict[str, str]:
    """sha256 per output file; a directory of NEOD maps gets one digest over all maps."""
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_dir() and p.name == "maps":
            h = hashlib.sha256()
            for m in sorted(p.iterdir()):
                h.update(m.name.encode())
                sha256_file(m, h)
            out[str(p.relative_to(path)) + "/*.neod"] = h.hexdigest()
        elif p.is_file() and p.parent.name != "maps":
            out[str(p.relative_to(path))] = sha256_file(p)
    return out


@dataclass
class EstimateCheck:
    records: int = 0
    error_events: int = 0
    recal_times: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def check_estimates(path: Path, expected_records: int, keep_distances=False) -> EstimateCheck:
    """Every distance finite, and exactly the expected number of records."""
    chk = EstimateCheck()
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            event = rec.get("event")
            if event == "error":
                chk.error_events += 1
            elif event == "recalibration":
                chk.recal_times.append(rec["timestamp_s"])
            elif event is None:
                chk.records += 1
                d = rec["distance_m"]
                if not (isinstance(d, (int, float)) and math.isfinite(d)):
                    chk.problems.append(f"{path.name}: non-finite distance_m {d!r}")
                elif keep_distances:
                    chk.distances.append(d)
    if chk.records != expected_records:
        chk.problems.append(
            f"{path.name}: {chk.records} records, expected {expected_records}"
        )
    return chk


# ---------------------------------------------------------------------------
# the run


def import_package():
    """(Re-)import monorange from the checkout's src/ and return its modules by name."""
    for key in [k for k in sys.modules if k == "monorange" or k.startswith("monorange.")]:
        del sys.modules[key]
    import monorange.cli  # noqa: F401  (imports every other module of the package)

    mods = {name: sys.modules[f"monorange.{name}"] for name in LAYERS}
    origin = Path(sys.modules["monorange"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported monorange from {origin}, not from {SRC}")
    return mods


class Bench:
    """One benchmark run of one workload; owns its scratch directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.scene = Scene.load(HERE / "scenes" / self.workload.scene)
        self.seed = seed
        self.work = work
        self.stream_dir = work / "stream"
        self.stream = self.stream_dir / "frames.jsonl"
        self.out = work / "out"
        self.setup_dir = work / "setup"
        self.mods: dict = {}
        self.methods: tuple[str, ...] = ()
        self.tracer = None
        # (units, wall s, CPU s) per pass; (wall, CPU) per set-up; per replay pass,
        # (wall ms, CPU ms) per frame. Only untraced rounds are recorded. Metrics
        # use wall time; CPU time stays in the raw samples to tell work from
        # waiting (on this host the two agree within a few per cent).
        self.passes: dict[str, list[tuple[int, float, float]]] = {
            name: [] for name, _ in END_TO_END}
        self.setup_times: list[tuple[float, float]] = []
        self.frame_ms: list[list[tuple[float, float]]] = []
        self.traced = False
        self.round_s = {False: [], True: []}
        self.digests: list[tuple[bool, dict[str, str]]] = []
        self.setup_digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.counts = {"frames": 0, "records": 0, "error_events": 0}

    # -- calls into the program -------------------------------------------

    def cli(self, *argv) -> tuple[float, str]:
        """Run one monorange command in-process; (wall seconds, its stdout)."""
        buf = io.StringIO()
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = self.mods["cli"].main(argv)
            elapsed = time.perf_counter() - t0
        if code != 0:
            raise StageError(f"monorange {' '.join(argv[:2])} exited with code {code}")
        return elapsed, buf.getvalue()

    def measure(self, metric: str, units: int, one_pass) -> float:
        """Run ``one_pass`` until MIN_STAGE_S have passed; record each pass's times."""
        spent = 0.0
        while spent < MIN_STAGE_S:
            cpu = time.process_time()
            elapsed = one_pass()
            cpu = time.process_time() - cpu
            if not self.traced:
                self.passes[metric].append((units, elapsed, cpu))
            spent += elapsed
        return spent

    # -- phases -----------------------------------------------------------

    def generate_inputs(self) -> None:
        self.mods = import_package()
        rng = Random(self.seed)
        for d in CALIBRATION_DISTANCES_M:
            spec_path = self.work / f"calib_{d}.json"
            spec_path.write_text(json.dumps(self.scene.calibration_spec(d)))
            self.cli("synth", "--scene", spec_path, "--out-dir", self.work / f"calib_{d}",
                     "--seed", self.seed)
        write_regression_frames(self.work / "regression_frames.jsonl", self.scene, rng)
        write_focal_samples(self.work / "focal_samples.jsonl", self.scene, rng)
        self.cli("synth", "--scene", self.scene.path, "--out-dir", self.stream_dir,
                 "--seed", self.seed)
        self.input_digests = digest_tree(self.stream_dir)

    def set_up(self, traced: bool) -> tuple[float, float]:
        """Import, calibrate and load profiles; (wall, CPU) seconds before estimation can start."""
        t0, cpu = time.perf_counter(), time.process_time()
        self.mods = import_package()
        if traced:
            self.tracer.install()
        try:
            s = self.setup_dir
            streams = []
            for d in CALIBRATION_DISTANCES_M:
                streams += ["--stream", self.work / f"calib_{d}" / "frames.jsonl"]
            pair = ",".join(str(d) for d in CALIBRATION_DISTANCES_M)
            vip_id = self.scene.payload.get("vip_id", "")
            self.cli("calibrate", "depth", *streams, "--pair", pair, "--vip-id", vip_id,
                     "--out", s / "depth_profile.json")
            self.cli("calibrate", "regression", "--frames", self.work / "regression_frames.jsonl",
                     "--vip-id", vip_id, "--out", s / "regression_profile.json")
            self.cli("focal", "--samples", self.work / "focal_samples.jsonl",
                     "--fov-deg", self.scene.payload["camera"]["fov_deg"],
                     "--out", s / "camera_profile.json")
            profiles = self.mods["profiles"]
            self.depth_profile = profiles.load_depth_profile(s / "depth_profile.json")
            profiles.load_regression_profile(s / "regression_profile.json")
            profiles.load_camera_profile(s / "camera_profile.json")
            profiles.load_height_table("builtin:default")
        finally:
            if traced:
                self.tracer.uninstall()
        elapsed = time.perf_counter() - t0, time.process_time() - cpu
        self.methods = (
            self.mods["depth"].METHOD_KINDS if self.workload.sweep_methods
            else (self.mods["depth"].LOW_THRESHOLD,)
        )
        return elapsed

    def run_round(self, traced: bool) -> None:
        """One set-up, then one pass (or more, if short) of every stage; then the checks."""
        setup = self.set_up(traced)
        self._check_setup()
        self.traced = traced
        if not traced:
            self.setup_times.append(setup)
        self.out.mkdir(parents=True, exist_ok=True)
        if traced:
            self.tracer.install()
        try:
            spent = self._stages()
        finally:
            if traced:
                self.tracer.uninstall()
        self.round_s[traced].append(setup[0] + spent)
        self._check_round(traced)

    def _estimate(self, name: str, *flags, out_name: str | None = None) -> float:
        return self.cli(
            "estimate", "--stream", self.stream, "--estimator", name, *flags,
            "--out", self.out / f"est_{out_name or name}.jsonl",
        )[0]

    def _stages(self) -> float:
        sc, s = self.scene, self.setup_dir
        spent = self.measure("synth_fps", sc.frames, lambda: self.cli(
            "synth", "--scene", sc.path, "--out-dir", self.stream_dir, "--seed", self.seed)[0])
        depth_profile = ("--depth-profile", s / "depth_profile.json")
        spent += self.measure("estimate_fps.neo", sc.frames, lambda: self._estimate(
            "neo", *depth_profile, "--gt-source", "truth", "--fps", sc.fps, "--seed", self.seed))
        spent += self.measure(
            "estimate_fps.neo_norc", sc.frames * len(self.methods),
            lambda: sum(
                self._estimate("neo_norc", *depth_profile, "--norm-method", m,
                               out_name=f"neo_norc_{m}")
                for m in self.methods
            ),
        )
        for name in ("geometric", "geometric_star"):
            spent += self.measure(f"estimate_fps.{name}", sc.frames, lambda: self._estimate(
                name, "--camera-profile", s / "camera_profile.json"))
        spent += self.measure("estimate_fps.regression", sc.frames, lambda: self._estimate(
            "regression", "--regression-profile", s / "regression_profile.json"))

        outputs = sorted(self.out.glob("est_*.jsonl"))
        records = sc.frames * (sc.objects * (len(outputs) - 1) + 1)  # regression: VIP only
        self.evaluate_stdout = {}

        def evaluate_all():
            total = 0.0
            for path in outputs:
                name = path.stem[len("est_"):]
                elapsed, self.evaluate_stdout[name] = self.cli(
                    "evaluate", "--estimates", path, "--truth", self.stream,
                    "--out-dir", self.out / f"eval_{name}")
                total += elapsed
            return total

        spent += self.measure("evaluate_rps", records, evaluate_all)
        replayed = 0.0
        while replayed < MIN_STAGE_S:
            replayed += self.replay()
        return spent + replayed

    def replay(self) -> float:
        """Online per-frame path through the library API, with the CLI's neo settings."""
        cli, depth, neod = self.mods["cli"], self.mods["depth"], self.mods["neod"]
        DistanceEstimate = self.mods["common"].DistanceEstimate
        profile = self.depth_profile
        coeffs = profile.to_coefficients()
        config = depth.RecalibrationConfig(fps=self.scene.fps)
        d1, d2 = profile.pair
        n1 = config.n_o // 2
        anchors = [depth.CalibrationSample((d1 - coeffs.s) / coeffs.m, d1)] * n1
        anchors += [depth.CalibrationSample((d2 - coeffs.s) / coeffs.m, d2)] * (config.n_o - n1)
        state = depth.RecalibrationState(config, anchors, seed=self.seed)
        method = depth.NormalizationMethod(lt_percentile=profile.lt_percentile)
        smoother = (
            depth.ScoreSmoother(profile.smooth_window) if profile.smooth_window > 1 else None
        )
        self.replay_distances = []
        self.replay_refits = 0
        frame_ms = []
        spent = 0.0
        for ann in cli.read_annotations(self.stream):
            truth = (ann.ground_truth or {}).get("vip")
            truth = None if truth is None else DistanceEstimate(float(truth))
            map_path = self.stream_dir / ann.depth_map_path
            t0, cpu = time.perf_counter(), time.process_time()
            frame = depth.FrameObservation(
                detections=ann.detections, depth_map=neod.read_depth_map(map_path),
                timestamp_s=ann.timestamp_s,
            )
            result = depth.step(frame, truth, state, config, coeffs, method=method,
                                smoother=smoother)
            elapsed = time.perf_counter() - t0
            frame_ms.append((elapsed * 1e3, (time.process_time() - cpu) * 1e3))
            coeffs = result.coeffs
            spent += elapsed
            self.replay_refits += result.recalibrated
            self.replay_distances.extend(e.distance.value_m for e in result.estimates)
        if not self.traced:
            self.frame_ms.append(frame_ms)
        return spent

    # -- checks -----------------------------------------------------------

    def _fail(self, problem: str, frames: int) -> None:
        self.problems.append(problem)
        self.failed += frames

    def _check_setup(self) -> None:
        """Every set-up writes the same profiles, and they hold finite numbers."""
        digests = digest_tree(self.setup_dir)
        if not self.setup_digests:
            self.setup_digests = digests
            for path in sorted(self.setup_dir.iterdir()):
                json.loads(path.read_text(), parse_constant=self._reject_constant)
        elif digests != self.setup_digests:
            self._fail("setup: profiles differ between set-ups", 1)

    def _reject_constant(self, name: str):
        self._fail(f"setup: profile holds {name}", 1)

    def _check_round(self, traced: bool) -> None:
        sc, out = self.scene, self.out
        per_frame = {name: sc.objects for name in ESTIMATORS}
        per_frame["regression"] = 1
        outputs = {p.stem[len("est_"):]: p for p in sorted(out.glob("est_*.jsonl"))}
        frames = sc.frames * (len(outputs) + 1)  # every estimate pass, then the replay
        self.attempted += frames
        if traced:
            self.counts["frames"] += frames
        for name, path in outputs.items():
            base = "neo_norc" if name.startswith("neo_norc") else name
            chk = check_estimates(path, sc.frames * per_frame[base], keep_distances=name == "neo")
            if traced:
                self.counts["records"] += chk.records
                self.counts["error_events"] += chk.error_events
            self.failed += chk.error_events
            for problem in chk.problems:
                self._fail(problem, sc.frames)
            if name == "neo":
                neo = chk
                if sc.switch_time_s is not None and not any(
                    t >= sc.switch_time_s for t in chk.recal_times
                ):
                    self._fail("est_neo.jsonl: no recalibration event after the law switch",
                               sc.frames)
            text = self.evaluate_stdout.get(name, "")
            m = re.search(r"joined=(\d+) unmatched=(\d+)", text)
            if not m or int(m.group(2)) != 0 or int(m.group(1)) != chk.records:
                self._fail(f"evaluate {name}: {text.strip()!r}", sc.frames)
        if self.replay_distances != neo.distances or self.replay_refits != len(neo.recal_times):
            self._fail("library replay disagrees with `estimate --estimator neo`", sc.frames)
        digests = digest_tree(self.out)
        digests.update({f"stream/{k}": v for k, v in digest_tree(self.stream_dir).items()})
        digests.update({f"setup/{k}": v for k, v in self.setup_digests.items()})
        replay = hashlib.sha256(repr(self.replay_distances).encode()).hexdigest()
        digests["replay/distances"] = replay
        self.digests.append((traced, digests))
        first = self.digests[0][1]
        for key, value in digests.items():
            if first.get(key) != value:
                self._fail(f"{key}: sha256 differs between rounds", sc.frames)
        for key, value in self.input_digests.items():
            if digests[f"stream/{key}"] != value:
                self._fail(f"stream/{key}: synth output differs from the generated input",
                           sc.frames)

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        m = {
            name: sum(p[0] for p in v) / sum(p[1] for p in v)
            for name, v in self.passes.items() if v
        }
        m["setup_s"] = statistics.median(t[0] for t in self.setup_times)
        # A replay pass's median flips between the host's two speeds as a whole,
        # so p50 is the mean over passes of each pass's median; p98 pools every
        # frame of the run so that enough samples lie beyond it.
        m["frame_ms_p50"] = statistics.fmean(
            statistics.median(f[0] for f in ms) for ms in self.frame_ms)
        pooled = [f[0] for ms in self.frame_ms for f in ms]
        m["frame_ms_p98"] = statistics.quantiles(pooled, n=50, method="inclusive")[-1]
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return m

    def per_layer(self) -> dict[str, float]:
        st = self.tracer.stats()
        zero = SpanStats()

        def per_call(name, scale, field_="self_s", calls=None):
            s = st.get(name, zero)
            n = s.calls if calls is None else calls
            return getattr(s, field_) / n * scale if n else 0.0

        y = self.tracer.yields
        m = {
            "cli.read_annotations.us_per_frame": per_call(
                "cli.read_annotations", 1e6, calls=y["cli.read_annotations"]),
            "common.canonical_jsonl_line.us_per_record": per_call(
                "common.canonical_jsonl_line", 1e6),
            "neod.read_depth_map.ms": per_call("neod.read_depth_map", 1e3),
            "neod.read_depth_map.mb_per_s": (
                st["neod.read_depth_map"].calls * self.scene.map_bytes / 1e6
                / st["neod.read_depth_map"].total_s
            ),
            "neod.write_depth_map.ms": per_call("neod.write_depth_map", 1e3),
            "depth.DepthMap.init_ms": per_call("depth.DepthMap.init", 1e3),
            "depth.DepthMap.calls": st["depth.DepthMap.init"].calls,
        }
        norm_calls = norm_px = 0
        for kind in self.mods["depth"].METHOD_KINDS:
            name = f"depth.normalize_region.{kind}"
            m[f"depth.normalize_region.us.{kind}"] = per_call(name, 1e6)
            norm_calls += st.get(name, zero).calls
            norm_px += self.tracer.work[name]
        m["depth.normalize_region.pixels_per_call"] = norm_px / norm_calls
        recal = st.get("depth.recalibrate", zero)
        not_ready = self.tracer.errors["depth.recalibrate"]
        m.update({
            "depth.step.self_us": per_call("depth.step", 1e6),
            "depth.recalibrate.us": per_call("depth.recalibrate", 1e6, "total_s"),
            "depth.recalibrate.done": recal.calls - not_ready,
            "depth.recalibrate.not_ready": not_ready,
            "depth.refit_ratio": (recal.calls - not_ready) / recal.calls if recal.calls else 0.0,
            "depth.fit_coefficients.ms": per_call("depth.fit_coefficients", 1e3, "total_s"),
            "geometry.scale_bbox.us": per_call("geometry.scale_bbox", 1e6),
            "geometry.estimate_distance_geometric.us": per_call(
                "geometry.estimate_distance_geometric", 1e6),
            "regression.predict_distance.us": per_call("regression.predict_distance", 1e6),
            "synth.frame_ms": per_call("synth.frame", 1e3, calls=y["synth.frame"]),
            "metrics.summarize.ms": per_call("metrics.summarize", 1e3),
            "metrics.quadrant_matrix.ms": per_call("metrics.quadrant_matrix", 1e3),
        })
        writers = [st.get(f"metrics.write_{t}_csv", zero) for t in ("records", "summary",
                                                                    "quadrant")]
        m["metrics.write_csv.ms"] = (
            sum(w.self_s for w in writers) / sum(w.calls for w in writers) * 1e3
        )
        loads = [s for name, s in st.items() if name.startswith("profiles.load_")]
        m["profiles.load.ms"] = sum(s.self_s for s in loads) / sum(s.calls for s in loads) * 1e3
        wall = sum(self.round_s[True])
        for layer in LAYERS:
            self_s = sum(s.self_s for name, s in st.items() if name.split(".")[0] == layer)
            m[f"{layer}.self_s"] = self_s
            m[f"{layer}.share"] = self_s / wall
        m.update({f"counts.{k}": v for k, v in self.counts.items()})
        m["failed_frac"] = self.failed / self.attempted
        m["trace.spans"] = len(self.tracer.names)
        m["trace.overhead_pct"] = 100.0 * (
            statistics.median(self.round_s[True]) / statistics.median(self.round_s[False]) - 1.0
        )
        return m

    # -- the run loop ------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> None:
        """Rounds until the next one would end after ``seconds``; traced ones alternate."""
        self.generate_inputs()
        self.setup_dir.mkdir()
        self.tracer = Tracer() if trace else None
        t0 = time.perf_counter()
        walls: list[float] = []
        while len(walls) < MIN_ROUNDS or (
            time.perf_counter() - t0 + statistics.median(walls) <= seconds
        ):
            start = time.perf_counter()
            self.run_round(traced=trace and len(walls) % 2 == 1)
            walls.append(time.perf_counter() - start)


def metadata(bench: Bench, seconds: float, trace: bool) -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "workload": bench.name,
        "why": bench.workload.why,
        "seed": bench.seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "monorange": str(Path(sys.modules["monorange"].__file__).resolve()),
        "loop": "closed, one call at a time, one process",
    }


def git_commit() -> str | None:
    """HEAD's commit from .git files (no git process); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "monorange").glob("*.py")):
        h.update(p.name.encode())
        sha256_file(p, h)
    return h.hexdigest()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "monorange" / "__init__.py").is_file():
        print(f"error: no monorange source under {SRC}", file=sys.stderr)
        return 2
    # One process, no thread pools: keep numpy's BLAS single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        bench.run(args.seconds, trace)
    except StageError as exc:
        bench.problems.append(str(exc))
        bench.attempted = bench.failed = max(bench.attempted, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    return report(bench, args.seconds, trace)


def report(bench: Bench, seconds: float, trace: bool) -> int:
    """Print metrics, metadata and digests; the last line is the JSON result."""
    bench.failed = min(bench.failed, bench.attempted)  # a frame can fail more than one check
    correct = not bench.problems
    meta = metadata(bench, seconds, trace)
    units = dict(END_TO_END)
    e2e = bench.end_to_end() if bench.digests else {}
    metrics = {}
    OUT_ROOT.mkdir(exist_ok=True)
    if correct and trace:
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in bench.per_layer().items()}
        spans = OUT_ROOT / f"spans-{bench.name}-seed{bench.seed}.csv.gz"
        bench.tracer.write(spans)
        meta["spans_file"] = str(spans.relative_to(ROOT))
    elif correct:
        metrics = {k: (v, units[k]) for k, v in e2e.items()}
    samples = {k: len(v) for k, v in bench.passes.items()}
    frames = sum(len(ms) for ms in bench.frame_ms)
    samples.update(setup_s=len(bench.setup_times), frame_ms_p50=frames, frame_ms_p98=frames,
                   peak_rss_mb=1)

    print(f"# monorange benchmark: workload={bench.name} seed={bench.seed} trace={int(trace)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in e2e.items():
        print(f"e2e   {name:<32} {value:>14.6g} {units[name]:<10} n={samples[name]}")
    print(f"e2e   {'failed_frac':<32} {bench.failed / max(bench.attempted, 1):>14.6g} ratio"
          f"      n={bench.attempted}")
    if trace:
        for name, (value, unit) in metrics.items():
            print(f"layer {name:<45} {value:>14.6g} {unit}")
    for i, (traced, digests) in enumerate(bench.digests):
        combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
        print(f"round {i} traced={int(traced)} outputs_sha256={combined}")
    if bench.digests:
        for key, value in sorted(bench.digests[-1][1].items()):
            print(f"sha256 {value}  {key}")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    raw = OUT_ROOT / f"result-{bench.name}-seed{bench.seed}-trace{int(trace)}.json"
    raw.write_text(json.dumps({
        "meta": meta, "metrics": metrics, "problems": bench.problems,
        "samples": {**bench.passes, "setup_s": bench.setup_times, "frame_ms": bench.frame_ms},
        "digests": bench.digests[-1][1] if bench.digests else {},
    }, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
