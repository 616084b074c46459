"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np

from monorange.cli import main as cli_main
from monorange.common import DistanceEstimate, linear_quantile
from monorange.depth import (
    CENTER,
    CENTER_RING,
    DISC_CENTER,
    FIVE_POINT_CENTER_WEIGHTED,
    FIVE_POINT_UNIFORM,
    LOW_THRESHOLD,
    MEAN,
    MEDIAN,
    CalibrationSample,
    DepthMap,
    NormalizationMethod,
    RecalibrationConfig,
    RecalibrationState,
    estimate_distance_depth,
    fit_coefficients,
    normalize_region,
    select_calibration_pair,
    step,
)
from monorange.geometry import (
    BoundingBox,
    CameraIntrinsics,
    estimate_distance_geometric,
    estimate_focal_length,
)
from monorange.metrics import QUADRANTS, ErrorRecord, quadrant_matrix, summarize
from monorange.neod import read_depth_map, write_depth_map
from monorange.profiles import (
    BUILTIN_DEPTH,
    BUILTIN_REGRESSION,
    DepthProfile,
    load_depth_profile,
    save_profile,
)
from monorange.regression import (
    LabeledFrame,
    MODE_THREE,
    RegressionFeatures,
    fit_regression,
    predict_distance,
)
from monorange.synth import DepthLawSpec, SceneObject, SceneSpec

F = 1592.0
INTR = CameraIntrinsics(F, 1280, 720, 82.6)
TALL_INTR = CameraIntrinsics(F, 1280, 65536)


def report(number, text, elapsed):
    print(f"ACCEPTANCE {number:02d} PASS: {text} ({elapsed:.3f}s)")


def test_acceptance_01_geometric_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        height = float(rng.uniform(0.5, 2.0))
        distance = float(rng.uniform(1.0, 10.0))
        h_px = F * height / distance
        bbox = BoundingBox(0.0, 0.0, 10.0, h_px, 1280, 65536)
        recovered = estimate_distance_geometric(bbox, height, TALL_INTR)
        worst = max(worst, abs(recovered - distance))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    report(1, f"1000 projected objects re-inverted, max |error| {worst:.2e} m", elapsed)


def test_acceptance_02_focal_length_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    # power-of-two distances and heights keep the noiseless arithmetic exact
    noiseless = []
    for _ in range(1000):
        d = float(rng.choice([1.0, 2.0, 4.0, 8.0]))
        h_o = float(rng.choice([0.5, 1.0, 2.0]))
        h_i = F * h_o / d
        noiseless.append((BoundingBox(0, 0, 10, h_i, 1280, 16384), h_o, d))
    exact = estimate_focal_length(noiseless)
    assert exact.median == F

    d, h_o = 3.0, 0.63
    h_i = F * h_o / d
    jittered = []
    for _ in range(1000):
        jitter = float(rng.uniform(-1.0, 1.0))
        jittered.append((BoundingBox(0, 0, 10, h_i + jitter, 1280, 720), h_o, d))
    noisy = estimate_focal_length(jittered)
    elapsed = time.perf_counter() - start
    assert abs(noisy.median - F) <= 1.0
    assert elapsed < 1.0
    report(2, f"median exactly {exact.median:g} noiseless, {noisy.median:.2f} under jitter",
           elapsed)


def test_acceptance_03_regression_recovery():
    start = time.perf_counter()
    a, b, c = -2.42, -1.29, 0.0043
    rng = np.random.default_rng(3)

    def frame_at(d):
        w = float(rng.uniform(400, 800))
        h = (d - a * w) / (b + c * w)
        return RegressionFeatures(w, h)

    clean = [
        LabeledFrame(frame_at(d), d) for d in (2.0, 3.0, 4.0) for _ in range(10)
    ]
    model = fit_regression(clean, MODE_THREE)
    assert abs(model.a - a) / abs(a) < 1e-6
    assert abs(model.b - b) / abs(b) < 1e-6
    assert abs(model.c - c) / abs(c) < 1e-6

    noisy = []
    truth_features = []
    for d in (2.0, 3.0, 4.0):
        for _ in range(100):
            feats = frame_at(d)
            truth_features.append((feats, d))
            label = d + float(rng.normal(0, 0.05))
            noisy.append(LabeledFrame(feats, label))
    noisy_model = fit_regression(noisy, MODE_THREE)
    mape = 100.0 * math.fsum(
        abs(predict_distance(noisy_model, feats).value_m - d) / d
        for feats, d in truth_features
    ) / len(truth_features)
    elapsed = time.perf_counter() - start
    assert mape < 3.0
    assert elapsed < 1.0
    report(3, f"coefficients within 1e-6 relative, noisy MAPE {mape:.3f}%", elapsed)


def test_acceptance_04_depth_calibration_recovery():
    start = time.perf_counter()
    m_true, s_true = 6.0, 1.0
    samples = [
        CalibrationSample((d - s_true) / m_true, d) for d in (2.5, 4.0) for _ in range(10)
    ]
    coeffs = fit_coefficients(samples)
    assert abs(coeffs.m - m_true) < 1e-9
    assert abs(coeffs.s - s_true) < 1e-9

    rng = np.random.default_rng(4)
    videos = {
        d: [(d - s_true) / m_true + float(rng.normal(0, 0.02)) for _ in range(15)]
        for d in (2.0, 2.5, 3.0, 3.5, 4.0)
    }
    pairs = [(2.0, 3.0), (2.0, 3.5), (2.0, 4.0), (2.5, 3.5), (2.5, 4.0), (3.0, 4.0)]
    chosen, _ = select_calibration_pair(videos, pairs)

    def pair_cost(pair):
        d1, d2 = pair
        fits = [
            ((d2 - d1) / (b_ - a_), d1 - (d2 - d1) / (b_ - a_) * a_)
            for a_, b_ in zip(videos[d1], videos[d2])
            if a_ != b_
        ]
        m_med = linear_quantile(sorted(f[0] for f in fits), 0.5)
        s_med = linear_quantile(sorted(f[1] for f in fits), 0.5)
        total = 0.0
        for d, scores in sorted(videos.items()):
            errs = sorted(d - (m_med * sc + s_med) for sc in scores)
            total += abs(linear_quantile(errs, 0.5))
        return total

    costs = {pair: pair_cost(pair) for pair in pairs}
    elapsed = time.perf_counter() - start
    assert costs[chosen] == min(costs.values())
    assert elapsed < 5.0
    report(4, f"line recovered within 1e-9; pair {chosen} is the exhaustive argmin", elapsed)


def test_acceptance_05_low_threshold_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(10000):
        w = int(rng.integers(2, 24))
        h = int(rng.integers(2, 24))
        dm = DepthMap(rng.normal(0, 10, size=(h, w)).astype(np.float32))
        x0 = float(rng.uniform(0, w - 1))
        y0 = float(rng.uniform(0, h - 1))
        x1 = float(rng.uniform(x0 + 0.5, w))
        y1 = float(rng.uniform(y0 + 0.5, h))
        bbox = BoundingBox(x0, y0, x1, y1, w, h)
        pct = float(rng.uniform(1, 100))
        got = normalize_region(dm, bbox, NormalizationMethod(LOW_THRESHOLD, lt_percentile=pct))
        # brute-force oracle: enumerate pixels, sort, mean the lowest ceil(P%)
        values = []
        for r in range(max(0, math.floor(y0)), min(h, math.ceil(y1))):
            for col in range(max(0, math.floor(x0)), min(w, math.ceil(x1))):
                values.append(float(dm.scores[r, col]))
        values.sort()
        k = max(1, math.ceil(pct / 100.0 * len(values)))
        expected = math.fsum(values[:k]) / k
        assert got == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, "10000 random boxes match the sort-based oracle exactly", elapsed)


def test_acceptance_06_normalization_ordering():
    start = time.perf_counter()
    law = DepthLawSpec(m_true=6.0, s_true=1.0)
    d_near, d_far = 3.0, 6.0
    scores = np.full((100, 100), law.score_for_distance(50.0), dtype=np.float64)
    scores[10:50, 20:80] = law.score_for_distance(d_far)
    scores[50:90, 20:80] = law.score_for_distance(d_near)
    dm = DepthMap(scores)
    box = BoundingBox(20, 10, 80, 90, 100, 100)
    coeffs = fit_coefficients(
        [CalibrationSample(law.score_for_distance(2.0), 2.0),
         CalibrationSample(law.score_for_distance(5.0), 5.0)]
    )
    errors = {}
    for kind in (LOW_THRESHOLD, CENTER, DISC_CENTER, CENTER_RING,
                 FIVE_POINT_UNIFORM, FIVE_POINT_CENTER_WEIGHTED, MEDIAN, MEAN):
        score = normalize_region(dm, box, NormalizationMethod(kind, diameter_px=20))
        errors[kind] = abs(estimate_distance_depth(score, coeffs).value_m - d_near)
    elapsed = time.perf_counter() - start
    for kind, err in errors.items():
        assert errors[LOW_THRESHOLD] <= err + 1e-12, f"{kind} beat the nearest-region method"
    assert elapsed < 1.0
    report(6, "nearest-region error is minimal on the split-depth object", elapsed)


VIP = SceneObject("vip", height_m=0.63, distance_m=3.0, is_vip=True)
PRE_LAW = DepthLawSpec(m_true=6.0, s_true=1.0)
POST_LAW = DepthLawSpec(m_true=6.0, s_true=1.32)
DRIFT_CONFIG = RecalibrationConfig(alpha=0.75, n_o=20, w=5, w_prime_s=3.0, fps=30,
                                   tau_m=0.30)


def _anchor_samples():
    return [
        CalibrationSample(PRE_LAW.score_for_distance(d), d)
        for d in (2.5, 4.0)
        for _ in range(10)
    ]


def _drive(post_law, duration_s):
    state = RecalibrationState(DRIFT_CONFIG, _anchor_samples(), seed=0)
    coeffs = fit_coefficients(_anchor_samples())
    results = []
    frames = SceneSpec(intrinsics=INTR, objects=(VIP,), law=PRE_LAW, fps=30,
                       duration_s=duration_s, depth_w=64, depth_h=40, post_law=post_law,
                       switch_time_s=20.0).frames()
    for frame in frames:
        result = step(frame, DistanceEstimate(3.0), state, DRIFT_CONFIG, coeffs,
                      method=NormalizationMethod())
        coeffs = result.coeffs
        results.append(result)
    return results


def test_acceptance_07_drift_detection_timing():
    start = time.perf_counter()
    results = _drive(POST_LAW, 28.0)
    fired = [r.timestamp_s for r in results if r.drift_detected]
    control = _drive(PRE_LAW, 28.0)
    elapsed = time.perf_counter() - start
    assert fired, "no detection on the drifted run"
    assert 20.0 <= fired[0] <= 25.0
    assert not any(r.drift_detected for r in control)
    assert elapsed < 5.0
    report(7, f"drift detected at t={fired[0]:.1f}s in [20, 25]; control silent", elapsed)


def test_acceptance_08_recalibration_mixing():
    start = time.perf_counter()
    assert DRIFT_CONFIG.n_new == 7  # round(20 / 0.75 - 20)
    results = _drive(POST_LAW, 30.0)
    recals = [r for r in results if r.recalibrated]
    assert len(recals) == 1
    assert recals[0].coeffs.sample_count == 27  # 20 offline + 7 recent
    t0 = recals[0].timestamp_s
    window = [r for r in results if t0 < r.timestamp_s <= t0 + 5.0]
    mean_err = math.fsum(abs(3.0 - r.vip_distance.value_m) for r in window) / len(window)
    elapsed = time.perf_counter() - start
    assert mean_err <= DRIFT_CONFIG.tau_m
    assert not any(r.drift_detected for r in window)
    assert elapsed < 5.0
    report(8, f"27-sample refit; post-recalibration mean |error| {mean_err:.3f} m <= 0.30",
           elapsed)


def test_acceptance_09_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    records = [
        ErrorRecord(f"f{i}", "car", float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.5, 8.0)))
        for i in range(10000)
    ]
    summary = summarize(records)
    errors = [r.true_distance_m - r.predicted_distance_m for r in records]
    ordered = sorted(errors)

    def quant(q):
        pos = (len(ordered) - 1) * q
        lo = math.floor(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])

    assert summary.median_m == quant(0.5)
    assert summary.q1_m == quant(0.25)
    assert summary.q3_m == quant(0.75)
    assert summary.min_m == min(errors)
    assert summary.max_m == max(errors)
    mape = 100.0 * math.fsum(
        abs(e) / r.true_distance_m for e, r in zip(errors, records)
    ) / len(records)
    assert summary.mape_pct == mape

    matrix = quadrant_matrix(records, 4.0)
    cells = {q: {"over": [], "under": []} for q in QUADRANTS}
    for r, e in zip(records, errors):
        near_t = r.true_distance_m <= 4.0
        near_p = r.predicted_distance_m <= 4.0
        q = "Q2" if near_t and near_p else "Q3" if near_t else "Q4" if near_p else "Q1"
        cells[q]["over" if e < 0 else "under"].append(abs(e))
    total = 0
    for q in QUADRANTS:
        cell = matrix[q]
        over, under = cells[q]["over"], cells[q]["under"]
        assert cell.count_over == len(over) and cell.count_under == len(under)
        assert cell.ase_over_m == (math.fsum(over) / len(over) if over else None)
        assert cell.ase_under_m == (math.fsum(under) / len(under) if under else None)
        total += cell.count
    elapsed = time.perf_counter() - start
    assert total == len(records)
    assert elapsed < 5.0
    report(9, "summaries and quadrants equal brute-force tallies on 10000 records", elapsed)


def test_acceptance_10_format_stability(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    dm = DepthMap(rng.normal(0, 2, size=(13, 29)).astype(np.float32))
    first = tmp_path / "a.neod"
    second = tmp_path / "b.neod"
    write_depth_map(first, dm)
    write_depth_map(second, read_depth_map(first))
    assert first.read_bytes() == second.read_bytes()

    profile_a = tmp_path / "p1.json"
    profile_b = tmp_path / "p2.json"
    save_profile(profile_a, BUILTIN_DEPTH["P1"])
    save_profile(profile_b, load_depth_profile(profile_a))
    assert profile_a.read_bytes() == profile_b.read_bytes()

    # corrupted inputs abort with exit code 2 and produce no output file
    scene = {
        "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
        "depth_resolution": [32, 20],
        "fps": 1,
        "duration_s": 3,
        "objects": [{"class_label": "vip", "height_m": 0.63, "distance_m": 3.0,
                     "is_vip": True}],
        "law": {"m_true": 6.0, "s_true": 1.0},
    }
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    out_dir = tmp_path / "run"
    assert cli_main(["synth", "--scene", str(scene_path), "--out-dir", str(out_dir),
                     "--seed", "1"]) == 0
    depth_profile = tmp_path / "depth.json"
    save_profile(depth_profile, DepthProfile(vip_id="S", m=6.0, s=1.0, unit="m",
                                             pair=(2.5, 4.0), smooth_window=1))
    maps = sorted((out_dir / "maps").iterdir())

    maps[0].write_bytes(b"WRNG" + maps[0].read_bytes()[4:])
    bad_magic_out = tmp_path / "bad_magic.jsonl"
    code = cli_main(["estimate", "--stream", str(out_dir / "frames.jsonl"),
                     "--estimator", "neo_norc", "--depth-profile", str(depth_profile),
                     "--out", str(bad_magic_out)])
    assert code == 2 and not bad_magic_out.exists()

    raw = maps[1].read_bytes()
    maps[0].write_bytes(raw)  # restore a valid map in slot 0
    maps[1].write_bytes(raw[:-3])
    truncated_out = tmp_path / "truncated.jsonl"
    code = cli_main(["estimate", "--stream", str(out_dir / "frames.jsonl"),
                     "--estimator", "neo_norc", "--depth-profile", str(depth_profile),
                     "--out", str(truncated_out)])
    elapsed = time.perf_counter() - start
    assert code == 2 and not truncated_out.exists()
    assert elapsed < 1.0
    report(10, "byte-stable round trips; corrupt inputs exit 2 with no partial output",
           elapsed)


def test_acceptance_11_replication_harness_ready(tmp_path):
    """Headline dataset numbers are not reproducible at desk scale; the named
    profiles and the calibrate/estimate/evaluate pipeline must be ready so the
    published-dataset replication is a one-command run when released."""
    start = time.perf_counter()
    for name in ("P1", "P2", "P3"):
        reg = BUILTIN_REGRESSION[name]
        dep = BUILTIN_DEPTH[name]
        assert reg.calibrated_for == name
        coeffs = dep.to_coefficients()
        assert coeffs.m > 0 and coeffs.s > 0  # centimeters converted to meters
        assert dep.pair == (2.5, 4.0)

    # the full pipeline runs end to end on a synthetic surrogate stream
    out_dir = tmp_path / "surrogate"
    scene = {
        "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
        "depth_resolution": [64, 40],
        "fps": 2,
        "duration_s": 3,
        "objects": [{"class_label": "vip", "height_m": 0.63, "distance_m": 3.0,
                     "is_vip": True}],
        "law": {"m_true": 6.0, "s_true": 1.0},
    }
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    assert cli_main(["synth", "--scene", str(scene_path), "--out-dir", str(out_dir),
                     "--seed", "2"]) == 0
    depth_profile = tmp_path / "depth.json"
    save_profile(depth_profile, DepthProfile(vip_id="S", m=6.0, s=1.0, unit="m",
                                             pair=(2.5, 4.0), smooth_window=1))
    est = tmp_path / "est.jsonl"
    assert cli_main(["estimate", "--stream", str(out_dir / "frames.jsonl"),
                     "--estimator", "neo_norc", "--depth-profile", str(depth_profile),
                     "--out", str(est)]) == 0
    metrics_dir = tmp_path / "metrics"
    assert cli_main(["evaluate", "--estimates", str(est),
                     "--truth", str(out_dir / "frames.jsonl"),
                     "--out-dir", str(metrics_dir)]) == 0
    assert (metrics_dir / "summary.csv").exists()
    elapsed = time.perf_counter() - start
    report(
        11,
        "named profiles load and the pipeline runs; published-dataset error targets "
        "remain a one-command replication once that dataset is available",
        elapsed,
    )
