import argparse
import csv
import json
import math
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from monorange import depth, neod
from monorange.cli import ESTIMATORS, RUNNERS, build_parser, main
from monorange.common import canonical_jsonl_line
from monorange.depth import DepthMap
from monorange.profiles import DepthProfile, load_camera_profile, load_depth_profile, save_profile

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def synth_calibration_streams(tmp_path, seed=0):
    """Generate the two calibration streams bundled with the repo's scenes."""
    out1 = tmp_path / "calib25"
    out2 = tmp_path / "calib40"
    assert run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out1,
                   "--seed", seed) == 0
    assert run_cli("synth", "--scene", SCENES / "calib_4m.json", "--out-dir", out2,
                   "--seed", seed) == 0
    return out1 / "frames.jsonl", out2 / "frames.jsonl"


class TestSynthCommand:
    def test_outputs_exist_and_parse(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "static_mixed.json",
                       "--out-dir", out, "--seed", 7) == 0
        frames = read_jsonl(out / "frames.jsonl")
        assert len(frames) == 10  # 5 s at 2 fps
        assert frames[0]["ground_truth"] == {"bystander": 4.0, "car": 4.6, "vip": 3.0}
        assert (out / frames[0]["depth_map_path"]).exists()

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("synth", "--scene", SCENES / "drift_run.json",
                           "--out-dir", out, "--seed", 3) == 0
        assert (a / "frames.jsonl").read_bytes() == (b / "frames.jsonl").read_bytes()
        maps_a = sorted((a / "maps").iterdir())
        maps_b = sorted((b / "maps").iterdir())
        assert [m.name for m in maps_a] == [m.name for m in maps_b]
        for ma, mb in zip(maps_a, maps_b):
            assert ma.read_bytes() == mb.read_bytes()


class TestCalibrateDepth:
    def test_two_distance_fit_recovers_generating_line(self, tmp_path):
        s1, s2 = synth_calibration_streams(tmp_path)
        out = tmp_path / "depth.json"
        assert run_cli("calibrate", "depth", "--stream", s1, "--stream", s2,
                       "--pair", "2.5,4.0", "--vip-id", "S1", "--out", out) == 0
        profile = load_depth_profile(out)
        assert profile.unit == "m"
        assert profile.m == pytest.approx(6.0, abs=1e-9)
        assert profile.s == pytest.approx(1.0, abs=1e-9)

    def test_candidate_pair_selection(self, tmp_path):
        # five single-distance streams, then rank all six pairs
        streams = []
        for i, d in enumerate((2.0, 2.5, 3.0, 3.5, 4.0)):
            scene = {
                "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
                "depth_resolution": [64, 40],
                "fps": 1,
                "duration_s": 5,
                "objects": [
                    {"class_label": "vip", "height_m": 0.63, "distance_m": d, "is_vip": True}
                ],
                "law": {"m_true": 6.0, "s_true": 1.0, "noise_sigma": 0.005},
            }
            scene_path = tmp_path / f"scene{i}.json"
            scene_path.write_text(json.dumps(scene))
            out = tmp_path / f"d{i}"
            assert run_cli("synth", "--scene", scene_path, "--out-dir", out,
                           "--seed", 100 + i) == 0
            streams.append(out / "frames.jsonl")
        out = tmp_path / "depth.json"
        args = ["calibrate", "depth"]
        for s in streams:
            args += ["--stream", s]
        args += ["--candidate-pairs", "2:3,2:3.5,2:4,2.5:3.5,2.5:4,3:4",
                 "--vip-id", "S1", "--out", out]
        assert run_cli(*args) == 0
        profile = load_depth_profile(out)
        assert profile.pair is not None
        assert profile.m == pytest.approx(6.0, rel=0.05)

    @pytest.mark.parametrize(
        "flag, text",
        [("--candidate-pairs", "abc"), ("--candidate-pairs", "2:3:4"),
         ("--candidate-pairs", "2:3,x:4"), ("--pair", "abc"), ("--pair", "2.5"),
         ("--pair", "nan,4.0"), ("--pair", "-1,4.0"), ("--pair", "2.5,0"),
         ("--pair", "2.5,inf"), ("--candidate-pairs", "2:3,nan:4"),
         ("--candidate-pairs", "-1:4")],
    )
    def test_malformed_pair_flags_exit_2(self, tmp_path, capsys, flag, text):
        # before any read: a stream that does not exist would exit 4 once it was opened
        assert run_cli("calibrate", "depth", "--stream", tmp_path / "missing.jsonl",
                       f"{flag}={text}", "--out", tmp_path / "x.json") == 2
        assert f"{flag}: expected" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("value, message", [
        ("0", "window must be >= 1, got 0"),
        ("100000000000000000000", "smoothing window 100000000000000000000 is longer"),
    ])
    def test_bad_smoothing_window_exits_2_before_any_read(self, tmp_path, capsys, value,
                                                          message):
        # A stream that does not exist would exit 4 once it was opened.
        out = tmp_path / "x.json"
        assert run_cli("calibrate", "depth", "--stream", tmp_path / "missing.jsonl",
                       "--smooth-window", value, "--out", out) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_distance_is_missing_data(self, tmp_path):
        s1, _ = synth_calibration_streams(tmp_path)
        assert run_cli("calibrate", "depth", "--stream", s1, "--pair", "2.5,4.0",
                       "--out", tmp_path / "x.json") == 4

    def test_frames_without_a_person_or_its_truth_are_skipped(self, tmp_path, capsys):
        s1, s2 = synth_calibration_streams(tmp_path)
        records = read_jsonl(s1)
        del records[0]["ground_truth"]
        records[1]["detections"][0]["is_vip"] = False
        for rec in records[:2]:  # a skipped frame's map is never read
            (s1.parent / rec["depth_map_path"]).unlink()
        s1.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = tmp_path / "depth.json"
        assert run_cli("calibrate", "depth", "--stream", s1, "--stream", s2, "--out", out) == 0
        kept = len(records) - 2 + len(read_jsonl(s2))
        assert f"samples={kept} " in capsys.readouterr().out
        for rec in records:
            rec.pop("ground_truth", None)
        s1.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert run_cli("calibrate", "depth", "--stream", s1, "--out", tmp_path / "x.json") == 4
        assert ("error: no frames with a detected person and ground truth found"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.json").exists()


class TestCalibrateRegression:
    @staticmethod
    def labeled_file(tmp_path, coeffs=(-2.42, -1.29, 0.0043), n_per=10):
        rng = np.random.default_rng(12)
        a, b, c = coeffs
        path = tmp_path / "labeled.jsonl"
        with open(path, "w") as fh:
            for d in (2.0, 3.0, 4.0):
                for _ in range(n_per):
                    w = float(rng.uniform(400, 800))
                    h = (d - a * w) / (b + c * w)  # puts the frame exactly on the law
                    fh.write(json.dumps(
                        {"w_b": w, "h_b": h, "true_distance_m": d}) + "\n")
        return path

    def test_protocol_fit(self, tmp_path):
        path = self.labeled_file(tmp_path)
        out = tmp_path / "reg.json"
        assert run_cli("calibrate", "regression", "--frames", path, "--mode", "three",
                       "--vip-id", "P1", "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["a"] == pytest.approx(-2.42, rel=1e-6)
        assert payload["b"] == pytest.approx(-1.29, rel=1e-6)
        assert payload["c"] == pytest.approx(0.0043, rel=1e-6)

    def test_singular_fit_exits_3(self, tmp_path):
        path = tmp_path / "labeled.jsonl"
        with open(path, "w") as fh:
            for _ in range(10):
                fh.write(json.dumps({"w_b": 200.0, "h_b": 400.0, "true_distance_m": 3.0}) + "\n")
        assert run_cli("calibrate", "regression", "--frames", path,
                       "--out", tmp_path / "reg.json") == 3


class TestFocalCommand:
    def test_calibrate_offers_regression_and_depth_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["calibrate", "focal", "--samples", "s.jsonl",
                                       "--out", "cam.json"])
        assert exc.value.code == 2
        assert "invalid choice: 'focal'" in capsys.readouterr().err

    def test_constant_samples_collapse_quartiles(self, tmp_path, capsys):
        samples = tmp_path / "focal.jsonl"
        bbox = {"x_min": 100, "y_min": 100, "x_max": 200, "y_max": 434.32,
                "resolution_w": 1280, "resolution_h": 720}
        with open(samples, "w") as fh:
            for _ in range(20):
                fh.write(json.dumps({"bbox": bbox, "object_height_m": 0.63,
                                     "true_distance_m": 3.0}) + "\n")
        out = tmp_path / "cam.json"
        assert run_cli("focal", "--samples", samples, "--fov-deg", "82.6",
                       "--out", out) == 0
        profile = load_camera_profile(out)
        expected = 3.0 * 334.32 / 0.63
        assert profile.focal_length_px == pytest.approx(expected, rel=1e-12)
        assert (profile.image_width_px, profile.image_height_px) == (1280, 720)
        printed = capsys.readouterr().out
        assert printed.count(f"{expected:.6g}") == 3  # q1 = median = q3

    @staticmethod
    def one_sample(tmp_path):
        samples = tmp_path / "focal.jsonl"
        samples.write_text(json.dumps({
            "bbox": {"x_min": 100, "y_min": 100, "x_max": 200, "y_max": 434.32,
                     "resolution_w": 1280, "resolution_h": 720},
            "object_height_m": 0.63, "true_distance_m": 3.0}) + "\n")
        return samples

    @pytest.mark.parametrize("fov", ["nan", "inf", "-inf", "-5", "0", "180", "200", "wide"])
    def test_a_bad_fov_exits_2_naming_the_flag(self, tmp_path, capsys, fov):
        samples = self.one_sample(tmp_path)
        out = tmp_path / "cam.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("focal", "--samples", samples, f"--fov-deg={fov}", "--out", out)
        assert exc.value.code == 2
        assert (f"argument --fov-deg: expected degrees strictly between 0 and 180, "
                f"got '{fov}'") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fov", ["1e-300", "179.99"])
    def test_a_fov_just_inside_the_range_is_kept(self, tmp_path, fov):
        samples = self.one_sample(tmp_path)
        out = tmp_path / "cam.json"
        assert run_cli("focal", "--samples", samples, "--fov-deg", fov, "--out", out) == 0
        assert load_camera_profile(out).fov_deg == float(fov)


def _edit_third_record(stream, edit):
    """Write a copy of ``stream`` whose third record went through ``edit``."""
    lines = stream.read_text().splitlines()
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record)  # non-finite floats become NaN / Infinity
    bad = stream.with_name("bad.jsonl")
    bad.write_text("\n".join(lines) + "\n")
    return bad


def _one_frame_stream(tmp_path, bbox, scores, ground_truth=None):
    """A stream of frame ``f0``: one followed person in ``bbox``, a map of ``scores``."""
    neod.write_depth_map(tmp_path / "m.neod", DepthMap(scores))
    frame = {
        "frame_id": "f0", "timestamp_s": 0.0, "depth_map_path": "m.neod",
        "detections": [{"class_label": "vip", "confidence": 0.9, "is_vip": True, "bbox": bbox}],
    }
    if ground_truth is not None:
        frame["ground_truth"] = ground_truth
    stream = tmp_path / "frames.jsonl"
    stream.write_text(json.dumps(frame) + "\n")
    return stream


def _write_depth_profile(path, m=6.0, s=1.0):
    save_profile(path, DepthProfile(vip_id="S1", m=m, s=s, unit="m", pair=(2.5, 4.0),
                                    smooth_window=1))
    return path


class TestEstimate:
    def test_geometric_exact_on_matching_heights(self, tmp_path):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "static_mixed.json", "--out-dir", out, "--seed", 1)
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "geometric",
                       "--camera-profile", "builtin:tello",
                       "--out", est) == 0
        records = [r for r in read_jsonl(est) if "event" not in r]
        by_class = {}
        for r in records:
            key = "vip" if r["is_vip"] else r["class_label"]
            by_class.setdefault(key, []).append(r["distance_m"])
        assert by_class["vip"][0] == pytest.approx(3.0, abs=1e-9)
        assert by_class["bystander"][0] == pytest.approx(4.0, abs=1e-9)
        # synthetic car is 1.56 m tall but the expected class height is 1.70 m
        assert by_class["car"][0] == pytest.approx(4.6 * 1.70 / 1.56, rel=1e-9)

    def test_geometric_star_uses_actual_heights(self, tmp_path):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "static_mixed.json", "--out-dir", out, "--seed", 1)
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "geometric_star",
                       "--camera-profile", "builtin:tello",
                       "--out", est) == 0
        records = [r for r in read_jsonl(est) if "event" not in r]
        car = [r for r in records if r["class_label"] == "car"][0]
        assert car["distance_m"] == pytest.approx(4.6, rel=1e-9)  # actual height matches
        # measured bystander height (1.75) differs from the synthetic one (1.65)
        bystander = [r for r in records if r["class_label"] == "bystander"][0]
        assert bystander["distance_m"] == pytest.approx(4.0 * 1.75 / 1.65, rel=1e-9)

    @pytest.mark.parametrize("estimator, car", [
        ("geometric", {}),  # no entry for the label at all
        ("geometric_star", {"car": {"expected_m": 1.70}}),  # no measured height
    ])
    def test_label_without_a_height_gives_a_no_height_record(self, tmp_path, estimator, car):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "static_mixed.json", "--out-dir", out) == 0
        table = tmp_path / "heights.json"
        table.write_text(json.dumps({
            "vip": {"expected_m": 0.63, "actual_m": [0.63]},
            "bystander": {"expected_m": 1.65, "actual_m": [1.65]},
            **car,
        }))
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl", "--estimator", estimator,
                       "--camera-profile", "builtin:tello", "--height-table", table,
                       "--out", est) == 0
        records = read_jsonl(est)
        assert len(records) == 3 * len(read_jsonl(out / "frames.jsonl"))
        for r in records:
            if r["class_label"] == "car":
                assert (r["distance_m"], r["flags"]) == (None, ["no-height"])
            else:
                want = 3.0 if r["is_vip"] else 4.0
                assert (r["distance_m"], r["flags"]) == (pytest.approx(want, rel=1e-9), [])

    def test_smoothing_window_of_one_keeps_a_negative_zero_score(self, tmp_path):
        # The mean of one score is not always the score: fsum([-0.0]) may be 0.0.
        bbox = {"x_min": 100.0, "y_min": 100.0, "x_max": 300.0, "y_max": 500.0,
                "resolution_w": 1280, "resolution_h": 720}
        stream = _one_frame_stream(tmp_path, bbox, np.full((32, 64), -0.0))
        profile = _write_depth_profile(tmp_path / "depth.json")  # smooth_window 1
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "neo_norc",
                       "--depth-profile", profile, "--norm-method", "center", "--out", est) == 0
        assert '"score": -0.0' in est.read_text()

    @pytest.mark.parametrize("estimator, flags, message", [
        ("regression", (), "estimator 'regression' needs --regression-profile"),
        ("geometric", (), "estimator 'geometric' needs --camera-profile"),
        ("geometric_star", (), "estimator 'geometric_star' needs --camera-profile"),
        ("neo_norc", (), "estimator 'neo_norc' needs --depth-profile"),
        ("neo", ("--depth-profile", "builtin:P1"),
         "estimator 'neo' with --gt-source regression needs --regression-profile"),
    ])
    def test_estimate_without_its_profile_flag_exits_4(self, tmp_path, capsys, estimator,
                                                        flags, message):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out) == 0
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl", "--estimator", estimator,
                       *flags, "--out", est) == 4
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not est.exists()

    def test_neo_norc_exact_under_identity_law(self, tmp_path):
        scene = {
            "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
            "depth_resolution": [64, 40],
            "fps": 2,
            "duration_s": 2,
            "objects": [
                {"class_label": "vip", "height_m": 0.63, "distance_m": 3.0, "is_vip": True}
            ],
            "law": {"m_true": 1.0, "s_true": 0.0},
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / "run"
        run_cli("synth", "--scene", scene_path, "--out-dir", out, "--seed", 2)
        profile_path = _write_depth_profile(tmp_path / "depth.json", m=1.0, s=0.0)
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "neo_norc", "--depth-profile", profile_path,
                       "--out", est) == 0
        for r in read_jsonl(est):
            assert r["distance_m"] == pytest.approx(3.0, abs=1e-6)
            assert r["provenance"] == "static"

    def test_neo_recalibrates_on_drift(self, tmp_path):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", out, "--seed", 5)
        profile_path = _write_depth_profile(tmp_path / "depth.json")
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "neo", "--depth-profile", profile_path,
                       "--gt-source", "truth", "--fps", "10", "--seed", "11",
                       "--out", est) == 0
        events = [r for r in read_jsonl(est) if r.get("event") == "recalibration"]
        assert events, "no recalibration event emitted"
        assert all(e["timestamp_s"] >= 20.0 for e in events)
        later = [r for r in read_jsonl(est)
                 if "event" not in r and r["timestamp_s"] > events[0]["timestamp_s"]]
        assert all(r["provenance"] == "recalibrated" for r in later)

    def test_regression_estimator_matches_model(self, tmp_path):
        stream = tmp_path / "frames.jsonl"
        model = {"vip_id": "P9", "mode": "three", "a": 0.002, "b": 0.001, "c": 0.00001}
        reg_path = tmp_path / "reg.json"
        reg_path.write_text(json.dumps(model))
        rng = np.random.default_rng(9)
        expected = []
        with open(stream, "w") as fh:
            for i in range(5):
                w = float(rng.uniform(150, 400))
                h = float(rng.uniform(250, 600))
                d = model["a"] * w + model["b"] * h + model["c"] * (w * h)
                expected.append(d)
                ann = {
                    "frame_id": f"f{i}",
                    "timestamp_s": float(i),
                    "detections": [{
                        "class_label": "vip", "confidence": 0.99, "is_vip": True,
                        "bbox": {"x_min": 100.0, "y_min": 100.0, "x_max": 100.0 + w,
                                 "y_max": 100.0 + h, "resolution_w": 1280,
                                 "resolution_h": 720},
                    }],
                }
                fh.write(json.dumps(ann) + "\n")
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "regression",
                       "--regression-profile", reg_path, "--out", est) == 0
        got = [r["distance_m"] for r in read_jsonl(est)]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_regression_rejects_mixed_resolutions(self, tmp_path):
        stream = tmp_path / "frames.jsonl"
        reg_path = tmp_path / "reg.json"
        reg_path.write_text(json.dumps(
            {"vip_id": "P9", "mode": "three", "a": 0.01, "b": 0.01, "c": 0.0}))
        base = {"class_label": "vip", "confidence": 0.9, "is_vip": True}
        with open(stream, "w") as fh:
            for i, res in enumerate([(1280, 720), (1024, 320)]):
                ann = {
                    "frame_id": f"f{i}", "timestamp_s": float(i),
                    "detections": [dict(base, bbox={
                        "x_min": 10.0, "y_min": 10.0, "x_max": 200.0, "y_max": 300.0,
                        "resolution_w": res[0], "resolution_h": res[1]})],
                }
                fh.write(json.dumps(ann) + "\n")
        assert run_cli("estimate", "--stream", stream, "--estimator", "regression",
                       "--regression-profile", reg_path,
                       "--out", tmp_path / "est.jsonl") == 2

    def test_missing_depth_map_continues_with_error_record(self, tmp_path):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out, "--seed", 3)
        # delete one map
        victim = sorted((out / "maps").iterdir())[2]
        victim.unlink()
        profile_path = _write_depth_profile(tmp_path / "depth.json")
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "neo_norc", "--depth-profile", profile_path,
                       "--out", est) == 0
        records = read_jsonl(est)
        errors = [r for r in records if r.get("event") == "error"]
        assert len(errors) == 1
        assert len([r for r in records if "event" not in r]) == 9

    @pytest.mark.parametrize(
        "kind, message",
        [("missing", "not found"), ("directory", "unreadable (Is a directory)")],
        ids=["missing", "directory"],
    )
    def test_unreadable_depth_map_is_missing_data(self, tmp_path, capsys, kind, message):
        s1, s2 = synth_calibration_streams(tmp_path)
        victim = sorted((s1.parent / "maps").iterdir())[2]
        victim.unlink()
        if kind == "directory":
            victim.mkdir()
        profile_path = _write_depth_profile(tmp_path / "depth.json")
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", s1, "--estimator", "neo_norc",
                       "--depth-profile", profile_path, "--out", est) == 0
        errors = [r for r in read_jsonl(est) if r.get("event") == "error"]
        assert len(errors) == 1
        assert errors[0]["reason"] == f"frame frame_000002: depth map {victim} {message}"
        assert run_cli("calibrate", "depth", "--stream", s1, "--stream", s2,
                       "--pair", "2.5,4.0", "--out", tmp_path / "x.json") == 4
        assert f"depth map {victim} {message}" in capsys.readouterr().err

    def test_corrupt_depth_map_exits_2_without_partial_output(self, tmp_path):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out, "--seed", 3)
        victim = sorted((out / "maps").iterdir())[4]
        victim.write_bytes(b"ZZZZ" + victim.read_bytes()[4:])
        profile_path = _write_depth_profile(tmp_path / "depth.json")
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "neo_norc", "--depth-profile", profile_path,
                       "--out", est) == 2
        assert not est.exists()

    def test_truncated_depth_map_exits_2(self, tmp_path):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out, "--seed", 3)
        victim = sorted((out / "maps").iterdir())[0]
        victim.write_bytes(victim.read_bytes()[:-5])
        profile_path = _write_depth_profile(tmp_path / "depth.json")
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "neo_norc", "--depth-profile", profile_path,
                       "--out", tmp_path / "est.jsonl") == 2

    def test_missing_profile_exits_4(self, tmp_path):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out, "--seed", 3)
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "neo_norc",
                       "--depth-profile", tmp_path / "nope.json",
                       "--out", tmp_path / "est.jsonl") == 4

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_timestamp_exits_2(self, tmp_path, capsys, bad):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", out, "--seed", 5)
        lines = (out / "frames.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        lines[2] = lines[2].replace(f'"timestamp_s": {record["timestamp_s"]!r}',
                                    f'"timestamp_s": {bad}')
        stream = out / "bad.jsonl"
        stream.write_text("\n".join(lines) + "\n")
        profile_path = _write_depth_profile(tmp_path / "depth.json")
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "neo",
                       "--depth-profile", profile_path, "--gt-source", "truth",
                       "--out", est) == 2
        assert f"{stream}:3: timestamp" in capsys.readouterr().err
        assert not est.exists()

    def test_decreasing_timestamp_exits_2(self, tmp_path, capsys):
        stream = tmp_path / "frames.jsonl"
        stream.write_text("".join(json.dumps({"frame_id": f"f{i}", "timestamp_s": ts,
                                              "detections": []}) + "\n"
                                  for i, ts in enumerate([1.0, 0.5])))
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "geometric",
                       "--camera-profile", "builtin:tello", "--out", est) == 2
        assert (f"error: {stream}:2: timestamps must be non-decreasing (0.5 after 1.0)"
                in capsys.readouterr().err)
        assert not est.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_ground_truth_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", out, "--seed", 5)
        stream = _edit_third_record(out / "frames.jsonl",
                                    lambda r: r["ground_truth"].update(vip=value))
        profile_path = _write_depth_profile(tmp_path / "depth.json")
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "neo",
                       "--depth-profile", profile_path, "--gt-source", "truth",
                       "--out", est) == 2
        assert f"{stream}:3: ground truth 'vip' is {value}" in capsys.readouterr().err
        assert not est.exists()
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "neo_norc", "--depth-profile", profile_path,
                       "--out", est) == 0
        assert run_cli("evaluate", "--estimates", est, "--truth", stream,
                       "--out-dir", tmp_path / "m") == 2
        assert f"{stream}:3: ground truth 'vip' is {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [("x_min", float("nan"), "x extent [nan, 740.296] invalid for width 1280"),
         ("y_max", 721.0, "y extent [192.84, 721.0] invalid for height 720"),
         ("resolution_w", 0, "resolution must be positive, got 0x720")],
        ids=["nan", "outside", "resolution"],
    )
    def test_invalid_box_exits_2(self, tmp_path, capsys, field, value, message):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", out, "--seed", 5)
        stream = _edit_third_record(
            out / "frames.jsonl", lambda r: r["detections"][0]["bbox"].update({field: value}))
        assert run_cli("estimate", "--stream", stream, "--estimator", "geometric",
                       "--camera-profile", "builtin:tello",
                       "--out", tmp_path / "est.jsonl") == 2
        assert f"{stream}:3: malformed frame annotation ({message})" in capsys.readouterr().err

    def test_malformed_stream_exits_2(self, tmp_path):
        stream = tmp_path / "frames.jsonl"
        stream.write_text("{broken\n")
        assert run_cli("estimate", "--stream", stream, "--estimator", "geometric",
                       "--camera-profile", "builtin:tello",
                       "--out", tmp_path / "est.jsonl") == 2


HUGE = 10**400  # an integer literal too large for a float


class TestInputFaults:
    """Inputs that end in their documented exit code and name their file."""

    @pytest.mark.parametrize("estimator, flags", [
        ("neo", ("--depth-profile", "builtin:P1", "--gt-source", "truth")),
        ("neo_norc", ("--depth-profile", "builtin:P1")),
        ("regression", ("--regression-profile", "builtin:P1")),
    ])
    def test_several_followed_persons_exit_2(self, tmp_path, capsys, estimator, flags):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "static_mixed.json", "--out-dir", out, "--seed", 1)
        stream = _edit_third_record(
            out / "frames.jsonl", lambda r: [d.update(is_vip=True) for d in r["detections"]])
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", estimator, *flags,
                       "--out", est) == 2
        assert f"{stream}:3: 3 detections flagged is_vip" in capsys.readouterr().err
        assert not est.exists()
        est.write_text("")
        assert run_cli("evaluate", "--estimates", est, "--truth", stream,
                       "--out-dir", tmp_path / "m") == 2
        assert f"{stream}:3: 3 detections flagged is_vip" in capsys.readouterr().err

    def test_repeated_frame_id_exits_2(self, tmp_path, capsys):
        """Truth joins on frame_id, so a repeated id would score one frame against another."""
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", out, "--seed", 5)
        stream = _edit_third_record(out / "frames.jsonl",
                                    lambda r: r.update(frame_id="frame_000001"))
        message = f"{stream}:3: repeated frame_id 'frame_000001'"
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "geometric",
                       "--camera-profile", "builtin:tello", "--out", est) == 2
        assert message in capsys.readouterr().err
        assert not est.exists()
        assert run_cli("estimate", "--stream", out / "frames.jsonl", "--estimator", "geometric",
                       "--camera-profile", "builtin:tello", "--out", est) == 0
        assert run_cli("evaluate", "--estimates", est, "--truth", stream,
                       "--out-dir", tmp_path / "m") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_ground_truth_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", out, "--seed", 5)
        stream = _edit_third_record(out / "frames.jsonl",
                                    lambda r: r["ground_truth"].update(vip=value))
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "neo_norc", "--depth-profile", "builtin:P1",
                       "--out", est) == 0
        assert run_cli("evaluate", "--estimates", est, "--truth", stream,
                       "--out-dir", tmp_path / "m") == 2
        assert f"{stream}:3: ground truth 'vip' is {value}" in capsys.readouterr().err

    def test_directory_or_missing_input_is_missing_data(self, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        missing = tmp_path / "missing.json"
        stream = tmp_path / "frames.jsonl"
        stream.write_text("")
        cases = [
            (("estimate", "--stream", folder, "--estimator", "neo_norc",
              "--depth-profile", "builtin:P1"), f"stream file {folder} unreadable"),
            (("estimate", "--stream", stream, "--estimator", "neo_norc",
              "--depth-profile", folder), f"profile file {folder} unreadable"),
            (("evaluate", "--estimates", folder, "--truth", stream),
             f"input file {folder} unreadable"),
            (("synth", "--scene", folder), f"scene file {folder} unreadable"),
            (("synth", "--scene", missing), f"scene file {missing} not found"),
        ]
        for argv, message in cases:
            target = ("--out-dir", tmp_path / "o") if argv[0] != "estimate" else (
                "--out", tmp_path / "est.jsonl")
            assert run_cli(*argv, *target) == 4, argv
            assert message in capsys.readouterr().err

    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", out, "--seed", 5)
        stream = _edit_third_record(out / "frames.jsonl",
                                    lambda r: r.update(timestamp_s=HUGE))
        assert run_cli("estimate", "--stream", stream, "--estimator", "geometric",
                       "--camera-profile", "builtin:tello",
                       "--out", tmp_path / "est.jsonl") == 2
        assert f"{stream}:3: malformed frame annotation" in capsys.readouterr().err

        reg = tmp_path / "reg.json"
        reg.write_text(json.dumps({"vip_id": "P9", "mode": "three", "a": HUGE, "b": 0.1,
                                   "c": 0.0}))
        assert run_cli("estimate", "--stream", out / "frames.jsonl",
                       "--estimator", "regression", "--regression-profile", reg,
                       "--out", tmp_path / "est.jsonl") == 2
        assert f"{reg}: malformed regression profile" in capsys.readouterr().err

        est = tmp_path / "est.jsonl"
        est.write_text(json.dumps({"frame_id": "frame_000000", "class_label": "vip",
                                   "is_vip": True, "distance_m": HUGE}) + "\n")
        assert run_cli("evaluate", "--estimates", est, "--truth", out / "frames.jsonl",
                       "--out-dir", tmp_path / "m") == 2
        assert f"{est}:1: malformed record" in capsys.readouterr().err

        scene = json.loads((SCENES / "static_mixed.json").read_text())
        scene["camera"]["focal_length_px"] = HUGE
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        assert run_cli("synth", "--scene", scene_path, "--out-dir", tmp_path / "s") == 2
        assert f"{scene_path}: malformed scene spec" in capsys.readouterr().err

    def test_input_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", out, "--seed", 5)
        neod_map = out / "maps" / "frame_000000.neod"
        assert run_cli("estimate", "--stream", neod_map, "--estimator", "geometric",
                       "--camera-profile", "builtin:tello",
                       "--out", tmp_path / "est.jsonl") == 2
        assert f"{neod_map}:1: not UTF-8 text" in capsys.readouterr().err

        est = tmp_path / "est.jsonl"
        est.write_bytes(b'{"event": "x"}\n\n{"frame_id": "caf\xe9"}\n')
        assert run_cli("evaluate", "--estimates", est, "--truth", out / "frames.jsonl",
                       "--out-dir", tmp_path / "m") == 2
        assert f"{est}:3: not UTF-8 text" in capsys.readouterr().err

        scene = json.loads((SCENES / "calib_2p5m.json").read_text())
        scene["objects"][0]["class_label"] = "caf\xe9"
        scene_path = tmp_path / "scene.json"
        scene_path.write_bytes(json.dumps(scene, indent=2, ensure_ascii=False).encode("latin-1"))
        line = next(i for i, text in enumerate(scene_path.read_bytes().splitlines(), 1)
                    if b"caf" in text)
        assert run_cli("synth", "--scene", scene_path, "--out-dir", tmp_path / "s") == 2
        assert f"{scene_path}:{line}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_scene_number_exits_2(self, tmp_path, capsys, literal):
        text = (SCENES / "calib_2p5m.json").read_text()
        assert '"distance_m": 2.5' in text
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(text.replace('"distance_m": 2.5', f'"distance_m": {literal}'))
        assert run_cli("synth", "--scene", scene_path, "--out-dir", tmp_path / "s") == 2
        assert f"{scene_path}: invalid JSON (non-finite number {literal})" in (
            capsys.readouterr().err)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("estimator, flags, what", [
        ("geometric", [], "camera profile"),
        ("regression", ["--regression-profile", "builtin:P1"], "calibrated"),
    ])
    def test_resolution_mismatch_names_stream_and_frame(self, tmp_path, capsys, estimator,
                                                        flags, what):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "static_mixed.json", "--out-dir", out) == 0
        camera = tmp_path / "camera.json"
        camera.write_text(json.dumps({"focal_length_px": 800, "image_w": 640, "image_h": 360}))
        stream = out / "frames.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", estimator,
                       "--camera-profile", camera, *flags, "--out", tmp_path / "est.jsonl") == 2
        assert (f"error: {stream}: frame frame_000000: box resolution 1280x720 differs from "
                f"the {what} 640x360; scale the box first") in capsys.readouterr().err

    @pytest.mark.parametrize("estimator, flags", [
        ("regression", ()),
        ("neo", ("--depth-profile", "builtin:P1")),  # the regression truth of the frame
    ])
    def test_mixed_resolution_stream_exits_2_naming_the_frame_once(self, tmp_path, capsys,
                                                                   estimator, flags):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "static_mixed.json", "--out-dir", out,
                       "--seed", 1) == 0
        lines = []
        for i, line in enumerate((out / "frames.jsonl").read_text().splitlines()):
            frame = json.loads(line)
            if i % 2:  # every other frame's boxes rescaled from 1280x720 to 1920x1080
                for det in frame["detections"]:
                    bbox = det["bbox"]
                    for key in ("x_min", "y_min", "x_max", "y_max"):
                        bbox[key] *= 1.5
                    bbox.update(resolution_w=1920, resolution_h=1080)
            lines.append(json.dumps(frame) + "\n")
        stream = out / "mixed.jsonl"
        stream.write_text("".join(lines))
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", estimator, *flags,
                       "--regression-profile", "builtin:P1", "--out", est) == 2
        assert capsys.readouterr().err == (
            f"error: {stream}: frame frame_000001: box resolution 1920x1080 differs from the "
            "calibrated 1280x720; scale the box first\n")
        assert not est.exists()

    @pytest.mark.parametrize("argv", [
        ("estimate", "--estimator", "neo_norc", "--depth-profile", "builtin:P1"),
        ("estimate", "--estimator", "neo", "--depth-profile", "builtin:P1",
         "--gt-source", "truth"),
        ("calibrate", "depth"),
    ], ids=["neo_norc", "neo", "calibrate"])
    def test_box_that_collapses_at_the_map_resolution_names_stream_and_frame(
        self, tmp_path, capsys, argv
    ):
        # Two adjacent floats: a valid box at 1280 px that scales to an empty one at 1024 px.
        x_min = 487.5602200032237
        x_max = math.nextafter(x_min, math.inf)
        assert x_max == 487.5602200032238
        bbox = {"x_min": x_min, "y_min": 100.0, "x_max": x_max, "y_max": 300.0,
                "resolution_w": 1280, "resolution_h": 720}
        stream = _one_frame_stream(tmp_path, bbox, np.full((320, 1024), 0.5), {"vip": 3.0})
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--stream", stream, "--out", out) == 2
        assert (f"error: {stream}: frame f0: x extent [390.048176002579, 390.048176002579] "
                "invalid for width 1024\n") in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("estimate", "--stream", stream, "--estimator", "geometric",
                       "--camera-profile", "builtin:tello", "--out", out) == 0

    @pytest.mark.parametrize("estimator, flags", [
        ("regression", ()),
        ("neo", ("--depth-profile", "builtin:P1")),  # the regression truth of the frame
    ])
    def test_box_area_too_large_for_a_float_names_stream_and_frame(self, tmp_path, capsys,
                                                                   estimator, flags):
        bbox = {"x_min": 0.0, "y_min": 0.0, "x_max": 1e200, "y_max": 1e200,
                "resolution_w": 10**300, "resolution_h": 10**300}
        stream = _one_frame_stream(tmp_path, bbox, np.full((32, 64), 0.5))
        out = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", estimator, *flags,
                       "--regression-profile", "builtin:P1", "--out", out) == 2
        assert (f"error: {stream}: frame f0: box area inf is not finite\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_depth_profile_anchor_that_overflows_names_the_profile(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out) == 0
        profile = tmp_path / "depth.json"
        profile.write_text(json.dumps({"vip_id": "S1", "m": 1e-320, "s": 0.0, "unit": "m",
                                       "pair": [2.5, 4.0]}))
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl", "--estimator", "neo",
                       "--gt-source", "truth", "--depth-profile", profile, "--out", est) == 2
        assert (f"error: depth profile {profile}: its line gives no usable anchor "
                "(normalized score must be finite, got inf)") in capsys.readouterr().err
        assert not est.exists()


class TestNeoRecalibrationInputs:
    """The offline anchors and the regression truths that ``neo`` recalibrates from."""

    @staticmethod
    def drift_stream(tmp_path):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", out,
                       "--seed", 5) == 0
        return out / "frames.jsonl"

    @staticmethod
    def neo(stream, profile, out, *flags):
        return run_cli("estimate", "--stream", stream, "--estimator", "neo",
                       "--depth-profile", profile, "--gt-source", "truth", "--fps", "10",
                       "--seed", "11", *flags, "--out", out)

    def test_a_refit_mixes_the_profile_anchors_and_new_samples(self, tmp_path):
        stream = self.drift_stream(tmp_path)
        profile = _write_depth_profile(tmp_path / "depth.json", m=5.9, s=1.1)
        assert self.neo(stream, profile, tmp_path / "a.jsonl") == 0
        refits = [r for r in read_jsonl(tmp_path / "a.jsonl") if "event" in r]
        assert refits and refits[0]["event"] == "recalibration"
        config = depth.RecalibrationConfig()
        assert refits[0]["sample_count"] == config.n_o + config.n_new == 27

    def test_a_profile_without_a_pair_exits_4(self, tmp_path, capsys):
        stream = self.drift_stream(tmp_path)
        profile = tmp_path / "depth.json"
        save_profile(profile, DepthProfile(vip_id="S1", m=6.0, s=1.0, unit="m"))
        est = tmp_path / "est.jsonl"
        assert self.neo(stream, profile, est) == 4
        assert "error: depth profile has no calibration pair\n" in capsys.readouterr().err
        assert not est.exists()

    def test_a_frame_without_a_vip_keeps_its_other_records(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "static_mixed.json", "--out-dir", out,
                       "--seed", 1) == 0
        stream = _edit_third_record(
            out / "frames.jsonl",
            lambda r: r.update(detections=[d for d in r["detections"] if not d["is_vip"]]),
        )
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "neo",
                       "--depth-profile", "builtin:P1", "--regression-profile", "builtin:P1",
                       "--out", est) == 0
        records = read_jsonl(est)
        assert not [r for r in records if "event" in r]
        third = [r for r in records if r["frame_id"] == "frame_000002"]
        assert sorted(r["class_label"] for r in third) == ["bystander", "car"]
        assert len(records) == 3 * 10 - 1


class TestInvertedMap:
    """A map whose near pixels score high, calibrated with ``--lt-take highest``.

    The profile records the tail, so a plain ``estimate`` scores with it too.
    """

    def test_highest_tail_recovers_the_line_and_the_distance(self, tmp_path):
        streams = {}
        for d in (2.5, 4.0, 3.0):
            scene = json.loads((SCENES / "calib_2p5m.json").read_text())
            scene["objects"][0]["distance_m"] = d
            scene.update(law={"m_true": -6.0, "s_true": 30.0, "noise_sigma": 0.05},
                         depth_resolution=[256, 160], duration_s=20)
            scene_path = tmp_path / f"scene_{d}.json"
            scene_path.write_text(json.dumps(scene))
            out = tmp_path / f"run_{d}"
            assert run_cli("synth", "--scene", scene_path, "--out-dir", out, "--seed", 3) == 0
            streams[d] = out / "frames.jsonl"
        profile = tmp_path / "depth.json"
        assert run_cli("calibrate", "depth", "--stream", streams[2.5], "--stream", streams[4.0],
                       "--lt-take", "highest", "--out", profile) == 0
        assert load_depth_profile(profile).m == pytest.approx(-6.0, abs=0.01)
        assert load_depth_profile(profile).lt_take == "highest"
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", streams[3.0], "--estimator", "neo_norc",
                       "--depth-profile", profile, "--out", est) == 0
        errors = [abs(r["distance_m"] - 3.0) for r in read_jsonl(est)]
        assert len(errors) == 20
        assert float(np.median(errors)) < 0.01


class TestProfileRecordsTheMethod:
    """``estimate`` scores the way the profile's calibration did; ``--norm-method`` overrides."""

    @staticmethod
    def noisy_stream(tmp_path, distance_m):
        """A calibration stream at ``distance_m`` whose methods give different scores."""
        scene = json.loads((SCENES / "calib_2p5m.json").read_text())
        scene["objects"][0]["distance_m"] = distance_m
        scene["law"]["noise_sigma"] = 0.05
        scene_path = tmp_path / f"scene_{distance_m}.json"
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / f"run_{distance_m}"
        assert run_cli("synth", "--scene", scene_path, "--out-dir", out, "--seed", 5) == 0
        return out / "frames.jsonl"

    def test_calibrated_method_is_the_estimate_default(self, tmp_path):
        s1, s2 = (self.noisy_stream(tmp_path, d) for d in (2.5, 4.0))
        profile = tmp_path / "depth.json"
        assert run_cli("calibrate", "depth", "--stream", s1, "--stream", s2,
                       "--norm-method", "center", "--out", profile) == 0
        assert load_depth_profile(profile).norm_method == "center"
        plain, flagged = tmp_path / "plain.jsonl", tmp_path / "flagged.jsonl"
        for out, flags in ((plain, ()), (flagged, ("--norm-method", "center"))):
            assert run_cli("estimate", "--stream", s1, "--estimator", "neo_norc",
                           "--depth-profile", profile, *flags, "--out", out) == 0
        assert plain.read_bytes() == flagged.read_bytes()
        lowest = tmp_path / "lowest.jsonl"
        assert run_cli("estimate", "--stream", s1, "--estimator", "neo_norc", "--depth-profile",
                       profile, "--norm-method", "low_threshold", "--out", lowest) == 0
        assert lowest.read_bytes() != plain.read_bytes()

    def test_profile_without_the_method_keys_loads_as_before(self, tmp_path):
        # The keys and values a depth profile held before it recorded its method.
        old = tmp_path / "old.json"
        old.write_text('{\n  "lt_percentile": 10.0,\n  "m": 6.0,\n  "pair": [\n    2.5,\n'
                       '    4.0\n  ],\n  "s": 1.0,\n  "smooth_window": 5,\n  "unit": "m",\n'
                       '  "vip_id": "S1"\n}\n')
        loaded = load_depth_profile(old)
        assert loaded == DepthProfile(vip_id="S1", m=6.0, s=1.0, pair=(2.5, 4.0))
        assert loaded.method == depth.NormalizationMethod()
        new = tmp_path / "new.json"
        save_profile(new, loaded)
        assert json.loads(new.read_text()) == {**json.loads(old.read_text()),
                                               "norm_method": "low_threshold",
                                               "lt_take": "lowest"}
        stream, _ = TestEstimateMapReads.five_frames(tmp_path)
        for name in ("old", "new"):
            assert TestEstimateMapReads.neo_norc(stream, tmp_path / f"{name}.json",
                                                 tmp_path / f"{name}.jsonl") == 0
        assert (tmp_path / "old.jsonl").read_bytes() == (tmp_path / "new.jsonl").read_bytes()


class TestCodecFaults:
    """Values of the wrong JSON type and numbers that cannot be written."""

    def test_non_finite_distance_is_a_frame_error(self, tmp_path, capsys):
        camera = tmp_path / "camera.json"
        camera.write_text(json.dumps({"focal_length_px": 1e308, "image_w": 1280,
                                      "image_h": 720}))
        box = {"x_min": 100.0, "y_min": 100.0, "x_max": 101.0, "y_max": 100.5,
               "resolution_w": 1280, "resolution_h": 720}
        stream = tmp_path / "frames.jsonl"
        stream.write_text(json.dumps({"frame_id": "f0", "timestamp_s": 0.0, "detections": [
            {"bbox": box, "class_label": "car"}]}) + "\n")
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "geometric",
                       "--camera-profile", camera, "--out", est) == 0
        assert "frames=1 records=1 recalibrations=0 frame_errors=1" in capsys.readouterr().out
        assert read_jsonl(est) == [{"event": "error", "frame_id": "f0", "timestamp_s": 0.0,
                                    "reason": "frame f0: distance_m inf is not finite"}]

    def test_regression_overflow_is_an_out_of_domain_truth(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out)
        reg = tmp_path / "reg.json"
        reg.write_text(json.dumps({"vip_id": "S1", "mode": "three", "a": 1e308, "b": 0.0,
                                   "c": 0.0}))
        depth_profile = _write_depth_profile(tmp_path / "depth.json")
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", out / "frames.jsonl", "--estimator", "neo",
                       "--depth-profile", depth_profile, "--regression-profile", reg,
                       "--out", est) == 0
        assert "frames=10 records=10 recalibrations=0 frame_errors=0" in (
            capsys.readouterr().out)
        assert all(math.isfinite(r["distance_m"]) for r in read_jsonl(est))
        assert run_cli("estimate", "--stream", out / "frames.jsonl", "--estimator",
                       "regression", "--regression-profile", reg, "--out", est) == 0
        assert "frames=10 records=10 recalibrations=0 frame_errors=10" in (
            capsys.readouterr().out)
        assert [r["reason"] for r in read_jsonl(est)] == [
            f"frame frame_{i:06d}: distance_m inf is not finite" for i in range(10)]

    def test_non_finite_profile_is_not_written(self, tmp_path, capsys):
        box = {"x_min": 540.0, "y_min": 193.0, "x_max": 740.0, "y_max": 527.0,
               "resolution_w": 1280, "resolution_h": 720}
        samples = tmp_path / "samples.jsonl"
        samples.write_text(json.dumps({"bbox": box, "object_height_m": 0.5,
                                       "true_distance_m": 1e308}) + "\n")
        out = tmp_path / "camera.json"
        assert run_cli("focal", "--samples", samples, "--out", out) == 2
        assert (f"{samples}:1: malformed focal sample (focal length inf px is not finite)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("value", [[1], "abc", 5, []],
                             ids=["list", "string", "number", "empty-list"])
    @pytest.mark.parametrize("command", ["estimate", "evaluate", "calibrate"])
    def test_ground_truth_not_an_object_exits_2(self, tmp_path, capsys, command, value):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out)
        stream = _edit_third_record(out / "frames.jsonl",
                                    lambda r: r.update(ground_truth=value))
        est = tmp_path / "est.jsonl"
        est.write_text("")
        argv = {
            "estimate": ("estimate", "--stream", stream, "--estimator", "geometric",
                         "--camera-profile", "builtin:tello", "--out", est),
            "evaluate": ("evaluate", "--estimates", est, "--truth", stream,
                         "--out-dir", tmp_path / "m"),
            "calibrate": ("calibrate", "depth", "--stream", stream,
                          "--out", tmp_path / "depth.json"),
        }[command]
        assert run_cli(*argv) == 2
        kind = type(value).__name__
        assert (f"{stream}:3: malformed frame annotation (ground_truth is {kind}, "
                "not an object)") in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["regression", "regression-huge", "regression-inf",
                                        "focal", "focal-nan", "focal-huge", "focal-inf-height",
                                        "focal-zero-height"])
    def test_sample_outside_its_domain_names_file_and_line(self, tmp_path, capsys, reader):
        box = {"x_min": 540.0, "y_min": 193.0, "x_max": 740.0, "y_max": 527.0,
               "resolution_w": 1280, "resolution_h": 720}
        good, bad, what, message = {
            "regression": ({"w_b": 5.0, "h_b": 300.0, "true_distance_m": 3.0},
                           {"w_b": -5.0, "h_b": 300.0, "true_distance_m": 3.0},
                           "labeled frame", "box dimensions must be positive, got -5.0x300.0"),
            "regression-huge": ({"w_b": 5.0, "h_b": 300.0, "true_distance_m": 3.0},
                                {"w_b": 1e200, "h_b": 1e200, "true_distance_m": 3.0},
                                "labeled frame", "box area inf is not finite"),
            "regression-inf": ({"w_b": 5.0, "h_b": 300.0, "true_distance_m": 3.0},
                               {"w_b": 5.0, "h_b": 300.0, "true_distance_m": math.inf},
                               "labeled frame", "true distance must be finite, got inf"),
            "focal": ({"bbox": box, "object_height_m": 0.63, "true_distance_m": 3.0},
                      {"bbox": {**box, "x_max": 2000.0}, "object_height_m": 0.63,
                       "true_distance_m": 3.0},
                      "focal sample", "x extent [540.0, 2000.0] invalid for width 1280"),
            "focal-nan": ({"bbox": box, "object_height_m": 0.63, "true_distance_m": 3.0},
                          {"bbox": box, "object_height_m": 0.63, "true_distance_m": math.nan},
                          "focal sample", "true distance must be positive, got nan"),
            "focal-huge": ({"bbox": box, "object_height_m": 0.63, "true_distance_m": 3.0},
                           {"bbox": box, "object_height_m": 0.63, "true_distance_m": 1e308},
                           "focal sample", "focal length inf px is not finite"),
            "focal-inf-height": ({"bbox": box, "object_height_m": 0.63, "true_distance_m": 3.0},
                                 {"bbox": box, "object_height_m": math.inf,
                                  "true_distance_m": 3.0},
                                 "focal sample", "focal length 0.0 px is not positive"),
            "focal-zero-height": ({"bbox": box, "object_height_m": 0.63, "true_distance_m": 3.0},
                                  {"bbox": box, "object_height_m": 0, "true_distance_m": 3.0},
                                  "focal sample", "object height must be positive, got 0.0"),
        }[reader]
        samples = tmp_path / "samples.jsonl"
        samples.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        argv = {
            "regression": ("calibrate", "regression", "--frames", samples,
                           "--out", tmp_path / "p.json"),
            "focal": ("focal", "--samples", samples, "--out", tmp_path / "p.json"),
        }[reader.partition("-")[0]]
        assert run_cli(*argv) == 2
        assert f"{samples}:2: malformed {what} ({message})" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "calibrate"])
    def test_non_finite_map_names_the_file(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out)
        neod_map = out / "maps" / "frame_000003.neod"
        raw = bytearray(neod_map.read_bytes())
        raw[100:104] = np.array([np.nan], dtype="<f4").tobytes()
        neod_map.write_bytes(bytes(raw))
        stream = out / "frames.jsonl"
        argv = {
            "estimate": ("estimate", "--stream", stream, "--estimator", "neo_norc",
                         "--depth-profile", "builtin:P1", "--out", tmp_path / "est.jsonl"),
            "calibrate": ("calibrate", "depth", "--stream", stream,
                          "--out", tmp_path / "depth.json"),
        }[command]
        assert run_cli(*argv) == 2
        assert f"error: {neod_map}: depth map contains non-finite scores" in (
            capsys.readouterr().err)

    def test_depth_map_path_not_a_string_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out)
        stream = _edit_third_record(out / "frames.jsonl",
                                    lambda r: r.update(depth_map_path=5))
        assert run_cli("estimate", "--stream", stream, "--estimator", "neo_norc",
                       "--depth-profile", "builtin:P1", "--out", tmp_path / "est.jsonl") == 2
        assert (f"{stream}:3: malformed frame annotation (depth_map_path is int, "
                "not a string)") in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["5", '"an event"', "[1]", "null"])
    def test_estimates_line_not_an_object_exits_2(self, tmp_path, capsys, line):
        out = tmp_path / "run"
        run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out)
        est = tmp_path / "est.jsonl"
        est.write_text('{"event": "error"}\n' + line + "\n")
        assert run_cli("evaluate", "--estimates", est, "--truth", out / "frames.jsonl",
                       "--out-dir", tmp_path / "m") == 2
        assert f"{est}:2: expected a JSON object" in capsys.readouterr().err


class TestSceneFaults:
    """A scene that cannot be loaded or rendered exits 2 naming the scene file."""

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s.update(depth_resolution=[-4, 10]),
         "malformed scene spec (depth resolution must be positive, got -4x10)"),
        (lambda s: s.update(depth_resolution=[0, 10]),
         "malformed scene spec (depth resolution must be positive, got 0x10)"),
        (lambda s: s.update(depth_resolution=[64]),
         "malformed scene spec (not enough values to unpack"),
        (lambda s: s.update(fps=2.7), "malformed scene spec (fps 2.7 is not a whole number)"),
        (lambda s: s["law"].update(m_true=1e-300),
         "scene cannot be rendered (depth map contains non-finite scores)"),
        (lambda s: s.update(fps=0), "scene cannot be rendered (fps must be >= 1, got 0)"),
        (lambda s: s["objects"].extend(
            {"class_label": "car", "height_m": 1.7, "distance_m": d, "lateral_offset_m": x}
            for d, x in ((5.0, -1.0), (7.0, 1.0))),
         "ambiguous ground truth (2 detections carry the ground-truth key 'car')"),
        (lambda s: s["camera"].update(fov_deg=200),
         "malformed scene spec "
         "(field of view must be strictly between 0 and 180 degrees, got 200.0)"),
        (lambda s: s["objects"][0].update(height_m=0),
         "malformed scene spec (object height must be positive, got 0.0)"),
        (lambda s: s["objects"][0].update(width_m=-1),
         "malformed scene spec (object width must be positive, got -1.0)"),
    ], ids=["negative-resolution", "zero-resolution", "short-resolution", "fractional-fps",
            "tiny-slope", "zero-fps", "shared-truth-key", "wide-fov", "zero-height",
            "negative-width"])
    def test_bad_scene_exits_2_naming_the_file(self, tmp_path, capsys, edit, message):
        scene = json.loads((SCENES / "calib_2p5m.json").read_text())
        edit(scene)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        assert run_cli("synth", "--scene", scene_path, "--out-dir", tmp_path / "s") == 2
        assert f"error: {scene_path}: {message}" in capsys.readouterr().err

    @staticmethod
    def assert_no_stream(tmp_path, out):
        """``out`` holds no stream, so ``estimate`` on it exits 4, not 0 with no frames."""
        assert not (out / "frames.jsonl").exists()
        assert run_cli("estimate", "--stream", out / "frames.jsonl", "--estimator", "neo_norc",
                       "--depth-profile", "builtin:P1", "--out", tmp_path / "est.jsonl") == 4

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s["objects"].append(
            {"class_label": "car", "height_m": 1.5, "distance_m": 6.0, "lateral_offset_m": 1.5}),
         "ambiguous ground truth (2 detections carry the ground-truth key 'car')"),
        (lambda s: s["law"].update(m_true=1e-300),
         "scene cannot be rendered (depth map contains non-finite scores)"),
        (lambda s: s.update(duration_s=0.2, fps=2),
         "scene cannot be rendered (duration 0.2s at 2 fps holds no frame)"),
        (lambda s: s.update(drift={"switch_time_s": -1,
                                   "post_law": {"m_true": 6.0, "s_true": 1.45}}),
         "scene cannot be rendered (switch time must be >= 0, got -1.0)"),
    ], ids=["second-car", "tiny-slope", "no-frame", "negative-switch-time"])
    def test_scene_fault_leaves_the_output_directory_untouched(
        self, tmp_path, capsys, edit, message
    ):
        scene = json.loads((SCENES / "static_mixed.json").read_text())
        edit(scene)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / "s"
        assert run_cli("synth", "--scene", scene_path, "--out-dir", out) == 2
        assert f"error: {scene_path}: {message}" in capsys.readouterr().err
        assert not out.exists()
        self.assert_no_stream(tmp_path, out)

    def test_later_frame_fault_removes_the_stream(self, tmp_path, capsys):
        scene = json.loads((SCENES / "drift_run.json").read_text())
        scene["drift"]["post_law"]["m_true"] = 1e-300
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / "s"
        assert run_cli("synth", "--scene", scene_path, "--out-dir", out) == 2
        assert (f"error: {scene_path}: scene cannot be rendered "
                "(depth map contains non-finite scores)") in capsys.readouterr().err
        assert (out / "maps" / "frame_000199.neod").exists()  # the frames before the switch
        self.assert_no_stream(tmp_path, out)

    def test_noisy_scores_beyond_float32_exit_2_without_a_warning(self, tmp_path, capsys):
        scene = json.loads((SCENES / "calib_2p5m.json").read_text())
        scene["law"].update(m_true=1e-300, noise_sigma=0.01)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("synth", "--scene", scene_path, "--out-dir", tmp_path / "s") == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert (f"error: {scene_path}: scene cannot be rendered "
                "(depth map contains non-finite scores)") in capsys.readouterr().err

    def test_whole_float_fps_is_accepted(self, tmp_path, capsys):
        scene = json.loads((SCENES / "calib_2p5m.json").read_text())
        scene["fps"] = float(scene["fps"])
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        assert run_cli("synth", "--scene", scene_path, "--out-dir", tmp_path / "s") == 0
        frames = scene["fps"] * scene["duration_s"]
        assert f"frames={frames:g} " in capsys.readouterr().out


class TestUnwritableOutput:
    """An output path that cannot be created or written exits 4 naming the path."""

    @pytest.fixture
    def stream(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out) == 0
        return out / "frames.jsonl"

    @pytest.fixture
    def regular_file(self, tmp_path):
        path = tmp_path / "regular"
        path.write_text("")
        return path

    def test_estimate(self, tmp_path, capsys, stream):
        out = tmp_path / "nodir" / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "neo_norc",
                       "--depth-profile", "builtin:P1", "--out", out) == 4
        assert f"output file {out} cannot be written (No such file or directory)" in (
            capsys.readouterr().err)
        folder = tmp_path / "folder"
        folder.mkdir()
        assert run_cli("estimate", "--stream", stream, "--estimator", "neo_norc",
                       "--depth-profile", "builtin:P1", "--out", folder) == 4
        assert f"output file {folder} cannot be written" in capsys.readouterr().err
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_estimate_full_disk(self, tmp_path, capsys, stream):
        out = tmp_path / "est.jsonl"
        (tmp_path / "est.jsonl.tmp").symlink_to("/dev/full")  # every write fails with ENOSPC
        assert run_cli("estimate", "--stream", stream, "--estimator", "neo_norc",
                       "--depth-profile", "builtin:P1", "--out", out) == 4
        assert f"output file {out} cannot be written (No space left on device)" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_calibrate(self, tmp_path, capsys):
        frames = TestCalibrateRegression.labeled_file(tmp_path)
        out = tmp_path / "nodir" / "p.json"
        assert run_cli("calibrate", "regression", "--frames", frames, "--out", out) == 4
        assert f"profile file {out} cannot be written" in capsys.readouterr().err

    def test_focal(self, tmp_path, capsys):
        samples = tmp_path / "focal.jsonl"
        bbox = {"x_min": 100, "y_min": 100, "x_max": 200, "y_max": 434.32,
                "resolution_w": 1280, "resolution_h": 720}
        samples.write_text(json.dumps({"bbox": bbox, "object_height_m": 0.63,
                                       "true_distance_m": 3.0}) + "\n")
        out = tmp_path / "nodir" / "p.json"
        assert run_cli("focal", "--samples", samples, "--out", out) == 4
        assert f"profile file {out} cannot be written" in capsys.readouterr().err

    def test_synth(self, tmp_path, capsys, stream, regular_file):
        assert run_cli("synth", "--scene", SCENES / "calib_2p5m.json",
                       "--out-dir", regular_file) == 4
        assert f"output path {regular_file / 'maps'} cannot be written" in (
            capsys.readouterr().err)
        first = stream.parent / "maps" / "frame_000000.neod"
        first.unlink()
        first.mkdir()
        assert run_cli("synth", "--scene", SCENES / "calib_2p5m.json",
                       "--out-dir", stream.parent) == 4
        assert f"depth map {first} cannot be written" in capsys.readouterr().err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_synth_full_disk(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "frames.jsonl").symlink_to("/dev/full")  # every write fails with ENOSPC
        assert run_cli("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out) == 4
        assert f"output path {out / 'frames.jsonl'} cannot be written (No space left on device)" in (
            capsys.readouterr().err)

    def test_evaluate(self, tmp_path, capsys, stream, regular_file):
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "neo_norc",
                       "--depth-profile", "builtin:P1", "--out", est) == 0
        assert run_cli("evaluate", "--estimates", est, "--truth", stream,
                       "--out-dir", regular_file) == 4
        assert f"output path {regular_file} cannot be written" in capsys.readouterr().err


class TestEstimateMapReads:
    """``estimate`` reads each frame's map when it reaches the frame, on its own thread.

    A map is read once, in frame order; a fault of a map or of a line is
    reported in frame order, and no estimator starts a thread.
    """

    @staticmethod
    def five_frames(tmp_path):
        """A 5-frame stream of one followed person on small maps, and a depth profile."""
        scene = {
            "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
            "depth_resolution": [64, 40], "fps": 5, "duration_s": 1,
            "objects": [
                {"class_label": "vip", "height_m": 0.63, "distance_m": 3.0, "is_vip": True}
            ],
            "law": {"m_true": 6.0, "s_true": 1.0, "noise_sigma": 0.05},
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", scene_path, "--out-dir", out, "--seed", 4) == 0
        return out / "frames.jsonl", _write_depth_profile(tmp_path / "depth.json")

    @staticmethod
    def neo_norc(stream, profile, out):
        return run_cli("estimate", "--stream", stream, "--estimator", "neo_norc",
                       "--depth-profile", profile, "--out", out)

    @staticmethod
    def neo_run(tmp_path, stream, out):
        profile = _write_depth_profile(tmp_path / "depth.json")
        return run_cli("estimate", "--stream", stream, "--estimator", "neo",
                       "--depth-profile", profile, "--gt-source", "truth", "--fps", "10",
                       "--out", out)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_no_estimator_starts_a_thread(self, tmp_path, monkeypatch, estimator):
        stream, profile = self.five_frames(tmp_path)
        runner = getattr(RUNNERS[estimator], "func", RUNNERS[estimator])  # unwrap a partial
        original = runner.run_frame
        counts = []

        def run_frame(self, ann, depth_map, records):
            counts.append(threading.active_count())
            return original(self, ann, depth_map, records)

        monkeypatch.setattr(runner, "run_frame", run_frame)
        before = threading.active_count()
        assert run_cli("estimate", "--stream", stream, "--estimator", estimator,
                       "--camera-profile", "builtin:tello", "--regression-profile", "builtin:P1",
                       "--depth-profile", profile, "--gt-source", "truth",
                       "--out", tmp_path / "est.jsonl") == 0
        assert len(counts) == 5 and set(counts) == {before}

    def test_bad_map_is_reported_before_a_later_bad_line(self, tmp_path, capsys):
        stream, profile = self.five_frames(tmp_path)
        victim = stream.parent / "maps" / "frame_000001.neod"
        victim.write_bytes(b"ZZZZ" + victim.read_bytes()[4:])
        lines = stream.read_text().splitlines(keepends=True)
        lines[2] = "not json\n"
        stream.write_text("".join(lines))
        est = tmp_path / "est.jsonl"
        assert self.neo_norc(stream, profile, est) == 2
        err = capsys.readouterr().err
        assert f"error: {victim}: bad magic b'ZZZZ'" in err
        assert "frames.jsonl:3" not in err
        assert not est.exists() and list(tmp_path.glob("*.tmp")) == []

    def test_missing_map_gives_one_error_event_and_leaves_other_frames_alone(self, tmp_path):
        stream, profile = self.five_frames(tmp_path)
        clean = tmp_path / "clean.jsonl"
        assert self.neo_norc(stream, profile, clean) == 0
        victim = stream.parent / "maps" / "frame_000002.neod"
        victim.unlink()
        est = tmp_path / "est.jsonl"
        assert self.neo_norc(stream, profile, est) == 0

        def by_frame(path):
            lines = {}
            for line in path.read_text().splitlines(keepends=True):
                lines.setdefault(json.loads(line)["frame_id"], []).append(line)
            return lines

        want, got = by_frame(clean), by_frame(est)
        assert list(got) == list(want) == [f"frame_{i:06d}" for i in range(5)]
        error = {"event": "error", "reason": f"frame frame_000002: depth map {victim} not found",
                 "frame_id": "frame_000002", "timestamp_s": 0.4}
        assert got.pop("frame_000002") == [canonical_jsonl_line(error)]
        del want["frame_000002"]
        assert got == want

    def test_frame_without_a_depth_map_gives_one_error_event(self, tmp_path):
        stream, profile = self.five_frames(tmp_path)
        clean = tmp_path / "clean.jsonl"
        assert self.neo_norc(stream, profile, clean) == 0
        records = read_jsonl(stream)
        del records[2]["depth_map_path"]
        stream.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        est = tmp_path / "est.jsonl"
        assert self.neo_norc(stream, profile, est) == 0
        want = clean.read_text().splitlines(keepends=True)
        got = est.read_text().splitlines(keepends=True)
        error = {"event": "error", "reason": "frame frame_000002: no depth map recorded",
                 "frame_id": "frame_000002", "timestamp_s": 0.4}
        assert got[2] == canonical_jsonl_line(error)
        assert got[:2] + got[3:] == want[:2] + want[3:]

    def test_repeated_frame_id_leaves_no_output(self, tmp_path, capsys):
        stream, profile = self.five_frames(tmp_path)
        lines = stream.read_text().splitlines(keepends=True)
        record = json.loads(lines[3])
        record["frame_id"] = "frame_000000"
        lines[3] = json.dumps(record) + "\n"
        stream.write_text("".join(lines))
        est = tmp_path / "est.jsonl"
        assert self.neo_norc(stream, profile, est) == 2
        assert f"{stream}:4: repeated frame_id 'frame_000000'" in capsys.readouterr().err
        assert not est.exists() and list(tmp_path.glob("*.tmp")) == []

    def test_traced_functions_run_on_the_main_thread(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", out,
                       "--seed", 5) == 0
        stream = out / "frames.jsonl"
        threads = {}

        def on_thread(name, fn):
            def call(*args, **kwargs):
                threads.setdefault(name, []).append(threading.current_thread())
                return fn(*args, **kwargs)
            return call

        read_paths = []

        def read_depth_map(path, read=on_thread("read_depth_map", neod.read_depth_map)):
            read_paths.append(path)
            return read(path)

        monkeypatch.setattr(neod, "read_depth_map", read_depth_map)
        monkeypatch.setattr(DepthMap, "__init__", on_thread("DepthMap", DepthMap.__init__))
        monkeypatch.setattr(depth, "normalize_region", on_thread("normalize_region",
                                                                 depth.normalize_region))
        monkeypatch.setattr(depth, "step", on_thread("step", depth.step))
        assert self.neo_run(tmp_path, stream, tmp_path / "est.jsonl") == 0
        frames = read_jsonl(stream)
        assert sorted(threads) == ["DepthMap", "normalize_region", "read_depth_map", "step"]
        assert all(len(calls) == len(frames) for calls in threads.values())
        main_thread = threading.main_thread()
        assert all(t is main_thread for calls in threads.values() for t in calls)
        assert read_paths == [out / f["depth_map_path"] for f in frames]


@pytest.mark.parametrize("flag, value, message", [
    ("--window", "100000000000000000000", "detection window 100000000000000000000 is longer"),
    ("--train-window-s", "1e300", "train window 1e+300 s at 30 fps holds more samples"),
    ("--train-window-s", "1e308", "train window 1e+308 s at 30 fps holds more samples"),
    ("--train-window-s", "inf", "train window inf s at 30 fps holds more samples"),
    ("--fps", "1" + "0" * 320, "fps must be between 1 and 9223372036854775807"),
    ("--window", "0", "detection window must be >= 1, got 0"),
    ("--train-window-s", "0", "train window must be positive, got 0.0"),
])
def test_window_no_deque_can_hold_exits_2(tmp_path, capsys, flag, value, message):
    stream, profile = TestEstimateMapReads.five_frames(tmp_path)
    est = tmp_path / "est.jsonl"
    assert run_cli("estimate", "--stream", stream, "--estimator", "neo", "--depth-profile",
                   profile, "--gt-source", "truth", "--out", est, flag, value) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not est.exists()


def test_every_estimator_has_a_runner():
    parser = build_parser()
    profiles = ("--camera-profile", "builtin:tello", "--regression-profile", "builtin:P1",
                "--depth-profile", "builtin:P1")
    assert set(ESTIMATORS) == set(RUNNERS)
    for name in ESTIMATORS:
        args = parser.parse_args(["estimate", "--stream", "frames.jsonl", "--estimator", name,
                                  "--out", "est.jsonl", *profiles])
        runner = RUNNERS[name](name, args)
        assert isinstance(runner.needs_depth_map, bool) and callable(runner.run_frame)


def test_estimate_defaults_equal_the_library_defaults(tmp_path):
    """The benchmark replays ``estimate neo`` through the library with
    ``RecalibrationConfig`` defaults and ``NormalizationMethod`` defaults but
    the profile's percentile; a default calibration records exactly that."""
    args = build_parser().parse_args(["estimate", "--stream", "frames.jsonl", "--estimator",
                                      "neo", "--out", "est.jsonl"])
    config = depth.RecalibrationConfig()
    assert (args.window, args.train_window_s, args.fps, args.alpha) == (
        config.w, config.w_prime_s, config.fps, config.alpha)
    assert args.tau_cm / 100 == config.tau_m
    assert args.norm_method is None  # the profile's method
    method = depth.NormalizationMethod()
    cal = build_parser().parse_args(["calibrate", "depth", "--stream", "frames.jsonl",
                                     "--out", "depth.json"])
    assert (cal.norm_method, cal.lt_percentile, cal.lt_take) == (
        method.kind, method.lt_percentile, method.lt_take)
    defaults = DepthProfile(vip_id="", m=6.0, s=1.0)
    assert (defaults.norm_method, defaults.lt_percentile, defaults.lt_take) == (
        method.kind, method.lt_percentile, method.lt_take)
    assert defaults.method == method  # so also the disc diameter and the center weight
    s1, s2 = synth_calibration_streams(tmp_path)
    assert run_cli("calibrate", "depth", "--stream", s1, "--stream", s2,
                   "--out", tmp_path / "depth.json") == 0
    profile = load_depth_profile(tmp_path / "depth.json")
    assert depth.NormalizationMethod(lt_percentile=profile.lt_percentile) == profile.method


def _options(*command):
    """The option strings of the subcommand ``command`` names, such as ("calibrate", "depth")."""
    parser = build_parser()
    for name in command:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}


def test_estimate_and_calibrate_depth_take_exactly_these_options():
    """Every knob is pinned here, so a new one shows up in the diff."""
    assert _options("estimate") == {
        "--stream", "--estimator", "--out", "--camera-profile", "--regression-profile",
        "--depth-profile", "--height-table", "--gt-source", "--alpha", "--tau-cm", "--window",
        "--train-window-s", "--fps", "--norm-method", "--seed",
    }
    assert _options("calibrate", "depth") == {
        "--stream", "--pair", "--candidate-pairs", "--vip-id", "--norm-method",
        "--lt-percentile", "--lt-take", "--smooth-window", "--out",
    }


@pytest.mark.parametrize("seed", ["-1", "1.5"])
@pytest.mark.parametrize("command", ["synth", "estimate"])
def test_a_bad_seed_exits_2_naming_the_flag(tmp_path, capsys, command, seed):
    out = tmp_path / "run"
    argv = {
        "synth": ("synth", "--scene", SCENES / "calib_2p5m.json", "--out-dir", out),
        "estimate": ("estimate", "--stream", tmp_path / "frames.jsonl", "--estimator", "neo",
                     "--depth-profile", "builtin:P1", "--gt-source", "truth", "--out", out),
    }[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--seed", seed)
    assert exc.value.code == 2
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in (
        capsys.readouterr().err)
    assert not out.exists()


class TestEvaluate:
    def test_perfect_estimates_give_zero_summary(self, tmp_path):
        # object heights equal to the expected class heights make the
        # pinhole estimator exact on every detection
        scene = {
            "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
            "depth_resolution": [64, 40],
            "fps": 2,
            "duration_s": 5,
            "objects": [
                {"class_label": "vip", "height_m": 0.63, "distance_m": 3.0, "is_vip": True},
                {"class_label": "bystander", "height_m": 1.65, "distance_m": 4.0,
                 "lateral_offset_m": 1.0},
                {"class_label": "car", "height_m": 1.70, "distance_m": 4.6,
                 "lateral_offset_m": -1.2},
            ],
            "law": {"m_true": 6.0, "s_true": 1.0},
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / "run"
        run_cli("synth", "--scene", scene_path, "--out-dir", out, "--seed", 1)
        est = tmp_path / "est.jsonl"
        run_cli("estimate", "--stream", out / "frames.jsonl",
                "--estimator", "geometric", "--camera-profile", "builtin:tello",
                "--out", est)
        metrics_dir = tmp_path / "metrics"
        assert run_cli("evaluate", "--estimates", est, "--truth", out / "frames.jsonl",
                       "--out-dir", metrics_dir) == 0
        rows = list(csv.DictReader((metrics_dir / "summary.csv").open()))
        overall = [r for r in rows if r["class"] == "overall"][0]
        assert abs(float(overall["median_cm"])) < 1e-6
        assert abs(float(overall["mape_pct"])) < 1e-6
        quad_rows = list(csv.reader((metrics_dir / "quadrant.csv").open()))
        assert len(quad_rows) == 1 + 8

    def test_join_failures_counted_not_fatal(self, tmp_path, capsys):
        est = tmp_path / "est.jsonl"
        with open(est, "w") as fh:
            fh.write(canonical_jsonl_line({
                "frame_id": "f0", "timestamp_s": 0.0, "class_label": "car",
                "is_vip": False, "distance_m": 3.0, "flags": [],
            }))
            fh.write(canonical_jsonl_line({
                "frame_id": "f0", "timestamp_s": 0.0, "class_label": "dog",
                "is_vip": False, "distance_m": 1.0, "flags": [],
            }))
        truth = tmp_path / "truth.jsonl"
        ann = {"frame_id": "f0", "timestamp_s": 0.0, "detections": [],
               "ground_truth": {"car": 3.2}}
        truth.write_text(json.dumps(ann) + "\n")
        assert run_cli("evaluate", "--estimates", est, "--truth", truth,
                       "--out-dir", tmp_path / "m") == 0
        printed = capsys.readouterr().out
        assert "joined=1" in printed
        assert "unmatched=1" in printed

    def test_a_run_that_joins_nothing_leaves_no_earlier_table(self, tmp_path, capsys):
        est = tmp_path / "est.jsonl"
        est.write_text(canonical_jsonl_line({
            "frame_id": "f0", "timestamp_s": 0.0, "class_label": "car",
            "is_vip": False, "distance_m": 3.0, "flags": [],
        }))
        truth = tmp_path / "truth.jsonl"
        ann = {"frame_id": "f0", "timestamp_s": 0.0, "detections": [],
               "ground_truth": {"car": 3.2}}
        truth.write_text(json.dumps(ann) + "\n")
        out = tmp_path / "m"
        assert run_cli("evaluate", "--estimates", est, "--truth", truth, "--out-dir", out) == 0
        tables = {"records.csv", "summary.csv", "quadrant.csv"}
        assert {p.name for p in out.iterdir()} == tables
        capsys.readouterr()
        del ann["ground_truth"]
        truth.write_text(json.dumps(ann) + "\n")
        assert run_cli("evaluate", "--estimates", est, "--truth", truth, "--out-dir", out) == 0
        assert capsys.readouterr().out == (
            f"metrics -> {out}  joined=0 unmatched=1 beyond_8m=0 missed=0\n")
        assert not list(out.iterdir())

    def test_truths_no_estimate_names_are_counted_missed(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("synth", "--scene", SCENES / "static_mixed.json",
                       "--out-dir", out, "--seed", 1) == 0
        stream = out / "frames.jsonl"
        frames = read_jsonl(stream)
        # The detector missed frame 3's VIP; its truth stays in the stream.
        frames[2]["detections"] = [d for d in frames[2]["detections"] if not d["is_vip"]]
        stream.write_text("".join(canonical_jsonl_line(f) for f in frames))
        est = tmp_path / "est.jsonl"
        assert run_cli("estimate", "--stream", stream, "--estimator", "geometric",
                       "--camera-profile", "builtin:tello", "--out", est) == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--estimates", est, "--truth", stream,
                       "--out-dir", tmp_path / "m") == 0
        printed = capsys.readouterr().out
        assert "joined=29 unmatched=0 " in printed
        assert printed.rstrip().endswith(" missed=1")

    @pytest.mark.parametrize("bad", ['"x"', "[3.0]", "NaN", "Infinity"])
    def test_malformed_distance_exits_2(self, tmp_path, capsys, bad):
        est = tmp_path / "est.jsonl"
        good = canonical_jsonl_line({
            "frame_id": "f0", "timestamp_s": 0.0, "class_label": "car",
            "is_vip": False, "distance_m": 3.0, "flags": [],
        })
        est.write_text(good + good.replace("3.0,", f"{bad},"))
        truth = tmp_path / "truth.jsonl"
        truth.write_text(json.dumps({
            "frame_id": "f0", "timestamp_s": 0.0, "detections": [],
            "ground_truth": {"car": 3.2},
        }) + "\n")
        assert run_cli("evaluate", "--estimates", est, "--truth", truth,
                       "--out-dir", tmp_path / "m") == 2
        assert f"{est}:2: malformed record" in capsys.readouterr().err

    def test_far_records_excluded_by_policy(self, tmp_path, capsys):
        est = tmp_path / "est.jsonl"
        est.write_text(canonical_jsonl_line({
            "frame_id": "f0", "timestamp_s": 0.0, "class_label": "car",
            "is_vip": False, "distance_m": 9.0, "flags": [],
        }))
        truth = tmp_path / "truth.jsonl"
        truth.write_text(json.dumps({
            "frame_id": "f0", "timestamp_s": 0.0, "detections": [],
            "ground_truth": {"car": 12.0},
        }) + "\n")
        assert run_cli("evaluate", "--estimates", est, "--truth", truth,
                       "--out-dir", tmp_path / "m") == 0
        assert "beyond_8m=1" in capsys.readouterr().out

    @pytest.mark.parametrize("near", ["9", "8"])
    def test_near_threshold_not_below_far_limit_exits_2(self, tmp_path, capsys, near):
        est = tmp_path / "est.jsonl"
        est.write_text("")
        truth = tmp_path / "truth.jsonl"
        truth.write_text("")
        out = tmp_path / "m"
        assert run_cli("evaluate", "--estimates", est, "--truth", truth, "--out-dir", out,
                       "--near-threshold-m", near, "--far-limit-m", "8") == 2
        assert ("error: near threshold must be below far limit"
                in capsys.readouterr().err)
        assert not out.exists()


class TestFullRunReproducibility:
    def full_run(self, base: Path, seed=17):
        base.mkdir()
        s1, s2 = synth_calibration_streams(base, seed=seed)
        depth_profile = base / "depth.json"
        run_cli("calibrate", "depth", "--stream", s1, "--stream", s2,
                "--pair", "2.5,4.0", "--vip-id", "S1", "--out", depth_profile)
        drift = base / "drift"
        run_cli("synth", "--scene", SCENES / "drift_run.json", "--out-dir", drift,
                "--seed", seed)
        est = base / "est.jsonl"
        run_cli("estimate", "--stream", drift / "frames.jsonl", "--estimator", "neo",
                "--depth-profile", depth_profile, "--gt-source", "truth",
                "--fps", "10", "--seed", seed, "--out", est)
        metrics_dir = base / "metrics"
        run_cli("evaluate", "--estimates", est, "--truth", drift / "frames.jsonl",
                "--out-dir", metrics_dir)
        return {
            "profile": depth_profile.read_bytes(),
            "est": est.read_bytes(),
            "records": (metrics_dir / "records.csv").read_bytes(),
            "summary": (metrics_dir / "summary.csv").read_bytes(),
            "quadrant": (metrics_dir / "quadrant.csv").read_bytes(),
        }

    def test_two_runs_byte_identical(self, tmp_path):
        a = self.full_run(tmp_path / "a")
        b = self.full_run(tmp_path / "b")
        assert a == b


class TestModuleInvocation:
    def test_python_dash_m_entrypoint(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "monorange", "synth",
             "--scene", str(SCENES / "calib_2p5m.json"),
             "--out-dir", str(tmp_path / "out"), "--seed", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "out" / "frames.jsonl").exists()
