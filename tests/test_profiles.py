import json

import pytest

from monorange.cli import main
from monorange.common import DomainError, FormatError, MissingDataError
from monorange.geometry import CameraIntrinsics
from monorange.profiles import (
    BUILTIN_DEPTH,
    BUILTIN_REGRESSION,
    DEFAULT_HEIGHTS,
    DepthProfile,
    load_camera_profile,
    load_depth_profile,
    load_height_table,
    load_regression_profile,
    save_profile,
)
from monorange.regression import RegressionModel


class TestRoundTrips:
    def test_camera_profile_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_profile(a, CameraIntrinsics(1592.0, 1280, 720, 82.6))
        save_profile(b, load_camera_profile(a))
        assert a.read_bytes() == b.read_bytes()

    def test_regression_profile_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_profile(a, RegressionModel(-2.42, -1.29, 0.0043, "three", "P1"))
        save_profile(b, load_regression_profile(a))
        assert a.read_bytes() == b.read_bytes()

    def test_depth_profile_bytes_stable_with_cm_unit(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_profile(a, BUILTIN_DEPTH["P1"])
        save_profile(b, load_depth_profile(a))
        assert a.read_bytes() == b.read_bytes()
        # the stored unit survives the round trip untouched
        assert json.loads(a.read_text())["unit"] == "cm"

    @pytest.mark.parametrize("load, payload", [
        (load_depth_profile, {"vip_id": None, "m": 6.0, "s": 1.0}),
        (load_regression_profile, {"vip_id": None, "mode": "three", "a": -2.42, "b": -1.29,
                                   "c": 0.0043}),
    ])
    def test_null_vip_id_loads_as_empty_and_round_trips(self, tmp_path, load, payload):
        source, a, b = tmp_path / "source.json", tmp_path / "a.json", tmp_path / "b.json"
        source.write_text(json.dumps(payload))
        save_profile(a, load(source))
        save_profile(b, load(a))
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["vip_id"] == ""


class TestUnitConversion:
    def test_centimeter_profile_converts_to_meters(self):
        coeffs = BUILTIN_DEPTH["P1"].to_coefficients()
        assert coeffs.m == pytest.approx(11.69)
        assert coeffs.s == pytest.approx(1.242)

    def test_meter_profile_passes_through(self):
        profile = DepthProfile(vip_id="X", m=6.0, s=1.0, unit="m")
        coeffs = profile.to_coefficients()
        assert (coeffs.m, coeffs.s) == (6.0, 1.0)

    def test_unknown_unit_rejected(self):
        with pytest.raises(DomainError):
            DepthProfile(vip_id="X", m=6.0, s=1.0, unit="ft")


class TestBuiltins:
    def test_all_published_profiles_load(self):
        for name in ("P1", "P2", "P3"):
            reg = load_regression_profile(f"builtin:{name}")
            assert reg.calibrated_for == name
            dep = load_depth_profile(f"builtin:{name}")
            assert dep.pair == (2.5, 4.0)
            assert dep.to_coefficients().m != 0

    def test_published_regression_values(self):
        p1 = BUILTIN_REGRESSION["P1"]
        assert (p1.a, p1.b, p1.c) == (-2.42, -1.29, 0.0043)

    def test_reference_camera_focal_length(self):
        camera = load_camera_profile("builtin:tello")
        assert camera.focal_length_px == 1592.0
        assert camera.fov_deg == 82.6

    def test_default_heights(self):
        assert DEFAULT_HEIGHTS.expected("bystander") == 1.65
        assert DEFAULT_HEIGHTS.expected("scooter") == 1.12
        assert DEFAULT_HEIGHTS.expected("bicycle") == 0.97
        assert DEFAULT_HEIGHTS.expected("car") == 1.70
        assert DEFAULT_HEIGHTS.actual("bystander") == 1.75

    def test_unknown_builtin(self):
        with pytest.raises(MissingDataError):
            load_regression_profile("builtin:P9")


class TestErrors:
    def test_missing_file(self):
        with pytest.raises(MissingDataError):
            load_camera_profile("/nonexistent/cam.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_depth_profile(path)

    @pytest.mark.parametrize(
        "loader, text, message",
        [
            (load_camera_profile,
             '{"focal_length_px": NaN, "image_w": 1280, "image_h": 720}',
             "invalid JSON (non-finite number NaN)"),
            (load_regression_profile,
             '{"vip_id": "P1", "mode": "three", "a": NaN, "b": -1.29, "c": 0.0043}',
             "invalid JSON (non-finite number NaN)"),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": -Infinity}',
             "invalid JSON (non-finite number -Infinity)"),
            (load_height_table, '{"car": {"expected_m": 1.7, "actual_m": [Infinity]}}',
             "invalid JSON (non-finite number Infinity)"),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": 1e999}',
             "invalid JSON (non-finite number 1e999)"),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": 1.0, "unit": "km"}',
             "malformed depth profile (unknown unit 'km'; expected 'm' or 'cm')"),
            (load_depth_profile, '{"vip_id": "P1", "m": 0, "s": 1.0}',
             "malformed depth profile (scale coefficient must be finite and nonzero, got 0.0)"),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": 1.0, "lt_percentile": 0}',
             "malformed depth profile (percentile 0.0 outside (0, 100])"),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": 1.0, "lt_take": "up"}',
             "malformed depth profile (lt_take must be 'lowest' or 'highest', got 'up')"),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": 1.0, "norm_method": "foo"}',
             "malformed depth profile (unknown normalization method 'foo')"),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": 1.0, "smooth_window": 0}',
             "malformed depth profile (window must be >= 1, got 0)"),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": 1.0, "pair": [2.5]}',
             "malformed depth profile (pair must hold two positive distances, got [2.5])"),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": 1.0, "pair": [-1, 4]}',
             "malformed depth profile (pair must hold two positive distances, got [-1.0, 4.0])"),
            (load_camera_profile, '{"focal_length_px": -5, "image_w": 1280, "image_h": 720}',
             "malformed camera profile (focal length must be positive, got -5.0)"),
            (load_camera_profile, '{"focal_length_px": 1592.0, "image_w": 0, "image_h": 720}',
             "malformed camera profile (image dimensions must be positive, got 0x720)"),
            (load_regression_profile,
             '{"vip_id": "P1", "mode": "two", "a": -2.42, "b": -1.29, "c": 0.0043}',
             "malformed regression profile (two-feature model must have c == 0)"),
            (load_height_table, '{"car": {"expected_m": -1}}',
             "malformed height table (expected height for 'car' must be positive, got -1.0)"),
            (load_camera_profile, '{"focal_length_px": 1592.0, "image_w": 1280.7, "image_h": 720}',
             "malformed camera profile (image_w 1280.7 is not a whole number)"),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": 1.0, "smooth_window": 3.9}',
             "malformed depth profile (smooth_window 3.9 is not a whole number)"),
            (load_camera_profile,
             '{"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720, "fov_deg": 200}',
             "malformed camera profile "
             "(field of view must be strictly between 0 and 180 degrees, got 200.0)"),
            (load_camera_profile,
             '{"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720, "fov_deg": 0}',
             "malformed camera profile "
             "(field of view must be strictly between 0 and 180 degrees, got 0.0)"),
            (load_depth_profile, "[]", "expected a JSON object"),
            (load_height_table, '{"car": {"expected_m": 1.7, "actual_m": [-1]}}',
             "malformed height table (actual height for 'car' must be positive, got -1.0)"),
            (load_regression_profile,
             '{"vip_id": "P1", "mode": "four", "a": -2.42, "b": -1.29, "c": 0.0043}',
             "malformed regression profile (unknown mode 'four')"),
        ],
        ids=["camera", "regression", "depth", "height_table", "overflow", "depth-unit",
             "depth-zero-slope", "depth-percentile", "depth-tail", "depth-method",
             "depth-window", "depth-short-pair",
             "depth-negative-pair",
             "camera-focal", "camera-width", "regression-mode", "height-table-height",
             "camera-fractional-width", "depth-fractional-window", "camera-wide-fov",
             "camera-zero-fov", "depth-top-level-list", "height-table-actual",
             "regression-unknown-mode"],
    )
    def test_bad_values_name_the_file(self, tmp_path, capsys, loader, text, message):
        path = tmp_path / "profile.json"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            loader(path)
        assert str(info.value) == f"{path}: {message}"
        flag, estimator = {
            load_camera_profile: ("--camera-profile", "geometric"),
            load_regression_profile: ("--regression-profile", "regression"),
            load_depth_profile: ("--depth-profile", "neo_norc"),
            load_height_table: ("--height-table", "geometric"),
        }[loader]
        # the profile is loaded before the stream is opened; of two
        # --camera-profile flags the later one counts
        argv = ["estimate", "--stream", tmp_path / "frames.jsonl", "--estimator", estimator,
                "--camera-profile", "builtin:tello", flag, path, "--out", tmp_path / "est.jsonl"]
        assert main([str(a) for a in argv]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"vip_id": "P1"}))
        with pytest.raises(FormatError):
            load_depth_profile(path)
