import json

import pytest

from monorange.common import DomainError, FormatError, MissingDataError
from monorange.profiles import (
    BUILTIN_DEPTH,
    BUILTIN_REGRESSION,
    DEFAULT_HEIGHTS,
    CameraProfile,
    DepthProfile,
    RegressionProfile,
    load_camera_profile,
    load_depth_profile,
    load_height_table,
    load_regression_profile,
    save_height_table,
    save_profile,
)


class TestRoundTrips:
    def test_camera_profile_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_profile(a, CameraProfile(1592.0, 1280, 720, 82.6))
        save_profile(b, load_camera_profile(a))
        assert a.read_bytes() == b.read_bytes()

    def test_regression_profile_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_profile(a, RegressionProfile("P1", "three", -2.42, -1.29, 0.0043))
        save_profile(b, load_regression_profile(a))
        assert a.read_bytes() == b.read_bytes()

    def test_depth_profile_bytes_stable_with_cm_unit(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_profile(a, BUILTIN_DEPTH["P1"])
        save_profile(b, load_depth_profile(a))
        assert a.read_bytes() == b.read_bytes()
        # the stored unit survives the round trip untouched
        assert json.loads(a.read_text())["unit"] == "cm"

    def test_height_table_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_height_table(a, DEFAULT_HEIGHTS)
        save_height_table(b, load_height_table(a))
        assert a.read_bytes() == b.read_bytes()


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
            assert reg.to_model().calibrated_for == name
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
        "loader, text",
        [
            (load_camera_profile,
             '{"focal_length_px": NaN, "image_w": 1280, "image_h": 720}'),
            (load_regression_profile,
             '{"vip_id": "P1", "mode": "three", "a": NaN, "b": -1.29, "c": 0.0043}'),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": -Infinity}'),
            (load_height_table, '{"car": {"expected_m": 1.7, "actual_m": [Infinity]}}'),
            (load_depth_profile, '{"vip_id": "P1", "m": 6.0, "s": 1e999}'),
        ],
        ids=["camera", "regression", "depth", "height_table", "overflow"],
    )
    def test_non_finite_values_rejected(self, tmp_path, loader, text):
        path = tmp_path / "profile.json"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"{path}: invalid JSON .*non-finite"):
            loader(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"vip_id": "P1"}))
        with pytest.raises(FormatError):
            load_depth_profile(path)
