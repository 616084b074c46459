import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monorange.common import DomainError, EmptyInputError
from monorange.geometry import (
    BoundingBox,
    CameraIntrinsics,
    Detection,
    HeightTable,
    estimate_distance_geometric,
    estimate_focal_length,
    pixel_window,
    scale_bbox,
)

INTR = CameraIntrinsics(focal_length_px=1592.0, image_width_px=1280, image_height_px=720)


class TestEstimateDistanceGeometric:
    def test_vest_at_three_meters(self):
        bbox = BoundingBox(100, 0, 200, 334.32, 1280, 720)
        assert estimate_distance_geometric(bbox, 0.63, INTR) == pytest.approx(3.0, abs=1e-12)

    def test_box_height_equal_to_focal_length(self):
        intr = CameraIntrinsics(500.0, 1280, 720)
        bbox = BoundingBox(0, 0, 10, 500, 1280, 720)
        assert estimate_distance_geometric(bbox, 1.0, intr) == 1.0

    def test_bystander_at_four_meters(self):
        bbox = BoundingBox(0, 0, 100, 656.7, 1280, 720)
        assert estimate_distance_geometric(bbox, 1.65, INTR) == pytest.approx(4.0, abs=1e-12)

    def test_non_positive_height_rejected(self):
        bbox = BoundingBox(0, 0, 10, 20, 1280, 720)
        with pytest.raises(DomainError):
            estimate_distance_geometric(bbox, 0.0, INTR)

    @given(
        h_o=st.floats(min_value=0.1, max_value=5.0),
        h_i=st.floats(min_value=1.0, max_value=700.0),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_homogeneity(self, h_o, h_i, scale):
        bbox = BoundingBox(0, 0, 10, h_i, 1280, 720)
        scaled_box = BoundingBox(0, 0, 10, h_i * scale, 1280, 10000)
        base = estimate_distance_geometric(bbox, h_o, INTR)
        same = estimate_distance_geometric(scaled_box, h_o * scale, INTR)
        assert same == pytest.approx(base, rel=1e-12)
        doubled_f = CameraIntrinsics(2 * INTR.focal_length_px, 1280, 720)
        assert estimate_distance_geometric(bbox, h_o, doubled_f) == pytest.approx(
            2 * base, rel=1e-12
        )


def _project_box(height_m, distance_m, intrinsics, width_px=10.0):
    """Box centered on the optical axis whose edges come from the pinhole formula:
    a length ``l`` at distance ``z`` spans ``f * l / z`` pixels."""
    half_px = intrinsics.focal_length_px * (height_m / 2) / distance_m
    center_y = intrinsics.image_height_px / 2.0
    return BoundingBox(0.0, center_y - half_px, width_px, center_y + half_px,
                       intrinsics.image_width_px, intrinsics.image_height_px)


class TestProjectionRoundTrip:
    # tall virtual frame: a 2 m object at 1 m spans ~3200 px
    TALL = CameraIntrinsics(focal_length_px=1592.0, image_width_px=1280,
                            image_height_px=65536)

    @given(
        height=st.floats(min_value=0.5, max_value=2.0),
        distance=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_project_then_invert_recovers_distance(self, height, distance):
        bbox = _project_box(height, distance, self.TALL)
        recovered = estimate_distance_geometric(bbox, height, self.TALL)
        assert abs(recovered - distance) < 1e-9


class TestEstimateFocalLength:
    def test_single_sample(self):
        bbox = BoundingBox(0, 0, 10, 334.32, 1280, 720)
        estimate = estimate_focal_length([(bbox, 0.63, 3.0)])
        assert estimate.median == pytest.approx(1592.0, abs=1e-9)
        assert estimate.q1 == estimate.median == estimate.q3

    def test_identical_samples_collapse_quartiles(self):
        bbox = BoundingBox(0, 0, 10, 334.32, 1280, 720)
        estimate = estimate_focal_length([(bbox, 0.63, 3.0)] * 50)
        assert estimate.q1 == estimate.median == estimate.q3

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            estimate_focal_length([])

    def test_quartiles_interpolate_linearly(self):
        # heights chosen so the per-sample focal lengths are 1, 2, 3, 4
        samples = [
            (BoundingBox(0, 0, 10, float(f), 1280, 720), 1.0, 1.0) for f in (1, 2, 3, 4)
        ]
        estimate = estimate_focal_length(samples)
        assert estimate.q1 == pytest.approx(1.75)
        assert estimate.median == pytest.approx(2.5)
        assert estimate.q3 == pytest.approx(3.25)

    def test_noiseless_synthetic_recovery_is_exact(self):
        # distances and heights on powers of two keep every operation exact
        rng = np.random.default_rng(7)
        samples = []
        for _ in range(200):
            d = float(rng.choice([1.0, 2.0, 4.0, 8.0]))
            h_o = float(rng.choice([0.5, 1.0, 2.0]))
            h_i = 1592.0 * h_o / d
            samples.append((BoundingBox(0, 0, 10, h_i, 1280, 16384), h_o, d))
        estimate = estimate_focal_length(samples)
        assert estimate.median == 1592.0

    def test_median_stable_under_pixel_jitter(self):
        rng = np.random.default_rng(11)
        d, h_o = 3.0, 0.63
        h_i = 1592.0 * h_o / d
        samples = []
        for _ in range(1500):
            jitter = rng.uniform(-1.0, 1.0)
            samples.append((BoundingBox(0, 0, 10, h_i + jitter, 1280, 720), h_o, d))
        estimate = estimate_focal_length(samples)
        assert abs(estimate.median - 1592.0) <= 1.0


class TestScaleBbox:
    def test_downscale_example(self):
        bbox = BoundingBox(100, 90, 300, 270, 1280, 720)
        scaled = scale_bbox(bbox, 1024, 320)
        assert (scaled.x_min, scaled.y_min, scaled.x_max, scaled.y_max) == (80, 40, 240, 120)
        assert (scaled.resolution_w, scaled.resolution_h) == (1024, 320)

    def test_identity_when_target_equals_source(self):
        bbox = BoundingBox(12.5, 34.25, 900.75, 600.5, 1280, 720)
        scaled = scale_bbox(bbox, 1280, 720)
        assert scaled == bbox

    def test_full_frame_maps_to_full_target(self):
        bbox = BoundingBox(0, 0, 1280, 720, 1280, 720)
        scaled = scale_bbox(bbox, 1024, 320)
        assert (scaled.x_min, scaled.y_min, scaled.x_max, scaled.y_max) == (0, 0, 1024, 320)

    @given(
        x0=st.floats(min_value=0, max_value=600),
        y0=st.floats(min_value=0, max_value=300),
        w=st.floats(min_value=1, max_value=600),
        h=st.floats(min_value=1, max_value=400),
        tw=st.integers(min_value=8, max_value=4096),
        th=st.integers(min_value=8, max_value=4096),
    )
    def test_relative_geometry_preserved(self, x0, y0, w, h, tw, th):
        bbox = BoundingBox(x0, y0, x0 + w, y0 + h, 1280, 720)
        scaled = scale_bbox(bbox, tw, th)
        assert scaled.width_px / tw == pytest.approx(bbox.width_px / 1280, rel=1e-9)
        assert scaled.height_px / th == pytest.approx(bbox.height_px / 720, rel=1e-9)


def _assert_window_inside(bbox):
    r0, r1, c0, c1 = pixel_window(bbox)
    assert 0 <= r0 < r1 <= bbox.resolution_h
    assert 0 <= c0 < c1 <= bbox.resolution_w
    assert bbox.height_px > 0 and bbox.width_px > 0


SUBNORMAL = 5e-324  # the smallest positive float
HUGE_RES = int(1e308)  # the whole number 1e308 is, exactly

# Whole-number resolutions, from one pixel to 1e308.
RESOLUTIONS = st.one_of(st.integers(1, 4096), st.integers(1, HUGE_RES))


def _extent(data, res: int) -> tuple[float, float]:
    """An extent near ``[0, res]``: adjacent and equal floats and subnormal ends included."""
    top = float(res)
    lo = data.draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=-SUBNORMAL * 2**20, max_value=SUBNORMAL * 2**20),
        st.floats(min_value=0.0, max_value=top),
    ))
    hi = data.draw(st.one_of(
        st.just(math.nextafter(lo, math.inf)),
        st.just(lo),
        st.floats(min_value=0.0, max_value=top),
        st.just(top),
        st.just(math.nextafter(top, math.inf)),
    ))
    return lo, hi


class TestBoxInvariant:
    """A BoundingBox alone keeps its pixel window non-empty and inside its resolution,
    and its pixel height positive, so no caller checks either again."""

    @pytest.mark.parametrize("x_min, x_max, y_min, y_max, res", [
        (0.0, SUBNORMAL, 0.0, SUBNORMAL, 1),
        (SUBNORMAL, 2 * SUBNORMAL, 1.0, math.nextafter(1.0, 2.0), 2),
        (math.nextafter(1280.0, 0.0), 1280.0, 719.0, math.nextafter(719.0, 720.0), 1280),
        (487.5602200032237, 487.5602200032238, 0.0, 1.0, 1280),
        (math.nextafter(1e308, 0.0), 1e308, 0.0, 1e308, HUGE_RES),
    ])
    def test_edge_boxes(self, x_min, x_max, y_min, y_max, res):
        _assert_window_inside(BoundingBox(x_min, y_min, x_max, y_max, res, res))

    @settings(max_examples=400)
    @given(data=st.data())
    def test_every_box_it_accepts(self, data):
        res_w, res_h = data.draw(RESOLUTIONS), data.draw(RESOLUTIONS)
        (x_min, x_max), (y_min, y_max) = _extent(data, res_w), _extent(data, res_h)
        if not (0 <= x_min < x_max <= res_w and 0 <= y_min < y_max <= res_h):
            with pytest.raises(DomainError):
                BoundingBox(x_min, y_min, x_max, y_max, res_w, res_h)
            return
        _assert_window_inside(BoundingBox(x_min, y_min, x_max, y_max, res_w, res_h))


class TestTypesValidation:
    def test_bbox_invariants(self):
        with pytest.raises(DomainError):
            BoundingBox(10, 0, 5, 20, 1280, 720)
        with pytest.raises(DomainError):
            BoundingBox(0, 0, 10, 721, 1280, 720)
        with pytest.raises(DomainError):
            BoundingBox(-1, 0, 10, 20, 1280, 720)

    def test_detection_confidence_bounds(self):
        bbox = BoundingBox(0, 0, 10, 20, 1280, 720)
        with pytest.raises(DomainError):
            Detection(bbox, "car", 1.5)

    def test_height_table(self):
        table = HeightTable(expected_m={"car": 1.7}, actual_m={"car": (1.56, 1.38)})
        assert table.expected("car") == 1.7
        assert table.actual("car") == 1.56
        with pytest.raises(Exception):
            table.expected("mailbox")
