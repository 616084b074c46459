import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monorange.common import DegenerateGeometryError, DomainError, linear_quantile
from monorange.depth import (
    CENTER,
    CENTER_RING,
    DISC_CENTER,
    FIVE_POINT_CENTER_WEIGHTED,
    FIVE_POINT_UNIFORM,
    LOW_THRESHOLD,
    MEAN,
    MEDIAN,
    METHOD_KINDS,
    DepthMap,
    NormalizationMethod,
    _float64_sum_is_exact,
    normalize_region,
)
from monorange.geometry import BoundingBox


def region_pixels(scores, bbox):
    """Brute-force enumeration of the box's pixels (oracle-side selection)."""
    c0 = max(0, math.floor(bbox.x_min))
    c1 = min(scores.shape[1], math.ceil(bbox.x_max))
    r0 = max(0, math.floor(bbox.y_min))
    r1 = min(scores.shape[0], math.ceil(bbox.y_max))
    values = []
    for r in range(r0, r1):
        for c in range(c0, c1):
            values.append(float(scores[r, c]))
    return values


def lt_oracle(scores, bbox, percentile):
    """Sort-based low-threshold oracle: mean of the lowest ceil(P%) scores."""
    values = sorted(region_pixels(scores, bbox))
    k = max(1, math.ceil(percentile / 100.0 * len(values)))
    return math.fsum(values[:k]) / k


def reference_normalize(scores, bbox, method):
    """The straightforward float64 formula every method must reproduce exactly.

    Casts the whole box to float64, sorts it in full, averages with
    ``math.fsum`` and measures discs and rings over every pixel of the box.
    """
    c0 = max(0, math.floor(bbox.x_min))
    c1 = min(scores.shape[1], math.ceil(bbox.x_max))
    r0 = max(0, math.floor(bbox.y_min))
    r1 = min(scores.shape[0], math.ceil(bbox.y_max))
    region = scores[r0:r1, c0:c1].astype(np.float64)
    cx, cy = bbox.center

    def pixel(x, y):
        col = min(max(math.floor(x) - c0, 0), region.shape[1] - 1)
        row = min(max(math.floor(y) - r0, 0), region.shape[0] - 1)
        return float(region[row, col])

    kind = method.kind
    if kind == CENTER:
        return pixel(cx, cy)
    if kind in (FIVE_POINT_UNIFORM, FIVE_POINT_CENTER_WEIGHTED):
        w4 = bbox.width_px / 4.0
        h4 = bbox.height_px / 4.0
        values = [
            pixel(cx, cy),
            pixel(bbox.x_min + w4, bbox.y_min + h4),
            pixel(bbox.x_max - w4, bbox.y_min + h4),
            pixel(bbox.x_min + w4, bbox.y_max - h4),
            pixel(bbox.x_max - w4, bbox.y_max - h4),
        ]
        if kind == FIVE_POINT_UNIFORM:
            return math.fsum(values) / 5
        w_c = method.center_weight
        return w_c * values[0] + (1.0 - w_c) * (math.fsum(values[1:]) / 4)
    if kind in (DISC_CENTER, CENTER_RING):
        radius = method.diameter_px / 2.0
        rows = np.arange(r0, r1, dtype=np.float64) + 0.5
        cols = np.arange(c0, c1, dtype=np.float64) + 0.5
        dist = np.hypot(cols[np.newaxis, :] - cx, rows[:, np.newaxis] - cy)
        if kind == DISC_CENTER:
            mask = dist <= radius
        else:
            mask = np.abs(dist - radius) <= 0.5
        picked = region[mask].tolist()
        if not picked:
            raise DegenerateGeometryError("no pixels")
        return math.fsum(picked) / len(picked)
    flat = np.sort(region, axis=None)
    n = flat.size
    if kind == LOW_THRESHOLD:
        k = min(max(math.ceil(method.lt_percentile / 100.0 * n), 1), n)
        tail = flat[:k] if method.lt_take == "lowest" else flat[n - k :]
        return math.fsum(tail.tolist()) / k
    if kind == MEDIAN:
        return linear_quantile(flat, 0.5)
    return math.fsum(flat.tolist()) / n


def assert_matches_reference(dm, bbox, method):
    try:
        expected = reference_normalize(dm.scores, bbox, method)
    except DegenerateGeometryError:
        with pytest.raises(DegenerateGeometryError):
            normalize_region(dm, bbox, method)
        return
    got = normalize_region(dm, bbox, method)
    assert got == expected, (method, bbox)
    assert math.copysign(1.0, got) == math.copysign(1.0, expected), (method, bbox)


def grid_map(width, height):
    """Map whose pixel (r, c) holds r*width + c + 1 (scores 1..w*h)."""
    return DepthMap(np.arange(1, width * height + 1, dtype=np.float32).reshape(height, width))


class TestLowThreshold:
    def test_hundred_pixel_example(self):
        dm = grid_map(10, 10)
        bbox = BoundingBox(0, 0, 10, 10, 10, 10)
        got = normalize_region(dm, bbox, NormalizationMethod(LOW_THRESHOLD, lt_percentile=10))
        assert got == 5.5  # mean of scores 1..10

    def test_matches_oracle_exactly_on_random_maps(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            w, h = rng.integers(2, 40, size=2)
            scores = rng.normal(0, 10, size=(h, w)).astype(np.float32)
            dm = DepthMap(scores)
            x0 = rng.uniform(0, w - 1)
            y0 = rng.uniform(0, h - 1)
            x1 = rng.uniform(x0 + 0.5, w)
            y1 = rng.uniform(y0 + 0.5, h)
            bbox = BoundingBox(x0, y0, x1, y1, int(w), int(h))
            pct = float(rng.uniform(1, 100))
            method = NormalizationMethod(LOW_THRESHOLD, lt_percentile=pct)
            assert normalize_region(dm, bbox, method) == lt_oracle(dm.scores, bbox, pct)

    def test_highest_tail_variant(self):
        dm = grid_map(10, 10)
        bbox = BoundingBox(0, 0, 10, 10, 10, 10)
        method = NormalizationMethod(LOW_THRESHOLD, lt_percentile=10, lt_take="highest")
        assert normalize_region(dm, bbox, method) == 95.5  # mean of 91..100


def _wide_range(rng, shape):
    """Magnitudes spread over 2**-120 .. 2**120: sums need the fsum fallback."""
    signs = rng.choice([-1.0, 1.0], size=shape)
    return signs * np.exp2(rng.uniform(-120, 120, size=shape))


def _subnormal(rng, shape):
    """Subnormal float32 values with a few zeros of both signs and tiny normals."""
    values = rng.integers(-(2**23), 2**23, size=shape) * 2.0**-149
    values[rng.random(shape) < 0.1] = rng.choice([0.0, -0.0, 2.0**-120, -(2.0**-126)])
    return values


def _signed_zeros(rng, shape):
    """Ties everywhere: zeros of both signs and a few small integers."""
    return rng.choice([-0.0, 0.0, -0.0, 0.0, -1.0, 1.0, 2.5], size=shape)


def _negative(rng, shape):
    return rng.normal(-40.0, 15.0, size=shape)


def _patches(rng, shape):
    """Piecewise-constant rectangles, like noiseless synthetic objects."""
    values = np.full(shape, rng.normal(), dtype=np.float64)
    for _ in range(4):
        r0, c0 = rng.integers(0, shape[0]), rng.integers(0, shape[1])
        r1, c1 = rng.integers(r0 + 1, shape[0] + 1), rng.integers(c0 + 1, shape[1] + 1)
        values[r0:r1, c0:c1] = rng.normal()
    return values


def _normal(rng, shape):
    return rng.normal(0.33, 0.01, size=shape)


def _positive(rng, shape):
    """Strictly positive scores, like real depth maps: the int32 selection path."""
    return rng.uniform(2.0**-10, 60.0, size=shape)


def _positive_with_zeros(rng, shape):
    """Positive scores, a third of them +0.0, so low tails are often all zero."""
    return np.where(rng.random(shape) < 0.3, 0.0, rng.uniform(0.01, 5.0, size=shape))


def _positive_subnormal(rng, shape):
    """Non-negative subnormals with some +0.0 and tiny normals."""
    values = rng.integers(0, 2**23, size=shape) * 2.0**-149
    values[rng.random(shape) < 0.1] = rng.choice([0.0, 2.0**-126, 2.0**-120])
    return values


def _one_sign_bit(rng, shape):
    """Positive scores but one pixel with its sign bit set: the float fallback."""
    values = rng.uniform(0.5, 9.0, size=shape)
    values[rng.integers(shape[0]), rng.integers(shape[1])] = rng.choice([-0.0, -3.0])
    return values


def _all_negative(rng, shape):
    """Every score negative: int32 order would run backwards."""
    return -rng.uniform(2.0**-10, 60.0, size=shape)


def _one_sign_wide_range(rng, shape):
    """One sign per map over 2**-120 .. 2**120: sums must still reach fsum."""
    return rng.choice([-1.0, 1.0]) * np.exp2(rng.uniform(-120, 120, size=shape))


def _random_box(rng, w, h):
    """A box that touches the map border on a random subset of its sides."""
    x0 = 0.0 if rng.random() < 0.3 else float(rng.uniform(0, w - 1))
    y0 = 0.0 if rng.random() < 0.3 else float(rng.uniform(0, h - 1))
    x1 = float(w) if rng.random() < 0.3 else float(rng.uniform(x0 + 0.5, w))
    y1 = float(h) if rng.random() < 0.3 else float(rng.uniform(y0 + 0.5, h))
    return BoundingBox(x0, y0, x1, y1, w, h)


def _random_method(rng, kind):
    return NormalizationMethod(
        kind,
        diameter_px=int(rng.integers(1, 60)),
        lt_percentile=float(rng.choice([rng.uniform(0.5, 100), 10.0, 50.0, 100.0])),
        center_weight=float(rng.uniform(0, 1)),
        lt_take=str(rng.choice(["lowest", "highest"])),
    )


VALUE_KINDS = (
    _normal,
    _negative,
    _patches,
    _wide_range,
    _subnormal,
    _signed_zeros,
    _positive,
    _positive_with_zeros,
    _positive_subnormal,
    _one_sign_bit,
    _all_negative,
    _one_sign_wide_range,
)


class TestExactAgainstReference:
    """Every method equals the full-sort, fsum, full-box reference bit for bit."""

    @pytest.mark.parametrize("values", VALUE_KINDS)
    @pytest.mark.parametrize("kind", METHOD_KINDS)
    def test_random_maps(self, values, kind):
        rng = np.random.default_rng([VALUE_KINDS.index(values), METHOD_KINDS.index(kind)])
        for _ in range(40):
            w, h = (int(v) for v in rng.integers(1, 48, size=2))
            dm = DepthMap(values(rng, (h, w)).astype(np.float32))
            assert_matches_reference(dm, _random_box(rng, w, h), _random_method(rng, kind))

    @pytest.mark.parametrize("kind", (DISC_CENTER, CENTER_RING))
    def test_disc_and_ring_clipped_by_box_and_border(self, kind):
        rng = np.random.default_rng(5)
        dm = DepthMap(rng.normal(0, 5, size=(90, 120)).astype(np.float32))
        boxes = [
            BoundingBox(0, 0, 13.5, 70.25, 120, 90),  # narrow box on the left border
            BoundingBox(100.75, 60.5, 120, 90, 120, 90),  # bottom-right corner
            BoundingBox(30.2, 0, 95.9, 11.1, 120, 90),  # flat box on the top border
            BoundingBox(0, 0, 120, 90, 120, 90),  # the whole map
        ]
        for bbox in boxes:
            for diameter in (1, 2, 7, 20, 41, 64, 150):
                assert_matches_reference(
                    dm, bbox, NormalizationMethod(kind, diameter_px=diameter)
                )

    @pytest.mark.parametrize("kind", (MEAN, LOW_THRESHOLD))
    def test_cancellation_float64_would_lose(self, kind):
        # 2**40 + 2**-20 - 2**40 is 0.0 in float64 but exactly 2**-20
        scores = np.array([[2.0**40, 2.0**-20, -(2.0**40)]], dtype=np.float32)
        dm = DepthMap(scores)
        method = NormalizationMethod(kind, lt_percentile=100.0)
        got = normalize_region(dm, BoundingBox(0, 0, 3, 1, 3, 1), method)
        assert got == 2.0**-20 / 3

    @pytest.mark.parametrize("lt_take", ("lowest", "highest"))
    @pytest.mark.parametrize("odd", (-0.0, -3.0, 0.0))
    def test_one_zero_or_sign_bit_in_a_positive_box(self, odd, lt_take):
        # random boxes only sometimes hold _one_sign_bit's pixel; these all do
        rng = np.random.default_rng(11)
        scores = rng.uniform(0.5, 9.0, size=(12, 17)).astype(np.float32)
        scores[5, 8] = odd
        dm = DepthMap(scores)
        bbox = BoundingBox(2.5, 1.25, 15.5, 11.0, 17, 12)
        for pct in (0.5, 10.0, 50.0, 99.5, 100.0):
            method = NormalizationMethod(LOW_THRESHOLD, lt_percentile=pct, lt_take=lt_take)
            assert_matches_reference(dm, bbox, method)
        for kind in (MEAN, DISC_CENTER, CENTER_RING, MEDIAN):
            assert_matches_reference(dm, bbox, NormalizationMethod(kind, diameter_px=6))

    def test_all_zero_regions(self):
        scores = np.array([[-0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]], dtype=np.float32)
        dm = DepthMap(scores)
        for kind in METHOD_KINDS:
            for bbox in (BoundingBox(0, 0, 2, 2, 3, 2), BoundingBox(0, 0, 3, 2, 3, 2)):
                assert_matches_reference(dm, bbox, NormalizationMethod(kind, diameter_px=2))

    @pytest.mark.parametrize("wide", (False, True), ids=("narrow", "wide"))
    @pytest.mark.parametrize("sign", (1.0, -1.0), ids=("positive-box", "negative-box"))
    @pytest.mark.parametrize("outside, bounds_prove", [
        (0.01, True),  # near extremes: the map's bounds prove every sum exact
        (100.0, True),
        (2.0**-100, False),  # tiny or huge: the bounds are too wide to prove it
        (3e38, False),
        (0.0, False),  # a zero or the other sign: the bounds straddle zero
        (-5.0, False),
    ], ids=("small", "large", "tiny", "huge", "zero", "other-sign"))
    def test_map_extremes_outside_the_box(self, outside, bounds_prove, sign, wide):
        # The sums take the map's bounds where those prove the box's sums
        # exact and fall back to each array's own extremes where they do not.
        # A wide patch (2**-14 .. 2**14) has float64 sums that are not exact,
        # so a proof wrongly granted would change the result.
        rng = np.random.default_rng(23)
        h, w = 40, 60
        scores = np.full((h, w), sign * outside)
        patch = np.exp2(rng.uniform(-14, 14, size=(24, 40))) if wide else (
            rng.uniform(0.5, 9.0, size=(24, 40)))
        scores[8:32, 10:50] = sign * patch
        dm = DepthMap(scores.astype(np.float32))
        lo, hi = dm.bounds
        proved = (lo > 0.0 or hi < 0.0) and _float64_sum_is_exact(h * w, lo, hi)
        assert proved == (bounds_prove and not wide)
        boxes = [
            BoundingBox(10, 8, 50, 32, w, h),  # exactly the inner patch
            BoundingBox(12.5, 9.25, 47.5, 30.75, w, h),  # inside it
            BoundingBox(5.5, 3.0, 55.0, 37.5, w, h),  # the patch and the extremes around it
        ]
        for bbox in boxes:
            for kind in METHOD_KINDS:
                for diameter in (6, 30, 90):
                    for lt_take in ("lowest", "highest"):
                        method = NormalizationMethod(
                            kind, diameter_px=diameter, lt_percentile=35.0, lt_take=lt_take
                        )
                        assert_matches_reference(dm, bbox, method)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=64
        ),
        pct=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_any_float32_values(self, values, pct):
        n = len(values)
        dm = DepthMap(np.array([values], dtype=np.float32))
        bbox = BoundingBox(0, 0, n, 1, n, 1)
        for kind in (MEAN, LOW_THRESHOLD, MEDIAN):
            assert_matches_reference(dm, bbox, NormalizationMethod(kind, lt_percentile=pct))


class TestConstantMap:
    @pytest.mark.parametrize("kind", METHOD_KINDS)
    def test_every_method_returns_the_constant(self, kind):
        dm = DepthMap(np.full((50, 60), 7.25, dtype=np.float32))
        bbox = BoundingBox(5, 5, 55, 45, 60, 50)
        method = NormalizationMethod(kind, diameter_px=10)
        assert normalize_region(dm, bbox, method) == 7.25


class TestPointMethods:
    def test_center_picks_center_pixel(self):
        dm = grid_map(9, 9)
        bbox = BoundingBox(0, 0, 9, 9, 9, 9)
        # center (4.5, 4.5) lies in pixel (4, 4): score 4*9 + 4 + 1
        assert normalize_region(dm, bbox, NormalizationMethod(CENTER)) == 41.0

    def test_five_point_uniform_average(self):
        dm = grid_map(8, 8)
        bbox = BoundingBox(0, 0, 8, 8, 8, 8)
        # points at (4,4), (2,2), (6,2), (2,6), (6,6)
        expected = (
            float(dm.scores[4, 4])
            + float(dm.scores[2, 2])
            + float(dm.scores[2, 6])
            + float(dm.scores[6, 2])
            + float(dm.scores[6, 6])
        ) / 5.0
        got = normalize_region(dm, bbox, NormalizationMethod(FIVE_POINT_UNIFORM))
        assert got == expected

    def test_five_point_weighted_center_dominates(self):
        scores = np.zeros((8, 8), dtype=np.float32)
        scores[4, 4] = 8.0  # center pixel only
        dm = DepthMap(scores)
        bbox = BoundingBox(0, 0, 8, 8, 8, 8)
        got = normalize_region(
            dm, bbox, NormalizationMethod(FIVE_POINT_CENTER_WEIGHTED, center_weight=0.5)
        )
        assert got == 4.0


class TestDiscAndRing:
    def test_disc_mean_matches_enumeration(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(0, 5, size=(40, 40)).astype(np.float32)
        dm = DepthMap(scores)
        bbox = BoundingBox(0, 0, 40, 40, 40, 40)
        diameter = 10
        cx, cy = 20.0, 20.0
        picked = [
            float(scores[r, c])
            for r in range(40)
            for c in range(40)
            if math.hypot(c + 0.5 - cx, r + 0.5 - cy) <= diameter / 2
        ]
        expected = math.fsum(picked) / len(picked)
        got = normalize_region(dm, bbox, NormalizationMethod(DISC_CENTER, diameter_px=diameter))
        assert got == expected

    def test_ring_mean_matches_enumeration(self):
        rng = np.random.default_rng(10)
        scores = rng.normal(0, 5, size=(60, 60)).astype(np.float32)
        dm = DepthMap(scores)
        bbox = BoundingBox(0, 0, 60, 60, 60, 60)
        diameter = 40
        cx, cy = 30.0, 30.0
        picked = [
            float(scores[r, c])
            for r in range(60)
            for c in range(60)
            if abs(math.hypot(c + 0.5 - cx, r + 0.5 - cy) - diameter / 2) <= 0.5
        ]
        expected = math.fsum(picked) / len(picked)
        got = normalize_region(dm, bbox, NormalizationMethod(CENTER_RING, diameter_px=diameter))
        assert got == expected

    def test_ring_larger_than_box_is_degenerate(self):
        dm = DepthMap(np.zeros((100, 100), dtype=np.float32))
        bbox = BoundingBox(45, 45, 55, 55, 100, 100)  # 10x10 box, 40 px ring
        with pytest.raises(DegenerateGeometryError):
            normalize_region(dm, bbox, NormalizationMethod(CENTER_RING, diameter_px=40))


class TestMedianMean:
    def test_median_of_grid(self):
        dm = grid_map(10, 10)
        bbox = BoundingBox(0, 0, 10, 10, 10, 10)
        assert normalize_region(dm, bbox, NormalizationMethod(MEDIAN)) == 50.5

    def test_mean_of_grid(self):
        dm = grid_map(10, 10)
        bbox = BoundingBox(0, 0, 10, 10, 10, 10)
        assert normalize_region(dm, bbox, NormalizationMethod(MEAN)) == 50.5


class TestPreconditions:
    def test_resolution_mismatch_rejected(self):
        dm = DepthMap(np.zeros((10, 10), dtype=np.float32))
        bbox = BoundingBox(0, 0, 5, 5, 20, 20)
        with pytest.raises(DomainError):
            normalize_region(dm, bbox, NormalizationMethod(MEAN))

    def test_method_validation(self):
        with pytest.raises(DomainError):
            NormalizationMethod("histogram")
        with pytest.raises(DomainError):
            NormalizationMethod(LOW_THRESHOLD, lt_percentile=0)
        with pytest.raises(DomainError):
            NormalizationMethod(DISC_CENTER, diameter_px=0)
        with pytest.raises(DomainError):
            NormalizationMethod(FIVE_POINT_CENTER_WEIGHTED, center_weight=1.5)

    def test_depth_map_rejects_non_finite(self):
        bad = np.zeros((4, 4), dtype=np.float32)
        bad[1, 1] = np.nan
        with pytest.raises(DomainError):
            DepthMap(bad)


class TestDepthMap:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_scores_rejected(self, bad):
        scores = np.ones((3, 5), dtype=np.float32)
        scores[2, 4] = bad
        with pytest.raises(DomainError):
            DepthMap(scores)

    def test_shape_checks(self):
        with pytest.raises(DomainError):
            DepthMap(np.ones(4, dtype=np.float32))
        with pytest.raises(DomainError):
            DepthMap(np.ones((0, 4), dtype=np.float32))

    def test_later_writes_to_a_writable_source_do_not_reach_the_map(self):
        source = np.arange(12, dtype=np.float32).reshape(3, 4)
        dm = DepthMap(source)
        source[:] = -1.0
        assert dm.scores.tolist() == np.arange(12, dtype=np.float32).reshape(3, 4).tolist()

    def test_read_only_view_of_a_writable_array_is_copied(self):
        owner = np.arange(12, dtype=np.float32)
        view = owner.reshape(3, 4)
        view.setflags(write=False)
        dm = DepthMap(view)
        owner[:] = -1.0
        assert dm.scores.min() == 0.0

    def test_read_only_array_over_a_bytearray_is_copied(self):
        buffer = bytearray(np.arange(6, dtype="<f4").tobytes())
        view = np.frombuffer(buffer, dtype="<f4").reshape(2, 3)
        view.setflags(write=False)
        dm = DepthMap(view)
        buffer[:4] = np.array([-7.0], dtype="<f4").tobytes()
        assert dm.scores[0, 0] == 0.0

    def test_array_over_immutable_bytes_is_kept(self):
        view = np.frombuffer(np.arange(6, dtype="<f4").tobytes(), dtype="<f4").reshape(2, 3)
        assert DepthMap(view).scores is view

    @pytest.mark.parametrize(
        "source",
        [
            np.zeros((2, 3), dtype=np.float32),
            np.zeros((2, 3), dtype=np.float64),
            [[1.0, 2.0], [3.0, 4.0]],
            np.frombuffer(bytes(24), dtype="<f4").reshape(2, 3),
        ],
    )
    def test_scores_are_never_writeable(self, source):
        scores = DepthMap(source).scores
        assert not scores.flags.writeable
        with pytest.raises(ValueError):
            scores.setflags(write=True)
        with pytest.raises(ValueError):
            scores[0, 0] = 1.0


@st.composite
def map_and_box(draw):
    w = draw(st.integers(min_value=2, max_value=24))
    h = draw(st.integers(min_value=2, max_value=24))
    values = draw(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, width=32),
            min_size=w * h,
            max_size=w * h,
        )
    )
    scores = np.array(values, dtype=np.float32).reshape(h, w)
    x0 = draw(st.floats(min_value=0, max_value=w - 1))
    y0 = draw(st.floats(min_value=0, max_value=h - 1))
    x1 = draw(st.floats(min_value=x0 + 0.5, max_value=w))
    y1 = draw(st.floats(min_value=y0 + 0.5, max_value=h))
    return DepthMap(scores), BoundingBox(x0, y0, x1, y1, w, h)


class TestWithinRangeProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=map_and_box(), kind=st.sampled_from(METHOD_KINDS))
    def test_all_methods_stay_within_box_score_range(self, data, kind):
        dm, bbox = data
        method = NormalizationMethod(kind, diameter_px=4)
        values = region_pixels(dm.scores, bbox)
        try:
            got = normalize_region(dm, bbox, method)
        except DegenerateGeometryError:
            return  # ring/disc may clip to nothing on small boxes
        lo, hi = min(values), max(values)
        assert lo - 1e-9 <= got <= hi + 1e-9
