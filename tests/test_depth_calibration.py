import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monorange.common import (
    DomainError,
    EmptyInputError,
    SingularFitError,
    linear_quantile,
)
from monorange.depth import (
    CalibrationSample,
    DepthCoefficients,
    ScoreSmoother,
    estimate_distance_depth,
    fit_coefficients,
    select_calibration_pair,
)


class TestFitCoefficients:
    def test_two_point_example(self):
        samples = [CalibrationSample(0.1, 2.0), CalibrationSample(0.4, 4.0)]
        coeffs = fit_coefficients(samples)
        assert coeffs.m == pytest.approx(2.0 / 0.3, rel=1e-12)
        assert coeffs.s == pytest.approx(2.0 - (2.0 / 0.3) * 0.1, rel=1e-12)

    def test_identity_line(self):
        samples = [CalibrationSample(s, s) for s in (1.0, 2.0, 3.0, 4.5)]
        coeffs = fit_coefficients(samples)
        assert coeffs.m == pytest.approx(1.0, rel=1e-12)
        assert coeffs.s == pytest.approx(0.0, abs=1e-12)

    def test_identical_scores_singular(self):
        samples = [CalibrationSample(0.3, d) for d in (2.0, 3.0, 4.0)]
        with pytest.raises(SingularFitError):
            fit_coefficients(samples)

    @pytest.mark.parametrize("points, what", [
        ([(1.5e308, 2.0), (1.5e308, 3.0)], "scores"),
        ([(0.1, 1e308), (0.2, 1.5e308)], "distances"),
        ([(1e300, 2.0), (-1e300, 3.0)], "squared score deviations"),
        # products of -inf and +inf, which fsum cannot add
        ([(0.0, 1e300), (1e10, 1.0), (2e10, 1e300)], "score-distance products"),
    ], ids=["scores", "distances", "squares", "products"])
    def test_sums_beyond_a_float_are_a_domain_error(self, points, what):
        samples = [CalibrationSample(score, distance) for score, distance in points]
        with pytest.raises(DomainError, match=f"the sum of {what} is beyond the largest float"):
            fit_coefficients(samples)

    def test_needs_two_samples(self):
        with pytest.raises(EmptyInputError):
            fit_coefficients([CalibrationSample(0.3, 2.0)])

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_sample_score_must_be_finite(self, score):
        with pytest.raises(DomainError, match="normalized score must be finite"):
            CalibrationSample(score, 2.0)

    @pytest.mark.parametrize("distance", [-1.0, 0.0, math.nan])
    def test_sample_distance_must_be_positive(self, distance):
        with pytest.raises(DomainError, match=f"true distance must be positive, got {distance}"):
            CalibrationSample(0.3, distance)

    def test_sample_distance_must_be_finite(self):
        with pytest.raises(DomainError, match="true distance must be finite, got inf"):
            CalibrationSample(0.3, math.inf)

    @pytest.mark.parametrize("m, s, message", [
        (0.0, 1.0, "scale coefficient must be finite and nonzero, got 0.0"),
        (math.nan, 1.0, "scale coefficient must be finite and nonzero, got nan"),
        (1.0, math.inf, "shift coefficient must be finite, got inf"),
        (1.0, math.nan, "shift coefficient must be finite, got nan"),
    ])
    def test_coefficients_must_be_finite(self, m, s, message):
        with pytest.raises(DomainError, match=message):
            DepthCoefficients(m=m, s=s)

    def test_exact_on_own_two_point_training_data(self):
        samples = [CalibrationSample(0.1, 2.0), CalibrationSample(0.4, 4.0)]
        coeffs = fit_coefficients(samples)
        for sample in samples:
            got = estimate_distance_depth(sample.normalized_score, coeffs)
            assert got.value_m == pytest.approx(sample.true_distance_m, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.floats(min_value=-10, max_value=10),
                st.floats(min_value=0.1, max_value=50),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_gradient_of_squared_loss_is_zero(self, samples):
        scores = [s for s, _ in samples]
        if max(scores) - min(scores) < 1e-6:
            return
        cal = [CalibrationSample(s, d) for s, d in samples]
        try:
            coeffs = fit_coefficients(cal)
        except SingularFitError:
            return  # exactly flat data has no usable slope
        residuals = [d - (coeffs.m * s + coeffs.s) for s, d in samples]
        grad_s = math.fsum(residuals)
        grad_m = math.fsum(r * s for r, (s, _) in zip(residuals, samples))
        scale = max(1.0, math.fsum(abs(d) for _, d in samples))
        assert abs(grad_s) / scale < 1e-9
        assert abs(grad_m) / scale < 1e-9


class TestEstimateDistanceDepth:
    def test_identity(self):
        coeffs = DepthCoefficients(m=1.0, s=0.0)
        assert estimate_distance_depth(2.5, coeffs).value_m == 2.5

    def test_fit_consistency_midpoint(self):
        coeffs = fit_coefficients(
            [CalibrationSample(0.1, 2.0), CalibrationSample(0.4, 4.0)]
        )
        assert estimate_distance_depth(0.25, coeffs).value_m == pytest.approx(3.0, abs=1e-12)
        assert estimate_distance_depth(0.1, coeffs).value_m == pytest.approx(2.0, abs=1e-12)

    def test_negative_flagged(self):
        coeffs = DepthCoefficients(m=1.0, s=-10.0)
        estimate = estimate_distance_depth(2.0, coeffs)
        assert estimate.value_m == -8.0
        assert estimate.out_of_domain

    def test_infinite_flagged_and_exact_zero_not(self):
        estimate = estimate_distance_depth(10.0, DepthCoefficients(m=1e308, s=0.0))
        assert estimate.value_m == math.inf
        assert estimate.out_of_domain
        zero = estimate_distance_depth(10.0, DepthCoefficients(m=1.0, s=-10.0))
        assert zero.value_m == 0.0
        assert not zero.out_of_domain

    @given(
        a=st.floats(min_value=-5, max_value=5),
        b=st.floats(min_value=-5, max_value=5),
        m=st.floats(min_value=0.01, max_value=100),
        s=st.floats(min_value=-10, max_value=10),
    )
    def test_strictly_monotone_for_positive_slope(self, a, b, m, s):
        if abs(a - b) < 1e-6:
            return
        lo, hi = min(a, b), max(a, b)
        coeffs = DepthCoefficients(m=m, s=s)
        assert (
            estimate_distance_depth(lo, coeffs).value_m
            < estimate_distance_depth(hi, coeffs).value_m
        )


def _pair_oracle(videos, pairs):
    """Exhaustive re-evaluation of every candidate pair (independent path)."""
    results = {}
    for pair in pairs:
        d1, d2 = pair
        fits = []
        for a, b in zip(videos[d1], videos[d2]):
            if a == b:
                continue
            m = (d2 - d1) / (b - a)
            fits.append((m, d1 - m * a))
        ms = sorted(f[0] for f in fits)
        ss = sorted(f[1] for f in fits)
        m_med = linear_quantile(ms, 0.5)
        s_med = linear_quantile(ss, 0.5)
        med_errs = []
        for d, scores in sorted(videos.items()):
            errs = sorted(d - (m_med * sc + s_med) for sc in scores)
            med_errs.append(linear_quantile(errs, 0.5))
        results[pair] = math.fsum(abs(e) for e in med_errs)
    return results


CANDIDATE_PAIRS = [(2.0, 3.0), (2.0, 3.5), (2.0, 4.0), (2.5, 3.5), (2.5, 4.0), (3.0, 4.0)]


def _noisy_videos(m_true=6.0, s_true=1.0, frames=15, sigma=0.02, seed=123):
    rng = np.random.default_rng(seed)
    videos = {}
    for d in (2.0, 2.5, 3.0, 3.5, 4.0):
        clean = (d - s_true) / m_true
        videos[d] = [clean + float(rng.normal(0, sigma)) for _ in range(frames)]
    return videos


class TestSelectCalibrationPair:
    def test_single_candidate_returned_trivially(self):
        videos = _noisy_videos()
        pair, coeffs = select_calibration_pair(videos, [(2.5, 4.0)])
        assert pair == (2.5, 4.0)

    def test_selection_matches_exhaustive_oracle(self):
        videos = _noisy_videos()
        pair, coeffs = select_calibration_pair(videos, CANDIDATE_PAIRS)
        oracle = _pair_oracle(videos, CANDIDATE_PAIRS)
        assert oracle[pair] == min(oracle.values())
        # the winner beats the worst candidate on validation error
        assert oracle[pair] < max(oracle.values()) or len(set(oracle.values())) == 1

    def test_noiseless_videos_recover_the_line(self):
        videos = _noisy_videos(sigma=0.0)
        pair, coeffs = select_calibration_pair(videos, CANDIDATE_PAIRS)
        assert coeffs.m == pytest.approx(6.0, rel=1e-9)
        assert coeffs.s == pytest.approx(1.0, rel=1e-9)

    def test_empty_candidates_rejected(self):
        with pytest.raises(EmptyInputError):
            select_calibration_pair(_noisy_videos(), [])


class TestSmoothScores:
    def test_singleton(self):
        assert ScoreSmoother(window=5).push(5.0) == 5.0

    def test_full_window(self):
        smoother = ScoreSmoother(window=5)
        assert [smoother.push(v) for v in (1, 2, 3, 4, 5)][-1] == 3.0

    def test_step_change_ramps(self):
        smoother = ScoreSmoother(window=5)
        for _ in range(5):
            smoother.push(0.0)
        outputs = [smoother.push(1.0) for _ in range(5)]
        assert outputs == [
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.6),
            pytest.approx(0.8),
            pytest.approx(1.0),
        ]

    def test_matches_rolling_mean_oracle(self):
        rng = np.random.default_rng(17)
        values = rng.normal(0, 1, size=80).tolist()
        k = 7
        smoother = ScoreSmoother(window=k)
        for i, v in enumerate(values):
            got = smoother.push(v)
            window = values[max(0, i - k + 1) : i + 1]
            assert got == pytest.approx(sum(window) / len(window), rel=1e-12)
