import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monorange.common import DomainError, SingularFitError
from monorange.regression import (
    MODE_THREE,
    MODE_TWO,
    LabeledFrame,
    RegressionFeatures,
    RegressionModel,
    fit_regression,
    predict_distance,
)


def law(w, h, a, b, c):
    return a * w + b * h + c * (w * h)


def frames_from_law(coeffs, dims):
    a, b, c = coeffs
    return [
        LabeledFrame(RegressionFeatures.from_dims(w, h), law(w, h, a, b, c))
        for w, h in dims
    ]


def varied_dims(n, rng, w_range=(600.0, 1000.0), h_range=(900.0, 1400.0)):
    return [(rng.uniform(*w_range), rng.uniform(*h_range)) for _ in range(n)]


class TestFitRegression:
    def test_exact_recovery(self):
        rng = np.random.default_rng(3)
        coeffs = (-2.0, -1.0, 0.004)
        dims = []
        while len(dims) < 30:
            w, h = rng.uniform(600, 1000), rng.uniform(900, 1400)
            if law(w, h, *coeffs) > 0:
                dims.append((w, h))
        model = fit_regression(frames_from_law(coeffs, dims), MODE_THREE)
        assert model.a == pytest.approx(-2.0, rel=1e-9)
        assert model.b == pytest.approx(-1.0, rel=1e-9)
        assert model.c == pytest.approx(0.004, rel=1e-9)

    def test_identical_frames_singular(self):
        frames = [LabeledFrame(RegressionFeatures.from_dims(200.0, 400.0), 3.0)] * 10
        with pytest.raises(SingularFitError) as excinfo:
            fit_regression(frames, MODE_THREE)
        assert excinfo.value.columns  # the collinear columns are named

    def test_proportional_width_height_names_columns(self):
        # widths exactly 0.6x heights: the two linear columns are collinear
        frames = [
            LabeledFrame(RegressionFeatures.from_dims(0.6 * h, h), 3.0 + i)
            for i, h in enumerate([300.0, 400.0, 500.0, 600.0])
        ]
        with pytest.raises(SingularFitError) as excinfo:
            fit_regression(frames, MODE_TWO)
        assert "h_b" in excinfo.value.columns

    def test_too_few_frames(self):
        frames = frames_from_law((-2.0, -1.0, 0.004), [(900.0, 1200.0), (950.0, 1300.0)])
        with pytest.raises(DomainError):
            fit_regression(frames, MODE_THREE)

    def test_two_feature_mode_has_zero_area_coefficient(self):
        rng = np.random.default_rng(4)
        frames = [
            LabeledFrame(RegressionFeatures.from_dims(w, h), 0.01 * w + 0.005 * h)
            for w, h in varied_dims(10, rng, (100, 400), (200, 700))
        ]
        model = fit_regression(frames, MODE_TWO)
        assert model.mode == MODE_TWO
        assert model.c == 0.0
        assert model.a == pytest.approx(0.01, rel=1e-9)
        assert model.b == pytest.approx(0.005, rel=1e-9)

    def test_normal_equations_satisfied_on_training_set(self):
        rng = np.random.default_rng(5)
        dims = varied_dims(50, rng)
        frames = [
            LabeledFrame(
                RegressionFeatures.from_dims(w, h),
                max(law(w, h, -2.42, -1.29, 0.0043), 0.5) + rng.normal(0, 0.3),
            )
            for w, h in dims
        ]
        frames = [f for f in frames if f.true_distance_m > 0]
        model = fit_regression(frames, MODE_THREE)
        design = np.array([f.features.as_row(MODE_THREE) for f in frames])
        target = np.array([f.true_distance_m for f in frames])
        residual = target - design @ np.array([model.a, model.b, model.c])
        gradient = design.T @ residual  # half the squared-loss gradient, sign flipped
        scale = max(1.0, float(np.abs(design.T @ target).max()))
        assert np.all(np.abs(gradient) / scale < 1e-9)

    def test_noise_robustness_predictions_within_three_sigma(self):
        rng = np.random.default_rng(6)
        sigma = 0.05
        coeffs = (-2.42, -1.29, 0.0043)
        clean = []
        while len(clean) < 150:
            w = rng.uniform(400, 800)
            d = rng.choice([2.0, 3.0, 4.0])
            h = (d + 2.42 * w) / (0.0043 * w - 1.29)
            clean.append((w, h, d))
        frames = [
            LabeledFrame(
                RegressionFeatures.from_dims(w, h), d + rng.normal(0, sigma)
            )
            for w, h, d in clean
        ]
        frames = [f for f in frames if f.true_distance_m > 0]
        model = fit_regression(frames, MODE_THREE)
        for w, h, d in clean:
            pred = predict_distance(model, RegressionFeatures.from_dims(w, h))
            assert abs(pred.value_m - d) <= 3 * sigma

    def test_two_feature_agrees_when_law_has_no_area_term(self):
        rng = np.random.default_rng(8)
        dims = varied_dims(40, rng, (100, 400), (200, 700))
        frames = [
            LabeledFrame(RegressionFeatures.from_dims(w, h), 0.004 * w + 0.003 * h)
            for w, h in dims
        ]
        two = fit_regression(frames, MODE_TWO)
        three = fit_regression(frames, MODE_THREE)
        assert three.c == pytest.approx(0.0, abs=1e-9)
        for w, h in varied_dims(10, rng, (100, 400), (200, 700)):
            feats = RegressionFeatures.from_dims(w, h)
            assert predict_distance(two, feats).value_m == pytest.approx(
                predict_distance(three, feats).value_m, abs=1e-6
            )


class TestPredictDistance:
    def test_simple_sum(self):
        model = RegressionModel(a=1.0, b=1.0, c=0.0, mode=MODE_THREE)
        estimate = predict_distance(model, RegressionFeatures.from_dims(1.0, 2.0))
        assert estimate.value_m == 3.0
        assert not estimate.out_of_domain

    def test_negative_extrapolation_is_flagged(self):
        model = RegressionModel(a=-2.0, b=-1.0, c=0.004, mode=MODE_THREE)
        estimate = predict_distance(model, RegressionFeatures.from_dims(200.0, 400.0))
        assert estimate.value_m == pytest.approx(-480.0)
        assert estimate.out_of_domain

    @pytest.mark.parametrize("a, b", [(1e308, 0.0), (1e308, -1e308)], ids=["inf", "nan"])
    def test_overflow_is_flagged(self, a, b):
        model = RegressionModel(a=a, b=b, c=0.0, mode=MODE_THREE)
        estimate = predict_distance(model, RegressionFeatures.from_dims(200.0, 400.0))
        assert not math.isfinite(estimate.value_m)
        assert estimate.out_of_domain

    def test_two_feature_mode_ignores_area(self):
        model = RegressionModel(a=1.0, b=1.0, c=0.0, mode=MODE_TWO)
        estimate = predict_distance(model, RegressionFeatures.from_dims(10.0, 20.0))
        assert estimate.value_m == 30.0


class TestTypes:
    def test_features_area_must_match(self):
        with pytest.raises(DomainError):
            RegressionFeatures(w_b=10.0, h_b=20.0, area=100.0)

    def test_features_positive(self):
        with pytest.raises(DomainError):
            RegressionFeatures.from_dims(0.0, 10.0)

    @pytest.mark.parametrize("w, h", [(1e200, 1e200), (float("inf"), 10.0)])
    def test_features_area_must_be_finite(self, w, h):
        with pytest.raises(DomainError, match="box area inf is not finite"):
            RegressionFeatures.from_dims(w, h)

    def test_two_feature_model_requires_zero_c(self):
        with pytest.raises(DomainError):
            RegressionModel(a=1.0, b=1.0, c=0.5, mode=MODE_TWO)

    def test_labeled_frame_positive_distance(self):
        with pytest.raises(DomainError):
            LabeledFrame(RegressionFeatures.from_dims(10.0, 20.0), 0.0)

    @given(
        w=st.floats(min_value=1, max_value=2000),
        h=st.floats(min_value=1, max_value=2000),
    )
    def test_from_dims_always_consistent(self, w, h):
        feats = RegressionFeatures.from_dims(w, h)
        assert feats.area == feats.w_b * feats.h_b
