import numpy as np
import pytest

from monorange.common import DomainError, NotReadyError
from monorange.depth import (
    CalibrationSample,
    RecalibrationConfig,
    RecalibrationState,
    detect_drift,
    fit_coefficients,
    recalibrate,
    step,
)
from monorange.geometry import CameraIntrinsics
from monorange.synth import DepthLawSpec, SceneObject, SceneSpec

INTR = CameraIntrinsics(1592.0, 1280, 720, 82.6)
VIP = SceneObject("vip", height_m=0.63, distance_m=3.0, is_vip=True)
PRE_LAW = DepthLawSpec(m_true=6.0, s_true=1.0)
POST_LAW = DepthLawSpec(m_true=6.0, s_true=1.32)  # 0.32 m shift, above tau

DEPTH_W, DEPTH_H = 64, 40


def one_frame(objects, intrinsics, law, seed=0, **kwargs):
    """The single frame of a one-second stream at 1 fps, rendered from ``seed``."""
    spec = SceneSpec(intrinsics=intrinsics, objects=tuple(objects), law=law, fps=1,
                     duration_s=1.0, **kwargs)
    return next(spec.frames(seed))


def anchor_samples(law, n_per=10, distances=(2.5, 4.0)):
    """Offline calibration samples: n_per frames at each anchor distance."""
    return [
        CalibrationSample(law.score_for_distance(d), d) for d in distances for _ in range(n_per)
    ]


def fresh_state(config, seed=0, law=PRE_LAW):
    return RecalibrationState(config, anchor_samples(law, config.n_o // 2), seed=seed)


def fill_windows(state, truths, estimates):
    """Load the once-per-second buffers directly (unit-level shortcut)."""
    for t, d in zip(truths, estimates):
        state.R.append(t)
        state.D.append(d)
        state.seconds_seen += 1


class TestConfig:
    def test_n_new_examples(self):
        assert RecalibrationConfig(alpha=0.5, n_o=20).n_new == 20
        assert RecalibrationConfig(alpha=0.75, n_o=20).n_new == 7

    def test_n_new_rounds_half_away_from_zero(self):
        # (1 - 0.8) / 0.8 * 2 = 0.5 rounds up, not to even
        assert RecalibrationConfig(alpha=0.8, n_o=2).n_new == 1
        assert RecalibrationConfig(alpha=0.6, n_o=3).n_new == 2

    def test_n_new_at_least_one(self):
        assert RecalibrationConfig(alpha=0.99, n_o=2).n_new == 1

    def test_warmup_is_at_least_five(self):
        assert RecalibrationConfig(w=3).warmup_samples == 5
        assert RecalibrationConfig(w=8).warmup_samples == 8

    def test_train_capacity(self):
        assert RecalibrationConfig(w_prime_s=5.0, fps=30).train_buffer_capacity == 150

    def test_unsatisfiable_recalibration_rejected(self):
        with pytest.raises(DomainError):
            RecalibrationConfig(alpha=0.05, n_o=20, w_prime_s=1.0, fps=30)

    def test_parameter_bounds(self):
        with pytest.raises(DomainError):
            RecalibrationConfig(alpha=0.0)
        with pytest.raises(DomainError):
            RecalibrationConfig(alpha=1.0)
        with pytest.raises(DomainError):
            RecalibrationConfig(tau_m=0.0)
        with pytest.raises(DomainError):
            RecalibrationConfig(n_o=1)


class TestDetectDrift:
    def make(self, config=None):
        config = config or RecalibrationConfig()
        state = fresh_state(config)
        state.seconds_seen = config.warmup_samples  # past warm-up
        return state, config

    def test_constant_errors_above_threshold(self):
        state, config = self.make()
        fill_windows(state, [3.0] * 5, [3.0 - 0.40] * 5)
        assert detect_drift(state, config) is True
        assert state.flag

    def test_single_spike_does_not_trigger(self):
        state, config = self.make()
        errors = [0.10, 0.10, 0.10, 0.80, 0.10]
        fill_windows(state, [3.0] * 5, [3.0 - e for e in errors])
        assert detect_drift(state, config) is False
        assert not state.flag

    def test_boundary_is_strict(self):
        state, config = self.make()
        fill_windows(state, [3.0] * 5, [3.0 - 0.30] * 5)
        assert detect_drift(state, config) is False

    def test_no_detection_before_warmup(self):
        config = RecalibrationConfig()
        state = fresh_state(config)
        fill_windows(state, [3.0] * 4, [1.0] * 4)  # huge errors, only 4 samples
        assert detect_drift(state, config) is False

    def test_no_detection_with_partial_buffers(self):
        config = RecalibrationConfig(w=8)
        state = fresh_state(config)
        fill_windows(state, [3.0] * 6, [1.0] * 6)
        assert detect_drift(state, config) is False


class TestRecalibrate:
    CONFIG = RecalibrationConfig(alpha=0.75, n_o=20)

    def latched_state(self, seed=0):
        state = fresh_state(self.CONFIG, seed=seed)
        rng = np.random.default_rng(99)
        for _ in range(self.CONFIG.train_buffer_capacity):
            score = float(rng.uniform(0.1, 0.6))
            state.T.append(CalibrationSample(score, 7.0 * score + 0.5))
        state.flag = True
        return state

    def test_requires_latched_flag(self):
        state = fresh_state(self.CONFIG)
        with pytest.raises(DomainError):
            recalibrate(state, self.CONFIG)

    def test_not_ready_keeps_flag_latched(self):
        state = fresh_state(self.CONFIG)
        state.flag = True
        state.T.append(CalibrationSample(0.3, 2.8))  # 1 < n_new = 7
        with pytest.raises(NotReadyError):
            recalibrate(state, self.CONFIG)
        assert state.flag

    def test_sample_mix_and_bookkeeping(self):
        state = self.latched_state()
        originals_before = state.original_samples
        coeffs = recalibrate(state, self.CONFIG)
        assert coeffs.sample_count == 20 + 7
        assert coeffs.provenance == "recalibrated"
        assert state.original_samples == originals_before
        assert not state.flag
        assert len(state.R) == 0 and len(state.D) == 0
        assert state.recalibration_count == 1

    def test_seeded_draw_matches_least_squares_oracle(self):
        seed = 1234
        state = self.latched_state(seed=seed)
        snapshot = list(state.T)
        coeffs = recalibrate(state, self.CONFIG)
        # replay the draw independently and refit with a different solver
        replay = np.random.default_rng(seed).choice(len(snapshot), size=7, replace=False)
        drawn = [snapshot[i] for i in replay]
        fit_set = list(state.original_samples) + drawn
        x = np.array([s.normalized_score for s in fit_set])
        y = np.array([s.true_distance_m for s in fit_set])
        slope, shift = np.polyfit(x, y, 1)
        assert coeffs.m == pytest.approx(float(slope), rel=1e-9)
        assert coeffs.s == pytest.approx(float(shift), rel=1e-9)

    def test_identical_seeds_identical_results(self):
        a = recalibrate(self.latched_state(seed=7), self.CONFIG)
        b = recalibrate(self.latched_state(seed=7), self.CONFIG)
        assert (a.m, a.s) == (b.m, b.s)


def run_stream(frames, state, config, coeffs, truth=3.0):
    """Drive step() over a synthetic stream; returns per-frame results."""
    results = []
    for frame in frames:
        result = step(frame, truth, state, config, coeffs)
        coeffs = result.coeffs
        results.append(result)
    return results


class TestStateMethods:
    def test_sample_second_keeps_the_first_frame_of_each_second(self):
        state = fresh_state(RecalibrationConfig())
        for t, trusted, estimated in [(0.0, 1, 2), (0.5, 3, 4), (1.2, 5, 6), (1.9, 7, 8),
                                      (3.0, 9, 10)]:
            state.sample_second(t, trusted, estimated)
        assert list(state.R) == [1, 5, 9]
        assert list(state.D) == [2, 6, 10]
        assert state.seconds_seen == 3


class TestStep:
    CONFIG = RecalibrationConfig(alpha=0.75, n_o=20, w=5, w_prime_s=3.0, fps=30)

    def static_coeffs(self):
        return fit_coefficients(anchor_samples(PRE_LAW, 10))

    def test_static_calibration_recovers_generating_line(self):
        coeffs = self.static_coeffs()
        assert coeffs.m == pytest.approx(6.0, abs=1e-12)
        assert coeffs.s == pytest.approx(1.0, abs=1e-12)

    def test_train_buffer_capacity_after_five_seconds(self):
        config = RecalibrationConfig(w_prime_s=5.0, fps=30)
        state = fresh_state(config)
        frames = SceneSpec(
            intrinsics=INTR, objects=(VIP,), law=PRE_LAW, fps=30, duration_s=5.0,
            depth_w=DEPTH_W, depth_h=DEPTH_H, post_law=PRE_LAW, switch_time_s=1.0,
        ).frames()
        run_stream(frames, state, config, self.static_coeffs())
        assert len(state.T) == 150

    def test_one_per_second_cadence(self):
        config = RecalibrationConfig()
        state = fresh_state(config)
        frames = SceneSpec(
            intrinsics=INTR, objects=(VIP,), law=PRE_LAW, fps=30, duration_s=3.5,
            depth_w=DEPTH_W, depth_h=DEPTH_H, post_law=PRE_LAW, switch_time_s=1.0,
        ).frames()
        run_stream(frames, state, config, self.static_coeffs())
        assert state.seconds_seen == 4  # seconds 0, 1, 2, 3

    def test_constant_scene_never_changes_coefficients(self):
        config = self.CONFIG
        state = fresh_state(config)
        frames = SceneSpec(
            intrinsics=INTR, objects=(VIP,), law=PRE_LAW, fps=10, duration_s=40.0,
            depth_w=DEPTH_W, depth_h=DEPTH_H, post_law=PRE_LAW, switch_time_s=10.0,
        ).frames()
        results = run_stream(frames, state, config, self.static_coeffs())
        assert not any(r.drift_detected for r in results)
        assert not any(r.recalibrated for r in results)
        assert all(r.coeffs.provenance == "static" for r in results)

    def test_drift_detection_fires_within_window(self):
        config = self.CONFIG
        state = fresh_state(config)
        frames = SceneSpec(
            intrinsics=INTR, objects=(VIP,), law=PRE_LAW, fps=30, duration_s=28.0,
            depth_w=DEPTH_W, depth_h=DEPTH_H, post_law=POST_LAW, switch_time_s=20.0,
        ).frames()
        results = run_stream(frames, state, config, self.static_coeffs())
        fired = [r.timestamp_s for r in results if r.drift_detected]
        assert fired, "drift was never detected"
        assert 20.0 <= fired[0] <= 25.0

    def test_recalibration_brings_error_under_threshold(self):
        config = self.CONFIG
        state = fresh_state(config)
        frames = SceneSpec(
            intrinsics=INTR, objects=(VIP,), law=PRE_LAW, fps=30, duration_s=30.0,
            depth_w=DEPTH_W, depth_h=DEPTH_H, post_law=POST_LAW, switch_time_s=20.0,
        ).frames()
        results = run_stream(frames, state, config, self.static_coeffs())
        recal = [r for r in results if r.recalibrated]
        assert len(recal) == 1
        assert recal[0].coeffs.sample_count == 27
        t_recal = recal[0].timestamp_s
        after = [
            r for r in results if t_recal < r.timestamp_s <= t_recal + 5.0
        ]
        errors = [abs(3.0 - r.vip_distance.value_m) for r in after]
        assert errors and max(errors) <= config.tau_m
        # the detector does not immediately re-fire
        assert not any(r.drift_detected for r in after)

    def test_recalibrated_line_lies_between_laws(self):
        config = self.CONFIG
        state = fresh_state(config)
        frames = SceneSpec(
            intrinsics=INTR, objects=(VIP,), law=PRE_LAW, fps=30, duration_s=30.0,
            depth_w=DEPTH_W, depth_h=DEPTH_H, post_law=POST_LAW, switch_time_s=20.0,
        ).frames()
        results = run_stream(frames, state, config, self.static_coeffs())
        recal = [r for r in results if r.recalibrated][0]
        score = POST_LAW.score_for_distance(3.0)
        pre_value = 6.0 * score + 1.0
        post_value = 3.0
        fitted = recal.coeffs.m * score + recal.coeffs.s
        assert pre_value < fitted < post_value
        # weighted 20:7 toward the offline anchors, so nearer the old line
        assert abs(fitted - pre_value) < abs(post_value - fitted)

    def test_missing_vip_bypasses_buffers(self):
        config = RecalibrationConfig()
        state = fresh_state(config)
        bystander = SceneObject("bystander", 1.65, 4.0, lateral_offset_m=1.0)
        frame = one_frame([bystander], INTR, PRE_LAW,
                          depth_w=DEPTH_W, depth_h=DEPTH_H)
        result = step(frame, 3.0, state, config, self.static_coeffs())
        assert result.warning == "no-vip-detection"
        assert result.vip_distance is None
        assert len(result.estimates) == 1
        assert len(state.T) == 0 and state.seconds_seen == 0

    def test_multiple_vips_rejected(self):
        frame = one_frame(
            [VIP, SceneObject("vip", 0.63, 2.0, lateral_offset_m=0.5, is_vip=True)],
            INTR, PRE_LAW, depth_w=DEPTH_W, depth_h=DEPTH_H,
        )
        config = RecalibrationConfig()
        with pytest.raises(DomainError):
            step(frame, 3.0, fresh_state(config), config,
                 self.static_coeffs())

    def test_out_of_domain_truth_excluded(self):
        from monorange.common import DistanceEstimate

        config = RecalibrationConfig()
        state = fresh_state(config)
        frame = one_frame([VIP], INTR, PRE_LAW, depth_w=DEPTH_W, depth_h=DEPTH_H)
        result = step(
            frame,
            DistanceEstimate(-1.0, out_of_domain=True),
            state, config, self.static_coeffs(),
        )
        assert result.warning == "vip-truth-out-of-domain"
        assert len(state.T) == 0
        assert result.vip_distance is not None  # estimation still happens

    def test_without_state_no_drift_handling(self):
        coeffs = self.static_coeffs()
        frames = SceneSpec(
            intrinsics=INTR, objects=(VIP,), law=PRE_LAW, fps=10, duration_s=4.0,
            depth_w=DEPTH_W, depth_h=DEPTH_H, post_law=POST_LAW, switch_time_s=2.0,
        ).frames()
        for frame in frames:
            result = step(frame, 3.0, None, None, coeffs)
            assert result.coeffs is coeffs
            assert not result.drift_detected and not result.recalibrated
            assert result.warning is None
            assert result.vip_distance.value_m == coeffs.m * result.estimates[0].score + coeffs.s

    def test_estimates_use_post_recalibration_coefficients(self):
        config = self.CONFIG
        state = fresh_state(config)
        frames = SceneSpec(
            intrinsics=INTR, objects=(VIP,), law=PRE_LAW, fps=30, duration_s=27.0,
            depth_w=DEPTH_W, depth_h=DEPTH_H, post_law=POST_LAW, switch_time_s=20.0,
        ).frames()
        results = run_stream(frames, state, config, self.static_coeffs())
        recal = [r for r in results if r.recalibrated][0]
        expected = recal.coeffs.m * recal.estimates[0].score + recal.coeffs.s
        assert recal.vip_distance.value_m == pytest.approx(expected, abs=1e-12)

    def test_frame_without_a_truth_warns_and_leaves_the_buffers_alone(self):
        config = RecalibrationConfig()
        state = fresh_state(config)
        frame = one_frame([VIP], INTR, PRE_LAW, depth_w=DEPTH_W, depth_h=DEPTH_H)
        coeffs = self.static_coeffs()
        result = step(frame, None, state, config, coeffs)
        assert result.warning == "no-vip-truth"
        assert len(state.T) == 0 and state.seconds_seen == 0
        assert result.coeffs is coeffs and not result.drift_detected
        assert result.vip_distance is not None  # estimation still happens

    def test_drift_before_the_train_buffer_holds_n_new_warns_not_ready(self):
        # At 1 fps the detector fires on its fifth sample, when T holds 5 < n_new = 7.
        # T keeps filling while the detection is latched, so the seventh frame refits.
        config = RecalibrationConfig(w=5, w_prime_s=10.0, fps=1, alpha=0.75, n_o=20)
        assert config.n_new == 7
        state = fresh_state(config)
        frames = SceneSpec(
            intrinsics=INTR, objects=(VIP,), law=PRE_LAW, fps=1, duration_s=7.0,
            depth_w=DEPTH_W, depth_h=DEPTH_H, post_law=POST_LAW, switch_time_s=0.0,
        ).frames()
        coeffs = self.static_coeffs()
        results = run_stream(frames, state, config, coeffs)
        assert [r.warning for r in results] == (
            [None] * 4 + ["recalibration-not-ready"] * 2 + [None]
        )
        assert [r.drift_detected for r in results] == [False] * 4 + [True] + [False] * 2
        assert [r.recalibrated for r in results] == [False] * 6 + [True]
        assert results[5].coeffs is coeffs
        # The refit drew all 7 samples of T, the two taken while latched among them.
        assert not state.flag and state.recalibration_count == 1 and len(state.T) == 7
        refit = results[-1].coeffs
        oracle = fit_coefficients(list(state.original_samples) + list(state.T))
        assert refit.sample_count == 27 and (refit.m, refit.s) == (oracle.m, oracle.s)
        before, after = results[5].vip_distance.value_m, results[-1].vip_distance.value_m
        assert abs(after - 3.0) < abs(before - 3.0)
