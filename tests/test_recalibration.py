import dataclasses
import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from monorange.common import DistanceEstimate, DomainError, NotReadyError
from monorange.depth import (
    CENTER,
    MEAN,
    CalibrationSample,
    DepthMap,
    FrameObservation,
    NormalizationMethod,
    ObjectEstimate,
    RecalibrationConfig,
    RecalibrationState,
    ScoreSmoother,
    StepResult,
    detect_drift,
    estimate_distance_depth,
    fit_coefficients,
    normalize_region,
    recalibrate,
    step,
)
from monorange.geometry import BoundingBox, CameraIntrinsics, Detection, scale_bbox
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
    """Observe one frame per wall-clock second, after any second already observed."""
    first = state.seconds_seen
    for i, (t, d) in enumerate(zip(truths, estimates)):
        state.observe(float(first + i), CalibrationSample(0.5, t), d)


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
        return fresh_state(config), config

    def test_constant_errors_above_threshold(self):
        state, config = self.make()
        fill_windows(state, [3.0] * 5, [3.0 - 0.40] * 5)  # five samples end the warm-up
        assert state.seconds_seen == config.warmup_samples
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
        # a full 3-sample window is not enough while the warm-up wants 5 samples
        config = RecalibrationConfig(w=3)
        state = fresh_state(config)
        fill_windows(state, [3.0] * 4, [1.0] * 4)
        assert len(state.errors) == config.w and detect_drift(state, config) is False
        fill_windows(state, [3.0], [1.0])
        assert detect_drift(state, config) is True

    def test_no_detection_with_partial_buffers(self):
        config = RecalibrationConfig(w=8)
        state = fresh_state(config)
        fill_windows(state, [3.0] * 6, [1.0] * 6)
        assert detect_drift(state, config) is False

    def test_a_refit_needs_a_full_window_again(self):
        config = RecalibrationConfig(w=5, fps=1, w_prime_s=10.0)
        state = fresh_state(config)
        fill_windows(state, [3.0] * 7, [1.0] * 7)
        assert detect_drift(state, config) is True
        recalibrate(state, config)
        assert list(state.errors) == [] and state.seconds_seen == 7  # past warm-up
        fill_windows(state, [3.0] * 4, [1.0] * 4)
        assert detect_drift(state, config) is False
        fill_windows(state, [3.0], [1.0])
        assert detect_drift(state, config) is True


class TestRecalibrate:
    CONFIG = RecalibrationConfig(alpha=0.75, n_o=20)

    def latched_state(self, seed=0):
        """A full train buffer and a full error window that latched a detection."""
        state = fresh_state(self.CONFIG, seed=seed)
        rng = np.random.default_rng(99)
        for i in range(self.CONFIG.train_buffer_capacity):
            score = float(rng.uniform(0.1, 0.6))
            sample = CalibrationSample(score, 7.0 * score + 0.5)
            state.observe(i / self.CONFIG.fps, sample, sample.true_distance_m + 0.5)
        assert len(state.errors) == self.CONFIG.w and detect_drift(state, self.CONFIG)
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
        assert len(state.errors) == 0
        assert len(state.T) == self.CONFIG.train_buffer_capacity  # drawn from, not emptied
        with pytest.raises(DomainError):  # one detection, one refit
            recalibrate(state, self.CONFIG)

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


def run_stream(frames, state, config, coeffs, truth=DistanceEstimate(3.0)):
    """Drive step() over a synthetic stream; returns per-frame results."""
    results = []
    for frame in frames:
        result = step(frame, truth, state, config, coeffs, method=NormalizationMethod())
        coeffs = result.coeffs
        results.append(result)
    return results


class TestStateMethods:
    def test_offline_set_must_hold_n_o_samples(self):
        config = RecalibrationConfig()
        with pytest.raises(DomainError, match="config declares n_o=20 offline samples, got 19"):
            RecalibrationState(config, anchor_samples(PRE_LAW)[1:])

    def test_observe_keeps_every_frame_and_the_first_error_of_each_second(self):
        state = fresh_state(RecalibrationConfig())
        for t, trusted, estimated in [(0.0, 1.0, 2.5), (0.5, 3.0, 4.0), (1.2, 5.0, 3.25),
                                      (1.9, 7.0, 8.0), (3.0, 9.0, 10.5)]:
            state.observe(t, CalibrationSample(trusted / 10, trusted), estimated)
        assert list(state.errors) == [1.5, 1.75, 1.5]
        assert list(state.T) == [CalibrationSample(d / 10, d) for d in (1.0, 3.0, 5.0, 7.0, 9.0)]
        assert state.seconds_seen == 3

        # A latched frame enters T but not errors, and does not use up its second.
        state.flag = True
        state.observe(4.0, CalibrationSample(0.2, 2.0), 12.0)
        assert list(state.errors) == [1.5, 1.75, 1.5] and state.seconds_seen == 3
        assert state.T[-1] == CalibrationSample(0.2, 2.0) and len(state.T) == 6
        state.flag = False
        state.observe(4.5, CalibrationSample(0.3, 3.0), 2.0)
        assert list(state.errors) == [1.5, 1.75, 1.5, 1.0] and state.seconds_seen == 4
        assert len(state.T) == 7


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
        assert len(state.errors) == 4 and len(state.T) == 105

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
        result = step(frame, DistanceEstimate(3.0), state, config, self.static_coeffs(),
                      method=NormalizationMethod())
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
            step(frame, DistanceEstimate(3.0), fresh_state(config), config,
                 self.static_coeffs(), method=NormalizationMethod())

    def test_out_of_domain_truth_excluded(self):
        config = RecalibrationConfig()
        state = fresh_state(config)
        frame = one_frame([VIP], INTR, PRE_LAW, depth_w=DEPTH_W, depth_h=DEPTH_H)
        result = step(
            frame,
            DistanceEstimate(-1.0, out_of_domain=True),
            state, config, self.static_coeffs(), method=NormalizationMethod(),
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
            result = step(frame, DistanceEstimate(3.0), None, None, coeffs,
                          method=NormalizationMethod())
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
        result = step(frame, None, state, config, coeffs, method=NormalizationMethod())
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
        assert not state.flag and list(state.errors) == [] and len(state.T) == 7
        refit = results[-1].coeffs
        oracle = fit_coefficients(list(state.original_samples) + list(state.T))
        assert refit.sample_count == 27 and (refit.m, refit.s) == (oracle.m, oracle.s)
        before, after = results[5].vip_distance.value_m, results[-1].vip_distance.value_m
        assert abs(after - 3.0) < abs(before - 3.0)


# -- differential oracle -------------------------------------------------------
#
# The detector as it stood before the error window: parallel ``R`` (trusted)
# and ``D`` (estimated) buffers fed by ``sample_second``, a ``step`` that
# re-detects on every frame and reports a drift only when the flag went up.
# ``step`` over the error window must match it bit for bit on every stream.


class ReferenceState:
    def __init__(self, config, original_samples, seed=0):
        self.R = deque(maxlen=config.w)
        self.D = deque(maxlen=config.w)
        self.T = deque(maxlen=config.train_buffer_capacity)
        self.flag = False
        self.original_samples = tuple(original_samples)
        self.seconds_seen = 0
        self._last_second = None
        self._rng = np.random.default_rng(seed)

    def sample_second(self, timestamp_s, trusted_m, estimated_m):
        second = int(math.floor(timestamp_s))
        if self._last_second is None or second > self._last_second:
            self.R.append(trusted_m)
            self.D.append(estimated_m)
            self.seconds_seen += 1
            self._last_second = second


def reference_detect_drift(state, config):
    if state.seconds_seen < config.warmup_samples:
        return False
    if len(state.R) < config.w or len(state.D) < config.w:
        return False
    mean_abs = math.fsum(abs(r - d) for r, d in zip(state.R, state.D)) / config.w
    if mean_abs > config.tau_m:
        state.flag = True
        return True
    return False


def reference_recalibrate(state, config):
    if not state.flag:
        raise DomainError("recalibrate requires a latched drift detection")
    if len(state.T) < config.n_new:
        raise NotReadyError("train buffer too short")
    snapshot = list(state.T)
    drawn = [snapshot[i] for i in state._rng.choice(len(snapshot), size=config.n_new,
                                                     replace=False)]
    fitted = fit_coefficients(list(state.original_samples) + drawn)
    state.flag = False
    state.R.clear()
    state.D.clear()
    return replace(fitted, provenance="recalibrated")


def reference_step(frame, truth, state, config, coeffs, method, smoother):
    vips = [i for i, det in enumerate(frame.detections) if det.is_vip]
    scores = []
    for det in frame.detections:
        scaled = scale_bbox(det.bbox, frame.depth_map.width, frame.depth_map.height)
        score = normalize_region(frame.depth_map, scaled, method)
        if det.is_vip and smoother is not None:
            score = smoother.push(score)
        scores.append(score)
    warning = None
    drift_detected = recalibrated = False
    if not vips:
        warning = "no-vip-detection"
    else:
        vip_score = scores[vips[0]]
        if truth is None:
            warning = "no-vip-truth"
        elif truth.out_of_domain:
            warning = "vip-truth-out-of-domain"
        else:
            state.T.append(CalibrationSample(vip_score, truth.value_m))
            if not state.flag:
                estimated_m = coeffs.m * vip_score + coeffs.s
                state.sample_second(frame.timestamp_s, truth.value_m, estimated_m)
        was_flagged = state.flag
        reference_detect_drift(state, config)
        drift_detected = state.flag and not was_flagged
        if state.flag:
            try:
                coeffs = reference_recalibrate(state, config)
                recalibrated = True
            except NotReadyError:
                warning = "recalibration-not-ready"
    estimates = tuple(
        ObjectEstimate(det, scores[i], estimate_distance_depth(scores[i], coeffs))
        for i, det in enumerate(frame.detections)
    )
    return StepResult(frame.timestamp_s, estimates[vips[0]].distance if vips else None,
                      estimates, coeffs, drift_detected, recalibrated, warning)


def _bits(x):
    """``x`` with every float spelled out in hex, so that equality is bit equality."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            _bits(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    return x


ORACLE_DETECTIONS = (
    Detection(BoundingBox(0, 0, 2, 4, 4, 4), "person", 0.9, is_vip=True),
    Detection(BoundingBox(2, 0, 4, 4, 4, 4), "car", 0.8),
)
ORACLE_M, ORACLE_S = 6.0, 1.0  # the offline law; the drifted one shifts s


def oracle_stream(p):
    """Frames and truths of one stream, drawn from the parameters ``p``."""
    rng = np.random.default_rng(p["seed"])
    t = p["t0"]
    for i in range(int(p["duration_s"] * p["fps"])):
        if rng.random() < p["p_gap"]:
            t += float(rng.uniform(2.0, 6.0))
        timestamp = t + i / p["fps"]
        shift = p["shift"] if timestamp >= p["switch_s"] else 0.0
        vip_m = p["vip_m"] + float(rng.normal(0.0, p["noise_m"]))
        vip_score = (vip_m - ORACLE_S - shift) / ORACLE_M
        car_score = (7.0 - ORACLE_S - shift) / ORACLE_M
        scores = np.empty((4, 4))
        scores[:, :2] = vip_score + rng.normal(0.0, 0.01, (4, 2))
        scores[:, 2:] = car_score
        detections = ORACLE_DETECTIONS
        if rng.random() < p["p_no_vip"]:
            detections = detections[1:]
        kind = rng.random()
        if kind < p["p_none"]:
            truth = None
        elif kind < p["p_none"] + p["p_ood"]:
            truth = DistanceEstimate(float(rng.uniform(-1.0, 3.0)), out_of_domain=True)
        else:
            truth = DistanceEstimate(p["vip_m"])
        yield FrameObservation(detections, DepthMap(scores), timestamp), truth


def run_oracle(p):
    """Drive ``step`` and the reference side by side and compare every result bit for bit."""
    config = RecalibrationConfig(w=p["w"], w_prime_s=p["w_prime_s"], fps=p["fps"],
                                 alpha=p["alpha"], tau_m=p["tau_m"], n_o=20)
    anchors = [CalibrationSample((d - ORACLE_S) / ORACLE_M, d)
               for d in (2.5, 4.0) for _ in range(10)]
    method = NormalizationMethod(kind=p["method"])
    state = RecalibrationState(config, anchors, seed=p["seed"])
    ref_state = ReferenceState(config, anchors, seed=p["seed"])
    smoother, ref_smoother = (
        (ScoreSmoother(p["smooth"]), ScoreSmoother(p["smooth"])) if p["smooth"] > 1
        else (None, None)
    )
    coeffs = ref_coeffs = fit_coefficients(anchors)
    results = []
    for frame, truth in oracle_stream(p):
        result = step(frame, truth, state, config, coeffs, method=method, smoother=smoother)
        expected = reference_step(frame, truth, ref_state, config, ref_coeffs, method,
                                  ref_smoother)
        assert _bits(result) == _bits(expected), frame.timestamp_s
        assert _bits(list(state.errors)) == _bits(
            [abs(r - d) for r, d in zip(ref_state.R, ref_state.D)]
        ), frame.timestamp_s
        assert (state.flag, state.seconds_seen, list(state.T)) == (
            ref_state.flag, ref_state.seconds_seen, list(ref_state.T)
        )
        coeffs, ref_coeffs = result.coeffs, expected.coeffs
        results.append(result)
    return results


# At 1 fps the detector latches on its fifth second while T holds 5 < n_new = 7
# samples, refits two seconds later, and latches and refits again 20 + 7 mixes on.
LATCH_BEFORE_N_NEW = dict(
    fps=1, w=5, w_prime_s=10.0, alpha=0.75, tau_m=0.3, duration_s=40.0, t0=0.0,
    switch_s=0.0, shift=1.0, vip_m=3.0, noise_m=0.0, p_gap=0.0, p_no_vip=0.0, p_none=0.0,
    p_ood=0.0, smooth=1, method=MEAN, seed=3,
)


class TestDifferentialOracle:
    def test_latch_before_n_new_refits_and_matches_the_reference(self):
        results = run_oracle(LATCH_BEFORE_N_NEW)
        warnings = [r.warning for r in results]
        assert warnings[:7] == [None] * 4 + ["recalibration-not-ready"] * 2 + [None]
        assert [r.drift_detected for r in results[:7]] == [False] * 4 + [True, False, False]
        assert sum(r.recalibrated for r in results) >= 2
        assert sum(r.drift_detected for r in results) == sum(r.recalibrated for r in results)

    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries(dict(
        fps=st.sampled_from([1, 10, 30]),
        w=st.integers(1, 6),
        w_prime_s=st.sampled_from([1.0, 3.0, 10.0, 25.0]),
        alpha=st.sampled_from([0.5, 0.75, 0.8]),
        tau_m=st.sampled_from([0.1, 0.3]),
        duration_s=st.floats(5.0, 30.0),
        t0=st.floats(0.0, 1.0),
        switch_s=st.floats(0.0, 20.0),
        shift=st.floats(0.0, 1.5),
        vip_m=st.floats(2.0, 5.0),
        noise_m=st.sampled_from([0.0, 0.05, 0.3]),
        p_gap=st.sampled_from([0.0, 0.02]),
        p_no_vip=st.sampled_from([0.0, 0.1]),
        p_none=st.sampled_from([0.0, 0.1]),
        p_ood=st.sampled_from([0.0, 0.1]),
        smooth=st.sampled_from([1, 3]),
        method=st.sampled_from([MEAN, CENTER]),
        seed=st.integers(0, 2**32 - 1),
    )))
    @example(LATCH_BEFORE_N_NEW)
    @example(dict(LATCH_BEFORE_N_NEW, fps=10, duration_s=30.0, p_gap=0.02, p_no_vip=0.1,
                  p_none=0.1, p_ood=0.1, noise_m=0.05))
    def test_step_matches_the_reference_bit_for_bit(self, p):
        try:
            RecalibrationConfig(w=p["w"], w_prime_s=p["w_prime_s"], fps=p["fps"],
                                alpha=p["alpha"], n_o=20)
        except DomainError:
            assume(False)  # n_new does not fit in the train buffer
        results = run_oracle(p)
        event(f"refits: {min(sum(r.recalibrated for r in results), 2)}")
        event(f"not ready: {any(r.warning == 'recalibration-not-ready' for r in results)}")
