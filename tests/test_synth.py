import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from monorange import synth
from monorange.cli import main
from monorange.common import DomainError
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
    estimate_distance_depth,
    fit_coefficients,
    normalize_region,
)
from monorange.geometry import (
    BoundingBox,
    CameraIntrinsics,
    DronePose,
    estimate_distance_geometric,
    scale_bbox,
)
from monorange.neod import read_depth_map
from monorange.synth import (
    BACKGROUND_DISTANCE_M,
    DepthLawSpec,
    SceneObject,
    _paint,
    _project,
    drift_sequence,
    load_scene_spec,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"
INTR = CameraIntrinsics(1592.0, 1280, 720, 82.6)
POSE = DronePose(1.5)
LAW = DepthLawSpec(m_true=6.0, s_true=1.0)


def one_frame(objects, intrinsics, pose, law, seed=0, **kwargs):
    """The single frame of a one-second stream at 1 fps, rendered from ``seed``."""
    return next(drift_sequence(objects, intrinsics, pose, law, law, 0.0, 1.0, 1,
                               seed=seed, **kwargs))


class TestSynthFrame:
    def test_projected_box_height_matches_similar_triangles(self):
        obj = SceneObject("vip", height_m=0.63, distance_m=3.0, is_vip=True)
        frame = one_frame([obj], INTR, POSE, LAW, depth_w=64, depth_h=40)
        bbox = frame.detections[0].bbox
        assert bbox.height_px == pytest.approx(1592.0 * 0.63 / 3.0, abs=1e-9)
        recovered = estimate_distance_geometric(bbox, 0.63, INTR)
        assert recovered == pytest.approx(3.0, abs=1e-9)

    def test_identity_law_scores_equal_distance(self):
        law = DepthLawSpec(m_true=1.0, s_true=0.0)
        obj = SceneObject("car", height_m=1.5, distance_m=4.0)
        frame = one_frame([obj], INTR, POSE, law, depth_w=64, depth_h=40)
        scaled = scale_bbox(frame.detections[0].bbox, 64, 40)
        score = normalize_region(frame.depth_map, scaled, NormalizationMethod(LOW_THRESHOLD))
        assert score == pytest.approx(4.0, abs=1e-6)

    def test_two_distance_calibration_recovers_generating_line(self):
        # law chosen so the anchor scores are exact in float32
        samples = []
        for d in (2.5, 4.0):
            obj = SceneObject("vip", height_m=0.63, distance_m=d, is_vip=True)
            frame = one_frame([obj], INTR, POSE, LAW, depth_w=64, depth_h=40)
            scaled = scale_bbox(frame.detections[0].bbox, 64, 40)
            score = normalize_region(
                frame.depth_map, scaled, NormalizationMethod(LOW_THRESHOLD)
            )
            samples.append(CalibrationSample(score, d))
        coeffs = fit_coefficients(samples)
        assert coeffs.m == pytest.approx(LAW.m_true, abs=1e-9)
        assert coeffs.s == pytest.approx(LAW.s_true, abs=1e-9)

    def test_full_pipeline_round_trip_within_tolerance(self):
        law = DepthLawSpec(m_true=3.7, s_true=0.45)
        objects = [
            SceneObject("vip", 0.63, 3.0, is_vip=True),
            SceneObject("bystander", 1.65, 4.0, lateral_offset_m=1.0),
            SceneObject("car", 1.56, 4.6, lateral_offset_m=-1.2),
        ]
        frame = one_frame(objects, INTR, POSE, law, depth_w=256, depth_h=160)
        coeffs = fit_coefficients(
            [
                CalibrationSample(law.score_for_distance(2.5), 2.5),
                CalibrationSample(law.score_for_distance(4.0), 4.0),
            ]
        )
        for det, truth in zip(frame.detections, frame.truths):
            scaled = scale_bbox(det.bbox, 256, 160)
            score = normalize_region(
                frame.depth_map, scaled, NormalizationMethod(LOW_THRESHOLD)
            )
            estimate = estimate_distance_depth(score, coeffs)
            assert abs(estimate.value_m - truth) < 1e-6

    def test_background_far_from_any_object(self):
        frame = one_frame(
            [SceneObject("vip", 0.63, 3.0, is_vip=True)], INTR, POSE, LAW,
            depth_w=64, depth_h=40,
        )
        corner = float(frame.depth_map.scores[0, 0])
        assert corner == pytest.approx(LAW.score_for_distance(BACKGROUND_DISTANCE_M), rel=1e-6)

    def test_nearer_object_overwrites_overlap(self):
        near = SceneObject("bicycle", 1.0, 2.5)
        far = SceneObject("car", 1.5, 6.0)
        frame = one_frame([far, near], INTR, POSE, LAW, depth_w=128, depth_h=80)
        scaled = scale_bbox(frame.detections[1].bbox, 128, 80)
        score = normalize_region(frame.depth_map, scaled, NormalizationMethod(MEDIAN))
        assert score == pytest.approx(LAW.score_for_distance(2.5), abs=1e-6)

    def test_out_of_frame_rejected(self):
        giant = SceneObject("car", height_m=3.0, distance_m=2.0)
        with pytest.raises(DomainError, match="projects outside the 1280x720 frame"):
            one_frame([giant], INTR, POSE, LAW)

    def test_determinism_identical_seeds_byte_identical(self):
        law = DepthLawSpec(m_true=6.0, s_true=1.0, noise_sigma=0.05)
        a = one_frame([SceneObject("vip", 0.63, 3.0, is_vip=True)], INTR, POSE, law,
                      seed=42, depth_w=64, depth_h=40)
        b = one_frame([SceneObject("vip", 0.63, 3.0, is_vip=True)], INTR, POSE, law,
                      seed=42, depth_w=64, depth_h=40)
        assert a.depth_map.scores.tobytes() == b.depth_map.scores.tobytes()
        c = one_frame([SceneObject("vip", 0.63, 3.0, is_vip=True)], INTR, POSE, law,
                      seed=43, depth_w=64, depth_h=40)
        assert a.depth_map.scores.tobytes() != c.depth_map.scores.tobytes()


class TestComplexObjectOrdering:
    def test_low_threshold_beats_every_other_method(self):
        """Split-depth object: lower half near, upper half far.

        The object's true distance is its nearest part, so the nearest-region
        statistic should err no more than any centered or whole-box statistic.
        """
        law = LAW
        d_near, d_far = 3.0, 6.0
        width, height = 100, 100
        scores = np.full(
            (height, width), law.score_for_distance(BACKGROUND_DISTANCE_M), dtype=np.float64
        )
        box = BoundingBox(20, 10, 80, 90, width, height)
        mid = 50
        scores[10:mid, 20:80] = law.score_for_distance(d_far)   # upper half far
        scores[mid:90, 20:80] = law.score_for_distance(d_near)  # lower half near
        dm = DepthMap(scores)
        coeffs = fit_coefficients(
            [
                CalibrationSample(law.score_for_distance(2.0), 2.0),
                CalibrationSample(law.score_for_distance(5.0), 5.0),
            ]
        )
        errors = {}
        for kind in (
            LOW_THRESHOLD,
            CENTER,
            DISC_CENTER,
            CENTER_RING,
            FIVE_POINT_UNIFORM,
            FIVE_POINT_CENTER_WEIGHTED,
            MEDIAN,
            MEAN,
        ):
            method = NormalizationMethod(kind, diameter_px=20)
            score = normalize_region(dm, box, method)
            estimate = estimate_distance_depth(score, coeffs)
            errors[kind] = abs(estimate.value_m - d_near)
        for kind, err in errors.items():
            assert errors[LOW_THRESHOLD] <= err + 1e-12, f"{kind} beat low_threshold"


class TestDriftSequence:
    VIP = SceneObject("vip", 0.63, 3.0, is_vip=True)

    def test_timestamps_and_law_switch(self):
        frames = list(
            drift_sequence(
                [self.VIP], INTR, POSE, LAW, DepthLawSpec(6.0, 2.0), 1.0, 2.0, 10,
                depth_w=64, depth_h=40,
            )
        )
        assert len(frames) == 20
        assert frames[0].timestamp_s == 0.0
        assert frames[9].law.s_true == 1.0  # t=0.9 still pre-switch
        assert frames[10].law.s_true == 2.0  # t=1.0 switches

    def test_duration_must_exceed_switch(self):
        with pytest.raises(DomainError):
            list(
                drift_sequence([self.VIP], INTR, POSE, LAW, LAW, 5.0, 5.0, 10)
            )

    def test_a_frame_count_too_large_to_count_is_rejected(self):
        with pytest.raises(DomainError, match="too many frames"):
            next(drift_sequence([self.VIP], INTR, POSE, LAW, LAW, 0.0, 1e308, 30))

    def test_laws_are_picked_as_frames_are_taken(self):
        frames = drift_sequence([self.VIP], INTR, POSE, LAW, LAW, 0.0, 1e5, 30,
                                depth_w=64, depth_h=40)
        tracemalloc.start()
        try:
            next(frames), next(frames)
            frames.close()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_synth_exits_2_on_a_frame_count_too_large_and_makes_no_out_dir(
        self, tmp_path, capsys
    ):
        spec = json.loads((SCENES / "calib_2p5m.json").read_text())
        spec.update(duration_s=1e308, fps=30)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(spec))
        out = tmp_path / "run"
        assert main(["synth", "--scene", str(scene), "--out-dir", str(out)]) == 2
        assert f"{scene}: scene cannot be rendered" in capsys.readouterr().err
        assert not out.exists()

    def test_identical_laws_give_identical_score_streams(self):
        frames = list(
            drift_sequence([self.VIP], INTR, POSE, LAW, LAW, 1.0, 2.0, 5,
                           depth_w=64, depth_h=40)
        )
        first = frames[0].depth_map.scores.tobytes()
        assert all(f.depth_map.scores.tobytes() == first for f in frames)


class TestMapReuse:
    """A frame whose map equals the previous frame's shares its DepthMap."""

    OBJECTS = (
        SceneObject("vip", 0.63, 3.0, is_vip=True),
        SceneObject("car", 1.56, 4.6, lateral_offset_m=-1.2),
    )
    NOISY = DepthLawSpec(m_true=6.0, s_true=1.0, noise_sigma=0.01)
    POST = DepthLawSpec(m_true=6.0, s_true=1.45)

    def frames(self, pre_law, post_law, switch_time_s=1.0):
        return list(drift_sequence(self.OBJECTS, INTR, POSE, pre_law, post_law,
                                   switch_time_s, 2.0, 5, seed=3, depth_w=64, depth_h=40))

    def test_noiseless_frames_under_one_law_share_one_fresh_map(self):
        frames = self.frames(LAW, self.POST)
        _, _, regions = _project(self.OBJECTS, INTR, POSE, 64, 40)
        for group, law in ((frames[:5], LAW), (frames[5:], self.POST)):
            assert all(f.depth_map is group[0].depth_map for f in group)
            assert all(f.detections is group[0].detections for f in group)
            fresh = _paint(regions, law, None, 64, 40)
            assert group[0].depth_map.scores.tobytes() == fresh.scores.tobytes()
        assert [f.timestamp_s for f in frames] == [i / 5 for i in range(10)]

    def test_noisy_law_renders_every_frame(self):
        frames = self.frames(self.NOISY, self.NOISY)
        maps = [f.depth_map.scores.tobytes() for f in frames]
        assert len({id(f.depth_map) for f in frames}) == len(frames)
        assert len(set(maps)) == len(frames)

    @pytest.mark.parametrize("switch_time_s", [0.4, 0.5, 1.0])
    def test_map_changes_on_the_first_frame_after_the_switch(self, switch_time_s):
        frames = self.frames(LAW, self.POST, switch_time_s)
        first_after = next(i for i, f in enumerate(frames) if f.timestamp_s >= switch_time_s)
        changed = [i for i in range(1, len(frames))
                   if frames[i].depth_map is not frames[i - 1].depth_map]
        assert changed == [first_after]
        assert frames[first_after].law == self.POST

    def test_synth_writes_one_correct_map_per_frame(self, tmp_path):
        spec = {
            "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
            "depth_resolution": [64, 40],
            "fps": 5,
            "duration_s": 2,
            "objects": [{"class_label": "vip", "height_m": 0.63, "distance_m": 3.0,
                         "is_vip": True}],
            "law": {"m_true": 6.0, "s_true": 1.0},
            "drift": {"switch_time_s": 1.0, "post_law": {"m_true": 6.0, "s_true": 1.45}},
        }
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(spec))
        out = tmp_path / "run"
        assert main(["synth", "--scene", str(scene), "--out-dir", str(out)]) == 0
        lines = [json.loads(line) for line in (out / "frames.jsonl").read_text().splitlines()]
        frames = list(load_scene_spec(scene).frames())
        assert len(lines) == len(frames) == len(list((out / "maps").iterdir())) == 10
        for line, frame in zip(lines, frames):
            assert line["timestamp_s"] == frame.timestamp_s
            written = read_depth_map(out / line["depth_map_path"])
            assert written.scores.tobytes() == frame.depth_map.scores.tobytes()


class TestDrawAhead:
    """A noisy frame's draws run on one helper thread owned by the frame generator."""

    OBJECTS = TestMapReuse.OBJECTS
    NOISY = TestMapReuse.NOISY

    def frames(self, law, seed=3):
        return drift_sequence(self.OBJECTS, INTR, POSE, law, law, 0.0, 2.0, 5,
                              seed=seed, depth_w=64, depth_h=40)

    @staticmethod
    def maps(frames):
        return [f.depth_map.scores.tobytes() for f in frames]

    @staticmethod
    def fail_on_call(monkeypatch, n):
        """Make the n-th call of the draw helper raise."""
        calls, real_draw = [], synth._draw

        def draw(*args):
            calls.append(args)
            if len(calls) == n:
                raise DomainError("draw failed")
            return real_draw(*args)

        monkeypatch.setattr(synth, "_draw", draw)

    def test_noiseless_scene_starts_no_thread(self):
        before = threading.active_count()
        for _ in self.frames(LAW):
            assert threading.active_count() == before
        assert threading.active_count() == before

    def test_closing_early_joins_the_helper(self):
        full = self.maps(self.frames(self.NOISY))
        before = threading.active_count()
        frames = self.frames(self.NOISY)
        first = [next(frames) for _ in range(3)]
        assert threading.active_count() == before + 1
        frames.close()
        assert threading.active_count() == before
        assert self.maps(first) == full[:3]

    def test_a_failed_draw_surfaces_from_its_own_frame(self, monkeypatch):
        full = self.maps(self.frames(self.NOISY))
        self.fail_on_call(monkeypatch, 3)
        before = threading.active_count()
        frames = self.frames(self.NOISY)
        first = [next(frames), next(frames)]
        with pytest.raises(DomainError, match="draw failed"):
            next(frames)
        assert threading.active_count() == before
        assert self.maps(first) == full[:2]

    def test_synth_exits_2_on_a_failed_draw_and_leaves_no_stream(
        self, tmp_path, monkeypatch, capsys
    ):
        spec = {
            "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
            "depth_resolution": [64, 40],
            "fps": 5,
            "duration_s": 2,
            "objects": [{"class_label": "vip", "height_m": 0.63, "distance_m": 3.0,
                         "is_vip": True}],
            "law": {"m_true": 6.0, "s_true": 1.0, "noise_sigma": 0.01},
        }
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(spec))
        self.fail_on_call(monkeypatch, 3)
        before = threading.active_count()
        out = tmp_path / "run"
        assert main(["synth", "--scene", str(scene), "--out-dir", str(out)]) == 2
        assert "draw failed" in capsys.readouterr().err
        assert not (out / "frames.jsonl").exists()
        assert threading.active_count() == before


class TestLawSpec:
    def test_orientation_must_match_slope_sign(self):
        with pytest.raises(DomainError):
            DepthLawSpec(m_true=6.0, s_true=1.0, score_orientation="high-near")
        DepthLawSpec(m_true=-6.0, s_true=1.0, score_orientation="high-near")

    def test_zero_slope_rejected(self):
        with pytest.raises(DomainError):
            DepthLawSpec(m_true=0.0, s_true=1.0)

    def test_inverted_map_with_highest_tail_selection(self):
        """Negative-slope law: near pixels carry high scores; the nearest-region
        statistic must then take the highest tail."""
        law = DepthLawSpec(m_true=-2.0, s_true=10.0, score_orientation="high-near")
        obj = SceneObject("vip", 0.63, 3.0, is_vip=True)
        frame = one_frame([obj], INTR, POSE, law, depth_w=64, depth_h=40)
        scaled = scale_bbox(frame.detections[0].bbox, 64, 40)
        method = NormalizationMethod(LOW_THRESHOLD, lt_take="highest")
        score = normalize_region(frame.depth_map, scaled, method)
        coeffs = fit_coefficients(
            [
                CalibrationSample(law.score_for_distance(2.0), 2.0),
                CalibrationSample(law.score_for_distance(4.0), 4.0),
            ]
        )
        assert estimate_distance_depth(score, coeffs).value_m == pytest.approx(3.0, abs=1e-6)
