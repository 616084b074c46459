import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monorange import synth
from monorange.cli import _synth_frames, main
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
    estimate_distance_geometric,
    scale_bbox,
)
from monorange.neod import read_depth_map
from monorange.synth import (
    BACKGROUND_DISTANCE_M,
    DepthLawSpec,
    SceneObject,
    SceneSpec,
    _canvas,
    _noise_buffer,
    _paint,
    _project,
    load_scene_spec,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"
BENCH_SCENES = Path(__file__).resolve().parent.parent / "perfbench" / "scenes"
INTR = CameraIntrinsics(1592.0, 1280, 720, 82.6)
LAW = DepthLawSpec(m_true=6.0, s_true=1.0)


def one_frame(objects, intrinsics, law, seed=0, **kwargs):
    """The single frame of a one-second stream at 1 fps, rendered from ``seed``."""
    spec = SceneSpec(intrinsics=intrinsics, objects=tuple(objects), law=law, fps=1,
                     duration_s=1.0, **kwargs)
    return next(spec.frames(seed))


def reference_map(regions, law, rng, depth_w, depth_h):
    """Map bytes as a float64 canvas of ``rng.normal`` noise, rounded once to float32."""
    scores = np.full((depth_h, depth_w), law.score_for_distance(BACKGROUND_DISTANCE_M))
    for distance_m, r0, r1, c0, c1 in regions:
        value = law.score_for_distance(distance_m)
        if law.noise_sigma == 0:
            scores[r0:r1, c0:c1] = value
        else:
            noise = rng.normal(0.0, law.noise_sigma, size=(r1 - r0, c1 - c0))
            np.add(noise, value, out=scores[r0:r1, c0:c1])
    return scores.astype(np.float32).tobytes()


class TestSynthFrame:
    def test_projected_box_height_matches_similar_triangles(self):
        obj = SceneObject("vip", height_m=0.63, distance_m=3.0, is_vip=True)
        frame = one_frame([obj], INTR, LAW, depth_w=64, depth_h=40)
        bbox = frame.detections[0].bbox
        assert bbox.height_px == pytest.approx(1592.0 * 0.63 / 3.0, abs=1e-9)
        recovered = estimate_distance_geometric(bbox, 0.63, INTR)
        assert recovered == pytest.approx(3.0, abs=1e-9)

    def test_axis_centered_box_is_centered_on_the_frame(self):
        # f * (1.0 / 2) / 4.0 = 199 px exactly, so every edge is exact.
        obj = SceneObject("car", height_m=1.0, distance_m=4.0, width_m=1.0)
        bbox = one_frame([obj], INTR, LAW, depth_w=64, depth_h=40).detections[0].bbox
        assert (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max) == (441.0, 161.0, 839.0, 559.0)
        assert bbox.center == (640.0, 360.0)

    def test_lateral_offset_shifts_x_by_f_lateral_over_z(self):
        # f * 1.0 / 4.0 = 398 px to the right; the rows stay where they were.
        obj = SceneObject("car", height_m=1.0, distance_m=4.0, width_m=1.0, lateral_offset_m=1.0)
        bbox = one_frame([obj], INTR, LAW, depth_w=64, depth_h=40).detections[0].bbox
        assert (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max) == (839.0, 161.0, 1237.0, 559.0)

    def test_frame_filling_box_reaches_both_corners(self):
        # f = 80 px at 1 m: 16 m wide spans 1280 px and 9 m high spans 720 px,
        # so the edges land exactly on the frame's corners and the box is accepted.
        intr = CameraIntrinsics(80.0, 1280, 720)
        obj = SceneObject("car", height_m=9.0, distance_m=1.0, width_m=16.0)
        bbox = one_frame([obj], intr, LAW, depth_w=64, depth_h=40).detections[0].bbox
        assert (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max) == (0.0, 0.0, 1280.0, 720.0)

    @given(
        height=st.floats(min_value=0.1, max_value=0.8),
        width=st.floats(min_value=0.1, max_value=0.4),
        distance=st.floats(min_value=2.0, max_value=50.0),
        lateral=st.floats(min_value=-0.5, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_box_is_the_pinhole_formula(self, height, width, distance, lateral):
        obj = SceneObject("car", height, distance, lateral_offset_m=lateral, width_m=width)
        bbox = synth._object_bbox(obj, INTR)
        f = INTR.focal_length_px
        assert bbox.center[0] == pytest.approx(640.0 + f * lateral / distance, abs=1e-9)
        assert bbox.center[1] == pytest.approx(360.0, abs=1e-9)
        assert bbox.width_px == pytest.approx(f * width / distance, rel=1e-12)
        assert bbox.height_px == pytest.approx(f * height / distance, rel=1e-12)

    @pytest.mark.parametrize("distance", [0.0, -2.0])
    def test_object_on_or_behind_the_camera_rejected(self, distance):
        with pytest.raises(DomainError, match="object distance must be positive"):
            SceneObject("car", height_m=1.0, distance_m=distance)

    def test_identity_law_scores_equal_distance(self):
        law = DepthLawSpec(m_true=1.0, s_true=0.0)
        obj = SceneObject("car", height_m=1.5, distance_m=4.0)
        frame = one_frame([obj], INTR, law, depth_w=64, depth_h=40)
        scaled = scale_bbox(frame.detections[0].bbox, 64, 40)
        score = normalize_region(frame.depth_map, scaled, NormalizationMethod(LOW_THRESHOLD))
        assert score == pytest.approx(4.0, abs=1e-6)

    def test_two_distance_calibration_recovers_generating_line(self):
        # law chosen so the anchor scores are exact in float32
        samples = []
        for d in (2.5, 4.0):
            obj = SceneObject("vip", height_m=0.63, distance_m=d, is_vip=True)
            frame = one_frame([obj], INTR, LAW, depth_w=64, depth_h=40)
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
        frame = one_frame(objects, INTR, law, depth_w=256, depth_h=160)
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
            [SceneObject("vip", 0.63, 3.0, is_vip=True)], INTR, LAW,
            depth_w=64, depth_h=40,
        )
        corner = float(frame.depth_map.scores[0, 0])
        assert corner == pytest.approx(LAW.score_for_distance(BACKGROUND_DISTANCE_M), rel=1e-6)

    def test_nearer_object_overwrites_overlap(self):
        near = SceneObject("bicycle", 1.0, 2.5)
        far = SceneObject("car", 1.5, 6.0)
        frame = one_frame([far, near], INTR, LAW, depth_w=128, depth_h=80)
        scaled = scale_bbox(frame.detections[1].bbox, 128, 80)
        score = normalize_region(frame.depth_map, scaled, NormalizationMethod(MEDIAN))
        assert score == pytest.approx(LAW.score_for_distance(2.5), abs=1e-6)

    def test_out_of_frame_rejected(self):
        giant = SceneObject("car", height_m=3.0, distance_m=2.0)
        with pytest.raises(DomainError, match="projects outside the 1280x720 frame"):
            one_frame([giant], INTR, LAW)

    def test_determinism_identical_seeds_byte_identical(self):
        law = DepthLawSpec(m_true=6.0, s_true=1.0, noise_sigma=0.05)
        a = one_frame([SceneObject("vip", 0.63, 3.0, is_vip=True)], INTR, law,
                      seed=42, depth_w=64, depth_h=40)
        b = one_frame([SceneObject("vip", 0.63, 3.0, is_vip=True)], INTR, law,
                      seed=42, depth_w=64, depth_h=40)
        assert a.depth_map.scores.tobytes() == b.depth_map.scores.tobytes()
        c = one_frame([SceneObject("vip", 0.63, 3.0, is_vip=True)], INTR, law,
                      seed=43, depth_w=64, depth_h=40)
        assert a.depth_map.scores.tobytes() != c.depth_map.scores.tobytes()


class TestNoiseBits:
    """A noisy map's bytes are those of rng.normal noise in float64, rounded once."""

    H, W = 12, 16
    window = st.tuples(st.integers(0, H - 1), st.integers(1, H), st.integers(0, W - 1),
                       st.integers(1, W))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sigma=st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]), st.floats(1e-6, 10.0)),
        m_true=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
        s_true=st.floats(-5.0, 5.0),
        windows=st.lists(st.tuples(st.floats(0.5, 60.0), window), max_size=3),
        zero_at=st.integers(0, 3),
    )
    def test_same_bits_as_rng_normal_in_float64(self, seed, sigma, m_true, s_true, windows,
                                                 zero_at):
        # One region lies at s_true, so its score is -0.0 when m_true < 0; windows
        # overlap freely, and the canvas and noise buffer are reused for a second frame.
        windows.insert(min(zero_at, len(windows)), (s_true, (2, 6, 3, 9)))
        regions = [(d, r0, min(r0 + h, self.H), c0, min(c0 + w, self.W))
                   for d, (r0, h, c0, w) in windows]
        law = DepthLawSpec(m_true=m_true, s_true=s_true, noise_sigma=sigma)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        canvas = _canvas(law, self.W, self.H)
        noise = _noise_buffer(regions) if sigma > 0 else None
        for _ in range(2):
            depth_map = _paint(regions, law, canvas, rng, noise)
            expected = reference_map(regions, law, reference_rng, self.W, self.H)
            assert depth_map.scores.tobytes() == expected


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
            SceneSpec(
                intrinsics=INTR, objects=(self.VIP,), law=LAW, fps=10,
                duration_s=2.0, depth_w=64, depth_h=40, post_law=DepthLawSpec(6.0, 2.0),
                switch_time_s=1.0,
            ).frames()
        )
        assert len(frames) == 20
        assert frames[0].timestamp_s == 0.0
        assert frames[9].law.s_true == 1.0  # t=0.9 still pre-switch
        assert frames[10].law.s_true == 2.0  # t=1.0 switches

    def test_duration_must_exceed_switch(self):
        with pytest.raises(DomainError):
            list(
                SceneSpec(intrinsics=INTR, objects=(self.VIP,), law=LAW, fps=10,
                          duration_s=5.0, switch_time_s=5.0).frames()
            )

    def test_a_frame_count_too_large_to_count_is_rejected(self):
        with pytest.raises(DomainError, match="too many frames"):
            next(SceneSpec(intrinsics=INTR, objects=(self.VIP,), law=LAW, fps=30,
                           duration_s=1e308).frames())

    def test_laws_are_picked_as_frames_are_taken(self):
        frames = SceneSpec(intrinsics=INTR, objects=(self.VIP,), law=LAW, fps=30,
                           duration_s=1e5, depth_w=64, depth_h=40).frames()
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
            SceneSpec(intrinsics=INTR, objects=(self.VIP,), law=LAW, fps=5,
                      duration_s=2.0, depth_w=64, depth_h=40, post_law=LAW,
                      switch_time_s=1.0).frames()
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
        spec = SceneSpec(intrinsics=INTR, objects=self.OBJECTS, law=pre_law, fps=5,
                         duration_s=2.0, depth_w=64, depth_h=40, post_law=post_law,
                         switch_time_s=switch_time_s)
        return list(spec.frames(3))

    def test_noiseless_frames_under_one_law_share_one_fresh_map(self):
        frames = self.frames(LAW, self.POST)
        _, _, regions = _project(self.OBJECTS, INTR, 64, 40)
        for group, law in ((frames[:5], LAW), (frames[5:], self.POST)):
            assert all(f.depth_map is group[0].depth_map for f in group)
            assert all(f.detections is group[0].detections for f in group)
            fresh = _paint(regions, law, _canvas(law, 64, 40))
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


def scene_file(tmp_path, **changes):
    """A scene file: one VIP on a 64x40 map for 2 s at 5 fps, with ``changes`` applied."""
    spec = {
        "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
        "depth_resolution": [64, 40],
        "fps": 5,
        "duration_s": 2,
        "objects": [{"class_label": "vip", "height_m": 0.63, "distance_m": 3.0,
                     "is_vip": True}],
        "law": {"m_true": 6.0, "s_true": 1.0, "noise_sigma": 0.01},
        **changes,
    }
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(spec))
    return scene


class TestNoisyFrames:
    """A noisy frame is drawn and painted when it is asked for."""

    OBJECTS = TestMapReuse.OBJECTS
    NOISY = TestMapReuse.NOISY

    def frames(self, law, seed=3):
        spec = SceneSpec(intrinsics=INTR, objects=self.OBJECTS, law=law, fps=5,
                         duration_s=2.0, depth_w=64, depth_h=40)
        return spec.frames(seed)

    @staticmethod
    def maps(frames):
        return [f.depth_map.scores.tobytes() for f in frames]

    @staticmethod
    def fail_on_draw(monkeypatch, n):
        """Make the n-th region draw of the seeded generator raise."""
        calls, real_paint = [], synth._paint

        class FailingRng:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                calls.append(out.shape)
                if len(calls) == n:
                    raise DomainError("draw failed")
                return self.rng.standard_normal(out=out)

        def paint(regions, law, canvas, rng=None, noise=None):
            return real_paint(regions, law, canvas, FailingRng(rng), noise)

        monkeypatch.setattr(synth, "_paint", paint)

    def test_frames_held_at_once_keep_their_own_maps(self):
        post = DepthLawSpec(m_true=-4.0, s_true=1.45, noise_sigma=0.02)
        spec = SceneSpec(intrinsics=INTR, objects=self.OBJECTS, law=self.NOISY, fps=5,
                         duration_s=2.0, depth_w=64, depth_h=40, post_law=post,
                         switch_time_s=1.0)
        one_at_a_time = self.maps(spec.frames(3))
        held = list(spec.frames(3))
        assert self.maps(held) == one_at_a_time
        _, _, regions = _project(self.OBJECTS, INTR, 64, 40)
        rng = np.random.default_rng(3)
        assert one_at_a_time == [reference_map(regions, f.law, rng, 64, 40) for f in held]
        assert [f.law for f in held] == [self.NOISY] * 5 + [post] * 5
        assert len(set(one_at_a_time)) == len(held)

    def test_the_noise_buffer_holds_the_largest_region(self):
        _, _, regions = _project(self.OBJECTS, INTR, 64, 40)
        sizes = [(r1 - r0) * (c1 - c0) for _, r0, r1, c0, c1 in regions]
        assert len(set(sizes)) == 2
        noise = _noise_buffer(regions)
        assert noise.shape == (max(sizes),) and noise.dtype == np.float64
        assert _noise_buffer(()).shape == (0,)

    def test_only_a_noisy_scene_allocates_a_noise_buffer(self, monkeypatch):
        calls, real_buffer = [], synth._noise_buffer
        monkeypatch.setattr(synth, "_noise_buffer",
                            lambda regions: calls.append(regions) or real_buffer(regions))
        list(self.frames(LAW))
        assert calls == []
        list(self.frames(self.NOISY))
        assert len(calls) == 1

    def test_a_failed_draw_surfaces_from_its_own_frame(self, monkeypatch):
        full = self.maps(self.frames(self.NOISY))
        self.fail_on_draw(monkeypatch, 5)  # two regions a frame: frame 2's first draw
        frames = self.frames(self.NOISY)
        first = [next(frames), next(frames)]
        with pytest.raises(DomainError, match="draw failed"):
            next(frames)
        assert self.maps(first) == full[:2]

    def test_synth_exits_2_on_a_failed_draw_and_leaves_no_stream(
        self, tmp_path, monkeypatch, capsys
    ):
        scene = scene_file(tmp_path)
        self.fail_on_draw(monkeypatch, 3)  # one region a frame: frame 2
        out = tmp_path / "run"
        assert main(["synth", "--scene", str(scene), "--out-dir", str(out)]) == 2
        assert f"{scene}: scene cannot be rendered (draw failed)" in capsys.readouterr().err
        assert not (out / "frames.jsonl").exists()
        assert sorted(p.name for p in (out / "maps").iterdir()) == [
            "frame_000000.neod", "frame_000001.neod"]

    def test_a_noisy_scene_without_objects_renders_its_background(self, tmp_path):
        law = DepthLawSpec(m_true=6.0, s_true=1.0, noise_sigma=0.01)
        frames = list(SceneSpec(intrinsics=INTR, objects=(), law=law, fps=5, duration_s=1.0,
                                depth_w=64, depth_h=40).frames(3))
        background = _canvas(law, 64, 40).tobytes()
        assert self.maps(frames) == [background] * 5
        assert all(f.detections == () for f in frames)
        scene = scene_file(tmp_path, objects=[])
        out = tmp_path / "run"
        assert main(["synth", "--scene", str(scene), "--out-dir", str(out)]) == 0
        lines = (out / "frames.jsonl").read_text().splitlines()
        assert len(lines) == 10
        for line in lines:
            written = read_depth_map(out / json.loads(line)["depth_map_path"])
            assert written.scores.tobytes() == background

    def test_synth_exits_2_on_a_map_too_large_to_allocate_and_makes_no_out_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        def canvas(law, depth_w, depth_h):  # what np.full raises for 14.6 TiB
            raise MemoryError(f"Unable to allocate 14.6 TiB for an array with shape "
                              f"({depth_h}, {depth_w}) and data type float32")

        monkeypatch.setattr(synth, "_canvas", canvas)
        # A noiseless law, so that nothing but the canvas would be allocated.
        scene = scene_file(tmp_path, depth_resolution=[2000000, 2000000],
                           law={"m_true": 6.0, "s_true": 1.0})
        out = tmp_path / "run"
        assert main(["synth", "--scene", str(scene), "--out-dir", str(out)]) == 2
        assert (f"error: {scene}: scene cannot be rendered (Unable to allocate 14.6 TiB "
                f"for an array with shape (2000000, 2000000)") in capsys.readouterr().err
        assert not out.exists()


class TestOneFrameHeld:
    """A noisy frame's map is gone before the next one is painted, and a law's canvas
    before the next law's is made."""

    NOISY = TestMapReuse.NOISY
    POST = DepthLawSpec(m_true=-4.0, s_true=1.45, noise_sigma=0.02)
    # Noisy to noisy, noisy to noiseless and noiseless to noisy: a noiseless
    # law's frames share one map.
    LAWS = pytest.mark.parametrize("law, post_law", [
        (NOISY, POST), (NOISY, TestMapReuse.POST), (LAW, POST)],
        ids=["noisy-noisy", "noisy-noiseless", "noiseless-noisy"])

    @staticmethod
    def watch(monkeypatch):
        """Weak references to each map and canvas made; making one checks that the
        earlier ones are gone."""
        maps, canvases = [], []

        def watched(made, fn):
            def call(*args):
                assert [ref() for ref in made] == [None] * len(made)
                obj = fn(*args)
                made.append(weakref.ref(obj))
                return obj
            return call

        monkeypatch.setattr(synth, "_paint", watched(maps, synth._paint))
        monkeypatch.setattr(synth, "_canvas", watched(canvases, synth._canvas))
        return maps, canvases

    @staticmethod
    def spec(law, post_law):
        return SceneSpec(intrinsics=INTR, objects=TestMapReuse.OBJECTS, law=law, fps=5,
                         duration_s=2.0, depth_w=64, depth_h=40, post_law=post_law,
                         switch_time_s=1.0)

    @staticmethod
    def only_the_last_is_alive(maps):
        return [ref() is None for ref in maps] == [True] * (len(maps) - 1) + [False]

    @LAWS
    def test_frames_drops_the_previous_map_and_canvas(self, monkeypatch, law, post_law):
        maps, canvases = self.watch(monkeypatch)
        frames = self.spec(law, post_law).frames(3)
        for taken in range(1, 11):
            assert next(frames).law == (law if taken <= 5 else post_law)
            assert self.only_the_last_is_alive(maps)
        assert len(maps) == sum(1 + 4 * (x.noise_sigma > 0) for x in (law, post_law))
        assert len(canvases) == 2

    @LAWS
    def test_synth_frames_keeps_no_earlier_frame(self, monkeypatch, law, post_law):
        maps, canvases = self.watch(monkeypatch)
        frames = _synth_frames("scene.json", self.spec(law, post_law), 3)
        for taken in range(1, 11):
            assert next(frames)[1].frame_id == f"frame_{taken - 1:06d}"
            assert self.only_the_last_is_alive(maps)
        assert len(canvases) == 2

    def test_synth_peak_memory_is_one_frame(self, tmp_path):
        w, h = 320, 200
        scene = scene_file(
            tmp_path, depth_resolution=[w, h],
            objects=[{"class_label": "vip", "height_m": 0.63, "distance_m": 3.0,
                      "is_vip": True},
                     {"class_label": "car", "height_m": 1.56, "distance_m": 4.6,
                      "lateral_offset_m": -1.2}],
            drift={"switch_time_s": 1.0,
                   "post_law": {"m_true": -4.0, "s_true": 1.45, "noise_sigma": 0.02}},
        )
        argv = ["synth", "--scene", str(scene), "--out-dir", str(tmp_path / "run")]
        assert main(argv) == 0  # imports and caches are made before memory is traced
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        spec = load_scene_spec(scene)
        _, _, regions = _project(spec.objects, spec.intrinsics, w, h)
        largest = max((r1 - r0) * (c1 - c0) for _, r0, r1, c0, c1 in regions)
        canvas = one_map = 4 * w * h
        assert peak < canvas + one_map + 8 * largest + 64_000


class TestLawSpec:
    def test_zero_slope_rejected(self):
        with pytest.raises(DomainError):
            DepthLawSpec(m_true=0.0, s_true=1.0)

    @pytest.mark.parametrize("sigma", [-0.01, float("nan")])
    def test_noise_sigma_below_zero_or_nan_rejected(self, sigma):
        with pytest.raises(DomainError, match=f"noise sigma must be >= 0, got {sigma}"):
            DepthLawSpec(m_true=6.0, s_true=1.0, noise_sigma=sigma)

    def test_inverted_map_with_highest_tail_selection(self):
        """Negative-slope law: near pixels carry high scores; the nearest-region
        statistic must then take the highest tail."""
        law = DepthLawSpec(m_true=-2.0, s_true=10.0)
        obj = SceneObject("vip", 0.63, 3.0, is_vip=True)
        frame = one_frame([obj], INTR, law, depth_w=64, depth_h=40)
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


class TestSceneFile:
    @pytest.mark.parametrize("height", [1.5, 0.0, -3.0])
    def test_drone_height_is_an_ignored_key(self, tmp_path, height):
        # Box edges are the pinhole formula alone. The benchmark's scenes still
        # set the key, so it loads, whatever its value, and changes no byte.
        for path in sorted(BENCH_SCENES.glob("*.json")):
            payload = json.loads(path.read_text())
            assert payload.pop("drone_height_m") == 1.5
            without = tmp_path / path.name
            without.write_text(json.dumps(payload))
            assert load_scene_spec(path) == load_scene_spec(without)
        scene = json.loads((SCENES / "static_mixed.json").read_text())
        with_key = tmp_path / "with_key.json"
        with_key.write_text(json.dumps({**scene, "drone_height_m": height}))
        a, b = tmp_path / "a", tmp_path / "b"
        for scene_path, out in ((SCENES / "static_mixed.json", a), (with_key, b)):
            assert main(["synth", "--scene", str(scene_path), "--out-dir", str(out),
                         "--seed", "3"]) == 0
        files_a = sorted(f.relative_to(a) for f in a.rglob("*") if f.is_file())
        files_b = sorted(f.relative_to(b) for f in b.rglob("*") if f.is_file())
        assert files_a == files_b and len(files_a) == 11
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()
