"""Byte-identity guard for the estimators and the synthetic suite.

A small noisy drift scene is synthesized and run through ``estimate neo``,
``estimate neo_norc`` with every normalization method, and the three
estimators that read no depth map. The sha256 of each output file is pinned:
a change that alters a single output byte is a behaviour change and must
update these digests on purpose.

A second scene keeps every score negative (its law puts even the 50 m
background at -1.67), so it pins the sign-bit code paths of
:func:`monorange.depth.normalize_region` that the usual non-negative maps
never reach.

Two more scenes switch between a noiseless and a noisy law, one each way.
Noiseless frames draw nothing from the generator's random stream, so their
pins guard which frames draw and in what order around the switch.

Synthesizing into a directory that already holds outputs, including larger
maps, must give the same pinned digests: maps are overwritten in place and
trimmed.

Last, ``scripts/run_synthetic_suite.py`` is run and one sha256 over the
sorted (relative path, sha256) pairs of all its output files is pinned.
"""

import hashlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from monorange.cli import main
from monorange.depth import METHOD_KINDS

SUITE_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_synthetic_suite.py"

SCENE = {
    "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
    "depth_resolution": [256, 96],
    "fps": 10,
    "duration_s": 10,
    "vip_id": "S1",
    "objects": [
        {"class_label": "vip", "height_m": 0.63, "distance_m": 3.0, "is_vip": True},
        {"class_label": "bystander", "height_m": 1.65, "distance_m": 4.0,
         "lateral_offset_m": 1.0},
        {"class_label": "car", "height_m": 1.56, "distance_m": 4.6,
         "lateral_offset_m": -1.2},
    ],
    "law": {"m_true": 6.0, "s_true": 1.0, "noise_sigma": 0.01},
    "drift": {"switch_time_s": 5.0,
              "post_law": {"m_true": 6.0, "s_true": 1.45, "noise_sigma": 0.01}},
}

PROFILE = {"vip_id": "S1", "m": 6.0, "s": 1.0, "unit": "m", "pair": [2.5, 4.0],
           "lt_percentile": 10.0, "smooth_window": 1}

NEGATIVE_SCENE = {
    **SCENE,
    "law": {"m_true": 6.0, "s_true": 60.0, "noise_sigma": 0.01},
    "drift": {"switch_time_s": 5.0,
              "post_law": {"m_true": 6.0, "s_true": 60.45, "noise_sigma": 0.01}},
}

NEGATIVE_PROFILE = {**PROFILE, "s": 60.0}

NEGATIVE_METHODS = ("disc_center", "low_threshold", "mean")

MIXED_NOISE_SCENES = {
    "noiseless_to_noisy": {
        **SCENE,
        "law": {"m_true": 6.0, "s_true": 1.0},
        "drift": {"switch_time_s": 5.0,
                  "post_law": {"m_true": 6.0, "s_true": 1.45, "noise_sigma": 0.01}},
    },
    "noisy_to_noiseless": {
        **SCENE,
        "drift": {"switch_time_s": 5.0, "post_law": {"m_true": 6.0, "s_true": 1.45}},
    },
}

EXPECTED = {
    "frames.jsonl": "cd3e1bf0dbe389c4723dc5a70487a9ab0418a40f01fb53f43cefcf11891aab7d",
    "maps": "05c8fdf51880b63fb0c5db720c2faee3063e7d3da74fa9f1f0da46e62fddbfe2",
    "neo": "be2de5eaf4c3b401717441a15f70b552a05888cb5433446703859ddb481c09c6",
    "neo_norc.center": "1a14ae00e848a0a8372f7b484521bc85fb2df5a57047ca023f992518c15832e2",
    "neo_norc.center_ring": "5f2e76470a2c4512fe96a58c468000be73a5b0754aa60eebf795a28dda539acd",
    "neo_norc.disc_center": "8396ba6b34c9215cbbc22f382953c77a90c4a25b650a16a8a9dadc0be1f608df",
    "neo_norc.five_point_center_weighted":
        "3891474672c5536833a1a693dd9a5705674c57570b75b3bc7a3af3fa181d2c67",
    "neo_norc.five_point_uniform":
        "dfd28b62e6404dfa75bbf0d4884006a4f8a32b05e7a52d322f5f0e6de2c14a9a",
    "neo_norc.low_threshold": "bcfc1a8880145cf1a35f9e826a79a4f3b6b72d59b354932b181be7f84bdd398d",
    "neo_norc.mean": "57768397db1df028e1681dab82b5741c6ff2badeb186d4bb68ccb268a6a23d33",
    "neo_norc.median": "3a53da2ea1657c77d85dc6e38f105beee7507b7a9110dbbff76521daa9f13bb2",
    "regression": "834406f94086f6a6cb3d68c51c43348a775ba9b4679f535b833cbd38bfa5d687",
    "geometric": "475803881634404a5cf23e3a21ab37000619a2b7adddce900213bfd75e7a5de8",
    "geometric_star": "bc755ec4b4929bcf2ba98642b7c1cb52fd0bfbfb0042bc07e5f291836216818f",
}


EXPECTED_NEGATIVE = {
    "frames.jsonl": "cd3e1bf0dbe389c4723dc5a70487a9ab0418a40f01fb53f43cefcf11891aab7d",
    "maps": "b6e20fc27c40fe7b7565bc57e36125b7ff7169bfa967c51de0ec1e79a2546942",
    "neo": "f5d90a24fab1ce8dc73b83c5a1786786a1432322705c4e2362c201c75de9c468",
    "neo_norc.disc_center": "74ebd21150f490c793a7c230e34c9ee01e95c1a2f92086e722299ff57fcad1fb",
    "neo_norc.low_threshold": "14996afe379d1482e63c7d58eddab890951e523cedbd4e66a5db4e4e1b4bd3d5",
    "neo_norc.mean": "402606d7b90282e5d0ab2d717247b2a322f807ab004008e7956fa2ff65378725",
}

EXPECTED_MIXED_NOISE = {
    "noiseless_to_noisy": {
        "frames.jsonl": "cd3e1bf0dbe389c4723dc5a70487a9ab0418a40f01fb53f43cefcf11891aab7d",
        "maps": "137c850c57f32602d71dc6bff5019bd9122712928e4234828ff48e7a1c5a59f8",
        "neo": "e78e2602e4b5f253e87fb8590ac92bd12ad8f9cf04cfb9651c480f0df0ead1ba",
    },
    "noisy_to_noiseless": {
        "frames.jsonl": "cd3e1bf0dbe389c4723dc5a70487a9ab0418a40f01fb53f43cefcf11891aab7d",
        "maps": "d731bba214dcbd270f18ac7fb30c48ca6ac798d4fe8468e4b610bd59862386a8",
        "neo": "cb183c0f388e5ed9395df849d8d5dd542eba79d33d1a3386ea5d326937279415",
    },
}

SUITE_FILES = 355
SUITE_SHA256 = "b4f0cb2d8c42e179796a40876d85f31d25d989bc836b45fbad56f711a759cb4d"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth(base, scene_spec, run, seed=29):
    """Synthesize the scene into ``run``; the digests of the stream and of all maps."""
    scene = base / "scene.json"
    scene.write_text(json.dumps(scene_spec))
    assert main(["synth", "--scene", str(scene), "--out-dir", str(run), "--seed", str(seed)]) == 0
    maps = hashlib.sha256()
    for path in sorted((run / "maps").iterdir()):
        maps.update(path.read_bytes())
    return {"frames.jsonl": sha256(run / "frames.jsonl"), "maps": maps.hexdigest()}


def run_scene(base, scene_spec, profile_spec, methods, box_estimators=False):
    """Synthesize the scene and return the digests of its inputs and estimates.

    ``box_estimators`` adds the regression and pinhole estimators, which read
    the boxes alone.
    """
    profile = base / "depth.json"
    profile.write_text(json.dumps(profile_spec))
    run = base / "run"
    digests = synth(base, scene_spec, run)
    stream = run / "frames.jsonl"

    def estimate(name, *flags):
        out = base / f"{name}.jsonl"
        argv = ["estimate", "--stream", str(stream), "--out", str(out), *flags]
        assert main(argv) == 0
        digests[name] = sha256(out)

    depth = ("--depth-profile", str(profile))
    estimate("neo", "--estimator", "neo", *depth, "--gt-source", "truth", "--fps", "10",
             "--seed", "29")
    for kind in methods:
        estimate(f"neo_norc.{kind}", "--estimator", "neo_norc", *depth, "--norm-method", kind)
    if box_estimators:
        estimate("regression", "--estimator", "regression",
                 "--regression-profile", "builtin:P1")
        for name in ("geometric", "geometric_star"):
            estimate(name, "--estimator", name, "--camera-profile", "builtin:tello")
    return digests


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_scene(
        tmp_path_factory.mktemp("digests"), SCENE, PROFILE, METHOD_KINDS, box_estimators=True
    )


@pytest.fixture(scope="module")
def negative_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("negative")
    return run_scene(base, NEGATIVE_SCENE, NEGATIVE_PROFILE, NEGATIVE_METHODS)


@pytest.fixture(scope="module", params=sorted(MIXED_NOISE_SCENES))
def mixed_noise_outputs(request, tmp_path_factory):
    base = tmp_path_factory.mktemp(request.param)
    return request.param, run_scene(base, MIXED_NOISE_SCENES[request.param], PROFILE, ())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_is_byte_identical(outputs, name):
    assert outputs[name] == EXPECTED[name]


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED_NEGATIVE))
def test_negative_scene_output_is_byte_identical(negative_outputs, name):
    assert negative_outputs[name] == EXPECTED_NEGATIVE[name]


def test_every_negative_scene_output_is_pinned(negative_outputs):
    assert sorted(negative_outputs) == sorted(EXPECTED_NEGATIVE)


def test_mixed_noise_scene_output_is_byte_identical(mixed_noise_outputs):
    scene, digests = mixed_noise_outputs
    assert digests == EXPECTED_MIXED_NOISE[scene]


@pytest.mark.parametrize("first_seed, first_resolution", [
    (29, [256, 96]),  # the same run again
    (30, [512, 192]),  # other scores in larger maps, which must be overwritten and trimmed
])
def test_synth_over_existing_outputs_is_byte_identical(tmp_path, first_seed, first_resolution):
    run = tmp_path / "run"
    synth(tmp_path, {**SCENE, "depth_resolution": first_resolution}, run, seed=first_seed)
    digests = synth(tmp_path, SCENE, run)
    assert digests == {name: EXPECTED[name] for name in ("frames.jsonl", "maps")}


def test_synthetic_suite_is_byte_identical(tmp_path, monkeypatch):
    out = tmp_path / "suite"
    monkeypatch.setattr(sys, "argv", [str(SUITE_SCRIPT), "--out", str(out), "--seed", "17"])
    runpy.run_path(str(SUITE_SCRIPT), run_name="__main__")
    pairs = sorted(
        (p.relative_to(out).as_posix(), sha256(p)) for p in out.rglob("*") if p.is_file()
    )
    text = "".join(f"{rel} {digest}\n" for rel, digest in pairs)
    assert len(pairs) == SUITE_FILES
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_SHA256
