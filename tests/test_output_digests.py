"""Byte-identity guard for the depth estimators.

A small noisy drift scene is synthesized and run through ``estimate neo``
and ``estimate neo_norc`` with every normalization method. The sha256 of
each output file is pinned: a change to the depth path that alters a single
output byte is a behaviour change and must update these digests on purpose.

A second scene keeps every score negative (its law puts even the 50 m
background at -1.67), so it pins the sign-bit code paths of
:func:`monorange.depth.normalize_region` that the usual non-negative maps
never reach.
"""

import hashlib
import json
from pathlib import Path

import pytest

from monorange.cli import main
from monorange.depth import METHOD_KINDS

SCENE = {
    "camera": {"focal_length_px": 1592.0, "image_w": 1280, "image_h": 720},
    "drone_height_m": 1.5,
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

EXPECTED = {
    "frames.jsonl": "c468b259fc9e8ad3f440fdd55da0bba7269f5c0f4356a03a281c24b1283a2851",
    "maps": "05c8fdf51880b63fb0c5db720c2faee3063e7d3da74fa9f1f0da46e62fddbfe2",
    "neo": "be2de5eaf4c3b401717441a15f70b552a05888cb5433446703859ddb481c09c6",
    "neo_norc.center": "8a31f663e4355c078a544859852b10451c5af455feacfb918ff631f5ba83e17d",
    "neo_norc.center_ring": "5f2e76470a2c4512fe96a58c468000be73a5b0754aa60eebf795a28dda539acd",
    "neo_norc.disc_center": "8396ba6b34c9215cbbc22f382953c77a90c4a25b650a16a8a9dadc0be1f608df",
    "neo_norc.five_point_center_weighted":
        "82559807d17a4bd271ebb219dfc49294485d74c0f400945011ccdad0d5a1aba7",
    "neo_norc.five_point_uniform":
        "3453b3745a2317dfdca4d054a2e58959c7f30ae9279fe8c4737c44fed5f51880",
    "neo_norc.low_threshold": "bcfc1a8880145cf1a35f9e826a79a4f3b6b72d59b354932b181be7f84bdd398d",
    "neo_norc.mean": "57768397db1df028e1681dab82b5741c6ff2badeb186d4bb68ccb268a6a23d33",
    "neo_norc.median": "3a53da2ea1657c77d85dc6e38f105beee7507b7a9110dbbff76521daa9f13bb2",
}


EXPECTED_NEGATIVE = {
    "frames.jsonl": "c468b259fc9e8ad3f440fdd55da0bba7269f5c0f4356a03a281c24b1283a2851",
    "maps": "b6e20fc27c40fe7b7565bc57e36125b7ff7169bfa967c51de0ec1e79a2546942",
    "neo": "f5d90a24fab1ce8dc73b83c5a1786786a1432322705c4e2362c201c75de9c468",
    "neo_norc.disc_center": "74ebd21150f490c793a7c230e34c9ee01e95c1a2f92086e722299ff57fcad1fb",
    "neo_norc.low_threshold": "14996afe379d1482e63c7d58eddab890951e523cedbd4e66a5db4e4e1b4bd3d5",
    "neo_norc.mean": "402606d7b90282e5d0ab2d717247b2a322f807ab004008e7956fa2ff65378725",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_scene(base, scene_spec, profile_spec, methods):
    """Synthesize the scene and return the digests of its inputs and estimates."""
    scene = base / "scene.json"
    scene.write_text(json.dumps(scene_spec))
    profile = base / "depth.json"
    profile.write_text(json.dumps(profile_spec))
    run = base / "run"
    assert main(["synth", "--scene", str(scene), "--out-dir", str(run), "--seed", "29"]) == 0
    stream = run / "frames.jsonl"
    digests = {"frames.jsonl": sha256(stream)}
    maps = hashlib.sha256()
    for path in sorted((run / "maps").iterdir()):
        maps.update(path.read_bytes())
    digests["maps"] = maps.hexdigest()

    def estimate(name, *flags):
        out = base / f"{name}.jsonl"
        argv = ["estimate", "--stream", str(stream), "--depth-profile", str(profile),
                "--out", str(out), *flags]
        assert main(argv) == 0
        digests[name] = sha256(out)

    estimate("neo", "--estimator", "neo", "--gt-source", "truth", "--fps", "10",
             "--seed", "29")
    for kind in methods:
        estimate(f"neo_norc.{kind}", "--estimator", "neo_norc", "--norm-method", kind)
    return digests


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_scene(tmp_path_factory.mktemp("digests"), SCENE, PROFILE, METHOD_KINDS)


@pytest.fixture(scope="module")
def negative_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("negative")
    return run_scene(base, NEGATIVE_SCENE, NEGATIVE_PROFILE, NEGATIVE_METHODS)


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
