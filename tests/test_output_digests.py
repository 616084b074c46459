"""Byte-identity guard for the depth estimators.

A small noisy drift scene is synthesized and run through ``estimate neo``
and ``estimate neo_norc`` with every normalization method. The sha256 of
each output file is pinned: a change to the depth path that alters a single
output byte is a behaviour change and must update these digests on purpose.
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


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("digests")
    scene = base / "scene.json"
    scene.write_text(json.dumps(SCENE))
    profile = base / "depth.json"
    profile.write_text(json.dumps(PROFILE))
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
    for kind in METHOD_KINDS:
        estimate(f"neo_norc.{kind}", "--estimator", "neo_norc", "--norm-method", kind)
    return digests


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_is_byte_identical(outputs, name):
    assert outputs[name] == EXPECTED[name]


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(EXPECTED)
