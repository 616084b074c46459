"""The frame-stream codec against the straightforward code it replaced.

``reference_read_annotations`` is the earlier parser: one helper call per
box, generator expressions, and a second pass to count ``is_vip``. The lean
parser must yield equal frames or raise the same ``FormatError`` on every
valid stream and on every one-field mutation of one. Where the reference
crashed with another exception, or let through a ``depth_map_path`` that is
not a string or a ``ground_truth`` that is neither null nor an object, the
lean parser must raise a ``FormatError`` naming file:line.

The reference also carries one rule added after the lean parser replaced
it: a ground-truth key that more than one detection carries (``vip`` for the
flagged detection, the class label otherwise) is ambiguous, and the frame is
a ``FormatError`` naming file:line. It checks that rule the plain way, by
counting every key over every detection.
"""

import copy
import json
import math

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from monorange.cli import FrameAnnotation, read_annotations
from monorange.common import (
    PARSE_ERRORS,
    DomainError,
    FormatError,
    canonical_json,
    canonical_jsonl_line,
    read_lines,
)
from monorange.geometry import BoundingBox, Detection


def reference_detection(payload):
    box = payload["bbox"]
    return Detection(
        bbox=BoundingBox(
            x_min=float(box["x_min"]),
            y_min=float(box["y_min"]),
            x_max=float(box["x_max"]),
            y_max=float(box["y_max"]),
            resolution_w=int(box["resolution_w"]),
            resolution_h=int(box["resolution_h"]),
        ),
        class_label=str(payload["class_label"]),
        confidence=float(payload.get("confidence", 1.0)),
        is_vip=bool(payload.get("is_vip", False)),
    )


def reference_read_annotations(path):
    previous_ts = None
    for lineno, line in read_lines(path, "stream file"):
        try:
            payload = json.loads(line)
            ann = FrameAnnotation(
                frame_id=str(payload["frame_id"]),
                timestamp_s=float(payload["timestamp_s"]),
                detections=tuple(
                    reference_detection(d) for d in payload.get("detections", [])
                ),
                depth_map_path=payload.get("depth_map_path"),
                ground_truth={
                    str(k): float(v) for k, v in (payload.get("ground_truth") or {}).items()
                }
                or None,
                vip_id=str(payload.get("vip_id", "")),
                scene=str(payload.get("scene", "")),
            )
        except (DomainError, *PARSE_ERRORS) as exc:
            raise FormatError(f"{path}:{lineno}: malformed frame annotation ({exc})") from exc
        if not math.isfinite(ann.timestamp_s):
            raise FormatError(f"{path}:{lineno}: timestamp {ann.timestamp_s} is not finite")
        for key, truth in (ann.ground_truth or {}).items():
            if not (truth > 0.0 and math.isfinite(truth)):
                raise FormatError(
                    f"{path}:{lineno}: ground truth {key!r} is {truth}, "
                    "not a positive finite distance"
                )
        vips = sum(det.is_vip for det in ann.detections)
        if vips > 1:
            raise FormatError(
                f"{path}:{lineno}: {vips} detections flagged is_vip; "
                "a frame has at most one followed person"
            )
        for key in ann.ground_truth or {}:
            carriers = sum(("vip" if det.is_vip else det.class_label) == key
                           for det in ann.detections)
            if carriers > 1:
                raise FormatError(
                    f"{path}:{lineno}: ambiguous ground truth ({carriers} detections "
                    f"carry the ground-truth key {key!r})"
                )
        if previous_ts is not None and ann.timestamp_s < previous_ts:
            raise FormatError(
                f"{path}:{lineno}: timestamps must be non-decreasing "
                f"({ann.timestamp_s} after {previous_ts})"
            )
        previous_ts = ann.timestamp_s
        yield ann


def typed_as_documented(frame):
    """Whether the optional fields the reference passed on unchecked have their types."""
    map_path, truth = frame.get("depth_map_path"), frame.get("ground_truth")
    return (map_path is None or isinstance(map_path, str)) and (
        truth is None or isinstance(truth, dict))


def raised_line(exc, path):
    """The line of ``path`` that a ``FormatError`` names."""
    return int(str(exc)[len(f"{path}:"):].partition(":")[0])


def outcome(reader, path):
    """('ok', frames) or ('raised', exception) for reading the whole stream."""
    try:
        return "ok", list(reader(path))
    except Exception as exc:  # the reference raises more than FormatError
        return "raised", exc


coords = st.floats(0.0, 600.0, allow_nan=False)


@st.composite
def detection(draw):
    x0, y0 = draw(coords), draw(coords)
    det = {
        "bbox": {
            "x_min": x0, "y_min": y0,
            "x_max": x0 + draw(st.floats(0.5, 600.0)), "y_max": y0 + draw(st.floats(0.5, 100.0)),
            "resolution_w": 1280, "resolution_h": 720,
        },
        "class_label": draw(st.sampled_from(["vip", "car", "bicycle"])),
    }
    if draw(st.booleans()):
        det["confidence"] = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        det["is_vip"] = False
    return det


@st.composite
def stream_payloads(draw):
    """Two or three valid frames in time order."""
    frames = []
    t = 0.0
    for i in range(draw(st.integers(2, 3))):
        t += draw(st.sampled_from([0.0, 0.1, 0.5]))
        frame = {"frame_id": f"frame_{i:06d}", "timestamp_s": t,
                 "detections": draw(st.lists(detection(), max_size=3))}
        if frame["detections"] and draw(st.booleans()):
            frame["detections"][0]["is_vip"] = True
        if draw(st.booleans()):
            frame["depth_map_path"] = f"maps/frame_{i:06d}.neod"
        if draw(st.booleans()):
            frame["ground_truth"] = draw(st.dictionaries(
                st.sampled_from(["vip", "car"]), st.floats(0.1, 50.0), min_size=1))
        if draw(st.booleans()):
            frame["vip_id"] = "S1"
        if draw(st.booleans()):
            frame["scene"] = "drift"
        frames.append(frame)
    return frames


# Values that replace one field: type swaps, NaN and infinity as strings and
# as numbers, integers too large for a float, zero and negative sizes.
REPLACEMENTS = [
    None, True, 0, -1, 7, 10**400, 0.0, -2.5, "", "abc", "12", "nan", "inf", "-inf",
    float("nan"), float("inf"), [], [1], {}, {"a": 1},
]

MISSING = object()


TOP_LEVEL = [(key,) for key in ("frame_id", "timestamp_s", "detections", "depth_map_path",
                                 "ground_truth", "vip_id", "scene")]


def field_paths(frame):
    """Every field of a frame as a path of keys and indices."""
    paths = list(TOP_LEVEL)
    for i, det in enumerate(frame["detections"]):
        paths.append(("detections", i))
        paths += [("detections", i, key) for key in ("bbox", "class_label", "confidence",
                                                      "is_vip")]
        paths += [("detections", i, "bbox", key) for key in det["bbox"]]
    if isinstance(frame.get("ground_truth"), dict):
        paths += [("ground_truth", key) for key in frame["ground_truth"]]
    return paths


def mutate(frame, path, value):
    target = frame
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        if isinstance(target, dict):
            target.pop(path[-1], None)
        else:
            del target[path[-1]]
    else:
        target[path[-1]] = value


@st.composite
def mutated_streams(draw):
    frames = draw(stream_payloads())
    index = draw(st.integers(0, len(frames) - 1))
    frame = copy.deepcopy(frames[index])
    kind = draw(st.sampled_from(
        ["replace", "replace", "replace", "missing", "second-vip", "earlier-time", "none"]))
    if kind == "second-vip" and len(frame["detections"]) >= 2:
        for det in frame["detections"][:2]:
            det["is_vip"] = True
    elif kind == "earlier-time" and index > 0:
        frame["timestamp_s"] = frames[index - 1]["timestamp_s"] - 0.25
    elif kind in ("replace", "missing"):
        path = draw(st.sampled_from(TOP_LEVEL) | st.sampled_from(field_paths(frame)))
        mutate(frame, path, MISSING if kind == "missing" else draw(st.sampled_from(REPLACEMENTS)))
    frames[index] = frame
    return frames, index


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "frames.jsonl"


@settings(max_examples=200, deadline=None)
@given(case=mutated_streams())
def test_lean_parser_matches_reference(stream_file, case):
    frames, index = case
    stream_file.write_text("".join(json.dumps(f) + "\n" for f in frames))
    ref_kind, ref = outcome(reference_read_annotations, stream_file)
    new_kind, new = outcome(read_annotations, stream_file)
    event(f"reference {ref_kind} {type(ref).__name__}, lean {new_kind} {type(new).__name__}")
    documented = typed_as_documented(frames[index])
    if ref_kind == "ok" and documented:
        assert new_kind == "ok", new
        assert new == ref
    elif (ref_kind == "raised" and isinstance(ref, FormatError)
          and (documented or raised_line(ref, stream_file) <= index)):
        # A valid frame may be ambiguous, so the reference can stop before
        # the mutated frame as well as at it.
        assert new_kind == "raised" and type(new) is FormatError
        assert str(new) == str(ref)
    else:
        # The reference crashed (a truthy ground truth that is not an
        # object) or let a field of another type through, perhaps to stop at
        # an ambiguous frame after it.
        assert new_kind == "raised" and type(new) is FormatError, (ref, new)
        assert str(new).startswith(f"{stream_file}:{index + 1}: malformed frame annotation (")
        assert not (ref_kind == "ok" and documented)


def test_ambiguous_ground_truth_is_a_format_error(stream_file):
    """A truth key that two detections carry names file:line; one carrier is fine."""
    box = {"x_min": 10.0, "y_min": 10.0, "x_max": 50.0, "y_max": 90.0,
           "resolution_w": 1280, "resolution_h": 720}
    car, vip = {"bbox": box, "class_label": "car"}, {"bbox": box, "class_label": "vip"}
    flagged = {**vip, "is_vip": True}
    valid = {"frame_id": "f", "timestamp_s": 0.0, "detections": [car], "ground_truth": {"car": 5}}
    for detections, truth, text in [
        ([car, car], {"car": 5.0}, "2 detections carry the ground-truth key 'car'"),
        ([flagged, car, car], {"vip": 3.0, "car": 5.0},
         "2 detections carry the ground-truth key 'car'"),
        ([flagged, vip], {"vip": 3.0}, "2 detections carry the ground-truth key 'vip'"),
        ([car, car, car], {"car": 5.0}, "3 detections carry the ground-truth key 'car'"),
        ([car, car], {"vip": 3.0}, None),
        ([flagged, car], {"vip": 3.0, "car": 5.0}, None),
    ]:
        frame = {**valid, "detections": detections, "ground_truth": truth}
        stream_file.write_text(json.dumps(valid) + "\n" + json.dumps(frame) + "\n")
        if text is None:
            assert [ann.ground_truth for ann in read_annotations(stream_file)] == [
                {"car": 5.0}, truth]
            continue
        with pytest.raises(FormatError) as info:
            list(read_annotations(stream_file))
        assert str(info.value) == f"{stream_file}:2: ambiguous ground truth ({text})"


def test_fields_of_another_type_are_format_errors(stream_file):
    """The inputs the reference crashed on or let through, each named by file:line."""
    valid = {"frame_id": "f", "timestamp_s": 0.0, "detections": []}
    for field, value, text in [
        ("ground_truth", [1], "ground_truth is list, not an object"),
        ("ground_truth", "abc", "ground_truth is str, not an object"),
        ("ground_truth", 5, "ground_truth is int, not an object"),
        ("ground_truth", 0, "ground_truth is int, not an object"),
        ("ground_truth", False, "ground_truth is bool, not an object"),
        ("ground_truth", "", "ground_truth is str, not an object"),
        ("ground_truth", [], "ground_truth is list, not an object"),
        ("depth_map_path", 5, "depth_map_path is int, not a string"),
    ]:
        stream_file.write_text(json.dumps(valid) + "\n" + json.dumps({**valid, field: value}))
        with pytest.raises(FormatError) as info:
            list(read_annotations(stream_file))
        assert str(info.value) == f"{stream_file}:2: malformed frame annotation ({text})"


keys = st.sampled_from(["frame_id", "distance_m", "flags", "is_vip", "score", "é", ""])
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.none() | st.booleans() | st.integers() | finite | st.text(max_size=4)
records = st.dictionaries(
    keys,
    st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(keys, inner, max_size=3), max_leaves=6),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(payload=records)
def test_shared_encoders_match_json_dumps(payload):
    assert canonical_jsonl_line(payload) == (
        json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n")
    assert canonical_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_shared_encoders_refuse_non_finite_numbers(value):
    for encode in (canonical_jsonl_line, canonical_json):
        with pytest.raises(ValueError):
            encode({"distance_m": value})
