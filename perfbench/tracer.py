"""Spans around calls into monorange's public functions, installed from outside.

The package is not edited: :meth:`Tracer.install` replaces each traced
function at every module of the package that binds it (``scale_bbox`` is
bound in ``geometry``, ``cli``, ``depth`` and ``synth``) and restores the
originals on :meth:`Tracer.uninstall`. A span is (name, start, end, parent);
generators are timed per ``next()``, so a span covers the work of one item
and none of the consumer's work between items. Spans stay in memory until
:meth:`Tracer.write` at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

PACKAGE = "monorange"

def _region_pixels(args, kwargs) -> int:
    """Pixels ``normalize_region(depth_map, bbox, method)`` reads for its box."""
    depth_map, bbox = args[0], args[1]
    cols = min(depth_map.width, math.ceil(bbox.x_max)) - max(0, math.floor(bbox.x_min))
    rows = min(depth_map.height, math.ceil(bbox.y_max)) - max(0, math.floor(bbox.y_min))
    return max(cols, 0) * max(rows, 0)


def _method_span(args, kwargs) -> str:
    method = args[2] if len(args) > 2 else kwargs["method"]
    return f"depth.normalize_region.{method.kind}"


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` of ``module`` (``Class.attr`` for methods)."""

    module: str
    attr: str
    span: str
    generator: bool = False
    label: Callable | None = None  # span name from the call's arguments
    work: Callable | None = None  # units of work the call does, summed per span name


TARGETS = (
    Target("cli", "main", "cli.main"),
    Target("cli", "cmd_calibrate", "cli.cmd_calibrate"),
    Target("cli", "cmd_estimate", "cli.cmd_estimate"),
    Target("cli", "cmd_evaluate", "cli.cmd_evaluate"),
    Target("cli", "cmd_synth", "cli.cmd_synth"),
    Target("cli", "read_annotations", "cli.read_annotations", generator=True),
    Target("cli", "annotation_payload", "cli.annotation_payload"),
    Target("common", "canonical_jsonl_line", "common.canonical_jsonl_line"),
    Target("common", "canonical_json", "common.canonical_json"),
    Target("neod", "read_depth_map", "neod.read_depth_map"),
    Target("neod", "write_depth_map", "neod.write_depth_map"),
    Target("depth", "DepthMap.__init__", "depth.DepthMap.init"),
    Target(
        "depth", "normalize_region", "depth.normalize_region",
        label=_method_span, work=_region_pixels,
    ),
    Target("depth", "step", "depth.step"),
    Target("depth", "detect_drift", "depth.detect_drift"),
    Target("depth", "recalibrate", "depth.recalibrate"),
    Target("depth", "fit_coefficients", "depth.fit_coefficients"),
    Target("depth", "select_calibration_pair", "depth.select_calibration_pair"),
    Target("geometry", "scale_bbox", "geometry.scale_bbox"),
    Target("geometry", "estimate_distance_geometric", "geometry.estimate_distance_geometric"),
    Target("geometry", "estimate_focal_length", "geometry.estimate_focal_length"),
    Target("regression", "predict_distance", "regression.predict_distance"),
    Target("regression", "fit_regression", "regression.fit_regression"),
    Target("synth", "SceneSpec.frames", "synth.frame", generator=True),
    Target("synth", "load_scene_spec", "synth.load_scene_spec"),
    Target("metrics", "summarize", "metrics.summarize"),
    Target("metrics", "quadrant_matrix", "metrics.quadrant_matrix"),
    Target("metrics", "write_records_csv", "metrics.write_records_csv"),
    Target("metrics", "write_summary_csv", "metrics.write_summary_csv"),
    Target("metrics", "write_quadrant_csv", "metrics.write_quadrant_csv"),
    Target("profiles", "load_camera_profile", "profiles.load_camera_profile"),
    Target("profiles", "load_regression_profile", "profiles.load_regression_profile"),
    Target("profiles", "load_depth_profile", "profiles.load_depth_profile"),
    Target("profiles", "load_height_table", "profiles.load_height_table"),
    Target("profiles", "save_profile", "profiles.save_profile"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records nested spans in memory; one tracer serves one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.errors: Counter[str] = Counter()  # calls that raised
        self.yields: Counter[str] = Counter()  # items a traced generator produced
        self.work: Counter[str] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _wrap_call(self, fn, target: Target):
        name, label, work = target.span, target.label, target.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if label is None else label(args, kwargs)
            if work is not None:
                self.work[span_name] += work(args, kwargs)
            idx = self._open(span_name)
            self.starts[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[span_name] += 1
                raise
            finally:
                self._close(idx)

        return traced

    def _wrap_generator(self, fn, target: Target):
        name = target.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(name)
                    self.starts[idx] = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.yields[name] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def install(self) -> None:
        """Wrap every target at each module of the package that binds it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for target in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{target.module}"]
            attr = target.attr
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrap = self._wrap_generator if target.generator else self._wrap_call
            wrapper = wrap(original, target)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def stats(self) -> dict[str, SpanStats]:
        """Calls, inclusive time and self time (minus child spans) per span name."""
        n = len(self.names)
        child_s = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_s[parent] += self.ends[i] - self.starts[i]
        out: dict[str, SpanStats] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            st = out.setdefault(name, SpanStats())
            st.calls += 1
            st.total_s += dur
            st.self_s += dur - child_s[i]
        return out

    def write(self, path) -> None:
        """Spans as gzip CSV: name, start and end (s, perf_counter clock), parent row."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n")
