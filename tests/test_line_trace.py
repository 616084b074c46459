"""The line tracer that lists the package statements no run reached."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "line_trace.py"

spec = importlib.util.spec_from_file_location("line_trace", SCRIPT)
line_trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_trace)


def test_statements_skip_docstrings_and_declarations_and_count_headers():
    source = '''def f(x):
    """doc"""
    y = 0
    def g():
        nonlocal y
        y += 1
    try:
        g()
    except KeyError:
        pass
    return (
        y)
'''
    assert line_trace.statements(source) == [
        (1, {1}),  # def f: its header line
        (3, {3}),
        (4, {4}),  # def g
        (6, {6}),  # nonlocal y is not a statement
        (7, {8}),  # a try ran when its body's first statement did
        (8, {8}),
        (10, {10}),
        (11, {11, 12}),  # any line of a simple statement
    ]


def test_run_saves_the_reached_lines_and_list_prints_the_rest(tmp_path):
    script = tmp_path / "calls_whole.py"
    script.write_text("import sys\nfrom monorange.common import whole\n"
                      "whole(3, 'x')\nsys.exit(3)\n")
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run([sys.executable, SCRIPT, "run", trace, script],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 3  # the run's own exit code
    assert "common.py" in json.loads(trace.read_text())["lines"]
    listed = subprocess.run([sys.executable, SCRIPT, "list", trace],
                            capture_output=True, text=True, check=True).stdout
    common = (REPO / "src" / "monorange" / "common.py").read_text().splitlines()
    convert = common.index("    number = float(value)") + 1
    fault = convert + 2  # the raise for a fractional value
    assert common[fault - 1].strip().startswith("raise ValueError")
    assert f"src/monorange/common.py:{fault}: raise ValueError" in listed
    assert f"src/monorange/common.py:{convert}:" not in listed
    assert listed.splitlines()[-1].endswith("statements not reached")
