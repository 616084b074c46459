#!/usr/bin/env python3
"""Record which lines of the monorange package a run reaches, and list the rest.

Usage:

    PYTHONPATH=src python scripts/line_trace.py run TRACE.json -m pytest -q
    PYTHONPATH=src python scripts/line_trace.py run TRACE.json \
        scripts/run_synthetic_suite.py --seed 17
    python scripts/line_trace.py list TRACE.json [TRACE.json ...]

``run`` runs a script, or a module given with ``-m``, in this process under
``sys.settrace`` and ``threading.settrace``, so helper threads started during
the run are traced too; subprocesses are not. The package is imported from
``src/``, and only code in ``src/monorange`` is traced line by line. The lines
it reached are saved to TRACE.json, also when the run fails, and the run's exit
code is passed on. ``PYTHONPATH=src`` lets the subprocesses that a run starts
import the package, as the tier-1 test command does.

``list`` prints ``path:line: source`` for every statement of the package that
no given trace reached, then a count. A simple statement is reached when any
of its lines ran; a compound one (``if``, ``for``, ``with``, ``def``, ...) when
its header ran, and a ``try`` when the first statement of its body was.
Docstrings and ``global``/``nonlocal`` declarations, which run no code, are not
statements here. This stands in for ``coverage``, which the project does not
depend on.
"""

from __future__ import annotations

import argparse
import ast
import json
import runpy
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "monorange"


def traced_run(target: list[str]) -> tuple[dict[str, set[int]], int]:
    """Run ``target`` (``[script, *args]`` or ``["-m", module, *args]``) under the tracer.

    Returns the package lines reached, by file name, and the run's exit code.
    """
    reached: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}  # file name -> its line tracer, or None if not traced
    prefix = str(PACKAGE) + "/"

    def line_tracer(lines: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            tracer = None
            if filename.startswith(prefix):
                tracer = line_tracer(reached.setdefault(Path(filename).name, set()))
            tracers[filename] = tracer
            return tracer

    if target[0] == "-m":
        module, args = target[1], target[2:]
        sys.argv = [module, *args]
        run = lambda: runpy.run_module(module, run_name="__main__", alter_sys=True)  # noqa: E731
    else:
        script, args = target[0], target[1:]
        sys.argv = [script, *args]
        sys.path.insert(0, str(Path(script).resolve().parent))
        run = lambda: runpy.run_path(script, run_name="__main__")  # noqa: E731
    sys.path.insert(0, str(SRC))
    code = 0
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached, code


def _docstring(node: ast.AST) -> ast.stmt | None:
    body = getattr(node, "body", None)
    if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
        return body[0]
    return None


def statements(source: str) -> list[tuple[int, set[int]]]:
    """Each statement's first line and the lines any one of which shows it ran."""
    tree = ast.parse(source)
    docstrings = {id(_docstring(node)) for node in ast.walk(tree)} - {id(None)}

    def evidence(node: ast.stmt) -> set[int]:
        if isinstance(node, ast.Try):
            return evidence(node.body[0])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            return set(range(first, body[0].lineno)) or {node.lineno}
        return set(range(node.lineno, node.end_lineno + 1))

    return sorted(
        (node.lineno, evidence(node)) for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, (ast.Global, ast.Nonlocal))
        and id(node) not in docstrings
    )


def cmd_run(args) -> int:
    if not args.target or args.target == ["-m"]:
        raise SystemExit("run needs a script or -m MODULE")
    reached, code = traced_run(args.target)
    payload = {"package": str(PACKAGE.relative_to(REPO)),
               "lines": {name: sorted(lines) for name, lines in sorted(reached.items())}}
    Path(args.trace).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"line_trace: {sum(map(len, reached.values()))} lines in {len(reached)} files "
          f"-> {args.trace} (run exited {code})", file=sys.stderr)
    return code


def cmd_list(args) -> int:
    reached: dict[str, set[int]] = {}
    for trace in args.traces:
        for name, lines in json.loads(Path(trace).read_text())["lines"].items():
            reached.setdefault(name, set()).update(lines)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        ran = reached.get(path.name, set())
        for line, evidence in statements(source):
            total += 1
            if not evidence & ran:
                missed += 1
                print(f"{path.relative_to(REPO)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} statements not reached")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a script or -m MODULE and save the lines reached")
    run.add_argument("trace", help="the JSON file to write")
    run.add_argument("target", nargs=argparse.REMAINDER, help="SCRIPT [ARGS] or -m MODULE [ARGS]")
    run.set_defaults(handler=cmd_run)
    ls = sub.add_parser("list", help="print the statements no saved trace reached")
    ls.add_argument("traces", nargs="+", help="JSON files written by run")
    ls.set_defaults(handler=cmd_list)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
