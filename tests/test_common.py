import ast
import functools
import re
import threading
import time
from pathlib import Path

import pytest

from monorange.common import one_ahead

SRC = Path(__file__).resolve().parent.parent / "src" / "monorange"


def square(i):
    return functools.partial(pow, i, 2)


class TestOneAhead:
    def test_items_without_work_start_no_thread(self):
        before = threading.active_count()
        got = []
        for item, work in one_ahead(range(4), lambda i: None):
            assert threading.active_count() == before
            got.append((item, work))
        assert got == [(i, None) for i in range(4)]
        assert threading.active_count() == before

    def test_one_job_in_flight_in_item_order_each_once(self):
        lock, running, starts = threading.Lock(), [], []

        def job(i):
            if i % 3 == 2:
                return None  # some items have no work

            def run():
                with lock:
                    running.append(i)
                    starts.append((i, len(running)))
                time.sleep(0.002)
                with lock:
                    running.remove(i)
                return i * i
            return run

        got = []
        for item, work in one_ahead(range(9), job):
            assert work is None or work.done()  # the helper may be on the next item
            got.append((item, None if work is None else work.result()))
            time.sleep(0.001)
        want = [i for i in range(9) if i % 3 != 2]
        assert got == [(i, i * i if i in want else None) for i in range(9)]
        assert starts == [(i, 1) for i in want]

    def test_a_fault_taking_an_item_comes_after_the_item_before_it(self):
        def items():
            yield from range(3)
            raise ValueError("no item 3")

        before = threading.active_count()
        seen = []
        with pytest.raises(ValueError, match="no item 3"):
            for item, work in one_ahead(items(), square):
                assert work.done()  # item 2's work has ended before the fault
                seen.append((item, work.result()))
        assert seen == [(0, 0), (1, 1), (2, 4)]
        assert threading.active_count() == before

    def test_a_job_fault_is_raised_by_its_own_future(self):
        def job(i):
            return functools.partial(divmod, 1, i - 1)  # item 1 divides by zero

        results = []
        for item, work in one_ahead(range(3), job):
            try:
                results.append(work.result())
            except ZeroDivisionError:
                results.append(item)
        assert results == [(-1, 0), 1, (1, 0)]

    def test_closing_early_joins_the_thread(self):
        def job(i):
            return functools.partial(time.sleep, 0.01)

        before = threading.active_count()
        ahead = one_ahead(range(10), job)
        next(ahead), next(ahead)
        assert threading.active_count() == before + 1
        ahead.close()
        assert threading.active_count() == before

    def test_an_empty_iterable_yields_nothing(self):
        calls = []
        assert list(one_ahead([], calls.append)) == []
        assert calls == []


def test_only_common_imports_concurrent_futures():
    """One helper thread design: read-aheads go through ``common.one_ahead``."""
    importers = sorted(
        path.name for path in SRC.glob("*.py")
        if re.search(r"^\s*(from|import)\s+concurrent\b", path.read_text(), re.MULTILINE)
    )
    assert importers == ["common.py"]


def test_every_error_class_is_raised_or_is_a_base_of_one_that_is():
    """Each check is made by one owner: an error class that nothing raises is dead."""
    classes = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for node in ast.parse((SRC / "common.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    errors = {"Exception"}
    while True:  # the classes of common.py that derive from Exception
        found = {name for name, bases in classes.items() if bases & errors} - errors
        if not found:
            break
        errors |= found
    errors.discard("Exception")
    raised = {
        node.exc.func.id
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
    }
    live = raised & errors
    while True:  # a base of a live class is live
        found = {base for name in live for base in classes[name]} & errors - live
        if not found:
            break
        live |= found
    assert sorted(errors - live) == []
