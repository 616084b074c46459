import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "monorange"


def test_no_module_imports_a_thread_module():
    """The program starts no thread: no module imports ``threading``, ``_thread`` or
    ``concurrent``, at its top or inside a function."""
    thread_modules = {"threading", "_thread", "concurrent"}

    def imported(node):
        if isinstance(node, ast.Import):
            return {alias.name.split(".")[0] for alias in node.names}
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return {node.module.split(".")[0]}
        return set()

    importers = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        for name in imported(node) & thread_modules
    )
    assert importers == []


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
