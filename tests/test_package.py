"""The package's public surface: every exported name is one the pipeline uses."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "firlock"

# Exported though nothing in the package calls them: `perfbench/tracing.py`
# hooks them by name until tracing moves into the package (ROADMAP,
# "Tracing inside the package").
HOOKED_BY_TRACER = {("verilog", "emit_verilog"), ("evaluate", "emit_curves")}


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _readers(trees: dict) -> dict:
    """name -> ``{(module, owner)}`` of every read of the name in ``trees``.

    ``owner`` is the top-level function or class the read sits in (None
    elsewhere), so a definition that refers to itself does not count.
    """
    readers = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            owner = stmt.name if isinstance(stmt, defines) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add((module, owner))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add((module, owner))
    return readers


def test_every_exported_name_is_used_inside_the_package():
    trees = {
        path.stem: ast.parse(path.read_text("utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    readers = _readers(trees)
    exported = {(module, name) for module, tree in trees.items() for name in _exports(tree)}
    assert HOOKED_BY_TRACER <= exported
    unused = sorted(
        f"{module}.{name}"
        for module, name in exported - HOOKED_BY_TRACER
        if not readers.get(name, set()) - {(module, name)}
    )
    assert not unused, f"exported but used only outside src/ (move them to tests/): {unused}"
