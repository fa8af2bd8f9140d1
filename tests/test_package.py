"""The package's public surface: every exported name is one the pipeline uses,
and every name the benchmark's tracer hooks is still there in the form it reads."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np

import firlock.design
from firlock.design import _band_rows, build_frequency_grid, design_coefficients

from conftest import reference_spec

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "firlock"
# Read and parsed only, never imported: it rebinds src/ functions by name.
TRACING = ROOT / "perfbench" / "tracing.py"

# Exported though nothing in the package calls them: `perfbench/tracing.py`
# hooks them by name until tracing moves into the package (ROADMAP,
# "Tracing inside the package").
HOOKED_BY_TRACER = {("verilog", "emit_verilog"), ("evaluate", "emit_curves")}


def _parse(path: Path):
    return ast.parse(path.read_text("utf-8"), filename=str(path))


def _top_level(tree, name: str):
    """The top-level function, class or assignment that defines ``name`` in ``tree``, or None."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node
    return None


def _exports(tree) -> list:
    node = _top_level(tree, "__all__")
    return [] if node is None else [ast.literal_eval(elt) for elt in node.value.elts]


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
    trees = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    readers = _readers(trees)
    exported = {(module, name) for module, tree in trees.items() for name in _exports(tree)}
    assert HOOKED_BY_TRACER <= exported
    unused = sorted(
        f"{module}.{name}"
        for module, name in exported - HOOKED_BY_TRACER
        if not readers.get(name, set()) - {(module, name)}
    )
    assert not unused, f"exported but used only outside src/ (move them to tests/): {unused}"


def _hooks(tracing, table: str, fields: int) -> list:
    """The first ``fields`` strings of each entry of the tracer's ``table``."""
    entries = _top_level(tracing, table).value.elts
    return [tuple(f.value for f in entry.elts[:fields]) for entry in entries]


def test_every_name_the_tracer_hooks_is_defined_in_the_package():
    tracing = _parse(TRACING)
    # (module, function) and (module, class, method)
    targets = [(module, None, fn) for module, fn in _hooks(tracing, "FUNCTIONS", 2)]
    targets += _hooks(tracing, "METHODS", 3)
    assert targets
    modules, missing = {}, []
    for module, cls, attr in targets:
        name = module.removeprefix("firlock.")
        tree = modules.setdefault(name, _parse(PACKAGE / f"{name}.py"))
        owner = tree if cls is None else _top_level(tree, cls)
        if owner is None or _top_level(owner, attr) is None:
            missing.append(".".join(filter(None, (module, cls, attr))))
    assert not missing, f"perfbench/tracing.py hooks names that src/ no longer defines: {missing}"


def test_design_lp_call_gives_the_tracer_its_rows(monkeypatch):
    """The tracer's `_obs_linprog`, run on the design LP's `linprog` call,
    counts one LP of the band rows' count: argument 1 is the row matrix."""
    tracing = _parse(TRACING)
    namespace = {}
    observer = ast.Module([_top_level(tracing, "_obs_linprog")], type_ignores=[])
    exec(compile(observer, str(TRACING), "exec"), namespace)

    calls, linprog = [], firlock.design.linprog

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(firlock.design, "linprog", recorded)
    spec = reference_spec(1)
    grid = build_frequency_grid(spec)
    design_coefficients(spec, grid)
    ((args, kwargs),) = calls
    A, _ = _band_rows(spec, grid)
    rows = kwargs["A_ub"] if "A_ub" in kwargs else args[1]
    assert np.array_equal(rows, np.hstack([A, np.ones((len(A), 1))]))
    counters = Counter()
    namespace["_obs_linprog"](counters, args, kwargs, None, 0.0)
    assert counters == {"design.lps_solved": 1, "design.lp_rows": len(A)}
