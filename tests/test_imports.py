"""Import hygiene of the lqts modules, by `ast`: every name a module
imports at module level is read in that module, or the benchmark's tracer
(perfbench/tracing.py) patches it there, so its callers' calls are traced
by their own module's binding."""

import ast
import functools
import importlib
import sys
from pathlib import Path

import pytest

import lqts

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

PACKAGE = Path(lqts.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@functools.cache
def traced_names() -> dict[str, set[str]]:
    """Per lqts module, the names that `tracing.install` rebinds there."""
    modules = {m: importlib.import_module(f"lqts.{m}") for m in MODULES}
    before = {m: dict(vars(mod)) for m, mod in modules.items()}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        return {m: {k for k, v in vars(mod).items() if before[m].get(k) is not v} for m, mod in modules.items()}
    finally:
        tracer.restore()


def imported(tree: ast.Module) -> set[str]:
    """The names a module's top-level import statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_read_or_traced(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = imported(tree) - read - traced_names()[module]
    assert not unused, f"lqts.{module} imports {sorted(unused)} and never reads them"
