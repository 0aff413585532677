"""Import hygiene of the lqts modules, by `ast`: every name a module
imports at module level is read in that module, or the benchmark's tracer
(perfbench/tracing.py) patches it there, so its callers' calls are traced
by their own module's binding. The package root binds its stage modules
and `__version__`, nothing else."""

import ast
import functools
import importlib
import subprocess
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


def test_package_root_binds_only_its_modules_and_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    docstring, *body = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    for node in body:
        if isinstance(node, ast.ImportFrom):
            assert node.module is None and node.level == 1, ast.unparse(node)
            assert {a.name for a in node.names} <= set(MODULES), ast.unparse(node)
            assert all(a.asname is None for a in node.names), ast.unparse(node)
        else:
            assert isinstance(node, ast.Assign), ast.unparse(node)
            assert [ast.unparse(t) for t in node.targets] == ["__version__"], ast.unparse(node)


def test_importing_the_package_loads_the_stage_modules():
    # the benchmark times `import lqts` as part of its set-up
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import lqts; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'lqts')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    stages = "corpus errors evaluation metafeat retrieval sampling similarity svr synth".split()
    assert out.split() == ["lqts", *(f"lqts.{m}" for m in stages)]
