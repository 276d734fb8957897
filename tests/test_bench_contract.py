"""The names the benchmark under perfbench/ takes from dbrov all exist.

The traced run rebinds each name of `tracing.TRACED` through
`vars(dbrov.<layer>)[name]`, and the workloads import library names at
module load; a renamed or deleted one would only show as an error in a
benchmark run.  Nothing here imports the benchmark's workloads or runs them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _dbrov_imports(path):
    """(module, name, line) for each `from dbrov... import name` in path, and
    for each attribute read off a module bound by `import dbrov.x as y`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "dbrov":
            out += [(node.module, a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "dbrov":
                    out.append((a.name, None, node.lineno))
                    if a.asname:
                        aliases[a.asname] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            out.append((aliases[node.value.id], node.attr, node.lineno))
    return out


def test_every_traced_name_resolves():
    traced = _tracing().TRACED
    assert "factor" in traced and "space" in traced
    for layer, names in traced.items():
        mod = importlib.import_module(f"dbrov.{layer}")
        for name in names:
            assert callable(vars(mod).get(name)), f"dbrov.{layer}.{name}"


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_exists(path):
    for module, name, line in _dbrov_imports(path):
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}:{line}: {module}.{name}"


def test_workloads_import_from_dbrov():
    # the parse sees the workloads' imports, so the test above checks them
    names = {(m, n) for m, n, _ in _dbrov_imports(PERFBENCH / "workloads.py")}
    assert ("dbrov.space", "make_context") in names
    assert ("dbrov.fixtures", "fixture") in names
