"""Every exported name resolves: each ddsolve module's __all__, the names
ddsolve/__init__ imports, and the functions the benchmark tracer wraps
(``TRACED`` in ddbench/tracer.py, read from its text so that nothing of
ddbench is imported).  Deleting or renaming one of them would otherwise
break only ``import ddsolve`` users or a traced benchmark run.  And no
source file calls a domain's ``from_sympy``, the side door into K."""

import ast
import functools
import importlib
import pkgutil

import pytest

import ddsolve
from conftest import ROOT

MODULES = sorted(info.name for info in pkgutil.iter_modules(ddsolve.__path__))


def _resolve(obj, dotted: str):
    """obj.a.b for dotted = "a.b"; AttributeError when a part is missing."""
    return functools.reduce(getattr, dotted.split("."), obj)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ddsolve.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"ddsolve.{name}.__all__ names {missing}"


def test_package_imports_resolve():
    tree = ast.parse((ROOT / "src" / "ddsolve" / "__init__.py").read_text())
    imports = [(node.module, alias.name, alias.asname or alias.name)
               for node in tree.body if isinstance(node, ast.ImportFrom)
               for alias in node.names]
    assert imports
    for module, name, bound in imports:
        assert hasattr(importlib.import_module(f"ddsolve.{module}"), name), \
            f"ddsolve.{module}.{name}"
        assert hasattr(ddsolve, bound), bound


def _traced() -> dict:
    tree = ast.parse((ROOT / "ddbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "TRACED"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("ddbench/tracer.py assigns no TRACED")


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"ddsolve.{module}")
        for name in names:
            assert callable(_resolve(mod, name)), f"ddsolve.{module}.{name}"


def test_no_from_sympy_in_src():
    """SymPy values enter K through fields.expr_value alone: a domain's
    ``from_sympy`` would turn a Float into a nearby rational."""
    found = [f"{path.name}:{k}"
             for path in sorted((ROOT / "src" / "ddsolve").glob("*.py"))
             for k, line in enumerate(path.read_text().splitlines(), 1)
             if "from_sympy" in line]
    assert not found, found
