"""Every name a ``tempcl`` module lists in ``__all__`` is defined at the
top level of that module.  Tools that walk ``__all__`` (the benchmark's span
tracer among them) skip a stale name silently."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tempcl

MODULES = [m.name for m in pkgutil.iter_modules(tempcl.__path__)]


def top_level_names(path: Path) -> set:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_module_is_checked():
    assert {"analysis", "config", "data", "encoder", "evaluation", "loss", "runner",
            "schedule"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_module(name):
    module = importlib.import_module(f"tempcl.{name}")
    public = getattr(module, "__all__", [])
    assert len(public) == len(set(public)), "duplicate names in __all__"
    missing = set(public) - top_level_names(Path(module.__file__))
    assert not missing, f"tempcl.{name}.__all__ names {sorted(missing)} not defined there"
    for attr in public:
        assert hasattr(module, attr)
