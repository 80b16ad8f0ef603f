"""No module of the package reaches into another module's private names.

A private ``_name`` belongs to the module that defines it, so the rule a
private helper carries (the oracle's buffer refusal, for one) has one
owner. Each module is parsed, not imported, and two forms are refused:
``from .m import _x`` (or ``from indiboson.m import _x``), and a read of
``name._attr`` on anything but ``self`` or ``cls``. Dunders are public.
"""

import ast
from pathlib import Path

import pytest

import indiboson

PACKAGE = Path(indiboson.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _reaches(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").split(".")[0] == "indiboson"
            found += [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} "
                      f"import {alias.name}"
                      for alias in node.names if ours and _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and isinstance(node.value, ast.Name) and node.value.id not in ("self", "cls")):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reaches_into_another_modules_private_names(path):
    assert _reaches(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_guard_sees_both_forms():
    source = ("from .oracle import _refuse_leak\n"
              "from indiboson.oracle import Propagator, _thermal_weights\n"
              "from . import __version__\n"
              "edge = prop._edge\n"
              "self._last = cls._cache\n"
              "name = type(x).__name__\n")
    assert _reaches(ast.parse(source)) == [
        "line 1: from .oracle import _refuse_leak",
        "line 2: from indiboson.oracle import _thermal_weights",
        "line 4: prop._edge",
    ]
