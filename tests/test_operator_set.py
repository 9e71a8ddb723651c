"""Subtraction, negation, the reflected operators and powers are defined
once: a scan of the source with ``ast`` flags each class that defines one
of them, other than the shared base ``series._Arithmetic``, which derives
them from a subclass's + and *, and ``jets._PointPairs``, whose jets have
no product or power."""

import ast
from pathlib import Path

import cvpert

SOURCES = sorted(Path(cvpert.__file__).parent.glob("*.py"))
DERIVED = {"__radd__", "__rmul__", "__sub__", "__rsub__", "__neg__", "__pow__"}
ALLOWED = {("series", "_Arithmetic"), ("jets", "_PointPairs")}


def defined_names(statement) -> list:
    """The names a class-body statement defines: a method or an alias."""
    if isinstance(statement, ast.FunctionDef):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    return []


def second_operator_sets(sources: dict) -> list:
    """(module, class, operator) of each derived operator a class defines,
    outside the allowed classes, for module sources keyed by module name."""
    return sorted((module, node.name, name)
                  for module, text in sources.items() for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.ClassDef) and (module, node.name) not in ALLOWED
                  for statement in node.body for name in defined_names(statement)
                  if name in DERIVED)


def test_the_scan_flags_methods_and_aliases_outside_the_shared_base():
    sources = {
        "series": "class _Arithmetic:\n    def __sub__(self, o):\n        pass\n",
        "a": ("class A:\n    def __add__(self, o):\n        pass\n    __radd__ = __add__\n"
              "    def __pow__(self, n):\n        pass\n"),
        "b": "class B(A):\n    def __mul__(self, o):\n        pass\n",
    }
    assert second_operator_sets(sources) == [("a", "A", "__pow__"), ("a", "A", "__radd__")]


def test_no_class_defines_a_second_operator_set():
    assert SOURCES
    assert second_operator_sets({path.stem: path.read_text() for path in SOURCES}) == []
