"""A relative import inside a function defers loading a module only when the
importer does not load it anyway: a scan of the source with ``ast`` flags
each function-level import of a package module that the importer's
module-level imports already load, directly or through other modules.
Such an import defers nothing and belongs at the top of the module.  An
import that breaks a cycle (``lagrangian`` building a CFS model from
``cfs``, which imports ``lagrangian``) stays deferred.  Stdlib and
third-party imports are out of scope."""

import ast
from pathlib import Path

import cvpert

SOURCES = sorted(Path(cvpert.__file__).parent.glob("*.py"))


def relative_targets(node, modules) -> list:
    """The package modules a ``from . import m`` or ``from .m import x`` statement loads."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    if node.module is not None:
        return [node.module] if node.module in modules else []
    return [alias.name for alias in node.names if alias.name in modules]


def needless_deferrals(sources: dict) -> list:
    """(module, line, target) of each function-level relative import whose
    target the module already loads at module level, for module sources
    keyed by module name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    direct = {name: {t for node in tree.body for t in relative_targets(node, trees)}
              for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        loaded, todo = set(), [name]
        while todo:
            for target in direct[todo.pop()] - loaded:
                loaded.add(target)
                todo.append(target)
        top = set(map(id, tree.body))
        found += [(name, node.lineno, target) for node in ast.walk(tree) if id(node) not in top
                  for target in relative_targets(node, trees) if target in loaded]
    return sorted(found)


def test_the_scan_flags_a_needless_deferral_and_keeps_a_cycle_breaker():
    sources = {
        "a": "from . import b\n\ndef f():\n    from .c import x\n    import json\n",
        "b": "from .c import y\n",
        "c": "def g():\n    from .a import z\n",
        "d": "def h():\n    from . import b, c\n",
    }
    assert needless_deferrals(sources) == [("a", 4, "c")]


def test_no_function_level_import_of_an_already_loaded_module():
    assert SOURCES
    assert needless_deferrals({path.stem: path.read_text() for path in SOURCES}) == []
