"""Every name a module of the package imports at module level is read by
that module: a scan of the source with ``ast``, in place of a linter's
unused-import check.  A name in the module's ``__all__`` counts as read,
since it is imported to be exported."""

import ast
from pathlib import Path

import cvpert

SOURCES = sorted(Path(cvpert.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import whose name the module never reads."""
    tree = ast.parse(source)
    bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from numbers import Integral as I, Real\n__all__ = ['Real']\nmath.pi\n")
    assert unused_imports(source) == [(3, "os"), (4, "I")]


def test_every_module_level_import_is_read():
    assert SOURCES
    unused = {path.name: found for path in SOURCES
              if (found := unused_imports(path.read_text()))}
    assert not unused, unused
