"""Every module of the package uses each name it imports, and states no
invariant with ``assert``.

A name counts as used when the module reads it anywhere (attribute bases
included) or lists it in ``__all__``, which is how the package root
re-exports.  ``from __future__`` imports are directives, not names.

An ``assert`` vanishes under ``python -O``, so the package enforces its
invariants with raised errors instead.

``click`` serves the command line only; importing the library does not
load it.

The term dict ``Poly.terms`` is the ring's representation: only
``polyring`` and the parser in ``textio`` read it, and every other module
goes through the ring's accessors.
"""

import ast
import os
import pathlib
import subprocess
import sys

import linnij

PACKAGE = pathlib.Path(linnij.__file__).parent


def imported_names(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source, filename):
    tree = ast.parse(source, filename)
    used = used_names(tree)
    return ["%s:%d: %s" % (filename, line, name)
            for name, line in imported_names(tree) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 10
    unused = []
    for path in paths:
        unused += unused_imports(path.read_text(encoding="utf-8"), path.name)
    assert unused == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Sequence, Mapping as M\n"
              "__all__ = ['Sequence']\n"
              "x = os.sep\n")
    assert unused_imports(source, "m.py") == ["m.py:3: M"]


def assert_statements(source, filename):
    tree = ast.parse(source, filename)
    return ["%s:%d" % (filename, node.lineno)
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_module_uses_assert():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += assert_statements(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_assert_statement_is_reported():
    source = ("def f(x):\n"
              "    if x:\n"
              "        assert x > 0, 'positive'\n"
              "    return 'assert x'\n")
    assert assert_statements(source, "m.py") == ["m.py:3"]


TERM_DICT_READERS = ("polyring.py", "textio.py")


def term_dict_reads(source, filename):
    tree = ast.parse(source, filename)
    return ["%s:%d" % (filename, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "terms"]


def test_only_the_ring_and_its_parser_read_term_dicts():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in TERM_DICT_READERS:
            found += term_dict_reads(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_term_dict_read_is_reported():
    source = ("def f(p, q):\n"
              "    n = len(p.terms)\n"
              "    return q.sorted_terms(), 'p.terms', getattr(p, 'nvars')\n")
    assert term_dict_reads(source, "m.py") == ["m.py:2"]


def test_library_import_leaves_click_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    probe = "import sys, linnij; print('click' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
