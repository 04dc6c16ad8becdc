"""The library's public surface is what its programs reach.

Every name that ``src/adlocal/__init__.py`` imports must be referenced,
as an AST ``Name`` or an import alias, by a program path: the CLI, a
script, the benchmark, or another library module.  A name that only tests
reach belongs under ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "adlocal"


def _exported() -> set:
    tree = ast.parse((LIBRARY / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _referenced(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _raised(path: Path) -> set:
    """The names that ``raise`` statements of the module raise, called or
    bare: ``raise E(...)`` and ``raise E`` name E."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_public_name_is_reached_by_a_program_path():
    programs = [p for p in LIBRARY.glob("*.py") if p.name != "__init__.py"]
    programs += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    reached = set().union(*map(_referenced, programs))
    assert sorted(_exported() - reached) == []


def test_reference_scan_sees_names_and_import_aliases(tmp_path):
    program = tmp_path / "program.py"
    program.write_text("from adlocal.matrix import block_flatten as flat\nprint(zmod(2))\n")
    assert {"block_flatten", "print", "zmod"} <= _referenced(program)
    assert {"matrix_ring", "witness_search", "check_two_local"} <= _exported()


def test_every_error_type_has_a_raise_site_in_the_library():
    tree = ast.parse((LIBRARY / "errors.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*map(_raised, LIBRARY.glob("*.py")))
    assert "PreconditionError" in defined
    assert sorted(defined - raised - {"AdlocalError"}) == []


def test_raise_scan_sees_called_and_bare_raises(tmp_path):
    program = tmp_path / "program.py"
    program.write_text("try:\n    raise KeyError\nexcept KeyError:\n    raise ValueError('x')\n")
    assert _raised(program) == {"KeyError", "ValueError"}
