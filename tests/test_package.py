"""The package's lazily loaded public names, and no dead private helper."""

import ast
import importlib
from pathlib import Path

import pytest

import bellgamma


def test_public_names_resolve_to_their_modules():
    assert set(bellgamma.__all__) == set(bellgamma._EXPORTS)
    for name in bellgamma.__all__:
        module = importlib.import_module("bellgamma." + bellgamma._EXPORTS[name])
        assert getattr(bellgamma, name) is getattr(module, name)
    assert set(bellgamma.__all__) <= set(dir(bellgamma))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        bellgamma.no_such_name
    with pytest.raises(AttributeError):
        bellgamma.profile_to_json  # removed: no caller outside its test


def test_library_map_names_every_public_name():
    # The README's library map is the contract of the public surface:
    # each exported name appears there with its use.  The names that
    # only tests called are no longer exported (tests/oracles.py holds
    # the Fraction views the tests read).
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library map\n", 1)[1].split("\n## ", 1)[0]
    assert [n for n in bellgamma.__all__ if "`%s`" % n not in section] == []
    for name in ("gen_bernoulli", "recurrence_generate", "aptekarev_seq",
                 "lagrange_coeff"):
        assert name not in bellgamma.__all__
        with pytest.raises(AttributeError):
            getattr(bellgamma, name)
    # BigFix keeps only the operations a command runs
    assert not {"from_fraction", "to_fraction", "__neg__", "__eq__",
                "__hash__", "__float__", "__repr__"} & set(
                    vars(bellgamma.BigFix))


def test_every_library_module_has_an_entry():
    # cli is the front end and parser its argparse fallback, verify the
    # `verify` command with the integrality suite, and table and
    # constants the commands of those names: none is a library module.
    # The other commands run from the library modules whose results they
    # print.
    src = Path(bellgamma.__file__).parent
    modules = {p.stem for p in src.glob("*.py")} - {
        "__init__", "cli", "parser", "verify", "table", "constants"}
    assert set(bellgamma._MODULES) == modules


def _bound_names(stmt):
    """The names a module-level statement defines or assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            stmt.target]
        return {node.id for t in targets for node in ast.walk(t)
                if isinstance(node, ast.Name)}
    return set()


def _read_names(stmt):
    """The names a statement reads, as a name or as an attribute."""
    return ({node.id for node in ast.walk(stmt)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(stmt)
               if isinstance(node, ast.Attribute)})


def test_no_dead_private_helpers():
    # Every private module-level name is read by package code outside
    # its own definition: a helper that only the tests call is a second
    # route, and belongs in tests/oracles.py.
    src = Path(bellgamma.__file__).parent
    stmts = [stmt for p in sorted(src.glob("*.py"))
             for stmt in ast.parse(p.read_text()).body]
    reads = [_read_names(stmt) for stmt in stmts]
    dead = sorted(
        name for i, stmt in enumerate(stmts) for name in _bound_names(stmt)
        if name.startswith("_") and not name.endswith("__")
        and not any(name in r for j, r in enumerate(reads) if j != i))
    assert dead == []
