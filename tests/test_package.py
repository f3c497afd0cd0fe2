"""The package's lazily loaded public names."""

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


def test_every_library_module_has_an_entry():
    # cli and verify are command code, not library modules
    src = Path(bellgamma.__file__).parent
    modules = {p.stem for p in src.glob("*.py")} - {"__init__", "cli",
                                                    "verify"}
    assert set(bellgamma._MODULES) == modules
