"""The package's lazily loaded public names."""

import importlib

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
