"""The package's public surface: ``scap.__all__`` lists exactly what it binds."""

import types

import scap


def test_every_export_resolves():
    assert [name for name in scap.__all__ if not hasattr(scap, name)] == []


def test_all_equals_the_public_names_bound():
    bound = {
        name
        for name, value in vars(scap).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(scap.__all__) == len(set(scap.__all__))
    assert set(scap.__all__) == bound
