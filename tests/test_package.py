"""The package's public surface is its modules' ``__all__`` lists, re-exported."""
import importlib

import unirdc

MODULES = [
    importlib.import_module(f"unirdc.{name}")
    for name in (
        "codec", "converse", "core", "distortion", "errors",
        "experiments", "lz78", "reference", "universal",
    )
]


def test_package_all_is_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert unirdc.__all__ == names
    assert len(set(names)) == len(names)


def test_every_public_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(unirdc, name) is getattr(module, name), name


def test_distortion_is_the_function():
    # the function shadows its module's name in the package
    assert unirdc.distortion is MODULES[3].distortion
