import importlib
import pkgutil

import pytest

import feedauction

MODULES = ["feedauction"] + [
    f"feedauction.{info.name}" for info in pkgutil.iter_modules(feedauction.__path__)
]
EXPORTS = [
    (module, name)
    for module in MODULES
    for name in importlib.import_module(module).__all__
]


@pytest.mark.parametrize("module, name", EXPORTS)
def test_exported_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)
