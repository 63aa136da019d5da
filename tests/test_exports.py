import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import feedauction
from feedauction.config import ExperimentConfig
from feedauction.core import RngStream
from feedauction.learner import ValueModel

MODULES = ["feedauction"] + [
    f"feedauction.{info.name}" for info in pkgutil.iter_modules(feedauction.__path__)
]
EXPORTS = [
    (module, name)
    for module in MODULES
    for name in importlib.import_module(module).__all__
]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module, name", EXPORTS)
def test_exported_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_bindings_install_and_uninstall():
    # The benchmark's traced mode wraps program functions where they are
    # bound; a renamed or deleted binding must fail here, not only there.
    owners = [importlib.import_module(module) for module in MODULES]
    owners += [ExperimentConfig, RngStream, ValueModel]

    def bindings():
        return {(owner, name): value for owner in owners for name, value in vars(owner).items()}

    layers, tracer = _load("layers"), _load("tracer").Tracer()
    before = bindings()
    try:
        layers.install(tracer)
        during = bindings()
    finally:
        tracer.uninstall()
    after = bindings()

    wrapped = [key for key, value in during.items() if value is not before[key]]
    assert wrapped
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
