import importlib
import importlib.util
import pkgutil
import sys
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


def _load(name, monkeypatch=None):
    # With ``monkeypatch``, the module is importable by its own name (as the
    # benchmark's modules import each other) until the test ends.
    module_name = name if monkeypatch else f"_perfbench_{name}"
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch:
        monkeypatch.setitem(sys.modules, module_name, module)
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


def _shrink_sweep(workload):
    # 2,000 rounds still leave exploitation stretches between training rounds.
    workload.config = workload.config.replace(horizon=2000)


def _shrink_moderation(workload):
    workload.corpus_seeds = workload.corpus_seeds[:1]


def _shrink_ledger(workload):
    workload.horizon = 200


@pytest.mark.parametrize(
    "name, shrink",
    [
        ("sweep-deviation", _shrink_sweep),
        ("moderation", _shrink_moderation),
        ("ledger", _shrink_ledger),
    ],
)
def test_benchmark_workload_fires_every_expected_layer(name, shrink, tmp_path, monkeypatch):
    # A traced benchmark run is marked incorrect when a wrapped name stops
    # firing; one shrunk unit of each workload must fire them all and pass
    # its own output checks.
    # The workloads import checks and speed by plain name, so those load first.
    names = ("checks", "speed", "workloads", "layers", "tracer")
    _, _, workloads, layers, tracer = (_load(module, monkeypatch) for module in names)
    outcome = workloads.Outcome()
    workload = workloads.WORKLOADS[name](0, tmp_path, outcome)
    shrink(workload)
    traced = tracer.Tracer(span_names=layers.SPAN_NAMES)
    layers.install(traced)
    try:
        workload.setup()
        workload.unit(0)
    finally:
        traced.uninstall()
    assert not workload.expected_layers - set(traced.by_name())
    assert outcome.failed == 0 and outcome.errors == [] and outcome.problems == []
    assert outcome.attempted > 0
