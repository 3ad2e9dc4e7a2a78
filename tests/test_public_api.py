"""Public API contract: exports exist, are documented, and import cleanly."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.simnet",
    "repro.simnet.engine",
    "repro.simnet.packet",
    "repro.simnet.link",
    "repro.simnet.node",
    "repro.simnet.tcp",
    "repro.simnet.udp",
    "repro.simnet.wireless",
    "repro.simnet.cellular",
    "repro.simnet.congestion",
    "repro.simnet.trace",
    "repro.video",
    "repro.video.catalog",
    "repro.video.mos",
    "repro.video.player",
    "repro.video.server",
    "repro.video.session",
    "repro.video.abr",
    "repro.probes",
    "repro.probes.tstat",
    "repro.probes.hardware",
    "repro.probes.radio",
    "repro.probes.rnc",
    "repro.probes.link",
    "repro.probes.application",
    "repro.faults",
    "repro.faults.base",
    "repro.faults.unknown",
    "repro.traffic",
    "repro.testbed",
    "repro.testbed.testbed",
    "repro.testbed.campaign",
    "repro.testbed.realworld",
    "repro.testbed.cellular",
    "repro.testbed.devices",
    "repro.ml",
    "repro.core",
    "repro.record",
    "repro.api",
    "repro.serve",
    "repro.serve.batcher",
    "repro.serve.registry",
    "repro.serve.http",
    "repro.obs",
    "repro.obs.telemetry",
    "repro.obs.trace",
    "repro.obs.report",
    "repro.obs.flow",
    "repro.experiments",
    "repro.cli",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, name


@pytest.mark.parametrize("name", [m for m in PUBLIC_MODULES if "." in m])
def test_public_classes_documented(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    members = (
        [getattr(module, n) for n in exported]
        if exported
        else [obj for _n, obj in inspect.getmembers(module, inspect.isclass)
              if obj.__module__ == name]
    )
    for obj in members:
        if inspect.isclass(obj):
            assert obj.__doc__, f"{name}.{obj.__name__} lacks a docstring"


def test_dunder_all_resolves():
    for name in ("repro", "repro.simnet", "repro.ml", "repro.core",
                 "repro.probes", "repro.faults", "repro.video",
                 "repro.testbed", "repro.traffic", "repro.obs",
                 "repro.api", "repro.serve"):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)
