"""Diagnosis-as-a-service: the long-lived async serving layer.

The paper's deployment endgame is a carrier-side service: live devices
upload session records, the operator gets root-cause diagnoses back in
milliseconds, fleet-wide.  This package is that service, on the stdlib
only:

* :class:`~repro.serve.batcher.MicroBatcher` — coalesces the requests
  submitted in one event-loop turn onto one vectorized
  ``diagnose_batch`` call (at most ``max_batch`` records), with
  per-request error isolation and bit-identical results;
* :class:`~repro.serve.registry.ModelRegistry` — versioned analyzer
  exports with atomic hot swap;
* :class:`~repro.serve.http.DiagnosisServer` — the asyncio HTTP front
  end (``POST /v1/diagnose``, ``/healthz``, ``/readyz``, model
  management) with graceful SIGTERM drain and per-request telemetry.

Start one from the CLI (``python -m repro serve --train lab.pkl``) or
embed it::

    import asyncio
    from repro.serve import DiagnosisServer, ModelRegistry, ServeConfig

    registry = ModelRegistry()
    registry.load_dir("models/")          # *.json analyzer exports
    server = DiagnosisServer(registry, ServeConfig(port=8080))
    asyncio.run(server.run())             # serves until SIGTERM, then drains
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.http import DiagnosisServer, ServeConfig
from repro.serve.registry import ModelRegistry, RegistryError

__all__ = [
    "DiagnosisServer",
    "MicroBatcher",
    "ModelRegistry",
    "RegistryError",
    "ServeConfig",
]
