"""The traced server: ``repro.serve`` built through its public API, timed from outside.

``python3 -m perfbench.serve_launcher <model.json> <dump.json>`` installs
the serve-layer wrappers of :mod:`perfbench.timers`, enables the
``repro.obs`` registry, loads the model the way ``repro serve --model``
does and serves on an ephemeral port, printing ``{"port": N}`` once
bound.  SIGUSR1 clears what was collected so far (the warm-up) and
prints ``RESET``.  On SIGTERM the server drains, and the launcher then writes its
layer timings and the ``serve.request`` span durations to ``dump.json``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Dict, List

from perfbench import timers


def main(argv: List[str]) -> int:
    model, dump = argv
    accs: Dict[str, timers.Acc] = {}
    timers.install_serve(accs)

    from repro.obs.telemetry import get_telemetry
    from repro.serve import DiagnosisServer, ModelRegistry, ServeConfig

    tel = get_telemetry()
    tel.enable()
    registry = ModelRegistry()
    registry.load_path(model, activate=True)
    server = DiagnosisServer(registry, ServeConfig(port=0))

    def reset() -> None:
        """SIGUSR1: forget the warm-up requests; acknowledge on stdout."""
        for acc in accs.values():
            acc.reset()
        tel.reset()
        print("RESET", flush=True)

    async def serve() -> None:
        await server.start()
        asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1, reset)
        print(json.dumps({"port": server.port}), flush=True)
        await server.run()

    asyncio.run(serve())
    requests = [
        span.dur_s for span in tel.spans
        if span.name == "serve.request" and span.attrs.get("path") == "/v1/diagnose"
    ]
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"layers": {name: acc.to_dict() for name, acc in accs.items()},
                   "requests": requests}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
