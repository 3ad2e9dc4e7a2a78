"""Fault base class and registry."""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple, Type

# the label vocabulary lives with the record type, so the diagnosis side
# reads it without running this package's ``__init__`` (the simulator)
from repro.record import FAULT_LOCATIONS, FAULT_NAMES

__all__ = ["FAULT_LOCATIONS", "FAULT_NAMES", "Fault", "FaultRegistry", "make_fault"]


class Fault:
    """One injected problem with a randomised intensity.

    Subclasses define ``MILD`` / ``SEVERE`` intensity bands and implement
    :meth:`apply` / :meth:`clear` against a
    :class:`repro.testbed.testbed.Testbed`.  Each concrete fault also
    declares ``VANTAGE_SCOPE``: the vantage points whose probes observe
    the fault's distinguishing signature (Section 5.3 — e.g. only the
    RSSI-equipped mobile/router VPs separate the wireless faults).
    """

    name: str = "abstract"

    #: vantage points that observe this fault's signature; concrete
    #: subclasses must override (``tests/faults/test_faults.py`` checks
    #: every concrete fault declares a non-empty tuple of known VPs).
    VANTAGE_SCOPE: Tuple[str, ...] = ()

    def __init__(self, severity: str, rng: random.Random):
        if severity not in ("mild", "severe"):
            raise ValueError(f"severity must be mild or severe, got {severity!r}")
        self.severity = severity
        self.rng = rng
        self.active = False
        self.intensity: Dict[str, float] = {}

    @property
    def location(self) -> str:
        return FAULT_LOCATIONS[self.name]

    @property
    def vantage_scope(self) -> Tuple[str, ...]:
        """Vantage points whose probes see this fault's signature."""
        return self.VANTAGE_SCOPE

    def band(self, mild: tuple, severe: tuple) -> float:
        """Draw an intensity uniformly from the band for this severity."""
        lo, hi = mild if self.severity == "mild" else severe
        return self.rng.uniform(lo, hi)

    def apply(self, testbed) -> None:
        raise NotImplementedError

    def clear(self, testbed) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.severity}, {self.intensity})"


class FaultRegistry:
    """Name -> class mapping, filled in by the concrete modules."""

    _classes: Dict[str, Type[Fault]] = {}

    @classmethod
    def register(cls, fault_cls: Type[Fault]) -> Type[Fault]:
        cls._classes[fault_cls.name] = fault_cls
        return fault_cls

    @classmethod
    def get(cls, name: str) -> Type[Fault]:
        if name not in cls._classes:
            raise KeyError(f"unknown fault {name!r}; known: {sorted(cls._classes)}")
        return cls._classes[name]


def make_fault(name: str, severity: str, rng: Optional[random.Random] = None) -> Fault:
    """Instantiate a fault by its canonical name.

    Callers inside a campaign must pass the scenario rng; the fallback is
    seeded from the fault identity so even ad-hoc construction (tests,
    REPL) stays reproducible run to run.
    """
    if rng is None:
        rng = random.Random(f"fault/{name}/{severity}")
    return FaultRegistry.get(name)(severity, rng)
