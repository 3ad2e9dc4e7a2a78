"""Reference engines for the differential tests.

Production code runs one engine per hot job: the calendar scheduler, the
batched MT19937 draws and the compiled ``TreePlan``.  The engines they
replaced are kept here as oracles, and each context manager below swaps
one of them in for the duration of a block:

* :func:`reference_scheduler` -- every ``Simulator`` built inside the
  block queues events on :class:`ReferenceScheduler`, the original single
  binary heap;
* :func:`stdlib_rng` -- every simulator generator is a plain
  ``random.Random`` instead of ``BatchedRandom``;
* :func:`object_engine` -- ``diagnose_batch`` skips the compiled batch
  plan and every ``C45Tree`` prediction walks the node objects
  (:func:`predict_object`).

The swaps are ``unittest.mock.patch`` calls on class or module globals,
so they reach code running in other threads of the same process (the
in-process HTTP server) and are undone on exit.  Usable from pytest and
from ``benchmarks/`` as ``from tests.oracles import ...``.
"""

from __future__ import annotations

import contextlib
import heapq
import random
from sys import getrefcount
from typing import Any, Callable, Iterator, List, Optional
from unittest import mock

import numpy as np

from repro.core.compiled import CompiledAnalyzer
from repro.ml.tree import C45Tree
from repro.simnet import engine
from repro.simnet.engine import _EVENT_POOL_MAX, _entry_live, _SchedEntry
from repro.simnet.packet import _graveyard as _packet_graveyard
from repro.simnet.packet import sweep_freed_packets

# ------------------------------------------------------------- scheduler


class ReferenceScheduler:
    """The original single binary heap, with the calendar queue's interface."""

    def __init__(self) -> None:
        self._heap: List[_SchedEntry] = []
        self._cancelled = 0

    def insert(self, time: float, seq: int, fn: Any, args: Optional[tuple]) -> None:
        heapq.heappush(self._heap, (time, seq, 0, fn, args))

    def make_post(self, sim: "engine.Simulator", seq: Any) -> Callable[..., None]:
        """Build ``sim.post``: the sequence draw and heap push in one frame.

        Capturing the heap list is safe because :meth:`compact` rebuilds
        it in place.
        """
        heap = self._heap
        heappush = heapq.heappush
        seq_next = seq.__next__

        def post(delay: float, fn: Callable, *args: Any) -> None:
            if delay < 0:
                raise ValueError(f"cannot schedule in the past (delay={delay})")
            heappush(heap, (sim.now + delay, seq_next(), 0, fn, args))

        return post

    def _run(self, sim: "engine.Simulator", limit: float) -> int:
        """Dispatch events with ``time <= limit``; returns the count run."""
        heap = self._heap
        heappop = heapq.heappop
        refcount = getrefcount
        pool_max = _EVENT_POOL_MAX
        free = sim._free_events
        grave = _packet_graveyard
        sweep = sweep_freed_packets
        n = 0
        while sim._running and heap:
            head = heap[0]
            if head[0] > limit:
                break
            heappop(heap)
            fn = head[3]
            args = head[4]
            if args is None:
                event = fn
                event._queue = None
                if event.cancelled:
                    self._cancelled -= 1
                    head = None
                    if len(free) < pool_max and refcount(event) == 2:
                        free.append(event)
                    continue
                sim.now = head[0]
                fn = event.fn
                args = event.args
                event.fn = None
                event.args = ()
                head = None
                fn(*args)
                n += 1
                args = None
                if len(free) < pool_max and refcount(event) == 2:
                    free.append(event)
            else:
                sim.now = head[0]
                head = None
                fn(*args)
                n += 1
                args = None
            if grave:
                sweep()
        return n

    def note_cancel(self) -> None:
        self._cancelled += 1
        if self._cancelled > 32 and self._cancelled * 2 > len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant."""
        # In place, so dispatch loops holding a reference stay valid.
        self._heap[:] = [e for e in self._heap if _entry_live(e)]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def pending(self) -> int:
        return len(self._heap) - self._cancelled

    def __len__(self) -> int:
        return len(self._heap)


@contextlib.contextmanager
def reference_scheduler() -> Iterator[None]:
    """Simulators built in the block use :class:`ReferenceScheduler`."""
    with mock.patch.object(engine, "CalendarScheduler", ReferenceScheduler):
        yield


# ------------------------------------------------------------------- rng


@contextlib.contextmanager
def stdlib_rng() -> Iterator[None]:
    """Simulators built in the block draw from plain ``random.Random``."""
    with mock.patch.object(engine, "BatchedRandom", random.Random):
        yield


# ------------------------------------------------------------------ tree


def predict_object(tree: C45Tree, X: np.ndarray) -> np.ndarray:
    """Class codes by index-set partitioning over the tree's node objects."""
    out = np.empty(len(X), dtype=int)
    stack = [(tree.root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if node.is_leaf:
            out[idx] = node.prediction
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def _object_predict(tree: C45Tree, X: np.ndarray) -> np.ndarray:
    if tree.root is None:
        raise RuntimeError("tree is not fitted")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    return tree.classes_[predict_object(tree, X)]


def _object_predict_one(tree: C45Tree, row: np.ndarray) -> object:
    return _object_predict(tree, np.asarray(row, dtype=float)[None, :])[0]


def _no_plan(self: CompiledAnalyzer, rows: Any, durations: Any) -> None:
    return None


@contextlib.contextmanager
def object_engine() -> Iterator[None]:
    """Diagnoses in the block take the full-matrix, node-object path."""
    with mock.patch.object(CompiledAnalyzer, "predict_rows", _no_plan):
        with mock.patch.multiple(
            C45Tree, predict=_object_predict, predict_one=_object_predict_one
        ):
            yield
