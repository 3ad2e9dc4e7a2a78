"""Reference engines for the differential tests.

Production code runs one engine per hot job: the calendar scheduler, the
batched MT19937 draws, inline zero-latency delivery and the compiled
``TreePlan``.  The engines they replaced are kept here as oracles, and
each context manager below swaps one of them in for the duration of a
block:

* :func:`reference_scheduler` -- every ``Simulator`` built inside the
  block queues events on :class:`ReferenceScheduler`, the original single
  binary heap;
* :func:`posted_delivery` -- every channel delivery is queued as an
  event, never run inline when the queue is quiet;
* :func:`stdlib_rng` -- every simulator generator is a plain
  ``random.Random`` instead of ``BatchedRandom``;
* :func:`object_engine` -- ``diagnose_batch`` builds every raw and
  constructed feature of the batch as one zero-filled matrix
  (:func:`transform_rows`, the original full-matrix path) instead of
  evaluating the compiled plan, and every ``C45Tree`` prediction walks
  the node objects (:func:`predict_object`).

The swaps are ``unittest.mock.patch`` calls on class or module globals,
so they reach code running in other threads of the same process (the
in-process HTTP server) and are undone on exit.  Usable from pytest and
from ``benchmarks/`` as ``from tests.oracles import ...``.

Two more context managers inject campaign faults the same way, for the
crash tests: :func:`killed_worker` makes one controlled-campaign
instance SIGKILL the forked process running it,
:func:`failing_instance` makes one raise and :func:`stalled_instance`
makes one hang.  Forked pool workers and shard
subprocesses inherit the patch, so no production code carries a hook.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import os
import random
import shutil
import signal
import tempfile
import time
import warnings
from sys import getrefcount
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.core.compiled import CompiledAnalyzer
from repro.core.construction import (
    _BYTE_COUNTERS,
    _FLOW_DURATION_VPS,
    _PKT_COUNTERS,
    FeatureConstructor,
)
from repro.ml.tree import C45Tree
from repro.simnet import engine
from repro.simnet.engine import (
    _EVENT_POOL_MAX,
    CalendarScheduler,
    _entry_live,
    _SchedEntry,
)
from repro.testbed import campaign
from repro.testbed.testbed import SessionRecord

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

    def quiet_at(self, now: float) -> bool:
        return not self._heap or self._heap[0][0] > now

    def _run(self, sim: "engine.Simulator", limit: float) -> int:
        """Dispatch events with ``time <= limit``; returns the count run."""
        heap = self._heap
        heappop = heapq.heappop
        refcount = getrefcount
        pool_max = _EVENT_POOL_MAX
        free = sim._free_events
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


def _never_quiet(self: Any, now: float) -> bool:
    return False


@contextlib.contextmanager
def posted_delivery() -> Iterator[None]:
    """Simulators built in the block post every channel delivery.

    ``quiet_at`` always answers False, so a zero-latency delivery is
    queued as an event instead of running inline in ``Channel._tx_done``.
    """
    with mock.patch.object(CalendarScheduler, "quiet_at", _never_quiet):
        with mock.patch.object(ReferenceScheduler, "quiet_at", _never_quiet):
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


# --------------------------------------------------------- construction


def transform_rows(
    constructor: FeatureConstructor,
    rows: Sequence[Dict[str, float]],
    session_s: Optional[Sequence[float]] = None,
) -> Tuple[np.ndarray, List[str]]:
    """Vectorized construction over a batch of raw feature dicts.

    Returns ``(matrix, names)`` where ``matrix`` is a dense ``(n, f)``
    array holding the raw features plus every constructed one, and
    ``names`` labels the columns.  Missing raw features are zero-filled
    over the union of the batch's names.  The first time a batch
    zero-fills anything, a ``RuntimeWarning`` lists the affected feature
    names.

    ``session_s`` optionally gives the video-session duration per row;
    rows with a positive duration gain the ``*_tcp_flow_duration_norm``
    features.
    """
    if not constructor.fitted:
        raise RuntimeError("constructor must be fit before transform")
    rows = list(rows)
    n = len(rows)
    if n == 0:
        return np.zeros((0, 0)), []

    # -- gather the raw matrix ------------------------------------------
    zero_filled: set = set()
    first_keys = tuple(rows[0])
    if all(map(first_keys.__eq__, map(tuple, rows))):
        # homogeneous batch (the common fleet case): one C-level copy
        names = list(first_keys)
        flat = np.fromiter(
            itertools.chain.from_iterable(row.values() for row in rows),
            dtype=float,
            count=n * len(names),
        )
        base = flat.reshape(n, len(names))
    else:
        name_set = set()
        for row in rows:
            name_set.update(row)
        names = sorted(name_set)
        index = {name: j for j, name in enumerate(names)}
        base = np.zeros((n, len(names)))
        for i, row in enumerate(rows):
            for name, value in row.items():
                base[i, index[name]] = value
            if len(row) != len(names):
                zero_filled.update(name_set.difference(row))
    col = {name: j for j, name in enumerate(names)}

    constructed: List[Tuple[str, np.ndarray]] = []

    def emit(name: str, values: np.ndarray) -> None:
        if name in col:
            base[:, col[name]] = values
        else:
            constructed.append((name, values))

    # -- per-direction count normalisation ------------------------------
    for name in list(names):
        if "_tcp_" not in name:
            continue
        for direction in ("c2s", "s2c"):
            tag = f"_{direction}_"
            if tag not in name:
                continue
            prefix, suffix = name.split(tag, 1)
            if suffix in _PKT_COUNTERS:
                total_name = f"{prefix}_{direction}_pkts"
            elif suffix in _BYTE_COUNTERS:
                total_name = f"{prefix}_{direction}_bytes"
            else:
                continue
            values = base[:, col[name]]
            if total_name in col:
                total = base[:, col[total_name]]
                with np.errstate(divide="ignore", invalid="ignore"):
                    norm = np.where(total > 0, values / np.where(total > 0, total, 1.0), 0.0)
            else:
                zero_filled.add(total_name)
                norm = np.zeros(n)
            emit(f"{name}_norm", norm)

    # -- NIC utilisation -------------------------------------------------
    for name, max_rate in constructor.nic_max_rates.items():
        if name in col and max_rate > 0:
            util = np.minimum(1.0, base[:, col[name]] / max_rate)
            emit(f"{name[:-5]}_util", util)

    # -- flow duration over session duration ----------------------------
    if session_s is not None:
        sess = np.asarray(list(session_s), dtype=float)
        if sess.shape != (n,):
            raise ValueError("session_s must have one entry per row")
        positive = sess > 0
        safe = np.where(positive, sess, 1.0)
        for vp in _FLOW_DURATION_VPS:
            key = f"{vp}_tcp_flow_duration"
            if key in col:
                norm = np.where(positive, base[:, col[key]] / safe, 0.0)
                emit(f"{key}_norm", norm)

    if constructed:
        extra = np.column_stack([values for _name, values in constructed])
        matrix = np.concatenate([base, extra], axis=1)
        names = names + [name for name, _values in constructed]
    else:
        matrix = base
    if zero_filled:
        warned = getattr(constructor, "_warned_zero_fill", None)
        if not isinstance(warned, set):
            warned = set()
        constructor._warned_zero_fill = warned  # type: ignore[attr-defined]
        missing = tuple(sorted(zero_filled))
        if missing not in warned:
            warned.add(missing)
            warnings.warn(
                "transform_rows zero-filled features missing from the "
                f"input rows: {list(missing)}; check the metric names "
                "against the probe schema (repro lint rule M201)",
                RuntimeWarning,
                stacklevel=2,
            )
    return matrix, names


def _full_matrix_predict(
    self: CompiledAnalyzer, rows: Sequence[Dict[str, float]], durations: Sequence[float]
) -> Dict[str, List[str]]:
    """Per-task labels from the full zero-filled matrix of the batch."""
    analyzer = self.analyzer
    matrix, names = transform_rows(analyzer.constructor, rows, session_s=durations)
    column = {name: j for j, name in enumerate(names)}
    # Pad with one zero column so every selected feature -- present or
    # not -- resolves with a single fancy-index per task.
    padded = np.concatenate([matrix, np.zeros((len(rows), 1))], axis=1)
    zero_col = padded.shape[1] - 1
    predictions = {}
    for task in analyzer.features:
        idx = [column.get(name, zero_col) for name in analyzer.features[task]]
        labels = analyzer.models[task].predict(padded[:, idx])
        predictions[task] = [str(label) for label in np.asarray(labels).tolist()]
    return predictions


@contextlib.contextmanager
def object_engine() -> Iterator[None]:
    """Diagnoses in the block take the full-matrix, node-object path."""
    with mock.patch.object(CompiledAnalyzer, "predict_rows", _full_matrix_predict):
        with mock.patch.multiple(
            C45Tree, predict=_object_predict, predict_one=_object_predict_one
        ):
            yield


# --------------------------------------------------------- campaign faults

#: the controlled campaign's own instance function, called by the faults
_controlled_instance = campaign._controlled_instance

#: ``(index, deaths, tally_dir, owner_pid)`` of the active killed_worker
_KILL: Optional[Tuple[int, Optional[int], str, int]] = None

#: campaign index that raises inside :func:`failing_instance`
_FAIL_INDEX: Optional[int] = None

#: campaign index that hangs inside :func:`stalled_instance`
_STALL_INDEX: Optional[int] = None


def _claim_death(tally: str, deaths: Optional[int]) -> bool:
    """Whether this run should die: one of ``deaths`` tokens, taken
    atomically across processes (every run dies when ``None``)."""
    if deaths is None:
        return True
    for death in range(deaths):
        try:
            os.close(os.open(os.path.join(tally, f"death-{death}"),
                             os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            continue
        return True
    return False


def _killing_instance(config: Any, index: int, instance_seed: int) -> SessionRecord:
    assert _KILL is not None
    target, deaths, tally, owner = _KILL
    if index == target and _claim_death(tally, deaths):
        if os.getpid() == owner:
            raise RuntimeError(f"instance {index} would kill the test process")
        os.kill(os.getpid(), signal.SIGKILL)
    return _controlled_instance(config, index, instance_seed)


def _failing_instance(config: Any, index: int, instance_seed: int) -> SessionRecord:
    if index == _FAIL_INDEX:
        raise RuntimeError(f"injected failure at instance {index}")
    return _controlled_instance(config, index, instance_seed)


def _stalling_instance(config: Any, index: int, instance_seed: int) -> SessionRecord:
    if index == _STALL_INDEX:
        time.sleep(600)
    return _controlled_instance(config, index, instance_seed)


@contextlib.contextmanager
def killed_worker(index: int, deaths: Optional[int] = 1) -> Iterator[None]:
    """Controlled-campaign instance ``index`` SIGKILLs its forked process.

    The first ``deaths`` runs of the instance die (every run when
    ``None``), counted across processes; later runs simulate normally.
    Only processes forked inside the block die: a run in the process
    that entered it raises ``RuntimeError`` instead.
    """
    global _KILL
    tally = tempfile.mkdtemp(prefix="killed-worker-")
    _KILL = (index, deaths, tally, os.getpid())
    try:
        with mock.patch.object(campaign, "_controlled_instance", _killing_instance):
            yield
    finally:
        _KILL = None
        shutil.rmtree(tally, ignore_errors=True)


@contextlib.contextmanager
def failing_instance(index: int) -> Iterator[None]:
    """Controlled-campaign instance ``index`` raises on every run."""
    global _FAIL_INDEX
    _FAIL_INDEX = index
    try:
        with mock.patch.object(campaign, "_controlled_instance", _failing_instance):
            yield
    finally:
        _FAIL_INDEX = None


@contextlib.contextmanager
def stalled_instance(index: int) -> Iterator[None]:
    """Controlled-campaign instance ``index`` sleeps for ten minutes: a run
    that is still going whenever the test chooses to interrupt it."""
    global _STALL_INDEX
    _STALL_INDEX = index
    try:
        with mock.patch.object(campaign, "_controlled_instance", _stalling_instance):
            yield
    finally:
        _STALL_INDEX = None
