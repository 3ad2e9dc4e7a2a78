"""The repository benchmark: one command, four workloads, per-layer budgets.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the ``repro`` package under
``src/`` and prints, as its last line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in ``BENCHMARK.json``.  Nothing in ``src/`` is
instrumented: layers are timed from outside, by wrappers this package
installs around calls into each layer.  Self-tests:
``python3 -m pytest perfbench/tests``.

End-to-end metrics (every workload reports all of them):

``setup_s``
    Median of seven set-ups: spawn to ``READY`` (imports and catalog for
    ``campaign``; ``api.load_analyzer`` plus one warm batch for
    ``spool_diagnose``), or spawn of ``repro serve`` to the first 200 on
    ``/readyz``.  Input generation is excluded.
``rows_s``
    Sessions completed per second: simulated and spooled (``campaign``),
    or diagnosed and encoded (the others).  It is the rate of the fast
    unit of work, the 10th percentile of unit times -- a record
    (``campaign``), a 64-row chunk (``spool_diagnose``), a 64-record
    request (``serve_fleet``) -- and, on the open loop of
    ``serve_session``, the rate it delivered.
``p10_ms``
    The 10th-percentile latency of one operation: a record, a chunk or a
    request (from its due time on ``serve_session``).
``ok_share``
    One minus the error share: failed operations (non-200, timeout,
    reset, exception) over attempted ones.  Reported as the complement
    so the metric is never 0.
``peak_rss_mb``
    ``VmHWM`` of the process doing the work (worker or server).

Why the fastest tenth, not the mean, the median or a tail: on a shared
host the speed of the machine switches, from one second to the next,
between a fast mode and one up to ~1.7x slower, and the share of a run
spent in each varies from run to run.  Over sets of six to ten seeds the
mean and the median of a run moved 12-30% (IQR/median) and p90 5-30% on
``spool_diagnose`` and ``serve_fleet``, while their 10th percentile
moved 3-10%: every run visits the fast mode.  Slower phases that last
minutes still move every figure; ``campaign``, whose records take
~0.1 s of pure-Python simulation each, feels them most (13-24%).  The
median, the tail (the highest percentile up to ``TAIL_PCT`` with ten
samples beyond it) and the mean rate are printed in each run's notes,
ungated.

Predicted interactions, for changes measured on this benchmark:

* a decode change moves ``rows_s`` on ``spool_diagnose`` and
  ``serve_fleet``, barely ``serve_session``, not ``campaign``;
* a batcher wait-policy change moves ``p10_ms`` on ``serve_session``,
  not on ``serve_fleet``;
* a simnet/TCP change moves only ``campaign``;
* no workload is ML-bound (``core.*`` is under 10% of every budget), so
  an ML-only change cannot show an end-to-end gain here.
"""
