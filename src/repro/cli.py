"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``campaign``
    Simulate a labelled dataset (controlled / realworld / wild) and save
    it as a pickle.  With ``--shards N`` the controlled campaign is cut
    into N contiguous slices, each an independently resumable JSONL
    shard spool, for fan-out across hosts: ``--shard K`` runs one slice
    (``--resume`` continues it from its checkpoint after a crash), and
    ``--merge`` concatenates the shard spools in order, byte-identical
    to a never-sharded run.
``evaluate``
    Run one of the paper's experiments against a dataset (cached default
    or a pickle produced by ``campaign``).
``diagnose``
    Diagnose the sessions of a dataset, printing one human-readable
    report line per session (or JSON with ``--json``).  A thin client of
    :mod:`repro.api`: records flow through exactly the same
    ``diagnose_records`` entry point the HTTP server uses.
``report``
    Fleet-level QoE report over a dataset.
``stream``
    Run a campaign through the streaming pipeline: records flow one at
    a time from the simulator into a JSONL spool (``--sink``) and/or a
    chunked streaming diagnosis (``--diagnose``), with constant memory.
    ``--resume`` restarts an interrupted spool at the last checkpointed
    instance, bit-identical to an uninterrupted run.
``serve``
    Long-lived diagnosis service (``repro.serve``): an asyncio HTTP
    server that micro-batches concurrent ``POST /v1/diagnose`` requests
    onto the vectorized analyzer, with health/readiness endpoints,
    versioned hot-swappable models, and graceful SIGTERM drain.
``trace``
    Run a campaign through the streaming pipeline with telemetry
    enabled and print a per-stage summary (wall time, records in/out,
    self time) plus per-worker campaign attribution.
``lint``
    Static analysis of the project's own invariants (determinism,
    metric-schema consistency, telemetry span usage).

Exit codes
----------

Every subcommand exits uniformly: **0** on success, **1** on a domain
failure (bad dataset file, lint findings, foreign spool, ...), **2** on
a usage error (unknown flags, incompatible flag combinations, malformed
invocations), and **130** when interrupted (Ctrl-C / SIGINT), after one
``repro: interrupted`` line on stderr; a checkpointed spool keeps its
sidecar, so ``--resume`` continues it.  ``main()`` returns these codes
rather than raising.

JSON output
-----------

Every ``--json`` emission is wrapped in one envelope::

    {"schema": "repro-<command>-v1", "data": ...}

``stream --json`` emits one envelope per line (NDJSON); all other
commands emit a single envelope document.  The pre-envelope ad-hoc
shapes (bare lists and objects) are **deprecated and removed** —
consumers must unwrap ``data`` and should dispatch on ``schema``.

Examples
--------

::

    python -m repro campaign --kind controlled --instances 120 \
        --workers 4 --out lab.pkl
    python -m repro campaign --instances 100000 --shards 16 \
        --shard 3 --workers 4 --out mega.jsonl    # on each host, K=0..15
    python -m repro campaign --instances 100000 --shards 16 \
        --merge --out mega.jsonl
    python -m repro evaluate --experiment fig3 --dataset lab.pkl
    python -m repro diagnose --train lab.pkl --vps mobile --limit 5
    python -m repro stream --kind controlled --instances 200 \
        --sink lab.jsonl --resume --workers 4
    python -m repro serve --train lab.pkl --port 8080 --max-batch 64
    python -m repro trace --instances 50 --diagnose --json
    python -m repro lint src/repro --sarif lint-results.sarif
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pickle
import sys
from pathlib import Path
from typing import Iterable

from repro.core.dataset import Dataset
from repro.schemas import envelope_tag


class CliError(Exception):
    """A domain failure: the command ran but its work failed (exit 1)."""


class UsageError(CliError):
    """An invocation the parser accepts but the command rejects (exit 2)."""


def _print_envelope(command: str, data: object, indent=2) -> None:
    """Emit the one machine-readable shape: the versioned JSON envelope."""
    print(json.dumps({"schema": envelope_tag(command), "data": data},
                     indent=indent))


def _envelope_line(command: str, data: object) -> str:
    """One NDJSON envelope line (for streaming emitters)."""
    return json.dumps({"schema": envelope_tag(command), "data": data},
                      separators=(",", ":"))


def _load_dataset(path: str) -> Dataset:
    try:
        with Path(path).open("rb") as fh:
            obj = pickle.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read dataset {path}: {exc}") from exc
    except (pickle.UnpicklingError, EOFError) as exc:
        raise CliError(f"{path} is not a dataset pickle: {exc}") from exc
    if not isinstance(obj, Dataset):
        raise CliError(f"{path} does not contain a repro Dataset")
    return obj


#: appended to a pool crash where the run can continue from a checkpoint
_RESUME_HINT = "; rerun with --resume to continue from the last checkpoint"


@contextlib.contextmanager
def _worker_crashes(hint: str = ""):
    """Map a campaign pool that kept losing workers to a domain failure."""
    from repro.testbed.campaign import WorkerCrashError

    try:
        yield
    except WorkerCrashError as exc:
        raise CliError(f"{exc}{hint}") from exc


def _default_dataset(kind: str, instances, workers=None):
    from repro.experiments.common import (
        controlled_dataset,
        realworld_dataset,
        wild_dataset,
    )

    builders = {
        "controlled": controlled_dataset,
        "realworld": realworld_dataset,
        "wild": wild_dataset,
    }
    with _worker_crashes():
        return builders[kind](n_instances=instances, workers=workers,
                              verbose=True)


def _fit_analyzer(train: Dataset, vps: str):
    """Fit through the facade; bad ``--vps`` is a usage error, a dataset
    too small to train on is a domain failure."""
    from repro import api
    from repro.core.vantage import ALL_VPS

    wanted = tuple(vps.split(","))
    unknown = set(wanted) - set(ALL_VPS)
    if unknown or not wanted:
        raise UsageError(f"unknown vantage points: {sorted(unknown)}")
    try:
        return api.load_analyzer(dataset=train, vps=wanted)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _campaign_shard_config(args):
    """The controlled-campaign config every sharded mode shares.

    The serial (``--shards 1``) reference, every shard of an N-way run
    and the merge build the exact same config from ``--instances`` and
    ``--seed``; the shard key in each shard's checkpoint pins that
    config and the slice, so a merge given other values is refused.
    """
    from repro.experiments.common import CONTROLLED_N, scaled
    from repro.testbed.campaign import CampaignConfig

    return CampaignConfig(
        n_instances=(args.instances if args.instances
                     else scaled(CONTROLLED_N)),
        seed=args.seed if args.seed is not None else 42,
    )


def _check_shard_flags(args) -> None:
    """Reject invalid sharded-campaign flag combinations (exit 2)."""
    if args.shards is None:
        conflicts = [flag for flag, value in (
            ("--shard", args.shard is not None),
            ("--merge", args.merge),
            ("--resume", args.resume),
        ) if value]
        if conflicts:
            raise UsageError(f"{', '.join(conflicts)} require(s) --shards N")
        return
    if args.shards < 1:
        raise UsageError(f"--shards must be >= 1, got {args.shards}")
    if args.kind != "controlled":
        raise UsageError("--shards applies to controlled campaigns only")
    modes = [flag for flag, value in (
        ("--shard", args.shard is not None),
        ("--merge", args.merge),
    ) if value]
    if len(modes) != 1:
        raise UsageError(
            "--shards needs exactly one of --shard K or --merge "
            f"(got {', '.join(modes) if modes else 'none'})"
        )
    if args.shard is not None and not 0 <= args.shard < args.shards:
        raise UsageError(
            f"--shard must be in [0, {args.shards}), got {args.shard}"
        )
    if args.resume and args.shard is None:
        raise UsageError("--resume applies to --shard runs")


def _cmd_campaign_sharded(args) -> int:
    from repro.pipeline import (
        NotShardedError,
        ShardError,
        merge_shards,
        run_shard,
    )

    config = _campaign_shard_config(args)
    base = args.out

    if args.merge:
        try:
            merged = merge_shards(config, base, args.shards)
        except NotShardedError as exc:
            raise UsageError(str(exc)) from exc
        except ShardError as exc:
            raise CliError(str(exc)) from exc
        if args.json:
            _print_envelope("campaign-shard", {
                "mode": "merge",
                "out": str(merged.out),
                "shards": merged.shards,
                "records": merged.records,
                "config_key": merged.config_key,
            })
        else:
            print(f"merged {merged.records} records from {merged.shards} "
                  f"shards into {merged.out}")
        return 0

    # One shard of an N-way campaign (run on this host or any other).
    def progress(index: int, record) -> None:
        if not args.json:
            print(f"  [shard {args.shard}] instance {index} "
                  f"(severity={record.severity})", flush=True)

    try:
        with _worker_crashes(_RESUME_HINT):
            shard_run = run_shard(
                config, base, args.shards, args.shard,
                workers=args.workers,
                resume=args.resume,
                progress=progress if args.verbose else None,
            )
    except NotShardedError as exc:
        raise UsageError(str(exc)) from exc
    except ShardError as exc:
        raise CliError(str(exc)) from exc
    if args.json:
        _print_envelope("campaign-shard", {
            "mode": "shard",
            "shard": shard_run.shard,
            "shards": shard_run.shards,
            "spool": str(shard_run.spool),
            "records": shard_run.records,
            "resumed_at": shard_run.resumed_at,
        })
    else:
        print(f"shard {shard_run.shard}/{shard_run.shards}: "
              f"{shard_run.records} records in {shard_run.spool}"
              + (f" (resumed at {shard_run.resumed_at})"
                 if shard_run.resumed_at else ""))
    return 0


def cmd_campaign(args) -> int:
    _check_shard_flags(args)
    if args.shards is not None:
        return _cmd_campaign_sharded(args)
    dataset = _default_dataset(args.kind, args.instances, workers=args.workers)
    with Path(args.out).open("wb") as fh:
        pickle.dump(dataset, fh, protocol=pickle.HIGHEST_PROTOCOL)
    severity = dataset.label_counts("severity")
    if args.json:
        _print_envelope("campaign", {
            "out": args.out,
            "kind": args.kind,
            "instances": len(dataset),
            "features": len(dataset.feature_names),
            "severity": severity,
        })
        return 0
    print(f"wrote {len(dataset)} instances "
          f"({len(dataset.feature_names)} features) to {args.out}")
    print(f"severity: {severity}")
    return 0


EXPERIMENTS = {
    "table1": ("selection_table", "run_selection", False),
    "fig3": ("detection", "run_detection", False),
    "sec52": ("location", "run_location", False),
    "fig4": ("exact", "run_exact", False),
    "fig5": ("feature_sets", "run_feature_sets", False),
    "ablation": ("feature_sets", "run_fc_fs_ablation", False),
    "classifiers": ("classifiers", "run_classifier_comparison", False),
    "fig6": ("realworld", "run_realworld_detection", True),
    "fig7": ("realworld", "run_realworld_exact", True),
    "fig8": ("wild", "run_wild_detection", True),
    "fig9": ("wild", "run_server_inference", True),
    "table5": ("wild", "run_wild_rca", True),
}


def cmd_evaluate(args) -> int:
    import importlib

    module_name, fn_name, needs_two = EXPERIMENTS[args.experiment]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    runner = getattr(module, fn_name)
    if needs_two:
        train = (_load_dataset(args.train) if args.train
                 else _default_dataset("controlled", None))
        test = (_load_dataset(args.dataset) if args.dataset
                else _default_dataset(
                    "wild" if args.experiment in ("fig8", "fig9", "table5")
                    else "realworld", None))
        result = runner(train, test)
    else:
        dataset = (_load_dataset(args.dataset) if args.dataset
                   else _default_dataset("controlled", None))
        result = runner(dataset)
    if hasattr(result, "to_text"):
        print(result.to_text())
    else:
        print(result)
    return 0


def cmd_diagnose(args) -> int:
    from repro import api

    if args.model:
        if args.train:
            raise UsageError("--model and --train are mutually exclusive")
        if not args.dataset:
            raise UsageError("--model needs --dataset (sessions to diagnose)")
        try:
            analyzer = api.load_analyzer(path=args.model)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load model {args.model}: {exc}") from exc
        target = _load_dataset(args.dataset)
    else:
        train = (_load_dataset(args.train) if args.train
                 else _default_dataset("controlled", None, workers=args.workers))
        target = _load_dataset(args.dataset) if args.dataset else train
        analyzer = _fit_analyzer(train, args.vps)

    limit = args.limit if args.limit > 0 else len(target)
    instances = target.instances[:limit]
    response = api.diagnose_records(analyzer, instances)
    entries = [
        dict(diagnosis, index=index, truth=inst.label("exact"))
        for index, (inst, diagnosis) in enumerate(
            zip(instances, response.diagnoses))
    ]
    if args.json:
        _print_envelope("diagnose", {
            "model": response.model.to_dict(),
            "diagnoses": entries,
        })
        return 0
    hits = 0
    for entry in entries:
        truth = entry["truth"]
        match = "OK " if entry["exact"] == truth else "MISS"
        hits += entry["exact"] == truth
        print(f"[{entry['index']:4d}] {match} truth={truth:<28} {entry['summary']}")
        if args.explain:
            inst = instances[entry["index"]]
            _label, path = analyzer.explain(
                inst.features, task="exact",
                session_s=inst.meta.get("session_s"),
            )
            for cond in path[:5]:
                print(f"         because {cond}")
    print(f"\nexact-label agreement: {hits}/{limit}")
    return 0


def cmd_report(args) -> int:
    from repro.core.report import fleet_report

    train = (_load_dataset(args.train) if args.train
             else _default_dataset("controlled", None, workers=args.workers))
    target = _load_dataset(args.dataset) if args.dataset else train
    analyzer = _fit_analyzer(train, args.vps)
    report = fleet_report(analyzer, target)
    if args.json:
        _print_envelope("report", report.to_dict())
    else:
        print(report.to_text())
    return 0


def cmd_stream(args) -> int:
    from repro.pipeline import (
        CampaignSource,
        CountSink,
        DiagnoseStage,
        JsonlSink,
        JsonlSource,
        Pipeline,
        SpoolError,
        config_fingerprint,
        resume_position,
    )
    from repro.testbed.campaign import CampaignConfig
    from repro.testbed.realworld import RealWorldConfig, WildConfig

    stages = []
    source: Iterable[object]
    if args.source:
        if args.resume:
            raise UsageError("--resume applies to simulated campaigns, not --source")
        if args.sink:
            raise UsageError("--sink spools a simulated campaign; with --source "
                             "the records are already on disk")
        source = JsonlSource(args.source)
    else:
        from repro.experiments.common import (
            CONTROLLED_N,
            REALWORLD_N,
            WILD_N,
            scaled,
        )

        kinds = {
            "controlled": (CampaignConfig, CONTROLLED_N, 42),
            "realworld": (RealWorldConfig, REALWORLD_N, 1337),
            "wild": (WildConfig, WILD_N, 2718),
        }
        config_cls, default_n, default_seed = kinds[args.kind]
        config = config_cls(
            n_instances=args.instances if args.instances else scaled(default_n),
            seed=args.seed if args.seed is not None else default_seed,
        )
        key = config_fingerprint(config)
        start = 0
        if args.resume:
            if not args.sink:
                raise UsageError("--resume needs --sink to know which spool "
                                 "to continue")
            try:
                start = resume_position(args.sink, key)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
            if start:
                print(f"resuming {args.sink} at instance {start}/"
                      f"{config.n_instances}", flush=True)
        if start >= config.n_instances:
            print(f"{args.sink}: campaign already complete "
                  f"({config.n_instances} instances)")
            return 0

        def progress(index: int, record) -> None:
            if not args.json:
                print(f"  [{args.kind}] {index + 1}/{config.n_instances} "
                      f"(severity={record.severity})", flush=True)

        source = CampaignSource(
            config, start=start, workers=args.workers,
            progress=progress if args.verbose else None,
        )
        if args.sink:
            stages.append(JsonlSink(args.sink, config_key=key, start=start))

    analyzer = None
    if args.diagnose:
        train = (_load_dataset(args.train) if args.train
                 else _default_dataset("controlled", None, workers=args.workers))
        analyzer = _fit_analyzer(train, args.vps)
        stages.append(DiagnoseStage(analyzer, chunk=args.chunk))
    counter = CountSink()
    stages.append(counter)

    pipeline = Pipeline(source, *stages)
    index = 0
    try:
        with _worker_crashes(_RESUME_HINT if args.sink else ""):
            for item in pipeline:
                if analyzer is not None:
                    record, report = item.session, item.report
                    truth = record.exact_label
                    if args.json:
                        print(_envelope_line("stream", dict(
                            report.to_dict(), index=index, truth=truth)))
                    else:
                        match = "OK " if report.exact == truth else "MISS"
                        print(f"[{index:4d}] {match} truth={truth:<28} "
                              f"{report.summary()}")
                index += 1
    except SpoolError as exc:
        raise CliError(str(exc)) from exc
    summary = counter.result()
    if not args.json:
        print(f"streamed {summary['count']} sessions; "
              f"severity: {summary['severity']}")
        if args.sink and not args.source:
            print(f"spooled to {args.sink}")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve import DiagnosisServer, ModelRegistry, RegistryError, ServeConfig

    registry = ModelRegistry()
    sources = [flag for flag, value in
               (("--models", args.models), ("--model", args.model),
                ("--train", args.train)) if value]
    if len(sources) > 1:
        raise UsageError(f"pass one model source, got {' and '.join(sources)}")
    if args.max_batch < 1:
        raise UsageError(f"--max-batch must be >= 1, got {args.max_batch}")
    if not 0 <= args.port <= 65535:
        raise UsageError(f"--port must be in 0..65535, got {args.port}")
    try:
        if args.models:
            registry.load_dir(args.models)
        elif args.model:
            registry.load_path(args.model, activate=True)
        else:
            train = (_load_dataset(args.train) if args.train
                     else _default_dataset("controlled", None,
                                           workers=args.workers))
            registry.register("default", _fit_analyzer(train, args.vps))
    except RegistryError as exc:
        raise CliError(str(exc)) from exc
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load model(s): {exc}") from exc

    config = ServeConfig(host=args.host, port=args.port, max_batch=args.max_batch)
    server = DiagnosisServer(registry, config)

    async def _serve() -> None:
        try:
            await server.start()
        except OSError as exc:
            raise CliError(
                f"cannot bind {args.host}:{args.port}: {exc}") from exc
        startup = {
            "host": args.host,
            "port": server.port,
            "active": registry.active_version,
            "versions": registry.versions(),
            "max_batch": args.max_batch,
        }
        if args.json:
            _print_envelope("serve", startup, indent=None)
        else:
            print(f"serving diagnoses on http://{args.host}:{server.port} "
                  f"(model {registry.active_version}; "
                  f"batch<={args.max_batch}); "
                  f"SIGTERM or Ctrl-C drains", flush=True)
        sys.stdout.flush()
        await server.run()
        if not args.json:
            print("drained; bye")

    asyncio.run(_serve())
    return 0


def cmd_trace(args) -> int:
    from repro.obs import (
        render_summary,
        summarize,
        tracing,
        write_trace,
    )
    from repro.pipeline import (
        CampaignSource,
        CountSink,
        DiagnoseStage,
        Pipeline,
    )
    from repro.testbed.campaign import CampaignConfig
    from repro.testbed.realworld import RealWorldConfig, WildConfig

    kinds = {
        "controlled": (CampaignConfig, 42),
        "realworld": (RealWorldConfig, 1337),
        "wild": (WildConfig, 2718),
    }
    config_cls, default_seed = kinds[args.kind]
    config = config_cls(
        n_instances=args.instances,
        seed=args.seed if args.seed is not None else default_seed,
    )

    with tracing() as tel:
        stages = []
        if args.diagnose:
            train = (_load_dataset(args.train) if args.train
                     else _default_dataset("controlled", None,
                                           workers=args.workers))
            analyzer = _fit_analyzer(train, args.vps)
            stages.append(DiagnoseStage(analyzer, chunk=args.chunk))
        counter = CountSink()
        stages.append(counter)
        source = CampaignSource(config, workers=args.workers)
        with _worker_crashes():
            Pipeline(source, *stages).run()
        payload = tel.export(
            command="trace", kind=args.kind, instances=config.n_instances
        )

    if args.out:
        write_trace(args.out, payload)
    summary = summarize(payload)
    if args.json:
        _print_envelope("trace", summary)
    else:
        print(render_summary(summary))
        if args.out:
            print(f"trace written to {args.out}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import lint_paths, render_text, rule_table

    if args.rules:
        for rule_id, name, severity, summary in rule_table():
            print(f"{rule_id}  {severity:<7} {name:<28} {summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    if not paths:
        default = Path("src/repro")
        paths = [default if default.is_dir() else Path(".")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise UsageError(f"no such path: {', '.join(map(str, missing))}")

    result = lint_paths(paths, root=Path.cwd())

    if args.sarif:
        from repro.analysis.sarif import write_sarif

        exported = write_sarif(Path(args.sarif), result)
        print(f"wrote {exported} results to {args.sarif}", file=sys.stderr)

    if args.json:
        _print_envelope("lint", result.to_dict())
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("campaign", help="simulate a labelled dataset")
    p.add_argument("--kind", choices=("controlled", "realworld", "wild"),
                   default="controlled")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="simulate instances on N processes (default: "
                        "REPRO_WORKERS or serial); output is identical")
    p.add_argument("--out", required=True,
                   help="dataset pickle path; with --shards, the JSONL "
                        "spool base path shards and the merge derive from")
    p.add_argument("--seed", type=int, default=None,
                   help="campaign seed (default: 42); part of the shard "
                        "key every shard checkpoint pins, so --merge needs "
                        "the same --instances and --seed")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="cut the campaign into N contiguous slices, each "
                        "an independently resumable JSONL spool "
                        "(controlled campaigns only)")
    p.add_argument("--shard", type=int, default=None, metavar="K",
                   help="run only shard K of --shards N (for manual or "
                        "cross-host fan-out); records land in "
                        "<out>.shardK-of-N.jsonl with a checkpoint sidecar")
    p.add_argument("--merge", action="store_true",
                   help="merge N completed shard spools into --out, "
                        "byte-identical to a never-sharded serial run")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted shard spool from its "
                        "checkpoint (bit-identical to an unbroken run)")
    p.add_argument("--verbose", action="store_true",
                   help="print per-instance progress in --shard mode")
    p.add_argument("--json", action="store_true",
                   help="emit a repro-campaign-v1 summary envelope "
                        "(repro-campaign-shard-v1 in sharded modes)")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("evaluate", help="run a paper experiment")
    p.add_argument("--experiment", choices=sorted(EXPERIMENTS), required=True)
    p.add_argument("--dataset", help="pickle from `repro campaign`")
    p.add_argument("--train", help="training pickle for transfer experiments")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("diagnose", help="diagnose sessions of a dataset")
    p.add_argument("--train", help="training pickle (default: cached controlled)")
    p.add_argument("--model", help="repro-analyzer-v1/v2 JSON export to "
                                   "diagnose with (instead of fitting)")
    p.add_argument("--dataset", help="sessions to diagnose (default: training set)")
    p.add_argument("--vps", default="mobile,router,server",
                   help="comma-separated vantage points")
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--explain", action="store_true",
                   help="print the C4.5 decision path per diagnosis")
    p.add_argument("--json", action="store_true",
                   help="emit a repro-diagnose-v1 envelope instead of text")
    p.add_argument("--workers", type=int, default=None,
                   help="workers for simulating the default training set")
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("report", help="fleet QoE report over a dataset")
    p.add_argument("--train", help="training pickle (default: cached controlled)")
    p.add_argument("--dataset", help="sessions to report on (default: training set)")
    p.add_argument("--vps", default="mobile,router,server")
    p.add_argument("--json", action="store_true",
                   help="emit a repro-report-v1 envelope")
    p.add_argument("--workers", type=int, default=None,
                   help="workers for simulating the default training set")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("stream",
                       help="run a campaign through the streaming pipeline")
    p.add_argument("--kind", choices=("controlled", "realworld", "wild"),
                   default="controlled")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="campaign seed (default: the kind's canonical seed)")
    p.add_argument("--workers", type=int, default=None,
                   help="simulate instances on N processes; the record "
                        "stream is identical to a serial run")
    p.add_argument("--chunk", type=int, default=64,
                   help="sessions per vectorized diagnosis chunk")
    p.add_argument("--sink", metavar="PATH",
                   help="spool records to a checkpointed JSONL file")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted --sink spool from its "
                        "checkpoint (bit-identical to an unbroken run)")
    p.add_argument("--source", metavar="PATH",
                   help="replay a JSONL spool instead of simulating")
    p.add_argument("--diagnose", action="store_true",
                   help="stream every record through chunked diagnosis")
    p.add_argument("--train", help="training pickle for --diagnose "
                                   "(default: cached controlled)")
    p.add_argument("--vps", default="mobile,router,server")
    p.add_argument("--json", action="store_true",
                   help="emit one repro-stream-v1 envelope per diagnosed "
                        "session (NDJSON)")
    p.add_argument("--verbose", action="store_true",
                   help="print per-instance simulation progress")
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("serve",
                       help="serve diagnoses over HTTP (micro-batched)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 picks an ephemeral port, printed "
                        "at startup)")
    p.add_argument("--train", help="training pickle to fit the served model "
                                   "(default: cached controlled campaign)")
    p.add_argument("--model", help="one repro-analyzer-v1/v2 JSON export "
                                   "to serve")
    p.add_argument("--models", metavar="DIR",
                   help="directory of versioned analyzer exports (*.json); "
                        "the lexicographically greatest version activates")
    p.add_argument("--vps", default="mobile,router,server",
                   help="vantage points when fitting from --train")
    p.add_argument("--max-batch", type=int, default=64,
                   help="most records per vectorized diagnosis call")
    p.add_argument("--workers", type=int, default=None,
                   help="workers for simulating the default training set")
    p.add_argument("--json", action="store_true",
                   help="emit a repro-serve-v1 startup envelope")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("trace",
                       help="trace a streamed campaign and summarize it")
    p.add_argument("--kind", choices=("controlled", "realworld", "wild"),
                   default="controlled")
    p.add_argument("--instances", type=int, default=50,
                   help="campaign size (default: 50)")
    p.add_argument("--seed", type=int, default=None,
                   help="campaign seed (default: the kind's canonical seed)")
    p.add_argument("--workers", type=int, default=None,
                   help="simulate instances on N processes; worker spans "
                        "are attributed per pid in the summary")
    p.add_argument("--diagnose", action="store_true",
                   help="also trace analyzer training and chunked diagnosis")
    p.add_argument("--train", help="training pickle for --diagnose "
                                   "(default: cached controlled)")
    p.add_argument("--vps", default="mobile,router,server")
    p.add_argument("--chunk", type=int, default=64,
                   help="sessions per vectorized diagnosis chunk")
    p.add_argument("--out", metavar="PATH",
                   help="write the raw repro-trace-v1 JSONL trace here")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as a repro-trace-v1 envelope")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("lint", help="static analysis of project invariants")
    p.add_argument("paths", nargs="*",
                   help="files/directories to check (default: src/repro)")
    p.add_argument("--json", action="store_true",
                   help="emit findings as a repro-lint-v1 envelope")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--sarif", metavar="OUT",
                   help="also write findings as a SARIF 2.1.0 log")
    p.set_defaults(fn=cmd_lint)
    return parser


def main(argv=None) -> int:
    """Parse and dispatch; returns 0 (ok) / 1 (failure) / 2 (usage) /
    130 (interrupted)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits; normalise to a return code
        if exc.code in (None, 0):
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except CliError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
