"""The ``python -m repro`` command line.

Three subcommands expose the workload catalogue without writing any Python:

``list``
    Print the workload catalogue (name, default scale, tags, description),
    optionally filtered by tag, optionally as JSON.

``run``
    Run the full six-step pipeline on a catalogue scenario (with optional
    rank/snapshot/seed overrides) and write a JSON summary — per-iteration
    rows, per-step aggregates, and the adaptation trajectory.  The options
    are validated by :class:`~repro.serve.procrun.RunRequest` and the run is
    :func:`~repro.serve.procrun.execute_run`: the validator and the body
    behind ``repro serve``'s ``POST /run``, so the two report the same rows.
    ``--save-dataset`` additionally persists the generated snapshots as a
    :class:`~repro.io.store.DatasetStore` (manifest + one flat ``.bin`` per
    iteration), which ``ExperimentScenario.from_store`` replays through
    read-only memory maps.

``serve``
    Run the scenario pipeline as a local asyncio HTTP service: concurrent
    ``POST /run`` requests multiplex over a shared worker pool, stream
    NDJSON per-iteration results, and share a disk-backed replay cache —
    see :mod:`repro.serve`.  Its flag values are checked once, by
    :class:`~repro.serve.server.ServeApp` and its replay cache.

No option chooses between two implementations that give the same answer.

Exit codes: 0 on success, 2 on usage errors — an unknown scenario name (the
message lists the catalogue's names) or an option value the validator refuses
(``--ranks 0``, a ``--ranks`` the scenario's grid cannot host,
``--percent 150``, ``--target -1``, an unknown metric,
``serve --workers 0``), reported as ``error: ...`` on stderr; argparse
refuses an option no subcommand has.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.redistribution import STRATEGIES
from repro.scenarios import CATALOGUE, ExperimentScenario
from repro.serve.procrun import RunRequest, _json_default, execute_run
from repro.serve.server import ServeApp, serve_forever
from repro.viz.catalyst import RENDER_MODES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run registered in situ visualization workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list the registered scenarios")
    list_p.add_argument("--tag", default=None, help="only scenarios carrying this tag")
    list_p.add_argument(
        "--json", action="store_true", help="machine-readable catalogue"
    )

    run_p = sub.add_parser("run", help="run one registered scenario")
    run_p.add_argument("scenario", help="registered scenario name (see 'list')")
    run_p.add_argument("--ranks", type=int, default=None, help="virtual rank count")
    run_p.add_argument(
        "--snapshots", type=int, default=None, help="number of snapshots to process"
    )
    run_p.add_argument(
        "--metric", default="VAR", help="block-scoring metric (default: VAR)"
    )
    run_p.add_argument(
        "--redistribution",
        default="none",
        choices=tuple(STRATEGIES),
        help="redistribution strategy (default: none)",
    )
    run_p.add_argument(
        "--percent",
        type=float,
        default=None,
        help="fixed reduction percentage (bypasses adaptation)",
    )
    run_p.add_argument(
        "--target",
        type=float,
        default=None,
        help="adaptation target in modelled seconds (enables Algorithm 1)",
    )
    run_p.add_argument(
        "--render-mode",
        default="count",
        choices=RENDER_MODES,
        help="rendering mode (default: count)",
    )
    run_p.add_argument("--seed", type=int, default=None, help="scenario seed override")
    run_p.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the JSON summary to this file (default: stdout)",
    )
    run_p.add_argument(
        "--save-dataset",
        type=Path,
        default=None,
        help="persist the generated snapshots as a DatasetStore at this directory",
    )

    serve_p = sub.add_parser(
        "serve", help="run the pipeline as a local HTTP service"
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_p.add_argument(
        "--port",
        type=int,
        default=8642,
        help="port to listen on (default: 8642; 0 picks a free port)",
    )
    serve_p.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="replay-cache directory (default: a per-process temp dir)",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=8,
        help="concurrent scenario runs in the shared pool (default: 8)",
    )
    serve_p.add_argument(
        "--execution",
        choices=("thread", "process"),
        default="thread",
        help=(
            "run execution tier: 'thread' multiplexes runs over a thread "
            "pool, 'process' dispatches each run to a GIL-free worker "
            "process with zero-copy mmap data handoff (default: thread)"
        ),
    )
    serve_p.add_argument(
        "--max-run-seconds",
        type=float,
        default=None,
        help=(
            "server-side cap on each run's duration; a request timeout_s "
            "can only tighten it (default: uncapped)"
        ),
    )
    serve_p.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        help="LRU bound on cached scenario stores (default: unbounded)",
    )
    serve_p.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="LRU bound on total cached bytes on disk (default: unbounded)",
    )
    serve_p.add_argument(
        "--shutdown-grace",
        type=float,
        default=10.0,
        help=(
            "seconds to wait for cancelled in-flight runs to drain on "
            "shutdown before abandoning them (default: 10)"
        ),
    )
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        (name, config, description, tags)
        for name, (config, description, tags) in CATALOGUE.items()
        if args.tag is None or args.tag in tags
    ]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": name,
                        "description": description,
                        "tags": list(tags),
                        "default_ranks": config.ncores,
                        "default_snapshots": config.nsnapshots,
                    }
                    for name, config, description, tags in rows
                ],
                indent=2,
            )
        )
        return 0
    if not rows:
        print(f"no scenarios tagged {args.tag!r}")
        return 0
    width = max(len(name) for name, *_ in rows)
    for name, config, description, tags in rows:
        scale = f"{config.ncores}r/{config.nsnapshots}s"
        print(f"{name:<{width}}  {scale:>8}  [{','.join(tags)}]  {description}")
    return 0


def _step_aggregates(iterations) -> Dict[str, Dict[str, float]]:
    """Per-step aggregates over a run: mean/max modelled seconds, payload."""
    steps: Dict[str, Dict[str, float]] = {}
    for result in iterations:
        for name, report in result.step_reports.items():
            agg = steps.setdefault(
                name,
                {"modelled_seconds_mean": 0.0, "modelled_seconds_max": 0.0,
                 "payload_bytes_total": 0.0, "iterations": 0},
            )
            agg["modelled_seconds_mean"] += report.modelled_max
            agg["modelled_seconds_max"] = max(
                agg["modelled_seconds_max"], report.modelled_max
            )
            agg["payload_bytes_total"] += report.payload_bytes
            agg["iterations"] += 1
    for agg in steps.values():
        if agg["iterations"]:
            agg["modelled_seconds_mean"] /= agg["iterations"]
    return steps


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        request = RunRequest.from_payload(
            {
                name: getattr(args, name)
                for name in (
                    "scenario", "ranks", "snapshots", "seed", "metric",
                    "redistribution", "percent", "target", "render_mode",
                )
            }
        )
        config = request.scenario_config()
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    _, description, tags = CATALOGUE[config.name]
    scenario = ExperimentScenario(config)
    events: List[Dict[str, object]] = []
    result, run = execute_run(request, scenario, events.append, lambda: None)
    summary = {
        "scenario": {
            "name": config.name,
            "description": description,
            "tags": list(tags),
            "ncores": config.ncores,
            "shape": list(config.shape),
            "blocks_per_subdomain": list(config.blocks_per_subdomain),
            "nsnapshots": config.nsnapshots,
            "seed": config.seed,
            "storm_family": type(config.storm).__name__ if config.storm else "default",
        },
        "config": result["config"],
        "run": result["run"],
        "steps": _step_aggregates(run.iterations),
        "iterations": [
            {key: value for key, value in event.items() if key != "type"}
            for event in events
        ],
    }
    # Status lines go to stderr: when --output is omitted, stdout carries the
    # JSON document and nothing else (the machine-readable contract).
    text = json.dumps(summary, indent=2, default=_json_default)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    if args.save_dataset is not None:
        store = scenario.save(args.save_dataset, extra_metadata={"scenario": config.name})
        print(
            f"saved dataset ({len(store.iterations())} iterations) to {store.root}",
            file=sys.stderr,
        )
    return 0


def _sigterm_as_sigint(signum, frame) -> None:
    """Run SIGINT's current handler for SIGTERM (one shutdown path for both)."""
    handler = signal.getsignal(signal.SIGINT)
    if not callable(handler):  # SIGINT ignored or default: a background launch
        handler = signal.default_int_handler
    handler(signal.SIGINT, frame)


def _cmd_serve(args: argparse.Namespace) -> int:
    # ``proc.terminate()`` / a container stop must drain and run ``app.close()``
    # and the pool's atexit teardown exactly like Ctrl-C, or the process
    # tier's workers are orphaned.  Forked children keep the
    # default disposition so the pool can still terminate them; the process
    # tier forks them while ``ServeApp`` is built, so this comes first.
    signal.signal(signal.SIGTERM, _sigterm_as_sigint)
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)
    )
    cache_dir = args.cache_dir
    if cache_dir is None:
        cache_dir = Path(tempfile.mkdtemp(prefix="repro-serve-cache-"))
        print(f"replay cache at {cache_dir}", file=sys.stderr)
    try:
        app = ServeApp(
            cache_dir,
            max_workers=args.workers,
            execution=args.execution,
            max_run_seconds=args.max_run_seconds,
            cache_max_entries=args.cache_max_entries,
            cache_max_bytes=args.cache_max_bytes,
            shutdown_grace=args.shutdown_grace,
        )
    except ValueError as exc:  # a flag value the app or its cache refuses
        print(f"error: {exc}", file=sys.stderr)
        if args.cache_dir is None:
            cache_dir.rmdir()
        return 2
    try:
        asyncio.run(serve_forever(app, args.host, args.port))
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro``; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "serve":
            return _cmd_serve(args)
        return _cmd_run(args)
    except BrokenPipeError:
        # Downstream closed our stdout early (e.g. ``python -m repro list |
        # head``); silence the interpreter's exit-time flush and succeed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
