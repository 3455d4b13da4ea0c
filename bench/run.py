"""Entry point of the tracked benchmark.

One workload, as the contract in ``BENCHMARK.json`` runs it::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1`` — and
exits non-zero when any correctness check failed.

The workload runs in a child of this process, which returns only when every
process the child started has ended and been waited for (``reaper.py``).

Without ``--workload`` it runs the whole suite: every workload in a fresh
subprocess, first untraced and then traced, ``--runs`` times with consecutive
seeds; prints every metric by name with unit, kind and direction; and writes
the result set (with a machine fingerprint) that ``compare.py`` reads.
``--smoke`` does the same in-process on the ``tiny`` scenario with five
operations per phase.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from catalog import OUT_DIR, RATE_UNITS, TIME_UNITS, Catalogue
from reaper import supervise

FAULTS = ("cache_verdict",)


def run_workload(catalogue: Catalogue, name: str, seed: int, seconds: float,
                 traced: bool, smoke: bool, fault: Optional[str]) -> dict:
    """Run one workload in this process and return its result object."""
    import insitu
    import serve

    workdir = OUT_DIR / f"tmp_{name}_{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if name in insitu.WORKLOADS:
            outcome = insitu.run(name, seed, seconds, traced, smoke, workdir)
        elif name in serve.WORKLOADS:
            outcome = serve.run(name, seed, seconds, traced, smoke, workdir, fault)
        else:
            raise SystemExit(f"bench: unknown workload {name!r}; declared: {catalogue.workloads}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speed = outcome.reference.speed()
    print(
        f"bench: machine speed {speed:.3f} (reference kernel {outcome.reference.ms():.3f} ms, "
        f"nominal {outcome.reference.NOMINAL_MS} ms); measured times are multiplied by it",
        file=sys.stderr,
    )
    if traced:
        outcome.metrics["driver.machine_speed"] = speed

    declared = catalogue.declared(traced)
    for metric in sorted(set(outcome.metrics) - set(declared)):
        print(f"bench: dropping undeclared metric {metric}", file=sys.stderr)
    missing = set(declared) - set(outcome.metrics) - set(outcome.absent)
    if missing:
        raise SystemExit(f"bench: {name} did not measure {sorted(missing)}")
    for metric in sorted(set(outcome.absent) & set(declared)):
        # The contract wants a number for every declared metric.
        print(f"bench: {metric} has no public target any more; printed as 0", file=sys.stderr)
    for failure in outcome.failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)

    def normalised(metric: str, unit: str) -> float:
        value = float(outcome.metrics.get(metric, 0.0))
        if unit in TIME_UNITS:
            return value * speed
        if unit in RATE_UNITS:
            return value / speed
        return value

    return {
        "correct": not outcome.failures,
        "attempted": max(1, outcome.attempted),
        "failed": len(outcome.failures),
        "metrics": {
            metric: {"value": normalised(metric, entry["unit"]), "unit": entry["unit"]}
            for metric, entry in declared.items()
        },
    }


# -- the whole suite ------------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, traced: bool) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench: {name} printed no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def run_suite(catalogue: Catalogue, args) -> int:
    from common import fingerprint

    seconds = args.seconds if args.seconds is not None else catalogue.run_seconds
    passes = [False] if args.no_trace else [False, True]
    runs: Dict[str, List[dict]] = {name: [] for name in catalogue.workloads}
    ok = True
    for index in range(args.runs):
        seed = args.seed + index
        for name in catalogue.workloads:
            record = {"seed": seed}
            for traced in passes:
                started = time.perf_counter()
                if args.smoke:
                    result = run_workload(catalogue, name, seed, seconds, traced, True, args.inject_fault)
                    result["exit_code"] = 0 if result["correct"] else 1
                else:
                    result = _child(name, seed, seconds, traced)
                result["wall_s"] = time.perf_counter() - started
                record["traced" if traced else "untraced"] = result
                ok = ok and result["correct"] and result["exit_code"] == 0
                _print_result(catalogue, name, seed, traced, result)
            runs[name].append(record)
    result_set = {
        "machine": fingerprint(),
        "run_seconds": seconds,
        "smoke": bool(args.smoke),
        "clients": 2,
        "workloads": runs,
        "claim": None,
    }
    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result_set, handle, indent=1, sort_keys=True)
    print(f"result set written to {out}")
    return 0 if ok else 1


def _print_result(catalogue: Catalogue, name: str, seed: int, traced: bool, result: dict) -> None:
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(
        f"\n== {name}  seed={seed}  trace={int(traced)}  "
        f"attempted={result['attempted']}  failed={result['failed']}  "
        f"failed_share={result['failed'] / result['attempted']:.4f}  {verdict}  "
        f"({result['wall_s']:.1f} s)"
    )
    for metric, reading in result["metrics"].items():
        about = catalogue.describe(metric)
        print(
            f"  {metric:<44} {reading['value']:>16.6g} {about['unit']:<6} "
            f"kind={about['kind']:<8} better={about['direction']:<6} n={result['attempted']}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="run this one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass printing the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenario, five operations per phase")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite mode: repetitions, with seeds seed, seed+1, ...")
    parser.add_argument("--no-trace", action="store_true", help="suite mode: skip the traced passes")
    parser.add_argument("--out", default=None, help="suite mode: result-set file")
    parser.add_argument("--inject-fault", choices=FAULTS, default=None,
                        help="make a correctness check expect the wrong answer (self-test)")
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # A terminated harness must still run its ``finally`` blocks (stop the server).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if (args.workload is not None or args.smoke) and not args.supervised:
        # Workloads run in a child; this process ends only when nothing the
        # child started (server, pool workers, resource tracker) is left.
        own = sys.argv[1:] if argv is None else list(argv)
        return supervise([sys.executable, str(Path(__file__).resolve()), *own, "--supervised"])
    catalogue = Catalogue()
    if args.workload is None:
        return run_suite(catalogue, args)
    seconds = args.seconds if args.seconds is not None else catalogue.run_seconds
    result = run_workload(
        catalogue, args.workload, args.seed, seconds, bool(args.trace), args.smoke, args.inject_fault
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
