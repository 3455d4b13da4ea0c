"""Smoke test of the tracked benchmark (collected by the tier-1 ``pytest`` run).

Runs ``run.py --smoke`` — every workload, untraced and traced, on the ``tiny``
scenario with five operations per phase — and checks the benchmark against its
own declaration in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = str(BENCH / "run.py")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_declaration_is_within_the_contract_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_smoke_suite_emits_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result_set = json.loads(out.read_text(encoding="utf-8"))
    assert result_set["claim"] is None
    assert {"nproc", "python", "numpy", "cpu_model"} <= set(result_set["machine"])
    declared = {
        "untraced": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        "traced": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    assert set(result_set["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, runs in result_set["workloads"].items():
        for pass_name, expected in declared.items():
            result = runs[0][pass_name]
            assert result["correct"] and result["failed"] == 0, (workload, pass_name)
            assert result["attempted"] >= 1
            assert {n: r["unit"] for n, r in result["metrics"].items()} == expected, (workload, pass_name)
            assert all(isinstance(r["value"], float) for r in result["metrics"].values())
        for metric, reading in runs[0]["untraced"]["metrics"].items():
            assert reading["value"] > 0, (workload, metric)
    # Every metric is printed by name with unit, kind, direction and n.
    for name in list(declared["untraced"]) + list(declared["traced"]):
        line = next(l for l in done.stdout.splitlines() if l.split()[:1] == [name])
        assert re.search(r"kind=(seconds|rate|ratio|count|bytes|percent)\s", line), line
        assert re.search(r"better=(lower|higher)\s", line) and re.search(r"n=\d+", line), line
    assert "failed_share=0.0000" in done.stdout


def test_a_failed_correctness_check_exits_non_zero():
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "serve_hit_thread", "--smoke",
         "--inject-fault", "cache_verdict"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert "cache verdict 'hit', expected 'miss'" in done.stderr
