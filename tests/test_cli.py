"""Smoke tests of the ``python -m repro`` scenario CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.io.store import DatasetStore
from repro.scenarios import ExperimentScenario, scenario_names
from repro.scenarios.scenario import live_dataset
from repro.serve.procrun import RunRequest, _json_default, execute_run


def run_cli(capsys, *argv):
    """Run the CLI in-process and return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_names_all_scenarios(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for name in scenario_names():
            assert name in out

    def test_catalogue_is_large_enough(self, capsys):
        _, out, _ = run_cli(capsys, "list")
        listed = [line.split()[0] for line in out.strip().splitlines()]
        assert len(listed) >= 7

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--json")
        assert code == 0
        catalogue = json.loads(out)
        assert {entry["name"] for entry in catalogue} == set(scenario_names())
        for entry in catalogue:
            assert set(entry) == {
                "name", "description", "tags", "default_ranks", "default_snapshots",
            }

    def test_tag_filter(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--tag", "storm-family", "--json")
        assert code == 0
        names = {entry["name"] for entry in json.loads(out)}
        assert "squall_line" in names
        assert "blue_waters_64" not in names


class TestRun:
    def test_tiny_writes_parseable_summary(self, capsys, tmp_path):
        output = tmp_path / "out" / "tiny.json"
        code, _, _ = run_cli(
            capsys, "run", "tiny", "--snapshots", "1", "--output", str(output)
        )
        assert code == 0
        summary = json.loads(output.read_text())
        assert summary["scenario"]["name"] == "tiny"
        assert summary["run"]["iterations"] == 1
        assert set(summary["steps"]) == {
            "scoring", "sorting", "reduction", "redistribution", "rendering",
        }
        assert len(summary["iterations"]) == 1
        assert summary["iterations"][0]["nblocks"] > 0

    def test_summary_to_stdout_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "run", "tiny", "--snapshots", "1")
        assert code == 0
        assert json.loads(out)["scenario"]["name"] == "tiny"

    def test_percent_and_backend_flags(self, capsys):
        """``--percent`` fixes the reduction; ``--backend`` is gone, and
        argparse refuses it instead of ignoring it."""
        code, out, _ = run_cli(
            capsys,
            "run", "tiny", "--snapshots", "1", "--percent", "50",
            "--redistribution", "round_robin",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["config"]["engine"] == "vectorized"
        assert summary["iterations"][0]["percent_reduced"] == 50.0
        assert summary["iterations"][0]["nreduced"] > 0
        with pytest.raises(SystemExit) as refused:
            main(["run", "tiny", "--percent", "50", "--backend", "serial"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --backend serial" in capsys.readouterr().err

    def test_target_enables_adaptation(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "tiny", "--snapshots", "2", "--target", "20",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["config"]["adaptation_enabled"] is True
        assert summary["config"]["target_seconds"] == 20.0

    def test_save_dataset_writes_manifest(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        code, out, err = run_cli(
            capsys,
            "run", "tiny", "--snapshots", "2",
            "--save-dataset", str(store_dir),
        )
        assert code == 0
        # Status lines go to stderr: stdout stays pure, parseable JSON.
        assert json.loads(out)["scenario"]["name"] == "tiny"
        assert "saved dataset" in err
        store = DatasetStore(store_dir)
        assert store.exists()
        assert len(store.iterations()) == 2
        assert store.manifest().metadata["scenario"] == "tiny"

    def test_saved_dataset_is_the_generated_store_byte_for_byte(self, capsys, tmp_path):
        """``--save-dataset`` writes the fields the run's scenario assembles
        from its arrivals, and the store is what ``CM1Dataset.save`` writes
        from a fresh CM1 run of the same config: the same files, every
        ``.bin`` and ``manifest.json`` equal byte for byte."""
        code, _, _ = run_cli(
            capsys, "run", "tiny", "--snapshots", "3", "--save-dataset", str(tmp_path / "cli")
        )
        assert code == 0
        config = RunRequest.from_payload({"scenario": "tiny", "snapshots": 3}).scenario_config()
        live_dataset(config).save(tmp_path / "cm1", extra_metadata={"scenario": "tiny"})
        written = {
            side: {path.name: path.read_bytes() for path in (tmp_path / side).iterdir()}
            for side in ("cli", "cm1")
        }
        assert written["cli"].keys() == written["cm1"].keys()
        assert len(written["cli"]) == 4 and "manifest.json" in written["cli"]
        for name, data in written["cli"].items():
            assert data == written["cm1"][name], name

    def test_saved_dataset_replays_through_the_mmap_path(self, capsys, tmp_path):
        """What ``--save-dataset`` writes is the store the replay cache
        serves: ``ExperimentScenario.from_store`` maps it and ``execute_run``
        over it reports the CLI's iteration rows and ``run`` block, bitwise."""
        store_dir = tmp_path / "store"
        argv = ["--snapshots", "3", "--percent", "40", "--redistribution", "round_robin"]
        code, out, _ = run_cli(
            capsys, "run", "tiny", *argv, "--save-dataset", str(store_dir)
        )
        assert code == 0
        summary = json.loads(out)
        request = RunRequest.from_payload(
            {"scenario": "tiny", "snapshots": 3, "percent": 40.0,
             "redistribution": "round_robin"}
        )
        scenario = ExperimentScenario.from_store(request.scenario_config(), store_dir)
        assert isinstance(
            scenario.dataset.snapshot(0).get_field("dbz").base, np.memmap
        )
        events = []
        result, _ = execute_run(request, scenario, events.append, lambda: None)
        replayed = json.loads(json.dumps(
            {"iterations": [{k: v for k, v in e.items() if k != "type"} for e in events],
             "run": result["run"]},
            default=_json_default,
        ))
        assert replayed["iterations"] == summary["iterations"]
        assert replayed["run"] == summary["run"]

    def test_unknown_scenario_fails_and_names_available(self, capsys):
        code, _, err = run_cli(capsys, "run", "not_a_scenario")
        assert code != 0
        for name in ("blue_waters_64", "tiny", "squall_line"):
            assert name in err

    def test_unknown_metric_and_backend_fail(self, capsys):
        # A metric the table no longer has (ZFP) is refused like one it never had.
        for metric in ("NOPE", "ZFP"):
            code, _, err = run_cli(capsys, "run", "tiny", "--metric", metric)
            assert code == 2 and "VAR" in err and f"unknown metric {metric!r}" in err
        with pytest.raises(SystemExit) as refused:
            main(["run", "tiny", "--backend", "quantum"])
        assert refused.value.code == 2


def test_sweep_subcommand_is_refused(capsys):
    """The cost-model scaling sweep is gone with its subcommand: argparse
    exits 2 and names the invalid choice.  Fails if ``sweep`` is accepted
    again."""
    with pytest.raises(SystemExit) as refused:
        main(["sweep", "tiny"])
    assert refused.value.code == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err


class TestModuleEntryPoint:
    """The satellite contract: ``python -m repro`` works as a subprocess."""

    @pytest.fixture(scope="class")
    def env(self):
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return env

    def test_list_subprocess(self, env):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for name in scenario_names():
            assert name in proc.stdout

    def test_run_subprocess(self, env, tmp_path):
        output = tmp_path / "run.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "tiny",
             "--snapshots", "1", "--output", str(output)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(output.read_text())["scenario"]["name"] == "tiny"

    def test_unknown_scenario_subprocess_exit_code(self, env):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "no_such_workload"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert "tiny" in proc.stderr

    def test_refused_option_value_subprocess_exits_2(self, env):
        """The real entry point: a value ``RunRequest`` refuses is a usage
        error, not a traceback (the full table is in ``tests/test_serve.py``)."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "tiny", "--percent", "150"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.strip() == "error: percent must be in [0, 100], got 150.0"

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--workers=0", "max_workers must be >= 1, got 0"),
            ("--max-run-seconds=0", "max_run_seconds must be > 0, got 0.0"),
            ("--cache-max-entries=0", "max_entries must be >= 1, got 0"),
            ("--cache-max-bytes=-5", "max_bytes must be >= 1, got -5"),
        ],
        ids=["workers", "max_run_seconds", "cache_max_entries", "cache_max_bytes"],
    )
    def test_refused_serve_flag_exits_2(self, env, tmp_path, flag, message):
        """``repro serve`` leaves its flag values to ``ServeApp`` and its
        replay cache: one ``error:`` line naming the value, exit 2, nothing
        listening.  Fails if ``ServeApp`` stops checking ``max_workers``
        itself (the thread pool's own message names no value)."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache"), flag],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]
