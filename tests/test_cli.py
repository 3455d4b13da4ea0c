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
            assert {"name", "description", "tags", "default_ranks"} <= set(entry)

    def test_tag_filter(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--tag", "storm-family", "--json")
        assert code == 0
        names = {entry["name"] for entry in json.loads(out)}
        assert "squall_line" in names
        assert "blue_waters_64" not in names

    def test_json_reports_parity_verified_backends(self, capsys):
        """Every entry advertises the backends the parity sweep verifies —
        the same registry ``repro run --backend`` resolves against."""
        _, out, _ = run_cli(capsys, "list", "--json")
        for entry in json.loads(out):
            assert entry["parity_backends"] == [
                "serial", "vectorized", "parallel", "process",
            ]


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
        code, out, _ = run_cli(
            capsys,
            "run", "tiny", "--snapshots", "1", "--percent", "50",
            "--backend", "serial", "--redistribution", "round_robin",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["config"]["engine"] == "serial"
        assert summary["iterations"][0]["percent_reduced"] == 50.0
        assert summary["iterations"][0]["nreduced"] > 0

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

    def test_backend_flag_is_case_insensitive(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "tiny", "--snapshots", "1", "--backend", "SERIAL"
        )
        assert code == 0
        assert json.loads(out)["config"]["engine"] == "serial"

    def test_unknown_metric_and_backend_fail(self, capsys):
        code, _, err = run_cli(capsys, "run", "tiny", "--metric", "NOPE")
        assert code != 0 and "VAR" in err
        code, _, err = run_cli(capsys, "run", "tiny", "--backend", "quantum")
        assert code != 0 and "vectorized" in err

    def test_unknown_backend_error_offers_process(self, capsys):
        code, _, err = run_cli(capsys, "run", "tiny", "--backend", "bogus")
        assert code != 0
        assert "process" in err  # the new backend is advertised

    def test_process_backend_end_to_end(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "tiny", "--snapshots", "1", "--backend", "process"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["config"]["engine"] == "process"
        assert summary["iterations"][0]["nblocks"] > 0


class TestSweep:
    def test_sweep_json_to_stdout(self, capsys):
        """``--json`` prints the machine-readable record, mirroring ``run``."""
        code, out, _ = run_cli(
            capsys, "sweep", "tiny", "--ranks", "4", "16", "--serial", "--json"
        )
        assert code == 0
        sweep = json.loads(out)
        assert sweep["scenario"] == "tiny"
        assert sweep["mode"] == "weak"
        assert [p["ncores"] for p in sweep["points"]] == [4, 16]
        for point in sweep["points"]:
            assert set(point["modelled_steps"]) == {
                "scoring", "sorting", "reduction", "redistribution", "rendering",
            }

    def test_sweep_human_readable_by_default(self, capsys):
        """Without ``--json`` the output is a table, not a JSON document."""
        code, out, _ = run_cli(
            capsys, "sweep", "tiny", "--ranks", "4", "16", "--serial"
        )
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        lines = out.strip().splitlines()
        assert "weak-scaling sweep" in lines[0]
        assert "ranks" in lines[1] and "dominant step" in lines[1]
        assert len(lines) == 2 + 2  # header rows + one line per rank count

    def test_sweep_writes_output_file(self, capsys, tmp_path):
        output = tmp_path / "sweep" / "tiny.json"
        code, out, err = run_cli(
            capsys,
            "sweep", "tiny", "--ranks", "4", "--serial",
            "--output", str(output),
        )
        assert code == 0
        assert "wrote" in err
        assert json.loads(output.read_text())["ranks"] == [4]
        assert out == ""  # --output alone keeps stdout empty

    def test_sweep_json_and_output_combine(self, capsys, tmp_path):
        """``--json --output`` writes the file AND prints the same record."""
        output = tmp_path / "tiny.json"
        code, out, _ = run_cli(
            capsys,
            "sweep", "tiny", "--ranks", "4", "--serial",
            "--json", "--output", str(output),
        )
        assert code == 0
        assert json.loads(out) == json.loads(output.read_text())

    def test_sweep_strong_mode_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "tiny", "--ranks", "4", "--mode", "strong", "--serial",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["mode"] == "strong"

    def test_sweep_unknown_scenario_exits_2_and_names_available(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "not_a_scenario", "--ranks", "4")
        assert code == 2
        for name in ("tiny", "blue_waters_64"):
            assert name in err  # available scenarios are listed

    def test_sweep_infeasible_ranks_fail_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "tiny", "--ranks", "4", "1024", "--mode", "strong",
            "--serial",
        )
        assert code != 0
        assert "1024" in err


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
