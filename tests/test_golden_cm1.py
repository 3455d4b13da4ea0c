"""Golden CM1 fields: the bytes of the synthetic simulation's output, pinned.

For each distinct CM1 config the catalogue resolves (shape, seed and storm;
``blue_waters_64`` and ``blue_waters_400`` share one, so seven in all) the
record pins the sha256 of the float32 ``dbz`` bytes that
``CM1Simulation.snapshot`` returns at snapshots 0, 4 and 11.  Every pipeline
record downstream starts from these bytes, so a rewrite of the generator that
claims "same bytes" is checked here first, and a mismatch names the catalogue
entry and the snapshot.

The record is keyed by numpy and scipy ``major.minor``: the turbulence is
numpy's RNG stream smoothed by scipy's Gaussian filter, and either may move
the last bits between versions, so an unrecorded pair skips.  Re-recording is
one command, and its diff is reviewed like code::

    PYTHONPATH=src python tests/test_golden_cm1.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import numpy as np
import pytest
import scipy

from repro.cm1.simulation import CM1Simulation
from repro.scenarios.catalog import CATALOGUE
from repro.scenarios.scenario import live_dataset

RECORD = Path(__file__).parent / "golden" / "cm1_fields.json"
RECORD_COMMAND = "PYTHONPATH=src python tests/test_golden_cm1.py"
VERSIONS = "numpy {}, scipy {}".format(
    *(".".join(module.__version__.split(".")[:2]) for module in (np, scipy))
)

SNAPSHOTS = (0, 4, 11)


def _distinct_simulations() -> Dict[str, CM1Simulation]:
    """The first catalogue name of each distinct CM1 config → its simulation."""
    simulations: Dict[str, CM1Simulation] = {}
    for name, (config, _, _) in CATALOGUE.items():
        simulation = live_dataset(config).simulation
        if all(simulation.config != other.config for other in simulations.values()):
            simulations[name] = simulation
    return simulations


SIMULATIONS = _distinct_simulations()
CASES = [f"{name}/{snapshot}" for name in SIMULATIONS for snapshot in SNAPSHOTS]


def case_digest(case: str) -> str:
    """The sha256 of one case's ``dbz`` bytes, generated now."""
    name, snapshot = case.split("/")
    dbz = SIMULATIONS[name].snapshot(int(snapshot)).get_field("dbz")
    assert dbz.dtype == np.float32 and dbz.flags.c_contiguous
    return hashlib.sha256(dbz.tobytes()).hexdigest()


def _recorded() -> Dict[str, str]:
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    if VERSIONS not in record:
        pytest.skip(f"no golden CM1 record for {VERSIONS}; re-record with: {RECORD_COMMAND}")
    return record[VERSIONS]


@pytest.mark.parametrize("case", CASES)
def test_matches_the_golden_record(case):
    """Fails on any changed byte of a snapshot, e.g. the ``qr`` and ``qs``
    turbulence seeds swapped."""
    assert case_digest(case) == _recorded()[case], (
        f"{case}: the dbz bytes differ from the golden record; "
        f"if the change is intended, re-record with: {RECORD_COMMAND}"
    )


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(CASES)


if __name__ == "__main__":
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    record[VERSIONS] = {case: case_digest(case) for case in CASES}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record[VERSIONS])} cases for {VERSIONS} in {RECORD}", file=sys.stderr)
