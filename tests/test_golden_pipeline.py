"""Golden pipeline iterations: what the batched engine decides, pinned.

For each of ``tiny``, ``decaying_storm`` and ``blue_waters_64`` (2 snapshots,
60 % then 35 %), each of the VAR, STD and FPZIP metrics, the corner ladder and
a two-rung ladder, and the ``round_robin`` and ``shuffle`` strategies, one
default-engine pipeline runs both iterations.  Per iteration the record pins
one sha256 each of: the scores column (its bytes), the sorted order, the
reduction decision (ids and levels, in selection order), the payload groups
(rows, dtype, shape and bytes, group by group), the per-block render counts
of every rank, and every ``StepReport`` field except measured seconds.  Four
more ``tiny`` VAR cases (both ladders, both strategies) render in mesh mode
and also pin every rank's extracted ``mesh.vertices`` and ``mesh.triangles``
bytes, so the geometry a reduced block feeds the extractor is checked too.  A
refactor of the batched steps that claims "no behaviour change" is checked
byte for byte, and a mismatch names the case, the iteration and the part.

The record is keyed by numpy ``major.minor``: float formatting of the
modelled seconds may move with numpy, so an unrecorded version skips.
Re-recording is one command, and its diff is reviewed like code::

    PYTHONPATH=src python tests/test_golden_pipeline.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.scenarios.scenario import cached_scenario

RECORD = Path(__file__).parent / "golden" / "pipeline_iterations.json"
RECORD_COMMAND = "PYTHONPATH=src python tests/test_golden_pipeline.py"
NUMPY = ".".join(np.__version__.split(".")[:2])

SCENARIOS = ("tiny", "decaying_storm", "blue_waters_64")
METRICS = ("VAR", "STD", "FPZIP")
LADDERS = {"corners": ((2, 1.0),), "two_rung": ((2, 0.5), (1, 0.5))}
STRATEGIES = ("round_robin", "shuffle")
#: The fixed reduction percentage of each iteration.
PERCENTS = (60.0, 35.0)

CASES = [
    f"{scenario}/{metric}/{ladder}/{strategy}"
    for scenario in SCENARIOS
    for metric in METRICS
    for ladder in LADDERS
    for strategy in STRATEGIES
] + [
    f"tiny/VAR/{ladder}/{strategy}/mesh" for ladder in LADDERS for strategy in STRATEGIES
]


def pairs_from_wire(wire: np.ndarray) -> List[tuple]:
    """The ``(id, score)`` tuples of an ``(n, 2)`` float64 wire array, as the
    record's ``sorted`` and ``reduced`` parts were taken."""
    return list(zip(wire[:, 0].astype(np.int64).tolist(), wire[:, 1].tolist()))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha_json(value) -> str:
    return _sha(json.dumps(value).encode("utf-8"))


def _groups_digest(groups) -> str:
    digest = hashlib.sha256()
    for rows, stacked, *take in groups:
        # A group that kept its rows in their stack pins those rows' bytes.
        stacked = np.ascontiguousarray(stacked[take[0]] if take else stacked)
        digest.update(np.ascontiguousarray(rows, dtype=np.int64).tobytes())
        digest.update(f"{stacked.dtype.str}{stacked.shape}".encode("ascii"))
        digest.update(stacked.tobytes())
    return digest.hexdigest()


def _meshes_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(np.ascontiguousarray(result.mesh.vertices).tobytes())
        digest.update(np.ascontiguousarray(result.mesh.triangles).tobytes())
    return digest.hexdigest()


def _iteration_digests(context) -> List[List[str]]:
    """``[part, sha256]`` for every pinned part of one completed iteration."""
    columns = context.columns
    scores = columns.scores
    if scores is None:
        # Mesh mode rendered from the blocks, so the columns were rebuilt from
        # them, and the blocks carry the scores.
        scores = np.array([block.score for block in columns.templates], np.float64)
    reports = {
        name: {
            "modelled_per_rank": report.modelled_per_rank,
            "payload_bytes": report.payload_bytes,
            "counters": report.counters,
            "per_rank_counters": report.per_rank_counters,
        }
        for name, report in context.reports.items()
    }
    render = [
        [
            result.npoints,
            list(result.per_block_active_cells.items()),
            list(result.per_block_triangles.items()),
        ]
        for result in context.render_results
    ]
    # The reduction's effect: the sorted order's first ``nreduced`` ids, in
    # selection order, each with the ladder level its row holds now.
    nreduced = int(context.reports["reduction"].counters["nreduced"])
    level_of = dict(zip(columns.ids.tolist(), columns.levels.tolist()))
    sorted_pairs = pairs_from_wire(context.sorted_array)
    reduced = [[block_id, level_of[block_id]] for block_id, _ in sorted_pairs[:nreduced]]
    digests = [
        ["scores", _sha(np.ascontiguousarray(scores).tobytes())],
        ["sorted", _sha_json([list(pair) for pair in sorted_pairs])],
        ["reduced", _sha_json(reduced)],
        ["groups", _groups_digest(columns.groups)],
        ["render", _sha_json(render)],
        ["reports", _sha_json(reports)],
    ]
    if context.render_results[0].mesh is not None:
        digests.append(["meshes", _meshes_digest(context.render_results)])
    return digests


def case_digests(case: str) -> List[List[str]]:
    """Every iteration's digests of one case, generated now."""
    scenario_name, metric, ladder, strategy, *mode = case.split("/")
    scenario = cached_scenario(name=scenario_name, nsnapshots=len(PERCENTS))
    pipeline = scenario.build_pipeline(
        metric=metric,
        redistribution=strategy,
        quality_ladder=LADDERS[ladder],
        render_mode=mode[0] if mode else "count",
    )
    digests = []
    for iteration, percent in enumerate(PERCENTS):
        context = pipeline.engine.run_iteration(
            scenario.blocks_for(iteration), percent, iteration
        )
        digests += [
            [f"{iteration}:{part}", sha] for part, sha in _iteration_digests(context)
        ]
    return digests


def _recorded() -> Dict[str, List[List[str]]]:
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    if NUMPY not in record:
        pytest.skip(
            f"no golden pipeline record for numpy {NUMPY}; re-record with: {RECORD_COMMAND}"
        )
    return record[NUMPY]


@pytest.mark.parametrize("case", CASES)
def test_matches_the_golden_record(case):
    """Fails on any changed byte of any pinned part, e.g. a reduction count
    rounded with ``round()`` instead of half-up or a corner read off the
    wrong row."""
    expected = _recorded()[case]
    actual = case_digests(case)
    for (part, want), (_, got) in zip(expected, actual):
        assert got == want, (
            f"{case}: iteration part {part} differs from the golden record; "
            f"if the change is intended, re-record with: {RECORD_COMMAND}"
        )
    assert len(actual) == len(expected), (
        f"{case}: {len(actual)} parts, the golden record has {len(expected)}"
    )


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(CASES)


if __name__ == "__main__":
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    record[NUMPY] = {case: case_digests(case) for case in CASES}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record[NUMPY])} cases for numpy {NUMPY} in {RECORD}", file=sys.stderr)
