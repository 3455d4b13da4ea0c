"""The workload catalogue, pinned: every resolved config and both listings.

A scenario's cache key is a digest of the ``repr`` of its resolved
:class:`~repro.scenarios.spec.ScenarioConfig`, so these literals hold every
field of every catalogue entry — at its own scale and shrunk to the unit-test
grid — and any change to a row (a block layout, a storm, a default) fails
here before it moves a replay-cache entry, a golden record or a ledger
reading.  The two ``repro list`` outputs pin names, order, descriptions,
tags and default scales.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import create_scenario_config
from repro.scenarios.spec import TINY_SHAPE
from repro.serve.cache import scenario_cache_key

#: name -> (cache key at the entry's own scale, at 4 ranks / 2 snapshots / TINY_SHAPE).
CACHE_KEYS = {
    "blue_waters_64": (
        "blue_waters_64-d6980a592ef08c699302",
        "blue_waters_64-5046a562ac778e0ef9ee",
    ),
    "blue_waters_400": (
        "blue_waters_400-8582eec65fd94e4c0c25",
        "blue_waters_400-66aff5f737ceb6aacfbe",
    ),
    "tiny": ("tiny-10a7007b39bb0c74525d", "tiny-10a7007b39bb0c74525d"),
    "blue_waters_64_fine": (
        "blue_waters_64_fine-0507ad787f62c72b752a",
        "blue_waters_64_fine-a319bc5eaffd03d0caa0",
    ),
    "squall_line": (
        "squall_line-34f677d8f8e724f222ed",
        "squall_line-b0eb8aa36e09100a657b",
    ),
    "multicell_cluster": (
        "multicell_cluster-a3d3eac920a61f75ed4d",
        "multicell_cluster-c428956850a85c7bb42c",
    ),
    "turbulence_field": (
        "turbulence_field-b0a3314f993c9412f537",
        "turbulence_field-10057462fb2767ff5272",
    ),
    "decaying_storm": (
        "decaying_storm-abea42fde9fb690ea997",
        "decaying_storm-843ab6ca3fb4a1c245b4",
    ),
}

LIST_TEXT = """\
blue_waters_64        64r/10s  [paper,supercell]  The paper's 64-core supercell run at laptop scale (32 blocks/rank)
blue_waters_400      400r/10s  [paper,supercell]  The paper's 400-core supercell run at laptop scale (16 blocks/rank)
tiny                    4r/2s  [test,supercell]  Unit-test-sized supercell (4 ranks, 44x44x12 grid)
blue_waters_64_fine    64r/1s  [paper,supercell,benchmark]  64-core supercell with 64 blocks/rank (the speedup-gate scale)
squall_line           16r/10s  [storm-family,squall-line]  Elongated multi-core band crossing the domain diagonally
multicell_cluster     16r/10s  [storm-family,multicell]  Cluster of displaced supercells (disjoint interest regions)
turbulence_field      16r/10s  [storm-family,stress,uniform-scores]  No coherent storm: near-uniform block scores (sorting stress)
decaying_storm        16r/12s  [storm-family,adaptive,decaying]  Supercell past its peak: rendering load falls every snapshot
"""


def _entry(name, description, tags, ranks, snapshots):
    return {
        "name": name,
        "description": description,
        "tags": list(tags),
        "default_ranks": ranks,
        "default_snapshots": snapshots,
    }


LIST_JSON = [
    _entry("blue_waters_64",
           "The paper's 64-core supercell run at laptop scale (32 blocks/rank)",
           ("paper", "supercell"), 64, 10),
    _entry("blue_waters_400",
           "The paper's 400-core supercell run at laptop scale (16 blocks/rank)",
           ("paper", "supercell"), 400, 10),
    _entry("tiny", "Unit-test-sized supercell (4 ranks, 44x44x12 grid)",
           ("test", "supercell"), 4, 2),
    _entry("blue_waters_64_fine",
           "64-core supercell with 64 blocks/rank (the speedup-gate scale)",
           ("paper", "supercell", "benchmark"), 64, 1),
    _entry("squall_line", "Elongated multi-core band crossing the domain diagonally",
           ("storm-family", "squall-line"), 16, 10),
    _entry("multicell_cluster",
           "Cluster of displaced supercells (disjoint interest regions)",
           ("storm-family", "multicell"), 16, 10),
    _entry("turbulence_field",
           "No coherent storm: near-uniform block scores (sorting stress)",
           ("storm-family", "stress", "uniform-scores"), 16, 10),
    _entry("decaying_storm",
           "Supercell past its peak: rendering load falls every snapshot",
           ("storm-family", "adaptive", "decaying"), 16, 12),
]


@pytest.mark.parametrize("name", list(CACHE_KEYS))
def test_resolved_config_is_pinned(name):
    full, tiny = CACHE_KEYS[name]
    assert scenario_cache_key(create_scenario_config(name)) == full
    shrunk = create_scenario_config(name, ncores=4, nsnapshots=2, shape=TINY_SHAPE)
    assert scenario_cache_key(shrunk) == tiny


def test_list_output_is_pinned(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out == LIST_TEXT


def test_list_json_output_is_pinned(capsys):
    assert main(["list", "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == LIST_JSON
    assert out == json.dumps(LIST_JSON, indent=2) + "\n"
