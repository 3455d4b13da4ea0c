"""The batched steps against the reference steps, on one columnar state.

``IterationContext`` carries the blocks as one columnar state
(``repro.grid.batch.BlockColumns``) that the batched steps read and write; the
reference steps (and any list-based third-party step) read per-rank ``Block``
lists off it with ``to_ranks()`` and write it back with
``BlockColumns(lists)``.  Two Hypothesis generators feed the laws below — arbitrary block
lists, and the decomposition's pre-stacked arrival
(``repro.grid.batch.DecomposedField``) next to the ``extract_blocks`` lists it
stands for — in pymor's idiom of one shared body over several implementations
and NIFTy's structural equivalences (*any* prefix of the pipeline may run
batched and the rest on the reference classes; the outcome is the one both
pure pipelines give):

(a) ``BlockColumns(x).to_ranks()`` is ``x`` (an arrival's own blocks, equal to
    the ``extract_blocks`` lists);
(b) batched ``steps[:k]`` then reference ``steps[k:]`` on one context, for every
    ``k`` (0 = the ``serial`` pipeline), fed lists or an arrival, with or
    without a list-based step spliced in; the pairs and the sorted order are
    compared as the bytes of their wire arrays;
(c) one stage at a time: after the same reference prefix, every stage's
    batched class leaves the context and the communicator as its reference
    class does, in count and in mesh mode — over the generated cases and over
    named edges (pre-reduced blocks, empty ranks, a two-rung ladder);
(d) the vectorised triangle estimate ≡ ``int(round(...))`` per block;
(e) a default iteration builds and clones no ``Block`` and builds the state
    once; fed an arrival it copies no payload either;
(f) an arrival is input only: processed again and again it gives the same
    outcome and not one of its bytes moves;
(g) a reduction copies only the rows that change level: the rows a group keeps
    stay in their stack (an arrival's own array), and two reductions in a row
    leave what one reduction to the deeper target leaves (NIFTy's ``amend``).

After every batched reduction (b), (c) and (f) also check that the payload
groups tile the rows exactly once, ``stacked[take]`` holding each row's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import STEP_NAMES
from repro.core.redistribution import STRATEGIES, RedistributionStep, make_strategy
from repro.core.reduction_step import ReductionStep, VectorizedReductionStep
from repro.core.rendering_step import RenderingStep, VectorizedRenderingStep
from repro.core.scoring_step import ScoringStep, VectorizedScoringStep
from repro.core.sorting_step import SortingStep, VectorizedSortingStep
from repro.core.step import IterationContext, StepReport
from repro.grid.batch import BlockColumns, DecomposedField
from repro.grid.block import Block, BlockExtent
from repro.grid.decomposition import CartesianDecomposition
from repro.grid.reduction import reduce_block
from repro.metrics.registry import create_metric
from repro.perfmodel.platform import PlatformModel
from repro.simmpi.communicator import BSPCommunicator
from repro.viz import catalyst
from repro.viz.catalyst import RENDER_MODES

#: Full-block payload shapes, including length-1 axes and non-cubic blocks.
SHAPES = [(4, 4, 4), (5, 3, 2), (1, 4, 3), (3, 1, 1), (2, 2, 2), (6, 5, 4), (1, 1, 1)]
LADDERS = [((2, 1.0),), ((2, 0.5), (1, 0.5))]
ISOVALUE = 0.25


@dataclass
class Case:
    per_rank_blocks: List[List[Block]]
    percent: float
    ladder: tuple
    strategy: str
    metric: str
    #: The same blocks as the decomposition hands them over, if it made them.
    arrival: Optional[DecomposedField] = None

    @property
    def nranks(self) -> int:
        return len(self.per_rank_blocks)

    def lists(self) -> List[List[Block]]:
        return [list(blocks) for blocks in self.per_rank_blocks]

    def input(self):
        """What the pipeline is fed: the arrival when there is one."""
        return self.lists() if self.arrival is None else self.arrival


@st.composite
def cases(draw) -> Case:
    """1–6 ranks (empty and uneven ones included) holding 0–40 blocks of 1–4
    shapes, two dtypes, ladder levels 0/1/2, with or without (NaN) scores."""
    nranks = draw(st.integers(1, 6))
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block_ids = draw(st.lists(st.integers(0, 90), unique=True, max_size=40))
    per_rank_blocks: List[List[Block]] = [[] for _ in range(nranks)]
    for block_id in block_ids:
        shape = draw(st.sampled_from(shapes))
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        rank = draw(st.integers(0, nranks - 1))
        block = Block(
            block_id=block_id,
            extent=BlockExtent((0, 0, 0), shape),
            data=rng.normal(size=shape).astype(dtype),
            owner=draw(st.integers(0, nranks - 1)),
            home=rank,
            score=draw(st.sampled_from([None, 0.5, -3.0, float("nan")])),
            field_name=draw(st.sampled_from(["dbz", "w"])),
        )
        per_rank_blocks[rank].append(reduce_block(block, draw(st.integers(0, 2))))
    return Case(
        per_rank_blocks,
        percent=draw(st.sampled_from([0.0, 37.5, 50.0, 100.0])),
        ladder=draw(st.sampled_from(LADDERS)),
        strategy=draw(st.sampled_from(list(STRATEGIES))),
        metric=draw(st.sampled_from(["VAR", "PYVAR"])),
    )


@st.composite
def arrivals(draw) -> Case:
    """A random field cut by a random small decomposition (uneven cuts, several
    block shapes, ``pz > 1``): the arrival, and the ``extract_blocks`` lists."""
    rank_dims = draw(st.tuples(*[st.integers(1, 2)] * 3))
    bps = draw(st.tuples(*[st.integers(1, 2)] * 3))
    shape = tuple(p * b * draw(st.integers(1, 3)) + draw(st.integers(0, 2)) for p, b in zip(rank_dims, bps))
    nranks = rank_dims[0] * rank_dims[1] * rank_dims[2]
    decomposition = CartesianDecomposition(shape, nranks, bps, rank_dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = rng.normal(size=shape).astype(draw(st.sampled_from([np.float32, np.float64])))
    return Case(
        [decomposition.extract_blocks(rank, field) for rank in range(nranks)],
        percent=draw(st.sampled_from([0.0, 37.5, 50.0, 100.0])),
        ladder=draw(st.sampled_from(LADDERS)),
        strategy=draw(st.sampled_from(list(STRATEGIES))),
        metric=draw(st.sampled_from(["VAR", "PYVAR"])),
        arrival=decomposition.decompose(field),
    )


#: Every law holds for lists and for arrivals alike.
inputs = st.one_of(cases(), arrivals())


# -- what must be equal ----------------------------------------------------------


def block_signature(block: Block) -> tuple:
    return (
        block.block_id,
        block.extent,
        block.owner,
        block.home,
        block.level,
        repr(block.score),  # NaN-safe
        block.field_name,
        block.data.dtype.str,
        block.data.shape,
        np.ascontiguousarray(block.data).tobytes(),
    )


def blocks_signature(per_rank_blocks) -> list:
    return [[block_signature(b) for b in blocks] for blocks in per_rank_blocks]


def report_signature(report: StepReport) -> tuple:
    """Every ``StepReport`` field except the measured wall-clock values."""
    return (
        report.step,
        len(report.measured_per_rank),
        report.modelled_per_rank,
        report.payload_bytes,
        list(report.counters.items()),
        list(report.per_rank_counters.items()),
    )


def render_signature(results) -> list:
    return [
        (
            r.iteration,
            r.npoints,
            list(r.per_block_triangles.items()),  # key order included
            list(r.per_block_active_cells.items()),
            None
            if r.mesh is None
            else (r.mesh.vertices.tobytes(), r.mesh.triangles.tobytes()),
        )
        for r in results
    ]


def wire_signature(wire) -> Optional[tuple]:
    """A wire array's dtype, shape and bytes (NaN-safe, bitwise)."""
    return None if wire is None else (wire.dtype.str, wire.shape, wire.tobytes())


def outcome(context: IterationContext) -> dict:
    """Everything the steps run so far left on ``context`` (the reduction's
    decision is each block's ``level``)."""
    results = context.render_results
    pairs = context.pair_arrays
    return {
        "pairs": None if pairs is None else [wire_signature(wire) for wire in pairs],
        "sorted": wire_signature(context.sorted_array),
        "render": None if results is None else render_signature(results),
        "reports": {n: report_signature(r) for n, r in context.reports.items()},
        "blocks": blocks_signature(context.columns.to_ranks()),
    }


# -- the two pipelines -----------------------------------------------------------


def build_steps(
    case: Case, batched: bool, comm: BSPCommunicator = None, render_mode: str = "count"
) -> list:
    """The five Figure-2 steps, batched or reference, on one communicator (a
    fresh one unless given), as the engine builds them."""
    platform = PlatformModel.blue_waters(case.nranks)
    comm = comm or BSPCommunicator(case.nranks, cost_model=platform.network)
    metric = create_metric(case.metric)
    scoring, sorting, reduction, rendering = (
        (VectorizedScoringStep, VectorizedSortingStep, VectorizedReductionStep, VectorizedRenderingStep)
        if batched
        else (ScoringStep, SortingStep, ReductionStep, RenderingStep)
    )
    return [
        scoring(metric, platform),
        sorting(comm),
        reduction(platform, quality_ladder=case.ladder),
        RedistributionStep(make_strategy(case.strategy, seed=5), comm),
        rendering(platform, isosurface_level=ISOVALUE, render_mode=render_mode),
    ]


class ReverseEachRank:
    """A list-based third-party step: reads the block lists off the columns,
    writes the columns back from new ones."""

    name = "reverse"

    def execute(self, context: IterationContext) -> StepReport:
        per_rank_blocks = context.columns.to_ranks()
        context.columns = BlockColumns([blocks[::-1] for blocks in per_rank_blocks])
        return StepReport.collective(self.name, measured=0.0, modelled=0.0)


def assert_groups_tile(columns: BlockColumns, payloads: list) -> None:
    """The payloads only ever leave as groups that tile the rows exactly once,
    row ``r``'s bytes (``stacked[take]`` for a group that kept its rows in
    their stack, ``take`` sorted int64) being ``payloads[r]``'s."""
    rows = np.sort(np.concatenate([r for r, *_ in columns.groups] or [np.empty(0, np.int64)]))
    assert rows.tolist() == list(range(len(columns)))
    for group_rows, stacked, *take in columns.groups:
        if take:
            assert take[0].dtype == np.int64 and (np.diff(take[0]) > 0).all()
            stacked = stacked[take[0]]
        assert len(stacked) == len(group_rows)
        for row, payload in zip(group_rows.tolist(), stacked):
            assert payload.dtype == payloads[row].dtype
            assert payload.tobytes() == np.ascontiguousarray(payloads[row]).tobytes()


def reduced_payloads(columns: BlockColumns) -> list:
    """Each row's ingested block reduced one at a time to the row's level."""
    return [
        reduce_block(block, level).data
        for block, level in zip(columns.templates, columns.levels.tolist())
    ]


def run_steps(case: Case, steps: list, blocks=None) -> dict:
    context = IterationContext(
        iteration=2,
        percent=case.percent,
        per_rank_blocks=case.input() if blocks is None else blocks,
    )
    for step in steps:
        context.reports[step.name] = step.execute(context)
        if isinstance(step, VectorizedReductionStep):
            assert_groups_tile(context.columns, reduced_payloads(context.columns))
    return outcome(context)


# -- (a) round trip ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=inputs)
def test_round_trip_returns_the_very_blocks(case):
    source = case.input()
    columns = BlockColumns(source)
    out = columns.to_ranks()
    assert blocks_signature(out) == blocks_signature(case.per_rank_blocks)
    # Nothing was written, so nothing is cloned: the same objects come back.
    assert all(a is b for mine, theirs in zip(out, source) for a, b in zip(mine, theirs))
    assert_groups_tile(columns, [b.data for blocks in case.per_rank_blocks for b in blocks])


# -- (b) every-prefix hand-off --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=inputs)
def test_any_prefix_may_run_batched(case):
    expected = run_steps(case, build_steps(case, batched=False), case.lists())
    for k in range(6):
        comm = BSPCommunicator(case.nranks, cost_model=PlatformModel.blue_waters(case.nranks).network)
        steps = build_steps(case, True, comm)[:k] + build_steps(case, False, comm)[k:]
        assert run_steps(case, steps) == expected, f"batched steps[:{k}]"


@settings(max_examples=40, deadline=None)
@given(case=inputs, position=st.integers(0, 5))
def test_a_list_based_step_may_sit_anywhere(case, position):
    def spliced(batched: bool) -> list:
        steps = build_steps(case, batched)
        return steps[:position] + [ReverseEachRank()] + steps[position:]

    assert run_steps(case, spliced(True)) == run_steps(case, spliced(False))


# -- (c) one stage at a time ----------------------------------------------------------


def stage_outcome(case: Case, stage: int, batched: bool, render_mode: str) -> tuple:
    """The reference ``steps[:stage]``, then ``steps[stage]`` batched or not, on
    one communicator: the context's outcome and what the communicator charged."""
    network = PlatformModel.blue_waters(case.nranks).network
    comm = BSPCommunicator(case.nranks, cost_model=network)
    reference = build_steps(case, False, comm, render_mode)
    step = build_steps(case, batched, comm, render_mode)[stage]
    return run_steps(case, reference[:stage] + [step]), comm.stats


@pytest.mark.parametrize("stage", range(5), ids=STEP_NAMES)
@settings(max_examples=25, deadline=None)
@given(case=inputs, render_mode=st.sampled_from(RENDER_MODES))
def test_each_stage_batched_equals_reference(stage, case, render_mode):
    assert stage_outcome(case, stage, True, render_mode) == stage_outcome(
        case, stage, False, render_mode
    )


def edge_case(edge: str, scenario) -> Case:
    """The tiny scenario's first snapshot, bent into one of the named edges."""
    blocks = [list(rank_blocks) for rank_blocks in scenario.blocks_for(0)]
    ladder, percent = LADDERS[0], 100.0
    if edge == "pre-reduced":
        blocks = [
            [reduce_block(b, i % 3) for i, b in enumerate(rank_blocks)]
            for rank_blocks in blocks
        ]
    elif edge == "empty ranks":
        blocks, percent = [blocks[0], [], []], 50.0
    else:  # a two-rung ladder
        ladder, percent = LADDERS[1], 60.0
    return Case(blocks, percent, ladder, strategy="round_robin", metric="VAR")


@pytest.mark.parametrize("stage", range(5), ids=STEP_NAMES)
@pytest.mark.parametrize("render_mode", RENDER_MODES)
@pytest.mark.parametrize("edge", ["pre-reduced", "empty ranks", "two-rung ladder"])
def test_each_stage_on_the_named_edges(edge, render_mode, stage, tiny_scenario):
    case = edge_case(edge, tiny_scenario)
    assert stage_outcome(case, stage, True, render_mode) == stage_outcome(
        case, stage, False, render_mode
    )


# -- (d) the vectorised triangle estimate --------------------------------------------------


@pytest.mark.parametrize("per_cell", [5.0, 4.5, 2.5])
def test_vectorised_triangle_estimate_rounds_like_the_per_block_one(per_cell, monkeypatch):
    """``np.rint`` and Python's ``round`` both round half to even."""
    monkeypatch.setattr(catalyst, "TRIANGLES_PER_ACTIVE_CELL", per_cell)
    script = catalyst.IsosurfaceScript(mode="count")
    cells = np.arange(1001, dtype=np.int64)
    per_block = [script.triangles_from_count(count) for count in cells.tolist()]
    estimate = script.triangles_from_cells(cells)
    assert estimate.dtype == np.int64
    assert estimate.tolist() == per_block


# -- (e) structure: no block, no clone, no payload copy, one state build -------------------


def test_default_iteration_clones_no_block_and_builds_the_state_once(
    tiny_scenario, monkeypatch
):
    calls = {"built": 0, "clones": 0, "states": 0}
    post_init, clone_with, init = Block.__post_init__, Block._clone_with, BlockColumns.__init__

    def counting_post_init(self):
        calls["built"] += 1
        post_init(self)

    def counting_clone(self, **updates):
        calls["clones"] += 1
        return clone_with(self, **updates)

    def counting_init(self, per_rank_blocks):
        calls["states"] += 1
        init(self, per_rank_blocks)

    monkeypatch.setattr(Block, "__post_init__", counting_post_init)
    monkeypatch.setattr(Block, "_clone_with", counting_clone)
    monkeypatch.setattr(BlockColumns, "__init__", counting_init)

    pipeline = tiny_scenario.build_pipeline(metric="VAR", redistribution="round_robin")
    assert pipeline.engine.backend == "vectorized"
    assert pipeline.engine.rendering.script.mode == "count"
    for arrives_stacked in (True, False):
        # A fresh arrival (the scenario's cached one may have built its blocks
        # already), or the lists it stands for, built before the counting starts.
        blocks = tiny_scenario.dataset.per_rank_blocks(tiny_scenario.decomposition, 0)
        assert isinstance(blocks, DecomposedField)
        nblocks = blocks.nblocks
        if not arrives_stacked:
            blocks = [list(rank_blocks) for rank_blocks in blocks]
        calls.update(built=0, clones=0, states=0)
        result, _ = pipeline.process_iteration(blocks, percent_override=50.0)
        assert calls == {"built": 0, "clones": 0, "states": 1}
        assert result.nblocks == nblocks and result.nreduced > 0 and result.moved_bytes > 0

        if arrives_stacked:
            # Ingest copied no payload byte: with nothing to reduce, the groups
            # the last step read are still the arrival's own stacks.
            context = pipeline.engine.run_iteration(blocks, percent=0.0, iteration=1)
            assert calls == {"built": 0, "clones": 0, "states": 2}
            assert len(context.columns.groups) == len(blocks.groups)
            for (_, mine), (_, theirs) in zip(context.columns.groups, blocks.groups):
                assert np.shares_memory(mine, theirs)

        # The edge that asks for Blocks pays for them: an arrival builds each
        # block once, and every block that changed costs one clone.
        context = pipeline.engine.run_iteration(blocks, percent=50.0, iteration=2)
        calls.update(built=0, clones=0, states=0)
        materialised = context.columns.to_ranks()
        assert calls["built"] == (nblocks if arrives_stacked else 0)
        assert 0 < calls["clones"] <= nblocks and calls["states"] == 0
        assert sum(len(rank_blocks) for rank_blocks in materialised) == nblocks
        for rank, rank_blocks in enumerate(materialised):
            assert all(b.owner == rank and b.score is not None for b in rank_blocks)
            assert [b.block_id for b in rank_blocks] == sorted(b.block_id for b in rank_blocks)


# -- (f) an arrival is input only ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(case=arrivals())
def test_an_arrival_can_be_processed_again_and_again(case):
    """The benchmark replays four snapshots ping-pong; a real run sees each
    once.  Nothing a run does — scoring, a reduction, a redistribution, the
    reference classes reading ``Block`` views of the stacks — may leave a trace
    on the arrival, and a kernel that writes in place must fail, not corrupt
    the snapshot's next replay."""
    arrival = case.arrival
    arrays = [arrival.ids, arrival.starts, arrival.stops, arrival.homes, arrival.bounds]
    arrays += [array for group in arrival.groups for array in group]
    before = [array.tobytes() for array in arrays]
    first = run_steps(case, build_steps(case, batched=True))
    assert run_steps(case, build_steps(case, batched=False)) == first
    assert run_steps(case, build_steps(case, batched=True)) == first
    assert first == run_steps(case, build_steps(case, batched=False), case.lists())
    assert [array.tobytes() for array in arrays] == before
    assert not any(array.flags.writeable for array in arrays)


# -- (g) a reduction copies only the rows that change level --------------------------------


def draw_targets(data, nblocks: int) -> np.ndarray:
    """One ladder target per row, mostly partial: some rows kept, some deepened."""
    return np.array(
        data.draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=nblocks, max_size=nblocks)),
        dtype=np.int64,
    )


@settings(max_examples=60, deadline=None)
@given(case=arrivals(), data=st.data())
def test_a_reduction_leaves_kept_rows_in_the_arrival(case, data):
    """Identity law: after a (partial) reduction of an arrival, the stack of
    every group holding level-0 rows *is* one of the arrival's own arrays —
    read-only, never copied — and only the deepened rows got new arrays."""
    arrival = case.arrival
    columns = BlockColumns(arrival)
    columns.reduce_to(draw_targets(data, arrival.nblocks))
    own = [stacked for _, stacked in arrival.groups]
    for rows, stacked, *_ in columns.groups:
        kept = columns.levels[rows] == 0
        assert kept.all() or not kept.any(), "a group mixes kept and deepened rows"
        assert any(stacked is array for array in own) == kept.all()
    assert_groups_tile(columns, reduced_payloads(columns))


@settings(max_examples=60, deadline=None)
@given(case=arrivals(), data=st.data())
def test_two_reductions_amend_like_one(case, data):
    """Amend law: ``reduce_to(a)`` then ``reduce_to(b)`` leaves the payloads,
    levels, ``npoints`` and ``nbytes`` that ``reduce_to(max(a, b))`` leaves —
    rows ``b`` deepens out of a group ``a`` left in its stack included."""
    a, b = draw_targets(data, case.arrival.nblocks), draw_targets(data, case.arrival.nblocks)
    twice, once = BlockColumns(case.arrival), BlockColumns(case.arrival)
    twice.reduce_to(a)
    twice.reduce_to(b)
    once.reduce_to(np.maximum(a, b))
    for name in ("levels", "npoints", "nbytes"):
        assert getattr(twice, name).tolist() == getattr(once, name).tolist(), name
    assert [(p.dtype.str, p.shape, p.tobytes()) for p in twice.payloads()] == [
        (p.dtype.str, p.shape, p.tobytes()) for p in once.payloads()
    ]
    assert_groups_tile(twice, reduced_payloads(once))
