"""Tests for the individual pipeline steps (scoring, sorting, reduction, redistribution, rendering)."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.redistribution import (
    STRATEGIES,
    NoRedistribution,
    RandomShuffle,
    RedistributionStep,
    RoundRobin,
    make_strategy,
)
from repro.core.reduction_step import (
    DEFAULT_QUALITY_LADDER,
    ReductionStep,
    VectorizedReductionStep,
    ladder_counts,
    select_reduction_levels,
    validate_quality_ladder,
)
from repro.core.rendering_step import RenderingStep
from repro.core.scoring_step import ScoringStep, VectorizedScoringStep
from repro.core.sorting_step import SortingStep, VectorizedSortingStep
from repro.grid.decomposition import CartesianDecomposition
from repro.grid.reduction import reduce_block
from repro.metrics.registry import create_metric
from repro.perfmodel.platform import PlatformModel
from repro.simmpi.communicator import BSPCommunicator


def oracle_select_reduction_levels(
    sorted_pairs, percent, ladder=DEFAULT_QUALITY_LADDER
):
    """The replaced body of ``select_reduction_levels``, kept verbatim as the
    oracle of the ladder law (``ladder_counts`` now holds the rounding)."""
    if not (0.0 <= percent <= 100.0):
        raise ValueError(f"percent must be in [0, 100], got {percent}")
    ladder = validate_quality_ladder(ladder)
    nblocks = len(sorted_pairs)
    count = min(int(math.floor(nblocks * percent / 100.0 + 0.5)), nblocks)
    levels = {}
    offset = 0
    for rung_index, (level, fraction) in enumerate(ladder):
        if rung_index == len(ladder) - 1:
            take = count - offset
        else:
            take = min(int(math.floor(count * fraction + 0.5)), count - offset)
        for block_id, _ in sorted_pairs[offset : offset + take]:
            levels[block_id] = level
        offset += take
    return levels


def selected_ids(sorted_pairs, percent):
    """Ids of the ``percent``% lowest-scored blocks (any ladder selects them)."""
    return set(select_reduction_levels(sorted_pairs, percent))


def owners_dict(assignment):
    """Assignment arrays as an id -> destination dict (test convenience)."""
    block_ids, dests = assignment
    return {int(i): int(d) for i, d in zip(block_ids, dests)}


@pytest.fixture()
def per_rank_blocks(tiny_field):
    decomp = CartesianDecomposition(tiny_field.shape, nranks=4, blocks_per_subdomain=(2, 2, 1))
    return [decomp.extract_blocks(r, tiny_field) for r in range(4)]


@pytest.fixture()
def platform():
    return PlatformModel.blue_waters(4)


class TestScoringStep:
    def test_scores_every_block(self, per_rank_blocks, platform, run_step):
        step = ScoringStep(create_metric("VAR"), platform)
        context, report = run_step(step, per_rank_blocks)
        pairs = context.per_rank_pairs
        assert len(pairs) == 4
        total = sum(len(p) for p in pairs)
        assert total == sum(len(b) for b in per_rank_blocks)
        for rank_blocks in context.per_rank_blocks:
            for blk in rank_blocks:
                assert blk.score is not None
        assert report.modelled_max > 0

    def test_scores_match_metric(self, per_rank_blocks, platform, run_step):
        metric = create_metric("RANGE")
        context, _ = run_step(ScoringStep(metric, platform), per_rank_blocks)
        for (bid, score), blk in zip(context.per_rank_pairs[0], per_rank_blocks[0]):
            assert bid == blk.block_id
            assert score == pytest.approx(metric.score_block(blk.data))

    @pytest.mark.parametrize(
        "step_class, metric",
        [
            (ScoringStep, "VAR"),
            (VectorizedScoringStep, "VAR"),
            (VectorizedScoringStep, "PYVAR"),  # gil_bound: over the process pool
        ],
        ids=["ScoringStep", "VectorizedScoringStep", "processes"],
    )
    def test_npoints_counted_once_and_reported(
        self, step_class, metric, per_rank_blocks, platform, run_step
    ):
        """The report counts every block and every point once (one contract
        on every class, inline or pooled); scores are plain Python floats."""
        expected = sum(b.data.size for blocks in per_rank_blocks for b in blocks)
        step = step_class(create_metric(metric), platform)
        context, report = run_step(step, per_rank_blocks)
        pairs, scored = context.per_rank_pairs, context.per_rank_blocks
        assert all(type(score) is float for rank in pairs for _, score in rank)
        assert all(type(b.score) is float for rank in scored for b in rank)
        assert report.counters == {
            "nblocks": float(sum(len(b) for b in per_rank_blocks)),
            "npoints": float(expected),
        }


class TestSortingStep:
    def test_global_sort(self, per_rank_blocks, platform, run_step):
        comm = BSPCommunicator(4, cost_model=platform.network)
        scoring = ScoringStep(create_metric("VAR"), platform)
        pairs = run_step(scoring, per_rank_blocks)[0].per_rank_pairs
        context, report = run_step(
            SortingStep(comm), per_rank_blocks, per_rank_pairs=pairs
        )
        scores = [s for _, s in context.sorted_pairs]
        assert scores == sorted(scores)
        assert len(context.sorted_pairs) == sum(len(p) for p in pairs)
        assert report.modelled_max >= 0

    def test_diverging_rank_lists_rejected(self, platform, run_step):
        """Regression for the blind ``per_rank_sorted[0]``: a sort backend
        that hands ranks different lists must fail loudly, not silently
        corrupt every downstream decision."""

        class BrokenSortingStep(SortingStep):
            def _sort(self, per_rank_pairs):
                good = [(0, 0.5), (1, 1.5)]
                return [list(good) for _ in range(self.comm.nranks - 1)] + [
                    [(1, 1.5), (0, 0.5)]
                ]

        comm = BSPCommunicator(4, cost_model=platform.network)
        with pytest.raises(RuntimeError, match="diverging"):
            run_step(
                BrokenSortingStep(comm),
                [[], [], [], []],
                per_rank_pairs=[[(0, 0.5)], [(1, 1.5)], [], []],
            )


    @staticmethod
    def _agreement(per_rank_sorted):
        return SortingStep._require_rank_agreement(per_rank_sorted)

    def test_equal_wire_arrays_agree(self):
        """Equal but distinct wire arrays pass (their ``==`` is elementwise,
        so a bare ``pairs == reference`` cannot decide)."""
        wire = np.array([[3.0, 0.25], [1.0, 0.5], [0.0, 2.0]])
        copies = [wire.copy() for _ in range(4)]
        assert self._agreement(copies) is copies[0]

    def test_diverging_wire_arrays_rejected(self):
        wire = np.array([[3.0, 0.25], [1.0, 0.5], [0.0, 2.0]])
        swapped = wire[[0, 2, 1]]
        diverging = "rank 2 disagrees with rank 0 at position 1"
        with pytest.raises(RuntimeError, match=diverging):
            self._agreement([wire, wire.copy(), swapped])
        with pytest.raises(RuntimeError, match="rank 1 holds 2 pairs"):
            self._agreement([wire, wire[:2]])

    def test_batched_sort_leaves_the_wire_array(
        self, per_rank_blocks, platform, run_step
    ):
        """The batched sort records the broadcast array; the tuples are built
        from it only when read, equal to the reference sort's."""
        comm = BSPCommunicator(4, cost_model=platform.network)
        pairs = run_step(ScoringStep(create_metric("VAR"), platform), per_rank_blocks)[
            0
        ].per_rank_pairs
        batched, _ = run_step(
            VectorizedSortingStep(comm), per_rank_blocks, per_rank_pairs=pairs
        )
        reference, _ = run_step(SortingStep(comm), per_rank_blocks, per_rank_pairs=pairs)
        wire = batched.require_sorted_array()
        assert wire.shape == (len(reference.sorted_pairs), 2)
        assert "_sorted_pairs" in vars(batched) and batched._sorted_pairs is None
        assert batched.sorted_pairs == reference.sorted_pairs


class TestReductionSelection:
    def test_zero_and_full_percent(self):
        pairs = [(i, float(i)) for i in range(10)]
        assert selected_ids(pairs, 0.0) == set()
        assert selected_ids(pairs, 100.0) == set(range(10))

    def test_fifty_percent_takes_lowest_scores(self):
        pairs = [(i, float(i)) for i in range(10)]
        assert selected_ids(pairs, 50.0) == {0, 1, 2, 3, 4}

    def test_percent_out_of_range(self):
        with pytest.raises(ValueError):
            selected_ids([], 150.0)
        with pytest.raises(ValueError):
            selected_ids([], -1.0)

    def test_empty_pairs(self):
        assert selected_ids([], 0.0) == set()
        assert selected_ids([], 50.0) == set()
        assert selected_ids([], 100.0) == set()

    def test_full_percent_selects_everything(self):
        pairs = [(i, float(i % 3)) for i in range(7)]
        pairs = sorted(pairs, key=lambda p: (p[1], p[0]))
        assert selected_ids(pairs, 100.0) == set(range(7))

    @settings(deadline=None, max_examples=50)
    @given(
        nblocks=st.integers(min_value=1, max_value=200),
        percent=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_selection_size_property(self, nblocks, percent):
        pairs = [(i, float(i % 7)) for i in range(nblocks)]
        pairs = sorted(pairs, key=lambda p: (p[1], p[0]))
        selected = selected_ids(pairs, percent)
        expected = min(nblocks, math.floor(nblocks * percent / 100.0 + 0.5))
        assert len(selected) == expected

    def test_round_half_up_boundaries(self):
        """Half-way counts round up for every parity (regression: Python's
        round() does banker's rounding, so 5% of 10 blocks selected 0 blocks
        while 5% of 30 selected 2)."""
        def count(nblocks, percent):
            pairs = [(i, float(i)) for i in range(nblocks)]
            return len(selected_ids(pairs, percent))

        assert count(10, 5.0) == 1   # 0.5 -> 1 (banker's round gave 0)
        assert count(30, 5.0) == 2   # 1.5 -> 2
        assert count(10, 25.0) == 3  # 2.5 -> 3 (banker's round gave 2)
        assert count(10, 35.0) == 4  # 3.5 -> 4
        assert count(10, 45.0) == 5  # 4.5 -> 5 (banker's round gave 4)
        # Non-boundary values are unaffected.
        assert count(10, 24.0) == 2
        assert count(10, 26.0) == 3

    def test_reduction_step_reduces_selected(self, per_rank_blocks, platform, run_step):
        all_pairs = sorted(
            [(b.block_id, float(b.block_id)) for blocks in per_rank_blocks for b in blocks],
            key=lambda p: (p[1], p[0]),
        )
        context, report = run_step(
            ReductionStep(platform), per_rank_blocks, 50.0, sorted_pairs=all_pairs
        )
        selected = selected_ids(all_pairs, 50.0)
        assert report.counters["nreduced"] == len(selected) > 0
        for blocks in context.per_rank_blocks:
            for blk in blocks:
                assert (blk.level > 0) == (blk.block_id in selected)
                if blk.level > 0:
                    assert blk.data.shape == (2, 2, 2)


def _pairs(per_rank_blocks):
    """Ascending (score, id) pairs with ties: the score is ``block_id % 5``."""
    return sorted(
        [(b.block_id, float(b.block_id % 5)) for blocks in per_rank_blocks for b in blocks],
        key=lambda p: (p[1], p[0]),
    )


class TestReductionBackends:
    """Both reduction classes on inputs with a known answer (their parity is
    the stage law of ``tests/test_columnar_state.py``)."""

    def test_already_reduced_blocks_left_alone(
        self, per_rank_blocks, platform, run_step
    ):
        pre_reduced = [
            [reduce_block(b) for b in blocks] for blocks in per_rank_blocks
        ]
        pairs = _pairs(per_rank_blocks)
        for step in (ReductionStep(platform), VectorizedReductionStep(platform)):
            context, report = run_step(step, pre_reduced, 100.0, sorted_pairs=pairs)
            for before, after in zip(pre_reduced, context.per_rank_blocks):
                # Reducing a reduced block is a no-op returning the block.
                assert all(a is b for a, b in zip(after, before))
            # The modelled cost still counts the selected blocks' corner
            # points, as serial does.
            assert report.modelled_per_rank == [
                platform.reduction_seconds(len(blocks), 8 * len(blocks))
                for blocks in pre_reduced
            ]


class TestQualityLadder:
    """The multi-rung quality ladder: validation, selection, step behavior."""

    def test_validate_normalises(self):
        assert validate_quality_ladder([(2, 1.0)]) == ((2, 1.0),)
        assert validate_quality_ladder([[1, 0.5], [2, 0.5]]) == ((1, 0.5), (2, 0.5))

    @pytest.mark.parametrize(
        "bad",
        [
            [],                       # no rungs
            [(0, 1.0)],               # level 0 is not a reduction
            [(3, 1.0)],               # unknown level
            [(2, 0.5), (2, 0.5)],     # repeated level
            [(2, 0.0)],               # zero fraction
            [(1, 0.4), (2, 0.4)],     # fractions don't sum to 1
            [(2, 1.0, 3.0)],          # malformed rung
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_quality_ladder(bad)

    def test_default_ladder_matches_binary_selection(self):
        pairs = [(i, float(i)) for i in range(10)]
        for percent in (0.0, 5.0, 35.0, 50.0, 100.0):
            levels = select_reduction_levels(pairs, percent, DEFAULT_QUALITY_LADDER)
            assert levels == oracle_select_reduction_levels(pairs, percent)
            assert all(level == 2 for level in levels.values())

    def test_rungs_applied_over_ascending_prefix(self):
        """The lowest scores take the first rung; the last absorbs remainder."""
        pairs = [(i, float(i)) for i in range(10)]
        levels = select_reduction_levels(pairs, 100.0, ((2, 0.5), (1, 0.5)))
        assert {i for i, l in levels.items() if l == 2} == {0, 1, 2, 3, 4}
        assert {i for i, l in levels.items() if l == 1} == {5, 6, 7, 8, 9}
        # Odd selection count: the last rung takes the rounding remainder.
        levels = select_reduction_levels(pairs, 50.0, ((2, 0.5), (1, 0.5)))
        assert sorted(levels) == [0, 1, 2, 3, 4]
        assert [levels[i] for i in range(5)] == [2, 2, 2, 1, 1]

    def test_ladder_produces_mixed_levels(self, per_rank_blocks, platform, run_step):
        ladder = ((2, 0.5), (1, 0.5))
        pairs = _pairs(per_rank_blocks)
        step = ReductionStep(platform, quality_ladder=ladder)
        context, report = run_step(step, per_rank_blocks, 100.0, sorted_pairs=pairs)
        by_level = {}
        for blocks in context.per_rank_blocks:
            for blk in blocks:
                by_level.setdefault(blk.level, []).append(blk)
        assert set(by_level) == {1, 2}
        from repro.grid.block import level_shape

        for blk in by_level[1]:
            assert blk.data.shape == level_shape(1, blk.extent.shape)
        # Level-1 blocks copy more points than corner blocks, and the cost
        # model prices that: the mixed ladder costs more than all-corners.
        _, corners = run_step(
            ReductionStep(platform), per_rank_blocks, 100.0, sorted_pairs=pairs
        )
        assert report.counters["points_copied"] > corners.counters["points_copied"]
        assert report.modelled_max > corners.modelled_max

    def test_execute_records_levels_in_context(self, per_rank_blocks, platform, run_step):
        pairs = _pairs(per_rank_blocks)
        step = ReductionStep(platform, quality_ladder=((2, 0.5), (1, 0.5)))
        context, report = run_step(step, per_rank_blocks, 50.0, sorted_pairs=pairs)
        levels = {
            blk.block_id: blk.level
            for blocks in context.per_rank_blocks
            for blk in blocks
            if blk.level > 0
        }
        assert levels == select_reduction_levels(pairs, 50.0, step.quality_ladder)
        assert report.counters["nreduced"] == len(levels)
        assert report.counters["points_copied"] > 0

    def test_invalid_ladder_rejected_at_step_construction(self, platform):
        with pytest.raises(ValueError):
            ReductionStep(platform, quality_ladder=((3, 1.0),))


class TestLadderAndDealLaw:
    """``ladder_counts`` plus the prefix of the sorted wire array is the
    replaced ``select_reduction_levels`` (the oracle above), and every strategy
    deals the same owners from the wire array as from tuples.  The hand
    mutation it catches: ``round()`` in place of ``floor(x + 0.5)`` in
    ``ladder_counts`` (5 % of 10 blocks then selects 0)."""

    @staticmethod
    def _prefix_levels(sorted_pairs, percent, ladder):
        """The batched step's decision: the rungs' runs of the wire array."""
        wire = np.asarray(sorted_pairs, dtype=np.float64).reshape(-1, 2)
        rungs = ladder_counts(len(wire), percent, ladder)
        ids = wire[: sum(take for _, take in rungs), 0].astype(np.int64)
        levels = np.repeat([level for level, _ in rungs], [take for _, take in rungs])
        return dict(zip(ids.tolist(), levels.tolist()))

    @staticmethod
    def _sorted(nblocks, seed):
        """``nblocks`` ascending (score, id) pairs: distinct random ids, tied scores."""
        rng = np.random.default_rng(seed)
        ids = rng.permutation(nblocks * 3)[:nblocks].tolist()
        scores = rng.integers(0, 9, nblocks).astype(float).tolist()
        return sorted(zip(ids, scores), key=lambda p: (p[1], p[0]))

    @pytest.mark.parametrize(
        "nblocks, percent, expected",
        [(10, 5.0, 1), (30, 5.0, 2), (10, 25.0, 3), (10, 35.0, 4), (10, 45.0, 5),
         (10, 24.0, 2), (10, 26.0, 3), (0, 50.0, 0), (7, 100.0, 7), (10, 0.0, 0)],
    )
    def test_named_cases(self, nblocks, percent, expected):
        pairs = self._sorted(nblocks, 0)
        for ladder in (DEFAULT_QUALITY_LADDER, ((2, 0.5), (1, 0.5))):
            levels = self._prefix_levels(pairs, percent, ladder)
            assert levels == oracle_select_reduction_levels(pairs, percent, ladder)
            stepped = select_reduction_levels(pairs, percent, ladder)
            assert list(levels.items()) == list(stepped.items())
            assert len(levels) == expected

    @settings(deadline=None, max_examples=200)
    @given(
        nblocks=st.integers(min_value=0, max_value=120),
        percent=st.one_of(
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=0, max_value=20).map(lambda k: k * 5.0),
        ),
        ladder=st.sampled_from(
            [((2, 1.0),), ((1, 1.0),), ((2, 0.5), (1, 0.5)), ((1, 0.25), (2, 0.75)),
             ((2, 0.3), (1, 0.7)), ((1, 0.45), (2, 0.55))]
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_prefix_equals_the_oracle(self, nblocks, percent, ladder, seed):
        pairs = self._sorted(nblocks, seed)
        expected = oracle_select_reduction_levels(pairs, percent, ladder)
        assert self._prefix_levels(pairs, percent, ladder) == expected
        assert list(select_reduction_levels(pairs, percent, ladder).items()) == list(
            expected.items()
        )

    def test_percent_out_of_range(self):
        for percent in (-1.0, 150.0):
            with pytest.raises(ValueError):
                ladder_counts(10, percent)

    @settings(deadline=None, max_examples=60)
    @given(
        nblocks=st.integers(min_value=0, max_value=80),
        nranks=st.integers(min_value=1, max_value=9),
        iteration=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_wire_array_deals_like_tuples(self, nblocks, nranks, iteration, seed):
        pairs = self._sorted(nblocks, seed)
        wire = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
        for strategy in (RoundRobin(), RandomShuffle(seed=seed)):
            from_tuples = strategy.assign_owners(pairs, nranks, iteration)
            from_wire = strategy.assign_owners(wire, nranks, iteration)
            for a, b in zip(from_tuples, from_wire):
                assert a.dtype == b.dtype == np.int64
                assert a.tolist() == b.tolist()


class TestRedistribution:
    @staticmethod
    def _exchange(strategy, per_rank_blocks, platform, run_step):
        """The redistribution step of ``strategy`` alone, on a fresh
        communicator: the blocks each rank holds afterwards, the report, and
        the communicator."""
        comm = BSPCommunicator(4, cost_model=platform.network)
        context, report = run_step(
            RedistributionStep(strategy, comm),
            per_rank_blocks,
            sorted_pairs=_pairs(per_rank_blocks),
        )
        return context.per_rank_blocks, report, comm

    def test_none_strategy_keeps_everything(self, per_rank_blocks, platform, run_step):
        out, report, _ = self._exchange(
            NoRedistribution(), per_rank_blocks, platform, run_step
        )
        assert report.modelled_max == 0.0
        for original, new in zip(per_rank_blocks, out):
            assert [b.block_id for b in original] == [b.block_id for b in new]

    def test_none_strategy_refreshes_owner_metadata(
        self, per_rank_blocks, platform, run_step
    ):
        """NoRedistribution leaves ``block.owner`` equal to the holding rank,
        like the exchanging strategies do (regression: it used to return the
        blocks untouched, so stale owners survived the step)."""
        stale = [
            [replace(b, owner=(rank + 1) % 4) for b in blocks]
            for rank, blocks in enumerate(per_rank_blocks)
        ]
        out, report, comm = self._exchange(NoRedistribution(), stale, platform, run_step)
        for rank, blocks in enumerate(out):
            assert all(b.owner == rank for b in blocks)
        assert report.modelled_max == 0.0 and report.payload_bytes == 0.0
        # No communication happened: the skip really skips the exchange.
        assert comm.stats == {}

    def test_assignment_arrays_form(self):
        pairs = [(i, float(i)) for i in range(8)]
        for strategy in (NoRedistribution(), RandomShuffle(seed=1), RoundRobin()):
            block_ids, dests = strategy.assign_owners(pairs, nranks=4, iteration=0)
            assert block_ids.dtype == np.int64 and dests.dtype == np.int64
            assert block_ids.shape == dests.shape

    def test_round_robin_assignment_order(self):
        pairs = [(i, float(i)) for i in range(8)]  # ascending scores
        owners = owners_dict(RoundRobin().assign_owners(pairs, nranks=4, iteration=0))
        # Highest score (id 7) goes to rank 0, next (id 6) to rank 1, ...
        assert owners[7] == 0 and owners[6] == 1 and owners[5] == 2 and owners[4] == 3
        assert owners[3] == 0

    def test_round_robin_counts_balanced(self):
        pairs = [(i, float(i)) for i in range(16)]
        owners = owners_dict(RoundRobin().assign_owners(pairs, nranks=4, iteration=0))
        counts = np.bincount(list(owners.values()), minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_shuffle_same_seed_same_assignment(self):
        pairs = [(i, float(i)) for i in range(20)]
        a = owners_dict(RandomShuffle(seed=5).assign_owners(pairs, 4, iteration=3))
        b = owners_dict(RandomShuffle(seed=5).assign_owners(pairs, 4, iteration=3))
        assert a == b

    def test_shuffle_counts_constant_per_rank(self):
        pairs = [(i, float(i)) for i in range(20)]
        owners = owners_dict(RandomShuffle(seed=1).assign_owners(pairs, 4, iteration=0))
        counts = np.bincount(list(owners.values()), minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_shuffle_differs_across_iterations(self):
        pairs = [(i, float(i)) for i in range(40)]
        a = owners_dict(RandomShuffle(seed=5).assign_owners(pairs, 4, iteration=0))
        b = owners_dict(RandomShuffle(seed=5).assign_owners(pairs, 4, iteration=1))
        assert a != b

    def test_redistribute_preserves_blocks(self, per_rank_blocks, platform, run_step):
        out, report, _ = self._exchange(RoundRobin(), per_rank_blocks, platform, run_step)
        original_ids = sorted(b.block_id for blocks in per_rank_blocks for b in blocks)
        new_ids = sorted(b.block_id for blocks in out for b in blocks)
        assert new_ids == original_ids
        assert report.modelled_max > 0.0
        assert report.payload_bytes > 0
        # Owners updated to the rank actually holding the block.
        for rank, blocks in enumerate(out):
            assert all(b.owner == rank for b in blocks)

    def test_redistribute_block_counts_constant(
        self, per_rank_blocks, platform, run_step
    ):
        out, _, _ = self._exchange(
            RandomShuffle(seed=2), per_rank_blocks, platform, run_step
        )
        counts = [len(blocks) for blocks in out]
        assert max(counts) - min(counts) <= 1

    def test_make_strategy_factory(self):
        assert isinstance(make_strategy("none"), NoRedistribution)
        assert isinstance(make_strategy("shuffle"), RandomShuffle)
        assert isinstance(make_strategy("round_robin"), RoundRobin)
        assert tuple(STRATEGIES) == ("none", "shuffle", "round_robin")
        with pytest.raises(ValueError):
            make_strategy("bogus")

    def test_make_strategy_unknown_name_message(self):
        # Exactly the table's names: no case folding, no aliases.
        for name in ("hilbert", "rr", "Shuffle", " none "):
            with pytest.raises(ValueError, match="unknown redistribution strategy"):
                make_strategy(name)
        with pytest.raises(ValueError, match="'none', 'shuffle', 'round_robin'"):
            make_strategy("")

    def test_make_strategy_seed_forwarded(self):
        strategy = make_strategy("shuffle", seed=7)
        assert isinstance(strategy, RandomShuffle)
        assert strategy.seed == 7


class TestRenderingStep:
    def test_rendering_counts_and_makespan(self, per_rank_blocks, platform, run_step):
        step = RenderingStep(platform, isosurface_level=45.0, render_mode="count")
        context, report = run_step(step, per_rank_blocks)
        assert len(context.render_results) == 4
        assert report.modelled_max >= max(report.modelled_per_rank) - 1e-12
        assert report.counters["total_triangles"] == sum(
            report.per_rank_counters["triangles"]
        )

    def test_reduced_workload_is_cheaper(self, per_rank_blocks, platform, run_step):
        step = RenderingStep(platform, render_mode="count")
        _, full = run_step(step, per_rank_blocks)
        reduced = [[reduce_block(b) for b in blocks] for blocks in per_rank_blocks]
        _, cheaper = run_step(step, reduced)
        assert cheaper.modelled_max <= full.modelled_max
