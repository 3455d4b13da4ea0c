"""Tests of Figures 3 and 4 from one batched scoring of a snapshot.

``repro.experiments.metric_maps`` replaced a per-block analysis path: the rank
comparison of ``repro.metrics.comparison`` and the scoremaps of
``repro.metrics.scoremap``.  Their bodies are kept verbatim below as oracles;
run over every block of the (float32) field, they must agree bitwise with the
batched maps on every pair's Spearman correlation, every quiet prefix and
every scoremap image.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from types import SimpleNamespace
from typing import Dict, List, Mapping, Sequence

import numpy as np
import pytest

from repro.experiments.metric_maps import (
    STORM_DBZ,
    MetricMaps,
    format_metric_maps,
    score_snapshot,
)
from repro.grid.decomposition import CartesianDecomposition
from repro.metrics.base import ScoreMetric
from repro.metrics.registry import PAPER_METRICS, create_metric
from repro.scenarios import ExperimentScenario, ScenarioConfig
from repro.scenarios.scenario import cached_scenario

# -- the replaced analyses, verbatim --------------------------------------------


def rank_blocks(scores: Mapping[int, float]) -> Dict[int, int]:
    """Rank blocks by ascending (score, id); returns block id -> rank.

    Rank 0 is the least relevant block.  Ties in score are broken by block id,
    exactly as the pipeline's global sort does.
    """
    ordered = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    return {block_id: rank for rank, (block_id, _) in enumerate(ordered)}


def spearman_rank_correlation(ranks_a: Sequence[int], ranks_b: Sequence[int]) -> float:
    """Spearman correlation between two rank assignments of the same blocks."""
    a = np.asarray(ranks_a, dtype=np.float64)
    b = np.asarray(ranks_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"rank arrays differ in shape: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least two blocks to correlate")
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a**2).sum() * (b**2).sum())
    if denom == 0:
        return 0.0
    return float((a * b).sum() / denom)


@dataclass
class MetricComparison:
    metric_a: str
    metric_b: str
    rank_pairs: np.ndarray
    spearman: float


def compare_metrics(
    per_metric_scores: Mapping[str, Mapping[int, float]]
) -> List[MetricComparison]:
    names = list(per_metric_scores)
    if len(names) < 2:
        raise ValueError("need at least two metrics to compare")
    block_sets = {name: set(scores) for name, scores in per_metric_scores.items()}
    reference = block_sets[names[0]]
    for name, ids in block_sets.items():
        if ids != reference:
            raise ValueError(f"metric {name!r} scored a different set of blocks")
    block_ids = sorted(reference)
    ranks = {
        name: rank_blocks(per_metric_scores[name]) for name in names
    }
    comparisons = []
    for name_a, name_b in combinations(names, 2):
        pairs = np.asarray(
            [[ranks[name_a][bid], ranks[name_b][bid]] for bid in block_ids],
            dtype=np.int64,
        )
        rho = spearman_rank_correlation(pairs[:, 0], pairs[:, 1])
        comparisons.append(
            MetricComparison(
                metric_a=name_a, metric_b=name_b, rank_pairs=pairs, spearman=rho
            )
        )
    return comparisons


def score_blocks_with_metrics(
    metrics: Sequence[ScoreMetric], blocks: Sequence
) -> Dict[str, Dict[int, float]]:
    out: Dict[str, Dict[int, float]] = {}
    for metric in metrics:
        out[metric.name] = {
            block.block_id: metric.score_block(block.data) for block in blocks
        }
    return out


def quiet_prefix(scores: Dict[int, float]) -> int:
    """Number of blocks sharing the metric's minimum score."""
    values = np.asarray(list(scores.values()), dtype=np.float64)
    if values.size == 0:
        return 0
    return int(np.sum(np.isclose(values, values.min())))


@dataclass
class ScoreMap:
    metric_name: str
    image: np.ndarray
    block_scores: Dict[int, float]

    def normalised(self) -> np.ndarray:
        img = np.asarray(self.image, dtype=np.float64)
        lo, hi = float(img.min()), float(img.max())
        if hi <= lo:
            return np.zeros_like(img)
        return (img - lo) / (hi - lo)

    def high_score_fraction(self, quantile: float = 0.9) -> float:
        if not (0.0 < quantile < 1.0):
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        img = self.normalised()
        threshold = float(np.quantile(img, quantile))
        return float(np.mean(img > threshold))


def compute_scoremap(
    metric: ScoreMetric,
    decomposition: CartesianDecomposition,
    field: np.ndarray,
) -> ScoreMap:
    field = np.asarray(field)
    if tuple(field.shape) != tuple(decomposition.global_shape):
        raise ValueError(
            f"field shape {field.shape} does not match decomposition "
            f"{decomposition.global_shape}"
        )
    nx, ny, _ = decomposition.global_shape
    image = np.zeros((nx, ny), dtype=np.float64)
    block_scores: Dict[int, float] = {}
    for rank in range(decomposition.nranks):
        for block in decomposition.extract_blocks(rank, field):
            score = metric.score_block(block.data)
            block_scores[block.block_id] = score
            sl = block.extent.slices
            image[sl[0], sl[1]] = score
    return ScoreMap(metric_name=metric.name, image=image, block_scores=block_scores)


# -- the law ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["tiny", "blue_waters_64"])
def test_maps_equal_the_replaced_analyses(name):
    """Every pair's Spearman correlation, every quiet prefix and every
    scoremap (raw, normalised, top-decile area) equal the oracles' over every
    block of the float32 field, bitwise.  Fails on ranking by score without
    the block-id tie-break (``np.argsort(scores)``): the minimum-score blocks
    then take the unstable sort's order."""
    scenario = cached_scenario(name=name, nsnapshots=2)
    maps = score_snapshot(scenario)
    field = scenario.dataset.snapshot(0).get_field(scenario.config.field_name)
    assert field.dtype == np.float32
    metrics = [create_metric(metric) for metric in PAPER_METRICS]
    per_metric = score_blocks_with_metrics(metrics, scenario.all_blocks(0))

    comparisons = compare_metrics(per_metric)
    assert list(maps.spearman) == [(c.metric_a, c.metric_b) for c in comparisons]
    assert [maps.spearman[c.metric_a, c.metric_b] for c in comparisons] == [
        c.spearman for c in comparisons
    ]
    assert maps.quiet_prefix == {m: quiet_prefix(s) for m, s in per_metric.items()}
    for metric, image, norm, high in zip(metrics, maps.images, maps.normalised, maps.top_decile):
        smap = compute_scoremap(metric, scenario.decomposition, field)
        assert image.tobytes() == smap.image.tobytes(), metric.name
        assert norm.tobytes() == smap.normalised().tobytes(), metric.name
        assert float(high.mean()) == smap.high_score_fraction(0.9), metric.name


def test_block_scores_are_the_pipeline_scores(run_step):
    """Each paper metric scores a block here exactly as the default engine's
    scoring step does on the same arrival — float32 payloads, not a float64
    copy of the field (which moved LEA and FPZIP scores by up to 33 % and
    48 % of their value)."""
    scenario = cached_scenario(name="blue_waters_64", nsnapshots=2)
    maps = score_snapshot(scenario)
    arrival = scenario.blocks_for(0)
    for metric, scores in zip(PAPER_METRICS, maps.scores):
        step = scenario.build_pipeline(metric=metric).engine.steps[0]
        context, _ = run_step(step, arrival)
        assert scores.tobytes() == context.columns.scores.tobytes(), metric


def test_maps_on_a_16_rank_scenario():
    """Pair count, correlation range (exactly 1 for STD against VAR, whose
    order it keeps), quiet blocks, and every scoremap brighter over the
    storm's footprint than over the quiet background (the contrast the
    paper's scoremaps show)."""
    scenario = ExperimentScenario(
        ScenarioConfig(ncores=16, shape=(88, 88, 24), blocks_per_subdomain=(2, 2, 2), nsnapshots=1)
    )
    names = ("VAR", "RANGE", "LEA", "TRILIN", "STD")
    maps = score_snapshot(scenario, metrics=names)
    assert maps.names == names
    assert maps.scores.shape == (5, scenario.nblocks)
    assert len(maps.spearman) == 10  # C(5, 2)
    assert all(-1.0 <= rho <= 1.0 for rho in maps.spearman.values())
    assert maps.spearman["VAR", "STD"] == 1.0
    assert maps.spearman["VAR", "RANGE"] > 0.3
    assert all(q >= 1 for q in maps.quiet_prefix.values())
    assert maps.images.shape == (5,) + scenario.config.shape[:2]
    assert all(0.0 <= overlap <= 1.0 for overlap in maps.storm_overlap.values())
    storm = maps.column_max > 0.0
    for norm in maps.normalised:
        assert norm.min() == 0.0 and norm.max() == 1.0
        assert norm[storm].mean() > norm[~storm].mean()
    text = format_metric_maps(maps)
    assert "Figure 3" in text and "storm" in text


# -- the derivations on chosen scores ---------------------------------------------


def _tiny_maps(scores, column_max=None) -> MetricMaps:
    """Maps of ``scores`` (metrics x 16 blocks) over the tiny scenario's
    arrival, whose 16 blocks tile its 44 x 44 columns in disjoint 11 x 11
    footprints, row ``i`` holding block id ``i``."""
    arrival = cached_scenario(name="tiny", nsnapshots=2).blocks_for(0)
    scores = np.asarray(scores, dtype=np.float64)
    if column_max is None:
        column_max = np.zeros((44, 44))
    return MetricMaps(tuple(f"M{m}" for m in range(len(scores))), scores, arrival, column_max)


def test_ranks_order_ties_by_block_id():
    """Rows whose scores tie take ranks in block-id order, not row order."""
    arrival = SimpleNamespace(ids=np.array([3, 1, 2]))
    maps = MetricMaps(("A",), np.array([[1.0, 1.0, 0.5]]), arrival, np.zeros((1, 1)))
    assert maps.ranks.tolist() == [[2, 1, 0]]


def test_spearman_is_one_for_one_order_and_minus_one_for_its_reverse():
    order = np.arange(16.0)
    maps = _tiny_maps([order, 2.0 * order + 1.0, -order])
    assert maps.spearman == {("M0", "M1"): 1.0, ("M0", "M2"): -1.0, ("M1", "M2"): -1.0}


def test_quiet_prefix_counts_the_blocks_at_the_minimum_score():
    scores = np.arange(16.0) + 1.0
    with_ties = scores.copy()
    with_ties[[3, 7, 11]] = 0.0
    with_ties[12] = 1e-12  # np.isclose to 0
    assert _tiny_maps([scores, with_ties]).quiet_prefix == {"M0": 1, "M1": 4}


def test_images_paint_each_footprint_with_its_block_score():
    scores = 10.0 + np.arange(16.0)
    maps = _tiny_maps([scores])
    assert maps.images.shape == (1, 44, 44)
    arrival = maps.arrival
    for row, ((x0, y0, _), (x1, y1, _)) in enumerate(zip(arrival.starts, arrival.stops)):
        assert (maps.images[0, x0:x1, y0:y1] == scores[row]).all()
        assert (maps.normalised[0, x0:x1, y0:y1] == row / 15).all()


def test_a_constant_scoremap_normalises_to_zeros_and_keeps_no_area():
    maps = _tiny_maps([np.full(16, 7.0)], column_max=np.full((44, 44), STORM_DBZ + 1.0))
    assert (maps.normalised == 0.0).all()
    assert not maps.top_decile.any()
    assert maps.storm_overlap == {"M0": 0.0}


def test_storm_overlap_is_the_top_decile_share_inside_the_storm():
    """Block 5 covers the storm; a metric scoring it highest keeps only storm
    columns in its top decile, one scoring block 10 highest keeps none."""
    column_max = np.zeros((44, 44))
    column_max[0:11, 33:44] = STORM_DBZ + 1.0  # block 5's footprint
    storm_high = np.zeros(16)
    storm_high[5] = 1.0
    quiet_high = np.zeros(16)
    quiet_high[10] = 1.0
    maps = _tiny_maps([storm_high, quiet_high], column_max)
    assert maps.top_decile.sum(axis=(1, 2)).tolist() == [121, 121]
    assert maps.storm_overlap == {"M0": 1.0, "M1": 0.0}
