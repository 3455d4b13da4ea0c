"""The reproduction ledger: every number of the paper's evaluation checked here.

Each row of :data:`LEDGER` names the figure or table, the quantity, the
paper's value (``None`` for a claim about a shape rather than a number), the
bound the reproduced value must meet, how that value is computed from the
runs, and a kind:

* ``anchor`` — the paper's value is a calibration input of the model
  (:data:`~repro.perfmodel.calibration.PAPER_BASELINES`, Table I at 64
  cores), so the row checks the calibration and cannot count as a
  reproduction;
* ``reproduced`` — the value emerges from the data and the model.

One parametrised test runs over the rows.  Each run the rows read — the
fixed-percent sweeps, the adaptive runs and the Fig. 1, Fig. 3, Fig. 4 and
Table I drivers — is computed once per scenario, on first read, and shared by
every row that reads it.  Each row prints its ledger line; ``pytest -s``
shows the whole ledger.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import pytest

from repro.core.backends import STEP_NAMES
from repro.experiments.fig1_renderings import run_fig1
from repro.experiments.fig3_metric_agreement import run_fig3
from repro.experiments.fig4_scoremaps import run_fig4
from repro.experiments.runs import (
    PAPER_TARGETS,
    adaptive_run,
    fixed_percent_sweep,
    settling_error,
)
from repro.experiments.table1_metric_cost import run_table1
from repro.metrics.registry import PAPER_METRICS
from repro.perfmodel.calibration import PAPER_BASELINES, TABLE1_SECONDS
from repro.scenarios.scenario import cached_scenario

ANCHOR = "anchor"
REPRODUCED = "reproduced"

#: Iterations per fixed-percent run and per adaptive run, per benchmark scale
#: (``full`` is the paper's protocol).
ITERATIONS = {"small": (3, 12), "full": (10, 30)}

#: Fig. 5's redistribution policies, ``(label, metric, redistribution)``;
#: Figs. 6, 7 and 9 sweep their rendering over the percentage, Fig. 8 their
#: communication.  The paper's Fig. 8 scores with LEA: at 0 % and at 100 % the
#: shuffle's exchange is the same for every metric (no block, or every block,
#: is reduced), and in between the metric only picks which blocks go first.
POLICIES = (
    ("NONE", "VAR", "none"),
    ("SHUFFLE", "VAR", "shuffle"),
    ("VAR", "VAR", "round_robin"),
)
#: Fig. 5's round-robin driven by each of the other metrics.
METRIC_POLICIES = tuple((m, m, "round_robin") for m in PAPER_METRICS if m != "VAR")
FIG7_PERCENTS = (0, 20, 40, 60, 80, 90, 94, 98, 100)

#: The fixed-percent sweeps of each scenario: name -> (runs, percentages).
SWEEPS = {
    64: {
        "policies": (POLICIES, FIG7_PERCENTS),
        "metrics": (METRIC_POLICIES, (0,)),
    },
    400: {"policies": (POLICIES, (0, 100))},
}


class Runs:
    """Every run the rows of one scenario read, each computed on first read."""

    def __init__(self, ncores: int, scale: str):
        self.scenario = cached_scenario(name=f"blue_waters_{ncores}", nsnapshots=10)
        self.sweep_iterations, self.adaptive_iterations = ITERATIONS[scale]
        self.sweeps = SWEEPS[ncores]
        self._done: Dict[str, object] = {}

    def _once(self, key: str, compute: Callable[[], object]):
        if key not in self._done:
            self._done[key] = compute()
        return self._done[key]

    def steps(self, label: str, percent: float, step="rendering", sweep="policies") -> np.ndarray:
        """Per-iteration modelled seconds of one step of one run of a sweep."""
        runs, percentages = self.sweeps[sweep]
        labels, seconds = self._once(
            sweep,
            lambda: fixed_percent_sweep(self.scenario, runs, percentages, self.sweep_iterations),
        )
        run, column = labels.index(label), percentages.index(percent)
        return seconds[run, column, :, STEP_NAMES.index(step)]

    def mean(self, label: str, percent: float, step="rendering", sweep="policies") -> float:
        """Mean over the iterations of :meth:`steps`."""
        return float(np.mean(self.steps(label, percent, step, sweep)))

    def comm(self, label: str, percent: float) -> float:
        """Mean redistribution seconds of one policy at one percentage."""
        return self.mean(label, percent, "redistribution")

    def trace(self, redistribution: str, index: int) -> Tuple[float, np.ndarray, np.ndarray]:
        """One target of the paper's, with the adaptive run's seconds and percents."""
        targets = PAPER_TARGETS[redistribution, self.scenario.nranks]
        seconds, percents = self._once(
            redistribution,
            lambda: adaptive_run(
                self.scenario, targets, self.adaptive_iterations, redistribution=redistribution
            ),
        )
        return targets[index], seconds[index], percents[index]

    @property
    def fig1(self):
        return self._once("fig1", lambda: run_fig1(self.scenario))

    @property
    def fig3(self):
        return self._once("fig3", lambda: run_fig3(self.scenario, max_blocks=384))

    @property
    def fig4(self):
        return self._once("fig4", lambda: run_fig4(self.scenario))

    @property
    def table1(self):
        rows = self._once("table1", lambda: run_table1(self.scenario, max_blocks=96))
        return {row.metric: row for row in rows}


#: ``(op, limit)``: the value compared with ``limit``, or for ``"~"`` the
#: value within ``limit`` relative distance of the paper's value.
COMPARE = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq
}


@dataclass(frozen=True)
class Row:
    """One checked number: what it is, the paper's value, its bound, its recipe."""

    id: str
    figure: str
    ncores: int
    quantity: str
    paper: Optional[float]
    bound: Tuple[str, float]
    compute: Callable[[Runs], float]
    kind: str = REPRODUCED

    def holds(self, value: float) -> bool:
        op, limit = self.bound
        if op == "~":
            return abs(value - self.paper) <= limit * abs(self.paper)
        return COMPARE[op](value, limit)

    def line(self, value: float) -> str:
        op, limit = self.bound
        bound = f"within {limit:.0%} of paper" if op == "~" else f"{op} {limit:g}"
        paper = "-" if self.paper is None else f"{self.paper:g}"
        return (
            f"{self.figure:<8} {self.ncores:>3}  {self.quantity:<66} paper {paper:>6}  "
            f"value {value:>10.4g}  {bound:<22} {self.kind:<10} "
            + ("ok" if self.holds(value) else "FAIL")
        )


def _policy_spread(r: Runs) -> float:
    means = [r.mean(label, 0) for label in ("SHUFFLE", "VAR")]
    means += [r.mean(label, 0, sweep="metrics") for label, _, _ in METRIC_POLICIES]
    return max(means) / min(means)


def _comm_rise(label: str) -> Callable[[Runs], float]:
    """Largest rise of the mean redistribution seconds from one percentage to the next."""

    def compute(r: Runs) -> float:
        means = [r.comm(label, p) for p in r.sweeps["policies"][1]]
        return max(b - a for a, b in zip(means, means[1:]))

    return compute


def _corner_share_error(r: Runs) -> float:
    """Wire size is payload bytes, so a 100 % exchange moves the share of a
    full one that 2x2x2 corners are of the whole blocks."""
    blocks = r.scenario.all_blocks(0)
    corner_share = 8 * blocks[0].data.itemsize * len(blocks) / sum(b.nbytes for b in blocks)
    return abs(r.comm("SHUFFLE", 100) / r.comm("SHUFFLE", 0) / corner_share - 1.0)


def _storm_contrast(r: Runs) -> float:
    field = np.asarray(r.scenario.dataset.snapshot(0).get_field("dbz"))
    storm = field.max(axis=2) > 0.0
    norms = [smap.normalised() for smap in r.fig4.scoremaps.values()]
    return min(norm[storm].mean() - norm[~storm].mean() for norm in norms)


def _fig7_means(r: Runs) -> np.ndarray:
    return np.array([r.mean("NONE", p) for p in FIG7_PERCENTS])


def _fig9_worst(ratio: Callable[[float, float, float], float]) -> Callable[[Runs], float]:
    """Largest ``ratio(none, round_robin, shuffle)`` of mean rendering seconds
    over the percentages that leave real work."""
    return lambda r: max(
        ratio(*(r.mean(label, p) for label in ("NONE", "VAR", "SHUFFLE"))) for p in (0, 40, 80)
    )


def _settling_error(r: Runs, index: int) -> float:
    target, seconds, _ = r.trace("none", index)
    return settling_error(seconds, target, warmup=5)


def _tail_over_target(index: int) -> Callable[[Runs], float]:
    def compute(r: Runs) -> float:
        target, seconds, _ = r.trace("round_robin", index)
        return float(np.median(seconds[5:])) / target

    return compute


LEDGER = (
    # -- Fig. 1: filtering every block collapses the rendering cost ------------
    Row("fig1-render-collapse", "Fig. 1", 64, "rendering s, original / every block reduced",
        None, (">", 20.0),
        lambda r: r.fig1.render_seconds_original / r.fig1.render_seconds_filtered),
    Row("fig1-volume-shows-storm", "Fig. 1", 64, "brightest pixel, filtered volume image",
        None, (">", 0.2), lambda r: r.fig1.volume_filtered.max()),
    Row("fig1-colormap-shows-storm", "Fig. 1", 64, "brightest pixel, filtered colormap image",
        None, (">", 0.2), lambda r: r.fig1.colormap_filtered.max()),
    # -- Table I: the modelled cost of each metric ------------------------------
    *(
        Row(f"table1-{metric}-{ncores}", "Table I", ncores,
            f"{metric} scoring s, 16,000 paper blocks on {ncores} cores (model)",
            TABLE1_SECONDS[metric][ncores], ("~", 0.2),
            lambda r, m=metric, n=ncores: getattr(r.table1[m], f"modelled_seconds_{n}"),
            ANCHOR if ncores == 64 else REPRODUCED)
        for metric in TABLE1_SECONDS
        for ncores in (64, 400)
    ),
    Row("table1-var-vs-itl", "Table I", 64, "measured scoring s, VAR / ITL",
        None, ("<=", 1.0),
        lambda r: r.table1["VAR"].measured_seconds / r.table1["ITL"].measured_seconds),
    Row("table1-lea-vs-trilin", "Table I", 64, "measured scoring s, LEA / TRILIN",
        None, ("<=", 1.0),
        lambda r: r.table1["LEA"].measured_seconds / r.table1["TRILIN"].measured_seconds),
    # -- Fig. 3: the metrics agree broadly, not perfectly ----------------------
    Row("fig3-pairs", "Fig. 3", 64, "metric pairs compared",
        15.0, ("==", 15), lambda r: len(r.fig3.comparisons)),
    Row("fig3-quiet-prefix", "Fig. 3", 64, "fewest minimum-score blocks of any metric",
        None, (">=", 1), lambda r: min(r.fig3.quiet_prefix_size.values())),
    Row("fig3-var-trilin", "Fig. 3", 64, "Spearman rank correlation, VAR vs TRILIN",
        None, (">", 0.5), lambda r: r.fig3.pair("VAR", "TRILIN").spearman),
    Row("fig3-some-disagree", "Fig. 3", 64, "lowest pairwise Spearman correlation",
        None, ("<", 0.999), lambda r: min(c.spearman for c in r.fig3.comparisons)),
    Row("fig3-all-agree", "Fig. 3", 64, "lowest pairwise Spearman correlation",
        None, (">", 0.0), lambda r: min(c.spearman for c in r.fig3.comparisons)),
    # -- Fig. 4: every scoremap lights up the storm ----------------------------
    Row("fig4-storm-contrast", "Fig. 4", 64,
        "least storm-minus-background mean normalised score of a metric",
        None, (">", 0.0), _storm_contrast),
    Row("fig4-high-score-area", "Fig. 4", 64, "largest top-decile-score area fraction",
        None, ("<", 0.5),
        lambda r: max(smap.high_score_fraction(0.9) for smap in r.fig4.scoremaps.values())),
    # -- Fig. 5: redistribution alone, p = 0 -----------------------------------
    *(
        row
        for ncores, paper, floor, comm_share in ((64, 4.0, 2.0, 0.1), (400, 5.0, 1.5, 1.0))
        for row in (
            Row(f"fig5-{ncores}-none", "Fig. 5", ncores, "rendering s, no redistribution, p = 0",
                PAPER_BASELINES["render_none"][ncores], ("~", 0.35),
                lambda r: r.mean("NONE", 0), ANCHOR),
            Row(f"fig5-{ncores}-shuffle-speedup", "Fig. 5", ncores,
                "rendering speedup over NONE, random shuffle, p = 0",
                paper, (">", floor), lambda r: r.mean("NONE", 0) / r.mean("SHUFFLE", 0)),
            Row(f"fig5-{ncores}-var-speedup", "Fig. 5", ncores,
                "rendering speedup over NONE, round-robin by VAR, p = 0",
                paper, (">", floor), lambda r: r.mean("NONE", 0) / r.mean("VAR", 0)),
            Row(f"fig5-{ncores}-comm-share", "Fig. 5", ncores,
                "redistribution s / rendering s, random shuffle, p = 0",
                None, ("<", comm_share), lambda r: r.comm("SHUFFLE", 0) / r.mean("SHUFFLE", 0)),
        )
    ),
    Row("fig5-64-policy-spread", "Fig. 5", 64,
        "slowest / fastest policy: shuffle, round-robin by each metric",
        None, ("<", 2.5), _policy_spread),
    # -- Figs. 6 and 7: rendering time against the percentage reduced ----------
    Row("fig6-0-above-100", "Fig. 6", 64, "least per-iteration rendering s at 0 % minus at 100 %",
        None, (">=", 0.0), lambda r: np.min(r.steps("NONE", 0) - r.steps("NONE", 100))),
    Row("fig6-0-varies", "Fig. 6", 64, "per-iteration rendering s at 0 %, max - min",
        None, (">", 0.0), lambda r: np.ptp(r.steps("NONE", 0))),
    *(
        Row(f"fig6-{ncores}-all-reduced", "Fig. 6", ncores,
            "rendering s, every block reduced, no redistribution",
            1.0, ("<", 3.0), lambda r: r.mean("NONE", 100))
        for ncores in (64, 400)
    ),
    Row("fig7-peak-at-0", "Fig. 7", 64, "largest mean rendering s minus the mean at 0 %",
        None, ("<=", 0.0), lambda r: _fig7_means(r).max() - _fig7_means(r)[0]),
    Row("fig7-floor-at-100", "Fig. 7", 64, "mean rendering s at 100 % minus the smallest mean",
        None, ("<=", 0.0), lambda r: _fig7_means(r)[-1] - _fig7_means(r).min()),
    Row("fig7-not-proportional", "Fig. 7", 64, "rendering s drop 80 -> 100 % minus drop 0 -> 40 %",
        None, (">", 0.0),
        lambda r: (r.mean("NONE", 80) - r.mean("NONE", 100))
        - (r.mean("NONE", 0) - r.mean("NONE", 40))),
    # -- Fig. 8: the redistribution's communication -----------------------------
    *(
        row
        for ncores in (64, 400)
        for row in (
            Row(f"fig8-{ncores}-full-exchange", "Fig. 8", ncores,
                "redistribution s, random shuffle, p = 0",
                PAPER_BASELINES["redistribution_comm"][ncores], ("~", 0.25),
                lambda r: r.comm("SHUFFLE", 0), ANCHOR),
            Row(f"fig8-{ncores}-round-robin-falls", "Fig. 8", ncores,
                "largest rise of redistribution s to the next %, round-robin",
                None, ("<", 0.0), _comm_rise("VAR")),
            Row(f"fig8-{ncores}-shuffle-falls", "Fig. 8", ncores,
                "largest rise of redistribution s to the next %, random shuffle",
                None, ("<", 0.0), _comm_rise("SHUFFLE")),
            Row(f"fig8-{ncores}-nonnegative", "Fig. 8", ncores,
                "least mean redistribution s of the sweep",
                None, (">=", 0.0),
                lambda r: min(r.comm(label, p) for label in ("VAR", "SHUFFLE")
                              for p in r.sweeps["policies"][1])),
            Row(f"fig8-{ncores}-round-robin-vs-shuffle", "Fig. 8", ncores,
                "|round-robin / shuffle - 1|, redistribution s at 0 %",
                None, ("<=", 0.5), lambda r: abs(r.comm("VAR", 0) / r.comm("SHUFFLE", 0) - 1.0)),
            Row(f"fig8-{ncores}-corner-share", "Fig. 8", ncores,
                "|100 % / 0 % exchange over corner / block bytes - 1|, shuffle",
                None, ("<=", 0.25), _corner_share_error),
        )
    ),
    Row("fig8-64-reduced-share", "Fig. 8", 64, "redistribution s at 100 % / at 0 %, shuffle",
        None, ("<=", 0.02), lambda r: r.comm("SHUFFLE", 100) / r.comm("SHUFFLE", 0)),
    # -- Fig. 9: reduction and redistribution together -------------------------
    Row("fig9-round-robin-helps", "Fig. 9", 64,
        "worst round-robin / NONE rendering s at 0, 40, 80 %",
        None, ("<=", 1.05), _fig9_worst(lambda none, rr, sh: rr / none)),
    Row("fig9-shuffle-helps", "Fig. 9", 64, "worst shuffle / NONE rendering s at 0, 40, 80 %",
        None, ("<=", 1.05), _fig9_worst(lambda none, rr, sh: sh / none)),
    Row("fig9-policies-equivalent", "Fig. 9", 64,
        "worst max(round-robin / shuffle, shuffle / round-robin) at 0, 40, 80 %",
        None, ("<=", 2.0), _fig9_worst(lambda none, rr, sh: max(rr / sh, sh / rr))),
    # -- Fig. 10: Algorithm 1 without redistribution ---------------------------
    *(
        Row(f"fig10-{ncores}-settles-{target:g}s", "Fig. 10", ncores,
            f"settling error after 5 iterations, target {target:g} s",
            None, ("<=", tolerance),
            lambda r, i=index: _settling_error(r, i))
        for ncores, tolerance in ((64, 0.75), (400, 1.0))
        for index, target in enumerate(PAPER_TARGETS["none", ncores])
    ),
    Row("fig10-64-tighter-reduces-more", "Fig. 10", 64,
        "largest % reduced, tightest target minus loosest target",
        None, (">=", 0.0),
        lambda r: r.trace("none", -1)[2].max() - r.trace("none", 0)[2].max()),
    Row("fig10-64-tighter-keeps-reducing-more", "Fig. 10", 64,
        "mean % reduced after 5 iterations, tightest minus loosest target",
        None, (">", 0.0),
        lambda r: r.trace("none", -1)[2][5:].mean() - r.trace("none", 0)[2][5:].mean()),
    # -- Fig. 11: Algorithm 1 with round-robin redistribution ------------------
    *(
        Row(f"fig11-{ncores}-{name}-{target:g}s", "Fig. 11", ncores,
            f"median time after 5 iterations / target {target:g} s",
            None, bound, _tail_over_target(index))
        for ncores, bounds in (
            (64, (("under", ("<=", 2.0)), ("over", (">=", 0.1)))),
            (400, (("under", ("<=", 2.5)),)),
        )
        for index, target in enumerate(PAPER_TARGETS["round_robin", ncores])
        for name, bound in bounds
    ),
)


@pytest.fixture(scope="session")
def ledger_runs() -> Dict[int, Runs]:
    """The rows' :class:`Runs`, one per core count, each made on first use."""
    return {}


@pytest.mark.parametrize("row", LEDGER, ids=[row.id for row in LEDGER])
def test_ledger_row(row: Row, ledger_runs: Dict[int, Runs], scale: str):
    runs = ledger_runs.get(row.ncores)
    if runs is None:
        runs = ledger_runs[row.ncores] = Runs(row.ncores, scale)
    value = float(row.compute(runs))
    print(row.line(value))
    assert row.holds(value), row.line(value)
