"""Experiment drivers reproducing every table and figure of the paper.

Each module regenerates artefacts of the paper's evaluation section
(Section V) from this repository's synthetic substrate, in modelled
"Blue Waters seconds":

===========================  ================================================
:mod:`fig1_renderings`       Fig. 1 — original vs filtered renderings
:mod:`table1_metric_cost`    Table I — metric scoring cost on 64/400 cores
:mod:`fig3_metric_agreement` Fig. 3 — pairwise metric rank agreement
:mod:`fig4_scoremaps`        Fig. 4 — scoremaps vs the original dBZ field
:mod:`runs`                  Figs. 5–9 — one fixed-percent sweep
                             (:func:`~runs.fixed_percent_sweep`); Figs. 10
                             and 11 — one adaptive run
                             (:func:`~runs.adaptive_run`, targets in
                             :data:`~runs.PAPER_TARGETS`)
===========================  ================================================

:mod:`repro.scenarios.scenario` provides the shared scenario construction and
platform calibration; ``benchmarks/test_ledger.py`` holds the reproduction
ledger: one row per checked number (the paper's value, a bound, how it is
computed from these drivers, and whether it is a calibration anchor), each
run computed once per scenario and shared by the rows that read it.
"""

#: Nothing is re-exported: import the driver modules by name, and the scenario
#: classes from :mod:`repro.scenarios`.
__all__: list = []
