"""Experiment drivers reproducing every table and figure of the paper.

Each module regenerates one artefact of the paper's evaluation section
(Section V) from this repository's synthetic substrate, in modelled
"Blue Waters seconds":

=======================  ============================================
:mod:`fig1_renderings`    Fig. 1 — original vs filtered renderings
:mod:`table1_metric_cost` Table I — metric scoring cost on 64/400 cores
:mod:`fig3_metric_agreement` Fig. 3 — pairwise metric rank agreement
:mod:`fig4_scoremaps`     Fig. 4 — scoremaps vs the original dBZ field
:mod:`fig5_redistribution` Fig. 5 — rendering time per redistribution strategy
:mod:`fig6_7_reduction`   Figs. 6 & 7 — rendering time vs reduction percentage
:mod:`fig8_comm`          Fig. 8 — redistribution communication time vs percentage
:mod:`fig9_combined`      Fig. 9 — reduction x redistribution interaction
:mod:`fig10_adaptation`   Fig. 10 — adaptation without redistribution
:mod:`fig11_full_pipeline` Fig. 11 — full pipeline with adaptation
=======================  ============================================

:mod:`repro.scenarios.scenario` provides the shared scenario construction and
platform calibration; the ``benchmarks/`` tree wraps each driver in a
pytest-benchmark entry that prints the regenerated rows/series.
"""

#: Nothing is re-exported: import the driver modules by name, and the scenario
#: classes from :mod:`repro.scenarios`.
__all__: list = []
