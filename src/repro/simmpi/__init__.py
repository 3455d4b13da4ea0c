"""The pipeline's modelled communication.

The paper runs on Blue Waters with real MPI; this environment has neither.
The pipeline communicates three times per iteration — one gather and one
broadcast for the global sort (Section IV-C), one personalised all-to-all for
the redistribution — and this package is what it issues and prices them with:

* :class:`NetworkCostModel` — the latency/bandwidth price of those three
  collectives;
* :class:`BSPCommunicator` — the driver-side communicator: per-rank values
  live in lists indexed by rank, each collective returns the per-rank results
  and records its modelled cost.  Single-threaded, deterministic, and cheap at
  hundreds of virtual ranks;
* :func:`parallel_sort_pairs` / :func:`parallel_sort_pairs_numpy` — the
  gather–sort–broadcast of the ``<block id, score>`` pairs, as the ``serial``
  backend and the batched backends run it.
"""

from repro.simmpi.costmodel import NetworkCostModel
from repro.simmpi.communicator import BSPCommunicator
from repro.simmpi.sort import parallel_sort_pairs, parallel_sort_pairs_numpy

__all__ = [
    "NetworkCostModel",
    "BSPCommunicator",
    "parallel_sort_pairs",
    "parallel_sort_pairs_numpy",
]
