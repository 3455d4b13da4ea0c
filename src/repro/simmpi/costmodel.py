"""Latency/bandwidth network cost model.

The model is the classic ``alpha + n * beta`` (Hockney) model: a message of
``n`` bytes costs ``latency + n / bandwidth`` seconds.  The collectives the
pipeline issues — broadcast, gather, personalised all-to-all — are priced with
standard binomial-tree / busiest-rank formulas.  Default parameters approximate
the Cray Gemini interconnect of Blue Waters, which is what makes the paper's
observation reproducible that block redistribution costs ~1 s while rendering
costs tens to hundreds of seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class NetworkCostModel:
    """Analytic communication cost model.

    Attributes
    ----------
    latency:
        Per-message latency (seconds).  Blue Waters Gemini: ~1.5 microseconds.
    bandwidth:
        Point-to-point bandwidth in bytes/second.  Gemini: ~6 GB/s effective.
    per_rank_overhead:
        Fixed software overhead charged per participating rank per collective,
        accounting for MPI stack and Python-side marshalling.
    """

    latency: float = 1.5e-6
    bandwidth: float = 6.0e9
    per_rank_overhead: float = 5.0e-6

    def __post_init__(self) -> None:
        ensure_positive(self.latency, "latency")
        ensure_positive(self.bandwidth, "bandwidth")
        if self.per_rank_overhead < 0:
            raise ValueError("per_rank_overhead must be >= 0")

    # -- point-to-point -----------------------------------------------------

    def p2p(self, nbytes: int) -> float:
        """Cost of a single point-to-point message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.latency + nbytes / self.bandwidth

    # -- collectives ----------------------------------------------------------

    def _log2p(self, nranks: int) -> float:
        return max(1.0, math.ceil(math.log2(max(nranks, 2))))

    def bcast(self, nbytes: int, nranks: int) -> float:
        """Binomial-tree broadcast of ``nbytes`` to ``nranks`` ranks."""
        self._check_ranks(nranks)
        if nranks == 1:
            return 0.0
        rounds = self._log2p(nranks)
        return rounds * self.p2p(nbytes) + self.per_rank_overhead

    def gather(self, nbytes_per_rank: int, nranks: int) -> float:
        """Gather of ``nbytes_per_rank`` from every rank to the root.

        The root receives ``(P-1) * nbytes`` in total; the binomial tree hides
        some latency but the root link is the bottleneck, so the cost is
        dominated by the root's ingest volume.
        """
        self._check_ranks(nranks)
        if nranks == 1:
            return 0.0
        total = nbytes_per_rank * (nranks - 1)
        return self._log2p(nranks) * self.latency + total / self.bandwidth + self.per_rank_overhead

    def alltoallv(self, send_matrix_bytes, nranks: int) -> float:
        """Personalised all-to-all given a ``P x P`` byte matrix.

        ``send_matrix_bytes[i][j]`` is the number of bytes rank ``i`` sends to
        rank ``j``.  The cost is bounded by the most loaded rank (its total
        send + receive volume) plus one latency per distinct partner.

        The matrix is priced in one NumPy pass — row sums give send volumes,
        column sums give receive volumes — so the pipeline's largest
        exchange, ``blue_waters_400``'s 400-rank redistribution (160,000
        matrix cells), costs about a millisecond per iteration instead of the
        fifth of a second the equivalent Python loop takes.  That loop is kept
        as the reference (``oracle_alltoallv_loop`` in
        ``tests/test_simmpi.py``); both return
        identical floats (byte counts are exact int64 sums and the per-rank
        cost expression is evaluated in the same order).
        """
        self._check_ranks(nranks)
        m = np.asarray(send_matrix_bytes)
        if m.shape != (nranks, nranks):
            raise ValueError(
                f"send matrix must have shape ({nranks}, {nranks}), got {m.shape}"
            )
        # Match the scalar path exactly: entries truncate to int, the
        # diagonal never counts, and only positive entries carry volume.
        # Masked sums instead of a mutated copy: no full-matrix copy is made
        # and the caller's matrix is never written.
        if not np.issubdtype(m.dtype, np.integer):
            m = m.astype(np.int64)  # truncate like int()
        positive = m > 0
        np.fill_diagonal(positive, False)
        send_bytes = m.sum(axis=1, where=positive, dtype=np.int64)
        recv_bytes = m.sum(axis=0, where=positive, dtype=np.int64)
        partners = positive.sum(axis=1) + positive.sum(axis=0)
        cost = partners * self.latency + (send_bytes + recv_bytes) / self.bandwidth
        worst = float(cost.max()) if nranks else 0.0
        return max(0.0, worst) + self.per_rank_overhead

    def _check_ranks(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")

    # -- convenience -----------------------------------------------------------

    @classmethod
    def blue_waters(cls) -> "NetworkCostModel":
        """Parameters approximating the Blue Waters Cray Gemini interconnect."""
        return cls(latency=1.5e-6, bandwidth=6.0e9, per_rank_overhead=5.0e-6)
