"""Rectilinear grids, domain decomposition, and data blocks.

The vocabulary follows Section IV-A of the paper:

* the **domain** is the full 3-D array produced by the simulation at one
  iteration;
* a **subdomain** is the subarray handled by one process;
* a **block** is a subarray of a subdomain.  The number of blocks per
  subdomain and the size of every block are constant across processes.

:mod:`repro.grid.batch` adds the two structure-of-arrays layouts the pipeline
runs on: :class:`DecomposedField`, one snapshot as ``decompose`` hands it over
(pre-stacked), and :class:`BlockColumns`, one iteration's blocks as metadata
columns plus stacked payload groups (the state the batched pipeline steps run
on).
"""

from repro.grid.rectilinear import RectilinearGrid
from repro.grid.block import Block, axis_sample_indices
from repro.grid.batch import BlockColumns, DecomposedField
from repro.grid.domain import Domain
from repro.grid.decomposition import CartesianDecomposition, factorize_ranks
from repro.grid.reduction import (
    reduce_block,
    reduce_to_level_batch,
    reduction_error_batch,
)

__all__ = [
    "RectilinearGrid",
    "Block",
    "axis_sample_indices",
    "BlockColumns",
    "DecomposedField",
    "Domain",
    "CartesianDecomposition",
    "factorize_ranks",
    "reduce_to_level_batch",
    "reduction_error_batch",
    "reduce_block",
]
