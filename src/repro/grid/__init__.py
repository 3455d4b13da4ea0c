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
from repro.grid.block import (
    Block,
    BlockExtent,
    REDUCTION_LEVELS,
    axis_sample_indices,
    level_shape,
)
from repro.grid.batch import (
    BlockColumns,
    DecomposedField,
    group_positions_by_shape,
)
from repro.grid.shm import (
    SharedBatchError,
    SharedBlockBatch,
    ShmBatchHandle,
    live_owned_segments,
)
from repro.grid.domain import Domain, Subdomain
from repro.grid.decomposition import (
    CartesianDecomposition,
    factorize_ranks,
    split_axis,
)
from repro.grid.reduction import (
    reduce_to_corners,
    reduce_to_corners_batch,
    reduce_to_level,
    reduce_to_level_batch,
    reduction_error_batch,
    expand_from_corners,
    expand_from_level,
    expand_from_level_batch,
    reduce_block,
    trilinear_sample,
)

__all__ = [
    "RectilinearGrid",
    "Block",
    "BlockExtent",
    "REDUCTION_LEVELS",
    "axis_sample_indices",
    "level_shape",
    "BlockColumns",
    "DecomposedField",
    "group_positions_by_shape",
    "SharedBatchError",
    "SharedBlockBatch",
    "ShmBatchHandle",
    "live_owned_segments",
    "Domain",
    "Subdomain",
    "CartesianDecomposition",
    "factorize_ranks",
    "split_axis",
    "reduce_to_corners",
    "reduce_to_corners_batch",
    "reduce_to_level",
    "reduce_to_level_batch",
    "reduction_error_batch",
    "expand_from_corners",
    "expand_from_level",
    "expand_from_level_batch",
    "reduce_block",
    "trilinear_sample",
]
