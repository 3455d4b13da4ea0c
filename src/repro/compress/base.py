"""Common compressor interface."""

from __future__ import annotations

import abc

import numpy as np


class Compressor(abc.ABC):
    """Abstract floating-point block coder, as the size it encodes a block to.

    A scoring metric reads nothing of a payload but its length, so a coder is
    :meth:`compressed_size_batch` alone.  Its encoder and decoder, the payload
    format the sizes count, are the oracle of ``tests/test_compress.py``.
    """

    #: Short name of the coder (e.g. ``"fpzip"``).
    name: str = "compressor"

    @abc.abstractmethod
    def compressed_size_batch(self, batch: np.ndarray) -> np.ndarray:
        """Compressed payload sizes of a stacked ``(nblocks, sx, sy, sz)`` batch.

        Returns an int64 array whose entry ``i`` is the exact length of the
        payload the coder's encoder writes for ``batch[i]``, computed without
        materialising it (the scoring hot path of the compressor-based
        metrics).
        """

    @staticmethod
    def _prepare_batch(batch: np.ndarray) -> np.ndarray:
        """Validate and normalise a stacked batch (4-D float32/float64).

        Anything but float32/float64 is promoted (non-floating to float32,
        other floats to float64), and a non-finite value anywhere refuses the
        whole batch.
        """
        arr = np.asarray(batch)
        if arr.ndim != 4:
            raise ValueError(
                f"batch must be 4-D (nblocks, sx, sy, sz), got shape {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("batch contains non-finite values")
        return np.ascontiguousarray(arr)
