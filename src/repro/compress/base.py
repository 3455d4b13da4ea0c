"""Common compressor interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.validation import ensure_3d


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one block.

    Attributes
    ----------
    payload:
        The encoded byte string.
    original_nbytes:
        Size of the uncompressed input buffer.
    shape:
        Shape of the original array (needed for decompression).
    dtype:
        Dtype string of the original array.
    """

    payload: bytes
    original_nbytes: int
    shape: Tuple[int, int, int]
    dtype: str

    @property
    def compressed_nbytes(self) -> int:
        """Size of the encoded payload in bytes."""
        return len(self.payload)


class Compressor(abc.ABC):
    """Abstract floating-point block compressor.

    A coder turns floats into codes one way, shared by its three methods:
    :meth:`compress` encodes one block, :meth:`compressed_size_batch` gives
    the payload sizes of a stack (what the scoring metric divides by the
    original size), and :meth:`decompress` inverts :meth:`compress`.
    """

    #: Short name of the coder (e.g. ``"fpzip"``).
    name: str = "compressor"

    @abc.abstractmethod
    def compress(self, block: np.ndarray) -> CompressionResult:
        """Compress a 3-D floating-point block."""

    @abc.abstractmethod
    def decompress(self, result: CompressionResult) -> np.ndarray:
        """Reconstruct a block from a :class:`CompressionResult`."""

    @abc.abstractmethod
    def compressed_size_batch(self, batch: np.ndarray) -> np.ndarray:
        """Compressed payload sizes of a stacked ``(nblocks, sx, sy, sz)`` batch.

        Returns an int64 array such that ``compressed_size_batch(batch)[i]``
        equals ``compress(batch[i]).compressed_nbytes`` exactly, computed
        without materialising a payload where the coder can (the scoring hot
        path of the compressor-based metrics).
        """

    # -- shared validation -------------------------------------------------

    @staticmethod
    def _prepare(block: np.ndarray) -> np.ndarray:
        """Validate and normalise an input block (3-D float32/float64)."""
        arr = ensure_3d(block, "block")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("block contains non-finite values")
        return np.ascontiguousarray(arr)

    @staticmethod
    def _prepare_batch(batch: np.ndarray) -> np.ndarray:
        """Validate and normalise a stacked batch (4-D float32/float64).

        Applies the exact dtype policy of :meth:`_prepare` to the whole batch
        so that batched results match the per-block path bitwise.
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
