"""Byte-mask + LZ77 floating-point coder (lz-like), as the size it encodes to.

The paper's "LZ" scorer follows Bautista-Gomez & Cappello (2013): improve
dictionary compression of floats by first splitting them into byte planes
("binary masks") so that the slowly-varying high-order bytes form long
repetitive runs, then run a dictionary coder over the reorganised stream.

This module provides:

* :func:`lz77_compress` — a from-scratch LZ77 with a hash-chain match finder
  and a compact (literal-run, match) token format;
* :class:`LzLikeCompressor` — XOR-delta per byte plane followed by LZ77 on the
  plane-concatenated stream; a payload is a header and that token stream.

The LZ metric scores the whole block.  The byte planes of a whole batch are
built in one vectorised pass; the LZ77 token stream is sequential per block
and stays in (NumPy-assisted) Python, which makes this the costlier of the
two coders.  The encoder that writes the payload and the decoder that reads
it back (with the LZ77 decoder) are the oracle of ``tests/test_compress.py``.
"""

from __future__ import annotations

import struct
import numpy as np

from repro.compress.base import Compressor

#: The payload's header: magic, dtype code, planes, pad, nx, ny, nz, nvalues.
_HEADER = struct.Struct("<4sBBHIIIQ")

_MIN_MATCH = 4
# The match token stores ``length - MIN_MATCH + 1`` in one byte, so the
# longest representable match is MIN_MATCH + 254.
_MAX_MATCH = _MIN_MATCH + 254
_WINDOW = 1 << 14
_HASH_BITS = 15


def _hash_all(data: bytes) -> list:
    """Hashes of every 4-byte window of ``data`` in one vectorised pass.

    Entry ``pos`` hashes the little-endian 4-byte value at ``pos``;
    precomputing them removes the per-position byte assembly that used to
    dominate the compression loop.  Returned as a plain list because scalar
    list indexing is considerably faster than NumPy scalar indexing inside
    the remaining Python loop.
    """
    n = len(data)
    if n < 4:
        return []
    du = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    values = (
        du[: n - 3]
        | (du[1 : n - 2] << np.uint32(8))
        | (du[2 : n - 1] << np.uint32(16))
        | (du[3:] << np.uint32(24))
    )
    hashes = (values.astype(np.uint64) * np.uint64(2654435761)) >> np.uint64(
        32 - _HASH_BITS
    ) & np.uint64((1 << _HASH_BITS) - 1)
    return hashes.tolist()


#: Match lengths below this are cheaper to verify byte by byte than through a
#: NumPy slice comparison; both paths compute the identical greedy length.
_VECTOR_MATCH_THRESHOLD = 32


def lz77_compress(data: bytes) -> bytes:
    """Compress ``data`` with a greedy hash-chain LZ77.

    Token stream format (repeated until the input is consumed)::

        <literal_len: varint> <literal bytes>
        <match_len: 1 byte, 0 = end> <distance: 2 bytes little-endian>

    ``match_len`` stores ``length - MIN_MATCH + 1``; a value of 0 terminates
    the stream (no final match).
    """
    n = len(data)
    out = bytearray()
    head = {}  # hash -> most recent position
    pos = 0
    literal_start = 0
    hashes = _hash_all(data)
    d = np.frombuffer(data, dtype=np.uint8)

    def emit_literals(end: int) -> None:
        count = end - literal_start
        # varint literal length
        c = count
        while True:
            byte = c & 0x7F
            c >>= 7
            if c:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        out.extend(data[literal_start:end])

    while pos < n:
        match_len = 0
        match_dist = 0
        if pos + _MIN_MATCH <= n:
            h = hashes[pos]
            candidate = head.get(h)
            if candidate is not None and pos - candidate <= _WINDOW:
                # Extend the match as far as possible (greedy first mismatch).
                maxlen = min(_MAX_MATCH, n - pos)
                if maxlen >= _VECTOR_MATCH_THRESHOLD:
                    neq = d[candidate : candidate + maxlen] != d[pos : pos + maxlen]
                    first = int(np.argmax(neq))
                    length = first if neq[first] else maxlen
                else:
                    length = 0
                    while (
                        length < maxlen
                        and data[candidate + length] == data[pos + length]
                    ):
                        length += 1
                if length >= _MIN_MATCH:
                    match_len = length
                    match_dist = pos - candidate
            head[h] = pos
        if match_len:
            emit_literals(pos)
            out.append(match_len - _MIN_MATCH + 1)
            out.extend(struct.pack("<H", match_dist))
            # Insert hashes for a few positions inside the match to help later matches.
            end = pos + match_len
            step = max(1, match_len // 8)
            p = pos + 1
            while p + _MIN_MATCH <= min(end, n) :
                head[hashes[p]] = p
                p += step
            pos = end
            literal_start = pos
        else:
            pos += 1
    emit_literals(n)
    out.append(0)  # terminating match token
    out.extend(b"\x00\x00")
    return bytes(out)


class LzLikeCompressor(Compressor):
    """Byte-plane masking + LZ77 coder."""

    name = "lz"

    # -- byte-plane (binary mask) reorganisation --------------------------------

    @staticmethod
    def _to_planes_batch(arr: np.ndarray) -> list:
        """Per-block XOR-delta byte-plane streams of a 4-D batch.

        One vectorised pass builds every block's plane-concatenated stream:
        byte plane ``b`` of a block holds byte ``b`` of each of its values,
        XORed with the previous value's, so repeated values become zero runs.
        """
        nblocks = arr.shape[0]
        flat = np.ascontiguousarray(arr).reshape(nblocks, -1)
        itemsize = flat.dtype.itemsize
        nvalues = flat.shape[1]
        as_bytes = flat.view(np.uint8).reshape(nblocks, nvalues, itemsize)
        planes = np.ascontiguousarray(as_bytes.transpose(0, 2, 1))
        delta = planes.copy()
        delta[:, :, 1:] = planes[:, :, 1:] ^ planes[:, :, :-1]
        return [delta[i].tobytes() for i in range(nblocks)]

    def compressed_size_batch(self, batch: np.ndarray) -> np.ndarray:
        """Encoded sizes of a stacked batch.

        The byte-plane reorganisation (the vectorisable half of the coder) is
        done for the whole batch at once; the LZ77 token stream itself is
        inherently sequential per block, so each stream is measured with the
        NumPy-accelerated :func:`lz77_compress`.  Sizes equal the encoded
        payloads' lengths exactly.
        """
        arr = self._prepare_batch(batch)
        nblocks = arr.shape[0]
        if nblocks == 0:
            return np.zeros(0, dtype=np.int64)
        streams = self._to_planes_batch(arr)
        return np.array(
            [_HEADER.size + len(lz77_compress(s)) for s in streams], dtype=np.int64
        )
