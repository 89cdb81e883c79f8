"""Canonical Huffman codec for SZ quantization codes.

SZ applies a "customised Huffman encoding" to the stream of quantization
codes.  This module implements a canonical Huffman codec whose encoded form
carries only the (symbol, code-length) table — the actual codes are
reconstructed canonically on both sides, which keeps the header small and the
decoder deterministic.

Encoding is fully vectorised (the per-symbol bit expansion happens inside
NumPy).  Streams of at least :data:`_SYNC_MIN_COUNT` symbols also carry a
``sync`` section with the bit offset of every :data:`_SYNC_STRIDE`-th
symbol, and decode walks all those lanes in lockstep, one fast-table probe
per lane per round.  Shorter streams (and every blob written before sync
points existed) decode with a per-bit kernel that needs no side
information.  See DESIGN.md ("Vectorised Huffman decode").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
import numpy as np

from repro.utils.bitstream import pack_bits, unpack_bits
from repro.utils.bytesio import read_named_sections, write_named_sections
from repro.utils.errors import CompressionError, DecompressionError, ValidationError

__all__ = ["HuffmanCodec", "HuffmanTable"]

_FAST_BITS = 12  # size of the first-level decode table (4096 entries)
_MAX_CODE_LENGTH = 64

#: Symbols per decode lane: the encoder records the bit offset of every
#: ``_SYNC_STRIDE``-th symbol.  A lane spans at most 256 * 64 bits, so each
#: offset delta fits the section's ``<u2`` entries.
_SYNC_STRIDE = 256
#: Streams with at least this many symbols carry a ``sync`` section; below
#: it the per-bit kernel is faster than 256 lockstep rounds.
_SYNC_MIN_COUNT = 1 << 16


@dataclass(frozen=True)
class HuffmanTable:
    """Canonical Huffman table: symbols and their code lengths.

    ``symbols`` are the distinct source symbols in canonical order (sorted by
    (length, symbol)); ``lengths`` are the corresponding code lengths.
    """

    symbols: np.ndarray  # int64, canonical order
    lengths: np.ndarray  # uint8, same order

    def __post_init__(self) -> None:
        if self.symbols.shape != self.lengths.shape:
            raise ValidationError("symbols and lengths must have equal length")

    @property
    def max_length(self) -> int:
        return int(self.lengths.max()) if self.lengths.size else 0

    def codes(self) -> np.ndarray:
        """Canonical code values (uint64), aligned with :attr:`symbols`."""
        if self.symbols.size == 0:
            return np.zeros(0, dtype=np.uint64)
        codes = np.zeros(self.symbols.size, dtype=np.uint64)
        code = 0
        prev_len = int(self.lengths[0])
        for i in range(self.symbols.size):
            length = int(self.lengths[i])
            code <<= length - prev_len
            codes[i] = code
            code += 1
            prev_len = length
        return codes


def _code_lengths(symbols: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths for ``symbols`` with frequencies ``counts``."""
    n = symbols.size
    if n == 1:
        return np.array([1], dtype=np.uint8)
    # Standard heap-based Huffman; the alphabet is at most `capacity` symbols
    # (a few thousand in practice), so a Python heap is not a hot path.
    heap: list[tuple[int, int, list[int]]] = [
        (int(c), i, [i]) for i, c in enumerate(counts)
    ]
    heapq.heapify(heap)
    lengths = np.zeros(n, dtype=np.int64)
    tie = n
    while len(heap) > 1:
        c1, _, leaves1 = heapq.heappop(heap)
        c2, _, leaves2 = heapq.heappop(heap)
        merged = leaves1 + leaves2
        lengths[merged] += 1
        heapq.heappush(heap, (c1 + c2, tie, merged))
        tie += 1
    if np.any(lengths > _MAX_CODE_LENGTH):
        raise CompressionError("Huffman code length exceeds 64 bits")
    return lengths.astype(np.uint8)


def _meta_int(meta: dict, key: str) -> int:
    value = meta.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DecompressionError(f"corrupt Huffman header: {key}={value!r}")
    return value


def _read_table(symbol_bytes: bytes, length_bytes: bytes) -> HuffmanTable:
    """Parse and validate the canonical table sections."""
    if len(symbol_bytes) % 8:
        raise DecompressionError("truncated Huffman symbol table")
    symbols = np.frombuffer(symbol_bytes, dtype="<i8").astype(np.int64)
    lengths = np.frombuffer(length_bytes, dtype=np.uint8)
    if symbols.size != lengths.size or symbols.size == 0:
        raise DecompressionError("corrupt Huffman table")
    if lengths.min() < 1 or lengths.max() > _MAX_CODE_LENGTH:
        raise DecompressionError("Huffman code length outside 1..64")
    if np.any(np.diff(lengths.astype(np.int64)) < 0):
        raise DecompressionError("Huffman table is not in canonical order")
    # Kraft's inequality, exactly: sum over codes of 2^(64 - length) <= 2^64.
    per_length = np.bincount(lengths, minlength=_MAX_CODE_LENGTH + 1)
    kraft = sum(int(c) << (_MAX_CODE_LENGTH - l) for l, c in enumerate(per_length) if c)
    if kraft > 1 << _MAX_CODE_LENGTH:
        raise DecompressionError("Huffman code lengths violate Kraft's inequality")
    return HuffmanTable(symbols=symbols, lengths=lengths)


def _lane_starts(sync: bytes, count: int, stride: int, nbits: int) -> np.ndarray:
    """Bit offset of every lane's first symbol, from the ``sync`` deltas."""
    lanes = -(-count // stride)
    if len(sync) != 2 * (lanes - 1):
        raise DecompressionError(
            f"Huffman sync section holds {len(sync) // 2} offsets, expected {lanes - 1}"
        )
    starts = np.zeros(lanes, dtype=np.int64)
    np.cumsum(np.frombuffer(sync, dtype="<u2"), dtype=np.int64, out=starts[1:])
    if starts[-1] > nbits:
        raise DecompressionError("Huffman sync offset past the end of the stream")
    return starts


def _fast_table(lengths: np.ndarray, fast_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """First-level decode table indexed by the next ``fast_bits`` bits.

    Returns the canonical slot (``-1``) and code length (``0``) per index,
    where the sentinel marks a prefix of a code longer than ``fast_bits``
    (or of no code at all).  Canonical codes of length <= ``fast_bits``,
    left-aligned to ``fast_bits``, tile the table from index 0 in slot order,
    so the table is one ``repeat`` per array.
    """
    short = lengths[lengths <= fast_bits].astype(np.int64)
    spans = np.left_shift(1, fast_bits - short)
    covered = int(spans.sum())
    fast_slot = np.full(1 << fast_bits, -1, dtype=np.int32)
    fast_length = np.zeros(1 << fast_bits, dtype=np.int32)
    fast_slot[:covered] = np.repeat(np.arange(short.size, dtype=np.int32), spans)
    fast_length[:covered] = np.repeat(short.astype(np.int32), spans)
    return fast_slot, fast_length


class _LongCodes:
    """Canonical-range decode of the codes longer than the fast table.

    Left-aligned to ``max_len`` bits, the canonical codes of one length fill
    one contiguous value range, and the ranges ascend with the length.  So
    the code a ``max_len``-bit value starts with is found by one
    ``searchsorted`` over the ranges' last values; a value past the last
    range starts no code (the table is incomplete) and resolves to slot
    ``-1``, length ``0``.
    """

    def __init__(self, table: HuffmanTable, fast_bits: int) -> None:
        lengths = table.lengths.astype(np.int64)
        self.max_len = table.max_length
        self.lengths = np.unique(lengths[lengths > fast_bits])
        self.first_slot = np.searchsorted(lengths, self.lengths)
        count = np.searchsorted(lengths, self.lengths, side="right") - self.first_slot
        self.first_code = table.codes()[self.first_slot]
        self.shift = (self.max_len - self.lengths).astype(np.uint64)
        # Inclusive, so a complete 64-bit code's range end does not overflow.
        ones = (np.uint64(1) << self.shift) - np.uint64(1)
        self.last = ((self.first_code + count.astype(np.uint64) - np.uint64(1))
                     << self.shift) | ones

    def resolve(self, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slot and code length for each ``max_len``-bit ``value`` (uint64)."""
        k = np.searchsorted(self.last, value)
        valid = k < self.last.size
        k[~valid] = 0
        offset = (value >> self.shift[k]) - self.first_code[k]
        slot = np.where(valid, self.first_slot[k] + offset.astype(np.int64), -1)
        return slot, np.where(valid, self.lengths[k], 0)


class HuffmanCodec:
    """Encode / decode an integer symbol stream with canonical Huffman codes."""

    # -- encoding --------------------------------------------------------
    def encode(self, data: np.ndarray) -> bytes:
        """Encode a 1-D integer array into a self-describing byte string."""
        data = np.asarray(data)
        if data.ndim != 1:
            raise ValidationError(f"data must be 1-D, got shape {data.shape}")
        data = data.astype(np.int64, copy=False)
        n = int(data.size)
        if n == 0:
            return write_named_sections(
                {"table_symbols": b"", "table_lengths": b"", "payload": b""},
                meta={"count": 0, "nbits": 0},
            )

        symbols, inverse, counts = np.unique(
            data, return_inverse=True, return_counts=True
        )
        lengths = _code_lengths(symbols, counts)
        # Canonical ordering: by (length, symbol value).
        order = np.lexsort((symbols, lengths))
        table = HuffmanTable(symbols=symbols[order], lengths=lengths[order])
        codes = table.codes()

        # Map each input position to its canonical table slot.
        slot_of_unique = np.empty(symbols.size, dtype=np.int64)
        slot_of_unique[order] = np.arange(symbols.size)
        slots = slot_of_unique[inverse]

        code_vals = codes[slots]
        code_lens = table.lengths[slots].astype(np.int64)

        # Vectorised variable-length bit packing: expand every code to
        # `max_length` right-aligned bits, then keep only the valid ones.
        # Chunked so the intermediate (chunk x max_length) matrix stays small.
        maxw = table.max_length
        shifts = np.arange(maxw - 1, -1, -1, dtype=np.uint64)
        col = np.arange(maxw)
        chunk = 1 << 18
        pieces: list[np.ndarray] = []
        for start in range(0, n, chunk):
            vals = code_vals[start : start + chunk]
            lens = code_lens[start : start + chunk]
            bits_matrix = (vals[:, None] >> shifts[None, :]) & np.uint64(1)
            valid = col[None, :] >= (maxw - lens[:, None])
            pieces.append(bits_matrix.astype(bool)[valid])
        bits = np.concatenate(pieces) if pieces else np.zeros(0, dtype=bool)

        sections = {
            "table_symbols": table.symbols.astype("<i8").tobytes(),
            "table_lengths": table.lengths.astype(np.uint8).tobytes(),
            "payload": pack_bits(bits),
        }
        meta = {"count": n, "nbits": int(bits.size)}
        if n >= _SYNC_MIN_COUNT:
            # Bits per lane; the last lane's total is implied by `nbits`.
            lane_bits = np.add.reduceat(code_lens, np.arange(0, n, _SYNC_STRIDE))
            sections["sync"] = lane_bits[:-1].astype("<u2").tobytes()
            meta["sync_stride"] = _SYNC_STRIDE
        return write_named_sections(sections, meta=meta)

    # -- decoding --------------------------------------------------------
    def decode(self, blob: bytes) -> np.ndarray:
        """Decode a byte string produced by :meth:`encode`.

        Malformed blobs raise :class:`DecompressionError`.
        """
        meta, sections = read_named_sections(blob)
        count = _meta_int(meta, "count")
        nbits = _meta_int(meta, "nbits")
        missing = {"table_symbols", "table_lengths", "payload"} - sections.keys()
        if missing:
            raise DecompressionError(f"Huffman blob lacks sections {sorted(missing)}")
        payload = sections["payload"]
        if nbits > 8 * len(payload):
            raise DecompressionError(
                f"bitstream truncated: need {nbits} bits, have {8 * len(payload)}"
            )
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        if count > nbits:
            # Every code is at least one bit long.
            raise DecompressionError("Huffman bitstream exhausted")
        table = _read_table(sections["table_symbols"], sections["table_lengths"])
        sync = sections.get("sync")
        if sync is None:
            return self._decode_bits(unpack_bits(payload, nbits), table, count)
        stride = _meta_int(meta, "sync_stride")
        if not 1 <= stride <= 0xFFFF:
            # A lane of `stride` symbols spans at least `stride` bits, and
            # the <u2 deltas cap a lane at 0xFFFF bits.
            raise DecompressionError(f"corrupt Huffman header: sync_stride={stride}")
        starts = _lane_starts(sync, count, stride, nbits)
        return self._decode_lanes(payload, nbits, table, count, starts, stride)

    @staticmethod
    def _decode_lanes(
        payload: bytes,
        nbits: int,
        table: HuffmanTable,
        count: int,
        starts: np.ndarray,
        stride: int,
    ) -> np.ndarray:
        """Lockstep lane decode from the encoder's sync points.

        Lane ``i`` holds symbols ``[i * stride, (i + 1) * stride)`` and starts
        at bit ``starts[i]``.  Every round reads one big-endian 32-bit window
        per lane straight from the payload bytes, probes the fast table once,
        records the probe index and advances each lane by its code length; a
        miss falls back to :class:`_LongCodes` for just those lanes.  After
        ``stride`` rounds each lane must stand exactly on the next lane's
        start, and the last lane's final symbol must end within ``nbits``.
        """
        max_len = table.max_length
        fast_bits = min(_FAST_BITS, max_len)
        fast_slot, fast_length = _fast_table(table.lengths, fast_bits)

        # Zero-padded copy: the last lane walks on past its final symbol
        # for the rest of the rounds, and clearing the bits past `nbits`
        # makes that walk read only the all-zero (always valid) code.
        buf = np.zeros((nbits + (stride + 1) * max_len) // 8 + 9, dtype=np.uint8)
        used = (nbits + 7) // 8
        buf[:used] = np.frombuffer(payload, dtype=np.uint8, count=used)
        if nbits % 8:
            buf[used - 1] &= (0xFF00 >> (nbits % 8)) & 0xFF
        # words[b] = the 32 bits starting at byte b, big-endian.
        words = np.ndarray(
            (buf.size - 3,), dtype=">u4", buffer=buf, strides=(1,)
        ).astype(np.int64)
        if max_len > fast_bits:
            long_codes = _LongCodes(table, fast_bits)
            words64 = np.ndarray((buf.size - 8,), dtype=">u8", buffer=buf, strides=(1,))

        lanes = starts.size
        last_rounds = count - (lanes - 1) * stride
        # Round-major, so each round's store is contiguous; the odd row
        # length keeps the final transpose from striding by a power of two.
        index = np.empty((stride, lanes | 1), dtype=np.int64)
        pos = starts.copy()
        last_end = 0
        shift = 32 - fast_bits
        mask = (1 << fast_bits) - 1
        for r in range(stride):
            if r == last_rounds:
                last_end = int(pos[-1])
            window = words[pos >> 3]
            window <<= pos & 7
            window >>= shift
            window &= mask
            length = fast_length[window]
            if max_len > fast_bits:
                miss = np.flatnonzero(length == 0)
                if miss.size:
                    # The 64 bits at each missed lane: 8 bytes shifted left
                    # by the bit offset, topped up from the ninth byte.
                    at = pos[miss]
                    byte = at >> 3
                    bit = (at & 7).astype(np.uint64)
                    value = words64[byte].astype(np.uint64) << bit
                    value |= buf[byte + 8] >> (np.uint64(8) - bit)
                    value >>= np.uint64(64 - max_len)
                    slot, length[miss] = long_codes.resolve(value)
                    # Long codes index past the fast table; unresolved
                    # lanes keep their fast index, whose slot is -1.
                    window[miss[slot >= 0]] = fast_slot.size + slot[slot >= 0]
            index[r, :lanes] = window
            pos += length
        if last_rounds == stride:
            last_end = int(pos[-1])

        slot_of = np.concatenate([fast_slot, np.arange(table.symbols.size)])
        slots = slot_of[index[:, :lanes].T.reshape(-1)[:count]]
        if np.any(slots < 0):
            raise DecompressionError("invalid Huffman code in stream")
        if not np.array_equal(pos[:-1], starts[1:]):
            raise DecompressionError("Huffman lane does not end at the next sync point")
        if last_end > nbits:
            raise DecompressionError("Huffman bitstream overrun")
        return table.symbols[slots]

    #: Symbols decoded per anchor in the lockstep phase of :meth:`_decode_bits`.
    _CHAIN_STRIDE = 32

    @staticmethod
    def _decode_bits(bits: np.ndarray, table: HuffmanTable, count: int) -> np.ndarray:
        """Batched NumPy table-probe decode for streams without sync points.

        The decode problem is a chain walk — ``pos[i+1] = pos[i] +
        code_length_at(pos[i])``.  Without sync points the kernel:

        1. computes the value of the next ``fast_bits`` bits at *every* bit
           offset with ``fast_bits`` shifted vector adds,
        2. probes the fast table for all offsets in one gather, decoding every
           symbol whose fast-table probe hits in one vectorised round,
        3. resolves the rare offsets whose code is longer than ``fast_bits``
           with :class:`_LongCodes`, reading ``max_len`` bits at each,
        4. extracts the chain of actually-visited offsets from the jump table
           ``jump[p] = p + length[p]``: five doublings build a 32-step jump
           table, a scalar walk places one anchor per 32 symbols, and the 32
           symbols after every anchor are gathered in vectorised lockstep,
        5. gathers the output symbols at the visited offsets.

        See DESIGN.md ("Vectorised Huffman decode") for the full derivation.
        """
        symbols = table.symbols
        max_len = table.max_length

        if symbols.size == 1:
            # Degenerate single-symbol alphabet: every element is that symbol.
            return np.full(count, symbols[0], dtype=np.int64)
        if count == 0:
            return np.zeros(0, dtype=np.int64)

        nbits = int(bits.size)
        if nbits == 0:
            raise DecompressionError("Huffman bitstream exhausted")

        fast_bits = min(_FAST_BITS, max_len)
        fast_slot, fast_length = _fast_table(table.lengths, fast_bits)

        # Zero padding past the stream end; codes speculatively matched inside
        # the padding are rejected by the final overrun check.
        padded = np.zeros(nbits + max(fast_bits, max_len), dtype=np.int32)
        padded[:nbits] = bits

        # window[p] = integer value of the fast_bits bits starting at p.
        window = np.zeros(nbits, dtype=np.int32)
        for k in range(fast_bits):
            window <<= 1
            window += padded[k : k + nbits]

        slot_at = fast_slot[window]
        len_at = fast_length[window]

        if max_len > fast_bits:
            miss = np.nonzero(len_at == 0)[0]
            if miss.size:
                value = window[miss].astype(np.uint64)
                for k in range(fast_bits, max_len):
                    value <<= np.uint64(1)
                    value |= padded[miss + k].astype(np.uint64)
                slot_at[miss], len_at[miss] = _LongCodes(table, fast_bits).resolve(value)
        del window

        # Jump table: jump[p] = p + len_at[p]; offsets carrying no valid code
        # jump straight to the absorbing `nbits` sentinel.  int32 positions
        # halve gather traffic; fall back to int64 near the int32 limit.
        pos_dtype = np.int32 if nbits < 2**31 - 128 else np.int64
        jump = np.empty(nbits + 1, dtype=pos_dtype)
        jump[nbits] = nbits
        body = np.arange(nbits, dtype=pos_dtype)
        body += len_at
        np.minimum(body, nbits, out=body)
        jump[:nbits] = np.where(len_at > 0, body, body.dtype.type(nbits))
        del body

        # Chain extraction: five doublings build a 32-step jump table, a
        # scalar walk drops one anchor every 32 symbols, and the lockstep
        # phase advances all anchors together one symbol per round.
        stride = HuffmanCodec._CHAIN_STRIDE
        n_anchor = (count + stride - 1) // stride
        anchors = np.zeros(n_anchor, dtype=pos_dtype)
        if n_anchor > 1:
            doublings = max(1, (stride - 1).bit_length())
            # Each doubling squares the step count, so anchors land exactly
            # one lane row apart only when the stride is a power of two.
            assert (1 << doublings) == stride, "_CHAIN_STRIDE must be a power of two"
            hop = jump
            for _ in range(doublings):
                hop = hop[hop]
            a = pos_dtype(0)
            for i in range(1, n_anchor):
                a = hop[a]
                anchors[i] = a
        lanes = np.empty((n_anchor, stride), dtype=pos_dtype)
        p = anchors
        for r in range(stride):
            lanes[:, r] = p
            p = jump[p]
        positions = lanes.reshape(-1)[:count]

        last = int(positions[-1])
        if last >= nbits:
            # The chain ran off the end: either the stream is short or it hit
            # an offset with no valid code and stuck at the sentinel.
            reached = positions[positions < nbits]
            if reached.size and np.any(slot_at[reached] < 0):
                raise DecompressionError("invalid Huffman code in stream")
            raise DecompressionError("Huffman bitstream exhausted")
        slots = slot_at[positions]
        if np.any(slots < 0):
            raise DecompressionError("invalid Huffman code in stream")
        if last + int(len_at[last]) > nbits:
            raise DecompressionError("Huffman bitstream overrun")
        return symbols[slots]

    @staticmethod
    def _decode_bits_reference(
        bits: np.ndarray, table: HuffmanTable, count: int
    ) -> np.ndarray:
        """Scalar reference decoder (the pre-vectorisation algorithm).

        Kept for differential testing of :meth:`_decode_bits` and
        :meth:`_decode_lanes`; not used on the decode hot path.
        """
        codes = table.codes()
        lengths = table.lengths.astype(np.int64)
        symbols = table.symbols
        if symbols.size == 1:
            return np.full(count, symbols[0], dtype=np.int64)
        by_code: dict[tuple[int, int], int] = {
            (int(lengths[i]), int(codes[i])): int(symbols[i])
            for i in range(symbols.size)
        }
        out = np.empty(count, dtype=np.int64)
        bit_list = bits.astype(np.uint8).tolist()
        nbits = len(bit_list)
        pos = 0
        for i in range(count):
            if pos >= nbits:
                raise DecompressionError("Huffman bitstream exhausted")
            prefix = 0
            length = 0
            while True:
                length += 1
                if length > 64 or pos + length > nbits:
                    raise DecompressionError("invalid Huffman code in stream")
                prefix = (prefix << 1) | bit_list[pos + length - 1]
                sym = by_code.get((length, prefix))
                if sym is not None:
                    out[i] = sym
                    pos += length
                    break
        if pos > nbits:
            raise DecompressionError("Huffman bitstream overrun")
        return out
