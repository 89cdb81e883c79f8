"""Tests for the canonical Huffman codec."""

import hashlib

import numpy as np
import pytest

from repro.sz import huffman
from repro.sz.huffman import HuffmanCodec, HuffmanTable
from repro.utils.bitstream import unpack_bits
from repro.utils.bytesio import read_named_sections, write_named_sections
from repro.utils.errors import DecompressionError, ReproError, ValidationError

THRESHOLD = huffman._SYNC_MIN_COUNT
STRIDE = huffman._SYNC_STRIDE
# Digest of a (THRESHOLD - 1)-symbol stream encoded before sync points existed.
BELOW_THRESHOLD_SHA256 = "a44ed185b5a6c4d5206f7d949b123e575392e397fc4bd19c8c47d7b32f20215e"


def _table_and_bits(blob):
    meta, sections = read_named_sections(blob)
    symbols = np.frombuffer(sections["table_symbols"], dtype="<i8").astype(np.int64)
    lengths = np.frombuffer(sections["table_lengths"], dtype=np.uint8)
    table = HuffmanTable(symbols=symbols, lengths=lengths)
    return table, unpack_bits(sections["payload"], int(meta["nbits"]))


def _strip_sync(blob):
    meta, sections = read_named_sections(blob)
    del sections["sync"], meta["sync_stride"]
    return write_named_sections(sections, meta=meta)


@pytest.fixture()
def codec():
    return HuffmanCodec()


class TestHuffmanRoundtrip:
    def test_simple_roundtrip(self, codec):
        data = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_empty_array(self, codec):
        out = codec.decode(codec.encode(np.zeros(0, dtype=np.int64)))
        assert out.size == 0

    def test_single_element(self, codec):
        data = np.array([42], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_single_symbol_alphabet(self, codec):
        data = np.full(1000, -7, dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_two_symbols(self, codec):
        data = np.array([5, -5] * 100, dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_negative_symbols(self, codec):
        data = np.array([-1000, -1, 0, 1, 1000, -1000, -1000], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_geometric_distribution(self, codec, rng):
        data = rng.geometric(0.3, size=20_000).astype(np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_uniform_large_alphabet(self, codec, rng):
        data = rng.integers(-500, 500, size=10_000).astype(np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_skewed_quantization_like_distribution(self, codec, rng):
        # Mimics SZ residual codes: overwhelmingly near zero with a long tail.
        data = np.rint(rng.normal(0, 2.0, size=50_000)).astype(np.int64)
        data[rng.random(50_000) < 0.001] = 5000
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_rejects_2d_input(self, codec):
        with pytest.raises(ValidationError):
            codec.encode(np.zeros((2, 2), dtype=np.int64))


class TestHuffmanCompression:
    def test_skewed_data_compresses_well(self, codec, rng):
        data = np.rint(rng.normal(0, 1.0, size=100_000)).astype(np.int64)
        encoded = codec.encode(data)
        # ~2-3 bits/symbol vs 64-bit raw storage; even vs 8-bit it should win.
        assert len(encoded) < data.size

    def test_uniform_data_close_to_entropy(self, codec, rng):
        data = rng.integers(0, 16, size=50_000).astype(np.int64)
        encoded = codec.encode(data)
        bits_per_symbol = 8 * len(encoded) / data.size
        assert bits_per_symbol < 4.6  # entropy is 4 bits; allow table overhead


class TestHuffmanCorruption:
    def test_truncated_payload_raises(self, codec, rng):
        data = rng.integers(0, 50, size=1000).astype(np.int64)
        encoded = codec.encode(data)
        with pytest.raises(DecompressionError):
            codec.decode(encoded[: len(encoded) // 2])

    def test_corrupt_payload_never_returns_original(self, codec):
        data = np.arange(100, dtype=np.int64)
        encoded = bytearray(codec.encode(data))
        # Zero out a chunk in the middle of the blob (hits table or payload).
        encoded[len(encoded) // 2 : len(encoded) // 2 + 8] = b"\x00" * 8
        try:
            out = codec.decode(bytes(encoded))
        except DecompressionError:
            return  # detected corruption: acceptable outcome
        # Decoding "succeeded": the corruption must at least be visible.
        assert not np.array_equal(out, data)


class TestHuffmanTable:
    def test_canonical_codes_are_prefix_free(self):
        table = HuffmanTable(
            symbols=np.array([10, 20, 30, 40]), lengths=np.array([1, 2, 3, 3], dtype=np.uint8)
        )
        codes = table.codes()
        rendered = [
            format(int(c), f"0{int(l)}b") for c, l in zip(codes, table.lengths)
        ]
        for i, a in enumerate(rendered):
            for j, b in enumerate(rendered):
                if i != j:
                    assert not b.startswith(a)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValidationError):
            HuffmanTable(symbols=np.array([1, 2]), lengths=np.array([1], dtype=np.uint8))


class TestVectorizedDecodeKernel:
    """Differential tests: the batched decode kernel vs the scalar reference."""

    def _round_trip_both(self, codec, data):
        table, bits = _table_and_bits(codec.encode(data))
        fast = HuffmanCodec._decode_bits(bits, table, data.size)
        slow = HuffmanCodec._decode_bits_reference(bits, table, data.size)
        np.testing.assert_array_equal(fast, slow)
        np.testing.assert_array_equal(fast, data)

    def test_matches_reference_geometricish(self, codec, rng):
        data = np.rint(rng.standard_normal(20_000) * 2).astype(np.int64)
        self._round_trip_both(codec, data)

    def test_matches_reference_long_tail(self, codec, rng):
        # A wide alphabet pushes many codes past the fast-table width, so the
        # canonical-range slow path is exercised heavily.
        data = np.concatenate(
            [np.zeros(30_000, dtype=np.int64), rng.integers(-30_000, 30_000, 15_000)]
        )
        rng.shuffle(data)
        self._round_trip_both(codec, data)

    def test_matches_reference_uniform_alphabet(self, codec, rng):
        data = rng.integers(0, 5000, size=25_000).astype(np.int64)
        self._round_trip_both(codec, data)

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 1000])
    def test_chain_stride_boundaries(self, codec, rng, n):
        # Sizes around the lockstep stride (32) hit the anchor-walk edges.
        data = rng.integers(-40, 40, size=n).astype(np.int64)
        self._round_trip_both(codec, data)

    def test_two_symbol_alphabet(self, codec):
        data = np.tile(np.array([7, -7], dtype=np.int64), 500)
        self._round_trip_both(codec, data)

    def test_truncated_bitstream_raises(self, codec, rng):
        data = rng.integers(0, 200, size=5000).astype(np.int64)
        blob = codec.encode(data)
        meta, sections = read_named_sections(blob)
        sections["payload"] = sections["payload"][: len(sections["payload"]) // 2]
        meta["nbits"] = len(sections["payload"]) * 8
        with pytest.raises(DecompressionError):
            codec.decode(write_named_sections(sections, meta=meta))


class TestSyncLanes:
    """The lockstep lane kernel (streams with a ``sync`` section) vs the
    scalar reference, and the section's layout."""

    @staticmethod
    def _check(codec, data):
        blob = codec.encode(data)
        assert ("sync" in read_named_sections(blob)[1]) == (data.size >= THRESHOLD)
        table, bits = _table_and_bits(blob)
        reference = HuffmanCodec._decode_bits_reference(bits, table, data.size)
        np.testing.assert_array_equal(reference, data)
        np.testing.assert_array_equal(codec.decode(blob), reference)
        return blob

    def test_codes_wider_than_fast_table(self, codec, rng):
        data = np.concatenate(
            [np.zeros(THRESHOLD, dtype=np.int64), rng.integers(-30_000, 30_000, 9_000)]
        )
        rng.shuffle(data)
        table, _ = _table_and_bits(self._check(codec, data))
        assert table.max_length > huffman._FAST_BITS

    def test_single_symbol_alphabet(self, codec):
        self._check(codec, np.full(THRESHOLD + 5, -3, dtype=np.int64))

    @pytest.mark.parametrize(
        "n", [THRESHOLD - 1, THRESHOLD, 300 * STRIDE, 300 * STRIDE + 1]
    )
    def test_counts_around_threshold_and_stride(self, codec, rng, n):
        self._check(codec, rng.integers(-40, 40, size=n).astype(np.int64))

    def test_sync_section_holds_bits_per_lane(self, codec, rng):
        data = np.rint(rng.standard_normal(THRESHOLD + 300) * 3).astype(np.int64)
        blob = codec.encode(data)
        meta, sections = read_named_sections(blob)
        assert meta["sync_stride"] == STRIDE
        table, _ = _table_and_bits(blob)
        length_of = dict(zip(table.symbols.tolist(), table.lengths.tolist()))
        code_bits = np.array([length_of[v] for v in data.tolist()])
        lane_bits = np.add.reduceat(code_bits, np.arange(0, data.size, STRIDE))
        deltas = np.frombuffer(sections["sync"], dtype="<u2")
        np.testing.assert_array_equal(deltas, lane_bits[:-1])

    def test_stripped_sync_decodes_through_legacy_kernel(self, codec, rng):
        data = np.rint(rng.standard_normal(THRESHOLD + 999) * 5).astype(np.int64)
        blob = codec.encode(data)
        np.testing.assert_array_equal(codec.decode(_strip_sync(blob)), codec.decode(blob))

    def test_streams_below_threshold_keep_their_bytes(self, codec):
        rng = np.random.default_rng(11)
        data = np.rint(rng.standard_normal(THRESHOLD - 1) * 3).astype(np.int64)
        digest = hashlib.sha256(codec.encode(data)).hexdigest()
        assert digest == BELOW_THRESHOLD_SHA256


def _blob_parts(n, seed=3):
    rng = np.random.default_rng(seed)
    data = np.rint(rng.standard_normal(n) * 4).astype(np.int64)
    return read_named_sections(HuffmanCodec().encode(data))


def _set_lengths(lengths):
    def edit(meta, sections):
        sections["table_lengths"] = np.asarray(lengths, dtype=np.uint8).tobytes()
        sections["table_symbols"] = np.arange(len(lengths), dtype="<i8").tobytes()

    return edit


def _edit_sync(edit_deltas):
    def edit(meta, sections):
        deltas = np.frombuffer(sections["sync"], dtype="<u2").copy()
        sections["sync"] = edit_deltas(deltas).astype("<u2").tobytes()

    return edit


def _last_lane_overruns(meta, sections):
    # Keep the payload; the last lane's symbols now end past `nbits`.
    meta["nbits"] -= 1


MALFORMED = {
    "negative count": lambda m, s: m.update(count=-1),
    "non-integer count": lambda m, s: m.update(count=1.5),
    "string count": lambda m, s: m.update(count="7"),
    "missing count": lambda m, s: m.pop("count"),
    "negative nbits": lambda m, s: m.update(nbits=-8),
    "nbits past the payload": lambda m, s: m.update(nbits=8 * len(s["payload"]) + 1),
    "count above nbits": lambda m, s: m.update(count=m["nbits"] + 1),
    "truncated table_symbols": lambda m, s: s.update(table_symbols=s["table_symbols"][:-3]),
    "missing payload": lambda m, s: s.pop("payload"),
    "missing table_lengths": lambda m, s: s.pop("table_lengths"),
    "zero code length": _set_lengths([0, 1, 2, 2]),
    "code longer than 64 bits": _set_lengths([1, 2, 3, 200]),
    "lengths out of canonical order": _set_lengths([3, 3, 2, 1]),
    "64-bit codes past the int64 range": _set_lengths([1] + [64] * 40),
    "Kraft inequality violated": _set_lengths([1, 1, 1]),
}

MALFORMED_SYNC = {
    "sync one offset short": lambda m, s: s.update(sync=s["sync"][:-2]),
    "sync odd length": lambda m, s: s.update(sync=s["sync"][:-1]),
    "lane misses the next offset": _edit_sync(lambda d: d + (np.arange(d.size) == 5)),
    "sync offsets past nbits": _edit_sync(lambda d: np.full_like(d, 0xFFFF)),
    "last lane overruns nbits": _last_lane_overruns,
    "missing sync_stride": lambda m, s: m.pop("sync_stride"),
    "zero sync_stride": lambda m, s: m.update(sync_stride=0),
    "other sync_stride": lambda m, s: m.update(sync_stride=128),
}


class TestMalformedBlobs:
    """Malformed blobs raise DecompressionError and nothing else."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_header_or_table(self, codec, case):
        meta, sections = _blob_parts(5_000)
        MALFORMED[case](meta, sections)
        with pytest.raises(DecompressionError):
            codec.decode(write_named_sections(sections, meta=meta))

    @pytest.mark.parametrize("case", sorted(MALFORMED_SYNC))
    def test_malformed_sync_section(self, codec, case):
        meta, sections = _blob_parts(THRESHOLD + 1_000)
        MALFORMED_SYNC[case](meta, sections)
        with pytest.raises(DecompressionError):
            codec.decode(write_named_sections(sections, meta=meta))

    @pytest.mark.parametrize("n", [3_000, THRESHOLD + 700])
    def test_byte_flips_raise_only_repro_errors(self, codec, n):
        rng = np.random.default_rng(n)
        data = np.rint(rng.standard_normal(n) * 4).astype(np.int64)
        blob = codec.encode(data)
        # Header frame and the two table sections: where parsing is stressed.
        head = 8 + int.from_bytes(blob[:8], "little") + 9 * 64
        for trial in range(300):
            corrupt = bytearray(blob)
            span = head if trial % 2 else len(blob)
            at = int(rng.integers(0, min(span, len(blob))))
            corrupt[at] ^= 1 << int(rng.integers(0, 8))
            try:
                codec.decode(bytes(corrupt))
            except ReproError:
                pass
