"""Tests for repro.utils.bytesio (framing and named sections)."""

import io

import pytest

from repro.utils import read_frame, read_named_sections, write_frame, write_named_sections
from repro.utils.errors import DecompressionError, ValidationError


class TestFrames:
    def test_roundtrip(self):
        buf = io.BytesIO()
        n = write_frame(buf, b"hello")
        assert n == 8 + 5
        buf.seek(0)
        assert read_frame(buf) == b"hello"

    def test_empty_payload(self):
        buf = io.BytesIO()
        write_frame(buf, b"")
        buf.seek(0)
        assert read_frame(buf) == b""

    def test_multiple_frames_sequential(self):
        buf = io.BytesIO()
        write_frame(buf, b"one")
        write_frame(buf, b"two")
        buf.seek(0)
        assert read_frame(buf) == b"one"
        assert read_frame(buf) == b"two"

    def test_truncated_header_raises(self):
        with pytest.raises(DecompressionError):
            read_frame(io.BytesIO(b"\x01\x00"))

    def test_truncated_payload_raises(self):
        buf = io.BytesIO()
        write_frame(buf, b"abcdef")
        data = buf.getvalue()[:-2]
        with pytest.raises(DecompressionError):
            read_frame(io.BytesIO(data))

    def test_non_bytes_payload_raises(self):
        with pytest.raises(ValidationError):
            write_frame(io.BytesIO(), "not-bytes")  # type: ignore[arg-type]


class TestNamedSections:
    def test_roundtrip_with_meta(self):
        blob = write_named_sections(
            {"a": b"xxx", "b": b"yy"}, meta={"answer": 42, "name": "deepsz"}
        )
        meta, sections = read_named_sections(blob)
        assert meta == {"answer": 42, "name": "deepsz"}
        assert sections == {"a": b"xxx", "b": b"yy"}

    def test_roundtrip_empty(self):
        meta, sections = read_named_sections(write_named_sections({}))
        assert meta == {}
        assert sections == {}

    def test_section_order_preserved(self):
        blob = write_named_sections({"z": b"1", "a": b"2", "m": b"3"})
        _, sections = read_named_sections(blob)
        assert list(sections) == ["z", "a", "m"]

    def test_binary_safe_payloads(self):
        payload = bytes(range(256)) * 3
        _, sections = read_named_sections(write_named_sections({"bin": payload}))
        assert sections["bin"] == payload

    def test_truncated_section_raises(self):
        blob = write_named_sections({"a": b"0123456789"})
        with pytest.raises(DecompressionError):
            read_named_sections(blob[:-4])

    def test_corrupt_header_raises(self):
        blob = write_named_sections({"a": b"abc"})
        corrupted = blob[:8] + b"\xff" * 10 + blob[18:]
        with pytest.raises(DecompressionError):
            read_named_sections(corrupted)

    @pytest.mark.parametrize(
        "header",
        [
            b"[]",
            b'{"meta": [], "sections": []}',
            b'{"meta": {}, "sections": {"a": 3}}',
            b'{"meta": {}, "sections": [["a", -1]]}',
            b'{"meta": {}, "sections": [["a", 1.5]]}',
            b'{"meta": {}, "sections": [[7, 3]]}',
            b'{"meta": {}, "sections": [["a"]]}',
        ],
    )
    def test_well_formed_json_with_a_bad_shape_raises(self, header):
        buf = io.BytesIO()
        write_frame(buf, header)
        with pytest.raises(DecompressionError):
            read_named_sections(buf.getvalue() + b"abc")

    def test_non_bytes_section_raises(self):
        with pytest.raises(ValidationError):
            write_named_sections({"a": 123})  # type: ignore[dict-item]
