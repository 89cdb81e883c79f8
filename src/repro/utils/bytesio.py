"""Framed binary container helpers.

Every serialised artifact in this repository (SZ streams, ZFP streams,
compressed-model containers, pruned-layer codecs) is built from the same two
primitives:

* a *frame*: a 4-byte little-endian length prefix followed by that many bytes;
* a *named section table*: a frame holding a UTF-8 JSON header that maps
  section names to lengths, followed by the section payloads in order.

Keeping the framing in one place means every format gets consistent
truncation / corruption detection for free.
"""

from __future__ import annotations

import io
import json
import struct
from typing import Mapping

from repro.utils.errors import DecompressionError, ValidationError

__all__ = [
    "write_frame",
    "read_frame",
    "write_named_sections",
    "read_named_sections",
]

_LEN = struct.Struct("<Q")


def write_frame(stream: io.BufferedIOBase, payload: bytes) -> int:
    """Write a length-prefixed frame; returns the number of bytes written."""
    if not isinstance(payload, (bytes, bytearray, memoryview)):
        raise ValidationError("frame payload must be bytes-like")
    header = _LEN.pack(len(payload))
    stream.write(header)
    stream.write(payload)
    return len(header) + len(payload)


def read_frame(stream: io.BufferedIOBase) -> bytes:
    """Read a frame written by :func:`write_frame`."""
    header = stream.read(_LEN.size)
    if len(header) != _LEN.size:
        raise DecompressionError("truncated frame header")
    (length,) = _LEN.unpack(header)
    payload = stream.read(length)
    if len(payload) != length:
        raise DecompressionError(
            f"truncated frame payload: expected {length} bytes, got {len(payload)}"
        )
    return payload


def write_named_sections(sections: Mapping[str, bytes], *, meta: dict | None = None) -> bytes:
    """Serialise named byte sections (plus an optional JSON metadata dict)."""
    for name, blob in sections.items():
        if not isinstance(blob, (bytes, bytearray, memoryview)):
            raise ValidationError(f"section {name!r} payload must be bytes-like")
    header = {
        "meta": meta or {},
        "sections": [[name, len(blob)] for name, blob in sections.items()],
    }
    buf = io.BytesIO()
    write_frame(buf, json.dumps(header, sort_keys=True).encode("utf-8"))
    for _, blob in sections.items():
        buf.write(bytes(blob))
    return buf.getvalue()


def read_named_sections(data: bytes) -> tuple[dict, dict[str, bytes]]:
    """Inverse of :func:`write_named_sections`; returns ``(meta, sections)``."""
    buf = io.BytesIO(data)
    try:
        header = json.loads(read_frame(buf).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecompressionError(f"corrupt section header: {exc}") from exc
    if not isinstance(header, dict):
        raise DecompressionError("corrupt section header: not an object")
    meta = header.get("meta", {})
    entries = header.get("sections", [])
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise DecompressionError("corrupt section header: bad meta or section list")
    sections: dict[str, bytes] = {}
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], int)
            and entry[1] >= 0
        ):
            raise DecompressionError(f"corrupt section table entry {entry!r}")
        name, length = entry
        blob = buf.read(length)
        if len(blob) != length:
            raise DecompressionError(f"truncated section {name!r}")
        sections[name] = blob
    return meta, sections
