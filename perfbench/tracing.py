"""Traced-run mode: spans recorded around each layer's public entry points.

The program carries no tracing of its own for this; :func:`instrument`
replaces, from outside, the entry points each ``repro`` layer exposes
(a method on its class, or the name a caller module imported) with a
wrapper that records a span.  A span is ``(name, start, end, parent, op)``:
spans nest per thread, and every span opened while the harness runs an
operation carries that operation's id.

A layer's self time is its span's duration minus its child spans, so the
self times of one operation add up to at most its wall time; the rest is
``unattributed_ms``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Span record fields (a list per span keeps recording cheap).
NAME, START, END, PARENT, OP, CHILD_S, COUNT = range(7)


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.op: Optional[int] = None
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.op, 0.0, 0]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span[PARENT] is not None:
            span[PARENT][CHILD_S] += span[END] - span[START]
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``count(result)`` records the work done."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                span[COUNT] = count(result)
            return result

        return traced

    # -- instrumentation ---------------------------------------------------
    def patch(self, owner, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstrument(self) -> None:
        while self._restore:
            self._restore.pop()()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start/end (s), parent and op ids."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span[NAME],
                            "start": round(span[START], 7),
                            "end": round(span[END], 7),
                            "parent": index.get(id(parent)) if parent is not None else None,
                            "op": span[OP],
                        }
                    )
                    + "\n"
                )


def _traced_lossless_lookup(tracer: Tracer, get_backend: Callable) -> Callable:
    """``repro.sz.compressor.get_backend`` whose backends decode in a span."""
    cache: Dict[str, object] = {}

    def lookup(name):
        backend = get_backend(name)
        wrapped = cache.get(backend.name)
        if wrapped is None:
            wrapped = dataclasses.replace(
                backend, decompress=tracer.wrap("sz.lossless", backend.decompress)
            )
            cache[backend.name] = wrapped
        return wrapped

    return lookup


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every ``repro`` layer."""
    import repro.core.assessment as assessment
    import repro.core.decoder as decoder
    import repro.core.pipeline as pipeline
    import repro.sz.compressor as compressor
    from repro.codecs.builtin import LosslessByteCodec
    from repro.core import DeepSZDecoder, DeepSZEncoder
    from repro.nn.network import Network
    from repro.serve import ArchiveMLP
    from repro.store.archive import ModelArchive
    from repro.sz.huffman import HuffmanCodec
    from repro.sz.quantizer import LinearQuantizer

    tracer.patch(pipeline, "assess_network", "core.assessment",
                 count=lambda result: result.tests_performed)
    tracer.patch(pipeline, "optimize_error_bounds", "core.optimizer")
    tracer.patch(DeepSZEncoder, "encode", "core.encoder")
    tracer.patch(DeepSZDecoder, "apply", "core.decoder")
    tracer.patch(compressor.SZCompressor, "compress", "sz.compress")
    tracer.patch(compressor.SZCompressor, "decompress", "sz.decompress")
    original_lookup = compressor.get_backend
    compressor.get_backend = _traced_lossless_lookup(tracer, original_lookup)
    tracer._restore.append(lambda: setattr(compressor, "get_backend", original_lookup))
    tracer.patch(LosslessByteCodec, "decompress", "sz.lossless")
    tracer.patch(HuffmanCodec, "decode", "sz.huffman", count=len)
    tracer.patch(compressor, "adaptive_decode", "sz.predictor")
    tracer.patch(compressor, "lorenzo_decode", "sz.predictor")
    tracer.patch(LinearQuantizer, "dequantize", "sz.dequantize")
    tracer.patch(ModelArchive, "from_bytes", "store.archive.open")
    tracer.patch(ModelArchive, "read_layer", "store.archive.read")
    tracer.patch(decoder, "decode_sparse", "pruning.build")
    tracer.patch(assessment, "decode_sparse", "pruning.build")
    tracer.patch(ArchiveMLP, "forward", "nn.forward")
    tracer.patch(Network, "evaluate", "nn.evaluate")


# ---------------------------------------------------------------------------
# per-layer metrics of a closed-loop run


def op_breakdown(tracer: Tracer, op_wall_s: Dict[int, float]) -> Dict[str, float]:
    """Per-op means of each layer's inclusive and self time, plus counts.

    ``op_wall_s`` maps each traced op id to its wall time.
    ``unattributed_ms`` is the op's wall time left after every layer's self
    time; ``min_unattributed_ms`` is its smallest value over the ops, which
    is negative only when spans double count.
    """
    inclusive: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, int] = defaultdict(int)
    per_op_self: Dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        op = span[OP]
        if op not in op_wall_s:
            continue
        duration = span[END] - span[START]
        own = duration - span[CHILD_S]
        if span[PARENT] is None or span[PARENT][NAME] != span[NAME]:
            inclusive[span[NAME]] += duration
        self_s[span[NAME]] += own
        calls[span[NAME]] += 1
        counts[span[NAME]] += span[COUNT]
        per_op_self[op] += own
    ops = max(len(op_wall_s), 1)
    unattributed = [op_wall_s[op] - per_op_self.get(op, 0.0) for op in op_wall_s]
    return {
        "inclusive_ms": {k: v * 1e3 / ops for k, v in inclusive.items()},
        "self_ms": {k: v * 1e3 / ops for k, v in self_s.items()},
        "calls": {k: v / ops for k, v in calls.items()},
        "counts": {k: v / ops for k, v in counts.items()},
        "unattributed_ms": sum(unattributed) * 1e3 / ops,
        "min_unattributed_ms": min(unattributed) * 1e3 if unattributed else 0.0,
    }
