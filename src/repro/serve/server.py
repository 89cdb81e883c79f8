"""Batched inference front-end over cached decoded weights.

The :class:`Server` completes the paper's edge scenario: after the archive
arrives and the :class:`~repro.serve.runtime.ModelRuntime` decodes the fc
layers on demand, something must actually answer inference requests.  The
server accepts single-sample requests from any number of client threads
and runs the replica batching loop of :mod:`repro.serve.batching` on one
thread over a ``SimpleQueue``: a batch closes when it is full *or* when
``max_batch_delay`` has passed since its first request was submitted, one
forward pass answers it, and each request's future resolves with its
probability row.

The forward pass is whatever the network's fc layers are running: dense
BLAS matmuls, or — when the weights were installed from a sparse-mode
:class:`~repro.serve.runtime.ModelRuntime` — compressed-domain CSC matmuls
that exploit the pruned layers' ~10% density batch after batch.

Per-request latency (submit to result) and batch sizes are recorded in a
bounded :class:`~repro.obs.metrics.Histogram` (log-scale buckets plus a
seeded reservoir — flat memory under sustained load, unlike the unbounded
lists it replaced), and :meth:`Server.stats` reports throughput plus
latency percentiles — the numbers ``python -m repro serve-bench`` and
``benchmarks/bench_serving.py`` publish.

Requests submitted with a live trace span (see :mod:`repro.obs.trace`) get
``replica.queue`` / ``replica.batch`` / ``replica.forward`` child spans,
plus one ``replica.decode`` span per decode-on-demand weight fetch the
forward pass triggered, exported through the span's tracer; untraced
requests pay only a ``None`` check.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.lint.lockcheck import make_lock
from repro.obs.metrics import Histogram
from repro.obs.trace import Span
from repro.serve.batching import Batch, Request, serve_batches, settle
from repro.serve.runtime import ModelRuntime
from repro.utils.errors import ValidationError

__all__ = ["ServerStats", "Server", "latency_percentiles"]

_PERCENTILES = (50.0, 90.0, 99.0)


def latency_percentiles(latencies_s: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99 of per-request latencies, in milliseconds.

    The one formatting of latency distributions every serving stats surface
    (server, gateway models, gateway aggregate) reports."""
    if not latencies_s:
        return {}
    values = np.percentile(np.asarray(latencies_s) * 1e3, _PERCENTILES)
    return {f"p{int(p)}": float(v) for p, v in zip(_PERCENTILES, values)}


@dataclass
class ServerStats:
    """Aggregate request statistics since server start."""

    requests: int = 0
    batches: int = 0
    failures: int = 0
    elapsed_seconds: float = 0.0
    latencies_ms: Dict[str, float] = field(default_factory=dict)
    mean_batch_size: float = 0.0

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_seconds if self.elapsed_seconds else 0.0

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["throughput_rps"] = self.throughput_rps
        return out

    @classmethod
    def for_run(
        cls, hist: Histogram, *, batches: int, batch_items: int, failures: int,
        started_at: float, stopped_at: Optional[float],
    ) -> "ServerStats":
        """One replica run's stats; stamps are ``perf_counter``, a live run ends now."""
        end = stopped_at if stopped_at is not None else time.perf_counter()
        return cls(
            requests=hist.count,
            batches=batches,
            failures=failures,
            elapsed_seconds=max(end - started_at, 0.0) if started_at else 0.0,
            latencies_ms=hist.percentiles(scale=1e3),
            mean_batch_size=batch_items / batches if batches else 0.0,
        )


class Server:
    """Dynamic-batching inference server over a network + serving runtime.

    Parameters
    ----------
    network:
        A :class:`repro.nn.Network` whose non-compressed parameters are
        already in place (conv layers ship dense in the edge scenario).
    runtime:
        Optional :class:`ModelRuntime`; when given, the compressed fc
        weights are installed from the decoded-layer cache at
        :meth:`start` (decoding on demand if still cold).
    batch_size:
        Maximum requests folded into one forward pass.
    max_batch_delay:
        Seconds the oldest queued request may wait for the batch to fill.
    """

    def __init__(
        self,
        network,
        runtime: Optional[ModelRuntime] = None,
        *,
        batch_size: int = 64,
        max_batch_delay: float = 0.002,
    ) -> None:
        if int(batch_size) < 1:
            raise ValidationError("batch_size must be >= 1")
        if float(max_batch_delay) < 0:
            raise ValidationError("max_batch_delay must be >= 0")
        self._network = network
        self._runtime = runtime
        self._batch_size = int(batch_size)
        self._max_batch_delay = float(max_batch_delay)
        self._queue: "queue.SimpleQueue[Optional[Request]]" = queue.SimpleQueue()
        self._worker: Optional[threading.Thread] = None
        self._running = False
        self._lock = make_lock("serve.server.state")
        self._latency_hist = Histogram()
        self._batches = 0
        self._batch_items = 0
        self._failures = 0
        self._inflight = 0
        self._started_at = 0.0
        self._stopped_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Server":
        """Install weights from the runtime and start the batching loop.

        Weight installation runs *before* any server state changes, so a
        failed decode leaves the server cleanly stopped and start() can be
        retried.
        """
        with self._lock:
            if self._running:
                return self
        if self._runtime is not None:
            self._runtime.load_into(self._network)
        with self._lock:
            if self._running:  # lost a concurrent start() race; that's fine
                return self
            # A fresh queue per run: a previous stop() may have left its
            # shutdown sentinel unconsumed (the worker can exit via the
            # _running check instead), which would kill the new worker on
            # its first get().
            self._queue = queue.SimpleQueue()
            self._running = True
            # Stats cover one run ("since server start"): a restart resets
            # the counters along with the elapsed clock, or throughput
            # would divide old requests by the new run's elapsed time.
            self._latency_hist = Histogram()
            self._batches = 0
            self._batch_items = 0
            self._failures = 0
            self._inflight = 0
            self._started_at = time.perf_counter()
            self._stopped_at = None
            # The worker exits only by consuming the shutdown sentinel:
            # stop() enqueues it atomically with the _running flip, so every
            # accepted request is ahead of it and gets answered first.
            self._worker = threading.Thread(
                target=self._serve, name="repro-serve", daemon=True
            )
            self._worker.start()
        return self

    def stop(self) -> None:
        """Stop the loop after the queued work drains; freeze the clock.

        The shutdown sentinel is enqueued under the same lock submit()
        enqueues requests under, so every accepted request sits ahead of
        the sentinel and is processed before the worker exits — a future
        returned by submit() always resolves.
        """
        with self._lock:
            if not self._running:
                return
            self._running = False
            self._queue.put(None)
            worker, self._worker = self._worker, None
        if worker is not None:
            worker.join()
        self._stopped_at = time.perf_counter()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path ------------------------------------------------------
    def submit(self, x: np.ndarray, span: Optional[Span] = None) -> Future:
        """Enqueue one sample; the future resolves to its probability row.

        ``span`` is an optional live trace span (the gateway-side request
        root): when present the batching loop emits queue/batch/forward/
        decode child spans for this request.
        """
        future: Future = Future()
        # The batch deadline counts from submit time on this backend.
        request = Request(
            x=np.asarray(x, dtype=np.float32),
            arrived=time.perf_counter(),
            handle=(future, span),
            ctx=span.context() if span is not None else None,
            wall_arrived=time.time() if span is not None else 0.0,
        )
        # The running check and the put are one atomic step: stop() enqueues
        # its sentinel under the same lock, so a request can never land
        # behind the sentinel in a dead queue (its future would never
        # resolve).
        with self._lock:
            if not self._running:
                raise ValidationError("server is not running (call start())")
            self._inflight += 1
            self._queue.put(request)
        return future

    def submit_many(self, xs: Sequence[np.ndarray]) -> List[Future]:
        """Enqueue a sequence of samples, one future per sample.

        The samples enter the queue back to back, so the batching loop folds
        them into as few forward passes as ``batch_size`` allows — the bulk
        path benchmarks and the edge example use this to drive full batches.
        """
        return [self.submit(x) for x in xs]

    def infer(self, x: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous single-sample inference."""
        return self.submit(x).result(timeout=timeout)

    def classify(self, x: np.ndarray, timeout: Optional[float] = None) -> int:
        """Synchronous single-sample top-1 class."""
        return int(np.argmax(self.infer(x, timeout=timeout)))

    # -- batching loop -----------------------------------------------------
    def _serve(self) -> None:
        serve_batches(
            self._receive, self._network, self._respond,
            batch_size=self._batch_size, max_batch_delay=self._max_batch_delay,
        )

    def _receive(self, timeout: Optional[float]) -> Optional[Request]:
        # timeout 0 takes only what is already queued (queue.Empty if none).
        return self._queue.get(block=timeout != 0, timeout=timeout)

    def _respond(self, batch: Batch) -> None:
        done = time.perf_counter()
        requests = batch.requests
        with self._lock:
            self._batches += 1
            self._batch_items += len(requests)
            if batch.error is not None:
                self._failures += len(requests)
            for request in requests:
                self._latency_hist.observe(done - request.arrived)
            self._inflight -= len(requests)
        if batch.spans:
            # The gateway runs one tracer, so any traced request's is *the* one.
            tracer = next(r.handle[1].tracer for r in requests if r.handle[1] is not None)
            tracer.export_dicts(batch.spans)
        rows = batch.outputs if batch.error is None else [None] * len(requests)
        for request, row in zip(requests, rows):
            settle(request.handle[0], row, batch.error)

    @property
    def inflight(self) -> int:
        """Accepted requests not yet resolved (queued + in the current batch).

        The load signal a multi-replica gateway's least-loaded shard policy
        reads; sampled without joining the worker, so it is advisory."""
        with self._lock:
            return self._inflight

    def latency_histogram(self) -> Histogram:
        """A consistent snapshot of the bounded latency histogram (seconds)."""
        with self._lock:
            return self._latency_hist.copy()

    # -- statistics --------------------------------------------------------
    def stats(self) -> ServerStats:
        with self._lock:
            return ServerStats.for_run(
                self._latency_hist, batches=self._batches, batch_items=self._batch_items,
                failures=self._failures, started_at=self._started_at,
                stopped_at=self._stopped_at,
            )
