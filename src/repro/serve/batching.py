"""The one replica batching loop: collect → forward → respond.

Thread replicas (:class:`~repro.serve.server.Server`) and process replicas
(:func:`~repro.serve.worker._worker_main`) both run :func:`serve_batches`;
each supplies its own ``receive`` transport, arrival stamps and ``respond``.
A batch closes when it holds ``batch_size`` requests or when its first
request's arrival stamp plus ``max_batch_delay`` has passed (the Clipper
deadline batcher).  A failed forward pass still counts as a batch and fails
every request in it.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.obs import profile
from repro.obs.trace import span_dict

__all__ = ["Batch", "Request", "serve_batches", "settle"]


@dataclass
class Request:
    """One request as the loop sees it; the caller builds it on receipt."""

    x: np.ndarray
    arrived: float  # perf_counter stamp; a batch's deadline counts from its first
    handle: Any  # the caller's own: (future, span) on threads, request id on pipes
    ctx: Optional[Dict[str, str]] = None  # trace context; None when untraced
    wall_arrived: float = 0.0  # wall clock, only captured when traced


@dataclass
class Batch:
    """One collected batch after its forward pass: what ``respond`` gets."""

    requests: List[Request]
    outputs: Optional[np.ndarray] = None  # one row per request; None on error
    error: Optional[BaseException] = None
    spans: List[dict] = field(default_factory=list)  # traced requests' replica spans
    forward_ns: Optional[int] = None  # timed (traced or profiled) passes only
    fetches: List[profile.FetchRecord] = field(default_factory=list)


def serve_batches(
    receive: Callable[[Optional[float]], Optional[Request]],
    network,
    respond: Callable[[Batch], None],
    *,
    batch_size: int,
    max_batch_delay: float,
    profiled: Optional[Callable[[], bool]] = None,
) -> None:
    """Answer batches until ``receive`` returns the stop sentinel (``None``).

    ``receive(None)`` blocks; ``receive(t)`` waits at most ``t`` seconds and
    raises :class:`queue.Empty` when nothing arrived.  ``profiled()`` says,
    per batch, whether to time an untraced forward pass.
    """
    while True:
        first = receive(None)
        if first is None:
            return
        requests = [first]
        deadline = first.arrived + max_batch_delay
        stopping = False
        while len(requests) < batch_size:
            # Past the deadline, still drain what already arrived (backlog
            # from the previous forward pass); only *waiting* is bounded.
            try:
                request = receive(max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                break
            if request is None:
                stopping = True
                break
            requests.append(request)
        respond(_forward(network, requests, profiled))
        if stopping:
            return


def _forward(network, requests: List[Request], profiled) -> Batch:
    traced = [request for request in requests if request.ctx is not None]
    timed = bool(traced) or (profiled is not None and profiled())
    assembled_s = time.time() if timed else 0.0
    try:
        inputs = np.stack([request.x for request in requests])
        if not timed:
            return Batch(requests, np.asarray(network.forward(inputs, training=False)))
        fwd_start_s, tick = time.time(), time.perf_counter()
        with profile.collect_fetches() as fetches:  # decode-on-demand weight fetches
            outputs = np.asarray(network.forward(inputs, training=False))
        forward_ns = int((time.perf_counter() - tick) * 1e9)
        fwd_end_s = time.time()
    except BaseException as exc:  # propagates to every request in the batch
        return Batch(requests, error=exc)
    # Per traced request: replica.queue and replica.batch under its root,
    # replica.forward under the batch, one replica.decode per fetch under
    # the forward.  Shared batch work is duplicated into every traced tree,
    # so each tree stays self-contained.
    spans: List[dict] = []
    for request in traced:
        span = partial(span_dict, trace_id=request.ctx["trace_id"])
        root_id = request.ctx["span_id"]
        queued = span("replica.queue", parent_id=root_id, start_s=request.wall_arrived,
                      end_s=assembled_s)
        batch = span("replica.batch", parent_id=root_id, start_s=assembled_s, end_s=fwd_end_s,
                     attrs={"batch_size": len(requests)})
        forward = span("replica.forward", parent_id=batch["span_id"], start_s=fwd_start_s,
                       end_s=fwd_end_s)
        spans += [queued, batch, forward]
        spans += [
            span("replica.decode", parent_id=forward["span_id"], start_s=start, end_s=end,
                 attrs={"layer": layer})
            for layer, start, end in fetches
        ]
    return Batch(requests, outputs, spans=spans, forward_ns=forward_ns, fetches=fetches)


def settle(future: Future, result=None, error: Optional[BaseException] = None) -> None:
    """Resolve a caller-visible future unless the caller cancelled it.

    ``set_running_or_notify_cancel`` is the atomic check: once it returns
    True a late ``cancel()`` fails, so the set below cannot raise."""
    if not future.set_running_or_notify_cancel():
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)
