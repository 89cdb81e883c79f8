"""The benchmark's own clock, load generators and process measurements.

Nothing here imports ``repro``: the senders drive whatever ``submit``
callable they are handed, so the same code times a real gateway and the
null gateway used for calibration.

Latency in an open loop is charged from the *scheduled* send time, so a
stall in the gateway (or in the sender) is paid by every request it
delays, and the sender's own lateness is reported next to it.
"""

from __future__ import annotations

import asyncio
import glob
import math
import os
import resource
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Capacity SLO (MLPerf Inference server scenario): a rung passes when its
#: p99 latency, charged from the scheduled send time, stays within this.
SLO_P99_MS = 20.0
#: ... and no more than this share of its requests fail or are refused.
SLO_MAX_ERROR_RATE = 0.01
#: Capacity rungs placed by the fitted p99 line once the rate is bracketed.
REFINE_RUNGS = 3
#: How long a finished phase may take to drain before it counts as hung.
DRAIN_TIMEOUT_S = 15.0


# ---------------------------------------------------------------------------
# statistics


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``: the 11th-largest sample, the
    percentile it stands at, and the sample count.  Taking the order
    statistic instead of a fixed ladder keeps the number continuous when
    the sample count drifts from run to run.
    """
    n = len(values)
    if n == 0:
        return float("nan"), float("nan"), 0
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64))) if len(values) else float("nan")


#: Requests per window of :func:`windowed_tail`: its tail, the 11th-largest,
#: is then each window's p95.
TAIL_WINDOW = 200


def windowed_tail(values: np.ndarray) -> tuple[float, float, int]:
    """Median over consecutive windows of :data:`TAIL_WINDOW` requests of
    each window's :func:`tail`.

    A whole-phase p99 of a few thousand Poisson arrivals rests on the two
    or three largest bursts the seed happened to draw; the median of
    window tails rests on every window.  Returns ``(value, percentile,
    windows)``; a phase shorter than one window falls back to :func:`tail`.
    """
    windows = len(values) // TAIL_WINDOW
    if windows == 0:
        value, pct, _ = tail(values)
        return value, pct, 1
    tails = [tail(values[w * TAIL_WINDOW:(w + 1) * TAIL_WINDOW])[0] for w in range(windows)]
    return median(tails), 100.0 * (TAIL_WINDOW - 10) / TAIL_WINDOW, windows


# ---------------------------------------------------------------------------
# process measurements


def _proc_children_cpu_s() -> float:
    """User+sys CPU of this process's live children (Linux ``/proc``)."""
    me = os.getpid()
    tick = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, "rb") as handle:
                raw = handle.read().decode("ascii", "replace")
        except OSError:
            continue  # exited while we scanned
        fields = raw[raw.rfind(")") + 2:].split()
        if int(fields[1]) == me:
            total += (int(fields[11]) + int(fields[12])) / tick
    return total


def cpu_seconds() -> float:
    """CPU seconds of this process plus its live and reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
        + _proc_children_cpu_s()
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def leaked_segments() -> List[str]:
    """``repro_*`` shared-memory segments this process created and did not
    unlink (the store names them ``repro_<digest>_<pid>_<n>``)."""
    return sorted(
        os.path.basename(path) for path in glob.glob(f"/dev/shm/repro_*_{os.getpid()}_*")
    )


# ---------------------------------------------------------------------------
# closed loop


@dataclass
class ClosedLoopResult:
    latencies_s: List[float] = field(default_factory=list)
    indices: List[int] = field(default_factory=list)  #: op index of each latency
    ok: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return self.ok + self.failed


def closed_loop(
    op: Callable[[int], tuple], seconds: float, callers: int = 1, first_index: int = 0
) -> ClosedLoopResult:
    """``callers`` threads each run ``op(i)`` back to back for ``seconds``.

    ``op`` returns ``(latency_s, ok)``: it times only the call under test
    and checks the output outside the timed region.
    """
    result = ClosedLoopResult()
    lock = threading.Lock()
    counter = iter(range(first_index, 1 << 62))
    deadline = time.perf_counter() + seconds

    def caller() -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = next(counter)
            try:
                latency, ok = op(index)
            except Exception as exc:  # an op that raises is a failed op
                print(f"[perfbench] op {index} raised {type(exc).__name__}: {exc}")
                latency, ok = None, False
            with lock:
                if latency is not None:
                    result.latencies_s.append(latency)
                    result.indices.append(index)
                if ok:
                    result.ok += 1
                else:
                    result.failed += 1

    cpu0 = cpu_seconds()
    start = time.perf_counter()
    if callers == 1:
        caller()
    else:
        threads = [threading.Thread(target=caller) for _ in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    result.wall_s = time.perf_counter() - start
    result.cpu_s = cpu_seconds() - cpu0
    return result


# ---------------------------------------------------------------------------
# open loop


@dataclass
class Schedule:
    """A rendered open-loop phase: when each request is due and what it is."""

    name: str
    rate_rps: float
    arrival_s: np.ndarray  #: offsets from the phase start, ascending
    model: List[str]
    key: List[str]
    sample: np.ndarray  #: index into the model's input pool

    def __len__(self) -> int:
        return int(self.arrival_s.size)


@dataclass
class PhaseResult:
    schedule: Schedule
    scheduled_at: np.ndarray
    sent_at: np.ndarray
    done_at: np.ndarray
    submit_s: np.ndarray
    status: np.ndarray  #: 0 ok, 1 refused, 2 failed, 3 wrong output
    outputs: List[Optional[np.ndarray]]
    cpu_s: float = 0.0
    hung: int = 0
    exceptions: Dict[str, int] = field(default_factory=dict)  #: failures by type

    def record_failure(self, exc: BaseException) -> None:
        name = type(exc).__name__
        self.exceptions[name] = self.exceptions.get(name, 0) + 1

    OK, REFUSED, FAILED, WRONG = 0, 1, 2, 3

    @property
    def sent(self) -> int:
        return len(self.schedule)

    @property
    def ok_mask(self) -> np.ndarray:
        return self.status == self.OK

    @property
    def latencies_s(self) -> np.ndarray:
        mask = self.ok_mask
        return self.done_at[mask] - self.scheduled_at[mask]

    @property
    def errors(self) -> int:
        return int(np.count_nonzero(self.status != self.OK))

    @property
    def error_rate(self) -> float:
        return self.errors / self.sent if self.sent else 0.0

    def lag_ms(self) -> float:
        """p99 of how late the sender handed requests over, in ms."""
        lag = (self.sent_at - self.scheduled_at) * 1e3
        return float(np.percentile(lag, 99)) if lag.size else 0.0

    def kept_pace(self) -> bool:
        """All but :data:`SLO_MAX_ERROR_RATE` of the requests finished within
        the SLO of the last one's send time: no backlog left at phase end."""
        if not self.sent:
            return True
        phase_end = float(self.scheduled_at[-1]) + SLO_P99_MS / 1e3
        done = self.done_at[self.ok_mask]
        return bool(np.count_nonzero(done <= phase_end) >= (1 - SLO_MAX_ERROR_RATE) * self.sent)

    def check_outputs(self, reference: Callable[[str, int], np.ndarray]) -> None:
        """Mark every answered request whose row differs from its reference."""
        for i in np.flatnonzero(self.ok_mask):
            row = self.outputs[i]
            ref = reference(self.schedule.model[i], int(self.schedule.sample[i]))
            if row is None or not np.allclose(row, ref, rtol=1e-4, atol=1e-5):
                self.status[i] = self.WRONG
        self.outputs = []  # rows are no longer needed; keep memory flat

    def p99_ms(self) -> float:
        lat = self.latencies_s
        return float(np.percentile(lat, 99)) * 1e3 if lat.size else math.inf

    def passes_slo(self) -> bool:
        return (
            self.p99_ms() <= SLO_P99_MS
            and self.error_rate <= SLO_MAX_ERROR_RATE
            and self.kept_pace()
        )


def _new_phase(schedule: Schedule) -> PhaseResult:
    n = len(schedule)
    return PhaseResult(
        schedule=schedule,
        scheduled_at=np.zeros(n),
        sent_at=np.zeros(n),
        done_at=np.full(n, np.nan),
        submit_s=np.zeros(n),
        status=np.full(n, PhaseResult.FAILED, dtype=np.int8),
        outputs=[None] * n,
    )


def send_threaded(
    submit: Callable[[str, np.ndarray, str], Future],
    schedule: Schedule,
    inputs: Dict[str, np.ndarray],
    overloaded: type,
) -> PhaseResult:
    """Open-loop sender for a synchronous ``submit`` returning futures.

    One thread sleeps until each request is due and submits it; the
    completion callback stamps the finish time.  ``overloaded`` is the
    exception type that counts as a refusal rather than a failure.
    """
    phase = _new_phase(schedule)
    remaining = [len(schedule)]
    all_done = threading.Event()
    lock = threading.Lock()

    def finished(index: int, future: Future) -> None:
        phase.done_at[index] = time.perf_counter()
        exc = future.exception()
        if exc is None:
            phase.outputs[index] = future.result()
            phase.status[index] = PhaseResult.OK
        else:
            phase.record_failure(exc)
        settle()

    def settle() -> None:
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                all_done.set()

    if not len(schedule):
        return phase
    cpu0 = cpu_seconds()
    start = time.perf_counter() + 0.005
    phase.scheduled_at[:] = start + schedule.arrival_s
    for i in range(len(schedule)):
        due = phase.scheduled_at[i]
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        x = inputs[schedule.model[i]][schedule.sample[i]]
        sent = time.perf_counter()
        phase.sent_at[i] = sent
        try:
            future = submit(schedule.model[i], x, schedule.key[i])
        except overloaded:
            phase.submit_s[i] = time.perf_counter() - sent
            phase.status[i] = PhaseResult.REFUSED
            settle()
            continue
        except Exception as exc:  # counted as a failed request, by type
            phase.submit_s[i] = time.perf_counter() - sent
            phase.record_failure(exc)
            settle()
            continue
        phase.submit_s[i] = time.perf_counter() - sent
        future.add_done_callback(lambda f, index=i: finished(index, f))
    if not all_done.wait(DRAIN_TIMEOUT_S):
        phase.hung = remaining[0]
    phase.cpu_s = cpu_seconds() - cpu0
    return phase


class _FirstStep:
    """Await a coroutine, timing its first step (admission, for a gateway
    whose ``submit`` validates and enqueues before its first suspension)."""

    def __init__(self, coro, on_first: Callable[[float], None]) -> None:
        self._coro = coro
        self._on_first = on_first

    def __await__(self):
        inner = self._coro.__await__()
        start = time.perf_counter()
        try:
            yielded = next(inner)
        except StopIteration as stop:
            self._on_first(time.perf_counter() - start)
            return stop.value
        except BaseException:
            self._on_first(time.perf_counter() - start)
            raise
        self._on_first(time.perf_counter() - start)
        while True:
            try:
                value = yield yielded
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:
                try:
                    yielded = inner.throw(exc)
                except StopIteration as stop:
                    return stop.value
            else:
                try:
                    yielded = inner.send(value)
                except StopIteration as stop:
                    return stop.value


async def send_async(
    submit: Callable,
    schedule: Schedule,
    inputs: Dict[str, np.ndarray],
    overloaded: type,
) -> PhaseResult:
    """Open-loop sender for a coroutine ``submit`` (one task per request)."""
    phase = _new_phase(schedule)
    loop = asyncio.get_running_loop()
    tasks = []

    async def one(index: int, x: np.ndarray) -> None:
        def admitted(seconds: float) -> None:
            phase.submit_s[index] = seconds

        try:
            row = await _FirstStep(
                submit(schedule.model[index], x, schedule.key[index]), admitted
            )
        except overloaded:
            phase.status[index] = PhaseResult.REFUSED
            return
        except Exception as exc:  # counted as a failed request, by type
            phase.record_failure(exc)
            return
        phase.done_at[index] = time.perf_counter()
        phase.outputs[index] = row
        phase.status[index] = PhaseResult.OK

    cpu0 = cpu_seconds()
    start = time.perf_counter() + 0.005
    phase.scheduled_at[:] = start + schedule.arrival_s
    for i in range(len(schedule)):
        delay = phase.scheduled_at[i] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.sent_at[i] = time.perf_counter()
        x = inputs[schedule.model[i]][schedule.sample[i]]
        tasks.append(loop.create_task(one(i, x)))
    if tasks:
        done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        phase.hung = len(pending)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending, timeout=1.0)
    phase.cpu_s = cpu_seconds() - cpu0
    return phase


# ---------------------------------------------------------------------------
# harness calibration and the capacity search


@dataclass
class Calibration:
    floor_p50_ms: float
    ceiling_rps: float


def _null_future(_model: str, x: np.ndarray, _key: str) -> Future:
    future: Future = Future()
    future.set_result(x)
    return future


async def _null_coroutine(_model: str, x: np.ndarray, _key: str) -> np.ndarray:
    return x


class _NeverRaised(Exception):
    pass


def _calibration(light_phase: PhaseResult, flood_phase: PhaseResult) -> Calibration:
    span = float(flood_phase.sent_at[-1] - flood_phase.sent_at[0])
    ceiling = (flood_phase.sent - 1) / span if span > 0 else float("inf")
    return Calibration(
        floor_p50_ms=median(light_phase.latencies_s) * 1e3, ceiling_rps=ceiling
    )


def calibrate_threaded(
    light: Schedule, flood: Schedule, inputs: Dict[str, np.ndarray]
) -> Calibration:
    """Drive a gateway that answers instantly.

    ``light`` gives the sender's latency floor (sleep overshoot plus
    bookkeeping); ``flood`` offers far more than the sender can push, so
    its achieved send rate is the ceiling no capacity rung may exceed.
    """
    return _calibration(
        send_threaded(_null_future, light, inputs, _NeverRaised),
        send_threaded(_null_future, flood, inputs, _NeverRaised),
    )


async def calibrate_async(
    light: Schedule, flood: Schedule, inputs: Dict[str, np.ndarray]
) -> Calibration:
    """:func:`calibrate_threaded` for the coroutine sender."""
    return _calibration(
        await send_async(_null_coroutine, light, inputs, _NeverRaised),
        await send_async(_null_coroutine, flood, inputs, _NeverRaised),
    )


@dataclass
class CapacityResult:
    capacity_rps: float
    censored: bool  #: no rung failed: the true capacity is at least this
    rungs: List[tuple] = field(default_factory=list)  #: (rate, passed, PhaseResult)


def _slo_p99(phase: PhaseResult) -> float:
    """p99 in ms, or infinity when the phase failed on errors or pace."""
    if phase.error_rate > SLO_MAX_ERROR_RATE or not phase.kept_pace():
        return math.inf
    return phase.p99_ms()


def _crossing(points: List[tuple]) -> Optional[float]:
    """Rate where p99 reaches the SLO: a least-squares line through
    ``log p99`` against the rate over the points near the SLO, each
    weighted by how many requests it rests on."""
    near = [pt for pt in points if SLO_P99_MS / 3 <= pt[1] <= SLO_P99_MS * 2.5]
    if len({pt[0] for pt in near}) < 2:
        return None
    rates = np.array([pt[0] for pt in near])
    weights = np.sqrt([pt[2] for pt in near])
    slope, intercept = np.polyfit(rates, np.log([pt[1] for pt in near]), 1, w=weights)
    if slope <= 0:
        return None
    return float((math.log(SLO_P99_MS) - intercept) / slope)


def capacity_search(
    run_rung: Callable[[float, int, float], PhaseResult],
    first: PhaseResult,
    ceiling_rps: float,
    budget_s: float,
) -> CapacityResult:
    """Highest offered rate that meets the SLO (p99, errors, keeping pace).

    ``first`` is a phase already run at a fixed rate.  Short probe rungs
    double the rate until one fails (or halve it until one passes); the
    rest of ``budget_s`` goes to :data:`REFINE_RUNGS` longer rungs, each
    placed where a line through ``log p99`` against the rate says p99
    crosses the SLO, or halfway (geometrically) between the highest pass
    and the lowest fail while that line is undefined.  The capacity is the
    line's crossing when it falls between the highest pass and the lowest
    fail: p99 rises smoothly with the rate, so a fit over every rung near
    the SLO is steadier than the highest rung that happened to pass, which
    is the answer otherwise.  No rung offers more than ``ceiling_rps``;
    when every rung passes, the capacity is censored at the highest one.
    """
    probe_s = budget_s / 10
    points = [(first.schedule.rate_rps, _slo_p99(first), first.sent)]
    rungs: List[tuple] = []
    spent, refined = 0.0, 0

    def bracket() -> tuple:
        passed = [pt[0] for pt in points if pt[1] <= SLO_P99_MS]
        failed = [pt[0] for pt in points if pt[1] > SLO_P99_MS]
        return (max(passed) if passed else None), (min(failed) if failed else None)

    while refined < REFINE_RUNGS:
        lo, hi = bracket()
        if lo is None or hi is None:
            if (hi is None and lo >= ceiling_rps) or spent + probe_s > budget_s / 2:
                break
            rate = min(lo * 2.0, ceiling_rps) if hi is None else hi / 2.0
            seconds = probe_s
        else:
            rate = _crossing(points)
            if rate is None or not lo < rate < hi:
                rate = math.sqrt(lo * hi)
            seconds = (budget_s - spent) / (REFINE_RUNGS - refined)
            refined += 1
        phase = run_rung(rate, len(rungs), seconds)
        spent += seconds
        points.append((rate, _slo_p99(phase), phase.sent))
        rungs.append((rate, phase.passes_slo(), phase))
    lo, hi = bracket()
    if lo is None:
        return CapacityResult(0.0, False, rungs)
    if hi is None:
        return CapacityResult(lo, True, rungs)
    estimate = _crossing(points)
    if estimate is None or not 0.5 * lo <= estimate < hi:
        estimate = lo
    return CapacityResult(estimate, False, rungs)
