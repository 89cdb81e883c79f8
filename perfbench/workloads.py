"""The benchmark's four workloads, driven through ``repro``'s public API.

Each workload has a set-up (everything before the first timed operation)
and a measurement that runs for the requested number of seconds.  The
program only ever sees the inputs rendered here from ``--seed``.

* ``compress``     closed loop: DeepSZ steps 2-4 on zoo LeNet-300-100.
* ``cold_start``   closed loop: archive bytes -> runtime -> first forward.
* ``serve_thread`` open loop: sync ``Gateway`` with thread replicas.
* ``serve_process`` open loop: ``AsyncGateway`` with process replicas.

Closed-loop workloads run one caller (the light phase) and then two
concurrent callers (the loaded phase, one per core of a 2-core box).
Serving workloads run a light phase at 200 req/s, a loaded phase at
1000 req/s and a capacity search, all Poisson arrivals with Zipf model
popularity.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import selectors
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import harness
import tracing

HERE = Path(__file__).resolve().parent

#: Expected accuracy loss targets cycled by ``compress`` (fractions).
TARGETS = (0.002, 0.004, 0.01, 0.02)
#: The paper's AlexNet fc stack at half linear scale, with the densities
#: pruning leaves and the bounds ``compress`` picks on ``alexnet-mini``.
COLD_SPEC = "fc6=2048x4608:0.09,fc7=2048x2048:0.09,fc8=500x2048:0.25"
COLD_BOUNDS = {"fc6": 0.03, "fc7": 0.02, "fc8": 0.1}
COLD_BATCH = 16
#: LeNet-300-100-shaped archives served by the gateway workloads.
SERVE_SPEC = "ip1=300x784:0.08,ip2=100x300:0.09,ip3=10x100:0.26"
SERVE_BOUND = 0.01
SERVE_MODELS = ("lenet-a", "lenet-b")
SERVE_TENANTS = tuple(f"tenant-{i:02d}" for i in range(32))
SERVE_INPUTS = 64  # distinct samples per model; each request picks one
LIGHT_RPS = 200.0
LOADED_RPS = 1000.0
#: Traces are rendered for this long and cut to the phase length, so a
#: trace's digest does not depend on ``--seconds``.
TRACE_RENDER_S = 15.0
#: Seed of the weights of every archive and of the accuracy eval set: the
#: workloads' figures of merit stay comparable across ``--seed``.
WEIGHT_SEED = 7
EVAL_SAMPLES = 2000
SHUTDOWN_TIMEOUT_S = 20.0
FLOOD_REQUESTS = 5000


def _ms(seconds) -> float:
    return float(seconds) * 1e3


class _DenseLayers:
    """The serving slice of a runtime over plain dense matrices, so the
    uncompressed reference runs through the program's own ``ArchiveMLP``."""

    def __init__(self, weights: Dict[str, np.ndarray]) -> None:
        self._weights = weights
        self.layer_names = list(weights)

    def layer_shape(self, name: str) -> tuple:
        return self._weights[name].shape

    def layer(self, name: str) -> np.ndarray:
        return self._weights[name]


def _dense_originals(layers) -> Dict[str, np.ndarray]:
    from repro.pruning.sparse_format import decode_sparse

    return {name: decode_sparse(layer) for name, layer in layers.items()}


def _bound_tolerance(original: np.ndarray, bound: float) -> float:
    """Half-ULP float32 slack on top of the bound (the codecs guarantee it
    in double precision; the float32 cast can add half an ULP)."""
    scale = float(np.max(np.abs(original))) if original.size else 0.0
    return bound * (1 + 1e-5) + float(np.finfo(np.float32).eps) * scale


def _top1_disagreement_pct(runtime, originals: Dict[str, np.ndarray], x: np.ndarray) -> float:
    """Share of inputs whose top-1 class differs from the uncompressed model."""
    from repro.serve import ArchiveMLP

    compressed = ArchiveMLP(runtime).forward(x).argmax(axis=1)
    reference = ArchiveMLP(_DenseLayers(originals)).forward(x).argmax(axis=1)
    return 100.0 * float(np.mean(compressed != reference))


class Run:
    """Everything one measurement reports back to ``run.py``."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}
        self.phases: List[dict] = []
        self.checks: List[tuple] = []
        self.findings: List[str] = []
        self.attempted = 0
        self.failed = 0  # failed + refused + wrong, as the error rate counts them
        self.broken = 0  # failed + wrong: requests the program got wrong

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def phase(self, name: str, attempted: int, ok: int, refused: int, failed: int,
              wrong: int, counted: bool = True, extra: str = "") -> None:
        self.phases.append(dict(name=name, sent=attempted, succeeded=ok, refused=refused,
                                failed=failed, wrong=wrong, counted=counted, extra=extra))
        if counted:
            self.attempted += attempted
            self.failed += refused + failed + wrong
            self.broken += failed + wrong

    def as_dict(self) -> dict:
        # A refusal is the admission control answering overload as designed:
        # it costs success_rate, not correctness.
        correct = all(ok for _, ok, _ in self.checks) and self.broken == 0
        return dict(workload=self.workload, seed=self.seed, trace=self.trace,
                    correct=correct, attempted=self.attempted, failed=self.failed,
                    metrics=self.metrics, notes=self.notes, phases=self.phases,
                    checks=self.checks, findings=self.findings)


# ---------------------------------------------------------------------------
# closed-loop workloads


class ClosedLoopWorkload:
    """Shared measurement of the two closed-loop workloads."""

    dense_bytes = 0  # dense fc bytes one op processes (Fig. 7's unit)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer: Optional[tracing.Tracer] = None

    def setup(self, run: Run) -> None:
        raise NotImplementedError

    def op(self, index: int) -> tuple:
        """One timed operation: ``(latency_s, output_ok)``."""
        raise NotImplementedError

    def quality(self, run: Run) -> None:
        """Set ``compression_ratio`` and ``accuracy_loss_pct``."""
        raise NotImplementedError

    def close(self, run: Run) -> None:
        pass

    def median_ms(self, result: harness.ClosedLoopResult) -> float:
        """The typical op time of a closed-loop phase."""
        return _ms(harness.median(result.latencies_s))

    def _timed(self, index: int, call: Callable):
        tracer = self.tracer
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            return call(), time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.op = None

    def measure(self, run: Run, seconds: float) -> None:
        if run.trace:
            self._measure_traced(run, seconds)
            return
        light = harness.closed_loop(self.op, seconds * 0.55, callers=1)
        loaded = harness.closed_loop(self.op, seconds * 0.45, callers=2,
                                     first_index=light.attempted)
        for label, res in (("light (1 caller)", light), ("loaded (2 callers)", loaded)):
            run.phase(label, res.attempted, res.ok, 0, res.failed, 0)
        run.metrics["p50_ms"] = self.median_ms(light)
        value, pct, n = harness.tail(light.latencies_s)
        run.metrics["tail_ms"] = _ms(value)
        run.notes["tail_ms"] = f"p{pct:.1f} of {n} ops"
        run.metrics["loaded_p50_ms"] = self.median_ms(loaded)
        value, pct, n = harness.tail(loaded.latencies_s)
        run.metrics["loaded_tail_ms"] = _ms(value)
        run.notes["loaded_tail_ms"] = f"p{pct:.1f} of {n} ops"
        run.metrics["throughput_ops_s"] = loaded.ok / loaded.wall_s
        run.notes["throughput_ops_s"] = "completed ops/s with 2 callers"
        run.notes["throughput_mb_s"] = (
            f"{self.dense_bytes * light.ok / light.wall_s / 1e6:.2f} MB/s dense fc "
            "weights, 1 caller"
        )
        total = light.attempted + loaded.attempted
        run.metrics["success_rate"] = (light.ok + loaded.ok) / total if total else 0.0
        self.quality(run)

    def _measure_traced(self, run: Run, seconds: float) -> None:
        plain = harness.closed_loop(self.op, seconds * 0.5, callers=1)
        self.tracer = tracing.Tracer()
        tracing.instrument(self.tracer)
        walls: Dict[int, float] = {}
        start_index = plain.attempted

        def traced_op(index: int) -> tuple:
            latency, ok = self.op(index)
            walls[index] = latency
            return latency, ok

        try:
            traced = harness.closed_loop(traced_op, seconds * 0.5, callers=1,
                                         first_index=start_index)
        finally:
            self.tracer.uninstrument()
        run.phase("untraced (1 caller)", plain.attempted, plain.ok, 0, plain.failed, 0)
        run.phase("traced (1 caller)", traced.attempted, traced.ok, 0, traced.failed, 0)
        base = self.median_ms(plain)
        run.metrics["trace.overhead_pct"] = 100.0 * (self.median_ms(traced) - base) / base
        run.metrics["cpu_ms_per_op"] = _ms(plain.cpu_s / max(plain.ok, 1))
        breakdown = tracing.op_breakdown(self.tracer, walls)
        run.check("stages add up", breakdown["min_unattributed_ms"] >= -0.05,
                  f"smallest per-op unattributed time {breakdown['min_unattributed_ms']:.3f} ms")
        inc, own = breakdown["inclusive_ms"], breakdown["self_ms"]
        calls, counts = breakdown["calls"], breakdown["counts"]
        m = run.metrics
        candidates = counts.get("core.assessment", 0.0)
        layers = calls.get("core.assessment", 0.0) * self.assessed_layers
        m["core.assessment.self_ms"] = own.get("core.assessment", 0.0)
        m["core.assessment.candidates"] = candidates
        m["core.assessment.useful_ratio"] = layers / candidates if candidates else 0.0
        m["core.optimizer.ms"] = inc.get("core.optimizer", 0.0)
        m["core.encoder.self_ms"] = own.get("core.encoder", 0.0)
        m["core.decoder.self_ms"] = own.get("core.decoder", 0.0)
        for layer in ("sz.compress", "sz.decompress"):
            m[f"{layer}.calls"] = calls.get(layer, 0.0)
            m[f"{layer}.ms"] = inc.get(layer, 0.0)
        for layer in ("sz.lossless", "sz.huffman", "sz.predictor", "sz.dequantize",
                      "pruning.build", "nn.evaluate"):
            m[f"{layer}.ms"] = inc.get(layer, 0.0)
        huffman_s = inc.get("sz.huffman", 0.0) / 1e3
        m["sz.huffman.msym_s"] = counts.get("sz.huffman", 0.0) / huffman_s / 1e6 if huffman_s else 0.0
        m["store.archive.open_ms"] = inc.get("store.archive.open", 0.0)
        m["store.archive.read_ms"] = inc.get("store.archive.read", 0.0)
        m["nn.forward.ms"] = own.get("nn.forward", 0.0)
        m["unattributed_ms"] = breakdown["unattributed_ms"]
        run.notes["unattributed_ms"] = (
            f"of {self.median_ms(traced):.1f} ms typical traced op"
        )


class CompressWorkload(ClosedLoopWorkload):
    assessed_layers = 3  # ip1, ip2, ip3: one useful candidate each

    def setup(self, run: Run) -> None:
        from repro.core import DeepSZ, DeepSZConfig
        from repro.nn import zoo

        self.pruned, _, self.test = zoo.pruned_model("lenet-300-100")
        self.dense_bytes = sum(s.dense_bytes for s in self.pruned.sparse_layers.values())
        self.order = np.random.default_rng(self.seed).permutation(len(TARGETS))
        self.reference = {}
        for target in TARGETS:
            result = DeepSZ(DeepSZConfig(expected_accuracy_loss=target)).compress(
                self.pruned, self.test.images, self.test.labels
            )
            self.reference[target] = self._summary(result)
            run.check(f"predicted loss within {target:.1%}",
                      result.plan.predicted_loss <= target,
                      f"optimizer predicts {result.plan.predicted_loss:.4%}")
            if result.top1_loss > target:
                run.findings.append(
                    f"target {target:.1%}: measured top-1 loss {result.top1_loss:.2%} "
                    f"exceeds the target (optimizer predicted {result.plan.predicted_loss:.2%})"
                )
        self._DeepSZ, self._DeepSZConfig = DeepSZ, DeepSZConfig

    @staticmethod
    def _summary(result) -> tuple:
        return (result.compression_ratio, dict(result.plan.error_bounds),
                result.top1_loss, result.plan.predicted_loss)

    def _target(self, index: int) -> float:
        return TARGETS[self.order[index % len(TARGETS)]]

    def median_ms(self, result: harness.ClosedLoopResult) -> float:
        """Mean over targets of each target's median op time: op times
        cluster by target, and a median of the mixture would jump between
        clusters from run to run."""
        by_target: Dict[float, List[float]] = {}
        for index, latency in zip(result.indices, result.latencies_s):
            by_target.setdefault(self._target(index), []).append(latency)
        return _ms(np.mean([harness.median(v) for v in by_target.values()]))

    def op(self, index: int) -> tuple:
        target = self._target(index)
        config = self._DeepSZConfig(expected_accuracy_loss=target)
        result, latency = self._timed(index, lambda: self._DeepSZ(config).compress(
            self.pruned, self.test.images, self.test.labels))
        return latency, self._summary(result) == self.reference[target]

    def quality(self, run: Run) -> None:
        refs = [self.reference[t] for t in TARGETS]
        run.metrics["compression_ratio"] = float(np.mean([r[0] for r in refs]))
        run.metrics["accuracy_loss_pct"] = 100.0 * float(np.mean([r[2] for r in refs]))
        run.notes["compression_ratio"] = "mean over targets " + ", ".join(
            f"{t:.1%}: {r[0]:.2f}x" for t, r in zip(TARGETS, refs))
        run.notes["accuracy_loss_pct"] = "mean top-1 loss; per target " + ", ".join(
            f"{t:.1%}: {r[2]:.2%}" for t, r in zip(TARGETS, refs))


class ColdStartWorkload(ClosedLoopWorkload):
    assessed_layers = 0

    def setup(self, run: Run) -> None:
        from repro.cli import synthetic_sparse_layers
        from repro.core import DeepSZEncoder
        from repro.serve import ArchiveMLP, ModelRuntime

        self._ArchiveMLP, self._ModelRuntime = ArchiveMLP, ModelRuntime
        layers = synthetic_sparse_layers(COLD_SPEC, seed=WEIGHT_SEED)
        model = DeepSZEncoder().encode("alexnet-fc-half", layers, COLD_BOUNDS)
        self.blob = model.to_archive_bytes()
        self.dense_bytes = model.dense_bytes
        self.ratio = model.dense_bytes / len(self.blob)
        originals = _dense_originals(layers)
        with ModelRuntime(self.blob) as runtime:
            for name, original in originals.items():
                decoded = runtime.layer(name)
                error = float(np.max(np.abs(decoded.astype(np.float64) - original)))
                run.check(f"{name} within bound {COLD_BOUNDS[name]}",
                          error <= _bound_tolerance(original, COLD_BOUNDS[name]),
                          f"max error {error:.6g}")
            eval_x = np.random.default_rng(WEIGHT_SEED).standard_normal(
                (EVAL_SAMPLES, runtime.layer_shape("fc6")[1])).astype(np.float32)
            self.disagreement = _top1_disagreement_pct(runtime, originals, eval_x)
        self.x = np.random.default_rng(self.seed).standard_normal(
            (COLD_BATCH, 4608)).astype(np.float32)
        self.reference = self._cold_forward()

    def _cold_forward(self) -> np.ndarray:
        runtime = self._ModelRuntime(self.blob)
        try:
            return self._ArchiveMLP(runtime).forward(self.x)
        finally:
            runtime.close()

    def op(self, index: int) -> tuple:
        output, latency = self._timed(index, self._cold_forward)
        return latency, bool(np.array_equal(output, self.reference))

    def quality(self, run: Run) -> None:
        run.metrics["compression_ratio"] = self.ratio
        run.notes["compression_ratio"] = f"{len(self.blob)} archive bytes"
        run.metrics["accuracy_loss_pct"] = self.disagreement
        run.notes["accuracy_loss_pct"] = (
            f"top-1 disagreement with the uncompressed stack, {EVAL_SAMPLES} inputs")


# ---------------------------------------------------------------------------
# serving workloads


def render_schedule(name: str, rate: float, seed: int, seconds: float,
                    render_s: float = TRACE_RENDER_S):
    """A Poisson phase rendered by ``repro.sim``; returns (schedule, trace).

    The trace is rendered for ``render_s`` and cut to ``seconds``; each
    request's input sample is drawn from the same seed.
    """
    from repro.sim.workload import generate_trace

    trace = generate_trace(
        "steady", models=SERVE_MODELS, tenants=SERVE_TENANTS,
        duration_s=max(render_s, seconds), rate_rps=rate, seed=seed,
        params={"zipf_s": 1.0},
    )
    arrivals = np.array([r.arrival_s for r in trace.requests])
    keep = int(np.searchsorted(arrivals, seconds))
    samples = np.random.default_rng(seed).integers(0, SERVE_INPUTS, size=arrivals.size)
    schedule = harness.Schedule(
        name=name, rate_rps=rate, arrival_s=arrivals[:keep],
        model=[r.model for r in trace.requests[:keep]],
        key=[r.tenant for r in trace.requests[:keep]],
        sample=samples[:keep],
    )
    return schedule, trace


def phase_seeds(seed: int) -> Dict[str, int]:
    """Distinct generator seeds for the fixed-rate phases of one run."""
    return {"light": 4 * seed + 1, "loaded": 4 * seed + 2}


def trace_digest(seed: int) -> str:
    """Digest of the light and loaded traces the seed renders."""
    seeds = phase_seeds(seed)
    _, light = render_schedule("light", LIGHT_RPS, seeds["light"], 0.0)
    _, loaded = render_schedule("loaded", LOADED_RPS, seeds["loaded"], 0.0)
    return hashlib.sha256((light.digest() + loaded.digest()).encode()).hexdigest()[:16]


def stored_digests() -> Dict[str, str]:
    return json.loads((HERE / "digests.json").read_text())


class ThreadFrontDoor:
    """Sync ``Gateway`` with thread replicas, driven from this thread."""

    def __init__(self, blobs: Dict[str, bytes]) -> None:
        from repro.serve import Gateway
        from repro.utils.errors import GatewayOverloaded

        self.overloaded = GatewayOverloaded
        self.gateway = Gateway()
        for name, blob in blobs.items():
            self.gateway.add_model(name, source=blob)

    def start(self) -> None:
        self.gateway.start()

    def send(self, schedule, inputs) -> harness.PhaseResult:
        gateway = self.gateway
        return harness.send_threaded(
            lambda m, x, k: gateway.submit(m, x, key=k), schedule, inputs, self.overloaded)

    def calibrate(self, light, flood, inputs) -> harness.Calibration:
        return harness.calibrate_threaded(light, flood, inputs)

    def stop(self) -> bool:
        """Stop and close within the timeout; False when shutdown hung."""
        stopper = threading.Thread(target=self.gateway.close, daemon=True)
        stopper.start()
        stopper.join(SHUTDOWN_TIMEOUT_S)
        return not stopper.is_alive()

    def restart(self) -> None:
        self.gateway.stop()
        self.gateway.start()


class AsyncFrontDoor:
    """``AsyncGateway`` with process replicas; its event loop runs on one
    sender thread and this thread hands it coroutines."""

    def __init__(self, blobs: Dict[str, bytes]) -> None:
        from repro.serve import AsyncGateway
        from repro.utils.errors import GatewayOverloaded

        self.overloaded = GatewayOverloaded
        # select() sleeps to the microsecond; epoll rounds every timeout up
        # to a whole millisecond, which would charge the sender's own
        # oversleep to every request.
        self.loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        self.thread = threading.Thread(target=self.loop.run_forever, name="perfbench-loop")
        self.thread.start()
        self.gateway = AsyncGateway(replica_backend="process")
        for name, blob in blobs.items():
            self.gateway.add_model(name, source=blob)

    def _call(self, coro, timeout: Optional[float] = None):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def start(self) -> None:
        self._call(self.gateway.start())

    def send(self, schedule, inputs) -> harness.PhaseResult:
        gateway = self.gateway
        return self._call(harness.send_async(
            lambda m, x, k: gateway.submit(m, x, key=k), schedule, inputs, self.overloaded))

    def calibrate(self, light, flood, inputs) -> harness.Calibration:
        return self._call(harness.calibrate_async(light, flood, inputs))

    def stop(self) -> bool:
        try:
            self._call(asyncio.wait_for(self.gateway.close(), SHUTDOWN_TIMEOUT_S),
                       SHUTDOWN_TIMEOUT_S + 5)
            ok = True
        except (asyncio.TimeoutError, TimeoutError):
            ok = False
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5.0)
        if not self.thread.is_alive():
            self.loop.close()
        return ok and not self.thread.is_alive()

    def restart(self) -> None:
        self._call(self.gateway.stop())
        self._call(self.gateway.start())


class ServeWorkload:
    """Open-loop serving: light and loaded phases plus a capacity search."""

    def __init__(self, seed: int, front_cls) -> None:
        self.seed = seed
        self.front_cls = front_cls
        self.front = None
        self.tracer: Optional[tracing.Tracer] = None

    def setup(self, run: Run) -> None:
        from repro.cli import synthetic_sparse_layers
        from repro.core import DeepSZEncoder
        from repro.serve import ArchiveMLP, ModelRuntime

        self.blobs, ratios, disagreement = {}, [], []
        self.inputs, self.reference = {}, {}
        rng = np.random.default_rng(self.seed)
        eval_x = np.random.default_rng(WEIGHT_SEED).standard_normal(
            (EVAL_SAMPLES, 784)).astype(np.float32)
        for index, name in enumerate(SERVE_MODELS):
            layers = synthetic_sparse_layers(SERVE_SPEC, seed=WEIGHT_SEED + index)
            model = DeepSZEncoder().encode(name, layers, {n: SERVE_BOUND for n in layers})
            blob = model.to_archive_bytes()
            self.blobs[name] = blob
            ratios.append(model.dense_bytes / len(blob))
            self.inputs[name] = rng.standard_normal((SERVE_INPUTS, 784)).astype(np.float32)
            with ModelRuntime(blob) as runtime:
                self.reference[name] = ArchiveMLP(runtime).forward(self.inputs[name])
                disagreement.append(
                    _top1_disagreement_pct(runtime, _dense_originals(layers), eval_x))
        self.ratio = float(np.mean(ratios))
        self.disagreement = float(np.mean(disagreement))

        digest = trace_digest(self.seed)
        stored = stored_digests()
        canary = trace_digest(0)
        run.check("trace generator unchanged (seed 0)", canary == stored["0"],
                  f"seed 0 renders {canary}, stored {stored['0']}")
        if str(self.seed) in stored:
            run.check(f"trace digest for seed {self.seed}", digest == stored[str(self.seed)],
                      f"rendered {digest}, stored {stored[str(self.seed)]}")
        run.notes["trace_digest"] = digest

        self.front = self.front_cls(self.blobs)
        self.front.start()
        warm, _ = render_schedule("warm-up", 500.0, 4 * self.seed + 3, 0.6, render_s=0.6)
        warm_phase = self.front.send(warm, self.inputs)
        warm_phase.check_outputs(self._ref)
        run.check("warm-up answered", warm_phase.errors == 0 and not warm_phase.hung,
                  f"{warm_phase.errors} of {warm_phase.sent} warm-up requests failed")
        gc.collect()
        gc.freeze()  # set-up objects stay out of every later collection

    def _ref(self, model: str, sample: int) -> np.ndarray:
        return self.reference[model][sample]

    def _send(self, run: Run, schedule, counted: bool = True) -> harness.PhaseResult:
        gc.collect()  # the harness's own garbage is not collected mid-phase
        phase = self.front.send(schedule, self.inputs)
        phase.check_outputs(self._ref)
        status = phase.status
        run.phase(
            schedule.name, phase.sent,
            int(np.count_nonzero(status == phase.OK)),
            int(np.count_nonzero(status == phase.REFUSED)),
            int(np.count_nonzero(status == phase.FAILED)),
            int(np.count_nonzero(status == phase.WRONG)),
            counted=counted,
            extra=f"{schedule.rate_rps:.0f} req/s offered, sender p99 lag {phase.lag_ms():.2f} ms"
            + "".join(f", {count} x {name}" for name, count in sorted(phase.exceptions.items())),
        )
        detail = f"{phase.hung} requests unanswered after {harness.DRAIN_TIMEOUT_S:.0f} s"
        if phase.hung:
            stats = self.front.gateway.stats()
            detail += "; queued/in flight per model: " + ", ".join(
                f"{name} {model.queue_depth}/{sum(r.inflight for r in model.replicas)}"
                for name, model in stats.models.items())
        run.check(f"{schedule.name} drained", phase.hung == 0, detail)
        return phase

    def _calibrate(self, run: Run) -> harness.Calibration:
        floor, _ = render_schedule("calibration", LIGHT_RPS, 4 * self.seed + 4, 0.5, 0.5)
        # Every flood request is due at once: the sender runs flat out.
        flood = harness.Schedule("flood", float("inf"), np.zeros(FLOOD_REQUESTS),
                                 floor.model[:1] * FLOOD_REQUESTS, floor.key[:1] * FLOOD_REQUESTS,
                                 np.zeros(FLOOD_REQUESTS, dtype=np.int64))
        calibration = self.front.calibrate(floor, flood, self.inputs)
        run.notes["harness"] = (
            f"null-gateway floor p50 {calibration.floor_p50_ms:.3f} ms, "
            f"ceiling {calibration.ceiling_rps:.0f} req/s")
        return calibration

    def measure(self, run: Run, seconds: float) -> None:
        seeds = phase_seeds(self.seed)
        if run.trace:
            self._measure_traced(run, seconds, seeds)
            return
        calibration = self._calibrate(run)
        light_s, loaded_s = 0.3 * seconds, 0.2 * seconds
        light = self._send(run, render_schedule("light", LIGHT_RPS, seeds["light"], light_s)[0])
        loaded = self._send(run, render_schedule("loaded", LOADED_RPS, seeds["loaded"], loaded_s)[0])

        def rung(rate: float, index: int, rung_s: float) -> harness.PhaseResult:
            schedule, _ = render_schedule(
                f"capacity rung {index}", rate, 4 * self.seed + 1000 + index, rung_s, rung_s)
            phase = self._send(run, schedule, counted=False)
            time.sleep(0.05)  # let the gateway go idle between rungs
            return phase

        search = harness.capacity_search(rung, loaded, calibration.ceiling_rps, 0.4 * seconds)
        # Rungs at or below the capacity found count towards the error rate.
        entries = run.phases[len(run.phases) - len(search.rungs):]
        for entry, (rate, passed, phase) in zip(entries, search.rungs):
            entry["extra"] += f", p99 {phase.p99_ms():.1f} ms, {'PASS' if passed else 'FAIL'}"
            if rate <= search.capacity_rps:
                entry["counted"] = True
                run.attempted += entry["sent"]
                run.failed += entry["refused"] + entry["failed"] + entry["wrong"]
                run.broken += entry["failed"] + entry["wrong"]

        m = run.metrics
        for prefix, phase in (("", light), ("loaded_", loaded)):
            lat = phase.latencies_s
            m[prefix + "p50_ms"] = _ms(harness.median(lat))
            value, pct, windows = harness.windowed_tail(lat)
            m[prefix + "tail_ms"] = _ms(value)
            whole, whole_pct, _ = harness.tail(lat)
            run.notes[prefix + "tail_ms"] = (
                f"median over {windows} windows of {harness.TAIL_WINDOW} requests of p{pct:.1f}; whole phase "
                f"p{whole_pct:.1f} {_ms(whole):.2f} ms; {lat.size} requests at "
                f"{phase.schedule.rate_rps:.0f} req/s")
        m["throughput_ops_s"] = search.capacity_rps
        run.notes["throughput_ops_s"] = (
            (">= " if search.censored else "")
            + f"{search.capacity_rps:.0f} req/s meets p99 <= {harness.SLO_P99_MS:.0f} ms and "
            f"errors <= {harness.SLO_MAX_ERROR_RATE:.0%}; p99 by rate "
            + ", ".join(f"{r:.0f}: {ph.p99_ms():.1f}" for r, _, ph in
                        [(LOADED_RPS, None, loaded)] + search.rungs))
        m["success_rate"] = 1.0 - run.failed / run.attempted if run.attempted else 0.0
        m["compression_ratio"] = self.ratio
        m["accuracy_loss_pct"] = self.disagreement
        run.notes["accuracy_loss_pct"] = (
            f"top-1 disagreement with the uncompressed models, {EVAL_SAMPLES} inputs")

    def _replica_stats(self):
        stats = self.front.gateway.stats()
        servers = [r.server for model in stats.models.values() for r in model.replicas]
        return stats, servers

    def _registry_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for sample in self.front.gateway.registry.samples():
            if sample.value is None:
                continue
            if sample.name == "repro_cache_events_total":
                key = "cache." + sample.labels.get("event", "")
            elif (sample.name in ("repro_worker_stage_seconds_total", "repro_worker_stage_total")
                  and sample.labels.get("stage") == "forward"):
                key = sample.name
            else:
                continue
            totals[key] = totals.get(key, 0.0) + float(sample.value)
        return totals

    def _measure_traced(self, run: Run, seconds: float, seeds: Dict[str, int]) -> None:
        from repro.serve import ArchiveMLP

        calibration = self._calibrate(run)
        light_s, loaded_s = 0.3 * seconds, 0.25 * seconds
        schedule, _ = render_schedule("light (untraced)", LIGHT_RPS, seeds["light"], light_s)
        plain = self._send(run, schedule)
        self.front.restart()  # per-run replica statistics start here
        self.tracer = tracing.Tracer()
        self.tracer.patch(ArchiveMLP, "forward", "nn.forward")
        try:
            schedule, _ = render_schedule("light (traced)", LIGHT_RPS, seeds["light"], light_s)
            traced = self._send(run, schedule)
            stats, servers = self._replica_stats()
            before = self._registry_totals()
            spans_before = len(self.tracer.spans)
            batches0 = sum(s.batches for s in servers)
            items0 = sum(s.batches * s.mean_batch_size for s in servers)
            rejected0 = stats.rejected
            schedule, _ = render_schedule("loaded (traced)", LOADED_RPS, seeds["loaded"], loaded_s)
            loaded = self._send(run, schedule)
        finally:
            self.tracer.uninstrument()
        after = self._registry_totals()
        stats_end, servers_end = self._replica_stats()

        m = run.metrics
        base = harness.median(plain.latencies_s)
        traced_p50 = harness.median(traced.latencies_s)
        m["trace.overhead_pct"] = 100.0 * (traced_p50 - base) / base
        m["serve.submit_us"] = harness.median(traced.submit_s[traced.ok_mask]) * 1e6
        weights = np.array([s.requests for s in servers], dtype=np.float64)
        p50 = np.array([s.latencies_ms.get("p50", 0.0) for s in servers])
        p99 = np.array([s.latencies_ms.get("p99", 0.0) for s in servers])
        m["serve.replica.p50_ms"] = float(np.average(p50, weights=weights))
        m["serve.replica.p99_ms"] = float(np.average(p99, weights=weights))
        m["serve.hop_ms"] = _ms(traced_p50) - m["serve.replica.p50_ms"]
        batches = sum(s.batches for s in servers_end) - batches0
        items = sum(s.batches * s.mean_batch_size for s in servers_end) - items0
        m["serve.batches"] = float(batches)
        m["serve.mean_batch_size"] = items / batches if batches else 0.0
        m["serve.rejected"] = float(stats_end.rejected - rejected0)
        hits, misses = after.get("cache.hits", 0.0), after.get("cache.misses", 0.0)
        m["serve.cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        if hits + misses == 0:
            run.notes["serve.cache.hit_rate"] = "n/a: workers serve from shared memory"
        forward_spans = [s for s in self.tracer.spans[spans_before:] if s[tracing.NAME] == "nn.forward"]
        if forward_spans:
            m["nn.forward_us_per_batch"] = float(np.mean(
                [s[tracing.END] - s[tracing.START] for s in forward_spans])) * 1e6
        else:
            count = after.get("repro_worker_stage_total", 0.0) - before.get("repro_worker_stage_total", 0.0)
            secs = (after.get("repro_worker_stage_seconds_total", 0.0)
                    - before.get("repro_worker_stage_seconds_total", 0.0))
            m["nn.forward_us_per_batch"] = secs / count * 1e6 if count else 0.0
        m["harness.lag_ms"] = loaded.lag_ms()
        m["harness.floor_p50_ms"] = calibration.floor_p50_ms
        m["harness.ceiling_rps"] = calibration.ceiling_rps
        m["cpu_ms_per_op"] = _ms(loaded.cpu_s / max(int(np.count_nonzero(loaded.ok_mask)), 1))
        run.notes["cpu_ms_per_op"] = f"at {LOADED_RPS:.0f} req/s, process and its workers"

    def close(self, run: Run) -> None:
        if self.front is None:
            return
        run.check("gateway stopped within timeout", self.front.stop(),
                  f"{SHUTDOWN_TIMEOUT_S:.0f} s")
        if self.front_cls is AsyncFrontDoor:
            from repro.serve import shared_weight_store

            active = shared_weight_store().active_segments()
            run.check("no active shared segments", not active, ", ".join(active))
            leaked = harness.leaked_segments()
            run.check("no repro_* segment left in /dev/shm", not leaked, ", ".join(leaked))


def build(name: str, seed: int):
    """The workload named on the command line (``run.py`` lists the names)."""
    if name == "compress":
        return CompressWorkload(seed)
    if name == "cold_start":
        return ColdStartWorkload(seed)
    if name == "serve_thread":
        return ServeWorkload(seed, ThreadFrontDoor)
    if name == "serve_process":
        return ServeWorkload(seed, AsyncFrontDoor)
    raise ValueError(f"unknown workload {name!r}")
