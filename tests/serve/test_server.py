"""Tests for the dynamic-batching inference :class:`Server`.

:class:`TestReplicaBatching` drives the one batching loop through both
replica backends: the thread :class:`Server` and a process replica whose
worker builds the test-double network from its (picklable) class.
"""

import math
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.serve import ProcessServer, Server, shared_weight_store
from repro.utils.errors import ValidationError


class FakeNetwork:
    """Deterministic stand-in: 'probabilities' are a linear map of the input."""

    def __init__(self, in_dim=6, classes=4):
        rng = np.random.default_rng(3)
        self.w = rng.normal(0, 1, (in_dim, classes)).astype(np.float32)
        self.batch_shapes = []
        self._lock = threading.Lock()

    def set_weights(self, name, weights):
        """Ignore the archive weights a process replica installs."""

    def forward(self, x, training=False):
        assert not training
        with self._lock:
            self.batch_shapes.append(x.shape)
        return x @ self.w


class BrokenNetwork(FakeNetwork):
    def forward(self, x, training=False):
        raise RuntimeError("no weights")


@contextmanager
def running_replica(backend, network_cls, archive_blob, **kwargs):
    """A started replica of ``backend`` serving ``network_cls()``."""
    if backend == "thread":
        with Server(network_cls(), **kwargs) as server:
            yield server
        return
    store = shared_weight_store()
    shared = store.acquire(archive_blob)
    server = ProcessServer("test/0", network_factory=network_cls, **kwargs)
    server.set_shared(shared)
    try:
        with server:
            yield server
    finally:
        store.release(shared)


class FakeRuntime:
    def __init__(self):
        self.loaded = False

    def load_into(self, network):
        self.loaded = True


class TestServing:
    def test_single_request_matches_direct_forward(self):
        net = FakeNetwork()
        x = np.arange(6, dtype=np.float32)
        with Server(net, batch_size=4) as server:
            probs = server.infer(x, timeout=5)
        np.testing.assert_allclose(probs, (x[None, :] @ net.w)[0], rtol=1e-6)

    def test_runtime_weights_installed_on_start(self):
        runtime = FakeRuntime()
        with Server(FakeNetwork(), runtime):
            pass
        assert runtime.loaded

    def test_concurrent_requests_are_batched_and_correct(self):
        net = FakeNetwork()
        rng = np.random.default_rng(11)
        samples = rng.normal(0, 1, (120, 6)).astype(np.float32)
        expected = samples @ net.w
        with Server(net, batch_size=16, max_batch_delay=0.01) as server:
            futures = [server.submit(s) for s in samples]
            results = [f.result(timeout=10) for f in futures]
            stats = server.stats()
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, rtol=1e-6)
        assert stats.requests == 120
        assert stats.batches <= 120
        assert stats.mean_batch_size >= 1.0
        # Dynamic batching must have coalesced *some* of the burst.
        assert any(shape[0] > 1 for shape in net.batch_shapes)
        assert set(stats.latencies_ms) == {"p50", "p90", "p99"}
        assert stats.throughput_rps > 0

    def test_many_client_threads(self):
        net = FakeNetwork()
        rng = np.random.default_rng(5)
        samples = rng.normal(0, 1, (8, 20, 6)).astype(np.float32)
        errors = []
        with Server(net, batch_size=8, max_batch_delay=0.005) as server:
            def client(idx):
                try:
                    for s in samples[idx]:
                        got = server.infer(s, timeout=10)
                        np.testing.assert_allclose(got, s @ net.w, rtol=1e-6)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()
        assert not errors
        assert stats.requests == 160

    def test_forward_error_propagates_to_futures(self):
        with Server(BrokenNetwork()) as server:
            future = server.submit(np.zeros(4, dtype=np.float32))
            with pytest.raises(RuntimeError, match="no weights"):
                future.result(timeout=5)
            stats = server.stats()
        assert stats.failures == 1

    def test_submit_requires_running_server(self):
        server = Server(FakeNetwork())
        with pytest.raises(ValidationError, match="not running"):
            server.submit(np.zeros(6, dtype=np.float32))
        server.start()
        server.stop()
        with pytest.raises(ValidationError, match="not running"):
            server.submit(np.zeros(6, dtype=np.float32))

    def test_restart_serves_again(self):
        """stop() may leave its sentinel unconsumed; a restarted server must
        not inherit it (fresh queue per start)."""
        net = FakeNetwork()
        x = np.ones(6, dtype=np.float32)
        server = Server(net, batch_size=4)
        for _ in range(3):
            server.start()
            np.testing.assert_allclose(
                server.infer(x, timeout=5), x @ net.w, rtol=1e-6
            )
            server.stop()
            # Stats cover one run: each restart resets the counters.
            assert server.stats().requests == 1

    def test_classify(self):
        net = FakeNetwork()
        x = np.ones(6, dtype=np.float32)
        with Server(net) as server:
            label = server.classify(x, timeout=5)
        assert label == int(np.argmax(x @ net.w))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            Server(FakeNetwork(), batch_size=0)
        with pytest.raises(ValidationError):
            Server(FakeNetwork(), max_batch_delay=-1)


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestReplicaBatching:
    @pytest.mark.parametrize(
        "network_cls", [FakeNetwork, BrokenNetwork], ids=["ok", "failing"]
    )
    def test_back_to_back_requests_fold_into_batches(
        self, backend, network_cls, archive_blob
    ):
        """n back-to-back requests take ceil(n / batch_size) forward passes.

        The delay far exceeds the submit burst, so batches close on size
        and the trailing partial one on its deadline.  A failing pass fails
        every request in its batch and still counts as a batch, on both
        backends alike.
        """
        n, batch_size = 10, 4
        samples = np.random.default_rng(7).normal(0, 1, (n, 6)).astype(np.float32)
        with running_replica(
            backend, network_cls, archive_blob, batch_size=batch_size, max_batch_delay=1.0
        ) as server:
            futures = [server.submit(x) for x in samples]
            if network_cls is BrokenNetwork:
                for future in futures:
                    with pytest.raises(RuntimeError, match="no weights"):
                        future.result(timeout=30)
            else:
                w = FakeNetwork().w
                for future, x in zip(futures, samples):
                    np.testing.assert_allclose(future.result(timeout=30), x @ w, rtol=1e-6)
            assert server.inflight == 0
        stats = server.stats()
        assert stats.requests == n
        assert stats.batches == math.ceil(n / batch_size)
        assert stats.mean_batch_size == pytest.approx(n / stats.batches)
        assert stats.failures == (n if network_cls is BrokenNetwork else 0)

    def test_cancelled_request_does_not_kill_replica(self, backend, archive_blob):
        x = np.ones(6, dtype=np.float32)
        # Two-request batches behind a long delay: the first request parks
        # in the open batch, where the caller cancels it.
        with running_replica(
            backend, FakeNetwork, archive_blob, batch_size=2, max_batch_delay=30.0
        ) as server:
            cancelled = server.submit(x)
            assert cancelled.cancel()
            future = server.submit(x)  # fills the batch
            np.testing.assert_allclose(
                future.result(timeout=30), x @ FakeNetwork().w, rtol=1e-6
            )
            assert server.inflight == 0
            server.stop()
        assert cancelled.cancelled()
        stats = server.stats()
        assert (stats.requests, stats.batches, stats.failures) == (2, 1, 0)
