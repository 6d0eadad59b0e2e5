"""Tests for the tuning daemon: protocol, broker, caches, and the
concurrency contract — coalescing is bit-identical to running alone,
budgets degrade instead of crashing, and backpressure rejects with a
retry hint instead of queueing without bound."""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import Context, MLAutoTuner, TunerSettings
from repro.core.measure import Measurer
from repro.core.request import TuneRequest
from repro.kernels import get_benchmark
from repro.serve import protocol
from repro.serve.broker import MeasurementBroker
from repro.serve.client import ServerRejected, TuningClient, run_load
from repro.serve.server import ServerThread, TuningServer
from repro.serve.state import ClientAccount, ResultCache
from repro.simulator.devices import get_device

SMALL = dict(n_train=300, m_candidates=30)


def serial_tune(kernel="convolution", device="nvidia", seed=5, **kw):
    """The CLI `tune` path, verbatim — the bit-identity reference."""
    spec = get_benchmark(kernel)
    ctx = Context(get_device(device), seed=seed)
    settings = TunerSettings(**{**SMALL, **kw})
    tuner = MLAutoTuner(ctx, spec, settings)
    result = tuner.tune(np.random.default_rng(seed), model_seed=seed)
    return result, ctx.ledger


# -- protocol ------------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        line = protocol.encode({"op": "ping", "id": "x"})
        assert protocol.decode(line) == {"op": "ping", "id": "x"}

    def test_rejects_junk(self):
        for bad in [b"", b"not json\n", b"[1, 2]\n", b'{"no": "op"}\n']:
            with pytest.raises(protocol.ProtocolError):
                protocol.decode(bad)

    def test_validate_tune_applies_defaults(self):
        out = protocol.validate_tune({"kernel": "k", "device": "d"})
        assert out["n_train"] == protocol.TUNE_DEFAULTS["n_train"]
        assert out["budget_s"] is None and out["stream"] is False

    def test_validate_tune_rejects_bad_fields(self):
        base = {"kernel": "k", "device": "d"}
        for patch in [
            {"kernel": 3},
            {"n_train": "many"},
            {"n_train": 0},
            {"budget_s": -1.0},
            {"budget_s": True},
            {"faults": 7},
        ]:
            with pytest.raises(protocol.ProtocolError):
                protocol.validate_tune({**base, **patch})

    def test_non_finite_floats_stay_strict_json(self):
        line = protocol.encode({"x": float("nan"), "y": float("inf")})
        assert json.loads(line) == {"x": "nan", "y": "inf"}


# -- broker --------------------------------------------------------------------


class _StubMeasurer:
    """Records ``(name, thread)`` when its batch runs; may hold the turn
    until ``hold`` is set, or raise ``error``."""

    def __init__(self, ran, name, hold=None, error=None):
        self.ran, self.name, self.hold, self.error = ran, name, hold, error
        self.started = threading.Event()

    def measure_batch_direct(self, indices):
        self.started.set()
        if self.hold is not None:
            assert self.hold.wait(timeout=30)
        if self.error is not None:
            raise self.error
        self.ran.append((self.name, threading.current_thread()))
        return self.name


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestBroker:
    def test_batches_through_broker_are_bit_identical(self):
        spec = get_benchmark("convolution")
        rng = np.random.default_rng(0)
        indices = rng.integers(0, spec.space.size, size=60)

        direct = Measurer(Context(get_device("nvidia"), seed=1), spec)
        want = direct.measure_batch(indices)

        with MeasurementBroker() as broker:
            brokered = Measurer(
                Context(get_device("nvidia"), seed=1), spec, batcher=broker
            )
            got = brokered.measure_batch(indices)
            assert broker.stats_snapshot()["submissions"] == 1
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.times_s, want.times_s)
        np.testing.assert_array_equal(got.invalid_indices, want.invalid_indices)

    def test_concurrent_submissions_all_served(self):
        spec = get_benchmark("convolution")
        results = {}
        with MeasurementBroker() as broker:
            def worker(seed):
                m = Measurer(
                    Context(get_device("nvidia"), seed=seed), spec,
                    batcher=broker,
                )
                idx = np.random.default_rng(seed).integers(
                    0, spec.space.size, size=40
                )
                results[seed] = (m.measure_batch(idx), idx)
            threads = [
                threading.Thread(target=worker, args=(s,)) for s in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = broker.stats_snapshot()
        assert len(results) == 6
        assert stats["submissions"] == 6
        # Each equals its own standalone run (serial equivalence survives
        # the shared pump).
        for seed, (got, idx) in results.items():
            m = Measurer(Context(get_device("nvidia"), seed=seed), spec)
            want = m.measure_batch(idx)
            np.testing.assert_array_equal(got.times_s, want.times_s)

    def test_stopped_broker_refuses(self):
        broker = MeasurementBroker()
        broker.stop()
        with pytest.raises(RuntimeError):
            broker.submit(None, [])

    def test_batch_runs_on_the_submitting_thread(self):
        broker = MeasurementBroker()
        ran = []
        stub = _StubMeasurer(ran, "a")
        worker = threading.Thread(target=broker.submit, args=(stub, [1]))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert broker.submit(_StubMeasurer(ran, "b"), [2, 3]) == "b"
        assert ran == [("a", worker), ("b", threading.current_thread())]
        assert broker.stats_snapshot() == {
            "submissions": 2, "windows": 2, "configs": 3, "queue_depth": 0,
        }

    def test_held_turn_runs_later_submitters_in_arrival_order(self):
        broker = MeasurementBroker()
        ran, release = [], threading.Event()
        held = _StubMeasurer(ran, "held", hold=release)
        submitters = [threading.Thread(target=broker.submit, args=(held, [0]))]
        submitters[0].start()
        _wait_for(held.started.is_set)
        for i in range(4):
            t = threading.Thread(
                target=broker.submit, args=(_StubMeasurer(ran, i), [i])
            )
            submitters.append(t)
            t.start()
            # The next submitter arrives only once this one waits its turn.
            _wait_for(lambda: broker.stats_snapshot()["queue_depth"] == i + 1)
        assert ran == []
        release.set()
        for t in submitters:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in submitters)
        assert ran == [("held", submitters[0])] + [
            (i, submitters[i + 1]) for i in range(4)
        ]
        assert broker.stats_snapshot()["queue_depth"] == 0

    def test_engine_error_reaches_caller_and_the_turn_passes_on(self):
        broker = MeasurementBroker()
        ran = []
        with pytest.raises(ValueError, match="engine"):
            broker.submit(_StubMeasurer(ran, "bad", error=ValueError("engine")),
                          [1])
        assert broker.submit(_StubMeasurer(ran, "next"), [2]) == "next"
        assert broker.stats_snapshot()["configs"] == 1

    def test_turns_never_overlap_under_contention(self):
        """16 threads x 25 batches under a short switch interval: no two
        batches ever run at once, and no counter loses an update."""
        broker = MeasurementBroker()
        running, overlaps = [0], []

        class Exclusive:
            def measure_batch_direct(self, indices):
                running[0] += 1
                if running[0] != 1:
                    overlaps.append(running[0])
                time.sleep(0)  # invite a switch mid-batch
                running[0] -= 1
                return len(indices)

        def worker():
            for n in range(1, 26):
                assert broker.submit(Exclusive(), range(n)) == n

        threads = [threading.Thread(target=worker) for _ in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert overlaps == []
        assert broker.stats_snapshot() == {
            "submissions": 400, "windows": 400, "configs": 16 * 325,
            "queue_depth": 0,
        }

    def test_stop_returns_after_admitted_batches_then_refuses(self):
        broker = MeasurementBroker()
        ran, release = [], threading.Event()
        held = _StubMeasurer(ran, "held", hold=release)
        first = threading.Thread(target=broker.submit, args=(held, [0]))
        first.start()
        _wait_for(held.started.is_set)
        second = threading.Thread(
            target=broker.submit, args=(_StubMeasurer(ran, "queued"), [1])
        )
        second.start()
        _wait_for(lambda: broker.stats_snapshot()["queue_depth"] == 1)
        ran_when_stopped = []
        stopper = threading.Thread(
            target=lambda: (broker.stop(), ran_when_stopped.append(list(ran)))
        )
        stopper.start()
        stopper.join(timeout=0.2)
        assert stopper.is_alive()  # the held batch has not run yet
        release.set()
        for t in (first, second, stopper):
            t.join(timeout=30)
            assert not t.is_alive()
        assert [name for name, _ in ran_when_stopped[0]] == ["held", "queued"]
        with pytest.raises(RuntimeError):
            broker.submit(_StubMeasurer(ran, "late"), [2])
        assert len(ran) == 2


# -- state ---------------------------------------------------------------------


class TestState:
    def test_result_cache_lru_eviction(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_client_account_budget_clamp(self):
        acct = ClientAccount("c", budget_s=100.0)
        assert acct.effective_budget_s(None) == 100.0
        assert acct.effective_budget_s(40.0) == 40.0
        acct.charge({"run_s": 70.0})
        assert acct.remaining_s() == pytest.approx(30.0)
        assert acct.effective_budget_s(40.0) == pytest.approx(30.0)
        acct.charge({"run_s": 50.0})
        assert acct.exhausted()

    def test_unlimited_account_never_exhausts(self):
        acct = ClientAccount("c")
        acct.charge({"run_s": 1e9})
        assert not acct.exhausted()
        assert acct.effective_budget_s(5.0) == 5.0

    def test_campaign_key_identity(self):
        def key(seed=0, **kw):
            settings = TunerSettings(n_train=100, m_candidates=10, **kw)
            return TuneRequest("convolution", "nvidia", seed, settings=settings)

        a = key()
        assert a == key() and hash(a) == hash(key())
        assert a != key(seed=1)
        assert a != key(max_cost_s=5.0)


# -- the daemon ----------------------------------------------------------------


@pytest.fixture(scope="module")
def daemon():
    server = TuningServer(max_pending=4, max_workers=4)
    with ServerThread(server) as port:
        yield server, port


class TestServer:
    def test_ping_stats_and_unknown_op(self, daemon):
        _, port = daemon
        with TuningClient("127.0.0.1", port) as c:
            assert c.ping()
            stats = c.stats()
            assert stats["protocol"] == protocol.PROTOCOL_VERSION
            # Operator-facing backpressure fields: live pump queue depth
            # and the (empty, idle server) per-campaign breakdown list.
            assert stats["broker"]["queue_depth"] == 0
            assert stats["campaigns"] == []
            c.send({"op": "nope", "id": "x"})
            assert c.recv()["type"] == "error"

    def test_stats_reports_inflight_failure_breakdown(self):
        """The stats payload lists each in-flight campaign with its key
        fields, age and the measurer's live ``failure_breakdown()``."""
        from repro.core.online import OnlineSettings
        from repro.serve.server import _InFlight
        from repro.serve.state import WatchKey

        server = TuningServer()
        key = TuneRequest(
            kernel="convolution", device="nvidia", seed=3,
            settings=TunerSettings(n_train=50, m_candidates=10),
            faults="flaky-gpu",
        )
        flight = _InFlight(key)
        ctx = Context(get_device("nvidia"), seed=3, faults="flaky-gpu")
        m = Measurer(ctx, get_benchmark("convolution"))
        m.stats.n_transient = 4
        m.stats.n_retries = 2
        flight.measurer = m
        server.inflight[key] = flight
        # A watch campaign whose measurer has not registered yet.
        wkey = WatchKey(serial=1, request=TuneRequest(
            kernel="convolution", device="nvidia", seed=3,
            settings=TunerSettings(n_train=50, m_candidates=10),
            drift="thermal-throttle", online=OnlineSettings(steps=5),
        ))
        server.inflight[wkey] = _InFlight(wkey)

        stats = server.stats()
        entries = stats["campaigns"]
        assert len(entries) == 2
        tune_entry = next(e for e in entries if "watch" not in e)
        assert tune_entry["kernel"] == "convolution"
        assert tune_entry["faults"] == "flaky-gpu"
        assert tune_entry["age_s"] >= 0
        assert tune_entry["failure_breakdown"] == {
            "transient": 4, "retries": 2,
        }
        watch_entry = next(e for e in entries if "watch" in e)
        assert watch_entry["drift"] == "thermal-throttle"
        assert watch_entry["failure_breakdown"] == {}

    def test_bad_requests_keep_connection_alive(self, daemon):
        server, port = daemon
        campaigns = server.counters["campaigns"]
        with TuningClient("127.0.0.1", port) as c:
            c.sock.sendall(b"not json\n")
            assert c.recv()["type"] == "error"
            c.send({"op": "tune", "kernel": "no-such", "device": "nvidia"})
            assert c.recv()["type"] == "error"
            c.send({"op": "tune", "kernel": "convolution", "device": "no-such"})
            assert c.recv()["type"] == "error"
            c.send({"op": "tune", "kernel": "convolution", "device": "nvidia",
                    "faults": "bogus-profile"})
            assert c.recv()["type"] == "error"
            # Fewer stage-one samples than bagging folds: rejected at
            # admission with a typed error, never acked as a campaign.
            c.send({"op": "tune", "kernel": "convolution", "device": "nvidia",
                    "n_train": 5, "m_candidates": 3})
            reply = c.recv()
            assert reply["type"] == "error"
            assert "n_train must be >= k_bag" in reply["error"]
            assert c.ping()
        assert server.counters["campaigns"] == campaigns

    def test_concurrent_identical_requests_coalesce_bit_identical(self):
        """The tentpole contract: N concurrent identical requests run ONE
        campaign whose result is bit-identical to a serial tune()."""
        ref, ref_ledger = serial_tune(seed=11)
        server = TuningServer(max_pending=4, max_workers=4)
        results = []
        with ServerThread(server) as port:
            def go():
                with TuningClient("127.0.0.1", port) as c:
                    results.append(
                        c.tune("convolution", "nvidia", seed=11, **SMALL)
                    )
            threads = [threading.Thread(target=go) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == 6
        assert server.counters["campaigns"] == 1
        assert (
            server.counters["coalesced"] + server.counters["cache_hits"] == 5
        )
        first = results[0]["result"]
        assert all(r["result"] == first for r in results)
        assert first["best_index"] == ref.best_index
        assert first["best_time_s"] == ref.best_time_s
        assert results[0]["cost"]["total_s"] == ref_ledger.total_s

    def test_result_cache_replays_without_measuring(self, daemon):
        server, port = daemon
        with TuningClient("127.0.0.1", port) as c:
            r1 = c.tune("convolution", "nvidia", seed=21, **SMALL)
            campaigns_after_first = server.counters["campaigns"]
            r2 = c.tune("convolution", "nvidia", seed=21, **SMALL)
        assert not r1["cached"] and r2["cached"]
        assert r2["result"] == r1["result"]
        assert server.counters["campaigns"] == campaigns_after_first

    def test_different_keys_do_not_coalesce(self, daemon):
        server, port = daemon
        with TuningClient("127.0.0.1", port) as c:
            r1 = c.tune("convolution", "nvidia", seed=31, **SMALL)
            r2 = c.tune("convolution", "nvidia", seed=32, **SMALL)
        assert r1["result"] != r2["result"]

    def test_budget_exhaustion_degrades_not_crashes(self):
        """A campaign that hits its simulated-second budget mid-request
        returns a degraded result (budget_exhausted), and a client whose
        allowance is gone is rejected with a retry hint."""
        server = TuningServer(
            max_pending=4, max_workers=2, client_budget_s=30.0
        )
        with ServerThread(server) as port:
            with TuningClient("127.0.0.1", port) as c:
                r = c.tune("convolution", "nvidia", seed=41, **SMALL)
                assert r["result"]["degraded"]
                assert r["result"]["degraded_reason"] == "budget_exhausted"
                assert not r["result"]["failed"]  # still yields a pick
                assert r["account"]["spent_s"] > 0
                # The allowance is now spent: admission refuses.
                with pytest.raises(ServerRejected) as rej:
                    c.tune("convolution", "nvidia", seed=42, **SMALL)
                assert rej.value.reason == "client_budget_exhausted"
                assert rej.value.retry_after_s > 0
            # Budgets are per client: a fresh connection is admitted.
            with TuningClient("127.0.0.1", port) as c2:
                r2 = c2.tune("convolution", "nvidia", seed=41, **SMALL)
                assert r2["cached"]  # and the cache still serves it

    def test_backpressure_rejects_with_retry_hint(self):
        server = TuningServer(max_pending=1, max_workers=2)
        with ServerThread(server) as port:
            hold = {}
            def slow():
                with TuningClient("127.0.0.1", port) as c:
                    hold["r"] = c.tune(
                        "convolution", "nvidia", seed=51,
                        n_train=800, m_candidates=60,
                    )
            t = threading.Thread(target=slow)
            t.start()
            # Wait until the slow campaign occupies the only slot.
            while not server.inflight:
                pass
            with TuningClient("127.0.0.1", port) as c:
                with pytest.raises(ServerRejected) as rej:
                    c.tune("convolution", "intel", seed=52, **SMALL)
            assert rej.value.reason == "queue_full"
            assert rej.value.retry_after_s > 0
            assert server.counters["rejected"] == 1
            t.join()
            assert hold["r"]["result"]["best_index"] >= 0

    def test_streamed_events_reach_only_subscriber(self, daemon):
        _, port = daemon
        events = []
        with TuningClient("127.0.0.1", port) as c:
            r = c.tune(
                "convolution", "nvidia", seed=61, **SMALL,
                stream=True, on_event=events.append,
            )
        assert r["result"]["best_index"] >= 0
        kinds = {e["record"]["type"] for e in events}
        assert "span" in kinds  # tuner stage spans streamed live
        names = {
            e["record"].get("name")
            for e in events
            if e["record"]["type"] == "span"
        }
        assert "tune" in names

    def test_predict_serves_from_shared_model_cache(self, daemon):
        server, port = daemon
        with TuningClient("127.0.0.1", port) as c:
            r = c.tune("convolution", "nvidia", seed=71, **SMALL)
            best = r["result"]["best_config"]
            p = c.predict(
                "convolution", "nvidia", best,
                n_train=SMALL["n_train"], seed=71,
            )
            assert p["predicted_time_s"] > 0
            assert p["index"] == r["result"]["best_index"]
        # Another client reuses the same cached model (no new campaign).
        campaigns = server.counters["campaigns"]
        with TuningClient("127.0.0.1", port) as c2:
            p2 = c2.predict(
                "convolution", "nvidia", best,
                n_train=SMALL["n_train"], seed=71,
            )
        assert p2["predicted_time_s"] == p["predicted_time_s"]
        assert server.counters["campaigns"] == campaigns

    @pytest.mark.parametrize("field,value", [
        *((f, v) for f in ("n_train", "seed")
          for v in ("abc", [1], {"a": 1}, 1.9, True)),
        ("kernel", 3),
        ("device", None),
        ("config", [1]),
        ("fit_mode", "fast"),
    ])
    def test_malformed_predict_gets_typed_error(self, daemon, field, value):
        _, port = daemon
        with TuningClient("127.0.0.1", port) as c:
            c.send({"op": "predict", "id": "p", "kernel": "convolution",
                    "device": "nvidia", "config": {"wg_x": 32},
                    field: value})
            reply = c.recv()
            assert reply["type"] == "error"
            assert repr(field) in reply["error"]
            assert c.ping()

    @pytest.mark.parametrize("name,value", [
        ("wg_x", 4.9), ("use_image", True), ("wg_x", "1"),
    ])
    def test_non_integer_config_value_gets_typed_error(
        self, daemon, name, value
    ):
        """With the model cached, a config value that is not a JSON
        integer is refused, never truncated or cast."""
        _, port = daemon
        with TuningClient("127.0.0.1", port) as c:
            r = c.tune("convolution", "nvidia", seed=71, **SMALL)
            config = {**r["result"]["best_config"], name: value}
            c.send({"op": "predict", "id": "p", "kernel": "convolution",
                    "device": "nvidia", "n_train": SMALL["n_train"],
                    "seed": 71, "config": config})
            reply = c.recv()
            assert reply["type"] == "error"
            assert repr(name) in reply["error"]
            assert c.ping()

    @pytest.mark.parametrize("field,value", [
        ("index", 4.9), ("index", True), ("index", "12"),
        ("kernel", ["convolution"]),
    ])
    def test_malformed_truth_gets_typed_error(self, daemon, field, value):
        _, port = daemon
        with TuningClient("127.0.0.1", port) as c:
            c.send({"op": "truth", "id": "t", "kernel": "convolution",
                    "device": "nvidia", "index": 4, field: value})
            reply = c.recv()
            assert reply["type"] == "error"
            assert repr(field) in reply["error"]
            assert c.ping()

    def test_batches_run_on_campaign_threads(self, daemon, monkeypatch):
        """No pump: each batch takes its turn on the campaign thread that
        submitted it, and no broker thread exists."""
        server, port = daemon
        seen = []
        submit = server.broker.submit

        def spy(measurer, indices):
            seen.append((threading.current_thread().name,
                         {t.name for t in threading.enumerate()}))
            return submit(measurer, indices)

        monkeypatch.setattr(server.broker, "submit", spy)
        with TuningClient("127.0.0.1", port) as c:
            r = c.tune("convolution", "nvidia", seed=91, **SMALL)
        assert r["result"]["best_index"] >= 0
        assert seen
        for name, alive in seen:
            assert name.startswith("campaign")
            assert "measurement-broker" not in alive

    def test_predict_without_model_is_an_error(self, daemon):
        _, port = daemon
        with TuningClient("127.0.0.1", port) as c:
            with pytest.raises(RuntimeError, match="no model cached"):
                c.predict("convolution", "amd", {"wg_x": 1}, seed=999)

    def test_truth_computes_once_across_concurrent_clients(self, tmp_path):
        """The shared-oracle contract: N clients asking the same
        ground-truth question cost exactly one compute, persisted once."""
        server = TuningServer(
            max_pending=4, max_workers=2, oracle_store=tmp_path / "store"
        )
        got = []
        with ServerThread(server) as port:
            def ask():
                with TuningClient("127.0.0.1", port) as c:
                    got.append(c.truth("convolution", "nvidia", 12345))
            threads = [threading.Thread(target=ask) for _ in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.oracles.stats_snapshot()
        assert len({g["true_time_s"] for g in got}) == 1
        # One entry computed and saved, no matter how many clients asked.
        assert stats["partial_entries_saved"] == 1

    def test_graceful_drain_finishes_inflight_work(self):
        server = TuningServer(max_pending=4, max_workers=2)
        thread = ServerThread(server)
        port = thread.start()
        try:
            hold = {}
            def tune():
                with TuningClient("127.0.0.1", port) as c:
                    hold["r"] = c.tune(
                        "convolution", "nvidia", seed=81, **SMALL
                    )
            t = threading.Thread(target=tune)
            t.start()
            while not server.inflight:
                pass
            with TuningClient("127.0.0.1", port) as c:
                c.shutdown()
            t.join(timeout=120)
            # The in-flight campaign completed and answered its client.
            assert hold["r"]["result"]["best_index"] >= 0
            assert server.draining and not server.inflight
        finally:
            thread.stop()


def _src_env():
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}


def test_stdio_daemon_drains_on_eof():
    """``repro serve --stdio`` serves one client over stdin/stdout; at EOF
    in-flight campaigns drain, so the tune's result is written before the
    daemon exits."""
    requests = [
        {"op": "ping", "id": "p"},
        {"op": "tune", "id": "t", "kernel": "convolution", "device": "nvidia",
         "n_train": 60, "m_candidates": 6},
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--stdio"],
        input=b"".join(protocol.encode(r) for r in requests),
        capture_output=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    seen = {(r["type"], r.get("id")) for r in replies}
    assert {("pong", "p"), ("ack", "t"), ("result", "t")} <= seen
    (result,) = [r for r in replies if r["type"] == "result"]
    assert result["result"]["n_trained"] > 0


def test_stdio_daemon_exits_after_shutdown_with_stdin_open():
    """A ``shutdown`` op drains the ``--stdio`` daemon and the process
    exits without waiting for EOF: stdin stays open the whole time."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--stdio"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_src_env(),
    )
    watchdog = threading.Timer(60, proc.kill)  # a silent daemon fails, not hangs
    watchdog.start()
    try:
        proc.stdin.write(protocol.encode({"op": "shutdown", "id": "s"}))
        proc.stdin.flush()
        reply = json.loads(proc.stdout.readline())
        assert (reply["type"], reply["id"]) == ("draining", "s")
        assert proc.wait(timeout=10) == 0, proc.stderr.read().decode()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
        proc.stderr.close()


def test_watch_imports_load_no_daemon():
    """``repro watch`` needs only ``repro.serve.campaigns`` and
    ``repro.serve.protocol``; the package must not pull in the daemon,
    the client or asyncio."""
    code = (
        "import sys, repro, repro.cli, repro.serve.campaigns\n"
        "print(sorted({'asyncio', 'repro.serve.server', 'repro.serve.client'}"
        " & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=_src_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


class TestLoadGenerator:
    def test_duplicate_heavy_load_coalesces(self):
        server = TuningServer(max_pending=4, max_workers=4)
        with ServerThread(server) as port:
            summary = run_load(
                "127.0.0.1", port,
                n_clients=4, requests_per_client=2,
                n_train=300, m_candidates=30,
            )
        assert summary["errors"] == []
        assert summary["completed"] == 8
        # 8 identical requests -> one campaign; everyone else shared.
        assert server.counters["campaigns"] == 1
        assert summary["coalesced"] + summary["cached"] == 7
        assert summary["p99_s"] >= summary["p50_s"] > 0
