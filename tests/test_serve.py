"""Tests for the tuning daemon: protocol, broker, caches, and the
concurrency contract — coalescing is bit-identical to running alone,
budgets degrade instead of crashing, and backpressure rejects with a
retry hint instead of queueing without bound."""

import json
import threading

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
        broker = MeasurementBroker().start()
        broker.stop()
        with pytest.raises(RuntimeError):
            broker.submit(None, [])


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
