"""Serve-layer drift additions: the ``watch`` op, plus the accounting
fixes that rode along (locked request counting, LRU eviction visibility).
"""

from __future__ import annotations

import threading

import pytest

from repro.serve import protocol
from repro.serve.client import TuningClient
from repro.serve.server import ServerThread, TuningServer
from repro.serve.state import ClientAccount, _LRU


# -- _LRU evictions ------------------------------------------------------------


def test_lru_counts_evictions():
    lru = _LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.evictions == 0
    lru.put("c", 3)  # drops "a"
    assert lru.evictions == 1
    assert lru.get("a") is None
    snap = lru.stats_snapshot()
    assert snap["evictions"] == 1
    assert snap["entries"] == 2
    # Overwriting an existing key evicts nothing.
    lru.put("c", 4)
    assert lru.evictions == 1


# -- ClientAccount.inc_requests ------------------------------------------------


def test_request_count_exact_under_concurrency():
    account = ClientAccount("c")
    n_threads, per_thread = 8, 500

    def hammer():
        for _ in range(per_thread):
            account.inc_requests()

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert account.snapshot()["requests"] == n_threads * per_thread


# -- validate_watch ------------------------------------------------------------


def test_validate_watch_defaults_and_overrides():
    out = protocol.validate_watch({"kernel": "convolution", "device": "nvidia"})
    assert out["n_train"] == protocol.WATCH_DEFAULTS["n_train"]
    assert out["steps"] == protocol.WATCH_DEFAULTS["steps"]
    assert out["stream"] is True  # watch streams by default
    out = protocol.validate_watch({
        "kernel": "convolution", "device": "nvidia",
        "steps": 10, "interval_s": 5, "retune_window": 4,
        "drift": "thermal-throttle", "stream": False,
    })
    assert out["steps"] == 10
    assert out["interval_s"] == 5.0
    assert out["retune_window"] == 4
    assert out["drift"] == "thermal-throttle"
    assert out["stream"] is False


@pytest.mark.parametrize("req", [
    {"device": "nvidia"},                                      # no kernel
    {"kernel": "", "device": "nvidia"},                        # empty kernel
    {"kernel": "convolution", "device": "nvidia", "steps": -1},
    {"kernel": "convolution", "device": "nvidia", "steps": 1.5},
    {"kernel": "convolution", "device": "nvidia", "retune_window": 0},
    {"kernel": "convolution", "device": "nvidia", "interval_s": -2},
    {"kernel": "convolution", "device": "nvidia", "drift": 42},
    {"kernel": "convolution", "device": "nvidia", "n_train": True},
])
def test_validate_watch_rejects_bad_requests(req):
    with pytest.raises(protocol.ProtocolError):
        protocol.validate_watch(req)


# -- end-to-end watch ----------------------------------------------------------


@pytest.mark.slow
def test_watch_end_to_end_with_drift_and_clean_drain():
    events = []
    server = TuningServer(max_pending=4, max_workers=2)
    with ServerThread(server) as port:
        with TuningClient("127.0.0.1", port, timeout=300) as client:
            reply = client.watch(
                "convolution", "nvidia",
                n_train=120, m_candidates=12, seed=7,
                steps=60, interval_s=30.0, retune_window=16,
                drift="thermal-throttle:onset_s=1200,ramp_s=120,"
                      "throttle_factor=1.5",
                on_event=lambda e: events.append(e),
            )
            stats = client.stats()

    res = reply["result"]
    assert res["alarms"] >= 1
    assert len(res["retunes"]) >= 1
    assert res["steps"] == 60
    assert "incumbent_config" in res
    assert res["initial"]["failed"] is False
    assert "detector" in res
    # Cost accounting flowed back and was charged to the initiator.
    assert reply["cost"]["total_s"] > 0
    assert reply["account"]["campaigns"] == 1
    assert reply["account"]["spent_s"] == pytest.approx(
        reply["cost"]["total_s"]
    )
    # The event stream carried the drift story live.
    names = {e["record"].get("name") for e in events}
    assert "drift.alarm" in names
    assert "online.retune" in names
    # Every event frame is tagged with the watch identity.
    assert all(e["key"]["watch"] == 1 for e in events)
    # Server bookkeeping: watch counted, nothing left in flight, caches
    # expose the new evictions counter.
    assert stats["counters"]["watches"] == 1
    assert stats["counters"]["errors"] == 0
    assert stats["inflight"] == 0
    assert "evictions" in stats["result_cache"]
    assert "evictions" in stats["model_cache"]
    assert server.draining


@pytest.mark.slow
def test_watch_rejects_unknown_profiles_and_drains():
    server = TuningServer(max_pending=4, max_workers=2)
    with ServerThread(server) as port:
        with TuningClient("127.0.0.1", port, timeout=60) as client:
            with pytest.raises(RuntimeError, match="drift"):
                client.watch(
                    "convolution", "nvidia", steps=1,
                    drift="definitely-not-a-profile",
                )
            with pytest.raises(RuntimeError, match="kernel"):
                client.watch("nope", "nvidia", steps=1)
            # The connection survived both errors.
            assert client.ping()


@pytest.mark.parametrize("bad", [{"n_train": 5}, {"seed": -1}])
def test_invalid_watch_gets_error_before_any_ack(bad):
    """A watch is a TuneRequest: a value the request rejects is answered
    with ``error`` at admission, and no campaign thread starts."""
    server = TuningServer(max_pending=4, max_workers=1)
    with ServerThread(server) as port:
        with TuningClient("127.0.0.1", port, timeout=60) as client:
            client.send({"op": "watch", "id": "w", "kernel": "convolution",
                         "device": "nvidia", "steps": 1, **bad})
            reply = client.recv()
            assert reply["type"] == "error", reply
            assert reply["id"] == "w"
            assert client.stats()["counters"]["watches"] == 0


# -- drift-smoke onset probe ---------------------------------------------------


def test_smoke_probe_equals_the_watch_initial_tune_cost():
    """``make drift-smoke`` places the drift onset after the watch's
    initial tune, probed locally.  The probe must run the watch's own
    path (an OnlineTuner, which pins freezing off), or the onset lands
    while the server-side watch is still tuning."""
    from repro.serve.campaigns import run_campaign, watch_request
    from repro.serve.smoke import _probe_tune_cost_s

    params = protocol.validate_watch({
        "kernel": "convolution", "device": "nvidia", "n_train": 300,
        "m_candidates": 30, "seed": 0, "steps": 0,
    })
    watch = run_campaign(watch_request(params))
    probe = _probe_tune_cost_s("convolution", "nvidia", 300, 30, 0)
    assert probe == watch["result"]["initial_cost_s"]
