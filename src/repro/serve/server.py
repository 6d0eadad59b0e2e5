"""The asyncio tuning daemon: ``python -m repro serve``.

One process owns the simulator and serves tuning campaigns to many
clients over a line-JSON protocol (TCP, or stdin/stdout with
``--stdio``).  The daemon exists because campaigns are expensive and
requests are redundant: a fleet asking "best convolution config for the
K40" should pay for *one* campaign, not N.

Architecture (one asyncio loop + two kinds of worker thread):

* connection handlers (async) — parse requests, run admission control,
  and subscribe clients to campaigns; every write goes through a
  per-connection queue so streamed events and results never interleave.
* campaign threads — a small ``ThreadPoolExecutor`` runs
  :func:`~repro.serve.campaigns.run_campaign` for a tune or a watch;
  results come back to the loop via ``call_soon_threadsafe``.
* the measurement broker thread — every campaign's measurements, a
  watch's monitoring probes included, flow through one
  :class:`~repro.serve.broker.MeasurementBroker` pump.

Request lifecycle: build the :class:`~repro.core.request.TuneRequest`
(a bad value gets ``error`` before any ``ack``); result-cache hit ->
answer immediately; tune already in flight -> coalesce (subscribe to the
one campaign); otherwise admit
(bounded by ``max_pending``; beyond it the client gets ``rejected`` with
a ``retry_after_s`` hint), clamp the campaign budget to the client's
remaining allowance, and launch.  ``shutdown`` drains: in-flight
campaigns finish and answer their subscribers, new work is rejected,
then the server closes.  See docs/serving.md for the protocol walk.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.core.request import TuneRequest
from repro.core.tuner import TunerSettings
from repro.kernels import BENCHMARKS, get_benchmark
from repro.simulator.devices import DEVICES

from repro.serve import protocol
from repro.serve.broker import MeasurementBroker
from repro.serve.campaigns import run_campaign, watch_request
from repro.serve.state import (
    ClientAccount,
    ModelCache,
    ResultCache,
    WatchKey,
)


class _InFlight:
    """One running campaign plus everyone waiting on it."""

    __slots__ = ("key", "subscribers", "sinks", "started_at", "measurer")

    def __init__(self, key) -> None:
        self.key = key
        self.subscribers: List["_Connection.Pending"] = []
        self.sinks: List[Any] = []  # thread-safe event fan-out callables
        self.started_at = time.perf_counter()
        # The campaign's Measurer, registered from the worker thread once
        # constructed; lets the stats op report live failure_breakdown().
        self.measurer: Optional[Any] = None


class _Connection:
    """Per-client state: account, serialized writer, pending requests."""

    class Pending:
        __slots__ = ("conn", "req_id", "stream", "initiator")

        def __init__(self, conn, req_id, stream, initiator):
            self.conn = conn
            self.req_id = req_id
            self.stream = stream
            self.initiator = initiator

    def __init__(self, server: "TuningServer", name: str, writer) -> None:
        self.server = server
        self.name = name
        self.writer = writer
        self.account = ClientAccount(name, budget_s=server.client_budget_s)
        self.outbox: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()

    def send(self, obj: Dict[str, Any]) -> None:
        """Queue one response line (loop thread only)."""
        self.outbox.put_nowait(obj)

    def send_threadsafe(self, obj: Dict[str, Any]) -> None:
        self.server.loop.call_soon_threadsafe(self.send, obj)

    async def drain_writer(self) -> None:
        """The connection's single writer task."""
        while True:
            obj = await self.outbox.get()
            if obj is None:
                break
            try:
                self.writer.write(protocol.encode(obj))
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                break


class TuningServer:
    """The daemon.  Construct, then :meth:`serve_forever` (TCP) or
    :meth:`run_stdio`; tests drive :meth:`start`/:meth:`shutdown`
    directly on an existing loop."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 8,
        max_workers: int = 4,
        client_budget_s: Optional[float] = None,
        result_cache_size: int = 128,
        model_cache_size: int = 32,
        oracle_store=None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.client_budget_s = client_budget_s
        self.results = ResultCache(result_cache_size)
        self.models = ModelCache(model_cache_size)
        self.broker = MeasurementBroker()
        # Keyed by TuneRequest (tune: coalescable) or WatchKey (unique).
        self.inflight: Dict[Any, _InFlight] = {}
        self.counters: Dict[str, int] = {
            "requests": 0,
            "campaigns": 0,
            "watches": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "rejected": 0,
            "errors": 0,
        }
        self.draining = False
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="campaign"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped = asyncio.Event()
        self._conn_seq = 0
        self._watch_seq = 0
        self._avg_wall_s = 1.0  # EWMA of campaign wall time (retry hints)
        from repro.experiments.oracle_store import OracleProvider

        self.oracles = OracleProvider(store=oracle_store)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        self.loop = asyncio.get_running_loop()
        self.broker.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self) -> None:
        await self.start()
        print(
            f"[serve] listening on {self.host}:{self.port} "
            f"(max_pending={self.max_pending})",
            file=sys.stderr,
            flush=True,
        )
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: finish in-flight campaigns, then stop."""
        self.draining = True
        while self.inflight:
            await asyncio.sleep(0.01)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=True)
        self.broker.stop()
        self._stopped.set()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._conn_seq += 1
        conn = _Connection(self, f"client-{self._conn_seq}", writer)
        writer_task = asyncio.create_task(conn.drain_writer())
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                await self._dispatch_line(conn, line)
        except (ConnectionError, asyncio.CancelledError):
            # CancelledError: the loop is tearing handlers down during
            # shutdown — finish cleanup and exit quietly, don't re-raise
            # into the stream protocol's done-callback.
            pass
        finally:
            conn.outbox.put_nowait(None)
            with contextlib.suppress(asyncio.CancelledError):
                await writer_task
            writer.close()

    async def run_stdio(self) -> None:
        """Serve one client over stdin/stdout (no sockets; e.g. an IDE)."""
        self.loop = asyncio.get_running_loop()
        self.broker.start()

        class _StdoutWriter:
            def write(self, data: bytes) -> None:
                sys.stdout.write(data.decode("utf-8"))
                sys.stdout.flush()

            async def drain(self) -> None:
                return None

        conn = _Connection(self, "stdio", _StdoutWriter())
        writer_task = asyncio.create_task(conn.drain_writer())
        while True:
            line = await self.loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                break
            await self._dispatch_line(conn, line.encode("utf-8"))
            if self._stopped.is_set():
                break
        self.draining = True
        while self.inflight:
            await asyncio.sleep(0.01)
        conn.outbox.put_nowait(None)
        await writer_task
        self._pool.shutdown(wait=True)
        self.broker.stop()

    async def _dispatch_line(self, conn: _Connection, line: bytes) -> None:
        self.counters["requests"] += 1
        conn.account.inc_requests()
        try:
            req = protocol.decode(line)
        except protocol.ProtocolError as exc:
            self.counters["errors"] += 1
            conn.send(protocol.response("error", None, error=str(exc)))
            return
        req_id = req.get("id")
        op = req["op"]
        try:
            if op == "ping":
                conn.send(protocol.response("pong", req_id))
            elif op == "stats":
                conn.send(
                    protocol.response("stats", req_id, stats=self.stats())
                )
            elif op == "tune":
                self._handle_tune(conn, req_id, req)
            elif op == "watch":
                self._handle_watch(conn, req_id, req)
            elif op == "predict":
                self._handle_predict(conn, req_id, req)
            elif op == "truth":
                self._handle_truth(conn, req_id, req)
            elif op == "shutdown":
                conn.send(protocol.response("draining", req_id))
                asyncio.create_task(self.shutdown())
            else:
                self.counters["errors"] += 1
                conn.send(
                    protocol.response(
                        "error", req_id, error=f"unknown op {op!r}"
                    )
                )
        except protocol.ProtocolError as exc:
            self.counters["errors"] += 1
            conn.send(protocol.response("error", req_id, error=str(exc)))
        except Exception as exc:  # a handler bug must not kill the client
            self.counters["errors"] += 1
            conn.send(
                protocol.response(
                    "error", req_id,
                    error=f"internal error: {type(exc).__name__}: {exc}",
                )
            )

    # -- tune ------------------------------------------------------------------

    def _reject(self, conn, req_id, reason: str) -> None:
        self.counters["rejected"] += 1
        # Hint scales with depth: a full queue needs about one campaign's
        # wall time per slot to clear.
        backlog = max(1, len(self.inflight))
        conn.send(
            protocol.response(
                "rejected",
                req_id,
                reason=reason,
                retry_after_s=round(self._avg_wall_s * backlog, 3),
            )
        )

    def _handle_tune(self, conn: _Connection, req_id, req) -> None:
        params = protocol.validate_tune(req)
        try:  # the request validates itself: reject before any ack
            key = TuneRequest(
                kernel=params["kernel"],
                device=params["device"],
                seed=params["seed"],
                strategy=params["strategy"],
                settings=TunerSettings(
                    n_train=params["n_train"],
                    m_candidates=params["m_candidates"],
                    max_cost_s=params["budget_s"],
                    fit_mode=params["fit_mode"],
                ),
                faults=params["faults"],
            )
        except ValueError as exc:
            raise protocol.ProtocolError(str(exc)) from None
        if conn.account.exhausted():
            self._reject(conn, req_id, "client_budget_exhausted")
            return

        # The key carries the effective budget (clamped by the client's
        # allowance): a differently-budgeted run may degrade differently.
        budget = conn.account.effective_budget_s(params["budget_s"])
        if budget != params["budget_s"]:
            key = replace(key, settings=replace(key.settings, max_cost_s=budget))
        pending = _Connection.Pending(
            conn, req_id, params["stream"], initiator=False
        )

        cached = self.results.get(key)
        if cached is not None:
            self.counters["cache_hits"] += 1
            conn.send(
                protocol.response("ack", req_id, coalesced=False, cached=True)
            )
            self._send_result(pending, cached, cached=True, coalesced=False)
            return

        flight = self.inflight.get(key)
        if flight is not None:
            self.counters["coalesced"] += 1
            conn.send(
                protocol.response("ack", req_id, coalesced=True, cached=False)
            )
            flight.subscribers.append(pending)
            if pending.stream:
                flight.sinks.append(conn.send_threadsafe)
            return

        if self.draining:
            self._reject(conn, req_id, "draining")
            return
        if len(self.inflight) >= self.max_pending:
            self._reject(conn, req_id, "queue_full")
            return

        pending.initiator = True
        conn.send(
            protocol.response("ack", req_id, coalesced=False, cached=False)
        )
        self.counters["campaigns"] += 1
        self._launch(key, key, pending)

    def _launch(self, key, request: TuneRequest, pending) -> None:
        """Put an admitted tune or watch in flight under ``key``:
        ``run_campaign(request, broker, sink, register)`` on a campaign
        thread, answered on the loop."""
        key_fields = self._key_fields(key)
        flight = _InFlight(key)
        flight.subscribers.append(pending)
        if pending.stream:
            flight.sinks.append(pending.conn.send_threadsafe)
        self.inflight[key] = flight

        def sink(record: Dict[str, Any]) -> None:
            # Campaign-thread context: fan out to current subscribers.
            for push in list(flight.sinks):
                push(
                    protocol.response(
                        "event", None, key=key_fields, record=record
                    )
                )

        def register(measurer) -> None:
            # Worker-thread context: a single attribute store (GIL-atomic).
            flight.measurer = measurer

        future = self.loop.run_in_executor(
            self._pool, run_campaign, request, self.broker, sink, register
        )
        future.add_done_callback(
            lambda fut: self.loop.call_soon_threadsafe(
                self._campaign_done, key, fut
            )
        )

    # -- watch -----------------------------------------------------------------

    def _handle_watch(self, conn: _Connection, req_id, req) -> None:
        """Admit one online campaign.  Same validation and admission
        control as tune (budget, drain, queue depth) but no cache and no
        coalescing — see :class:`~repro.serve.state.WatchKey` for why."""
        params = protocol.validate_watch(req)
        try:  # the request validates itself: reject before any ack
            request = watch_request(params)
        except ValueError as exc:
            raise protocol.ProtocolError(str(exc)) from None
        if conn.account.exhausted():
            self._reject(conn, req_id, "client_budget_exhausted")
            return
        if self.draining:
            self._reject(conn, req_id, "draining")
            return
        if len(self.inflight) >= self.max_pending:
            self._reject(conn, req_id, "queue_full")
            return

        self._watch_seq += 1
        key = WatchKey(self._watch_seq, request)
        pending = _Connection.Pending(
            conn, req_id, params["stream"], initiator=True
        )
        conn.send(
            protocol.response(
                "ack", req_id, coalesced=False, cached=False,
                watch=key.serial,
            )
        )
        self.counters["watches"] += 1
        self._launch(key, request, pending)

    def _campaign_done(self, key, future) -> None:
        """Answer every subscriber of a finished tune or watch."""
        flight = self.inflight.pop(key, None)
        if flight is None:
            return
        watch = isinstance(key, WatchKey)
        try:
            outcome = future.result()
        except Exception as exc:  # campaign crashed: tell every subscriber
            self.counters["errors"] += 1
            kind = "watch" if watch else "campaign"
            for pending in flight.subscribers:
                pending.conn.send(
                    protocol.response(
                        "error", pending.req_id, error=f"{kind} failed: {exc}"
                    )
                )
            return
        wall = outcome["wall_s"]
        self._avg_wall_s = 0.7 * self._avg_wall_s + 0.3 * max(wall, 0.01)
        payload = {
            "key": self._key_fields(key),
            "result": outcome["result"],
            "cost": outcome["cost"],
            "wall_s": round(wall, 6),
        }
        if not watch:  # a watch lives on its own drift clock: never cached
            if outcome["model"] is not None:
                self.models.put(self._model_key(key), outcome["model"])
            self.results.put(key, payload)
        for pending in flight.subscribers:
            if pending.initiator:  # a watch's one subscriber initiated it
                pending.conn.account.charge(outcome["cost"])
            self._send_result(
                pending, payload, cached=False, coalesced=not pending.initiator
            )

    @staticmethod
    def _key_fields(key) -> Dict[str, Any]:
        """The ``key`` payload of a tune (a TuneRequest) or a watch."""
        if isinstance(key, WatchKey):
            r = key.request
            return {
                "watch": key.serial,
                "kernel": r.kernel,
                "device": r.device,
                "n_train": r.settings.n_train,
                "m_candidates": r.settings.m_candidates,
                "seed": r.seed,
                "steps": r.online.steps,
                "drift": r.drift,
                "faults": r.faults,
            }
        return {
            "kernel": key.kernel,
            "device": key.device,
            "problem": str(key.problem),
            "n_train": key.settings.n_train,
            "m_candidates": key.settings.m_candidates,
            "seed": key.seed,
            "budget_s": key.settings.max_cost_s,
            "faults": key.faults,
            "fit_mode": key.settings.fit_mode,
            "strategy": key.strategy,
        }

    @staticmethod
    def _model_key(key: TuneRequest) -> tuple:
        """What determines a campaign's fitted stage-one model: the
        ``ModelCache`` key ``predict`` looks up.  ``fit_mode`` is part of
        it — adaptive and classic fits of one training set differ."""
        return (key.kernel, key.device, key.settings.n_train, key.seed,
                key.settings.fit_mode)

    def _send_result(
        self, pending, payload: Dict[str, Any], cached: bool, coalesced: bool
    ) -> None:
        pending.conn.send(
            protocol.response(
                "result",
                pending.req_id,
                cached=cached,
                coalesced=coalesced,
                account=pending.conn.account.snapshot(),
                **payload,
            )
        )

    # -- predict ---------------------------------------------------------------

    def _handle_predict(self, conn: _Connection, req_id, req) -> None:
        for field in ("kernel", "device"):
            if not isinstance(req.get(field), str):
                raise protocol.ProtocolError(
                    f"predict request needs a string {field!r}"
                )
        config = req.get("config")
        if not isinstance(config, dict):
            raise protocol.ProtocolError(
                "predict request needs a 'config' object of name: value"
            )
        fit_mode = req.get("fit_mode", protocol.TUNE_DEFAULTS["fit_mode"])
        if fit_mode not in ("adaptive", "classic"):
            raise protocol.ProtocolError(
                "'fit_mode' must be 'adaptive' or 'classic'"
            )
        model_key = (
            req["kernel"],
            req["device"],
            int(req.get("n_train", protocol.TUNE_DEFAULTS["n_train"])),
            int(req.get("seed", protocol.TUNE_DEFAULTS["seed"])),
            fit_mode,
        )
        model = self.models.get(model_key)
        if model is None:
            conn.send(
                protocol.response(
                    "error",
                    req_id,
                    error="no model cached for this (kernel, device, "
                    "n_train, seed, fit_mode); run a tune first",
                )
            )
            return
        spec = get_benchmark(req["kernel"])
        try:
            cfg = spec.space.config(**{k: int(v) for k, v in config.items()})
        except (KeyError, TypeError, ValueError) as exc:
            raise protocol.ProtocolError(f"bad config: {exc}") from None
        pred = float(model.predict_indices([cfg.index])[0])
        conn.send(
            protocol.response(
                "prediction",
                req_id,
                predicted_time_s=pred,
                config=dict(cfg),
                index=int(cfg.index),
            )
        )

    # -- truth -----------------------------------------------------------------

    def _handle_truth(self, conn: _Connection, req_id, req) -> None:
        """Ground-truth time of one configuration, via the *shared*
        oracle provider: concurrent identical asks compute once, and a
        disk-backed store persists the entry across daemon restarts."""
        kernel, device_key = req.get("kernel"), req.get("device")
        if kernel not in BENCHMARKS:
            raise protocol.ProtocolError(f"unknown kernel {kernel!r}")
        if device_key not in DEVICES:
            raise protocol.ProtocolError(f"unknown device {device_key!r}")
        try:
            index = int(req["index"])
        except (KeyError, TypeError, ValueError):
            raise protocol.ProtocolError(
                "truth request needs an integer 'index'"
            ) from None
        spec = get_benchmark(kernel)
        if not 0 <= index < spec.space.size:
            raise protocol.ProtocolError(
                f"index out of range [0, {spec.space.size})"
            )
        oracle = self.oracles.oracle(spec, DEVICES[device_key])
        true_s = oracle.time_of(index)
        oracle.save_partial()
        conn.send(
            protocol.response(
                "truth",
                req_id,
                kernel=kernel,
                device=device_key,
                index=index,
                true_time_s=true_s,
                valid=bool(true_s == true_s),  # NaN marks invalid
            )
        )

    # -- stats -----------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "counters": dict(self.counters),
            "inflight": len(self.inflight),
            "max_pending": self.max_pending,
            "draining": self.draining,
            "result_cache": self.results.stats_snapshot(),
            "model_cache": self.models.stats_snapshot(),
            "broker": self.broker.stats_snapshot(),
            "oracle_store": self.oracles.stats_snapshot(),
            "campaigns": [self._campaign_stats(f) for f in
                          list(self.inflight.values())],
        }

    def _campaign_stats(self, flight: _InFlight) -> Dict[str, Any]:
        """Live view of one in-flight campaign: its key, age, and the
        measurer's fault counters (``failure_breakdown()``) so operators
        see retry pressure without reading traces."""
        m = flight.measurer
        return {
            **self._key_fields(flight.key),
            "age_s": round(time.perf_counter() - flight.started_at, 3),
            "failure_breakdown": (
                m.stats.failure_breakdown() if m is not None else {}
            ),
        }


class ServerThread:
    """Run a :class:`TuningServer` on a private loop in a daemon thread.

    The embedding story for tests, the benchmark and ``serve-smoke``:
    ``with ServerThread(TuningServer(...)) as port: ...`` — the context
    exit performs the same graceful drain as the ``shutdown`` op.
    """

    def __init__(self, server: TuningServer) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="serve-loop", daemon=True
        )
        self.port: Optional[int] = None

    def start(self) -> int:
        self._thread.start()
        fut = asyncio.run_coroutine_threadsafe(self.server.start(), self.loop)
        self.port = fut.result(timeout=30)
        return self.port

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        fut = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        )
        fut.result(timeout=120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()

    def __enter__(self) -> int:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro serve", description="line-JSON tuning daemon"
    )
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=0,
                    help="TCP port (0 binds an ephemeral port, printed "
                         "on startup)")
    ap.add_argument("--stdio", action="store_true",
                    help="serve one client over stdin/stdout instead of TCP")
    ap.add_argument("--max-pending", type=int, default=8,
                    help="concurrent campaigns admitted before backpressure")
    ap.add_argument("--workers", type=int, default=4,
                    help="campaign worker threads")
    ap.add_argument("--client-budget", type=float, default=None,
                    help="per-client simulated-second allowance "
                         "(default: unlimited)")
    ap.add_argument("--oracle-store", default=None,
                    help="persistent ground-truth table directory")
    args = ap.parse_args(argv)

    server = TuningServer(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        max_workers=args.workers,
        client_budget_s=args.client_budget,
        oracle_store=args.oracle_store,
    )
    try:
        if args.stdio:
            asyncio.run(server.run_stdio())
        else:
            asyncio.run(server.serve_forever())
    except KeyboardInterrupt:
        print("[serve] interrupted; draining", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
