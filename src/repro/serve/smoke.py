"""``make serve-smoke`` / ``make drift-smoke``: daemon one-shot checks.

Default mode boots an in-process daemon, drives the duplicate-heavy load
mix through a *flaky-gpu* fault profile (so retries, backoff and
quarantine all run under concurrency), asks for a graceful drain, and
asserts the daemon went down clean: every request answered, no client
errors, nothing left in flight.

``--drift PROFILE`` switches to the online-campaign smoke: a ``watch``
runs under the drift schedule *while* the tune load mix hammers the same
daemon, and the gate becomes end-to-end recovery — the detector alarmed,
at least one incremental re-tune completed, and the drain still came
down clean.  The drift onset is placed automatically after the initial
tune plus the detector's calibration window (both deterministic, probed
locally), so the schedule shifts the machine exactly when the monitor is
armed and watching.

Exit code 0 is the pass signal either way — wire it into CI as-is.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from repro.serve.client import TuningClient, run_load
from repro.serve.server import ServerThread, TuningServer


def _probe_tune_cost_s(kernel: str, device: str, n_train: int,
                       m_candidates: int, seed: int) -> float:
    """Simulated-second cost of the watch's initial tune, computed by
    running the watch's own request (with no monitoring steps) locally
    through :func:`~repro.core.request.run_tune`, the call the daemon
    makes.  Deterministic, so it exactly predicts where the server-side
    watch's drift clock stands when monitoring begins."""
    from repro.core.request import run_tune
    from repro.serve.campaigns import watch_request
    from repro.serve.protocol import validate_watch

    request = watch_request(validate_watch({
        "kernel": kernel, "device": device, "n_train": n_train,
        "m_candidates": m_candidates, "seed": seed, "steps": 0,
    }))
    return run_tune(request).watch.initial_cost_s


def _drift_smoke(args, server: TuningServer, port: int) -> tuple:
    """The --drift path: watch + load concurrently; returns
    (watch_reply, load_summary)."""
    from repro.core.drift import DetectorSettings

    kernel, device, seed = "convolution", "nvidia", 0
    interval_s = 30.0
    c0 = _probe_tune_cost_s(kernel, device, args.n_train,
                            args.m_candidates, seed)
    # Onset after tune + calibration (+margin); the spec string appends
    # onset_s to the user's profile, later fields winning on conflict.
    calibration = DetectorSettings().calibration
    onset = c0 + (calibration + 4) * interval_s
    sep = "," if ":" in args.drift else ":"
    drift_spec = f"{args.drift}{sep}onset_s={onset:.1f},ramp_s=120"
    print(f"[smoke] tune cost {c0:.1f}s -> drift onset {onset:.1f}s",
          file=sys.stderr)

    watch_out = {}

    def run_watch_client():
        with TuningClient("127.0.0.1", port, timeout=600.0) as client:
            watch_out["reply"] = client.watch(
                kernel, device,
                n_train=args.n_train, m_candidates=args.m_candidates,
                seed=seed, steps=args.steps, interval_s=interval_s,
                retune_window=16, drift=drift_spec,
            )

    watcher = threading.Thread(target=run_watch_client, name="smoke-watch")
    watcher.start()
    summary = run_load(
        "127.0.0.1", port,
        n_clients=args.clients,
        requests_per_client=args.requests,
        n_train=args.n_train,
        m_candidates=args.m_candidates,
        faults=args.faults,
    )
    watcher.join(timeout=600)
    return watch_out.get("reply"), summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke", description=__doc__
    )
    ap.add_argument("--clients", type=int, default=4)
    ap.add_argument("--requests", type=int, default=3)
    ap.add_argument("-n", "--n-train", type=int, default=300)
    ap.add_argument("-m", "--m-candidates", type=int, default=30)
    ap.add_argument("--faults", default="flaky-gpu")
    ap.add_argument("--drift", default=None,
                    help="drift profile: also run a watch campaign under "
                         "this schedule and gate on detected shift + "
                         "completed re-tune (e.g. thermal-throttle)")
    ap.add_argument("--steps", type=int, default=48,
                    help="watch monitoring steps (--drift mode)")
    args = ap.parse_args(argv)

    server = TuningServer(max_pending=6, max_workers=4)
    thread = ServerThread(server)
    port = thread.start()
    print(f"[smoke] daemon up on port {port}", file=sys.stderr)
    watch_reply = None
    try:
        if args.drift:
            watch_reply, summary = _drift_smoke(args, server, port)
        else:
            summary = run_load(
                "127.0.0.1",
                port,
                n_clients=args.clients,
                requests_per_client=args.requests,
                n_train=args.n_train,
                m_candidates=args.m_candidates,
                faults=args.faults,
            )
        with TuningClient("127.0.0.1", port) as client:
            stats = client.stats()
            client.shutdown()
    finally:
        thread.stop()

    failures = []
    if summary["errors"]:
        failures.append(f"client errors: {summary['errors']}")
    if summary["completed"] != summary["requests"]:
        failures.append(
            f"only {summary['completed']}/{summary['requests']} "
            "requests answered"
        )
    if server.inflight:
        failures.append(f"{len(server.inflight)} campaigns still in flight")
    if not server.draining:
        failures.append("daemon never entered drain")
    if args.drift:
        if watch_reply is None:
            failures.append("watch campaign never returned")
        else:
            res = watch_reply["result"]
            if res["alarms"] < 1:
                failures.append("drift never detected (0 alarms)")
            if len(res["retunes"]) < 1:
                failures.append("no re-tune completed")

    print(json.dumps({"load": summary, "server": stats}, indent=2))
    if failures:
        print(f"[smoke] FAIL: {'; '.join(failures)}", file=sys.stderr)
        return 1
    extra = ""
    if args.drift and watch_reply is not None:
        res = watch_reply["result"]
        extra = (
            f", watch: {res['alarms']} alarm(s) + "
            f"{len(res['retunes'])} re-tune(s) under {args.drift!r}"
        )
    print(
        f"[smoke] clean drain: {summary['completed']} requests, "
        f"{stats['counters']['campaigns']} campaigns, "
        f"{summary['req_per_s']} req/s under {args.faults!r}{extra}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
