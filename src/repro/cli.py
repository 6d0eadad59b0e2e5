"""Command-line interface.

::

    python -m repro devices                      # list device models
    python -m repro benchmarks                   # list benchmarks + spaces
    python -m repro tune -k convolution -d nvidia -n 1000 -m 100
    python -m repro tune -k raycasting -d amd --iterative --budget 900
    python -m repro tune -k convolution -d nvidia --trace trace.jsonl
    python -m repro trace-summary trace.jsonl
    python -m repro predict -k convolution -d nvidia -n 500 \
        --config "wg_x=32,wg_y=4,ppt_x=2,ppt_y=2,use_image=1,use_local=0,pad=1,interleaved=1,unroll=1"
    python -m repro experiments --only fig01      # reproduction harness
    python -m repro bench-report                  # perf-gate trajectory table
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import Context, PerformanceModel, TunerSettings
from repro.core.iterative import IterativeSettings
from repro.core.measure import Measurer
from repro.kernels import BENCHMARKS, get_benchmark
from repro.simulator.devices import DEVICES, get_device
from repro.simulator.drift import DRIFT_PROFILES
from repro.simulator.faults import FAULT_PROFILES


def _parse_pins(text, space) -> dict:
    """Parse a (possibly partial) ``name=value,...`` list against a
    parameter space: pinned parameters, or the start of a full config."""
    values = {}
    for item in (text or "").split(","):
        item = item.strip()
        if not item:
            continue
        name, eq, raw = item.partition("=")
        name = name.strip()
        if not eq:
            raise SystemExit(f"bad item {item!r}; expected name=value")
        if name not in space:
            raise SystemExit(
                f"unknown parameter {name!r}; expected one of {list(space.names)}"
            )
        try:
            values[name] = int(raw)
        except ValueError:
            raise SystemExit(f"parameter {name!r}: non-integer value {raw!r}")
        allowed = list(space.parameter(name).values)
        if values[name] not in allowed:
            raise SystemExit(
                f"{name}={values[name]} not in allowed values {allowed}"
            )
    return values


def _parse_config(text: str, space) -> dict:
    """Parse a full ``name=value,...`` configuration against a space."""
    values = _parse_pins(text, space)
    missing = set(space.names) - set(values)
    if missing:
        raise SystemExit(f"missing parameters: {sorted(missing)}")
    return values


def _strategy_choices() -> tuple:
    from repro.core.strategies import STRATEGY_CHOICES

    return STRATEGY_CHOICES


def cmd_devices(_args) -> int:
    print(f"{'key':8s} {'name':22s} {'type':4s} {'CUs':>4s} {'SIMD':>4s} "
          f"{'GB/s':>6s} {'maxWG':>6s} {'local/CU':>9s}")
    for key, d in DEVICES.items():
        print(
            f"{key:8s} {d.name:22s} {d.device_type:4s} {d.compute_units:4d} "
            f"{d.simd_width:4d} {d.global_bandwidth_gbs:6.0f} "
            f"{d.max_workgroup_size:6d} {d.local_mem_per_cu_kb:7.0f}KB"
        )
    return 0


def cmd_benchmarks(_args) -> int:
    for name in BENCHMARKS:
        spec = get_benchmark(name)
        print(f"{name}: {spec.space.size} configurations, "
              f"{len(spec.space.parameters)} parameters, problem={spec.problem}")
    return 0


def _request(args, fields):
    """The TuneRequest ``repro <command>`` asks for: kernel, device, seed,
    faults and drift from the shared flags, the rest from ``fields()``.
    Bad input exits with ``repro <command>: <reason>``."""
    from repro.core.request import TuneRequest
    from repro.simulator.devices import device_key

    try:
        return TuneRequest(kernel=args.kernel, device=device_key(args.device),
                           seed=args.seed, faults=args.faults,
                           drift=args.drift, **fields())
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"repro {args.command}: {exc.args[0]}") from None


def _tune_request(args):
    """The TuneRequest a parsed ``repro tune`` command line asks for."""
    if args.strategy != "ml" and args.iterative:
        raise SystemExit("--strategy and --iterative are mutually exclusive")
    if args.pin and args.strategy == "ml":
        raise SystemExit("--pin holds parameters fixed during a search; "
                         "it needs --strategy")
    return _request(args, lambda: dict(
        strategy=args.strategy,
        settings=(
            IterativeSettings(total_budget=args.budget, rounds=args.rounds,
                              fit_mode=args.fit_mode)
            if args.iterative
            else TunerSettings(n_train=args.n_train,
                               m_candidates=args.m_candidates,
                               fit_mode=args.fit_mode)
        ),
        pins=_parse_pins(args.pin, get_benchmark(args.kernel).space),
    ))


def _search_request(args):
    """The TuneRequest a parsed ``repro search`` command line asks for."""
    from repro.core.strategies import SearchSettings

    return _request(args, lambda: dict(
        strategy=args.strategy,
        settings=SearchSettings(budget=args.budget, batch=args.batch,
                                max_cost_s=args.max_cost_s),
        pins=_parse_pins(args.pin, get_benchmark(args.kernel).space),
    ))


def _watch_request(args):
    """The TuneRequest a parsed ``repro watch`` command line asks for."""
    from repro.core.online import OnlineSettings

    return _request(args, lambda: dict(
        settings=TunerSettings(n_train=args.n_train,
                               m_candidates=args.m_candidates),
        online=OnlineSettings(steps=args.steps, step_interval_s=args.interval,
                              retune_window=args.retune_window,
                              warm_start_refits=not args.cold_refits),
    ))


def _run(args, request):
    """Run ``request`` for ``repro <command>``, honouring ``--trace`` (the
    manifest is the request's) and ``--db`` where the command has it."""
    from pathlib import Path

    from repro.core.request import run_tune
    from repro.core.results import MeasurementDB
    from repro.obs import NULL_TRACER, Tracer

    tracer = (Tracer(Path(args.trace),
                     manifest=request.manifest(command=args.command))
              if args.trace else NULL_TRACER)
    db = MeasurementDB(Path(args.db)) if getattr(args, "db", None) else None
    try:
        outcome = run_tune(request, tracer=tracer, db=db)
    finally:
        tracer.close()
    if db is not None:
        db.save()
    if args.trace:
        print(f"trace written to {args.trace}")
    return outcome


def cmd_tune(args) -> int:
    from repro.experiments.reporting import engine_stats_block

    outcome = _run(args, _tune_request(args))
    result = outcome.result
    if result.failed:
        print("tuning FAILED: not a single valid measurement "
              "(the paper's §7 failure mode); raise -n / -m or use --iterative")
        return 1
    best = outcome.measurer.spec.space[result.best_index]
    print(f"kernel            : {result.kernel}")
    print(f"device            : {result.device}")
    print(f"best configuration: {dict(best)}")
    print(f"measured time     : {result.best_time_s * 1e3:.3f} ms")
    print(f"evaluated         : {result.evaluated_fraction:.2%} of the space")
    print(f"simulated cost    : {result.total_cost_s / 60:.1f} min")
    if result.degraded:
        print(f"degraded          : yes ({result.degraded_reason})")
    if result.failure_breakdown:
        parts = ", ".join(
            f"{k}={v}" for k, v in result.failure_breakdown.items()
        )
        print(f"failure breakdown : {parts}")
    if hasattr(outcome.search, "leaderboard"):
        print(_leaderboard_block(outcome.search))
    print("engine stats")
    print(engine_stats_block(outcome.measurer.stats, outcome.ledger))
    return 0


def _leaderboard_block(outcome) -> str:
    """Render a bandit outcome's strategy-vs-strategy leaderboard."""
    lines = ["strategy leaderboard"]
    lines.append(f"  {'strategy':12s} {'best':>10s} {'pulls':>6s} "
                 f"{'measured':>9s} {'spend':>10s} {'reward/s':>12s}")
    for arm in outcome.leaderboard():
        best = (f"{arm.best_time_s * 1e3:.3f}ms"
                if np.isfinite(arm.best_time_s) else "-")
        lines.append(
            f"  {arm.name:12s} {best:>10s} {arm.pulls:6d} "
            f"{arm.n_measured:9d} {arm.spend_s:9.1f}s "
            f"{arm.mean_reward:12.6f}"
        )
    return "\n".join(lines)


def cmd_search(args) -> int:
    """Run one zoo strategy (or the bandit meta-tuner) stand-alone."""
    from repro.experiments.reporting import engine_stats_block

    request = _search_request(args)
    outcome = _run(args, request)
    result, search = outcome.result, outcome.search
    if result.failed:
        print(f"search FAILED: strategy {args.strategy!r} found no valid "
              f"configuration in {search.n_proposed} proposals "
              f"(stop: {search.stop_reason})")
        return 1
    best = outcome.measurer.spec.space[result.best_index]
    print(f"kernel            : {result.kernel}")
    print(f"device            : {result.device}")
    print(f"strategy          : {args.strategy}")
    if request.pins:
        pinned = ", ".join(f"{k}={v}" for k, v in request.pins)
        print(f"pinned            : {pinned}")
    print(f"best configuration: {dict(best)}")
    print(f"measured time     : {result.best_time_s * 1e3:.3f} ms")
    print(f"proposed/measured : {search.n_proposed}/{search.n_measured} "
          f"(+{search.n_free} free db hits)")
    print(f"rounds            : {search.rounds} (stop: {search.stop_reason})")
    print(f"simulated cost    : {result.total_cost_s / 60:.1f} min")
    if result.degraded:
        print(f"degraded          : yes ({result.degraded_reason})")
    if hasattr(search, "leaderboard"):
        print(_leaderboard_block(search))
    print("engine stats")
    print(engine_stats_block(outcome.measurer.stats, outcome.ledger))
    return 0


def cmd_watch(args) -> int:
    outcome = _run(args, _watch_request(args))
    report = outcome.watch
    if report.initial.failed:
        print("initial tuning FAILED: nothing to monitor "
              "(raise -n / -m)")
        return 1
    best = outcome.measurer.spec.space[report.incumbent]
    print(f"kernel            : {report.kernel}")
    print(f"device            : {report.device}")
    print(f"initial pick      : index {report.initial.best_index}, "
          f"{report.initial.best_time_s * 1e3:.3f} ms")
    print(f"monitoring        : {report.steps} probes x "
          f"{args.interval:.0f}s ({report.skipped} skipped)")
    print(f"alarms / re-tunes : {report.alarms} / {len(report.retunes)}")
    for event in report.retunes:
        print(f"  step {event.step:4d} @ {event.at_s:9.1f}s: "
              f"shift x{event.ratio:.3f}, "
              f"{event.old_index} -> {event.new_index}, "
              f"cost {event.cost_s:.1f}s, "
              f"refit {event.fit_wall_s * 1e3:.0f}ms/"
              f"{event.fit_epochs}ep")
    print(f"final incumbent   : {dict(best)}")
    print(f"cost breakdown    : initial {report.initial_cost_s:.1f}s, "
          f"monitor {report.monitor_cost_s:.1f}s, "
          f"re-tune {report.retune_cost_s:.1f}s")
    return 0


def cmd_campaign(args) -> int:
    from dataclasses import asdict
    from pathlib import Path

    from repro.core.campaign import run_campaign_grid
    from repro.core.results import MeasurementDB
    from repro.obs import NULL_TRACER, Tracer, run_manifest

    kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    devices = [d.strip() for d in args.devices.split(",") if d.strip()]
    specs = [get_benchmark(k) for k in kernels]
    db = MeasurementDB(Path(args.db)) if args.db else None
    settings = TunerSettings(n_train=args.n_train, m_candidates=args.m_candidates)
    tracer = NULL_TRACER
    if args.trace:
        tracer = Tracer(
            Path(args.trace),
            manifest=run_manifest(
                command="campaign",
                kernels=kernels,
                devices=devices,
                settings=asdict(settings),
                seed=args.seed,
                faults=args.faults,
                strategy=args.strategy,
            ),
        )
    try:
        report = run_campaign_grid(
            specs,
            devices,
            settings=settings,
            db=db,
            max_workers=args.workers,
            seed=args.seed,
            tracer=tracer,
            faults=args.faults,
            strategy=args.strategy,
        )
    finally:
        tracer.close()
    print(report.report())
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def cmd_trace_summary(args) -> int:
    from pathlib import Path

    from repro.obs import render_summary

    path = Path(args.trace)
    if not path.exists():
        print(f"no such trace file: {path}", file=sys.stderr)
        return 1
    print(render_summary(path))
    return 0


def cmd_predict(args) -> int:
    spec = get_benchmark(args.kernel)
    device = get_device(args.device)
    ctx = Context(device, seed=args.seed)
    measurer = Measurer(ctx, spec)
    rng = np.random.default_rng(args.seed)

    print(f"measuring {args.n_train} random configurations to train the model ...")
    ms = measurer.sample_and_measure(args.n_train, rng)
    model = PerformanceModel(spec.space, seed=args.seed).fit_measurements(ms)

    cfg = spec.space.config(**_parse_config(args.config, spec.space))
    pred = model.predict_indices([cfg.index])[0]
    print(f"configuration     : {dict(cfg)}")
    print(f"predicted time    : {pred * 1e3:.3f} ms")
    actual = measurer.measure(cfg.index)
    if actual is None:
        print("actual            : INVALID on this device")
    else:
        print(f"actual (measured) : {actual * 1e3:.3f} ms "
              f"(relative error {abs(pred - actual) / actual:.1%})")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments.run_all import main as run_all_main

    forwarded = []
    if args.preset:
        forwarded += ["--preset", args.preset]
    if args.only:
        forwarded += ["--only", args.only]
    if args.out:
        forwarded += ["--out", args.out]
    if args.jobs is not None:
        forwarded += ["--jobs", str(args.jobs)]
    if args.serial:
        forwarded += ["--serial"]
    if args.oracle_store:
        forwarded += ["--oracle-store", args.oracle_store]
    if args.trace:
        forwarded += ["--trace", args.trace]
    if args.faults:
        forwarded += ["--faults", args.faults]
    run_all_main(forwarded)
    return 0


#: Preferred headline metric per artifact, first match wins.
_HEADLINE_KEYS = (
    "speedup", "throughput_gain", "recovered_gap", "bandit_gap",
    "cost_fraction",
)


def cmd_bench_report(args) -> int:
    """Render every ``benchmarks/BENCH_*.json`` trajectory as one table."""
    import json
    from pathlib import Path

    root = Path(args.dir)
    files = sorted(root.glob("BENCH_*.json"))
    if not files:
        print(f"no BENCH_*.json artifacts under {root}/")
        return 1
    rows = []
    for path in files:
        name = path.stem[len("BENCH_"):]
        try:
            points = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as e:
            rows.append((name, "-", f"unreadable: {e}", ""))
            continue
        if not isinstance(points, list):
            points = [points]
        for point in points:
            if not isinstance(point, dict):
                continue
            rev = str(point.get("git_rev", "-"))
            headline = ""
            for key in _HEADLINE_KEYS:
                if isinstance(point.get(key), (int, float)):
                    value = point[key]
                    suffix = "x" if key in ("speedup", "throughput_gain") else ""
                    headline = f"{key} {value:g}{suffix}"
                    break
            details = " ".join(
                f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in point.items()
                if k != "git_rev"
                and not headline.startswith(f"{k} ")
                and isinstance(v, (int, float, str))
            )
            rows.append((name, rev, headline, details))
    w_name = max(len("artifact"), *(len(r[0]) for r in rows))
    w_rev = max(len("rev"), *(len(r[1]) for r in rows))
    w_head = max(len("headline"), *(len(r[2]) for r in rows))
    print(f"{'artifact':{w_name}s}  {'rev':{w_rev}s}  "
          f"{'headline':{w_head}s}  details")
    for name, rev, headline, details in rows:
        print(f"{name:{w_name}s}  {rev:{w_rev}s}  {headline:{w_head}s}  "
              f"{details}")
    return 0


def cmd_serve(args) -> int:
    from repro.serve.server import main as serve_main

    forwarded = ["--host", args.host, "--port", str(args.port),
                 "--max-pending", str(args.max_pending),
                 "--workers", str(args.workers)]
    if args.stdio:
        forwarded += ["--stdio"]
    if args.client_budget is not None:
        forwarded += ["--client-budget", str(args.client_budget)]
    if args.oracle_store:
        forwarded += ["--oracle-store", args.oracle_store]
    return serve_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="ML-based auto-tuning for OpenCL performance portability "
        "(IPDPSW 2015 reproduction)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the simulated devices").set_defaults(
        fn=cmd_devices
    )
    sub.add_parser("benchmarks", help="list the benchmarks").set_defaults(
        fn=cmd_benchmarks
    )

    tune = sub.add_parser("tune", help="run the auto-tuner")
    tune.add_argument("-k", "--kernel", required=True, choices=sorted(BENCHMARKS))
    tune.add_argument("-d", "--device", required=True)
    tune.add_argument("-n", "--n-train", type=int, default=1000)
    tune.add_argument("-m", "--m-candidates", type=int, default=100)
    tune.add_argument("--iterative", action="store_true",
                      help="round-based refinement instead of one-shot")
    tune.add_argument("--budget", type=int, default=1200,
                      help="total measurements for --iterative")
    tune.add_argument("--rounds", type=int, default=3)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--db", default=None,
                      help="path to a MeasurementDB JSON file; known "
                           "measurements are reused, new ones persisted")
    tune.add_argument("--trace", default=None,
                      help="write a JSONL pipeline trace to this path "
                           "(inspect with 'repro trace-summary')")
    tune.add_argument("--faults", default=None,
                      help="fault-injection profile, e.g. "
                           f"{', '.join(sorted(FAULT_PROFILES))}; "
                           "fields can be overridden as "
                           "'flaky-gpu:p_hang=0.02,hang_duration_s=4'")
    tune.add_argument("--drift", default=None,
                      help="performance-drift schedule, e.g. "
                           f"{', '.join(sorted(DRIFT_PROFILES))}; "
                           "fields can be overridden as "
                           "'thermal-throttle:onset_s=600,ramp_s=120'")
    tune.add_argument("--fit-mode", choices=("adaptive", "classic"),
                      default="adaptive",
                      help="ensemble training engine: adaptive "
                           "(member-wise convergence freezing, default) "
                           "or classic (reference global-stop loop)")
    tune.add_argument("--strategy", default="ml",
                      choices=("ml",) + _strategy_choices(),
                      help="'ml' (the paper's two-stage ANN tuner, default) "
                           "or a search strategy / 'bandit' with the same "
                           "measurement budget (n_train + m_candidates)")
    tune.add_argument("--pin", default=None,
                      help="comma-separated name=value pairs held fixed "
                           "during --strategy searches")
    tune.set_defaults(fn=cmd_tune)

    sea = sub.add_parser(
        "search",
        help="model-free search of a kernel's space "
             "(strategy zoo / bandit meta-tuner, see docs/tuning_guide.md)",
    )
    sea.add_argument("-k", "--kernel", required=True, choices=sorted(BENCHMARKS))
    sea.add_argument("-d", "--device", required=True)
    sea.add_argument("--strategy", default="bandit",
                     choices=_strategy_choices(),
                     help="search strategy; 'bandit' (default) splits the "
                          "budget across all of them via UCB")
    sea.add_argument("--budget", type=int, default=1000,
                     help="total configuration proposals")
    sea.add_argument("--batch", type=int, default=64,
                     help="proposals measured per round (one wave)")
    sea.add_argument("--max-cost-s", type=float, default=None,
                     help="stop once this much simulated ledger time "
                          "has been spent")
    sea.add_argument("--pin", default=None,
                     help="comma-separated name=value pairs held fixed, "
                          "e.g. 'use_local=1,unroll=0'")
    sea.add_argument("--seed", type=int, default=0)
    sea.add_argument("--db", default=None,
                     help="MeasurementDB JSON path; known measurements are "
                          "free, new ones persisted")
    sea.add_argument("--trace", default=None,
                     help="write a JSONL trace (the strategy leaderboard "
                          "shows in 'repro trace-summary')")
    sea.add_argument("--faults", default=None,
                     help="fault-injection profile, e.g. "
                          f"{', '.join(sorted(FAULT_PROFILES))}")
    sea.add_argument("--drift", default=None,
                     help="performance-drift schedule, e.g. "
                          f"{', '.join(sorted(DRIFT_PROFILES))}")
    sea.set_defaults(fn=cmd_search)

    wat = sub.add_parser(
        "watch",
        help="tune once, then monitor the pick and re-tune on drift "
             "(see docs/robustness.md)",
    )
    wat.add_argument("-k", "--kernel", required=True, choices=sorted(BENCHMARKS))
    wat.add_argument("-d", "--device", required=True)
    wat.add_argument("-n", "--n-train", type=int, default=400)
    wat.add_argument("-m", "--m-candidates", type=int, default=40)
    wat.add_argument("--seed", type=int, default=0)
    wat.add_argument("--steps", type=int, default=120,
                     help="monitoring probes after the initial tune")
    wat.add_argument("--interval", type=float, default=30.0,
                     help="simulated seconds of serving between probes")
    wat.add_argument("--retune-window", type=int, default=32,
                     help="top-ranked candidates re-measured on alarm")
    wat.add_argument("--drift", default=None,
                     help="performance-drift schedule, e.g. "
                          f"{', '.join(sorted(DRIFT_PROFILES))}")
    wat.add_argument("--faults", default=None,
                     help="fault-injection profile, e.g. "
                          f"{', '.join(sorted(FAULT_PROFILES))}")
    wat.add_argument("--cold-refits", action="store_true",
                     help="retrain drift-response refits from random init "
                          "instead of warm-starting the incumbent weights")
    wat.add_argument("--trace", default=None,
                     help="write a JSONL pipeline trace to this path")
    wat.set_defaults(fn=cmd_watch)

    camp = sub.add_parser(
        "campaign", help="tune kernels x devices in parallel processes"
    )
    camp.add_argument("-k", "--kernels", required=True,
                      help="comma-separated benchmark names")
    camp.add_argument("-d", "--devices", required=True,
                      help="comma-separated device keys")
    camp.add_argument("-n", "--n-train", type=int, default=800)
    camp.add_argument("-m", "--m-candidates", type=int, default=80)
    camp.add_argument("--workers", type=int, default=None,
                      help="process count; 1 runs inline")
    camp.add_argument("--db", default=None,
                      help="campaign MeasurementDB path (enables resume)")
    camp.add_argument("--trace", default=None,
                      help="write a merged per-worker JSONL trace to this "
                           "path (inspect with 'repro trace-summary')")
    camp.add_argument("--faults", default=None,
                      help="fault-injection profile applied to every cell "
                           f"({', '.join(sorted(FAULT_PROFILES))})")
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--strategy", default="ml",
                      choices=("ml",) + _strategy_choices(),
                      help="tuner for every cell: 'ml' (default) or a "
                           "search strategy / 'bandit' of equal budget")
    camp.set_defaults(fn=cmd_campaign)

    summ = sub.add_parser(
        "trace-summary", help="per-stage time/cost breakdown of a JSONL trace"
    )
    summ.add_argument("trace", help="path to a trace written with --trace")
    summ.set_defaults(fn=cmd_trace_summary)

    pred = sub.add_parser("predict", help="train a model and predict one config")
    pred.add_argument("-k", "--kernel", required=True, choices=sorted(BENCHMARKS))
    pred.add_argument("-d", "--device", required=True)
    pred.add_argument("-n", "--n-train", type=int, default=800)
    pred.add_argument("--config", required=True,
                      help="comma-separated name=value pairs")
    pred.add_argument("--seed", type=int, default=0)
    pred.set_defaults(fn=cmd_predict)

    exp = sub.add_parser("experiments", help="reproduction harness")
    exp.add_argument("--preset", default=None)
    exp.add_argument("--only", default=None)
    exp.add_argument("--out", default=None)
    exp.add_argument("--jobs", type=int, default=None,
                     help="run experiment units on this many worker processes")
    exp.add_argument("--serial", action="store_true",
                     help="force inline execution (overrides --jobs)")
    exp.add_argument("--oracle-store", default=None,
                     help="directory of persistent ground-truth tables "
                          "(default: $REPRO_ORACLE_STORE if set)")
    exp.add_argument("--trace", default=None,
                     help="write a JSONL trace of the run "
                          "(inspect with 'repro trace-summary')")
    exp.add_argument("--faults", default=None,
                     help="fault-injection profile applied to runtime-backed "
                          f"units ({', '.join(sorted(FAULT_PROFILES))}); "
                          "oracle-backed ground truth stays fault-free")
    exp.set_defaults(fn=cmd_experiments)

    srv = sub.add_parser(
        "serve", help="line-JSON tuning daemon (see docs/serving.md)"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0,
                     help="TCP port (0 binds an ephemeral port, printed "
                          "on startup)")
    srv.add_argument("--stdio", action="store_true",
                     help="serve one client over stdin/stdout instead of TCP")
    srv.add_argument("--max-pending", type=int, default=8,
                     help="concurrent campaigns admitted before requests "
                          "are rejected with a retry hint")
    srv.add_argument("--workers", type=int, default=4,
                     help="campaign worker threads")
    srv.add_argument("--client-budget", type=float, default=None,
                     help="per-client simulated-second allowance "
                          "(default: unlimited)")
    srv.add_argument("--oracle-store", default=None,
                     help="persistent ground-truth table directory shared "
                          "across requests")
    srv.set_defaults(fn=cmd_serve)

    rep = sub.add_parser(
        "bench-report",
        help="render benchmarks/BENCH_*.json trajectories as one table",
    )
    rep.add_argument("--dir", default="benchmarks",
                     help="directory holding the BENCH_*.json artifacts "
                          "(default: benchmarks)")
    rep.set_defaults(fn=cmd_bench_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
