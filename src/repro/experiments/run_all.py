"""Regenerate every table and figure; optionally write EXPERIMENTS.md.

Usage::

    python -m repro.experiments.run_all                 # print everything
    python -m repro.experiments.run_all --preset full   # the paper's grids
    python -m repro.experiments.run_all --out EXPERIMENTS.md
    python -m repro.experiments.run_all --only fig01,fig14
    python -m repro.experiments.run_all --jobs 4 --oracle-store .oracle

``repro experiments`` takes the same flags.  Execution goes through
:mod:`repro.experiments.scheduler`: each experiment module declares its
independent units (per-device grids, per-cell tuning runs), the scheduler
adds ground-truth warm-ups, and the units run inline or on a process
pool — ``--jobs``/``--serial`` — with bit-identical output either way.
``--oracle-store DIR`` persists ground-truth tables across runs, so the
expensive full tables are computed once ever (see docs/performance.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from types import ModuleType
from typing import Dict, Optional, Tuple

from repro.experiments import (
    cost_accounting,
    sec7_discussion,
    fig01_motivation,
    fig02_ann,
    fig04_06_model_error,
    fig07_nvidia_generations,
    fig08_10_scatter,
    fig11_13_autotuner,
    fig14_large_spaces,
    tables,
)
from repro.experiments.presets import get_preset
from repro.obs import NULL_TRACER

#: Experiment registry: id -> (title, module).  Each module declares its
#: ``units(p, seed, faults=None)`` and ``merge(p, results)`` for the
#: scheduler, and ``format_text(results)``.
EXPERIMENTS: Dict[str, Tuple[str, ModuleType]] = {
    "tables": ("Tables 1-2: benchmarks and parameter spaces", tables),
    "fig01": ("Figure 1: cross-device slowdowns", fig01_motivation),
    "fig02": ("Figure 2: network topology", fig02_ann),
    "fig04-06": ("Figures 4-6: model error vs training size", fig04_06_model_error),
    "fig07": ("Figure 7: Nvidia generations", fig07_nvidia_generations),
    "fig08-10": ("Figures 8-10: predicted vs actual scatter", fig08_10_scatter),
    "fig11-13": ("Figures 11-13: tuner slowdown grid", fig11_13_autotuner),
    "fig14": ("Figure 14: large spaces", fig14_large_spaces),
    "cost": ("S6: tuning-cost accounting", cost_accounting),
    "sec7": ("S7: discussion mechanisms quantified", sec7_discussion),
}


def run_all(
    preset=None,
    seed: int = 0,
    only=None,
    stream="stdout",
    jobs: Optional[int] = None,
    oracle_store=None,
    tracer=None,
    faults=None,
) -> Dict[str, str]:
    """Run (a subset of) the experiments; returns id -> rendered text.

    ``stream="stdout"`` resolves to the *current* sys.stdout at call time
    (binding it as a default would capture whatever stdout was at import);
    pass None to suppress printing, or any file-like object.

    ``jobs`` >= 2 fans the scheduler's units out over a process pool; the
    rendered output is bit-identical to serial (``jobs=None``/``1``).
    ``oracle_store`` (a directory path or :class:`OracleStore`) persists
    ground-truth tables across runs and processes.  ``tracer`` receives
    per-unit spans, per-experiment wall gauges and oracle-store counters.
    ``faults`` (a fault-profile spec, e.g. ``"flaky-gpu"``) reaches the
    units that measure through ``Context``/``Measurer``, so those paths
    exercise the resilient pipeline; oracle-backed ground truth ignores it.
    """
    from repro.experiments.scheduler import (
        build_plan,
        execute_plan,
        merge_results,
    )

    if stream == "stdout":
        stream = sys.stdout
    if tracer is None:
        tracer = NULL_TRACER
    p = get_preset(preset)
    wanted = set(only) if only else set(EXPERIMENTS)
    unknown = wanted - set(EXPERIMENTS)
    if unknown:
        raise KeyError(f"unknown experiment ids {sorted(unknown)}; "
                       f"known: {sorted(EXPERIMENTS)}")

    serial = jobs is None or jobs <= 1
    # Warm-up units pay off only where a computed table can be shared:
    # always in serial mode (one provider), only via the store in parallel.
    units = build_plan(
        sorted(wanted, key=list(EXPERIMENTS).index),
        p,
        seed,
        warmup=serial or oracle_store is not None,
        faults=faults,
    )
    t0 = time.perf_counter()
    with tracer.span("run_all", preset=p.name, units=len(units), jobs=jobs or 1):
        outcomes = execute_plan(
            units, jobs=jobs, store=oracle_store, tracer=tracer,
            progress=sys.stderr,
        )
    total_wall = time.perf_counter() - t0

    unit_walls: Dict[str, float] = {}
    for u in units:
        unit_walls[u.exp_id] = unit_walls.get(u.exp_id, 0.0) + outcomes[u.uid].wall_s

    rendered = {}
    for exp_id, (title, module) in EXPERIMENTS.items():
        if exp_id not in wanted:
            continue
        text = module.format_text(merge_results(exp_id, outcomes, p, units))
        rendered[exp_id] = text
        wall = unit_walls.get(exp_id, 0.0)
        tracer.gauge(f"runall.{exp_id}.wall_s", round(wall, 6))
        print(f"[run_all] {exp_id}: {title}: done in {wall:.1f}s",
              file=sys.stderr, flush=True)
        if stream is not None:
            print(text, file=stream)
            print("", file=stream)
    if "warmup" in unit_walls:
        tracer.gauge("runall.warmup.wall_s", round(unit_walls["warmup"], 6))
    tracer.gauge("runall.total_wall_s", round(total_wall, 6))
    return rendered


def write_experiments_md(path: str, rendered: Dict[str, str], preset_name: str) -> None:
    parts = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated by `python -m repro.experiments.run_all --out EXPERIMENTS.md`"
        f" (preset: `{preset_name}`).",
        "",
        "Absolute times come from the device performance simulator (see"
        " DESIGN.md §2); the claims being reproduced are the *shapes*: who"
        " wins, by what factor, where the curves flatten, and which cells"
        " go missing.",
        "",
    ]
    for exp_id, text in rendered.items():
        parts.append(f"## {EXPERIMENTS[exp_id][0]}")
        parts.append("")
        parts.append("```text")
        parts.append(text)
        parts.append("```")
        parts.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def flags() -> argparse.ArgumentParser:
    """The harness's flags as a parent parser, shared by
    ``python -m repro.experiments.run_all`` and ``repro experiments``."""
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--preset", default=None, help="fast (default) or full")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--only", default=None, help="comma-separated experiment ids")
    ap.add_argument("--out", default=None, help="also write a markdown report")
    ap.add_argument("--jobs", type=int, default=None,
                    help="run units on this many worker processes (>= 2); "
                         "default runs inline")
    ap.add_argument("--serial", action="store_true",
                    help="force inline execution (overrides --jobs)")
    ap.add_argument("--oracle-store", default=None,
                    help="directory of persistent ground-truth tables "
                         "(default: $REPRO_ORACLE_STORE if set); tables are "
                         "computed once ever and memory-mapped afterwards")
    ap.add_argument("--faults", default=None,
                    help="fault-profile spec applied to runtime-backed "
                         "units (e.g. flaky-gpu or "
                         "'noisy-rig:p_outlier=0.2'); ground-truth oracle "
                         "units always stay fault-free")
    ap.add_argument("--trace", default=None,
                    help="write a JSONL trace of the run (per-unit spans, "
                         "per-experiment timings; see 'repro trace-summary')")
    return ap


def run_args(args: argparse.Namespace) -> int:
    """Run the harness for parsed :func:`flags`; returns exit status 0."""
    only = args.only.split(",") if args.only else None
    p = get_preset(args.preset)
    jobs = 1 if args.serial else args.jobs
    store = args.oracle_store or os.environ.get("REPRO_ORACLE_STORE") or None
    tracer = None
    if args.trace:
        from repro.obs import Tracer, run_manifest

        tracer = Tracer(
            args.trace,
            manifest=run_manifest(
                command="run_all", preset=p.name, seed=args.seed,
                only=only, jobs=jobs or 1, oracle_store=store,
                faults=args.faults,
            ),
        )
    try:
        rendered = run_all(
            preset=p, seed=args.seed, only=only, jobs=jobs,
            oracle_store=store, tracer=tracer, faults=args.faults,
        )
    finally:
        if tracer is not None:
            tracer.close()
    if args.trace:
        print(f"[run_all] trace written to {args.trace}", file=sys.stderr)
    if args.out:
        write_experiments_md(args.out, rendered, p.name)
        print(f"[run_all] wrote {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, parents=[flags()])
    return run_args(ap.parse_args(argv))


if __name__ == "__main__":
    main()
