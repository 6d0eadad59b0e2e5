"""Parallel experiment scheduler: ``run_all`` decomposed into units.

The paper's evaluation is a grid of independent computations — per-device
tuner grids (Figs. 11-13), per-(benchmark, device) large-space cells
(Fig. 14), per-device error curves (Figs. 4-7).  Each experiment module
declares that grid once, as ``units(p, seed, faults=None)`` — a list of
:class:`Unit` calls of its own module-level functions — plus
``merge(p, results)``, which turns the unit results (in plan order) into
the dict its ``run()`` returns; a multi-unit module's ``run()`` is
``merge(p, run_units(units(...)))``, and a single-unit module's ``run`` is
its unit.  This module holds only the generic parts:

* :func:`build_plan` asks each requested experiment for its units and
  adds ground-truth warm-ups: one unit per (kernel, device) full table a
  unit lists in ``tables``, computed into the shared
  :class:`~repro.experiments.oracle_store.OracleStore` before anything
  reads it, so each table is computed exactly once per store lifetime no
  matter how many experiments need it.
* :func:`execute_plan` runs the units — inline (``jobs <= 1``) against
  one shared :class:`~repro.experiments.oracle_store.OracleProvider`, or
  on a :class:`~concurrent.futures.ProcessPoolExecutor` using the
  campaign-grid worker pattern: a module-level worker function, per-worker
  JSONL traces merged back into the parent tracer tagged with the unit id,
  and store hit/miss counters summed across workers.
* :func:`merge_results` hands an experiment its unit results in plan
  order.  Every unit seeds its own generators from its arguments, so the
  merged output — and hence the rendered text — is bit-identical between
  serial and parallel execution by construction.
"""

from __future__ import annotations

import inspect
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.oracle_store import OracleProvider, OracleStore
from repro.experiments.presets import Preset
from repro.kernels import get_benchmark
from repro.obs import NULL_TRACER, Tracer, run_manifest
from repro.simulator.devices import DEVICES


@dataclass(frozen=True)
class Unit:
    """One independently runnable piece of an experiment: ``fn(**kwargs)``.

    ``fn`` is module-level, so a unit pickles by reference and crosses
    the process boundary; a ``fn`` with an ``oracles`` parameter also gets
    the run's shared :class:`OracleProvider`.  ``tables`` lists the
    (kernel, device) full ground-truth tables the unit reads;
    :func:`build_plan` turns them into warm-up ``deps`` (uids that must
    complete first).  The experiment id is ``uid`` up to its first ``/``.
    """

    uid: str
    fn: Callable
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    tables: Tuple[Tuple[str, str], ...] = ()
    deps: Tuple[str, ...] = ()

    @property
    def exp_id(self) -> str:
        return self.uid.split("/", 1)[0]


@dataclass(frozen=True)
class UnitOutcome:
    uid: str
    result: object
    wall_s: float


def warm_table(kernel: str, device_key: str, oracles: OracleProvider) -> None:
    """Compute one full ground-truth table into the shared provider."""
    oracles.oracle(get_benchmark(kernel), DEVICES[device_key]).full_table()


def _call(u: Unit, provider: OracleProvider):
    kwargs = dict(u.kwargs)
    if "oracles" in inspect.signature(u.fn).parameters:
        kwargs["oracles"] = provider
    return u.fn(**kwargs)


def run_units(units: Sequence[Unit], oracles: Optional[OracleProvider] = None) -> list:
    """Results of ``units`` run inline, in order, against one provider."""
    provider = oracles if oracles is not None else OracleProvider()
    return [_call(u, provider) for u in units]


# -- planning ------------------------------------------------------------------


def build_plan(
    wanted: Sequence[str], p: Preset, seed: int, warmup: bool = True,
    faults: Optional[str] = None,
) -> List[Unit]:
    """Units (in a valid topological order) for the requested experiments.

    ``warmup`` inserts a full-table unit ahead of the first unit that
    lists the table; pass False when units cannot share tables (parallel
    execution without a store), where a warm-up would just be discarded
    work in a throwaway process.  ``faults`` (a profile spec string, e.g.
    ``"flaky-gpu"``) goes to each experiment's ``units``, which passes it
    to the units that measure through ``Context``/``Measurer``; warm-ups
    build ground truth and never see it.
    """
    from repro.experiments.run_all import EXPERIMENTS

    units: List[Unit] = []
    warmed = set()
    for exp_id, (_, module) in EXPERIMENTS.items():
        if exp_id not in wanted:
            continue
        for u in module.units(p, seed, faults):
            deps = ()
            if warmup:
                for kernel, device in u.tables:
                    uid = f"warmup/{kernel}@{device}"
                    if uid not in warmed:
                        warmed.add(uid)
                        units.append(Unit(uid, warm_table, dict(
                            kernel=kernel, device_key=device)))
                    deps += (uid,)
            units.append(replace(u, deps=deps))
    return units


def merge_results(
    experiment: str, outcomes: Dict[str, UnitOutcome], p: Preset,
    units: Sequence[Unit],
) -> object:
    """One experiment's ``run()`` dict from its unit results.

    The module's ``merge`` gets the results in plan order, so unit
    completion order cannot change the output.
    """
    from repro.experiments.run_all import EXPERIMENTS

    results = [outcomes[u.uid].result for u in units
               if experiment == u.exp_id]
    return EXPERIMENTS[experiment][1].merge(p, results)


# -- execution -----------------------------------------------------------------


def _record_store_stats(tracer, stats: Dict[str, int]) -> None:
    for key, value in stats.items():
        if value:
            tracer.count(f"oracle_store.{key}", value)


def _run_unit_worker(args) -> tuple:
    """Run one unit in a worker process; module-level so pools can pickle it.

    Builds its own provider (store-backed when a store root is given) and,
    when tracing, writes a private JSONL trace the parent merges afterwards
    (a file sink cannot be shared across processes).  Store counters land
    in the worker trace's closing counters record, which ``merge_file``
    sums into the parent tracer — so fleet-wide hit/miss totals survive the
    process boundary.
    """
    unit, store_root, trace_path = args
    provider = OracleProvider(OracleStore(store_root) if store_root else None)
    if trace_path:
        tracer = Tracer(
            trace_path,
            manifest=run_manifest(unit=unit.uid, experiment=unit.exp_id),
        )
    else:
        tracer = NULL_TRACER
    t0 = time.perf_counter()
    try:
        with tracer.span(f"unit:{unit.uid}", experiment=unit.exp_id):
            result = _call(unit, provider)
        provider.flush()
    finally:
        _record_store_stats(tracer, provider.stats_snapshot())
        tracer.close()
    return unit.uid, result, time.perf_counter() - t0


def execute_plan(
    units: Sequence[Unit],
    jobs: Optional[int] = None,
    store=None,
    tracer=NULL_TRACER,
    progress=None,
) -> Dict[str, UnitOutcome]:
    """Run every unit; returns uid -> :class:`UnitOutcome`.

    ``jobs=None`` or ``<= 1`` runs inline against one shared provider
    (deterministic debugging, zero multiprocessing overhead — the right
    choice on single-core machines).  ``jobs >= 2`` fans out over a
    process pool, submitting a unit as soon as its dependencies are done.
    Either way the outcome map, and anything merged from it, is identical.
    """
    if store is not None and not isinstance(store, OracleStore):
        store = OracleStore(store)
    known = {u.uid for u in units}
    for u in units:
        missing = [d for d in u.deps if d not in known]
        if missing:
            raise ValueError(f"unit {u.uid} depends on unknown units {missing}")

    def note(uid: str, wall: float) -> None:
        tracer.count("runall.units")
        if progress is not None:
            print(f"[run_all] unit {uid}: done in {wall:.1f}s",
                  file=progress, flush=True)

    outcomes: Dict[str, UnitOutcome] = {}
    if jobs is None or jobs <= 1:
        provider = OracleProvider(store)
        for u in units:  # build_plan order is topological
            t0 = time.perf_counter()
            with tracer.span(f"unit:{u.uid}", experiment=u.exp_id):
                result = _call(u, provider)
            # Persist partial tables eagerly so a crash loses one unit of
            # work at most, and later processes start warm.
            provider.flush()
            wall = time.perf_counter() - t0
            outcomes[u.uid] = UnitOutcome(u.uid, result, wall)
            note(u.uid, wall)
        _record_store_stats(tracer, provider.stats_snapshot())
        return outcomes

    tmpdir = Path(tempfile.mkdtemp(prefix="repro-runall-"))
    trace_paths: Dict[str, str] = {}
    try:
        store_root = str(store.root) if store is not None else None
        if tracer.enabled:
            for u in units:
                trace_paths[u.uid] = str(
                    tmpdir / f"{u.uid.replace('/', '_')}.trace.jsonl"
                )

        pending: List[Unit] = list(units)
        in_flight = {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            while pending or in_flight:
                for u in list(pending):
                    if all(d in outcomes for d in u.deps):
                        pending.remove(u)
                        fut = pool.submit(
                            _run_unit_worker,
                            (u, store_root, trace_paths.get(u.uid)),
                        )
                        in_flight[fut] = u
                if not in_flight:
                    stuck = [u.uid for u in pending]
                    raise RuntimeError(f"unit plan deadlocked on {stuck}")
                ready, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for fut in ready:
                    in_flight.pop(fut)
                    uid, result, wall = fut.result()
                    outcomes[uid] = UnitOutcome(uid, result, wall)
                    note(uid, wall)

        # Merge worker traces in plan order (deterministic output).
        for u in units:
            path = trace_paths.get(u.uid)
            if path and Path(path).exists():
                tracer.merge_file(path, worker=u.uid)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return outcomes
