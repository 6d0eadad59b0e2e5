"""Multi-device tuning campaigns: the performance-portability workflow.

The paper's pitch is that re-tuning per device is cheap once it is
automatic.  A :class:`PortabilityCampaign` packages that workflow: tune one
kernel on a set of devices, persist every measurement in a
:class:`~repro.core.results.MeasurementDB`, and report the cross-device
matrix a deployment engineer actually wants — tuned time per device, plus
how badly each device's configuration would behave everywhere else
(the Fig. 1 story, computed for *your* kernel).

:func:`run_campaign_grid` scales the workflow out: every (kernel, device)
cell runs as an independent process with its own DB shard, shards are
merged into the campaign DB at the end, and the grid report carries the
engine's observability counters (throughput, cache-hit rate, simulated
cost) per cell.  Re-running a grid against a populated DB pre-seeds the
shards, so crashed or extended campaigns resume instead of re-measuring.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.measure import EngineStats, Measurer
from repro.core.request import TuneRequest, run_tune
from repro.core.results import MeasurementDB, TuningResult
from repro.core.tuner import TunerSettings
from repro.kernels.base import KernelSpec
from repro.obs import NULL_TRACER, Tracer
from repro.simulator.devices import device_key, get_device
from repro.simulator.noise import CostLedger


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign.

    Attributes
    ----------
    results:
        Per-device :class:`TuningResult`.
    transplant_matrix:
        ``matrix[target][source]`` = measured time of source-device's tuned
        configuration on the target device (None where it cannot run, NaN
        where tuning failed on the source).
    """

    kernel: str
    results: Dict[str, TuningResult]
    transplant_matrix: Dict[str, Dict[str, Optional[float]]]

    def slowdown(self, target: str, source: str) -> float:
        """Transplant penalty: source's config on target vs target's own."""
        own = self.transplant_matrix[target][target]
        foreign = self.transplant_matrix[target][source]
        if own is None or foreign is None:
            return float("nan")
        return foreign / own

    def report(self) -> str:
        """Human-readable campaign summary."""
        lines = [f"portability campaign: {self.kernel}"]
        for device, r in self.results.items():
            if r.failed:
                lines.append(f"  {device}: tuning FAILED (no valid measurement)")
            else:
                note = f" [degraded: {r.degraded_reason}]" if r.degraded else ""
                lines.append(
                    f"  {device}: {r.best_time_s * 1e3:.3f} ms "
                    f"({r.evaluated_fraction:.2%} of space measured, "
                    f"{r.total_cost_s / 60:.0f} min simulated cost){note}"
                )
        lines.append("")
        devices = list(self.results)
        head = "transplant slowdowns (row: running on, column: tuned for)"
        lines.append(head)
        width = max(len(d) for d in devices) + 2
        lines.append(" " * width + "".join(d.ljust(width) for d in devices))
        for target in devices:
            row = [target.ljust(width)]
            for source in devices:
                s = self.slowdown(target, source)
                row.append(("n/a" if s != s else f"{s:.2f}x").ljust(width))
            lines.append("".join(row))
        return "\n".join(lines)


class PortabilityCampaign:
    """Tune one kernel everywhere; measure every transplant.

    Parameters
    ----------
    spec:
        The kernel to tune.
    devices:
        Device keys or names (``repro.simulator.devices.get_device``).
    settings:
        Tuner budget, shared across devices.
    db:
        Optional measurement store; every measurement of the campaign is
        recorded under (kernel, device).
    faults:
        Optional :class:`~repro.simulator.faults.FaultProfile` (or profile
        name) applied to every device's runtime — the campaign then
        exercises the resilient measurement path on all of them.
    """

    def __init__(
        self,
        spec: KernelSpec,
        devices: Sequence[str],
        settings: Optional[TunerSettings] = None,
        db: Optional[MeasurementDB] = None,
        faults=None,
    ):
        if not devices:
            raise ValueError("need at least one device")
        self.spec = spec
        self.devices = list(devices)
        self.settings = (
            settings
            if settings is not None
            else TunerSettings(n_train=800, m_candidates=80)
        )
        self.db = db
        self.faults = faults

    def run(self, seed: int = 0) -> CampaignResult:
        requests = {
            key: TuneRequest(self.spec.name, device_key(key), seed,
                             settings=self.settings, problem=self.spec.problem,
                             faults=self.faults)
            for key in self.devices
        }
        results: Dict[str, TuningResult] = {}
        measurers: Dict[str, Measurer] = {}
        for key, request in requests.items():
            # The measurer writes straight through to the campaign DB, so
            # every stage-one/stage-two measurement is durable and a
            # re-run against the same DB serves them back without cost.
            # It also measures the transplants below, on the same context.
            outcome = run_tune(request, db=self.db)
            results[key] = outcome.result
            measurers[key] = outcome.measurer

        matrix: Dict[str, Dict[str, Optional[float]]] = {}
        for target in self.devices:
            matrix[target] = {}
            for source in self.devices:
                r = results[source]
                if r.failed:
                    matrix[target][source] = float("nan")
                    continue
                t = measurers[target].measure(r.best_index)
                matrix[target][source] = t  # None when invalid on target

        if self.db is not None and self.db.path is not None:
            self.db.save()

        return CampaignResult(
            kernel=self.spec.name, results=results, transplant_matrix=matrix
        )


# -- parallel campaign grids ---------------------------------------------------


@dataclass(frozen=True)
class GridCell:
    """One tuned (kernel, device) pair with its engine telemetry."""

    kernel: str
    device: str
    result: TuningResult
    stats: EngineStats
    ledger: CostLedger


@dataclass(frozen=True)
class GridReport:
    """Outcome of :func:`run_campaign_grid`."""

    cells: Tuple[GridCell, ...]

    @property
    def total_stats(self) -> EngineStats:
        total = EngineStats()
        for cell in self.cells:
            total = total.merge(cell.stats)
        return total

    @property
    def total_cost_s(self) -> float:
        """Simulated wall-clock spent across all cells."""
        return sum(cell.ledger.total_s for cell in self.cells)

    def result(self, kernel: str, device: str) -> TuningResult:
        for cell in self.cells:
            if cell.kernel == kernel and cell.device == device:
                return cell.result
        raise KeyError(f"no cell {kernel}@{device}")

    def report(self) -> str:
        """Human-readable grid summary with engine counters."""
        lines = [f"campaign grid: {len(self.cells)} (kernel, device) cells"]
        for cell in self.cells:
            r = cell.result
            outcome = (
                "tuning FAILED"
                if r.failed
                else f"{r.best_time_s * 1e3:.3f} ms"
            )
            if r.degraded:
                outcome += f" [degraded: {r.degraded_reason}]"
            lines.append(
                f"  {cell.kernel} @ {cell.device}: {outcome}  "
                f"[{cell.stats.n_requested} measurements, "
                f"{cell.stats.cache_hit_rate:.0%} cache hits, "
                f"{cell.stats.configs_per_sec:,.0f} configs/s, "
                f"{cell.ledger.total_s / 60:.0f} min simulated]"
            )
        total = self.total_stats
        lines.append(
            f"  total: {total.n_requested} measurements "
            f"({total.n_simulated} simulated, {total.n_cache_hits} cached, "
            f"{total.n_db_hits} from DB), cache hit rate "
            f"{total.cache_hit_rate:.0%}, "
            f"{total.configs_per_sec:,.0f} configs/s, "
            f"{self.total_cost_s / 60:.0f} min simulated cost"
        )
        if total.n_faults:
            parts = ", ".join(
                f"{k} {v}" for k, v in total.failure_breakdown().items()
            )
            lines.append(f"  faults survived: {parts}")
        return "\n".join(lines)


def _run_grid_cell(payload) -> tuple:
    """Worker for one grid cell; module-level so process pools can pickle it.

    ``payload`` is ``(request, shard_path, trace_path)``.  Tunes against
    a DB-shard-backed measurer, saves the shard, and returns (result,
    stats, ledger) — everything the parent needs, nothing process-bound.
    When a trace path is given the worker writes its own JSONL trace there
    (processes cannot share a sink); the parent merges the per-worker
    files afterwards.
    """
    request, shard_path, trace_path = payload
    shard = MeasurementDB(Path(shard_path)) if shard_path else MeasurementDB()
    tracer = (Tracer(trace_path, manifest=request.manifest()) if trace_path
              else NULL_TRACER)
    try:
        outcome = run_tune(request, tracer=tracer, db=shard)
    finally:
        tracer.close()
    if shard.path is not None:
        shard.save()
    return outcome.result, outcome.measurer.stats, outcome.ledger


def run_campaign_grid(
    specs: Sequence[KernelSpec],
    devices: Sequence[str],
    settings: Optional[TunerSettings] = None,
    db: Optional[MeasurementDB] = None,
    max_workers: Optional[int] = None,
    seed: int = 0,
    tracer=None,
    faults=None,
    strategy: str = "ml",
) -> GridReport:
    """Tune every kernel on every device, cells in parallel processes.

    Each (kernel, device) cell is independent, so the grid fans out over a
    process pool; every worker measures against its own on-disk
    :class:`MeasurementDB` shard (JSON writes are not concurrency-safe
    across processes), and the shards are merged into ``db`` afterwards.
    When ``db`` already holds measurements for a cell they pre-seed its
    shard, so an interrupted grid picks up where it stopped.

    ``max_workers <= 1`` runs the cells inline (deterministic debugging,
    no multiprocessing); ``None`` sizes the pool to the grid and machine.

    When an enabled ``tracer`` is given, every worker writes its own JSONL
    trace shard (a file sink cannot be shared across processes) and the
    shards are merged into ``tracer`` afterwards, each record tagged with
    its ``worker="kernel@device"`` cell.

    ``faults`` (a :class:`~repro.simulator.faults.FaultProfile` or profile
    name — picklable, so it crosses the process boundary) arms every
    worker's runtime with the same fault injector; cells then tune through
    the resilient path and their stats carry the fault counters.

    ``strategy`` swaps the per-cell tuner: ``"ml"`` (default) runs the
    paper's two-stage ANN tuner; any strategy-zoo name or ``"bandit"``
    runs a model-free :class:`~repro.core.strategies.SearchTuner` with
    the same measurement allowance (``n_train + m_candidates``) and the
    same ledger cap (``settings.max_cost_s``).

    Every cell is a :class:`~repro.core.request.TuneRequest`, validated
    here before any worker starts.
    """
    specs = list(specs)
    devices = list(devices)
    if not specs or not devices:
        raise ValueError("need at least one kernel and one device")
    if settings is None:
        settings = TunerSettings(n_train=800, m_candidates=80)
    if tracer is None:
        tracer = NULL_TRACER
    requests = [
        TuneRequest(spec.name, device_key(key), seed, strategy, settings,
                    problem=spec.problem, faults=faults)
        for spec in specs
        for key in devices
    ]

    tmpdir = Path(tempfile.mkdtemp(prefix="repro-campaign-"))
    try:
        payloads: List[tuple] = []
        for request in requests:
            cell = f"{request.kernel}-{request.device}"
            device_name = get_device(request.device).name
            shard_path = tmpdir / f"{cell}.json"
            if db is not None:
                known = db.table(request.kernel, device_name)
                if known:
                    shard = MeasurementDB(shard_path)
                    shard.put_many(request.kernel, device_name, known)
                    shard.save()
            trace_path = (
                str(tmpdir / f"{cell}.trace.jsonl") if tracer.enabled else None
            )
            payloads.append((request, str(shard_path), trace_path))

        with tracer.span("campaign.grid", cells=len(payloads)):
            if max_workers is not None and max_workers <= 1:
                outcomes = [_run_grid_cell(p) for p in payloads]
            else:
                workers = max_workers or min(len(payloads), os.cpu_count() or 1)
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(pool.map(_run_grid_cell, payloads))

        grid_cells = []
        for (request, shard_path, trace_path), outcome in zip(payloads, outcomes):
            result, stats, ledger = outcome
            if db is not None:
                db.merge_from(MeasurementDB(Path(shard_path)))
            device_name = get_device(request.device).name
            if trace_path:
                tracer.merge_file(
                    trace_path, worker=f"{request.kernel}@{device_name}"
                )
            grid_cells.append(
                GridCell(
                    kernel=request.kernel,
                    device=device_name,
                    result=result,
                    stats=stats,
                    ledger=ledger,
                )
            )
        if db is not None and db.path is not None:
            db.save()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return GridReport(cells=tuple(grid_cells))
