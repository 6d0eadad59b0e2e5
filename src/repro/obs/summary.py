"""Read JSONL traces back and render the per-stage time/cost breakdown.

The reader is the write path's mirror: :func:`load_trace` parses the
lines, :class:`TraceSummary` aggregates spans by name (wall-clock, cost,
and *self*-cost — cost minus children's cost, so rows partition the total
without double counting), and :func:`render_summary` prints the table the
``repro trace-summary`` subcommand shows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence


def _as_float(value) -> float:
    """Undo the strict-JSON encoding of non-finite floats ('nan', 'inf')."""
    return float(value)


def load_trace(path) -> List[dict]:
    """Parse a JSONL trace file into its records (blank lines skipped)."""
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


class SpanAggregate:
    """Totals of all spans sharing one name (within one worker stream)."""

    __slots__ = ("name", "count", "wall_s", "cost_s", "self_cost_s", "depth")

    def __init__(self, name: str, depth: int):
        self.name = name
        self.depth = depth
        self.count = 0
        self.wall_s = 0.0
        self.cost_s = 0.0
        self.self_cost_s = 0.0


class TraceSummary:
    """Aggregated view of one trace: manifest, spans, counters, gauges."""

    def __init__(self, records: Sequence[Mapping[str, Any]]):
        self.manifest: Optional[dict] = None
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, Any] = {}
        self.workers: List[str] = []
        self.spans: Dict[str, SpanAggregate] = {}
        self.total_cost_s = 0.0
        self.total_wall_s = 0.0
        #: The prediction sweep's calls: configurations, wall seconds and
        #: the thread counts they ran on.
        self.sweep_configs = 0
        self.sweep_wall_s = 0.0
        self.sweep_threads: set = set()
        # Span records arrive children-before-parents (emitted at exit), so
        # a parent's direct children are the unclaimed spans one level
        # deeper.  Track per worker stream: merged traces interleave cells.
        pending: Dict[tuple, Dict[int, List[dict]]] = {}
        for record in records:
            kind = record.get("type")
            if kind == "manifest" and self.manifest is None:
                self.manifest = dict(record)
            elif kind == "counters":
                for key, value in record.get("values", {}).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            elif kind == "gauges":
                self.gauges.update(record.get("values", {}))
            elif kind == "span":
                worker = record.get("worker")
                if worker is not None and worker not in self.workers:
                    self.workers.append(worker)
                self._add_span(record, pending.setdefault((worker,), {}))
                if record["name"] in ("sweep.predict", "sweep.top_m"):
                    self._add_sweep(record)

    def _add_span(self, record: Mapping[str, Any], pending: Dict[int, List[dict]]) -> None:
        depth = int(record.get("depth", 0))
        cost = _as_float(record.get("cost_s", 0.0))
        children = pending.pop(depth + 1, [])
        child_cost = sum(_as_float(c.get("cost_s", 0.0)) for c in children)
        agg = self.spans.get(record["name"])
        if agg is None:
            agg = self.spans[record["name"]] = SpanAggregate(record["name"], depth)
        agg.count += 1
        agg.wall_s += _as_float(record.get("dur_s", 0.0))
        agg.cost_s += cost
        agg.self_cost_s += cost - child_cost
        pending.setdefault(depth, []).append(dict(record))
        if depth == 0:
            self.total_cost_s += cost
            self.total_wall_s += _as_float(record.get("dur_s", 0.0))
            pending.clear()

    def _add_sweep(self, record: Mapping[str, Any]) -> None:
        attrs = record.get("attrs", {})
        self.sweep_configs += int(attrs.get("n", 0))
        self.sweep_wall_s += _as_float(record.get("dur_s", 0.0))
        if "threads" in attrs:
            self.sweep_threads.add(int(attrs["threads"]))

    def sweep_line(self) -> Optional[str]:
        """The prediction sweep's throughput and thread count, or None
        when the trace holds no sweep."""
        if not self.sweep_configs or self.sweep_wall_s <= 0:
            return None
        lo = min(self.sweep_threads, default=1)
        hi = max(self.sweep_threads, default=1)
        threads = f"{hi}" if lo == hi else f"{lo}-{hi}"
        return (
            f"prediction sweep: {self.sweep_configs:,} configs in "
            f"{self.sweep_wall_s:.3f} s, "
            f"{self.sweep_configs / self.sweep_wall_s:,.0f} configs/s "
            f"on {threads} thread{'s' if hi > 1 else ''}"
        )

    def stage_rows(self) -> List[SpanAggregate]:
        """Span aggregates, shallowest first then by cost share."""
        return sorted(
            self.spans.values(), key=lambda a: (a.depth, -a.self_cost_s, a.name)
        )


def summarize(path_or_records) -> TraceSummary:
    """Build a :class:`TraceSummary` from a path or parsed records."""
    if isinstance(path_or_records, (str, Path)):
        return TraceSummary(load_trace(path_or_records))
    return TraceSummary(path_or_records)


def render_summary(path_or_records) -> str:
    """Human-readable report: manifest, per-stage breakdown, counters."""
    from repro.experiments.reporting import kv_block, table

    s = summarize(path_or_records)
    blocks: List[str] = []
    if s.manifest is not None:
        shown = {
            k: v
            for k, v in s.manifest.items()
            if k not in ("type", "schema") and v is not None
        }
        if shown:
            blocks.append("run manifest\n" + kv_block(shown))
    if s.workers:
        blocks.append(f"workers merged: {len(s.workers)}")

    rows = []
    total_cost = s.total_cost_s
    for agg in s.stage_rows():
        share = agg.self_cost_s / total_cost if total_cost > 0 else 0.0
        rows.append(
            (
                "  " * agg.depth + agg.name,
                agg.count,
                f"{agg.wall_s:.3f}",
                f"{agg.cost_s:.2f}",
                f"{agg.self_cost_s:.2f}",
                f"{100.0 * share:.1f}%",
            )
        )
    if rows:
        blocks.append(
            "per-stage breakdown (cost = simulated seconds; self = minus "
            "children)\n"
            + table(
                rows,
                headers=("stage", "calls", "wall s", "cost s", "self s", "share"),
            )
        )
        blocks.append(
            f"total: {s.total_wall_s:.3f} s wall, "
            f"{s.total_cost_s:.2f} s simulated cost"
        )
    sweep_line = s.sweep_line()
    if sweep_line is not None:
        blocks.append(sweep_line)
    unit_rows = [
        agg for name, agg in s.spans.items() if name.startswith("unit:")
    ]
    if unit_rows:
        blocks.append(
            "per-unit breakdown (run_all scheduler)\n"
            + table(
                [
                    (
                        agg.name[len("unit:"):],
                        agg.count,
                        f"{agg.wall_s:.3f}",
                        f"{agg.cost_s:.2f}",
                    )
                    for agg in sorted(unit_rows, key=lambda a: -a.wall_s)
                ],
                headers=("unit", "calls", "wall s", "cost s"),
            )
        )

    exp_walls = {
        key[len("runall."):-len(".wall_s")]: _as_float(value)
        for key, value in s.gauges.items()
        if key.startswith("runall.")
        and key.endswith(".wall_s")
        and key != "runall.total_wall_s"
    }
    if exp_walls:
        rows = [
            (exp, f"{wall:.3f}")
            for exp, wall in sorted(exp_walls.items(), key=lambda kv: -kv[1])
        ]
        block = "per-experiment wall clock (run_all)\n" + table(
            rows, headers=("experiment", "wall s")
        )
        total = s.gauges.get("runall.total_wall_s")
        if total is not None:
            block += f"\nrun_all total: {_as_float(total):.3f} s wall"
        blocks.append(block)

    arms: Dict[str, Dict[str, Any]] = {}
    for key, value in s.gauges.items():
        if not key.startswith("strategy."):
            continue
        _, name, field = key.split(".", 2)
        arms.setdefault(name, {})[field] = value
    if arms:
        def _best(fields):
            try:
                best = _as_float(fields.get("best_ms", "nan"))
            except (TypeError, ValueError):
                return float("inf")
            return best if best == best else float("inf")

        rows = []
        for name in sorted(arms, key=lambda n: _best(arms[n])):
            fields = arms[name]
            best = _best(fields)
            rows.append(
                (
                    name,
                    "-" if best == float("inf") else f"{best:.3f}",
                    f"{fields.get('pulls', '-')}",
                    f"{fields.get('measured', '-')}",
                    f"{_as_float(fields.get('spend_s', 0.0)):.1f}",
                    f"{_as_float(fields.get('mean_reward', 0.0)):.6f}",
                )
            )
        blocks.append(
            "strategy leaderboard (best measured time per search strategy)\n"
            + table(
                rows,
                headers=(
                    "strategy", "best ms", "pulls", "measured", "spend s",
                    "reward/s",
                ),
            )
        )

    faults = {
        k[len("fault."):]: s.counters[k]
        for k in sorted(s.counters)
        if k.startswith("fault.")
    }
    if faults:
        degraded = s.counters.get("tuner.degraded")
        if degraded:
            faults["degraded runs"] = degraded
        blocks.append(
            "fault injection survived (resilient measurement path)\n"
            + kv_block(faults)
        )
    if s.counters:
        blocks.append(
            "counters\n"
            + kv_block({k: s.counters[k] for k in sorted(s.counters)})
        )
    if s.gauges:
        blocks.append(
            "gauges\n" + kv_block({k: s.gauges[k] for k in sorted(s.gauges)})
        )
    if not blocks:
        return "empty trace"
    return "\n\n".join(blocks)
