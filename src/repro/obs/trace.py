"""Spans, counters and JSONL traces for the tuning pipeline.

The paper's headline results are cost-vs-quality curves, so the repo needs
to answer "where did the simulated seconds (and the wall-clock) go?" per
*stage*, not just in aggregate.  This module provides the primitives:

* :class:`Tracer` — records nestable timed spans, typed counters/gauges
  and ad-hoc events, and streams them as JSON Lines to a file (or keeps
  them in memory when no path is bound).  A trace opens with a manifest
  record identifying the run (kernel, device, settings, seeds, git rev)
  and the numeric stack it ran on (NumPy, BLAS, SIMD dispatch, core
  count).
* :class:`NullTracer` / :data:`NULL_TRACER` — the disabled tracer every
  component uses by default.  All of its methods are no-ops, so
  instrumentation costs a handful of attribute lookups per *batch* (never
  per configuration); ``benchmarks/test_perf_obs_overhead.py`` gates that
  overhead at <3% of the 10K-config sweep.

Cost attribution: when a :class:`~repro.simulator.noise.CostLedger` is
bound (``Context`` binds its own automatically), every span records the
ledger delta across its lifetime as ``cost_s``.  Sibling spans therefore
partition their parent's cost exactly — the property the trace-summary
reporter and the acceptance tests rely on.

The module imports nothing from the rest of the package (only the stdlib,
plus NumPy when a manifest is built), so any layer — ``ml``, ``core``,
``runtime`` — may import it without cycles.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

#: Version stamp of the JSONL event schema (see docs/observability.md).
SCHEMA_VERSION = 1


def git_revision(start: Optional[Path] = None) -> Optional[str]:
    """Best-effort commit hash of the repository containing ``start``.

    Reads ``.git`` directly (no subprocess): resolves ``HEAD`` through one
    level of symbolic ref, falling back to ``packed-refs``.  Returns None
    outside a git checkout or on any parsing surprise — a trace without a
    revision is better than a crash.
    """
    try:
        base = Path(start) if start is not None else Path(__file__).resolve()
        for root in [base] + list(base.parents):
            git = root / ".git"
            if not git.exists():
                continue
            if git.is_file():  # worktree/submodule: "gitdir: <path>"
                git = (root / git.read_text().partition(":")[2].strip()).resolve()
            head = (git / "HEAD").read_text().strip()
            if not head.startswith("ref:"):
                return head or None
            ref = head.partition(" ")[2].strip()
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip() or None
            packed = git / "packed-refs"
            if packed.exists():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        return line.split()[0]
            return None
    except OSError:
        return None
    return None


def run_manifest(**fields) -> Dict[str, Any]:
    """Standard manifest payload: caller fields + environment provenance.

    The numeric stack (NumPy, BLAS, core count) is recorded because
    float32 GEMM rounding depends on it: a tolerance that fails on one
    host should name the build it failed on.  ``simd`` names the CPU
    target NumPy dispatches the float64 ``exp``/``log``/``cos`` loops to
    (the simulator's noise and keyed draws), whose results the
    measurement fixtures compare bit for bit; it is None before NumPy
    2.0, which cannot report it.
    """
    import numpy as np

    try:  # NumPy releases before 1.26 take no ``mode``
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # NumPy < 2.0
        simd = None
    else:
        loops = opt_func_info(func_name="^(exp|log|cos)$", signature="float64")
        simd = {  # None: no dispatched float64 loop on this build
            name: loops.get(name, {}).get("dd", {}).get("current")
            for name in ("exp", "log", "cos")
        }
    manifest: Dict[str, Any] = dict(fields)
    manifest.setdefault("git_rev", git_revision())
    manifest.setdefault("python", sys.version.split()[0])
    manifest.setdefault("numpy", np.__version__)
    manifest.setdefault("blas", blas)
    manifest.setdefault("simd", simd)
    manifest.setdefault("nproc", os.cpu_count())
    manifest.setdefault("created_unix_s", time.time())
    return manifest


def _jsonable(obj):
    """Recursive JSON coercion: numpy scalars/arrays, paths, non-finite
    floats (encoded as strings, keeping every line strict JSON)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy array
        return _jsonable(obj.tolist())
    if hasattr(obj, "item"):  # numpy scalar
        return _jsonable(obj.item())
    return str(obj)


class Span:
    """One timed region; created by :meth:`Tracer.span`, used as a context
    manager.  The record is emitted at exit (children before parents)."""

    __slots__ = ("tracer", "name", "attrs", "depth", "parent", "t0", "cost0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self.parent: Optional[str] = None
        self.t0 = 0.0
        self.cost0: Optional[float] = None

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._exit(self, failed=exc_type is not None)


class _NullSpan:
    """Shared do-nothing span handed out by the disabled tracer."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code calls it unconditionally; code that would build an
    *expensive argument* (a loss curve, a big attrs dict) must guard on
    :attr:`enabled` first.
    """

    enabled = False
    ledger = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n=1) -> None:
        return None

    def gauge(self, name: str, value) -> None:
        return None

    def event(self, name: str, **attrs) -> None:
        return None

    def bind_ledger(self, ledger) -> None:
        return None

    def close(self) -> None:
        return None

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: Process-wide disabled tracer; the default everywhere.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans/counters/gauges/events; streams JSONL when ``path``
    is bound, else accumulates records in :attr:`records`.

    Parameters
    ----------
    path:
        Destination JSONL file (created/truncated on first write).  None
        keeps records in memory — handy for tests and embedding.
    manifest:
        Run-identifying fields written as the first record (see
        :func:`run_manifest`).
    ledger:
        Cost ledger snapshotted around every span (``cost_s`` deltas).
        ``Context`` binds its own ledger on construction when the tracer
        has none yet.
    sink:
        Optional callable invoked with every emitted record (after JSON
        coercion).  The ``repro.serve`` daemon streams progress to a
        client by pointing a per-request tracer's sink at the client's
        event queue.  A sink-only tracer (no path) does *not* accumulate
        records in memory — a long-lived server must not grow without
        bound.

    Writes are serialized under an internal lock, so one tracer may be
    shared by concurrent threads without interleaving half-written lines;
    a span that exits on an exception path flushes and fsyncs the file
    immediately, so a crashed (or killed) run keeps the spans it paid for.
    """

    enabled = True

    def __init__(
        self,
        path=None,
        manifest: Optional[Mapping[str, Any]] = None,
        ledger=None,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        self.path = Path(path) if path is not None else None
        self.ledger = ledger
        self.sink = sink
        self.records: List[dict] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, Any] = {}
        self._fh = None
        self._lock = threading.Lock()
        self._stack: List[Span] = []
        self._t0 = time.perf_counter()
        self._closed = False
        self._closing = False
        if manifest is not None:
            self.emit(
                {"type": "manifest", "schema": SCHEMA_VERSION, **dict(manifest)}
            )

    # -- record sink -----------------------------------------------------------

    def emit(self, record: Mapping[str, Any]) -> None:
        """Append one record to the trace (file, sink and/or memory)."""
        record = _jsonable(record)
        with self._lock:
            if self._closed:
                raise RuntimeError("tracer already closed")
            if self.path is not None:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fh = open(self.path, "w")
                self._fh.write(json.dumps(record, allow_nan=False) + "\n")
            elif self.sink is None:
                self.records.append(record)
        if self.sink is not None:
            self.sink(record)

    def flush(self) -> None:
        """Push buffered records to durable storage (flush + fsync)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _enter(self, span: Span) -> None:
        span.depth = len(self._stack)
        span.parent = self._stack[-1].name if self._stack else None
        self._stack.append(span)
        if self.ledger is not None:
            span.cost0 = self.ledger.total_s
        span.t0 = self._now()

    def _exit(self, span: Span, failed: bool = False) -> None:
        end = self._now()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        record: Dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "t0_s": round(span.t0, 9),
            "dur_s": round(end - span.t0, 9),
            "depth": span.depth,
        }
        if span.parent is not None:
            record["parent"] = span.parent
        if span.cost0 is not None:
            record["cost_s"] = self.ledger.total_s - span.cost0
        if failed:
            record["failed"] = True
        if span.attrs:
            record["attrs"] = span.attrs
        self.emit(record)
        if failed:
            # Exception path: make the span durable *now* — the process
            # may be about to die, and buffered spans are the evidence.
            self.flush()

    # -- metrics ---------------------------------------------------------------

    def count(self, name: str, n=1) -> None:
        """Add ``n`` to a monotonically accumulating counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value) -> None:
        """Record a last-value-wins measurement."""
        with self._lock:
            self.gauges[name] = value

    def event(self, name: str, **attrs) -> None:
        """One point-in-time record (checkpoints, loss curves, notes)."""
        record: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "t_s": round(self._now(), 9),
        }
        if attrs:
            record["attrs"] = attrs
        self.emit(record)

    def bind_ledger(self, ledger) -> None:
        """Attach the cost ledger spans snapshot for ``cost_s`` deltas."""
        self.ledger = ledger

    # -- merging (campaign-grid workers) ---------------------------------------

    def merge_file(self, path, **extra) -> int:
        """Fold a worker's JSONL trace into this one; returns records merged.

        Every merged record is tagged with ``extra`` (e.g. ``worker=...``);
        a worker's manifest/counters/gauges records become ``worker_*``
        records (a trace has exactly one fleet-wide instance of each), and
        worker counters are summed into this tracer's so its closing
        counters record covers the whole fleet.
        """
        n = 0
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind in ("manifest", "counters", "gauges"):
                record["type"] = "worker_" + kind
                if kind == "counters":
                    for key, value in record.get("values", {}).items():
                        self.count(key, value)
            record.update(extra)
            self.emit(record)
            n += 1
        return n

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush aggregate counters/gauges and release the file handle."""
        with self._lock:
            if self._closed or self._closing:
                return
            self._closing = True
        while self._stack:  # abandoned spans (crash paths) still emit
            self._exit(self._stack[-1], failed=True)
        if self.counters:
            self.emit({"type": "counters", "values": dict(self.counters)})
        if self.gauges:
            self.emit({"type": "gauges", "values": dict(self.gauges)})
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._fh.close()
                self._fh = None
            self._closed = True

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
