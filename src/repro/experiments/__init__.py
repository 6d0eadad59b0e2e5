"""Per-figure reproduction harness.

One module per table/figure of the paper's evaluation (see DESIGN.md §4 for
the index).  Every module exposes

* ``units(p, seed, faults=None) -> list`` — the experiment split into
  :class:`~repro.experiments.scheduler.Unit` calls of its own module-level
  functions, the one place the split is written;
* ``merge(p, results) -> dict`` — the unit results, in plan order, as the
  experiment's data;
* ``run(preset=..., seed=...) -> dict`` — ``merge`` over ``units`` run
  inline (the single-unit experiments' ``run`` is their unit);
* ``format_text(results) -> str`` — render the same rows/series the paper
  reports, as text;
* a ``main()`` CLI entry point.

``python -m repro.experiments.run_all`` regenerates every experiment and
writes EXPERIMENTS.md; its scheduler runs the units inline or on worker
processes.
"""

from repro.experiments.oracle import TrueTimeOracle
from repro.experiments.oracle_store import OracleProvider, OracleStore
from repro.experiments.presets import FAST, FULL, get_preset

__all__ = [
    "TrueTimeOracle",
    "OracleProvider",
    "OracleStore",
    "FAST",
    "FULL",
    "get_preset",
]
