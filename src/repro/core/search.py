"""Search baselines: exhaustive, random, and one-at-a-time.

Exhaustive search provides the ground-truth optimum for Figs. 1 and 11-13
(feasible only for convolution's 131K space); random search is the
equal-budget control for the two-stage ablation; coordinate descent is the
strategy the paper argues *cannot* work ("since the parameters are not
independent, the best values cannot be found by varying the values of one
parameter at a time", §5.1).

``random_search`` and ``coordinate_descent`` are thin wrappers over the
strategy zoo (:mod:`repro.core.strategies`) — same draws, same
measurements, now with honest accounting: the start scan's free
static-validity probes (one ``valid_mask`` batch) are reported as
``n_probed`` instead of inflating ``n_measured``, and a
digits tuple already measured in this run (the incumbent included) is
served from the run's memo instead of billing the ledger again.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.measure import MeasurementSet, Measurer
from repro.core.results import MeasurementDB


def exhaustive_search(
    measurer: Measurer,
    db: Optional[MeasurementDB] = None,
    indices: Optional[Sequence[int]] = None,
    chunk_size: int = 4096,
    checkpoint_every: int = 8,
) -> MeasurementSet:
    """Measure every configuration (or a given subset) once.

    Runs through the vectorized batch engine in ``chunk_size`` slices.
    When a :class:`MeasurementDB` is given (or already attached to the
    measurer) every measurement is recorded in it, already-stored indices
    are served from it without re-measuring, and — if the DB is bound to a
    path — a checkpoint is saved every ``checkpoint_every`` chunks.  Killing
    a sweep and re-running it against the same DB therefore resumes where
    the last checkpoint left off.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    space = measurer.spec.space
    if indices is None:
        indices = range(space.size)
    idx = np.fromiter((int(i) for i in indices), dtype=np.int64)
    if db is None:
        db = measurer.db
    prev_db, measurer.db = measurer.db, db
    durable = db is not None and db.path is not None
    result = MeasurementSet(
        indices=np.empty(0, dtype=np.int64),
        times_s=np.empty(0, dtype=np.float64),
        invalid_indices=np.empty(0, dtype=np.int64),
    )
    tracer = measurer.context.tracer
    try:
        with tracer.span(
            "search.exhaustive", n=int(idx.size), chunk_size=chunk_size
        ) as sp:
            n_checkpoints = 0
            final_chunk_saved = False
            for k, start in enumerate(range(0, idx.size, chunk_size), start=1):
                result = result.merged_with(
                    measurer.measure_batch(idx[start : start + chunk_size])
                )
                final_chunk_saved = False
                if durable and checkpoint_every and k % checkpoint_every == 0:
                    db.save()
                    n_checkpoints += 1
                    final_chunk_saved = True
                    if tracer.enabled:
                        tracer.event(
                            "search.checkpoint",
                            chunk=k,
                            measured=result.n_valid + result.n_invalid,
                        )
            if durable and not final_chunk_saved:
                # The final chunk may have just checkpointed (``k`` on a
                # boundary); saving again would double-count and re-write
                # an identical snapshot.
                db.save()
                n_checkpoints += 1
            sp.set(checkpoints=n_checkpoints)
            tracer.count("search.checkpoints", n_checkpoints)
    finally:
        measurer.db = prev_db
    return result


def random_search(
    measurer: Measurer, budget: int, rng: np.random.Generator
) -> MeasurementSet:
    """Measure ``budget`` uniform random configurations (the Fig. 14
    comparison point: best of 50K random samples)."""
    from repro.core.strategies import RandomStrategy, SearchSettings, run_search

    if budget < 1:
        raise ValueError("budget must be >= 1")
    settings = SearchSettings(budget=budget, batch=budget)
    outcome = run_search(
        measurer, RandomStrategy(measurer, settings), rng, settings
    )
    return outcome.measurements


class CoordinateDescentResult(NamedTuple):
    """Return value of :func:`coordinate_descent`.

    ``n_measured`` counts ledger-charged measurements only;
    ``n_probed`` counts the free static-validity checks of the start
    scan, the samples up to and including the first valid one (one
    ``Measurer.valid_mask`` batch, which bills nothing, so it must not
    inflate the measurement count).
    """

    best_index: int
    best_time_s: float
    n_measured: int
    n_probed: int


def coordinate_descent(
    measurer: Measurer,
    rng: np.random.Generator,
    max_sweeps: int = 4,
    start_index: Optional[int] = None,
) -> CoordinateDescentResult:
    """One-parameter-at-a-time greedy search.

    From a random valid starting configuration, repeatedly sweep the
    parameters; for each, try every value with the others held fixed and
    keep the best.  Converges to a point no single-parameter change can
    improve — a local optimum that parameter interactions routinely trap
    far from the global one.

    Returns a :class:`CoordinateDescentResult`; ``best_index`` is ``-1``
    (time NaN) if no valid starting point was found — including a
    caller-supplied ``start_index`` that turns out to be invalid (its
    probe is a real measurement, so it *is* counted in ``n_measured``).

    Trial tuples already measured in this run — including the incumbent
    when a sweep revisits it — are served from the run's memo, so
    ``n_measured`` matches ledger spend.
    """
    from repro.core.strategies import (
        CoordinateDescentStrategy,
        SearchSettings,
        run_search,
    )

    settings = SearchSettings(budget=10**9, batch=4096)
    strategy = CoordinateDescentStrategy(
        measurer, settings, max_sweeps=max_sweeps, start_index=start_index
    )
    outcome = run_search(measurer, strategy, rng, settings)
    if strategy.incumbent < 0 or not np.isfinite(strategy.incumbent_time_s):
        return CoordinateDescentResult(
            -1, float("nan"), outcome.n_measured, strategy.n_probed
        )
    return CoordinateDescentResult(
        strategy.incumbent,
        float(strategy.incumbent_time_s),
        outcome.n_measured,
        strategy.n_probed,
    )
