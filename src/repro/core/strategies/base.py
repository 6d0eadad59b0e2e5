"""Common interface of the search-strategy zoo.

Every strategy is a stateful proposer over a (possibly pinned) parameter
subspace: :func:`run_search` repeatedly asks it to ``propose(rng,
budget)`` a batch of flat configuration indices, measures them through
:meth:`~repro.core.measure.Measurer.measure_batch` (so every strategy
inherits the wave engine's fault/drift resilience for free), and feeds
the :class:`~repro.core.measure.MeasurementSet` back through
``observe``.  The loop owns the stopping rules — a proposal budget, an
optional :class:`~repro.simulator.noise.CostLedger` simulated-second cap
— and the trace spans, so strategies stay pure search logic.

Pinned parameters (``SearchSettings.pins``) follow the dbcsr autotuner
idiom: the user fixes a few parameters by value and the strategy sweeps
only the free ones.  :class:`Subspace` does the arithmetic — the same
mixed-radix slice as :meth:`~repro.params.space.ParameterSpace.indices_with`,
without materializing anything until a caller asks.

Determinism contract: a strategy draws randomness *only* from the
``rng`` handed to ``propose`` and keeps all other state in plain
attributes exposed through ``state()``/``restore()`` — so a run is
bit-reproducible from ``(seed, settings)`` and resumable mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.measure import MeasurementSet, Measurer


def normalize_pins(pins) -> Tuple[Tuple[str, Any], ...]:
    """Canonical, hashable form of a pin mapping (sorted name/value pairs)."""
    if not pins:
        return ()
    if isinstance(pins, Mapping):
        items = pins.items()
    else:
        items = tuple(pins)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class SearchSettings:
    """Budget and constraints shared by every strategy.

    Attributes
    ----------
    budget:
        Maximum *proposals* (measurement slots requested).  Charged
        measurements are reported separately — DB hits and quarantine
        skips are free, and :class:`SearchOutcome.n_measured` is what
        actually hit the ledger.
    max_cost_s:
        Optional cap on simulated ledger seconds; checked between rounds
        (like ``TunerSettings.max_cost_s``), so a run can overshoot by at
        most one batch.
    batch:
        Proposals per round.  Larger batches amortize the vectorized
        engine; smaller ones give the strategy faster feedback.
    pins:
        User-pinned parameters as a mapping or ``(name, value)`` pairs;
        stored canonicalized so settings stay hashable.
    repeats:
        Best-of-``repeats`` launches per measurement (mirrors
        ``TunerSettings.repeats``).
    """

    budget: int = 1000
    max_cost_s: Optional[float] = None
    batch: int = 64
    pins: Tuple[Tuple[str, Any], ...] = ()
    repeats: int = 3

    def __post_init__(self):
        object.__setattr__(self, "pins", normalize_pins(self.pins))
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.max_cost_s is not None and self.max_cost_s <= 0:
            raise ValueError("max_cost_s must be positive")

    def pins_dict(self) -> Dict[str, Any]:
        return dict(self.pins)


class Subspace:
    """The slice of a parameter space left free by a set of pins.

    The flat-index arithmetic mirrors
    :meth:`~repro.params.space.ParameterSpace.indices_with`: every pinned
    parameter contributes a constant ``digit * place`` offset
    (``base_index``), and the free parameters form their own mixed-radix
    system of ``size`` points.  Nothing is enumerated until
    :meth:`indices` is called.
    """

    def __init__(self, space, pins: Optional[Mapping[str, Any]] = None):
        pins = dict(pins or {})
        unknown = set(pins) - set(space.names)
        if unknown:
            raise ValueError(f"unknown pinned parameters: {sorted(unknown)}")
        self.space = space
        self.pins = pins
        base = 0
        free_params = []
        free_places = []
        for p, place in zip(space.parameters, space.places):
            if p.name in pins:
                base += p.index_of(pins[p.name]) * place
            else:
                free_params.append(p)
                free_places.append(place)
        self.base_index = int(base)
        self.free_parameters = tuple(free_params)
        self._free_places = np.asarray(free_places, dtype=np.int64)
        self.cards = np.asarray(
            [p.cardinality for p in free_params], dtype=np.int64
        )
        # Places of the *sub*-index mixed-radix system (suffix products).
        sub_places = np.ones(len(free_params), dtype=np.int64)
        for i in range(len(free_params) - 2, -1, -1):
            sub_places[i] = sub_places[i + 1] * self.cards[i + 1]
        self._sub_places = sub_places
        self.size = int(self.cards.prod()) if len(free_params) else 1

    @property
    def n_free(self) -> int:
        return len(self.free_parameters)

    def flat_of_digits(self, digits: np.ndarray) -> np.ndarray:
        """Flat space indices of ``(n, n_free)`` free-digit rows."""
        digits = np.asarray(digits, dtype=np.int64)
        if digits.ndim == 1:
            digits = digits[None, :]
        return self.base_index + digits @ self._free_places

    def digits_of_flat(self, indices) -> np.ndarray:
        """Free-digit rows of flat space indices (pinned digits dropped)."""
        full = self.space.digits_matrix(np.asarray(indices, dtype=np.int64))
        keep = [
            j
            for j, p in enumerate(self.space.parameters)
            if p.name not in self.pins
        ]
        return full[:, keep]

    def digits_of_sub(self, sub: np.ndarray) -> np.ndarray:
        """Free-digit rows of ``(n,)`` sub-indices in ``[0, size)``."""
        sub = np.asarray(sub, dtype=np.int64)
        out = np.empty((sub.shape[0], self.n_free), dtype=np.int64)
        rem = sub.copy()
        for j, place in enumerate(self._sub_places):
            out[:, j], rem = np.divmod(rem, place)
        return out

    def sample_flat(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` uniform flat indices of the subspace, without replacement.

        Unpinned, this *is* ``space.sample_indices`` — same draws, same
        bits — so strategy runs with no pins stay exactly comparable to
        the legacy baselines.
        """
        if not self.pins:
            return self.space.sample_indices(n, rng)
        if n > self.size:
            raise ValueError(f"cannot sample {n} from subspace of {self.size}")
        if self.size <= 4 * n or self.size <= 1 << 16:
            sub = rng.permutation(self.size)[:n]
        else:
            sub = np.empty(0, dtype=np.int64)
            while sub.shape[0] < n:
                draw = rng.integers(0, self.size, size=n - sub.shape[0])
                merged = np.concatenate([sub, draw])
                _, first = np.unique(merged, return_index=True)
                sub = merged[np.sort(first)]
            sub = sub[:n]
        return self.flat_of_digits(self.digits_of_sub(sub))

    def random_digits(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``(n, n_free)`` uniform digit rows (with replacement)."""
        return rng.integers(0, self.cards, size=(n, self.n_free))

    def indices(self) -> np.ndarray:
        """Materialize every flat index of the subspace (ascending)."""
        return self.space.indices_with(**self.pins)


@dataclass
class SearchOutcome:
    """What one strategy run hands back.

    ``n_proposed`` counts measurement slots requested; ``n_measured``
    counts the ones that actually charged the ledger (simulator
    evaluations plus cached re-measures) and ``n_free`` the ones served
    from the attached :class:`~repro.core.results.MeasurementDB` at zero
    cost — the probed/measured split the accounting fixes in
    ``core.search`` report the same way.
    """

    strategy: str
    best_index: int = -1
    best_time_s: float = float("nan")
    n_proposed: int = 0
    n_measured: int = 0
    n_free: int = 0
    n_invalid: int = 0
    n_quarantined: int = 0
    rounds: int = 0
    cost_s: float = 0.0
    stop_reason: str = ""
    pins: Dict[str, Any] = field(default_factory=dict)
    measurements: Optional[MeasurementSet] = None

    @property
    def failed(self) -> bool:
        return self.best_index < 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "best_index": int(self.best_index),
            "best_time_s": float(self.best_time_s),
            "n_proposed": int(self.n_proposed),
            "n_measured": int(self.n_measured),
            "n_free": int(self.n_free),
            "n_invalid": int(self.n_invalid),
            "n_quarantined": int(self.n_quarantined),
            "rounds": int(self.rounds),
            "cost_s": float(self.cost_s),
            "stop_reason": self.stop_reason,
            "pins": dict(self.pins),
        }


class SearchStrategy:
    """Base class: a resumable proposer over a pinned subspace.

    Subclasses implement :meth:`propose` (and usually :meth:`observe`);
    they may consult ``self.measurer.is_valid`` — static validity is
    free — but must never call ``measure``/``measure_batch`` themselves:
    the run loop owns measurement so accounting and resilience stay in
    one place.
    """

    name = "base"

    def __init__(self, measurer: Measurer, settings: SearchSettings):
        self.measurer = measurer
        self.space = measurer.spec.space
        self.settings = settings
        self.sub = Subspace(self.space, settings.pins_dict())

    def propose(self, rng: np.random.Generator, budget: int) -> np.ndarray:
        """Next batch of flat indices to measure (at most ``budget``).

        An empty array means the strategy has nothing left to try; the
        run loop stops with ``stop_reason="exhausted"``.
        """
        raise NotImplementedError

    def observe(self, indices: np.ndarray, ms: MeasurementSet) -> None:
        """Feed back the measurements of the last proposal."""

    def exhausted(self) -> bool:
        return False

    # -- resume ----------------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """JSON-portable snapshot of the strategy's mutable state."""
        return {}

    def restore(self, state: Mapping[str, Any]) -> None:
        """Resume from a :meth:`state` snapshot."""


def _charged(stats) -> int:
    """Measurements that billed the ledger (everything but DB hits and
    quarantine skips)."""
    return stats.n_simulated + stats.n_cache_hits


def run_search(
    measurer: Measurer,
    strategy: SearchStrategy,
    rng: np.random.Generator,
    settings: Optional[SearchSettings] = None,
) -> SearchOutcome:
    """Drive one strategy to completion under the shared stopping rules.

    Emits one ``search.<name>`` span around the run and final
    ``strategy.<name>.*`` gauges (best time, ledger spend, rounds,
    charged measurements) — the rows the ``trace-summary`` leaderboard
    renders.
    """
    settings = settings or strategy.settings
    tracer = measurer.context.tracer
    ledger = measurer.context.ledger
    stats = measurer.stats
    cost0 = ledger.total_s
    charged0 = _charged(stats)
    db_hits0 = stats.n_db_hits
    outcome = SearchOutcome(strategy=strategy.name, pins=settings.pins_dict())
    merged: Optional[MeasurementSet] = None

    with tracer.span(
        f"search.{strategy.name}",
        budget=settings.budget,
        batch=settings.batch,
        pinned=len(settings.pins),
    ) as sp:
        while True:
            remaining = settings.budget - outcome.n_proposed
            if remaining <= 0:
                outcome.stop_reason = "budget"
                break
            if (
                settings.max_cost_s is not None
                and ledger.total_s - cost0 >= settings.max_cost_s
            ):
                outcome.stop_reason = "cost"
                break
            if strategy.exhausted():
                outcome.stop_reason = "exhausted"
                break
            batch = np.asarray(
                strategy.propose(rng, min(settings.batch, remaining)),
                dtype=np.int64,
            ).ravel()
            if batch.size == 0:
                outcome.stop_reason = "exhausted"
                break
            batch = batch[:remaining]
            ms = measurer.measure_batch(batch)
            strategy.observe(batch, ms)
            outcome.rounds += 1
            outcome.n_proposed += int(batch.size)
            merged = ms if merged is None else merged.merged_with(ms)
        outcome.n_measured = _charged(stats) - charged0
        outcome.n_free = stats.n_db_hits - db_hits0
        outcome.cost_s = ledger.total_s - cost0
        if merged is not None:
            outcome.measurements = merged
            outcome.n_invalid = merged.n_invalid
            outcome.n_quarantined = merged.n_quarantined
            if merged.n_valid:
                idx, t = merged.best()
                outcome.best_index = int(idx)
                outcome.best_time_s = float(t)
        sp.set(
            rounds=outcome.rounds,
            proposed=outcome.n_proposed,
            measured=outcome.n_measured,
            best_index=outcome.best_index,
            stop=outcome.stop_reason,
        )
    emit_strategy_gauges(tracer, strategy.name, outcome)
    return outcome


def emit_strategy_gauges(tracer, name: str, outcome: SearchOutcome) -> None:
    """Final per-strategy telemetry — the trace-summary leaderboard rows."""
    if not tracer.enabled:
        return
    best_ms = (
        outcome.best_time_s * 1e3 if outcome.best_index >= 0 else float("nan")
    )
    tracer.gauge(f"strategy.{name}.best_ms", round(best_ms, 6))
    tracer.gauge(f"strategy.{name}.spend_s", round(outcome.cost_s, 6))
    tracer.gauge(f"strategy.{name}.rounds", outcome.rounds)
    tracer.gauge(f"strategy.{name}.measured", outcome.n_measured)
    tracer.count("search.rounds", outcome.rounds)
    tracer.count("search.measured", outcome.n_measured)
