"""Performance drift: the machine changing under a long-lived campaign.

Fault injection (:mod:`.faults`) models *discrete* failures; real rigs
additionally change *continuously*: clocks throttle as the card heats up,
and co-tenants come and go, shifting contention regimes mid-campaign.  A
tuner that measured once and cached the answer is then optimizing for a
machine that no longer exists — the setting the online re-tuning layer
(:mod:`repro.core.online`) is built for.

A :class:`DriftProfile` describes a drift *schedule* over simulated
campaign time; a :class:`DriftModel` turns it into multiplicative factors
applied to true times at the measurement surfaces.  Two components:

* **thermal throttling** — after ``onset_s`` simulated seconds the whole
  device slows down, ramping linearly to ``throttle_factor`` over
  ``ramp_s`` and holding there.  A pure global multiplier: rankings are
  preserved, only the absolute times move.
* **contention regimes** — after ``onset_s``, time is divided into
  epochs of ``regime_duration_s``; each epoch draws a global contention
  level in ``[contention_min, contention_max]`` plus a per-configuration
  quirk (``exp(contention_sigma * N(0,1))``), both keyed on the profile
  seed and the regime index.  Per-config quirks *reorder* the space — the
  pre-shift optimum may genuinely stop being optimal, so re-measurement
  (not just re-scaling) is required to recover.

The clock is ``ledger.total_s`` plus an explicit ``idle_s`` offset the
online tuner advances between monitoring probes (production time passes
even when no tuning budget is being spent).

Every factor is drawn through the same replayable keyed-hash discipline
faults use (the vectorizable splitmix64 helpers
:func:`~repro.simulator.hashing.keyed_uniform` /
:func:`~repro.simulator.hashing.keyed_normal` keyed on the profile
seed) — **never** from the context RNG — so:

* the same profile + seed replays the identical drift history, serial
  and batch paths agree bit for bit;
* attaching a profile never perturbs the measurement-noise stream, and
  the ``none`` profile (or ``drift=None``) is bit-identical to code that
  predates the drift dimension entirely — the zero-drift equivalence
  guarantee, enforced by ``tests/test_drift.py`` against the recorded
  ``tests/data/zero_fault_fixtures.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.simulator.hashing import (
    fold64,
    fold64_many,
    key64,
    keyed_normal,
    keyed_normal_many,
    keyed_uniform,
    pair_key_prefix64,
    part64,
    tuple_keys64,
)


@dataclass(frozen=True)
class DriftProfile:
    """Drift schedule of one (simulated) rig over campaign time.

    The all-default profile drifts nothing — attaching it is equivalent
    to attaching no profile at all.

    Attributes
    ----------
    seed:
        Drift-stream seed.  Independent of the context seed: the same
        campaign can be replayed under a different drift history (or the
        same drift under different measurement noise).
    onset_s:
        Simulated seconds of quiet machine before any drift begins; both
        components are exactly 1.0 before it.
    throttle_factor / ramp_s:
        Thermal throttling: the global slowdown ramps linearly from 1.0
        at ``onset_s`` to ``throttle_factor`` over ``ramp_s`` seconds,
        then holds (``ramp_s = 0`` is a step).  1.0 disables throttling.
    regime_duration_s:
        Length of one contention epoch; 0 disables contention regimes.
        Epoch 0 is the pre-onset quiet machine (factor exactly 1.0).
    contention_min / contention_max:
        Band of the per-regime global contention factor (drawn uniformly
        per regime from the keyed hash).
    contention_sigma:
        Sigma of the per-configuration log-normal regime quirk —
        contention hits different configurations differently, which is
        what makes a regime shift *reorder* the configuration space.
    """

    seed: int = 0
    onset_s: float = 0.0
    throttle_factor: float = 1.0
    ramp_s: float = 0.0
    regime_duration_s: float = 0.0
    contention_min: float = 1.0
    contention_max: float = 1.0
    contention_sigma: float = 0.0

    def __post_init__(self):
        if self.onset_s < 0 or self.ramp_s < 0 or self.regime_duration_s < 0:
            raise ValueError("drift schedule times must be >= 0")
        if self.throttle_factor <= 0:
            raise ValueError("throttle_factor must be positive")
        if self.contention_min <= 0:
            raise ValueError("contention_min must be positive")
        if self.contention_max < self.contention_min:
            raise ValueError("contention_max must be >= contention_min")
        if self.contention_sigma < 0:
            raise ValueError("contention_sigma must be >= 0")

    @property
    def any_drift(self) -> bool:
        """True when the schedule can ever produce a factor != 1.0."""
        throttling = self.throttle_factor != 1.0
        contention = self.regime_duration_s > 0 and (
            self.contention_min != 1.0
            or self.contention_max != 1.0
            or self.contention_sigma > 0.0
        )
        return throttling or contention


#: Named drift schedules for the CLI, the serve ``watch`` op and tests.
#: "thermal-throttle" is a ranking-preserving global slowdown (re-scaling
#: recovers); "noisy-neighbor" shifts contention regimes whose per-config
#: quirks reorder the space (re-measurement is required to recover).
DRIFT_PROFILES: Dict[str, DriftProfile] = {
    "none": DriftProfile(),
    "thermal-throttle": DriftProfile(
        onset_s=900.0,
        throttle_factor=1.35,
        ramp_s=600.0,
    ),
    "noisy-neighbor": DriftProfile(
        onset_s=600.0,
        regime_duration_s=1800.0,
        contention_min=1.15,
        contention_max=1.5,
        contention_sigma=0.04,
    ),
}


def get_drift_profile(spec: str) -> DriftProfile:
    """Resolve a CLI drift spec: ``<name>`` or ``<name>:field=value,...``.

    ``repro watch --drift thermal-throttle`` or
    ``--drift noisy-neighbor:seed=3,onset_s=450``.
    """
    name, _, overrides = spec.partition(":")
    name = name.strip()
    if name not in DRIFT_PROFILES:
        raise ValueError(
            f"unknown drift profile {name!r}; expected one of "
            f"{sorted(DRIFT_PROFILES)}"
        )
    profile = DRIFT_PROFILES[name]
    if not overrides:
        return profile
    known = {f.name: f.type for f in fields(DriftProfile)}
    kwargs = {}
    for item in overrides.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, raw = item.partition("=")
        key = key.strip()
        if not eq or key not in known:
            raise ValueError(
                f"bad drift override {item!r}; expected field=value with "
                f"field in {sorted(known)}"
            )
        kwargs[key] = int(raw) if key == "seed" else float(raw)
    return replace(profile, **kwargs)


class DriftModel:
    """Stateful drift clock + factor stream for one :class:`DriftProfile`.

    Holds the only mutable state drift needs: the ``idle_s`` offset (time
    the campaign spent *serving*, not tuning — advanced explicitly by the
    online tuner between monitoring probes) and observability counters.
    Factor values themselves are pure functions of ``(profile, time,
    configuration)``, so replaying a campaign replays its drift history.
    """

    def __init__(self, profile: DriftProfile):
        self.profile = profile
        # Keyed-hash surface roots: regime draws fold the epoch index into
        # these, quirk draws additionally fold the (kernel, config) hash,
        # so the scalar and batch paths share one key structure.
        self._regime_h = key64(profile.seed, "drift", "regime")
        self._quirk_h = key64(profile.seed, "drift", "quirk")
        #: Simulated seconds of non-ledger (idle/serving) time elapsed.
        self.idle_s = 0.0
        #: Regime index observed by the most recent factor query.
        self.last_regime = 0
        #: Regime transitions witnessed by factor queries (for tests and
        #: trace events — detection must come from measurements, not here).
        self.shifts_seen = 0
        #: Factor queries that returned a value != 1.0.
        self.applied = 0

    # -- clock -----------------------------------------------------------------

    def advance(self, dt_s: float) -> None:
        """Advance the idle clock: ``dt_s`` simulated seconds pass without
        any ledger spend (the campaign is serving, not measuring)."""
        if dt_s < 0:
            raise ValueError("dt_s must be >= 0")
        self.idle_s += dt_s

    def time_of(self, ledger) -> float:
        """The drift clock: ledger spend plus idle time."""
        return ledger.total_s + self.idle_s

    # -- schedule (pure) -------------------------------------------------------

    def regime_at(self, t_s: float) -> int:
        """Contention epoch index at ``t_s`` (0 = pre-onset quiet)."""
        p = self.profile
        if p.regime_duration_s <= 0 or t_s < p.onset_s:
            return 0
        return 1 + int((t_s - p.onset_s) // p.regime_duration_s)

    def throttle_at(self, t_s: float) -> float:
        """Thermal-ramp global factor at ``t_s`` (exactly 1.0 pre-onset)."""
        p = self.profile
        if p.throttle_factor == 1.0 or t_s < p.onset_s:
            return 1.0
        if p.ramp_s <= 0:
            return p.throttle_factor
        frac = min(1.0, (t_s - p.onset_s) / p.ramp_s)
        return 1.0 + (p.throttle_factor - 1.0) * frac

    def regime_global(self, regime: int) -> float:
        """Global contention level of one epoch (exactly 1.0 for epoch 0)."""
        p = self.profile
        if regime <= 0:
            return 1.0
        if p.contention_min == p.contention_max:
            return p.contention_min
        u = keyed_uniform(fold64(self._regime_h, regime))
        return p.contention_min + (p.contention_max - p.contention_min) * u

    def regime_quirk(
        self, regime: int, kernel_name: str, config_tuple: tuple
    ) -> float:
        """Per-configuration quirk of one epoch (1.0 for epoch 0 or at
        zero sigma) — the component that reorders the space."""
        p = self.profile
        if regime <= 0 or p.contention_sigma == 0.0:
            return 1.0
        z = keyed_normal(
            fold64(fold64(self._quirk_h, regime), part64((kernel_name, config_tuple)))
        )
        return float(np.exp(p.contention_sigma * z))

    # -- batch draws (bit-identical to the scalar path) ------------------------

    @staticmethod
    def quirk_key_hashes(kernel_name: str, int_matrix: np.ndarray) -> np.ndarray:
        """``part64((kernel_name, config_tuple))`` for every row of an
        integer configuration matrix, vectorized.  The same hashes feed
        :meth:`regime_quirks_many` for any number of regimes, and identify
        the ``(kernel, config)`` fault keys the runtime rolls at the
        build/launch surfaces (``FaultInjector.peek_uniforms``)."""
        return tuple_keys64(pair_key_prefix64(kernel_name), int_matrix)

    def regime_quirks_many(self, regime: int, key_hashes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`regime_quirk` over precomputed config hashes
        (:meth:`quirk_key_hashes`); bit-identical to the scalar draws."""
        p = self.profile
        if regime <= 0 or p.contention_sigma == 0.0:
            return np.ones(len(key_hashes))
        z = keyed_normal_many(
            fold64_many(fold64(self._quirk_h, regime),
                        np.asarray(key_hashes, dtype=np.uint64))
        )
        return np.exp(p.contention_sigma * z)

    def factor_at(
        self, t_s: float, kernel_name: str, config_tuple: tuple
    ) -> float:
        """Pure factor query (no counters): the multiplier applied to one
        configuration's true time at drift-clock time ``t_s``."""
        regime = self.regime_at(t_s)
        return (
            self.throttle_at(t_s)
            * self.regime_global(regime)
            * self.regime_quirk(regime, kernel_name, config_tuple)
        )

    # -- the measurement-surface entry point ----------------------------------

    def factor(self, t_s: float, kernel_name: str, config_tuple: tuple) -> float:
        """:meth:`factor_at` plus counter upkeep — what the runtime and
        the measurer call when a launch actually happens."""
        regime = self.regime_at(t_s)
        if regime != self.last_regime:
            self.shifts_seen += 1
            self.last_regime = regime
        f = (
            self.throttle_at(t_s)
            * self.regime_global(regime)
            * self.regime_quirk(regime, kernel_name, config_tuple)
        )
        if f != 1.0:
            self.applied += 1
        return f

    def factors_at(
        self, t_s: float, kernel_name: str, config_tuples: Sequence[tuple]
    ) -> List[float]:
        """Pure batch query: drifted-over-base multipliers for many
        configurations at one instant (used by evaluation code to build
        post-shift oracle tables)."""
        regime = self.regime_at(t_s)
        base = self.throttle_at(t_s) * self.regime_global(regime)
        if regime <= 0 or self.profile.contention_sigma == 0.0:
            return [base] * len(config_tuples)
        return [
            base * self.regime_quirk(regime, kernel_name, ct)
            for ct in config_tuples
        ]


def make_drift(
    drift: "DriftProfile | DriftModel | str | None",
) -> Optional[DriftModel]:
    """Coerce the ``drift=`` argument accepted by ``Context``: a profile,
    a ready model, a named spec string, or None.  Profiles that can never
    drift (``none`` included) coerce to None, which is what makes the
    zero-drift path *provably* identical — it is the same code."""
    if drift is None:
        return None
    if isinstance(drift, DriftModel):
        return drift
    if isinstance(drift, str):
        drift = get_drift_profile(drift)
    if not isinstance(drift, DriftProfile):
        raise TypeError(f"cannot build a DriftModel from {drift!r}")
    if not drift.any_drift:
        return None
    return DriftModel(drift)
