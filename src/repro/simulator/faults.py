"""Fault injection: the failure modes real OpenCL drivers actually have.

The deterministic simulator models configurations that *always* fail
(resource limits — :mod:`.validity`).  Real tuning campaigns additionally
see run-specific failures: drivers that spuriously refuse to compile,
launches that error out under load, kernels that hang until a watchdog
resets the device, measurements poisoned by interference spikes, and the
occasional full device reset that wipes compiled binaries.  The paper
side-steps these by ignoring failed configurations (§5.2) and notes in §7
that measurement noise feeds straight into model error — which is exactly
why the measurement pipeline needs a resilience layer that can be *tested*.

A :class:`FaultProfile` describes the failure statistics of one rig; a
:class:`FaultInjector` turns it into per-operation decisions at the
``Program.build()`` / ``Kernel.enqueue()`` surfaces.  Decisions are drawn
from a stable hash of ``(profile seed, surface, kernel, configuration,
attempt number)`` — **not** from the context's RNG stream — so:

* the same profile + seed replays the identical fault sequence (retries
  and quarantines are reproducible, serial and batch paths agree);
* attaching a profile never perturbs the measurement-noise stream — a
  transient failure happens *before* the noise draw of the launch it
  kills, and the retry that succeeds draws exactly the sample the
  fault-free run would have drawn.  Fault-free outputs are therefore
  bit-identical whether the code path is fault-aware or not.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.hashing import (
    fold64,
    fold64_many,
    key64,
    keyed_uniform,
    keyed_uniform_many,
    pair_key_prefix64,
    part64,
)

#: Injection decisions (returned by the injector, consumed by the runtime).
OK = "ok"
TRANSIENT = "transient"
HANG = "hang"
RESET = "reset"


@dataclass(frozen=True)
class FaultProfile:
    """Failure statistics of one (simulated) rig.

    All ``p_*`` fields are per-attempt probabilities in ``[0, 1]``; an
    attempt is one build or one launch.  The all-zero default injects
    nothing — attaching it is equivalent to attaching no profile at all.

    Attributes
    ----------
    seed:
        Fault-stream seed.  Independent of the context seed: the same
        measurement campaign can be replayed under different fault
        histories (or the same faults under different noise).
    p_transient_build:
        Spurious ``clBuildProgram`` failure of a valid configuration.
    p_transient_launch:
        Spurious ``clEnqueueNDRangeKernel`` failure of a valid
        configuration.
    p_hang / hang_duration_s:
        A launch that never completes; the driver's watchdog (or the
        caller's timeout, whichever is shorter) kills it after
        ``hang_duration_s`` simulated seconds, all charged to the ledger.
    p_outlier / outlier_factor:
        A reported measurement multiplied by ``outlier_factor``
        (interference spike — garbage data, not an error).
    p_device_reset / reset_cost_s:
        Device lost mid-launch: ``reset_cost_s`` is charged, and compiled
        binaries (the measurer's compile cache) are invalidated.
    """

    seed: int = 0
    p_transient_build: float = 0.0
    p_transient_launch: float = 0.0
    p_hang: float = 0.0
    hang_duration_s: float = 8.0
    p_outlier: float = 0.0
    outlier_factor: float = 25.0
    p_device_reset: float = 0.0
    reset_cost_s: float = 2.0

    def __post_init__(self):
        for name in ("p_transient_build", "p_transient_launch", "p_hang",
                     "p_outlier", "p_device_reset"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.p_hang + self.p_transient_launch + self.p_device_reset > 1.0:
            raise ValueError("launch-surface probabilities sum to > 1")
        if self.hang_duration_s <= 0 or self.reset_cost_s < 0:
            raise ValueError("durations must be positive")
        if self.outlier_factor <= 1.0:
            raise ValueError("outlier_factor must be > 1")

    @property
    def any_faults(self) -> bool:
        """True when any injection probability is non-zero."""
        return (
            self.p_transient_build > 0
            or self.p_transient_launch > 0
            or self.p_hang > 0
            or self.p_outlier > 0
            or self.p_device_reset > 0
        )


#: Named rigs for the CLI and tests.  "flaky-gpu" matches the acceptance
#: bar of docs/robustness.md: >=5% transient launch failures, >=1% hangs —
#: *recoverable* faults only, so a retry-equipped pipeline reproduces the
#: fault-free results.  Outlier spikes are a different beast (garbage data
#: a retry cannot detect, it poisons the model): "noisy-rig" models them
#: alone, "unstable-driver" piles everything on at once.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "none": FaultProfile(),
    "flaky-gpu": FaultProfile(
        p_transient_build=0.03,
        p_transient_launch=0.05,
        p_hang=0.01,
        hang_duration_s=8.0,
        p_device_reset=0.002,
        reset_cost_s=2.0,
    ),
    "unstable-driver": FaultProfile(
        p_transient_build=0.10,
        p_transient_launch=0.12,
        p_hang=0.03,
        hang_duration_s=12.0,
        p_outlier=0.02,
        outlier_factor=40.0,
        p_device_reset=0.01,
        reset_cost_s=3.0,
    ),
    "noisy-rig": FaultProfile(
        p_outlier=0.05,
        outlier_factor=10.0,
    ),
}


def get_fault_profile(spec: str) -> FaultProfile:
    """Resolve a CLI fault spec: ``<name>`` or ``<name>:field=value,...``.

    ``repro tune --faults flaky-gpu`` or
    ``--faults flaky-gpu:seed=3,p_hang=0.05``.
    """
    name, _, overrides = spec.partition(":")
    name = name.strip()
    if name not in FAULT_PROFILES:
        raise ValueError(
            f"unknown fault profile {name!r}; expected one of "
            f"{sorted(FAULT_PROFILES)}"
        )
    profile = FAULT_PROFILES[name]
    if not overrides:
        return profile
    known = {f.name: f.type for f in fields(FaultProfile)}
    kwargs = {}
    for item in overrides.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, raw = item.partition("=")
        key = key.strip()
        if not eq or key not in known:
            raise ValueError(
                f"bad fault override {item!r}; expected field=value with "
                f"field in {sorted(known)}"
            )
        kwargs[key] = int(raw) if key == "seed" else float(raw)
    return replace(profile, **kwargs)


class FaultInjector:
    """Stateful per-context fault stream for one :class:`FaultProfile`.

    One uniform draw per (surface, configuration, attempt) — keyed on a
    stable hash, never on the context RNG — decides the outcome; the
    launch surface partitions its single draw into reset / hang /
    transient bands so the three faults stay mutually exclusive per
    attempt.  Attempt numbers are per-configuration operation counters, so
    a retry of the same configuration re-rolls while a replay of the whole
    campaign reproduces every decision.
    """

    def __init__(self, profile: FaultProfile):
        self.profile = profile
        # (surface, key) -> attempts so far; the attempt number salts the
        # hash so retries are fresh draws.
        self._attempts: Dict[Tuple[str, tuple], int] = {}
        # Per-surface fold prefixes; a draw is
        # uniform(fold(fold(prefix, part64(key)), attempt)).
        self._surface_h: Dict[str, int] = {
            s: key64(profile.seed, "fault", s)
            for s in ("build", "launch", "outlier")
        }
        # key tuple -> part64(key), memoized (keys repeat across attempts).
        self._key_h: Dict[tuple, int] = {}
        #: Totals per decision kind, for debugging and tests.
        self.injected: Dict[str, int] = {
            "transient_build": 0,
            "transient_launch": 0,
            "hang": 0,
            "reset": 0,
            "outlier": 0,
        }

    def _key64(self, key: tuple) -> int:
        h = self._key_h.get(key)
        if h is None:
            h = part64(key)
            self._key_h[key] = h
        return h

    def _roll(self, surface: str, key: tuple) -> float:
        n = self._attempts.get((surface, key), 0)
        self._attempts[(surface, key)] = n + 1
        return keyed_uniform(fold64(self._surface_h[surface] ^ self._key64(key), n))

    # -- batch draw API (pure: no counters move) -------------------------------

    @staticmethod
    def index_key_hashes(kernel_name: str, indices: np.ndarray) -> np.ndarray:
        """``part64((kernel_name, int(index)))`` per element, vectorized —
        the identity of the outlier-surface measurement keys."""
        idx = np.asarray(indices, dtype=np.int64).astype(np.uint64)
        return fold64_many(pair_key_prefix64(kernel_name), idx)

    def peek_uniforms(
        self, surface: str, key_hashes: np.ndarray, attempts: np.ndarray
    ) -> np.ndarray:
        """The uniforms :meth:`_roll` *would* draw for ``attempts[i]`` of
        ``key_hashes[i]`` on ``surface`` — pure, no attempt counters move.
        Build/launch keys hash as
        :meth:`~repro.simulator.drift.DriftModel.quirk_key_hashes`,
        outlier keys as :meth:`index_key_hashes`.
        The wave engine decides whole attempt-waves from one such call and
        commits the consumed counters afterwards."""
        h = self._surface_h[surface]
        base = np.uint64(h) ^ np.asarray(key_hashes, dtype=np.uint64)
        return keyed_uniform_many(
            fold64_many(base, np.asarray(attempts, dtype=np.int64).astype(np.uint64))
        )

    def attempts_of(self, surface: str, key: tuple) -> int:
        """Current attempt counter of ``(surface, key)`` (next roll's salt)."""
        return self._attempts.get((surface, key), 0)

    def bump_attempts(self, surface: str, key: tuple, n: int) -> None:
        """Advance a counter by ``n`` consumed rolls (wave-engine commit)."""
        if n:
            self._attempts[(surface, key)] = (
                self._attempts.get((surface, key), 0) + n
            )

    def at_build(self, key: tuple) -> str:
        """Decision for one build attempt: :data:`OK` or :data:`TRANSIENT`."""
        p = self.profile.p_transient_build
        if p > 0.0 and self._roll("build", key) < p:
            self.injected["transient_build"] += 1
            return TRANSIENT
        return OK

    def at_launch(self, key: tuple) -> str:
        """Decision for one launch attempt: :data:`OK`, :data:`RESET`,
        :data:`HANG` or :data:`TRANSIENT` (mutually exclusive bands of a
        single uniform draw)."""
        prof = self.profile
        p_total = prof.p_device_reset + prof.p_hang + prof.p_transient_launch
        if p_total <= 0.0:
            return OK
        u = self._roll("launch", key)
        if u < prof.p_device_reset:
            self.injected["reset"] += 1
            return RESET
        if u < prof.p_device_reset + prof.p_hang:
            self.injected["hang"] += 1
            return HANG
        if u < p_total:
            self.injected["transient_launch"] += 1
            return TRANSIENT
        return OK

    def on_measurement(self, key: tuple, value_s: float) -> float:
        """Pass a reported measurement through the outlier fault: returns
        the value, spiked by ``outlier_factor`` when the roll hits."""
        p = self.profile.p_outlier
        if p > 0.0 and self._roll("outlier", key) < p:
            self.injected["outlier"] += 1
            return value_s * self.profile.outlier_factor
        return value_s

    def reset_state(self) -> None:
        """Forget attempt counters (a replay starts from a fresh stream)."""
        self._attempts.clear()
        for k in self.injected:
            self.injected[k] = 0


def make_injector(
    faults: "FaultProfile | FaultInjector | str | None",
) -> Optional[FaultInjector]:
    """Coerce the ``faults=`` argument accepted by ``Context``: a profile,
    a ready injector, a named spec string, or None."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, str):
        faults = get_fault_profile(faults)
    if not isinstance(faults, FaultProfile):
        raise TypeError(f"cannot build a FaultInjector from {faults!r}")
    if not faults.any_faults:
        return None
    return FaultInjector(faults)
