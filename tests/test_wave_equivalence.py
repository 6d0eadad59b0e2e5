"""The wave-engine equivalence gate.

The batch engine (``Measurer._measure_batch_waves``) must be
**bit-identical by construction** to the serial per-config loop kept as
the reference in ``tests/serial_reference.py``
(:class:`~tests.serial_reference.SerialReference`, which drives the
``repro.runtime`` facade): same values, same valid/invalid/quarantined
splits, same ledger totals including the ``retry_s`` bucket, same
EngineStats, same RNG stream position, same cache / DB / injector /
drift-counter state afterwards.

"By construction" rests on four facts, none of them a tolerance:

* fault outcomes are keyed hash draws: the engine peeks the same
  (key, attempt) uniforms the facade rolls, and neither touches the RNG;
* the retry budget is each configuration's own failed-attempt charges
  and backoffs summed in attempt order (``RetryPolicy.config_budget_s``),
  the same float additions on both sides, so every retry schedule the
  engine resolves ahead of its ledger replay is final;
* the commit scan adds the facade's charges to each ledger bucket in
  serial order, one addition per charge, and reads the drift clock off
  those same partial sums;
* both sides draw the same normals in the same order and apply the same
  float64 ufuncs elementwise; best-of is ``t * min(f)``, which equals
  ``min(t * f)`` because rounding is monotonic.

So the contract is "same bits on the same CPU target" for any seed.  This
suite drives both engines over the full fault x drift matrix for 20
seeds each, and a hypothesis property puts the budget exactly on
attempt-charge sums (and one float either side).  Everything is compared
through ``float.hex`` (no tolerance).

Batches deliberately overlap and repeat indices so the matrix also
exercises cache-served re-measures, intra-batch duplicates, DB
write-through and reset-revived configurations.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.measure import Measurer, RetryPolicy
from repro.core.results import MeasurementDB
from repro.kernels import get_benchmark
from repro.runtime import Context
from repro.simulator import NVIDIA_K40
from repro.simulator.faults import FAULT_PROFILES
from repro.simulator.noise import (
    FAILED_BUILD_COST_S,
    FAILED_LAUNCH_COST_S,
    compile_time,
)
from tests.serial_reference import SerialReference

FAULTS = [None, "flaky-gpu", "unstable-driver", "noisy-rig"]
DRIFTS = [None, "thermal-throttle", "noisy-neighbor"]
N_SEEDS = 20


def _state(ctx, m, sets):
    """Everything observable after a measurement run, hex-exact."""
    led = ctx.ledger
    out = [
        dict(
            ok=[int(i) for i in ms.indices],
            t=[float.hex(float(t)) for t in ms.times_s],
            bad=[int(i) for i in ms.invalid_indices],
            quar=[int(i) for i in ms.quarantined_indices],
        )
        for ms in sets
    ]
    stats = {
        k: v
        for k, v in m.stats.as_dict().items()
        if k not in ("elapsed_s", "n_waves", "configs_per_sec")
    }
    return dict(
        sets=out,
        ledger=[
            float.hex(x)
            for x in (led.compile_s, led.run_s, led.failed_s, led.retry_s)
        ],
        rng=str(ctx.measurement.rng.bit_generator.state["state"]["state"]),
        quarantine=sorted(m.quarantine),
        cache={
            k: (None if v is None else float.hex(v))
            for k, v in m._cache.items()
        },
        stats=stats,
        injected=dict(ctx.faults.injected) if ctx.faults else None,
        attempts=dict(ctx.faults._attempts) if ctx.faults else None,
        drift=(
            (ctx.drift.last_regime, ctx.drift.shifts_seen, ctx.drift.applied)
            if ctx.drift
            else None
        ),
    )


def _batches(spec, seed, n=44):
    rng = np.random.default_rng(7000 + seed)
    idx = [int(i) for i in spec.space.sample_indices(n, rng)]
    first = idx[: n // 2]
    # Overlap + in-batch duplicates: cache hits, DB hits, double-measures.
    second = idx[n // 3 :] + first[:4] + [first[0], first[0]]
    return first, second


ENGINES = {"wave": Measurer, "serial": SerialReference}


def _run(engine, spec, seed, faults, drift, db=None, retry=None):
    ctx = Context(NVIDIA_K40, seed=321 + seed, faults=faults, drift=drift)
    m = ENGINES[engine](ctx, spec, db=db, retry=retry)
    sets = [m.measure_batch(batch) for batch in _batches(spec, seed)]
    return _state(ctx, m, sets), m


@pytest.mark.parametrize("drift", DRIFTS, ids=[str(d) for d in DRIFTS])
@pytest.mark.parametrize("faults", FAULTS, ids=[str(f) for f in FAULTS])
def test_wave_matches_serial_bit_for_bit(faults, drift):
    spec = get_benchmark("convolution")
    for seed in range(N_SEEDS):
        wave, _ = _run("wave", spec, seed, faults, drift)
        serial, _ = _run("serial", spec, seed, faults, drift)
        assert wave == serial, f"seed {seed}: wave engine diverged"


@pytest.mark.parametrize(
    "faults,drift",
    [("flaky-gpu", "thermal-throttle"), ("unstable-driver", "noisy-neighbor")],
)
def test_wave_matches_serial_with_db(tmp_path, faults, drift):
    """DB write-through: entries, values and hit accounting all match."""
    spec = get_benchmark("convolution")
    for seed in range(5):
        dbs = [
            MeasurementDB(tmp_path / f"{engine}-{seed}.json")
            for engine in ("wave", "serial")
        ]
        wave, _ = _run("wave", spec, seed, faults, drift, db=dbs[0])
        serial, _ = _run("serial", spec, seed, faults, drift, db=dbs[1])
        assert wave == serial
        dump = [
            {
                k: {
                    i: (None if v is None else float.hex(v))
                    for i, v in t.items()
                }
                for k, t in db._data.items()
            }
            for db in dbs
        ]
        assert dump[0] == dump[1]


def test_wave_counts_waves_serial_does_not():
    spec = get_benchmark("convolution")
    _, m_wave = _run("wave", spec, 0, "flaky-gpu", None)
    _, m_serial = _run("serial", spec, 0, "flaky-gpu", None)
    assert m_wave.stats.n_waves > 0
    assert m_serial.stats.n_waves == 0


def test_quarantine_persists_across_batches():
    """A configuration quarantined in batch 1 is skipped (no budget burn)
    by the wave engine in batch 2, exactly like the serial loop."""
    spec = get_benchmark("convolution")
    # Tight budget: first failure already exceeds it -> quarantines happen.
    policy = RetryPolicy(config_budget_s=0.01)
    states = []
    for engine in ("wave", "serial"):
        ctx = Context(NVIDIA_K40, seed=99, faults="unstable-driver")
        m = ENGINES[engine](ctx, spec, retry=policy)
        batch = [int(i) for i in spec.space.sample_indices(
            30, np.random.default_rng(5))]
        # Same batch twice: the second hits the quarantine set.
        sets = [m.measure_batch(batch) for _ in range(2)]
        states.append(_state(ctx, m, sets))
        assert m.quarantine, "expected quarantined configurations"
    assert states[0] == states[1]


# -- the retry budget on its boundary -----------------------------------------

_SPEC = get_benchmark("convolution")
_BASE = FAULT_PROFILES["unstable-driver"]
_POLICY = RetryPolicy()
#: Every compile cost a convolution configuration has on the K40.
_COMPILE = sorted({
    compile_time(NVIDIA_K40, _SPEC.unroll_of(_SPEC.space[int(i)]))
    for i in _SPEC.space.sample_indices(200, np.random.default_rng(0))
})


@st.composite
def _boundary_budgets(draw):
    """A float64 sum of nominal attempt charges and backoffs taken in
    attempt order (the budget rule itself), or the float either side."""
    compile_s = draw(st.sampled_from(_COMPILE))
    hang_s = min(_BASE.hang_duration_s, _POLICY.launch_timeout_s)
    charges = {
        "build": FAILED_BUILD_COST_S,
        "launch": compile_s + FAILED_LAUNCH_COST_S,
        "reset": compile_s + _BASE.reset_cost_s,
        "hang": compile_s + hang_s,
    }
    kinds = draw(st.lists(
        st.sampled_from(sorted(charges)),
        min_size=1, max_size=_POLICY.max_attempts,
    ))
    spent = 0.0
    for attempt, kind in enumerate(kinds, start=1):
        if attempt > 1:
            spent += _POLICY.backoff_s(attempt - 1)
        spent += charges[kind]
    toward = draw(st.sampled_from((-np.inf, spent, np.inf)))
    return float(np.nextafter(spent, toward))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    budget=_boundary_budgets(),
    rates=st.tuples(
        st.sampled_from((0.3, 0.6)),  # p_transient_build
        st.sampled_from((0.2, 0.4)),  # p_transient_launch
        st.sampled_from((0.05, 0.2)),  # p_hang
        st.sampled_from((0.02, 0.1)),  # p_device_reset
    ),
    drift=st.sampled_from((None, "noisy-neighbor")),
    seed=st.integers(0, 5),
)
@example(budget=0.4, rates=(0.6, 0.12, 0.03, 0.01), drift=None, seed=3)
def test_budget_boundary_matches_reference(budget, rates, drift, seed):
    """The budget decision is exact: with ``config_budget_s`` placed on a
    sum of attempt charges (one failed build is 0.4 s), engine and
    reference quarantine the same configurations after the same
    attempts, with every observable bit-identical."""
    p_tb, p_tl, p_hang, p_reset = rates
    faults = replace(
        _BASE, seed=seed, p_transient_build=p_tb, p_transient_launch=p_tl,
        p_hang=p_hang, p_device_reset=p_reset,
    )
    retry = replace(_POLICY, config_budget_s=budget)
    wave, _ = _run("wave", _SPEC, seed, faults, drift, retry=retry)
    serial, _ = _run("serial", _SPEC, seed, faults, drift, retry=retry)
    assert wave == serial
