"""Acceptance gate for the wave-based resilient batch engine.

The scenario the engine exists for: a large sweep on a *flaky* rig that
is *drifting* — fault injection (``flaky-gpu``) retries/quarantines
configurations while a thermal ramp (``thermal-throttle``) slides the
clock-dependent drift factor under every launch.  Before the wave
engine, faults or drift on the context degraded ``measure_batch`` to
the serial per-config loop; the gate pins the recovery:

* **speed** — the wave engine is at least ``MIN_SPEEDUP``x faster than
  the serial resilient loop (the reference kept in
  ``tests/serial_reference.py``) on the same campaign;
* **equivalence** — same values, splits, ledger (including ``retry_s``),
  quarantine set and RNG stream position, compared exactly;
* **tuner pick** — a fault+drift tuning campaign run through the wave
  engine picks the same configuration at the same cost as one forced
  through the serial loop.

Each run appends a trajectory point to ``benchmarks/BENCH_resilient.json``.
"""

import json
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.measure import Measurer
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.kernels import ConvolutionKernel
from repro.runtime import Context
from repro.simulator import NVIDIA_K40
from tests.serial_reference import SerialReference

from conftest import emit

ARTIFACT = Path(__file__).parent / "BENCH_resilient.json"

#: Acceptance gate (ISSUE: wave-based resilient measurement).
MIN_SPEEDUP = 5.0

N_SWEEP = 6_000
FAULTS = "flaky-gpu"
DRIFT = "thermal-throttle"


def _append_trajectory(point: dict) -> None:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, cwd=Path(__file__).parent,
            timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        rev = "unknown"
    point = {"git_rev": rev, **point}
    history = []
    if ARTIFACT.exists():
        try:
            history = json.loads(ARTIFACT.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(point)
    ARTIFACT.write_text(json.dumps(history, indent=2) + "\n")


@pytest.fixture(scope="module")
def conv():
    return ConvolutionKernel()


@pytest.fixture(scope="module")
def sweep_indices(conv):
    return conv.space.sample_indices(N_SWEEP, np.random.default_rng(42))


def _ledger_tuple(ledger):
    return (ledger.compile_s, ledger.run_s, ledger.failed_s, ledger.retry_s)


def test_wave_engine_speedup_and_bit_identity(conv, sweep_indices):
    """Wave engine >= 5x over the serial resilient loop, same results."""
    ctx_serial = Context(NVIDIA_K40, seed=7, faults=FAULTS, drift=DRIFT)
    ctx_wave = Context(NVIDIA_K40, seed=7, faults=FAULTS, drift=DRIFT)
    m_serial = SerialReference(ctx_serial, conv, repeats=3)
    m_wave = Measurer(ctx_wave, conv, repeats=3)

    t0 = time.perf_counter()
    ref = m_serial.measure_batch(sweep_indices)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    ms = m_wave.measure_batch(sweep_indices)
    t_wave = time.perf_counter() - t0

    # Bit-identical outcomes first — speed without equivalence is worthless.
    assert np.array_equal(ref.indices, ms.indices)
    assert np.array_equal(ref.times_s, ms.times_s)
    assert np.array_equal(ref.invalid_indices, ms.invalid_indices)
    assert np.array_equal(ref.quarantined_indices, ms.quarantined_indices)
    assert _ledger_tuple(ctx_serial.ledger) == _ledger_tuple(ctx_wave.ledger)
    assert m_serial.quarantine == m_wave.quarantine
    rng_word = lambda c: c.measurement.rng.bit_generator.state["state"]["state"]
    assert rng_word(ctx_serial) == rng_word(ctx_wave)

    speedup = t_serial / t_wave
    emit(
        f"resilient measurement, {N_SWEEP} convolution configs on the K40 "
        f"({FAULTS} + {DRIFT}):\n"
        f"  serial loop : {t_serial:8.3f} s "
        f"({N_SWEEP / t_serial:10,.0f} configs/s)\n"
        f"  wave engine : {t_wave:8.3f} s "
        f"({N_SWEEP / t_wave:10,.0f} configs/s)\n"
        f"  speedup     : {speedup:8.1f}x   "
        f"(waves: {m_wave.stats.n_waves}, "
        f"quarantined: {m_wave.stats.n_quarantined}, "
        f"retries: {m_wave.stats.n_retries})"
    )
    _append_trajectory({
        "n_sweep": N_SWEEP,
        "faults": FAULTS,
        "drift": DRIFT,
        "serial_s": round(t_serial, 4),
        "wave_s": round(t_wave, 4),
        "speedup": round(speedup, 2),
        "waves": m_wave.stats.n_waves,
        "quarantined": m_wave.stats.n_quarantined,
        "retries": m_wave.stats.n_retries,
        "gate_min_speedup": MIN_SPEEDUP,
    })
    assert speedup >= MIN_SPEEDUP, f"wave engine only {speedup:.1f}x faster"


def test_tuner_pick_unchanged_under_wave_engine(conv):
    """The tuner's pick and spend are invariant to which engine measures."""
    settings = TunerSettings(n_train=300, m_candidates=30, k_bag=7)
    picks = []
    for engine in ("wave", "serial"):
        ctx = Context(NVIDIA_K40, seed=13, faults=FAULTS, drift=DRIFT)
        measurer = None
        if engine == "serial":
            measurer = SerialReference(ctx, conv, repeats=settings.repeats)
        tuner = MLAutoTuner(ctx, conv, settings, measurer=measurer)
        result = tuner.tune(np.random.default_rng(13), model_seed=13)
        picks.append(
            (result.best_index, result.best_time_s, result.total_cost_s,
             _ledger_tuple(ctx.ledger))
        )
    assert picks[0] == picks[1]
