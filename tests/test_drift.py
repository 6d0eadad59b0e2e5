"""Drift simulator, zero-drift equivalence, CUSUM detector, RNG streams.

Four concerns in one file because they gate each other:

* the drift schedule's semantics (onset, ramp, regimes, quirks) and its
  keyed-hash determinism;
* the zero-drift equivalence guarantee — ``drift="none"`` replays the
  recorded pre-drift fixtures bit for bit, and serial == batch holds
  *under* drift;
* the CUSUM detector's behaviour: calibration, detection latency, and a
  seeded false-positive bound on quiet streams;
* the ``MeasurementModel`` RNG-stream fixes this PR rode in with:
  ``observe`` / ``observe_many`` / ``best_of`` validate identically and
  draw identically (nothing at sigma 0, stream-equivalent otherwise).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.drift import CusumDetector, DetectorSettings
from repro.core.measure import Measurer
from repro.kernels import get_benchmark
from repro.runtime import Context
from repro.simulator import NVIDIA_K40
from repro.simulator.drift import (
    DRIFT_PROFILES,
    DriftModel,
    DriftProfile,
    get_drift_profile,
    make_drift,
)
from repro.simulator.noise import MeasurementModel
from tests.serial_reference import SerialReference

FIXTURES = json.loads(
    (Path(__file__).parent / "data" / "zero_fault_fixtures.json").read_text()
)


# -- profiles and coercion -----------------------------------------------------


def test_named_profiles_parse_and_classify():
    assert not DRIFT_PROFILES["none"].any_drift
    assert DRIFT_PROFILES["thermal-throttle"].any_drift
    assert DRIFT_PROFILES["noisy-neighbor"].any_drift
    for name in DRIFT_PROFILES:
        assert get_drift_profile(name) == DRIFT_PROFILES[name]


def test_profile_override_parsing():
    p = get_drift_profile("thermal-throttle:onset_s=450,ramp_s=60,seed=3")
    assert p.onset_s == 450.0
    assert p.ramp_s == 60.0
    assert p.seed == 3
    assert p.throttle_factor == DRIFT_PROFILES["thermal-throttle"].throttle_factor


@pytest.mark.parametrize("spec", [
    "unknown-profile",
    "thermal-throttle:bogus_field=1",
    "thermal-throttle:onset_s",
])
def test_bad_profile_specs_rejected(spec):
    with pytest.raises(ValueError):
        get_drift_profile(spec)


@pytest.mark.parametrize("kwargs", [
    {"onset_s": -1.0},
    {"ramp_s": -0.5},
    {"regime_duration_s": -1.0},
    {"throttle_factor": 0.0},
    {"contention_min": 0.0},
    {"contention_min": 1.5, "contention_max": 1.2},
    {"contention_sigma": -0.1},
])
def test_profile_validation(kwargs):
    with pytest.raises(ValueError):
        DriftProfile(**kwargs)


def test_make_drift_coercion():
    assert make_drift(None) is None
    assert make_drift("none") is None
    assert make_drift(DriftProfile()) is None  # inert profile -> no model
    model = make_drift("thermal-throttle")
    assert isinstance(model, DriftModel)
    assert make_drift(model) is model
    with pytest.raises(TypeError):
        make_drift(42)


# -- schedule semantics --------------------------------------------------------


def test_throttle_ramp_semantics():
    m = DriftModel(DriftProfile(onset_s=100.0, throttle_factor=2.0, ramp_s=50.0))
    key = ("k", (1,))
    assert m.factor_at(0.0, *key) == 1.0
    assert m.factor_at(99.999, *key) == 1.0  # exactly 1.0 pre-onset
    assert m.factor_at(125.0, *key) == pytest.approx(1.5)
    assert m.factor_at(150.0, *key) == 2.0
    assert m.factor_at(1e6, *key) == 2.0  # holds after the ramp
    # Monotone along the ramp.
    ts = np.linspace(100.0, 150.0, 11)
    vals = [m.factor_at(t, *key) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_step_throttle_when_ramp_zero():
    m = DriftModel(DriftProfile(onset_s=10.0, throttle_factor=1.4, ramp_s=0.0))
    assert m.factor_at(9.999, "k", (1,)) == 1.0
    assert m.factor_at(10.0, "k", (1,)) == 1.4


def test_regime_boundaries_and_determinism():
    p = DriftProfile(
        seed=5, onset_s=100.0, regime_duration_s=50.0,
        contention_min=1.1, contention_max=1.6, contention_sigma=0.05,
    )
    m = DriftModel(p)
    assert m.regime_at(0.0) == 0
    assert m.regime_at(99.9) == 0
    assert m.regime_at(100.0) == 1
    assert m.regime_at(149.9) == 1
    assert m.regime_at(150.0) == 2
    # Per-regime globals are deterministic, within the band, and differ
    # across regimes (keyed on the regime index).
    g1, g2 = m.regime_global(1), m.regime_global(2)
    assert 1.1 <= g1 <= 1.6 and 1.1 <= g2 <= 1.6
    assert g1 != g2
    assert DriftModel(p).regime_global(1) == g1
    # Quirks are per-config, deterministic, and reorder (differ per config).
    q_a = m.regime_quirk(1, "conv", (1, 2))
    q_b = m.regime_quirk(1, "conv", (3, 4))
    assert q_a != q_b
    assert DriftModel(p).regime_quirk(1, "conv", (1, 2)) == q_a
    # A different profile seed replays a different history.
    m_other = DriftModel(dataclasses.replace(p, seed=6))
    assert m_other.regime_global(1) != g1


def test_factors_at_matches_scalar_factor():
    p = get_drift_profile("noisy-neighbor:seed=2")
    m = DriftModel(p)
    t = p.onset_s + 10.0
    tuples = [(1, 2), (3, 4), (5, 6)]
    batch = m.factors_at(t, "conv", tuples)
    for ct, f in zip(tuples, batch):
        assert f == m.factor_at(t, "conv", ct)


def test_idle_clock_advances_drift_without_ledger_spend():
    ctx = Context(
        NVIDIA_K40, seed=1,
        drift="thermal-throttle:onset_s=50,ramp_s=0,throttle_factor=2.0",
    )
    assert ctx.drift.time_of(ctx.ledger) == ctx.ledger.total_s
    ctx.drift.advance(60.0)
    assert ctx.drift.time_of(ctx.ledger) == ctx.ledger.total_s + 60.0
    assert ctx.drift.factor_at(
        ctx.drift.time_of(ctx.ledger), "k", (1,)
    ) == 2.0
    with pytest.raises(ValueError):
        ctx.drift.advance(-1.0)


# -- zero-drift equivalence ----------------------------------------------------


def _ledger_hex(ledger) -> dict:
    return {
        "compile_s": float.hex(ledger.compile_s),
        "run_s": float.hex(ledger.run_s),
        "failed_s": float.hex(ledger.failed_s),
        "total_s": float.hex(ledger.total_s),
    }


def _rng_word(ctx) -> str:
    return str(ctx.measurement.rng.bit_generator.state["state"]["state"])


@pytest.mark.parametrize("kernel", sorted(FIXTURES["kernels"]))
def test_zero_drift_bit_identical_to_fixtures(kernel):
    """``drift="none"`` replays the pre-drift recordings exactly —
    measured values, ledger, and the RNG stream position."""
    want = FIXTURES["kernels"][kernel]["serial"]
    spec = get_benchmark(kernel)
    ctx = Context(NVIDIA_K40, seed=123, drift="none")
    assert ctx.drift is None  # the same code path, literally
    measurer = Measurer(ctx, spec)
    indices = spec.space.sample_indices(40, np.random.default_rng(42))
    values = [measurer.measure(int(i)) for i in indices]
    got = [None if v is None else float.hex(v) for v in values]
    assert got == want["values"]
    assert _ledger_hex(ctx.ledger) == want["ledger"]
    assert _rng_word(ctx) == want["rng_state"]


def test_serial_equals_batch_under_drift():
    """Under drift the batch engine replays the drift clock position by
    position, so one batch equals the serial reference loop measuring the
    same list on a fresh context."""
    spec = get_benchmark("convolution")
    profile = "noisy-neighbor:onset_s=0.1,seed=9"
    indices = spec.space.sample_indices(25, np.random.default_rng(3))

    ctx_a = Context(NVIDIA_K40, seed=55, drift=profile)
    serial = [SerialReference(ctx_a, spec).measure(int(i)) for i in indices]

    ctx_b = Context(NVIDIA_K40, seed=55, drift=profile)
    ms = Measurer(ctx_b, spec).measure_batch(indices)
    batch = dict(zip([int(i) for i in ms.indices], ms.times_s))

    for idx, v in zip([int(i) for i in indices], serial):
        if v is None:
            assert idx not in batch
        else:
            assert float.hex(batch[idx]) == float.hex(v)
    assert _ledger_hex(ctx_a.ledger) == _ledger_hex(ctx_b.ledger)
    assert _rng_word(ctx_a) == _rng_word(ctx_b)


def test_cached_true_times_see_the_drifted_present():
    """The measurer caches *base* true times; a re-measure after the
    clock has advanced must reflect the machine as it is now."""
    spec = get_benchmark("convolution")
    ctx = Context(
        NVIDIA_K40, seed=0,
        drift="thermal-throttle:onset_s=1000,ramp_s=0,throttle_factor=2.0",
    )
    # Zero the observation noise so the factor shows up exactly.
    ctx.measurement.device = dataclasses.replace(
        NVIDIA_K40, timing_noise_sigma=0.0
    )
    measurer = Measurer(ctx, spec, repeats=1)
    idx = int(spec.space.sample_indices(1, np.random.default_rng(1))[0])
    before = measurer.measure(idx)
    ctx.drift.advance(2000.0)  # cross the throttle step
    after = measurer.measure(idx)  # cache hit: no rebuild, fresh factor
    assert after == pytest.approx(2.0 * before)


# -- MeasurementModel RNG streams (the noise.py fixes) -------------------------


def _sigma0_model():
    dev = dataclasses.replace(NVIDIA_K40, timing_noise_sigma=0.0)
    return MeasurementModel(dev, np.random.default_rng(77))


def test_sigma_zero_draws_nothing_any_entry_point():
    m = _sigma0_model()
    state0 = m.rng.bit_generator.state["state"]["state"]
    assert m.observe(2.0) == 2.0
    assert list(m.observe_many(2.0, 5)) == [2.0] * 5
    assert m.best_of(2.0, 3) == 2.0
    assert m.rng.bit_generator.state["state"]["state"] == state0


def test_observe_many_validates_like_observe():
    m = _sigma0_model()
    noisy = MeasurementModel(NVIDIA_K40, np.random.default_rng(1))
    for model in (m, noisy):
        with pytest.raises(ValueError):
            model.observe(0.0)
        with pytest.raises(ValueError):
            model.observe_many(0.0, 3)
        with pytest.raises(ValueError):
            model.observe_many(-1.0, 3)
        with pytest.raises(ValueError):
            model.best_of(0.0)
        with pytest.raises(ValueError):
            model.observe_many(1.0, 0)
    # Validation must not consume any randomness.
    s0 = noisy.rng.bit_generator.state["state"]["state"]
    assert noisy.rng.bit_generator.state["state"]["state"] == s0


def test_observe_loop_stream_equivalent_to_observe_many():
    """n scalar draws == one vectorized draw of n: same values, same
    final generator state (numpy's standard_normal guarantee, pinned
    here because the batch engine's accounting depends on it)."""
    a = MeasurementModel(NVIDIA_K40, np.random.default_rng(123))
    b = MeasurementModel(NVIDIA_K40, np.random.default_rng(123))
    loop = [a.observe(3.0e-4) for _ in range(7)]
    many = b.observe_many(3.0e-4, 7)
    assert [float.hex(v) for v in loop] == [float.hex(float(v)) for v in many]
    assert (
        a.rng.bit_generator.state["state"]["state"]
        == b.rng.bit_generator.state["state"]["state"]
    )


# -- CUSUM detector ------------------------------------------------------------


def test_detector_settings_validation():
    with pytest.raises(ValueError):
        DetectorSettings(slack_k=-0.1)
    with pytest.raises(ValueError):
        DetectorSettings(threshold_h=0.0)
    with pytest.raises(ValueError):
        DetectorSettings(calibration=1)
    with pytest.raises(ValueError):
        DetectorSettings(max_z=0.5, slack_k=1.0)
    with pytest.raises(ValueError):
        DetectorSettings(min_std=0.0)


def test_detector_rejects_nonpositive_times():
    det = CusumDetector()
    with pytest.raises(ValueError):
        det.update(0.0, 1.0)
    with pytest.raises(ValueError):
        det.update(1.0, -1.0)


def test_detector_calibrates_then_detects_shift():
    settings = DetectorSettings(calibration=20)
    det = CusumDetector(settings)
    rng = np.random.default_rng(0)
    pred = 1e-3
    # Quiet stream: lognormal noise around a biased prediction (the
    # detector must absorb the bias during calibration).
    bias = 1.2
    for _ in range(settings.calibration):
        assert det.update(pred, pred * bias * math.exp(0.02 * rng.standard_normal())) is False
    assert det.armed
    # Shift the mean by 5 sigma-equivalents; detection within a handful
    # of observations.
    alarmed_after = None
    for i in range(40):
        shifted = pred * bias * 1.15 * math.exp(0.02 * rng.standard_normal())
        if det.update(pred, shifted):
            alarmed_after = i + 1
            break
    assert alarmed_after is not None and alarmed_after <= 15
    assert det.n_alarms == 1
    # Reset recalibrates: not armed, stat cleared, counters survive.
    det.reset()
    assert not det.armed and det.stat == 0.0
    assert det.n_alarms == 1 and det.n_obs > 0


def test_single_outlier_cannot_alarm():
    """One clipped spike moves the statistic by at most max_z - k < h."""
    settings = DetectorSettings(calibration=10)
    det = CusumDetector(settings)
    rng = np.random.default_rng(1)
    for _ in range(settings.calibration):
        det.update(1.0, math.exp(0.05 * rng.standard_normal()))
    assert det.update(1.0, 100.0) is False  # a 100x outlier, once
    assert det.stat <= settings.max_z - settings.slack_k


@pytest.mark.parametrize("seed", range(20))
def test_false_positive_bound_on_quiet_streams(seed):
    """200 quiet observations per seed, 20 seeds: zero alarms.  This is
    the synthetic half of the quiescence gate (the end-to-end half runs
    in test_online.py)."""
    det = CusumDetector(DetectorSettings())
    rng = np.random.default_rng(seed)
    for _ in range(200):
        assert det.update(1.0, 1.1 * math.exp(0.03 * rng.standard_normal())) is False
    assert det.n_alarms == 0
