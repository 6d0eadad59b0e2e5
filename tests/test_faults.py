"""Fault injection and the resilient measurement pipeline.

Everything here runs with a fault profile armed (marker: ``fault``):
injector determinism, retry/backoff/quarantine semantics, the
serial == batch contract under faults, ledger charging rules, graceful
tuner degradation, and the seeded end-to-end acceptance runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.iterative import IterativeSettings, IterativeTuner
from repro.core.measure import MeasurementSet, Measurer, RetryPolicy
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.kernels import get_benchmark
from repro.runtime import (
    Context,
    DeviceResetError,
    Program,
    TimeoutError,
    TransientError,
)
from repro.simulator import (
    FAULT_PROFILES,
    FaultInjector,
    FaultProfile,
    NVIDIA_K40,
    get_fault_profile,
)
from repro.simulator.faults import HANG, OK, RESET, TRANSIENT, make_injector
from tests.serial_reference import SerialReference

pytestmark = pytest.mark.fault

FLAKY = get_fault_profile("flaky-gpu")


def _valid_index(spec, device=NVIDIA_K40, start=0):
    """First statically-valid configuration index of ``spec``."""
    probe = Measurer(Context(device, seed=0), spec)
    for i in range(start, spec.space.size):
        if probe.is_valid(i):
            return i
    raise AssertionError("no valid configuration found")


# -- profiles and the injector -------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        FaultProfile(p_transient_build=1.5)
    with pytest.raises(ValueError):
        FaultProfile(p_hang=0.6, p_transient_launch=0.5)  # launch bands > 1
    with pytest.raises(ValueError):
        FaultProfile(p_hang=0.1, hang_duration_s=0.0)
    with pytest.raises(ValueError):
        FaultProfile(p_outlier=0.1, outlier_factor=0.5)


def test_get_fault_profile_overrides():
    p = get_fault_profile("flaky-gpu:seed=3,p_hang=0.04")
    assert p.seed == 3
    assert p.p_hang == 0.04
    # untouched fields keep the named profile's values
    assert p.p_transient_launch == FAULT_PROFILES["flaky-gpu"].p_transient_launch
    with pytest.raises(ValueError):
        get_fault_profile("no-such-rig")
    with pytest.raises(ValueError):
        get_fault_profile("flaky-gpu:not_a_field=1")


def test_make_injector_coercions():
    assert make_injector(None) is None
    assert make_injector(FaultProfile()) is None  # all-zero injects nothing
    assert make_injector("none") is None
    inj = make_injector("flaky-gpu")
    assert isinstance(inj, FaultInjector)
    assert make_injector(inj) is inj
    with pytest.raises(TypeError):
        make_injector(42)


def test_injector_stream_is_deterministic_and_replayable():
    profile = FaultProfile(
        seed=5, p_transient_build=0.3, p_transient_launch=0.3, p_hang=0.1
    )
    key = ("convolution", (1, 2, 3))

    def draw_sequence(inj, n=50):
        return [
            (inj.at_build(key), inj.at_launch(key)) for _ in range(n)
        ]

    a = draw_sequence(FaultInjector(profile))
    b = draw_sequence(FaultInjector(profile))
    assert a == b  # same seed -> identical fault history
    kinds = {d for pair in a for d in pair}
    assert TRANSIENT in kinds and OK in kinds  # both bands actually hit

    inj = FaultInjector(profile)
    first = draw_sequence(inj, 20)
    inj.reset_state()
    assert draw_sequence(inj, 20) == first  # reset replays from scratch
    assert FaultInjector(FaultProfile(seed=6, p_transient_build=0.3)).at_build(
        key
    ) in (OK, TRANSIENT)


def test_launch_bands_are_mutually_exclusive_per_attempt():
    profile = FaultProfile(
        seed=1, p_device_reset=0.2, p_hang=0.3, p_transient_launch=0.4
    )
    inj = FaultInjector(profile)
    key = ("k", (0,))
    seen = [inj.at_launch(key) for _ in range(400)]
    assert {RESET, HANG, TRANSIENT, OK} == set(seen)
    total = sum(inj.injected[k] for k in ("reset", "hang", "transient_launch"))
    assert total == sum(1 for s in seen if s != OK)


# -- runtime surfaces ----------------------------------------------------------


def test_build_transient_raises_and_charges_failed_bucket():
    spec = get_benchmark("convolution")
    idx = _valid_index(spec)
    profile = FaultProfile(seed=0, p_transient_build=1.0)
    ctx = Context(NVIDIA_K40, seed=0, faults=profile)
    with pytest.raises(TransientError) as err:
        Program(ctx, spec, spec.space[idx]).build()
    assert "build" in str(err.value)
    assert ctx.ledger.failed_s > 0
    assert ctx.ledger.compile_s == 0.0  # failed before the compile charge


def test_hang_charges_min_of_watchdog_and_timeout():
    spec = get_benchmark("convolution")
    idx = _valid_index(spec)
    profile = FaultProfile(seed=0, p_hang=1.0, hang_duration_s=8.0)
    ctx = Context(NVIDIA_K40, seed=0, faults=profile)
    kernel = Program(ctx, spec, spec.space[idx]).build()
    failed0 = ctx.ledger.failed_s
    with pytest.raises(TimeoutError) as err:
        kernel.enqueue(timeout_s=2.0)
    assert err.value.waited_s == 2.0  # caller watchdog shorter than the hang
    assert ctx.ledger.failed_s - failed0 == pytest.approx(2.0)


def test_device_reset_charges_and_clears_compile_cache():
    spec = get_benchmark("convolution")
    idx = _valid_index(spec)
    profile = FaultProfile(seed=0, p_device_reset=1.0, reset_cost_s=2.0)
    ctx = Context(NVIDIA_K40, seed=0, faults=profile)
    measurer = Measurer(
        ctx, spec, retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0)
    )
    value, outcome = measurer.measure_outcome(idx)
    assert outcome == "quarantined" and value is None
    assert measurer._cache == {}  # reset wiped probed binaries
    assert measurer.stats.n_transient == 2
    assert ctx.ledger.failed_s >= 2 * 2.0


# -- retry / quarantine semantics ---------------------------------------------


def test_always_failing_config_is_quarantined_once():
    spec = get_benchmark("convolution")
    idx = _valid_index(spec)
    profile = FaultProfile(seed=0, p_transient_launch=1.0)
    ctx = Context(NVIDIA_K40, seed=0, faults=profile)
    policy = RetryPolicy(max_attempts=3, backoff_base_s=0.5)
    measurer = Measurer(ctx, spec, retry=policy)
    value, outcome = measurer.measure_outcome(idx)
    assert (value, outcome) == (None, "quarantined")
    s = measurer.stats
    assert s.n_transient == 3  # every attempt failed
    assert s.n_retries == 2  # backoff between attempts only
    assert s.n_quarantined == 1
    assert idx in measurer.quarantine
    # Exponential backoff charged to the dedicated ledger bucket.
    assert ctx.ledger.retry_s == pytest.approx(0.5 + 1.0)
    # Quarantine short-circuits: a re-ask burns nothing further.
    total0 = ctx.ledger.total_s
    assert measurer.measure_outcome(idx) == (None, "quarantined")
    assert ctx.ledger.total_s == total0
    assert measurer.stats.n_quarantined == 1
    # Quarantined is missing data, not invalid.
    assert measurer.stats.n_invalid == 0
    assert s.failure_breakdown() == {
        "transient": 3, "retries": 2, "quarantined": 1,
    }


def test_config_budget_quarantines_with_attempts_left():
    spec = get_benchmark("convolution")
    idx = _valid_index(spec)
    profile = FaultProfile(seed=0, p_hang=1.0, hang_duration_s=8.0)
    ctx = Context(NVIDIA_K40, seed=0, faults=profile)
    policy = RetryPolicy(
        max_attempts=100, launch_timeout_s=2.0, config_budget_s=5.0
    )
    measurer = Measurer(ctx, spec, retry=policy)
    assert measurer.measure_outcome(idx)[1] == "quarantined"
    # 2 s per watchdog-killed attempt; budget 5 s stops long before 100.
    assert measurer.stats.n_timeouts < 100
    assert ctx.ledger.total_s < 30.0


def test_retry_succeeds_and_returns_fault_free_value():
    """A transient that clears on retry yields *exactly* the measurement a
    fault-free run produces: the fault stream never touches the noise RNG."""
    spec = get_benchmark("convolution")
    idx = _valid_index(spec)

    clean = Measurer(Context(NVIDIA_K40, seed=9), spec)
    want = clean.measure(idx)

    # Find a seed whose first launch roll fails but a later one succeeds.
    for seed in range(50):
        profile = FaultProfile(seed=seed, p_transient_launch=0.6)
        ctx = Context(NVIDIA_K40, seed=9, faults=profile)
        measurer = Measurer(ctx, spec, retry=RetryPolicy(max_attempts=6))
        value, outcome = measurer.measure_outcome(idx)
        if outcome == "ok" and measurer.stats.n_transient > 0:
            assert value == want
            assert ctx.ledger.retry_s > 0
            return
    raise AssertionError("no seed produced a fail-then-succeed history")


def test_retry_path_is_deterministic():
    spec = get_benchmark("convolution")
    indices = spec.space.sample_indices(30, np.random.default_rng(3))

    def run():
        ctx = Context(NVIDIA_K40, seed=4, faults=get_fault_profile("unstable-driver"))
        m = Measurer(ctx, spec)
        ms = m.measure_batch(indices)
        return (
            [int(i) for i in ms.indices],
            [float.hex(float(t)) for t in ms.times_s],
            sorted(m.quarantine),
            m.stats.failure_breakdown(),
            float.hex(ctx.ledger.total_s),
        )

    assert run() == run()  # same seed + profile -> same retries/quarantines


def test_serial_equals_batch_under_faults():
    """One batch under flaky-gpu equals the serial reference loop's
    per-config outcomes, quarantine set, ledger and fault counters."""
    spec = get_benchmark("raycasting")
    indices = [int(i) for i in spec.space.sample_indices(30, np.random.default_rng(8))]

    ctx_s = Context(NVIDIA_K40, seed=2, faults=FLAKY)
    serial = SerialReference(ctx_s, spec)
    got = {}
    for i in indices:
        got[i] = serial.measure_outcome(i)

    ctx_b = Context(NVIDIA_K40, seed=2, faults=FLAKY)
    batch = Measurer(ctx_b, spec)
    ms = batch.measure_batch(indices)

    ok = {int(i): float(t) for i, t in zip(ms.indices, ms.times_s)}
    for i in indices:
        value, outcome = got[i]
        if outcome == "ok":
            assert ok.get(i) == value
        elif outcome == "quarantined":
            assert i in set(int(q) for q in ms.quarantined_indices)
        else:
            assert i in set(int(q) for q in ms.invalid_indices)
    assert serial.quarantine == batch.quarantine
    assert float.hex(ctx_s.ledger.total_s) == float.hex(ctx_b.ledger.total_s)
    assert serial.stats.failure_breakdown() == batch.stats.failure_breakdown()


def test_faults_do_not_perturb_measured_values():
    """Acceptance property behind the pick-match bar: non-outlier values
    measured under faults equal the fault-free values bit for bit."""
    spec = get_benchmark("stereo")
    indices = [int(i) for i in spec.space.sample_indices(40, np.random.default_rng(5))]

    clean = Measurer(Context(NVIDIA_K40, seed=3), spec)
    want = {i: clean.measure(i) for i in indices}

    profile = FaultProfile(  # flaky-gpu minus the outlier spikes
        seed=0, p_transient_build=0.03, p_transient_launch=0.05,
        p_hang=0.01, p_device_reset=0.002,
    )
    ctx = Context(NVIDIA_K40, seed=3, faults=profile)
    faulty = Measurer(ctx, spec)
    for i in indices:
        value, outcome = faulty.measure_outcome(i)
        if outcome != "quarantined":
            assert value == want[i], i


# -- ledger regression: validity checks must be free ---------------------------


def test_is_valid_charges_nothing(tmp_path):
    spec = get_benchmark("convolution")
    ctx = Context(NVIDIA_K40, seed=0)
    measurer = Measurer(ctx, spec)
    rng_word0 = str(ctx.measurement.rng.bit_generator.state["state"]["state"])
    indices = [int(i) for i in spec.space.sample_indices(200, np.random.default_rng(0))]
    verdicts = [measurer.is_valid(i) for i in indices]
    assert True in verdicts and False in verdicts
    # No compile, no launch, no failure cost, no noise draw — ever.
    assert ctx.ledger.total_s == 0.0
    assert str(ctx.measurement.rng.bit_generator.state["state"]["state"]) == rng_word0
    # And the verdicts agree with what a real probe concludes.
    for i in (indices[verdicts.index(True)], indices[verdicts.index(False)]):
        assert (measurer.measure(i) is not None) == measurer.is_valid(i)


def test_is_valid_agrees_with_probe_cache():
    spec = get_benchmark("convolution")
    measurer = Measurer(Context(NVIDIA_K40, seed=0), spec)
    idx = _valid_index(spec)
    measurer.measure(idx)
    assert measurer.is_valid(idx) is True  # served from the probe cache


# -- graceful tuner degradation ------------------------------------------------


def test_stage2_exhausted_falls_back_to_stage1_best():
    spec = get_benchmark("convolution")
    ctx = Context(NVIDIA_K40, seed=7)
    tuner = MLAutoTuner(
        ctx, spec, TunerSettings(n_train=60, m_candidates=10, k_bag=11)
    )
    # Force the §7 failure mode deterministically: every stage-two
    # candidate comes back without a valid measurement.
    tuner.evaluate_candidates = lambda candidates: MeasurementSet(
        indices=np.empty(0, dtype=np.int64),
        times_s=np.empty(0),
        invalid_indices=np.asarray(candidates, dtype=np.int64),
    )
    result = tuner.tune(np.random.default_rng(7), model_seed=7)
    assert not result.failed  # used to be best_index == -1
    assert result.degraded and result.degraded_reason == "stage2_exhausted"
    assert result.failure_breakdown["stage2_fallback"] == 1
    train = tuner.training_set
    assert (result.best_index, result.best_time_s) == train.best()


def test_stage1_starvation_replenishes_instead_of_raising():
    spec = get_benchmark("convolution")
    ctx = Context(NVIDIA_K40, seed=13)
    settings = TunerSettings(
        n_train=12, m_candidates=10, k_bag=11, replenish_rounds=6
    )
    tuner = MLAutoTuner(ctx, spec, settings)
    rng = np.random.default_rng(13)
    train = tuner.collect_training_data(rng)
    assert tuner.replenish_rounds_used > 0  # 12 draws can't yield 11 valid
    assert train.n_valid >= 11
    tuner.train_model(13)  # used to raise "increase n_train"


def test_stage1_starvation_still_raises_when_replenish_disabled():
    spec = get_benchmark("convolution")
    ctx = Context(NVIDIA_K40, seed=13)
    tuner = MLAutoTuner(
        ctx,
        spec,
        TunerSettings(n_train=12, m_candidates=10, k_bag=11, replenish_rounds=0),
    )
    tuner.collect_training_data(np.random.default_rng(13))
    if tuner.training_set.n_valid < 11:
        with pytest.raises(RuntimeError, match="replenish"):
            tuner.train_model(13)


def test_no_valid_measurements_is_a_degraded_failure():
    spec = get_benchmark("convolution")
    profile = FaultProfile(seed=0, p_transient_launch=1.0)  # nothing survives
    ctx = Context(NVIDIA_K40, seed=7, faults=profile)
    measurer = Measurer(
        ctx, spec, retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0)
    )
    tuner = MLAutoTuner(
        ctx,
        spec,
        TunerSettings(n_train=15, m_candidates=5, k_bag=11, replenish_rounds=1),
        measurer=measurer,
    )
    with pytest.raises(RuntimeError):
        # Even replenishment cannot train a model on a rig where every
        # launch fails; the error names the knobs that could help.
        tuner.tune(np.random.default_rng(7), model_seed=7)
    assert measurer.stats.n_quarantined > 0


# -- end-to-end acceptance -----------------------------------------------------


@pytest.mark.parametrize("kernel", ["convolution", "raycasting", "stereo"])
def test_flaky_gpu_tune_completes_with_breakdown(kernel):
    spec = get_benchmark(kernel)
    ctx = Context(NVIDIA_K40, seed=7, faults="flaky-gpu")
    tuner = MLAutoTuner(
        ctx, spec, TunerSettings(n_train=600, m_candidates=60, k_bag=11)
    )
    result = tuner.tune(np.random.default_rng(7), model_seed=7)
    assert not result.failed
    assert result.failure_breakdown  # the run reports what it survived
    assert set(result.failure_breakdown) <= {
        "transient", "timeouts", "retries", "quarantined",
        "stage1_replenish_rounds", "stage2_fallback",
    }
    s = tuner.measurer.stats
    assert s.n_transient + s.n_timeouts > 0


def test_flaky_gpu_iterative_completes():
    spec = get_benchmark("convolution")
    ctx = Context(NVIDIA_K40, seed=11, faults="flaky-gpu")
    tuner = IterativeTuner(
        ctx, spec, IterativeSettings(total_budget=300, rounds=2)
    )
    result = tuner.tune(np.random.default_rng(11), model_seed=11)
    assert not result.failed
    assert result.failure_breakdown


@pytest.mark.slow
def test_flaky_pick_matches_fault_free_pick_in_80pct_of_runs():
    """The acceptance bar: under the seeded flaky-gpu profile the
    stage-two pick must equal the fault-free pick in >= 80% of 20 runs."""
    spec = get_benchmark("convolution")
    settings = TunerSettings(n_train=600, m_candidates=60, k_bag=11)
    matches = 0
    for seed in range(20):
        clean = MLAutoTuner(
            Context(NVIDIA_K40, seed=seed), spec, settings
        ).tune(np.random.default_rng(seed), model_seed=seed)
        flaky = MLAutoTuner(
            Context(NVIDIA_K40, seed=seed, faults=f"flaky-gpu:seed={seed}"),
            spec,
            settings,
        ).tune(np.random.default_rng(seed), model_seed=seed)
        assert not flaky.failed
        matches += int(flaky.best_index == clean.best_index)
    assert matches >= 16, f"only {matches}/20 picks matched"


def test_campaign_grid_inline_with_faults(tmp_path):
    from repro.core.campaign import run_campaign_grid

    report = run_campaign_grid(
        [get_benchmark("convolution")],
        ["nvidia", "intel"],
        settings=TunerSettings(n_train=200, m_candidates=20, k_bag=11),
        max_workers=1,
        seed=5,
        faults=FLAKY,
    )
    assert len(report.cells) == 2
    total = report.total_stats
    assert total.n_faults > 0
    assert "faults survived" in report.report()


def test_cli_tune_with_faults(capsys):
    from repro.cli import main

    rc = main([
        "tune", "-k", "convolution", "-d", "nvidia",
        "-n", "600", "-m", "60", "--seed", "7", "--faults", "flaky-gpu",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "failure breakdown" in out
    assert "retries" in out


# -- backoff cap ---------------------------------------------------------------


def test_backoff_schedule_is_capped():
    policy = RetryPolicy(
        backoff_base_s=1.0, backoff_multiplier=10.0, backoff_max_s=3.0
    )
    assert policy.backoff_s(1) == 1.0
    assert policy.backoff_s(2) == 3.0  # 10.0 uncapped
    assert policy.backoff_s(6) == 3.0  # 1e5 uncapped


def test_backoff_cap_below_base_rejected():
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base_s=2.0, backoff_max_s=1.0)


def test_charged_backoff_respects_cap():
    """Regression: ``backoff_s`` grew without bound, so a transient streak
    could charge one enormous sleep to ``retry_s``.  The charged total must
    follow the capped schedule exactly."""
    spec = get_benchmark("convolution")
    idx = _valid_index(spec)
    profile = FaultProfile(seed=0, p_transient_launch=1.0)
    ctx = Context(NVIDIA_K40, seed=0, faults=profile)
    policy = RetryPolicy(
        max_attempts=5,
        backoff_base_s=1.0,
        backoff_multiplier=4.0,
        backoff_max_s=2.0,
        config_budget_s=1000.0,
    )
    measurer = Measurer(ctx, spec, retry=policy)
    assert measurer.measure_outcome(idx) == (None, "quarantined")
    # Backoffs after attempts 1-4: min(1,2), min(4,2), min(16,2), min(64,2).
    assert ctx.ledger.retry_s == pytest.approx(1.0 + 2.0 + 2.0 + 2.0)
