"""End-to-end integration tests: the full pipeline across benchmarks and
devices, exactly as a user would run it."""

import numpy as np
import pytest

from repro import Context, MLAutoTuner, Measurer, TunerSettings
from repro.experiments.oracle import TrueTimeOracle
from repro.kernels import get_benchmark
from repro.simulator import AMD_HD7970, INTEL_I7_3770, NVIDIA_K40
from tests.serial_reference import SerialReference

DEVICES = {"intel": INTEL_I7_3770, "nvidia": NVIDIA_K40, "amd": AMD_HD7970}


class TestFullPipeline:
    @pytest.mark.parametrize("device_key", ["intel", "nvidia", "amd"])
    def test_convolution_tuning_beats_random_sampling(self, device_key):
        """The tuned configuration must beat the median random config by a
        large factor on every device."""
        device = DEVICES[device_key]
        spec = get_benchmark("convolution")
        ctx = Context(device, seed=31)
        tuner = MLAutoTuner(ctx, spec, TunerSettings(n_train=500, m_candidates=60))
        result = tuner.tune(np.random.default_rng(31), model_seed=31)
        if result.failed:
            pytest.skip("all-invalid stage two on this seed (paper's §7 mode)")
        median_random = float(np.median(tuner.training_set.times_s))
        assert result.best_time_s < median_random / 2

    @pytest.mark.parametrize("kernel", ["raycasting", "stereo"])
    def test_large_space_tuning_on_k40(self, kernel):
        spec = get_benchmark(kernel)
        ctx = Context(NVIDIA_K40, seed=13)
        tuner = MLAutoTuner(ctx, spec, TunerSettings(n_train=400, m_candidates=40))
        result = tuner.tune(np.random.default_rng(13), model_seed=13)
        if result.failed:
            pytest.skip("all-invalid stage two (paper's stereo-on-GPU mode)")
        assert result.best_time_s > 0
        assert result.evaluated_fraction < 0.001

    def test_same_seed_reproduces_exactly(self):
        spec = get_benchmark("convolution")

        def run():
            ctx = Context(NVIDIA_K40, seed=77)
            tuner = MLAutoTuner(
                ctx, spec, TunerSettings(n_train=400, m_candidates=40)
            )
            return tuner.tune(np.random.default_rng(77), model_seed=77)

        a, b = run(), run()
        assert a.best_index == b.best_index
        assert a.best_time_s == b.best_time_s or (
            np.isnan(a.best_time_s) and np.isnan(b.best_time_s)
        )
        assert a.total_cost_s == b.total_cost_s
        assert a.n_trained == b.n_trained

    def test_different_devices_prefer_different_configs(self):
        """Re-run the paper's premise end-to-end: per-device tuning lands
        on genuinely different configurations."""
        spec = get_benchmark("convolution")
        picks = {}
        for key, device in DEVICES.items():
            ctx = Context(device, seed=5)
            tuner = MLAutoTuner(
                ctx, spec, TunerSettings(n_train=600, m_candidates=60)
            )
            result = tuner.tune(np.random.default_rng(5), model_seed=5)
            if not result.failed:
                picks[key] = result.best_index
        assert len(picks) >= 2
        assert len(set(picks.values())) == len(picks)

    def test_tuned_config_is_functionally_correct(self):
        """The winning configuration must still compute the right answer —
        tie the tuning pipeline back to the functional implementations."""
        from repro.kernels.convolution import ConvolutionKernel, ConvolutionProblem

        spec = ConvolutionKernel()
        ctx = Context(NVIDIA_K40, seed=2)
        tuner = MLAutoTuner(ctx, spec, TunerSettings(n_train=300, m_candidates=30))
        result = tuner.tune(np.random.default_rng(2), model_seed=2)
        assert not result.failed
        best_values = dict(spec.space[result.best_index])

        small = ConvolutionKernel(ConvolutionProblem(64, 48, 5))
        cfg = small.space.config(**best_values)
        inputs = small.make_inputs(np.random.default_rng(0))
        np.testing.assert_array_equal(
            small.run(cfg, inputs), small.reference(inputs)
        )


class TestCostConsistency:
    def test_ledger_grows_monotonically_through_pipeline(self):
        spec = get_benchmark("convolution")
        ctx = Context(NVIDIA_K40, seed=9)
        tuner = MLAutoTuner(ctx, spec, TunerSettings(n_train=150, m_candidates=15))
        rng = np.random.default_rng(9)
        assert ctx.ledger.total_s == 0.0
        tuner.collect_training_data(rng)
        after_stage1 = ctx.ledger.total_s
        assert after_stage1 > 0
        tuner.train_model(9)
        assert ctx.ledger.total_s == after_stage1  # training is free on-device
        cands = tuner.propose_candidates(rng)
        tuner.evaluate_candidates(cands)
        assert ctx.ledger.total_s > after_stage1

    def test_measurer_shares_context_ledger(self):
        spec = get_benchmark("convolution")
        ctx = Context(NVIDIA_K40, seed=9)
        m = Measurer(ctx, spec)
        m.measure_batch(list(range(50)))
        assert ctx.ledger.total_s > 0


class TestOracleAgreesWithRuntime:
    def test_true_times_match(self):
        """The evaluation oracle and the runtime facade must agree on the
        noise-free time of every configuration."""
        spec = get_benchmark("convolution")
        oracle = TrueTimeOracle(spec, NVIDIA_K40)
        facade = SerialReference(Context(NVIDIA_K40, seed=0), spec)
        rng = np.random.default_rng(4)
        for i in spec.space.sample_indices(60, rng):
            i = int(i)
            runtime_t = facade.true_time(i)
            oracle_t = oracle.time_of(i)
            if runtime_t is None:
                assert np.isnan(oracle_t)
            else:
                assert runtime_t == pytest.approx(oracle_t, rel=1e-12)
