"""Tests for the performance model and the two-stage auto-tuner."""

import numpy as np
import pytest

from repro.core.measure import Measurer
from repro.core.model import PerformanceModel
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.kernels import ConvolutionKernel
from repro.ml import RidgeRegression
from repro.runtime import Context
from repro.simulator import INTEL_I7_3770, NVIDIA_K40


@pytest.fixture(scope="module")
def spec():
    return ConvolutionKernel()


@pytest.fixture(scope="module")
def training(spec):
    """A shared stage-one campaign on the K40."""
    ctx = Context(NVIDIA_K40, seed=3)
    m = Measurer(ctx, spec)
    ms = m.sample_and_measure(1400, np.random.default_rng(3))
    assert ms.n_valid >= 700  # ~44% of the K40 space is invalid
    return m, ms


class TestPerformanceModel:
    def test_fit_predict_positive_times(self, spec, training):
        _, ms = training
        model = PerformanceModel(spec.space, seed=0).fit_measurements(ms)
        pred = model.predict_indices(ms.indices[:50])
        assert np.all(pred > 0)

    def test_reasonable_holdout_error(self, spec, training):
        measurer, ms = training
        model = PerformanceModel(spec.space, seed=0).fit(
            ms.indices[:600], ms.times_s[:600]
        )
        err = model.relative_error(ms.indices[600:], ms.times_s[600:])
        assert err < 0.45  # loose sanity bound for 600 samples

    def test_log_transform_improves_relative_error(self, spec, training):
        measurer, ms = training
        kw = dict(seed=0)
        with_log = PerformanceModel(spec.space, log_transform=True, **kw).fit(
            ms.indices[:600], ms.times_s[:600]
        )
        without = PerformanceModel(spec.space, log_transform=False, **kw).fit(
            ms.indices[:600], ms.times_s[:600]
        )
        e1 = with_log.relative_error(ms.indices[600:], ms.times_s[600:])
        e2 = without.relative_error(ms.indices[600:], ms.times_s[600:])
        assert e1 < e2

    def test_top_m_sorted_by_prediction(self, spec, training):
        _, ms = training
        model = PerformanceModel(spec.space, seed=0).fit_measurements(ms)
        top = model.top_m(20)
        pred = model.predict_indices(top)
        assert np.all(np.diff(pred) >= -1e-12)
        assert len(top) == 20

    def test_top_m_restricted_to_pool(self, spec, training):
        _, ms = training
        model = PerformanceModel(spec.space, seed=0).fit_measurements(ms)
        pool = np.arange(1000, dtype=np.int64)
        top = model.top_m(10, candidate_indices=pool)
        assert np.all(top < 1000)

    def test_custom_factory_baseline(self, spec, training):
        _, ms = training
        model = PerformanceModel(
            spec.space, k=3, seed=0, base_factory=lambda: RidgeRegression()
        ).fit_measurements(ms)
        assert np.all(model.predict_indices(ms.indices[:10]) > 0)

    def test_k1_single_model(self, spec, training):
        _, ms = training
        model = PerformanceModel(spec.space, k=1, seed=0).fit_measurements(ms)
        assert model.predict_indices([0]).shape == (1,)

    def test_validation(self, spec):
        model = PerformanceModel(spec.space, seed=0)
        with pytest.raises(RuntimeError):
            model.predict_indices([0])
        with pytest.raises(ValueError):
            model.fit([1, 2], [1.0])  # misaligned
        with pytest.raises(ValueError):
            model.fit([1, 2, 3], [1.0, -1.0, 2.0])  # nonpositive time
        with pytest.raises(ValueError):
            model.fit([1], [1.0])  # too few
        with pytest.raises(ValueError):
            model.top_m(0)


class TestTunerSettings:
    def test_defaults_match_paper_headline(self):
        s = TunerSettings()
        assert s.n_train == 2000 and s.m_candidates == 200 and s.k_bag == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            TunerSettings(n_train=5, k_bag=11)
        with pytest.raises(ValueError):
            TunerSettings(m_candidates=0)


class TestMLAutoTuner:
    def test_full_pipeline_finds_good_config(self, spec):
        ctx = Context(INTEL_I7_3770, seed=11)
        settings = TunerSettings(n_train=400, m_candidates=40)
        tuner = MLAutoTuner(ctx, spec, settings)
        result = tuner.tune(np.random.default_rng(11))
        assert not result.failed
        # The tuned config must beat the median of its own training sample.
        assert result.best_time_s < np.median(tuner.training_set.times_s)
        assert result.n_trained > 300
        assert result.n_stage2 == 40
        assert 0 < result.evaluated_fraction < 0.005
        assert result.total_cost_s > 0

    def test_stage_order_enforced(self, spec):
        ctx = Context(NVIDIA_K40, seed=0)
        tuner = MLAutoTuner(ctx, spec, TunerSettings(n_train=100, m_candidates=10))
        with pytest.raises(RuntimeError):
            tuner.train_model()
        with pytest.raises(RuntimeError):
            tuner.propose_candidates()

    def test_candidate_pool_mode(self, spec):
        ctx = Context(NVIDIA_K40, seed=5)
        settings = TunerSettings(n_train=300, m_candidates=20, candidate_pool=5000)
        tuner = MLAutoTuner(ctx, spec, settings)
        rng = np.random.default_rng(5)
        tuner.collect_training_data(rng)
        tuner.train_model(0)
        cands = tuner.propose_candidates(rng)
        assert len(cands) == 20

    def test_filter_known_invalid_extension(self, spec):
        ctx = Context(NVIDIA_K40, seed=5)
        settings = TunerSettings(
            n_train=300, m_candidates=20, filter_known_invalid=True
        )
        tuner = MLAutoTuner(ctx, spec, settings)
        rng = np.random.default_rng(5)
        tuner.collect_training_data(rng)
        tuner.train_model(0)
        cands = tuner.propose_candidates(rng)
        stage2 = tuner.evaluate_candidates(cands)
        assert stage2.n_invalid == 0

    def test_filter_known_invalid_predicts_at_most_twice(self, spec):
        """Regression: each escalation round used to re-predict the whole
        space.  Now the sorted order is computed at most twice — an
        optimistic 4M prefix, then (only if needed) the full order — and
        rounds merely widen the validity window over it."""
        ctx = Context(NVIDIA_K40, seed=5)
        settings = TunerSettings(
            n_train=300, m_candidates=20, filter_known_invalid=True
        )
        tuner = MLAutoTuner(ctx, spec, settings)
        rng = np.random.default_rng(5)
        tuner.collect_training_data(rng)
        tuner.train_model(0)

        calls = []
        real_top_m = tuner.model.top_m

        def counting_top_m(m, pool=None):
            calls.append(m)
            return real_top_m(m, pool)

        tuner.model.top_m = counting_top_m
        cands = tuner.propose_candidates(rng)
        assert len(calls) <= 2
        assert len(cands) == 20
        assert all(tuner.measurer.is_valid(int(i)) for i in cands)
        # The kept candidates are exactly the M best-ranked valid ones.
        full = real_top_m(spec.space.size)
        want = full[tuner.measurer.valid_mask(full)][:20]
        np.testing.assert_array_equal(cands, want)

    def test_slowdown_vs(self, spec):
        ctx = Context(INTEL_I7_3770, seed=11)
        tuner = MLAutoTuner(ctx, spec, TunerSettings(n_train=400, m_candidates=40))
        result = tuner.tune(np.random.default_rng(11))
        assert not result.failed
        assert result.slowdown_vs(result.best_time_s) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            result.slowdown_vs(0.0)

    def test_all_invalid_stage2_reports_failure(self, spec):
        """The paper's 'auto-tuner gives no prediction at all' mode (§7):
        with few samples the model can rank only-invalid regions first."""
        ctx = Context(INTEL_I7_3770, seed=11)
        tuner = MLAutoTuner(ctx, spec, TunerSettings(n_train=300, m_candidates=20))
        result = tuner.tune(np.random.default_rng(11))
        if result.failed:  # seed-dependent; both outcomes must be coherent
            assert np.isnan(result.best_time_s)
            assert result.stage2_invalid == result.n_stage2
            assert np.isnan(result.slowdown_vs(1.0))
        else:
            assert result.best_time_s > 0


class TestInvalidPenaltyPolicy:
    def test_penalized_model_ranks_invalids_last(self, spec):
        """With invalid_penalty, the model's top-M should contain far fewer
        invalid configurations than the ignore policy's."""
        from repro.core.measure import Measurer
        from repro.simulator import AMD_HD7970

        measurer = Measurer(Context(AMD_HD7970, seed=4), spec)
        ms = measurer.sample_and_measure(500, np.random.default_rng(4))

        ignore = PerformanceModel(spec.space, seed=4).fit_measurements(ms)
        penal = PerformanceModel(spec.space, seed=4).fit_measurements(
            ms, invalid_penalty=10.0
        )
        bad_ignore = sum(1 for i in ignore.top_m(40) if not measurer.is_valid(int(i)))
        bad_penal = sum(1 for i in penal.top_m(40) if not measurer.is_valid(int(i)))
        assert bad_penal <= bad_ignore

    def test_penalty_validation(self, spec, training):
        _, ms = training
        model = PerformanceModel(spec.space, seed=0)
        with pytest.raises(ValueError):
            model.fit_measurements(ms, invalid_penalty=0.5)

    def test_no_invalids_is_a_plain_fit(self, spec, training):
        _, ms = training
        import numpy as _np

        clean = type(ms)(
            indices=ms.indices, times_s=ms.times_s,
            invalid_indices=_np.array([], dtype=_np.int64),
        )
        a = PerformanceModel(spec.space, seed=0).fit_measurements(clean)
        b = PerformanceModel(spec.space, seed=0).fit_measurements(
            clean, invalid_penalty=10.0
        )
        _np.testing.assert_array_equal(
            a.predict_indices([1, 2, 3]), b.predict_indices([1, 2, 3])
        )
