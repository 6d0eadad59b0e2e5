"""Tests for the measurement loop."""

import numpy as np
import pytest

from repro.core.measure import MeasurementSet, Measurer
from repro.experiments.oracle import TrueTimeOracle
from repro.kernels import ConvolutionKernel
from repro.runtime import Context
from repro.simulator import AMD_HD7970, NVIDIA_K40


@pytest.fixture(scope="module")
def spec():
    return ConvolutionKernel()


@pytest.fixture
def measurer(spec):
    return Measurer(Context(NVIDIA_K40, seed=0), spec, repeats=3)


def config_index(spec, **overrides):
    base = dict(
        wg_x=32, wg_y=4, ppt_x=2, ppt_y=2, use_image=0, use_local=0,
        pad=1, interleaved=1, unroll=0,
    )
    base.update(overrides)
    return spec.space.config(**base).index


class TestSingleMeasurement:
    def test_valid_config_measured(self, spec, measurer):
        i = config_index(spec)
        t = measurer.measure(i)
        assert t is not None and t > 0
        assert measurer.is_valid(i)

    def test_invalid_config_returns_none(self, spec):
        m = Measurer(Context(AMD_HD7970, seed=0), spec)
        i = config_index(spec, wg_x=64, wg_y=16)  # 1024 > 256
        assert m.measure(i) is None
        assert not m.is_valid(i)

    def test_true_time_cached_single_compile(self, spec, measurer):
        i = config_index(spec)
        measurer.measure(i)
        compile_after_first = measurer.context.ledger.compile_s
        measurer.measure(i)
        assert measurer.context.ledger.compile_s == compile_after_first

    def test_repeats_lower_measurement(self, spec):
        """best-of-5 should be stochastically below best-of-1."""
        m1 = Measurer(Context(NVIDIA_K40, seed=0), spec, repeats=1)
        m5 = Measurer(Context(NVIDIA_K40, seed=0), spec, repeats=5)
        i = config_index(spec)
        xs1 = np.array([m1.measure(i) for _ in range(100)])
        xs5 = np.array([m5.measure(i) for _ in range(100)])
        assert xs5.mean() < xs1.mean()

    def test_bad_repeats(self, spec):
        with pytest.raises(ValueError):
            Measurer(Context(NVIDIA_K40), spec, repeats=0)


class TestBatch:
    def test_batch_splits_valid_invalid(self, spec):
        m = Measurer(Context(AMD_HD7970, seed=0), spec)
        good = config_index(spec, wg_x=32, wg_y=4)
        bad = config_index(spec, wg_x=64, wg_y=16)
        ms = m.measure_batch([good, bad])
        assert ms.n_valid == 1 and ms.n_invalid == 1
        assert ms.indices[0] == good
        assert ms.invalid_indices[0] == bad
        assert ms.invalid_fraction == pytest.approx(0.5)

    def test_best(self, spec, measurer):
        ms = measurer.sample_and_measure(50, np.random.default_rng(0))
        i, t = ms.best()
        assert t == ms.times_s.min()
        assert i in set(ms.indices)

    def test_best_empty_raises(self):
        ms = MeasurementSet(
            indices=np.array([], dtype=np.int64),
            times_s=np.array([]),
            invalid_indices=np.array([1], dtype=np.int64),
        )
        with pytest.raises(ValueError):
            ms.best()
        assert ms.invalid_fraction == 1.0

    def test_merge(self, spec, measurer):
        a = measurer.sample_and_measure(20, np.random.default_rng(0))
        b = measurer.sample_and_measure(20, np.random.default_rng(1))
        m = a.merged_with(b)
        assert m.n_valid == a.n_valid + b.n_valid
        assert m.n_invalid == a.n_invalid + b.n_invalid

    def test_sample_and_measure_counts(self, spec, measurer):
        ms = measurer.sample_and_measure(100, np.random.default_rng(2))
        assert ms.n_valid + ms.n_invalid == 100

    def test_empty_invalid_fraction_zero(self):
        ms = MeasurementSet(
            indices=np.array([], dtype=np.int64),
            times_s=np.array([]),
            invalid_indices=np.array([], dtype=np.int64),
        )
        assert ms.invalid_fraction == 0.0


class TestLedgerAccounting:
    """Every measurement bills exactly ``repeats`` launches.

    Regression for a bug where cache-served re-measurements were charged
    ``repeats - 1`` launches: the probe launch is only billed by the runtime
    on the *first* (fresh) measurement, so re-measures must add all
    ``repeats`` themselves.  Pinned on a zero-noise device so the expected
    totals are exact multiples of the true time.
    """

    @pytest.fixture
    def quiet_measurer(self, spec):
        import dataclasses

        quiet = dataclasses.replace(NVIDIA_K40, timing_noise_sigma=0.0)
        return Measurer(Context(quiet, seed=0), spec, repeats=4)

    def test_fresh_measurement_bills_repeats_launches(self, spec, quiet_measurer):
        m = quiet_measurer
        i = config_index(spec)
        value = m.measure(i)
        true = TrueTimeOracle(spec, m.context.device.spec).time_of(i)
        assert value == true  # zero noise: best-of == true
        assert m.context.ledger.run_s == pytest.approx(4 * true, rel=1e-12)

    def test_cached_re_measure_bills_repeats_launches(self, spec, quiet_measurer):
        m = quiet_measurer
        i = config_index(spec)
        m.measure(i)
        true = TrueTimeOracle(spec, m.context.device.spec).time_of(i)
        m.measure(i)
        assert m.context.ledger.run_s == pytest.approx(8 * true, rel=1e-12)
        m.measure(i)
        assert m.context.ledger.run_s == pytest.approx(12 * true, rel=1e-12)

    def test_db_hit_bills_nothing(self, spec):
        from repro.core.results import MeasurementDB

        db = MeasurementDB()
        i = config_index(spec)
        db.put(spec.name, NVIDIA_K40.name, i, 42e-3)
        m = Measurer(Context(NVIDIA_K40, seed=0), spec, db=db)
        assert m.measure(i) == 42e-3
        assert m.context.ledger.total_s == 0.0
        assert m.stats.n_db_hits == 1

    def test_invalid_db_hit_returns_none_without_cost(self, spec):
        from repro.core.results import MeasurementDB

        db = MeasurementDB()
        i = config_index(spec)
        db.put(spec.name, NVIDIA_K40.name, i, None)
        m = Measurer(Context(NVIDIA_K40, seed=0), spec, db=db)
        assert m.measure(i) is None
        assert m.context.ledger.total_s == 0.0
        assert m.stats.n_invalid == 1
