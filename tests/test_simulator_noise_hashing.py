"""Tests for the measurement-noise model and the stable-hash jitter."""

import math

import numpy as np
import pytest

from repro.simulator.devices import INTEL_I7_3770, NVIDIA_K40
from repro.simulator.hashing import (
    HashPrefix,
    JitterTable,
    stable_hash64,
    unit_uniform,
)
from repro.simulator.noise import CostLedger, MeasurementModel, compile_time


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("a", 1, (2, 3)) == stable_hash64("a", 1, (2, 3))

    def test_sensitive_to_any_part(self):
        base = stable_hash64("a", 1, (2, 3))
        assert stable_hash64("a", 1, (2, 4)) != base
        assert stable_hash64("b", 1, (2, 3)) != base

    def test_not_confused_by_concatenation(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert stable_hash64("ab", "c") != stable_hash64("a", "bc")

    def test_unit_uniform_in_range(self):
        for i in range(100):
            u = unit_uniform("key", i)
            assert 0.0 <= u < 1.0

    def test_unit_normal_clipped_and_standardish(self):
        zs = np.array([HashPrefix("key").normal(i) for i in range(2000)])
        assert np.all(np.abs(zs) <= 4.0)
        assert abs(zs.mean()) < 0.1
        assert abs(zs.std() - 1.0) < 0.1


class TestJitterFactors:
    def test_structured_jitter_deterministic(self):
        a = JitterTable(0.1, 0.05, "dev", "conv").factor((1, 2, 3, 4, 0, 1))
        b = JitterTable(0.1, 0.05, "dev", "conv").factor((1, 2, 3, 4, 0, 1))
        assert a == b

    def test_structured_component_shared_within_group(self):
        """Configs sharing all subgroups differ only by the idiosyncratic
        part; with sigma_idio=0 they get identical jitter."""
        a = JitterTable(0.1, 0.0, "dev", "conv").factor((1, 2, 3, 4, 0, 1))
        b = JitterTable(0.1, 0.0, "dev", "conv").factor((1, 2, 3, 4, 0, 1))
        assert a == b
        # Changing a switch moves only the third group's draw.
        c = JitterTable(0.1, 0.0, "dev", "conv").factor((1, 2, 3, 4, 1, 1))
        assert c != a

    def test_structured_jitter_magnitude(self):
        table = JitterTable(0.1, 0.05, "dev", "conv")
        vals = [table.factor((i, i + 1, i + 2, i % 3, 0)) for i in range(500)]
        logs = np.log(vals)
        total = math.sqrt(0.1**2 + 0.05**2)
        assert abs(logs.std() - total) < 0.03


class TestCompileTime:
    def test_base_time(self):
        assert compile_time(NVIDIA_K40) == pytest.approx(0.55)

    def test_grows_with_unroll(self):
        assert compile_time(NVIDIA_K40, 16) > compile_time(NVIDIA_K40, 1)

    def test_bad_unroll_rejected(self):
        with pytest.raises(ValueError):
            compile_time(NVIDIA_K40, 0)


class TestMeasurementModel:
    def test_observe_unbiased_in_log(self):
        m = MeasurementModel(NVIDIA_K40, np.random.default_rng(0))
        obs = m.observe_many(1.0, 20000)
        assert abs(np.log(obs).mean()) < 0.01

    def test_cpu_noise_tighter(self):
        rng = np.random.default_rng(0)
        cpu = MeasurementModel(INTEL_I7_3770, rng).observe_many(1.0, 5000)
        gpu = MeasurementModel(NVIDIA_K40, np.random.default_rng(0)).observe_many(
            1.0, 5000
        )
        assert np.log(cpu).std() < np.log(gpu).std()

    def test_best_of_is_min_biased(self):
        m = MeasurementModel(NVIDIA_K40, np.random.default_rng(0))
        singles = np.array([m.observe(1.0) for _ in range(500)])
        bests = np.array([m.best_of(1.0, 5) for _ in range(500)])
        assert bests.mean() < singles.mean()

    def test_nonpositive_time_rejected(self):
        m = MeasurementModel(NVIDIA_K40)
        with pytest.raises(ValueError):
            m.observe(0.0)

    def test_bad_repeats_rejected(self):
        m = MeasurementModel(NVIDIA_K40)
        with pytest.raises(ValueError):
            m.observe_many(1.0, 0)

    def test_seeded_reproducibility(self):
        a = MeasurementModel(NVIDIA_K40, np.random.default_rng(7)).observe(1.0)
        b = MeasurementModel(NVIDIA_K40, np.random.default_rng(7)).observe(1.0)
        assert a == b


class TestCostLedger:
    def test_total_and_merge(self):
        a = CostLedger(compile_s=1.0, run_s=2.0, failed_s=0.5)
        b = CostLedger(compile_s=0.5, run_s=1.0, failed_s=0.25)
        m = a.merge(b)
        assert m.total_s == pytest.approx(5.25)
        assert a.total_s == pytest.approx(3.5)  # merge does not mutate
