"""Scalar-vs-vector parity for the keyed-hash API (splitmix64).

The wave-based resilient batch engine precomputes fault rolls and drift
quirks for whole configuration batches with the array-in/array-out
helpers in :mod:`repro.simulator.hashing`.  Bit-identity with the serial
resilient loop rests on one invariant: **every vectorized draw equals
the scalar draw for the same key, bit for bit**.  These property tests
pin that invariant at each layer — the raw primitives, then the
:class:`FaultInjector` and :class:`DriftModel` batch entry points built
on them.
"""

import numpy as np
import pytest

from repro.simulator.drift import DriftModel, get_drift_profile
from repro.simulator.faults import FAULT_PROFILES, FaultInjector
from repro.simulator.hashing import (
    fold64,
    fold64_many,
    key64,
    keyed_normal,
    keyed_normal_many,
    keyed_uniform,
    keyed_uniform_many,
    pair_key_prefix64,
    part64,
    splitmix64,
    splitmix64_py,
    tuple_keys64,
)


def _random_u64(rng, n):
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


class TestPrimitiveParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_splitmix64_scalar_vs_vector(self, seed):
        zs = _random_u64(np.random.default_rng(seed), 500)
        vec = splitmix64(zs)
        scal = np.array([splitmix64_py(int(z)) for z in zs], dtype=np.uint64)
        assert (vec == scal).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_fold64_scalar_vs_vector(self, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(0, 2**64, dtype=np.uint64))
        vs = _random_u64(rng, 500)
        vec = fold64_many(h, vs)
        scal = np.array([fold64(h, int(v)) for v in vs], dtype=np.uint64)
        assert (vec == scal).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_keyed_uniform_scalar_vs_vector(self, seed):
        hs = _random_u64(np.random.default_rng(seed), 500)
        vec = keyed_uniform_many(hs)
        scal = np.array([keyed_uniform(int(h)) for h in hs])
        assert (vec == scal).all()
        assert ((vec > 0.0) & (vec < 1.0)).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_keyed_normal_scalar_vs_vector(self, seed):
        hs = _random_u64(np.random.default_rng(seed), 500)
        vec = keyed_normal_many(hs)
        scal = np.array([keyed_normal(int(h)) for h in hs])
        assert (vec == scal).all()
        assert (np.abs(vec) <= 4.0).all()

    def test_keyed_normal_standardish(self):
        hs = _random_u64(np.random.default_rng(0), 20000)
        zs = keyed_normal_many(hs)
        assert abs(zs.mean()) < 0.05
        assert abs(zs.std() - 1.0) < 0.05

    def test_keyed_uniform_uniformish(self):
        hs = _random_u64(np.random.default_rng(1), 20000)
        us = keyed_uniform_many(hs)
        assert abs(us.mean() - 0.5) < 0.02
        hist, _ = np.histogram(us, bins=10, range=(0.0, 1.0))
        assert hist.min() > 1500


class TestKeyStructure:
    def test_key64_matches_fold_chain(self):
        assert key64(7, "fault", "launch") == fold64(
            fold64(fold64(key64(), part64(7)), part64("fault")), part64("launch")
        )

    def test_part64_sensitive_to_structure(self):
        # ("ab", "c") must differ from ("a", "bc"), and nesting matters.
        assert part64(("ab", "c")) != part64(("a", "bc"))
        assert part64((1, (2, 3))) != part64((1, 2, 3))
        assert part64((1, 2)) != part64((2, 1))

    def test_pair_key_prefix_identity(self):
        # part64((first, x)) == fold64(pair_key_prefix64(first), part64(x))
        for first in ("convolution", 3, ("a", 1)):
            for x in (5, "cfg", (8, 16, 1, 2, 0, 1)):
                assert part64((first, x)) == fold64(
                    pair_key_prefix64(first), part64(x)
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_tuple_keys64_matches_scalar_rows(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(0, 64, size=(200, 6)).astype(np.int64)
        prefix = pair_key_prefix64("conv")
        vec = tuple_keys64(prefix, mat)
        scal = np.array(
            [fold64(prefix, part64(tuple(int(v) for v in row))) for row in mat],
            dtype=np.uint64,
        )
        assert (vec == scal).all()


class TestFaultInjectorParity:
    """Peeked fault uniforms equal the rolls, with config keys hashed the
    way the batch engine hashes them (``DriftModel.quirk_key_hashes``)."""

    @pytest.mark.parametrize("profile", ["flaky-gpu", "unstable-driver"])
    def test_peek_matches_roll_per_attempt(self, profile):
        rng = np.random.default_rng(3)
        mat = rng.integers(0, 64, size=(50, 6)).astype(np.int64)
        cts = [tuple(int(v) for v in row) for row in mat]
        for surface in ("build", "launch"):
            inj = FaultInjector(FAULT_PROFILES[profile])
            hashes = DriftModel.quirk_key_hashes("conv", mat)
            # Vectorized peek first: it must be pure (no counter movement).
            peeked = np.stack(
                [inj.peek_uniforms(surface, hashes, np.full(len(cts), a))
                 for a in range(3)],
                axis=1,
            )
            assert inj.attempts_of(surface, ("conv", cts[0])) == 0
            rolled = np.array(
                [[inj._roll(surface, ("conv", ct)) for _ in range(3)]
                 for ct in cts]
            )
            assert (peeked == rolled).all()
            assert inj.attempts_of(surface, ("conv", cts[0])) == 3

    def test_index_key_hashes_match_outlier_rolls(self):
        inj = FaultInjector(FAULT_PROFILES["noisy-rig"])
        indices = np.array([0, 7, 123, 4096])
        hashes = inj.index_key_hashes("conv", indices)
        peeked = inj.peek_uniforms("outlier", hashes, np.zeros(len(indices)))
        rolled = np.array(
            [inj._roll("outlier", ("conv", int(i))) for i in indices]
        )
        assert (peeked == rolled).all()

    def test_bump_attempts_advances_the_stream(self):
        inj = FaultInjector(FAULT_PROFILES["flaky-gpu"])
        key = ("conv", (1, 2, 3, 4, 0, 1))
        h = DriftModel.quirk_key_hashes("conv", np.array([[1, 2, 3, 4, 0, 1]]))
        expected = [float(inj.peek_uniforms("launch", h, [a])[0]) for a in range(4)]
        inj.bump_attempts("launch", key, 2)
        assert inj._roll("launch", key) == expected[2]
        assert inj._roll("launch", key) == expected[3]


class TestDriftModelParity:
    def test_regime_quirks_many_matches_scalar(self):
        m = DriftModel(get_drift_profile("noisy-neighbor"))
        rng = np.random.default_rng(5)
        mat = rng.integers(0, 64, size=(80, 6)).astype(np.int64)
        cts = [tuple(int(v) for v in row) for row in mat]
        hashes = DriftModel.quirk_key_hashes("conv", mat)
        for regime in (0, 1, 2, 9):
            vec = m.regime_quirks_many(regime, hashes)
            scal = np.array([m.regime_quirk(regime, "conv", ct) for ct in cts])
            assert (vec == scal).all()

    def test_regime_zero_and_zero_sigma_are_unity(self):
        m = DriftModel(get_drift_profile("noisy-neighbor:contention_sigma=0"))
        hashes = DriftModel.quirk_key_hashes("conv", np.array([[1, 2, 3, 4, 0, 1]]))
        assert (m.regime_quirks_many(3, hashes) == 1.0).all()
        noisy = DriftModel(get_drift_profile("noisy-neighbor"))
        assert (noisy.regime_quirks_many(0, hashes) == 1.0).all()

    def test_regime_global_banded_and_deterministic(self):
        m = DriftModel(get_drift_profile("noisy-neighbor"))
        p = m.profile
        for regime in range(1, 50):
            g = m.regime_global(regime)
            assert p.contention_min <= g <= p.contention_max
            assert g == m.regime_global(regime)
        assert m.regime_global(0) == 1.0
