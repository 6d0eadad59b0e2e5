"""Property tests for the one prediction-sweep path.

The contract of ``src/repro/core/sweep.py``:

* the sweep and ``PerformanceModel.predict_indices_reference`` cut the
  same indices into the same ``SWEEP_CHUNK`` rows, so both run the same
  float32 GEMMs on the same rows and differ only in the order of their
  float64 epilogues — by at most the bound :func:`epilogue_bound`
  derives, with and without the log transform;
* the same rows in the same chunks give the same bits;
* top-M breaks prediction ties by smallest index, equals the exact
  selection over the reference path's predictions, and is nested in M;
* a custom model family, with no weights to fold, uses the reference
  path;
* empty and singleton candidate sets behave like the reference.
"""

import numpy as np
import pytest

from repro.core.model import PerformanceModel
from repro.core.sweep import (
    PredictionSweeper,
    _TopMAccumulator,
    select_top_m,
)
from repro.experiments.oracle import TrueTimeOracle
from repro.kernels import ConvolutionKernel
from repro.simulator import NVIDIA_K40


@pytest.fixture(scope="module")
def spec():
    return ConvolutionKernel()


@pytest.fixture(scope="module")
def fitted(spec):
    """One fitted model reused by every test (training is the slow part)."""
    oracle = TrueTimeOracle(spec, NVIDIA_K40)
    rng = np.random.default_rng(7)
    idx = spec.space.sample_indices(700, rng)
    t = oracle.measure(idx, rng)
    ok = ~np.isnan(t)
    model = PerformanceModel(spec.space, seed=7).fit(idx[ok], t[ok])
    return model


def make_sweeper(model):
    return PredictionSweeper(
        model.space, model.encoder, model._model,
        log_transform=model.log_transform,
    )


#: Unit roundoff of float64 (round to nearest).
EPS = 2.0**-53


def epilogue_bound(model, idx):
    """Largest ``|sweep - reference|`` the two float64 epilogues allow, in
    the units of the regression target (log-seconds, or seconds without
    the log transform).

    Both paths start from the same float32 member outputs ``p_j``
    (j = 1..k: same rows, same chunks, same GEMMs) and compute
    ``y = u + s * mean_j(p_j)`` with the y-scaler ``(u, s)``:

    * reference: ``t_j = fl(fl(s * p_j) + u)`` per member, then a
      sequential sum over j and a division by k;
    * sweep: a sequential sum of the ``p_j`` in float64, a division by
      k, then ``fl(fl(s * mean) + u)``.

    Let ``L`` bound every term: ``|u|``, ``|s * p_j|``, ``|t_j|`` and so
    ``|y|``; ``L = max|t_j| + |u|`` does.  Each rounding errs by at most
    ``EPS`` times the magnitude of its result, to first order (the
    neglected terms are of order ``k**2 * EPS**2 * L``, below 1e-28 for
    these models).  The i-th partial sum is at most ``i * L``, so a k-term
    sum errs by at most ``EPS * L * (2 + ... + k)``, which is below
    ``EPS * L * (k + 1) / 2`` after the division by k.  Each path
    adds three more roundings of at most ``L``: two per member term and
    the division (reference), or the division, product and sum (sweep).
    So each path is within ``EPS * L * ((k + 1) / 2 + 3)`` of the exact
    ``y``, and the two within ``(k + 7) * EPS * L`` of each other.
    """
    members = model._model._member_predictions(model.encoder.encode_indices(idx))
    u = abs(float(model._model._y_scaler.mean_[0]))
    return (model.k + 7) * EPS * (float(np.max(np.abs(members))) + u)


#: Rounding of the final ``exp`` in each path, relative: a generous 4 ulp
#: (8 EPS) per call.
EXP_ROUNDING = 2 * 8 * EPS


class TestSelectTopM:
    def test_plain_selection_sorted(self):
        v = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        i = np.arange(5)
        vals, idx = select_top_m(v, i, 3)
        np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(idx, [1, 3, 2])

    def test_ties_at_boundary_broken_by_smallest_index(self):
        v = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 2.0])
        i = np.array([9, 4, 2, 8, 1, 0])
        _, idx = select_top_m(v, i, 3)
        # Both zeros enter; of the three tied 1.0s the smallest index (1)
        # fills the last slot.
        np.testing.assert_array_equal(idx, [2, 9, 1])

    def test_result_independent_of_input_order(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 5, 200).astype(np.float64)  # many ties
        i = rng.permutation(200).astype(np.int64)
        base = select_top_m(v, i, 17)
        for _ in range(5):
            p = rng.permutation(200)
            got = select_top_m(v[p], i[p], 17)
            np.testing.assert_array_equal(got[0], base[0])
            np.testing.assert_array_equal(got[1], base[1])

    def test_split_merge_equals_global(self):
        """Selecting per part then re-selecting over the survivors equals
        one global selection — the streaming/sharding correctness core."""
        rng = np.random.default_rng(1)
        v = rng.integers(0, 7, 500).astype(np.float64)
        i = rng.permutation(500).astype(np.int64)
        m = 23
        base = select_top_m(v, i, m)
        for parts in (2, 3, 7):
            vs, iss = [], []
            for vp, ip in zip(np.array_split(v, parts), np.array_split(i, parts)):
                a, b = select_top_m(vp, ip, m)
                vs.append(a)
                iss.append(b)
            got = select_top_m(np.concatenate(vs), np.concatenate(iss), m)
            np.testing.assert_array_equal(got[0], base[0])
            np.testing.assert_array_equal(got[1], base[1])

    def test_m_zero_and_m_beyond_n(self):
        v = np.array([2.0, 1.0])
        i = np.array([5, 3])
        vals, idx = select_top_m(v, i, 0)
        assert vals.shape == (0,) and idx.shape == (0,)
        vals, idx = select_top_m(v, i, 10)
        np.testing.assert_array_equal(vals, [1.0, 2.0])
        np.testing.assert_array_equal(idx, [3, 5])

    def test_accumulator_matches_one_shot(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(10_000)
        i = np.arange(10_000, dtype=np.int64)
        acc = _TopMAccumulator(m=50, chunk=512)
        for s in range(0, 10_000, 512):
            acc.absorb(v[s : s + 512], i[s : s + 512])
        vals, idx = acc.result()
        base_vals, base_idx = select_top_m(v, i, 50)
        np.testing.assert_array_equal(vals, base_vals)
        np.testing.assert_array_equal(idx, base_idx)


class TestFloat64Parity:
    """The sweep against the reference path: the same float32 forward
    pass, two float64 epilogues."""

    def test_parity_on_random_subset(self, fitted):
        """In log space the epilogues differ by at most
        :func:`epilogue_bound`; ``exp`` turns that absolute difference
        into the same relative one (``exp(y + d) / exp(y) - 1 ~ d``), plus
        each path's own ``exp`` rounding."""
        rng = np.random.default_rng(3)
        idx = rng.choice(fitted.space.size, 50_001, replace=False).astype(np.int64)
        ref = fitted.predict_indices_reference(idx)
        got = make_sweeper(fitted).predict(idx)
        rel = np.max(np.abs(got - ref) / np.abs(ref))
        bound = epilogue_bound(fitted, idx) + EXP_ROUNDING
        assert bound <= 1e-9
        assert rel <= bound

    def test_parity_without_log_transform(self, spec):
        oracle = TrueTimeOracle(spec, NVIDIA_K40)
        rng = np.random.default_rng(11)
        idx = spec.space.sample_indices(400, rng)
        t = oracle.measure(idx, rng)
        ok = ~np.isnan(t)
        model = PerformanceModel(spec.space, seed=11, log_transform=False).fit(
            idx[ok], t[ok]
        )
        probe = np.arange(0, spec.space.size, 17, dtype=np.int64)
        ref = model.predict_indices_reference(probe)
        got = make_sweeper(model).predict(probe)
        # Seconds, no exp: the epilogue bound applies as it stands.
        assert np.max(np.abs(got - ref)) <= epilogue_bound(model, probe)

    def test_parity_across_chunk_sizes(self, fitted):
        """The 11,916-row probe swept whole (chunks of 2^14 and 2^16) and
        in 256- and 1,024-row chunks agrees bit for bit on the builds
        measured so far (OpenBLAS 0.3.31, SkylakeX kernels): each row's
        float32 GEMM rounds the same whatever the row count.  That is a
        property of the BLAS build, not of the contract, which fixes the
        bits only for a fixed tiling."""
        s = make_sweeper(fitted)
        idx = np.arange(0, fitted.space.size, 11, dtype=np.int64)
        base = s._predict(idx, chunk=1 << 14)
        for chunk in (256, 1 << 10, 1 << 16):
            np.testing.assert_array_equal(s._predict(idx, chunk=chunk), base)

    def test_range_work_equals_array_work(self, fitted):
        s = make_sweeper(fitted)
        lo = fitted.space.size - 40_000
        all_pred = s.predict(None)
        np.testing.assert_array_equal(
            all_pred[lo:],
            s.predict(np.arange(lo, fitted.space.size, dtype=np.int64)),
        )


class TestTopM:
    def test_streaming_equals_reference_selection(self, fitted):
        idx = np.arange(fitted.space.size, dtype=np.int64)
        ref = fitted.predict_indices_reference(idx)
        _, want = select_top_m(ref, idx, 300)
        got = make_sweeper(fitted).top_m(300)
        np.testing.assert_array_equal(got, want)

    def test_nested_prefix_property(self, fitted):
        """top_m(M) is a prefix of top_m(M') for M < M' — what the tuner's
        escalation and the fig11 shared-model grid rely on."""
        s = make_sweeper(fitted)
        big = s.top_m(400)
        for m in (1, 50, 399):
            np.testing.assert_array_equal(s.top_m(m), big[:m])

    def test_deterministic_under_ties(self):
        """An artificially tied model: every prediction equal, so top-M
        must be the M smallest *indices*, on both engines."""
        v = np.full(1000, 2.5)
        i = np.arange(1000, dtype=np.int64)
        _, idx = select_top_m(v, i, 10)
        np.testing.assert_array_equal(idx, np.arange(10))
        acc = _TopMAccumulator(m=10, chunk=64)
        for s in range(0, 1000, 64):
            acc.absorb(v[s : s + 64], i[s : s + 64])
        _, idx = acc.result()
        np.testing.assert_array_equal(idx, np.arange(10))

    def test_m_larger_than_pool(self, fitted):
        pool = np.array([5, 3, 1000], dtype=np.int64)
        got = make_sweeper(fitted).top_m(50, pool)
        assert sorted(got.tolist()) == [3, 5, 1000]


class TestEdgeCases:
    def test_empty_candidate_set(self, fitted):
        s = make_sweeper(fitted)
        assert s.predict(np.array([], dtype=np.int64)).shape == (0,)
        assert s.top_m(10, np.array([], dtype=np.int64)).shape == (0,)

    def test_singleton_candidate_set(self, fitted):
        s = make_sweeper(fitted)
        one = s.predict(np.array([1234], dtype=np.int64))
        assert one.shape == (1,) and one[0] > 0
        np.testing.assert_array_equal(
            s.top_m(5, np.array([1234], dtype=np.int64)), [1234]
        )

    def test_out_of_range_rejected(self, fitted):
        s = make_sweeper(fitted)
        with pytest.raises(IndexError):
            s.predict(np.array([fitted.space.size], dtype=np.int64))
        with pytest.raises(IndexError):
            s.predict(np.array([-1], dtype=np.int64))

    def test_non_1d_rejected(self, fitted):
        with pytest.raises(ValueError):
            make_sweeper(fitted).predict(np.zeros((2, 2), dtype=np.int64))

    def test_custom_model_family_falls_back(self, spec):
        """A non-ensemble model has no weights to fold: the model must
        quietly use the reference path, not crash."""
        from repro.ml import RidgeRegression

        oracle = TrueTimeOracle(spec, NVIDIA_K40)
        rng = np.random.default_rng(5)
        idx = spec.space.sample_indices(200, rng)
        t = oracle.measure(idx, rng)
        ok = ~np.isnan(t)
        model = PerformanceModel(
            spec.space, k=3, seed=5, base_factory=lambda: RidgeRegression()
        ).fit(idx[ok], t[ok])
        assert model._get_sweeper() is None
        assert model.top_m(5).shape == (5,)
