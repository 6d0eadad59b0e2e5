"""Property tests for the one prediction-sweep path.

The contract of ``src/repro/core/sweep.py``:

* a prediction is a pure function of (model, index): the same bits
  whether the configuration is predicted alone, in a pair or anywhere in
  a chunk, through the range or the gather form, on one thread or
  several (a hypothesis property over k = 1, 3 and 11 members);
* the sweep and ``PerformanceModel.predict_indices_reference`` share the
  digit tables and the hidden layer and differ only in the order of
  their float64 epilogues — by at most the bound :func:`epilogue_bound`
  derives, with and without the log transform;
* against the ensemble's own float32 GEMM forward pass
  (``EnsembleMLPRegressor.predict`` on encoded features) the tables
  differ by float32 rounding, within the bound :func:`gemm_bound`
  derives per index from the weights; at both fig. 11 anchors the tuned
  model's top-M equals the exact selection over that forward pass;
* top-M breaks prediction ties by smallest index, equals the exact
  selection over the reference path's predictions, and is nested in M;
* a cached model keeps its tables but drops its per-thread scratch;
* a custom model family, with no weights to fold, uses the reference
  path;
* empty and singleton candidate sets behave like the reference.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sweep
from repro.core.model import PerformanceModel
from repro.core.sweep import (
    PredictionSweeper,
    _TopMAccumulator,
    select_top_m,
)
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.experiments.oracle import TrueTimeOracle
from repro.kernels import ConvolutionKernel
from repro.runtime import Context
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


@pytest.fixture(scope="module")
def models(spec, fitted):
    """Fitted models with k = 1, 3 and 11 members."""
    oracle = TrueTimeOracle(spec, NVIDIA_K40)
    out = {11: fitted}
    for k in (1, 3):
        rng = np.random.default_rng(20 + k)
        idx = spec.space.sample_indices(300, rng)
        t = oracle.measure(idx, rng)
        ok = ~np.isnan(t)
        out[k] = PerformanceModel(spec.space, k=k, seed=20 + k).fit(idx[ok], t[ok])
    return out


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
    (j = 1..k: the same digit tables and hidden layer) and compute
    ``y = u + s * mean_j(p_j)`` with the y-scaler ``(u, s)``:

    * reference: ``t_j = fl(fl(s * p_j) + u)`` per member, then a
      sequential sum over j and a division by k;
    * sweep: a sequential sum of the ``p_j`` in float64, a division by
      k, then ``fl(fl(s * mean) + u)``.

    Let ``L`` bound every term: ``|u|``, ``|s * p_j|``, ``|t_j|`` and so
    ``|y|``; ``L = max|t_j| + |u|`` does (``t_j`` read off the GEMM
    forward pass, within float32 rounding of the tables' own).  Each
    rounding errs by at most ``EPS`` times the magnitude of its result,
    to first order (the neglected terms are of order
    ``k**2 * EPS**2 * L``, below 1e-28 for these models).  The i-th
    partial sum is at most ``i * L``, so a k-term sum errs by at most
    ``EPS * L * (2 + ... + k)``, which is below
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

#: Unit roundoff of float32 (round to nearest).
U32 = 2.0**-24

#: Relative error assumed of one float32 ``np.exp``: 8 float32 unit
#: roundoffs (4.8e-7).  NumPy's AVX2/AVX512F float32 ``exp`` states a
#: largest error of 2.52 ulp, 2.13e-7 relative, measured over every
#: float32 input (the comment above ``simd_exp_f32`` in NumPy's
#: ``umath/loops_exponent_log.dispatch.c.src``); a C library's ``expf``,
#: NumPy's scalar fallback, is within 1 ulp.
EXP32 = 8 * U32

#: Relative error of one float32 sigmoid ``1 / (1 + exp(-clip(z)))``:
#: clip and negate are exact; ``exp`` errs by ``EXP32``, the add and the
#: reciprocal round once each, so ``fl(sigma) = sigma * (1 + theta)``
#: with ``|theta|`` at most this.
SIGMOID32 = (1 + U32) / ((1 - EXP32) * (1 - U32)) - 1


def gamma(n, u=U32):
    """Higham's ``gamma_n = n u / (1 - n u)``: the relative error bound
    of ``n`` roundings, e.g. of an n-term dot product in any order."""
    return n * u / (1 - n * u)


def gemm_forward(model, idx, chunk=1 << 14):
    """The ensemble's own forward pass, which ``predict_indices_reference``
    ran before the digit tables: encode, ``EnsembleMLPRegressor.predict``
    (two float32 GEMMs, the per-member epilogue), ``exp``; in chunks of
    2^14."""
    out = np.empty(idx.shape[0], dtype=np.float64)
    for s in range(0, idx.shape[0], chunk):
        y = model._model.predict(model.encoder.encode_indices(idx[s : s + chunk]))
        out[s : s + chunk] = np.exp(y) if model.log_transform else y
    return out


def gemm_bound(model, idx, tables=None):
    """Per index, the largest ``|sweep - GEMM| / GEMM`` the arithmetic
    allows, for a log-transform model (:func:`gemm_forward`) whose sweep
    has ``tables`` digit tables (default: as compiled now).

    Both sides see the same float32 features ``x`` (each scaled LUT
    value rounded once) and weights.  Let ``z = b1 + x·W1`` exactly and
    ``S = |b1| + Σ|x·W1|`` per (member, index, hidden unit).

    * **Pre-activations.**  The GEMM is a d-term float32 dot product plus
      ``b1``: ``d + 1`` roundings, within ``gamma(d + 1) * S`` in any
      summation order.  The sweep forms the products exactly in float64,
      sums them in float64 (within ``gamma_64(d + 1) * S``), rounds each
      of its ``G`` tables once to float32 and joins them with ``G - 1``
      float32 adds: within ``(2G - 1) * U32 * (1 + U32)**(2G) * S`` more.
      ``dz`` is the sum of both.
    * **Activations.**  ``sigmoid(clip(z))`` is 1/4-Lipschitz, so the
      exact activations of the two pre-activations differ by at most
      ``dz / 4``.  Each side's float32 sigmoid adds ``SIGMOID32`` times
      its value, and both values lie below ``a_up = sigmoid(z + dz)``.
    * **Hidden sum.**  ``p = b2 + Σ_h W2_h a_h`` takes ``H`` products and
      ``H`` adds on each side (a tree in the sweep, BLAS's order in the
      GEMM): within ``gamma(H + 1) * (|b2| + Σ|W2_h| a_h)`` each.
    * **Epilogue.**  The y-scaler multiplies member differences by its
      scale ``s`` and the member mean averages them; the two float64
      epilogues add :func:`epilogue_bound`; ``exp`` turns a log-time
      difference ``dy`` into ``expm1(dy)`` relative, plus each side's
      float64 ``exp`` rounding (``EXP_ROUNDING``).
    """
    ens = model._model
    W1, b1, W2, b2 = (np.asarray(p, dtype=np.float64) for p in ens._params)
    k, d, h = W1.shape
    X = ens._x_scaler.transform(model.encoder.encode_indices(idx))
    X = X.astype(np.float32).astype(np.float64)
    z = np.einsum("nd,kdh->knh", X, W1) + b1[:, None, :]
    S = np.einsum("nd,kdh->knh", np.abs(X), np.abs(W1)) + np.abs(b1)[:, None, :]
    if tables is None:
        tables = len(make_sweeper(model).tables)
    dz = S * (
        gamma(d + 1)
        + gamma(d + 1, EPS)
        + (2 * tables - 1) * U32 * (1 + U32) ** (2 * tables)
    )
    a_up = 1.0 / (1.0 + np.exp(-(z + dz)))
    w2 = np.abs(W2)[:, None, :]
    dp = np.sum(w2 * (dz / 4 + 2 * SIGMOID32 * a_up), axis=2) + 2 * gamma(h + 1) * (
        np.abs(b2)[:, None] + (1 + SIGMOID32) * np.sum(w2 * a_up, axis=2)
    )
    scale = float(np.ravel(ens._y_scaler.scale_)[0])
    dy = scale * dp.mean(axis=0) + epilogue_bound(model, idx)
    return np.expm1(dy) + EXP_ROUNDING


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
        in 256- and 1,024-row chunks agrees bit for bit.  This holds by
        construction on any BLAS build: a row's pre-activations are two
        table rows and one float32 add, and every later step is
        elementwise or a reduction whose order is fixed by the hidden
        width and member count, never by the row count."""
        s = make_sweeper(fitted)
        idx = np.arange(0, fitted.space.size, 11, dtype=np.int64)
        base = s._predict(idx, chunk=1 << 14)
        for chunk in (256, 1 << 10, 1 << 16):
            np.testing.assert_array_equal(s._predict(idx, chunk=chunk), base)

    def test_range_work_equals_array_work(self, fitted):
        """The whole-space sweep (the broadcast-add range form) and the
        same indices passed as an array (the gather form) agree bit for
        bit by construction: both add the same two float32 table
        entries."""
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


class TestPurity:
    """Each prediction is a pure function of (model, index)."""

    @pytest.mark.parametrize("k", [1, 3, 11])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_same_bits_alone_in_a_pair_in_a_chunk_on_any_threads(
        self, models, k, data
    ):
        """A configuration predicted alone, second in a pair, inside a
        gathered window cut into chunks of any size, and inside the
        whole-space range sweep gives the same bits, whatever the thread
        count (pinned through the CPU-count helper)."""
        model = models[k]
        size = model.space.size
        i = data.draw(st.integers(0, size - 1), label="index")
        partner = data.draw(st.integers(0, size - 1), label="partner")
        lo = data.draw(st.integers(max(0, i - 1500), i), label="window start")
        hi = data.draw(st.integers(i + 1, min(size, i + 1500)), label="window stop")
        chunk = data.draw(st.sampled_from([3, 256, 4096]), label="chunk")
        threads = data.draw(st.sampled_from([1, 2, 3]), label="threads")
        with mock.patch.object(sweep, "_cpu_count", lambda: threads):
            s = make_sweeper(model)
            alone = s.predict([i])[0]
            pair = s.predict([partner, i])[1]
            window = s._predict(np.arange(lo, hi, dtype=np.int64), chunk=chunk)
            whole = s.predict(None)
        got = np.array([pair, window[i - lo], whole[i]])
        np.testing.assert_array_equal(got, np.full(3, alone))

    def test_threads_lose_no_chunk_and_outlive_no_call(self, fitted):
        """More threads than cores, switching every microsecond: every
        chunk runs exactly once into its own slots, and no worker thread
        outlives its call, so a process pool may fork right after."""
        import sys
        import threading

        s = make_sweeper(fitted)
        with mock.patch.object(sweep, "_cpu_count", lambda: 1):
            want = (s.predict(None), s.top_m(500))
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(sweep, "_cpu_count", lambda: 8):
                got = (s.predict(None), s.top_m(500))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


class TestGemmForwardPass:
    """The digit tables against the ensemble's own float32 GEMMs."""

    @pytest.mark.parametrize("k", [1, 3, 11])
    def test_within_derived_bound(self, models, k):
        model = models[k]
        rng = np.random.default_rng(30 + k)
        idx = rng.choice(model.space.size, 20_000, replace=False).astype(np.int64)
        want = gemm_forward(model, idx)
        got = make_sweeper(model).predict(idx)
        bound = gemm_bound(model, idx)
        rel = np.abs(got - want) / want
        assert np.all(rel <= bound), float(np.max(rel / bound))
        # A float32-scale bound (~1e-4 here), not a vacuous one.
        assert float(np.max(bound)) <= 1e4 * U32

    @pytest.mark.slow
    @pytest.mark.parametrize("n_train,m", [(2000, 200), (500, 100)])
    def test_tuner_pick_unchanged_by_engine(self, n_train, m):
        """At the fig. 11 paper-anchor settings the tuned model's top-M,
        the stage-two candidates, equals the exact selection over the
        ensemble's GEMM forward pass on the whole space."""
        spec = ConvolutionKernel()
        ctx = Context(NVIDIA_K40, seed=13)
        tuner = MLAutoTuner(
            ctx, spec, TunerSettings(n_train=n_train, m_candidates=m)
        )
        tuner.tune(np.random.default_rng(13), model_seed=13)
        everything = np.arange(spec.space.size, dtype=np.int64)
        _, want = select_top_m(gemm_forward(tuner.model, everything), everything, m)
        np.testing.assert_array_equal(tuner.model.top_m(m), want)


def random_ensemble(space, k=3, seed=0):
    """A fitted-looking ensemble with random weights over ``space``."""
    from repro.ml.ensemble import EnsembleMLPRegressor

    rng = np.random.default_rng(seed)
    model = PerformanceModel(space, k=k)
    X = model.encoder.encode_indices(space.sample_indices(500, rng))
    ens = EnsembleMLPRegressor(k=k)
    ens._x_scaler.fit(X)
    ens._y_scaler.fit(rng.normal(-6.0, 1.5, size=(50, 1)))
    d, h = X.shape[1], ens.hidden
    ens._params = [
        (rng.standard_normal((k, d, h)) / np.sqrt(d)).astype(np.float32),
        rng.standard_normal((k, h)).astype(np.float32),
        (rng.standard_normal((k, h)) / np.sqrt(h)).astype(np.float32),
        rng.standard_normal(k).astype(np.float32),
    ]
    model._model = ens
    return model


class TestDigitTables:
    @pytest.mark.parametrize(
        "kernel, rows",
        [
            ("convolution", [64, 2048]),
            ("raycasting", [512, 1280]),
            ("stereo", [4096, 576]),
        ],
    )
    def test_paper_spaces_need_two_tables(self, kernel, rows):
        """Two tables per paper space, at most 6.2 MB for 11 x 30 weights:
        the most a cached model holds beyond its weights."""
        from repro.kernels import get_benchmark

        cards = [p.cardinality for p in get_benchmark(kernel).space.parameters]
        got = [int(np.prod(cards[a:b])) for a, b in sweep._digit_groups(cards)]
        assert got == rows
        assert sum(rows) * 11 * 30 * 4 <= 6.2e6

    @pytest.mark.parametrize("wide_last", [False, True])
    def test_any_space_compiles_and_keeps_the_contract(self, wide_last):
        """A parameter wider than the row cap (lowered to 64 here, so a
        100-value one-hot parameter exceeds it) gets a table of its own:
        three tables when it sits in the middle, two when it is the least
        significant digit.  Range and gather forms agree bit for bit, and
        the sweep stays within the derived bound of the GEMM forward
        pass."""
        from repro.params import ParameterSpace, boolean, choice, pow2

        params = [
            pow2("a", 1, 16),
            choice("wide", tuple(range(100))),
            boolean("c"),
            choice("d", (3, 5, 7)),
        ]
        if wide_last:
            params.append(params.pop(1))
        space = ParameterSpace(params)
        model = random_ensemble(space)
        with mock.patch.object(sweep, "TABLE_ROWS", 64):
            s = make_sweeper(model)
        assert [t.shape[2] for t in s.tables] == (
            [30, 100] if wide_last else [5, 100, 6]
        )
        whole = s.predict(None)
        probe = np.random.default_rng(1).choice(space.size, 2000, replace=False)
        np.testing.assert_array_equal(s.predict(probe), whole[probe])
        rel = np.abs(whole[probe] - gemm_forward(model, probe)) / whole[probe]
        assert np.all(rel <= gemm_bound(model, probe, tables=len(s.tables)))

    def test_space_within_one_table_puts_b1_on_top(self):
        """The example custom kernel's 784 configurations fit the low
        table; a one-row table above it holds ``b1``."""
        from repro.params import ParameterSpace, boolean, pow2

        space = ParameterSpace(
            [
                pow2("wg_x", 1, 64),
                pow2("wg_y", 1, 64),
                pow2("ept", 1, 8),
                boolean("use_local"),
                boolean("pad_tile"),
            ]
        )
        model = random_ensemble(space, k=1)
        s = make_sweeper(model)
        assert [t.shape[2] for t in s.tables] == [1, space.size]
        idx = np.arange(space.size, dtype=np.int64)
        got, want = s.predict(idx), gemm_forward(model, idx)
        np.testing.assert_array_equal(got, s.predict(None))
        assert np.all(np.abs(got - want) / want <= gemm_bound(model, idx))


class TestCachedModel:
    def test_detach_drops_scratch_keeps_tables_and_bits(self, spec, fitted):
        """A detached (cached) model keeps its compiled tables and drops
        its per-thread scratch; its predictions keep their bits."""
        model = PerformanceModel(spec.space, seed=7)
        model._model = fitted._model
        probe = np.arange(0, spec.space.size, 97, dtype=np.int64)
        before = model.predict_indices(probe)
        model.top_m(25)
        sweeper = model._sweeper
        tables = sweeper.tables
        assert sweeper._scratch
        model.detach_tracer()
        assert model._sweeper is sweeper and sweeper.tables is tables
        assert sweeper._scratch == []
        np.testing.assert_array_equal(model.predict_indices(probe), before)
