"""Adaptive training engine: freeze-never bit-identity, warm starts,
the shared Adam stepper, and loss-curve trace downsampling.

The contract pinned here is the one ``benchmarks/test_perf_fit.py``
builds on: the ensemble's one training loop with freezing disabled —
``fit_mode="classic"``, or ``fit_mode="adaptive"`` with
``freeze_patience=math.inf`` — is *bit-identical* to the original
global-stop loop kept below as the reference (same weights, same loss
curve, same RNG consumption), so member-wise freezing is purely an
opt-out approximation layered on a semantics-preserving engine.
"""

import math

import numpy as np
import pytest

from repro.ml.bagging import BaggedRegressor
from repro.ml.ensemble import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    LOSS_CURVE_TRACE_POINTS,
    EnsembleMLPRegressor,
    _curve_trace_indices,
)
from repro.ml.mlp import MLPRegressor
from repro.ml.optimizers import Adam, adam_step
from tests.ensemble_reference import EnsembleReference

pytestmark = pytest.mark.ml


class ClassicReference(EnsembleReference):
    """The original global-stop trainer: all k members train until the
    *mean* loss plateaus.  Same preprocessing, fold weights and init as
    the production ensemble (inherited ``fit``); only the loop differs.
    Its forward/backward pass is the allocating reference's
    ``_backward``, kept verbatim in ``tests/ensemble_reference.py``."""

    def _train(self, Xs, ys, weights):
        ms = [np.zeros_like(p) for p in self._params]
        vs = [np.zeros_like(p) for p in self._params]
        best = np.inf
        stale = 0
        for step in range(1, self.epochs + 1):
            W1, b1, W2, b2 = self._params
            member_loss, grads = self._backward(Xs, ys, weights, W1, b1, W2, b2)
            # Weighted MSE per member, averaged over members.
            loss = float(np.mean(member_loss))
            self.loss_curve_.append(loss)

            adam_step(
                self._params, grads, ms, vs, step,
                self.lr, _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS,
            )

            if loss < best * (1.0 - self.tol):
                best = loss
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    break
        stop_reason = "early_stop" if stale >= self.patience else "max_epochs"
        self.member_epochs_ = np.full(
            self.k, len(self.loss_curve_), dtype=np.int64
        )
        self.n_frozen_ = 0
        return stop_reason, best


def make_data(n=120, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, d))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, -1] + 0.05 * rng.standard_normal(n)
    return X, y


def slow_data(n=300, d=6, seed=3):
    """Learnable but slow to converge: a cold fit runs to the epoch cap
    while a warm refit on the same data hits the global stop almost
    immediately — the regime where warm-restart ratios are meaningful."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, d))
    y = (
        np.sin(2 * X[:, 0])
        + X[:, 1] * X[:, 2]
        + 0.5 * np.abs(X[:, 3])
        + 0.02 * rng.standard_normal(n)
    )
    return X, y


class TestFreezeNeverBitIdentity:
    """20-seed property: the training loop with freezing disabled — the
    classic preset, or adaptive with ``freeze_patience=inf`` — is the
    reference global-stop loop, bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_bit_identical_to_classic(self, seed):
        X, y = make_data(n=90, d=4, seed=seed)
        reference = ClassicReference(
            k=5, epochs=120, seed=seed, fit_mode="classic"
        ).fit(X, y)
        # The preset overrides any freeze threshold: even an aggressive
        # one never freezes a member.
        classic = EnsembleMLPRegressor(
            k=5, epochs=120, seed=seed, fit_mode="classic",
            freeze_patience=1, freeze_tol=10.0,
        ).fit(X, y)
        adaptive = EnsembleMLPRegressor(
            k=5,
            epochs=120,
            seed=seed,
            fit_mode="adaptive",
            freeze_patience=math.inf,
        ).fit(X, y)

        for model in (classic, adaptive):
            # Same weights (hence the same RNG stream was consumed in the
            # same order: fold permutation, W1 init, W2 init).
            for p_r, p_m in zip(reference._params, model._params):
                np.testing.assert_array_equal(p_r, p_m)
            # Same loss trajectory, stop decision and per-member work.
            np.testing.assert_array_equal(
                np.asarray(reference.loss_curve_), np.asarray(model.loss_curve_)
            )
            assert model.stop_reason_ == reference.stop_reason_
            np.testing.assert_array_equal(
                model.member_epochs_, reference.member_epochs_
            )
            assert model.n_frozen_ == 0
            # Same predictions, bit for bit.
            np.testing.assert_array_equal(
                model.predict(X), reference.predict(X)
            )
        assert reference.stop_reason_ in ("early_stop", "max_epochs")

    def test_default_adaptive_freezes_and_saves_work(self):
        X, y = make_data(n=200, d=4, seed=1)
        m = EnsembleMLPRegressor(k=7, epochs=1500, seed=1).fit(X, y)
        epochs_run = len(m.loss_curve_)
        assert m.member_epochs_.shape == (7,)
        assert np.all(m.member_epochs_ >= 1)
        assert np.all(m.member_epochs_ <= epochs_run)
        if m.n_frozen_ > 0:
            # Frozen members stopped strictly before the run ended.
            assert int(m.member_epochs_.sum()) < 7 * epochs_run

    def test_all_frozen_stop_reason(self):
        # Aggressive thresholds: every member freezes almost at once.
        X, y = make_data(n=80, d=3, seed=2)
        m = EnsembleMLPRegressor(
            k=4, epochs=2000, seed=2, freeze_patience=1, freeze_tol=10.0
        ).fit(X, y)
        assert m.stop_reason_ == "all_frozen"
        assert m.n_frozen_ == 4
        assert len(m.loss_curve_) < 2000


class TestWarmStart:
    def test_warm_refit_identical_data_few_epochs(self):
        X, y = slow_data()
        m = EnsembleMLPRegressor(
            k=5, epochs=1500, patience=40, seed=3, freeze_patience=math.inf
        )
        m.fit(X, y)
        cold_epochs = len(m.loss_curve_)
        assert cold_epochs >= 500  # slow convergence: no early global stop
        m.fit(X, y, warm_start=True)
        assert m.warm_started_
        warm_epochs = len(m.loss_curve_)
        # Already converged: the refit only has to ride out the patience
        # window.
        assert warm_epochs < 0.10 * cold_epochs

    def test_feature_width_change_falls_back_cold(self):
        X4, y = make_data(n=90, d=4, seed=5)
        X6, _ = make_data(n=90, d=6, seed=5)
        m = EnsembleMLPRegressor(k=3, epochs=60, seed=5).fit(X4, y)
        with pytest.warns(RuntimeWarning, match="falling back to cold init"):
            m.fit(X6, y, warm_start=True)
        assert not m.warm_started_
        # The fallback is a cold fit: bit-identical to a fresh model.
        fresh = EnsembleMLPRegressor(k=3, epochs=60, seed=5).fit(X6, y)
        for p_m, p_f in zip(m._params, fresh._params):
            np.testing.assert_array_equal(p_m, p_f)

    def test_scaler_stats_refreshed_on_warm_refit(self):
        X, y = make_data(n=90, d=4, seed=6)
        m = EnsembleMLPRegressor(k=3, epochs=60, seed=6).fit(X, y)
        X2 = X * 3.0 + 5.0
        m.fit(X2, y, warm_start=True)
        assert m.warm_started_
        np.testing.assert_allclose(m._x_scaler.mean_, X2.mean(axis=0))
        np.testing.assert_allclose(
            m._x_scaler.scale_, np.maximum(X2.std(axis=0), 1e-12)
        )

    def test_warm_start_without_prior_fit_is_cold(self):
        X, y = make_data(n=60, d=3, seed=7)
        m = EnsembleMLPRegressor(k=3, epochs=50, seed=7)
        m.fit(X, y, warm_start=True)  # nothing to reuse; no warning
        assert not m.warm_started_

    def test_performance_model_reuses_ensemble_object(self):
        from repro.core.model import PerformanceModel
        from repro.kernels import ConvolutionKernel

        space = ConvolutionKernel().space
        rng = np.random.default_rng(0)
        idx = rng.integers(0, space.size, 60)
        times = np.exp(rng.standard_normal(60))
        pm = PerformanceModel(space, k=3, seed=0)
        pm.fit(idx, times)
        inner = pm._model
        pm.fit(idx, times, warm_start=True)
        assert pm._model is inner  # refit in place
        assert inner.warm_started_
        pm.fit(idx, times)  # cold: a fresh ensemble
        assert pm._model is not inner


class TestSharedAdamStepper:
    def test_adam_class_delegates_to_adam_step(self):
        rng = np.random.default_rng(0)
        params_a = [rng.standard_normal((3, 4)), rng.standard_normal(4)]
        params_b = [p.copy() for p in params_a]
        grads = [rng.standard_normal((3, 4)), rng.standard_normal(4)]

        opt = Adam(lr=0.05)
        ms = [np.zeros_like(p) for p in params_b]
        vs = [np.zeros_like(p) for p in params_b]
        for t in (1, 2, 3):
            opt.step(params_a, grads)
            adam_step(params_b, grads, ms, vs, t, 0.05)
        for a, b in zip(params_a, params_b):
            np.testing.assert_array_equal(a, b)

    def test_adam_step_matches_reference_formula(self):
        p = np.array([1.0, -2.0, 0.5])
        g = np.array([0.1, -0.3, 0.2])
        m = np.zeros(3)
        v = np.zeros(3)
        adam_step([p], [g], [m], [v], t=1, lr=0.01)
        m_ref = 0.1 * g
        v_ref = 0.001 * g * g
        p_ref = np.array([1.0, -2.0, 0.5]) - 0.01 * (m_ref / 0.1) / (
            np.sqrt(v_ref / 0.001) + 1e-8
        )
        np.testing.assert_allclose(p, p_ref, rtol=1e-12)


class TestCurveTraceDownsampling:
    def test_short_curve_untouched(self):
        idx = _curve_trace_indices([1.0, 0.5, 0.2])
        np.testing.assert_array_equal(idx, [0, 1, 2])

    def test_long_curve_capped_and_anchored(self):
        rng = np.random.default_rng(0)
        curve = list(rng.uniform(0.1, 1.0, 5000))
        best = 2718
        curve[best] = 0.01
        idx = _curve_trace_indices(curve)
        assert idx.size <= LOSS_CURVE_TRACE_POINTS
        assert idx[0] == 0
        assert idx[-1] == len(curve) - 1
        assert best in idx  # the best epoch always survives
        assert np.all(np.diff(idx) > 0)  # sorted, unique

    def test_exactly_cap_length(self):
        idx = _curve_trace_indices(list(range(LOSS_CURVE_TRACE_POINTS)))
        assert idx.size == LOSS_CURVE_TRACE_POINTS


class TestPredictMeanStd:
    def test_ensemble_single_pass_matches_two(self):
        X, y = make_data(n=100, d=4, seed=8)
        m = EnsembleMLPRegressor(k=5, epochs=150, seed=8).fit(X, y)
        mean, std = m.predict_mean_std(X[:30])
        np.testing.assert_array_equal(mean, m.predict(X[:30]))
        np.testing.assert_array_equal(std, m.predict_std(X[:30]))

    def test_bagged_single_pass_matches_two(self):
        X, y = make_data(n=100, d=4, seed=9)
        c = [0]

        def factory():
            c[0] += 1
            return MLPRegressor(seed=c[0], epochs=100)

        m = BaggedRegressor(factory, k=3, seed=9).fit(X, y)
        mean, std = m.predict_mean_std(X[:30])
        np.testing.assert_array_equal(mean, m.predict(X[:30]))
        np.testing.assert_array_equal(std, m.predict_std(X[:30]))


class TestOnlineChainQuality:
    """The online tuner pins its model chain to reference quality."""

    def test_default_online_chain_disables_freezing(self):
        from repro.core.online import OnlineTuner
        from repro.kernels import get_benchmark
        from repro.runtime import Context
        from repro.simulator import NVIDIA_K40

        online = OnlineTuner(Context(NVIDIA_K40, seed=0), get_benchmark("convolution"))
        assert online.tune_settings.fit_mode == "adaptive"
        assert online.tune_settings.freeze_patience == math.inf

    def test_explicit_freeze_thresholds_respected(self):
        from repro.core.online import OnlineTuner
        from repro.core.tuner import TunerSettings
        from repro.kernels import get_benchmark
        from repro.runtime import Context
        from repro.simulator import NVIDIA_K40

        online = OnlineTuner(
            Context(NVIDIA_K40, seed=0),
            get_benchmark("convolution"),
            tune_settings=TunerSettings(freeze_patience=15.0, freeze_tol=1e-3),
        )
        assert online.tune_settings.freeze_patience == 15.0
        assert online.tune_settings.freeze_tol == 1e-3


class TestValidation:
    def test_bad_fit_mode(self):
        with pytest.raises(ValueError, match="fit_mode"):
            EnsembleMLPRegressor(fit_mode="turbo")

    def test_bad_freeze_patience(self):
        with pytest.raises(ValueError, match="freeze_patience"):
            EnsembleMLPRegressor(freeze_patience=0)

    def test_bad_freeze_tol(self):
        with pytest.raises(ValueError, match="freeze_tol"):
            EnsembleMLPRegressor(freeze_tol=-1.0)

    def test_tuner_settings_fit_mode(self):
        from repro.core.tuner import TunerSettings

        with pytest.raises(ValueError, match="fit_mode"):
            TunerSettings(fit_mode="turbo")
