"""The buffered training epoch is the allocating loop, bit for bit.

:class:`~repro.ml.ensemble.EnsembleMLPRegressor` trains through flat
parameter, gradient and Adam-moment buffers and sample-major work
buffers built once per active member set.  It runs the ufuncs, GEMMs and
reductions of the allocating loop kept in ``tests/ensemble_reference.py``
in the same order, so every case here must match that loop exactly: the
weights, the loss curve, the per-member epochs, the frozen count and the
stop reason.  Both sides call the same GEMMs with the same shapes, so the
contract holds on any BLAS and any BLAS thread count.

The out-of-fold loss a traced fit records is checked here too: tracing
must not move a bit of the fit, and the held-out MSE must equal a
recomputation from the reference loop's own forward pass.
"""

import numpy as np
import pytest

from repro.core.encoding import ConfigEncoder
from repro.core.measure import Measurer
from repro.kernels import get_benchmark
from repro.ml.activations import ACTIVATIONS
from repro.ml.ensemble import EnsembleMLPRegressor
from repro.obs import Tracer
from repro.runtime import Context
from repro.simulator import get_device
from tests.ensemble_reference import EnsembleReference

pytestmark = pytest.mark.ml


def make_data(n=150, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, d))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, -1] + 0.05 * rng.standard_normal(n)
    return X, y


def fit_pair(X, y, **kw):
    return (
        EnsembleReference(**kw).fit(X, y),
        EnsembleMLPRegressor(**kw).fit(X, y),
    )


def assert_same_fit(ref, model):
    for p_r, p_m in zip(ref._params, model._params):
        assert p_m.dtype == p_r.dtype and p_m.shape == p_r.shape
        np.testing.assert_array_equal(p_m, p_r)
    assert model.loss_curve_ == ref.loss_curve_
    np.testing.assert_array_equal(model.member_epochs_, ref.member_epochs_)
    assert model.n_frozen_ == ref.n_frozen_
    assert model.stop_reason_ == ref.stop_reason_


class TestBufferedEpochParity:
    def test_default_adaptive_freezes_and_compacts(self):
        X, y = make_data(n=200, seed=1)
        ref, model = fit_pair(X, y, k=7, epochs=1500, seed=1)
        assert_same_fit(ref, model)
        # Members froze at different epochs while others trained on, so
        # the active set was compacted mid-fit.
        assert 0 < ref.n_frozen_ < 7
        assert len(set(ref.member_epochs_.tolist())) > 1

    @pytest.mark.parametrize(
        "stop_reason, seed, kw",
        [
            ("all_frozen", 2, dict(freeze_patience=15, freeze_tol=3e-3)),
            (
                "early_stop",
                2,
                dict(patience=40, tol=1e-3, freeze_patience=20, freeze_tol=1e-2),
            ),
            ("max_epochs", 5, dict(epochs=150)),
        ],
    )
    def test_each_stop_reason(self, stop_reason, seed, kw):
        X, y = make_data(seed=seed)
        ref, model = fit_pair(X, y, k=5, seed=seed, **kw)
        assert ref.stop_reason_ == stop_reason
        assert_same_fit(ref, model)

    def test_warm_start_refit(self):
        X, y = make_data(seed=7)
        ref = EnsembleReference(k=5, epochs=300, seed=7).fit(X, y)
        model = EnsembleMLPRegressor(k=5, epochs=300, seed=7).fit(X, y)
        assert_same_fit(ref, model)
        ref.fit(X + 0.05, y, warm_start=True)
        model.fit(X + 0.05, y, warm_start=True)
        assert ref.warm_started_ and model.warm_started_
        assert_same_fit(ref, model)

    def test_single_member_without_l2(self):
        X, y = make_data(seed=8)
        ref, model = fit_pair(X, y, k=1, epochs=200, l2=0.0, seed=8)
        assert_same_fit(ref, model)

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_every_activation(self, activation):
        X, y = make_data(seed=9)
        ref, model = fit_pair(
            X, y, k=5, epochs=250, activation=activation, seed=9
        )
        assert_same_fit(ref, model)

    @pytest.mark.slow
    @pytest.mark.parametrize("device", ["intel", "nvidia", "amd"])
    def test_tune_fig11_fit_inputs(self, device):
        """The fit a fig. 11 anchor tune runs: convolution stage-one
        samples at N = 500, log times, k = 11, the default preset."""
        spec = get_benchmark("convolution")
        measurer = Measurer(Context(get_device(device), seed=1), spec)
        ms = measurer.sample_and_measure(500, np.random.default_rng(1))
        X = ConfigEncoder(spec.space).encode_indices(ms.indices)
        ref, model = fit_pair(X, np.log(ms.times_s), k=11, seed=1)
        assert_same_fit(ref, model)


class ForwardRecorder(EnsembleReference):
    """The reference loop, keeping each epoch's member rows and errors."""

    def _train(self, Xs, ys, weights):
        self.forwards = []
        return super()._train(Xs, ys, weights)

    def _backward(self, Xs, ys, weights, W1, b1, W2, b2):
        A1 = self.activation.value(np.matmul(Xs, W1) + b1[:, None, :])
        pred = np.matmul(A1, W2[:, :, None])[:, :, 0] + b2[:, None]
        self.forwards.append((weights, pred - ys[None, :]))
        return super()._backward(Xs, ys, weights, W1, b1, W2, b2)


def recomputed_oof_curve(forwards, k):
    """Per epoch: each active member's MSE over the rows its fold leaves
    out, averaged over all k members (frozen ones at their last value)."""
    full = forwards[0][0]  # every member trains in the first epoch
    held = full == 0
    held_out_weights = (held / held.sum(axis=1, keepdims=True)).astype(np.float32)
    all_oof = np.zeros(k, dtype=np.float32)
    curve = []
    for weights, err in forwards:
        members = [int(np.flatnonzero((full == row).all(axis=1))[0]) for row in weights]
        all_oof[members] = np.sum(held_out_weights[members] * err * err, axis=1)
        curve.append(float(np.mean(all_oof)))
    return curve


class TestOutOfFoldLoss:
    def traced_fit(self, X, y, **kw):
        model = EnsembleMLPRegressor(**kw)
        model.tracer = tracer = Tracer()
        model.fit(X, y)
        tracer.close()
        (span,) = [
            r for r in tracer.records
            if r.get("type") == "span" and r["name"] == "ensemble.fit"
        ]
        (event,) = [
            r for r in tracer.records
            if r.get("type") == "event" and r["name"] == "ensemble.loss_curve"
        ]
        return model, span["attrs"], event["attrs"]

    def test_tracing_moves_no_bit_and_matches_reference_forward(self):
        X, y = make_data(n=200, seed=1)
        kw = dict(k=7, epochs=1500, seed=1)
        traced, span, event = self.traced_fit(X, y, **kw)
        plain = EnsembleMLPRegressor(**kw).fit(X, y)
        assert_same_fit(plain, traced)
        assert traced.n_frozen_ > 0  # frozen members keep their last value

        recorder = ForwardRecorder(**kw).fit(X, y)
        assert_same_fit(recorder, traced)
        want = recomputed_oof_curve(recorder.forwards, kw["k"])
        assert len(want) == len(traced.loss_curve_)
        assert event["oof_losses"] == [
            round(want[i], 8) for i in event["loss_epochs"]
        ]
        assert span["final_oof_loss"] == want[-1]
        # Held-out rows are not fitted: past the first epochs they sit
        # above the training loss.
        assert want[-1] > traced.loss_curve_[-1]

    def test_single_member_has_no_held_out_fold(self):
        X, y = make_data(seed=8)
        _, span, event = self.traced_fit(X, y, k=1, epochs=50, seed=8)
        assert "oof_losses" not in event
        assert "final_oof_loss" not in span
        assert len(event["losses"]) == len(event["loss_epochs"])
