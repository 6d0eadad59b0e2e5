"""Vectorized bagged-MLP ensemble: all k members trained simultaneously.

Functionally equivalent to ``BaggedRegressor(MLPRegressor, k)`` — k
single-hidden-layer networks on leave-one-fold-out splits, mean prediction
— but an order of magnitude faster: member weights are stacked into
``(k, in, out)`` tensors and every forward/backward pass is one
broadcast ``matmul`` per contraction over all members (one BLAS call
per member), instead of k sequential Python-level fits.  Membership of a
sample in a member's training set becomes a per-member sample *weight*
in the loss (1/|fold kept| or 0), which preserves exact leave-one-fold-out
semantics.

One training loop runs on that tensor layout, with **member-wise
early stopping with active-set compaction**: each member's loss is
tracked separately, and a member whose own loss has plateaued for
``freeze_patience`` epochs is *frozen* — its weights are written back
and its rows are physically removed from the training state, so the
per-epoch cost shrinks as members finish instead of every member paying
until the slowest one converges.  A global criterion on the *mean* loss
stops the whole fit.  The state of the members still training
(:class:`_ActiveSet`) is a flat float32 buffer each for the parameters,
their gradients and both Adam moments — one ``adam_step`` call per
epoch — plus sample-major ``(n, a, h)`` activation, derivative and delta
buffers, allocated once per active set: an epoch writes into them and
allocates nothing of the sample count's size.  ``fit_mode`` picks a
preset of that loop:

* ``"adaptive"`` (the default) freezes members as they converge;
* ``"classic"`` never freezes (``freeze_patience`` is ``math.inf``), so
  all k members train until the mean loss plateaus — the original
  global-stop loop, reproduced bit for bit (same weights, loss curve and
  RNG draws; ``tests/test_ml_adaptive.py`` keeps that loop as its
  reference).  It is the baseline the adaptive preset is gated against
  (``benchmarks/test_perf_fit.py``).

Either preset is the allocating loop kept in ``tests/ensemble_reference.py``
bit for bit (``tests/test_ml_train_parity.py``): the buffers change
where results are written, not the ufuncs, GEMMs and reductions or
their order.  A traced fit also records each epoch's out-of-fold loss —
every member's MSE on the fold it leaves out — next to the training
loss in the ``ensemble.loss_curve`` event.

``fit(..., warm_start=True)`` additionally reuses the previous weights
(scaler statistics are refreshed from the new data, Adam state restarts)
so a refit on similar data converges in tens of epochs instead of
thousands — the drift-response path
(:meth:`repro.core.online.OnlineTuner._refit`) leans on this.

This is the trainer the experiment harness uses; the scalar
:class:`~repro.ml.mlp.MLPRegressor` remains the reference implementation
(and the ablations' single-network baseline).
"""

from __future__ import annotations

import math
import os
import tempfile
import time
import warnings
from typing import Optional

import numpy as np

from repro.ml.activations import get_activation
from repro.ml.optimizers import adam_step
from repro.ml.scaling import StandardScaler
from repro.obs import NULL_TRACER

#: Cap on the ``ensemble.loss_curve`` trace event: a 2000-epoch fit used
#: to serialize 2000 floats into every trace (and over the wire for
#: ``serve --trace`` / watch streams).  The event now carries at most
#: this many points — first, best and last epoch always included — plus
#: the full curve length as a field.
LOSS_CURVE_TRACE_POINTS = 64

#: Adam hyperparameters of the ensemble trainer (the historical inline
#: constants, now fed to the shared :func:`repro.ml.optimizers.adam_step`).
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def _curve_trace_indices(curve, cap: int = LOSS_CURVE_TRACE_POINTS) -> np.ndarray:
    """Epoch indices to keep when downsampling a loss curve for tracing.

    At most ``cap`` indices; epoch 0, the best (lowest-loss) epoch and
    the final epoch are always among them.
    """
    n = len(curve)
    if n <= cap:
        return np.arange(n, dtype=np.int64)
    spaced = np.linspace(0, n - 1, num=cap - 1).astype(np.int64)
    best = np.int64(np.argmin(curve))
    return np.unique(np.concatenate([spaced, [best]]))


class EnsembleMLPRegressor:
    """k single-hidden-layer MLPs, batch-trained, mean-aggregated.

    Parameters
    ----------
    k:
        Ensemble size (11 in the paper).
    hidden:
        Hidden width (single hidden layer; the paper uses 30).
    activation:
        Hidden activation name.
    lr / epochs / tol / patience / l2:
        Full-batch Adam hyperparameters, mirroring ``MLPRegressor``.
    seed:
        Controls fold assignment and all weight initialization.
    fit_mode:
        ``"adaptive"`` (default) freezes and compacts members as they
        converge individually; ``"classic"`` is the same loop with
        freezing off, where every member trains until the *mean* loss
        plateaus.
    freeze_patience:
        Adaptive mode only: epochs a member's own loss may go without a
        relative improvement of ``freeze_tol`` before it is frozen.
        ``None`` derives a quarter of ``patience``; ``math.inf``
        disables freezing entirely (what ``"classic"`` does).
    freeze_tol:
        Adaptive mode only: per-member relative-improvement threshold.
        ``None`` derives 100x ``tol``.
    """

    def __init__(
        self,
        k: int = 11,
        hidden: int = 30,
        activation: str = "sigmoid",
        lr: float = 0.02,
        epochs: int = 2000,
        tol: float = 1e-5,
        patience: int = 120,
        l2: float = 1e-5,
        seed: Optional[int] = None,
        fit_mode: str = "adaptive",
        freeze_patience: Optional[float] = None,
        freeze_tol: Optional[float] = None,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        if hidden < 1:
            raise ValueError("hidden must be >= 1")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if fit_mode not in ("adaptive", "classic"):
            raise ValueError(
                f"fit_mode must be 'adaptive' or 'classic', got {fit_mode!r}"
            )
        if freeze_patience is not None and not freeze_patience > 0:
            raise ValueError("freeze_patience must be positive (or None)")
        if freeze_tol is not None and freeze_tol < 0:
            raise ValueError("freeze_tol must be >= 0 (or None)")
        self.k = k
        self.hidden = hidden
        self.activation = get_activation(activation)
        self.lr = lr
        self.epochs = epochs
        self.tol = tol
        self.patience = patience
        self.l2 = l2
        self.seed = seed
        self.fit_mode = fit_mode
        self.freeze_patience = freeze_patience
        self.freeze_tol = freeze_tol
        self._params: list[np.ndarray] | None = None
        self._x_scaler = StandardScaler()
        self._y_scaler = StandardScaler()
        self.loss_curve_: list[float] = []
        #: Per-member epoch counts from the last fit: a frozen member
        #: stops accruing at its freeze epoch, so
        #: ``member_epochs_.sum()`` is the actual training work done
        #: (classic mode: every entry equals ``len(loss_curve_)``).
        self.member_epochs_: np.ndarray = np.zeros(0, dtype=np.int64)
        self.n_frozen_: int = 0
        self.stop_reason_: Optional[str] = None
        #: Per-epoch out-of-fold loss of the last fit, recorded only when
        #: it is traced (k > 1); None otherwise.
        self._oof_curve: Optional[list[float]] = None
        self.fit_wall_s_: float = 0.0
        self.warm_started_: bool = False
        #: Target-transform flag recovered from an archive's meta block by
        #: :meth:`load` (None when the archive predates it, or when the
        #: model was not loaded from disk).  The ensemble itself never
        #: transforms targets — the flag travels with the weights so
        #: PerformanceModel.load can validate the caller's assumption.
        self.saved_log_transform: Optional[bool] = None
        # Assigned by callers that trace (e.g. PerformanceModel); kept out
        # of the constructor so the hyperparameter signature stays pure.
        self.tracer = NULL_TRACER

    @property
    def n_features(self) -> int:
        """Input-feature dimensionality the fitted ensemble expects."""
        if self._params is None:
            raise RuntimeError("n_features before fit()/load()")
        return int(self._params[0].shape[1])

    # -- internals -----------------------------------------------------------

    def _forward(self, Xs: np.ndarray):
        """Batched forward: returns (hidden activations, predictions).

        ``Xs`` is (n, d); activations are (k, n, h), predictions (k, n).
        Broadcasted ``matmul`` (not einsum) so every contraction runs
        through BLAS.
        """
        W1, b1, W2, b2 = self._params
        A1 = self.activation.value(np.matmul(Xs, W1) + b1[:, None, :])
        pred = np.matmul(A1, W2[:, :, None])[:, :, 0] + b2[:, None]
        return A1, pred

    # -- public API -------------------------------------------------------------

    @property
    def _freeze_patience(self) -> float:
        """Effective member-freeze patience: ``math.inf`` (never freeze)
        for the classic preset.

        ``None`` derives a quarter of the global ``patience`` (floor
        10): the member criterion watches a single curve, not a k-way
        mean, so a shorter stale window reaches the same confidence —
        and members that merely *drip* below ``_freeze_tol`` still
        train on.  Tightening this much further measurably hurts
        downstream quality (tuner picks, cross-size extrapolation);
        ``benchmarks/test_perf_fit.py`` reports the divergence.
        """
        if self.fit_mode == "classic":
            return math.inf
        if self.freeze_patience is not None:
            return self.freeze_patience
        return float(max(10, self.patience // 4))

    @property
    def _freeze_tol(self) -> float:
        """Effective member-freeze improvement threshold.

        ``None`` derives 100x the global ``tol`` (0.1% relative for the
        default 1e-5): a member improving slower than that for a whole
        ``_freeze_patience`` window is refining digits the ensemble
        mean averages away, while the ensemble-level criterion keeps
        guarding the mean at full resolution.
        """
        return 100.0 * self.tol if self.freeze_tol is None else self.freeze_tol

    def fit(
        self, X: np.ndarray, y: np.ndarray, warm_start: bool = False
    ) -> "EnsembleMLPRegressor":
        """Train the ensemble on ``(X, y)``.

        ``warm_start=True`` reuses the previous fit's weights when the
        shapes still match (same k/hidden/feature width), falling back
        to a cold init — with a ``RuntimeWarning`` — when they don't.
        Scaler statistics are always refreshed from the new data and
        Adam restarts from zero moments; only the weights carry over.
        """
        t_start = time.perf_counter()
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes X{X.shape} y{y.shape}")
        n, d = X.shape
        if n < max(2, self.k):
            raise ValueError(f"need at least {max(2, self.k)} samples, got {n}")

        h = self.hidden
        warm = False
        if warm_start and self._params is not None:
            if self._params[0].shape == (self.k, d, h):
                warm = True
            else:
                warnings.warn(
                    f"warm_start: previous weights have shape "
                    f"{self._params[0].shape}, need {(self.k, d, h)} "
                    f"(feature width or topology changed); "
                    f"falling back to cold init",
                    RuntimeWarning,
                    stacklevel=2,
                )

        # float32 training: the elementwise (k, n, h) work dominates and
        # regression targets here never need double precision.
        Xs = self._x_scaler.fit_transform(X).astype(np.float32)
        ys = self._y_scaler.fit_transform(y[:, None]).ravel().astype(np.float32)

        rng = np.random.default_rng(self.seed)
        # Leave-one-fold-out membership -> per-member mean weights.
        # Always the first RNG draw, warm or cold, so fold assignment is
        # a pure function of (seed, n).
        if self.k == 1:
            weights = np.full((1, n), 1.0 / n, dtype=np.float32)
        else:
            fold = rng.permutation(n) % self.k
            keep = fold[None, :] != np.arange(self.k)[:, None]
            weights = (keep / keep.sum(axis=1, keepdims=True)).astype(np.float32)

        if warm:
            # Reuse the weights (copied: a loaded archive may be
            # read-only or float64); the init draws below are skipped.
            self._params = [
                np.array(p, dtype=np.float32) for p in self._params
            ]
        else:
            limit1 = np.sqrt(6.0 / (d + h))
            limit2 = np.sqrt(6.0 / (h + 1))
            W1 = rng.uniform(-limit1, limit1, size=(self.k, d, h)).astype(
                np.float32
            )
            b1 = np.zeros((self.k, h), dtype=np.float32)
            W2 = rng.uniform(-limit2, limit2, size=(self.k, h)).astype(np.float32)
            b2 = np.zeros(self.k, dtype=np.float32)
            self._params = [W1, b1, W2, b2]
        self.warm_started_ = warm

        self.loss_curve_ = []
        self._oof_curve = None
        with self.tracer.span(
            "ensemble.fit",
            k=self.k,
            hidden=self.hidden,
            n_samples=n,
            mode=self.fit_mode,
            warm_start=warm,
        ) as span:
            stop_reason, best = self._train(Xs, ys, weights)
            self.stop_reason_ = stop_reason
            oof = self._oof_curve
            span.set(
                epochs_run=len(self.loss_curve_),
                stop_reason=stop_reason,
                final_loss=self.loss_curve_[-1],
                best_loss=float(best),
                n_frozen=int(self.n_frozen_),
                member_epochs=[int(e) for e in self.member_epochs_],
            )
            if oof:
                span.set(final_oof_loss=oof[-1])
        tracer = self.tracer
        if tracer.enabled:  # building the curve payload isn't free
            tracer.count("ml.epochs_run", len(self.loss_curve_))
            tracer.gauge("ml.early_stop_epoch", len(self.loss_curve_))
            tracer.gauge("ml.stop_reason", stop_reason)
            idx = _curve_trace_indices(self.loss_curve_)
            curve = dict(
                epochs=len(self.loss_curve_),
                downsampled=bool(idx.size < len(self.loss_curve_)),
                loss_epochs=[int(i) for i in idx],
                losses=[round(float(self.loss_curve_[i]), 8) for i in idx],
            )
            if oof:  # held-out MSE at the same epochs (k > 1 only)
                curve["oof_losses"] = [round(float(oof[i]), 8) for i in idx]
            tracer.event("ensemble.loss_curve", **curve)
        self.fit_wall_s_ = time.perf_counter() - t_start
        return self

    def _train(self, Xs, ys, weights):
        """The training loop: member-wise freezing with active-set
        compaction.

        A global stopping criterion watches the mean loss (frozen members
        contribute their final loss to the mean, so the curve and the
        stop decision stay comparable); additionally any member whose own
        loss has been stale for ``_freeze_patience`` epochs is frozen:
        its weights are written back to ``_params`` and the next, smaller
        :class:`_ActiveSet` holds only the members still training, so
        the per-epoch cost shrinks as members finish.  With a patience of
        ``math.inf`` (the classic preset) nothing ever freezes and the
        loop is the original all-members global-stop loop, floating-point
        operation for operation.

        When the tracer is enabled (and k > 1) each epoch also records
        the out-of-fold loss (:meth:`_ActiveSet.held_out_loss`) into
        ``_oof_curve``; that never feeds back into the training.
        """
        out = self._params  # full-size (k, ...) arrays we hand back
        k = self.k
        act = self.activation
        l2 = 2.0 * self.l2  # the penalty's gradient factor
        freeze_patience = self._freeze_patience
        freeze_tol = self._freeze_tol
        active = np.arange(k)
        s = _ActiveSet(Xs, weights, out)
        m_best = np.full(k, np.inf)
        m_stale = np.zeros(k, dtype=np.int64)
        m_epochs = np.zeros(k, dtype=np.int64)
        # Frozen members keep contributing their final loss to the mean;
        # float32 so the mean matches an all-members float32 reduction
        # exactly.
        all_loss = np.zeros(k, dtype=np.float32)
        oof = None
        if self.tracer.enabled and k > 1:
            oof, all_oof = [], np.zeros(k, dtype=np.float32)
        self._oof_curve = oof
        best = np.inf
        stale = 0
        stop_reason = "max_epochs"
        for step in range(1, self.epochs + 1):
            member_loss = s.backward(Xs, ys, act, k, l2)
            all_loss[active] = member_loss
            loss = float(np.mean(all_loss))
            self.loss_curve_.append(loss)
            if oof is not None:
                all_oof[active] = s.held_out_loss()
                oof.append(float(np.mean(all_oof)))

            # Members that have already converged don't pay for this step:
            # the flat buffers only hold the active rows.
            adam_step(
                [s.P], [s.G], [s.M], [s.V], step,
                self.lr, _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS,
            )

            if loss < best * (1.0 - self.tol):
                best = loss
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    stop_reason = "early_stop"
                    break

            # Per-member convergence bookkeeping (never feeds back into
            # the numerics above — the all-members loop is reproduced
            # exactly as long as no member actually freezes).
            m_epochs[active] = step
            a_best = m_best[active]
            imp = member_loss < a_best * (1.0 - freeze_tol)
            m_best[active] = np.where(imp, member_loss, a_best)
            m_stale[active] = np.where(imp, 0, m_stale[active] + 1)
            ripe = m_stale[active] >= freeze_patience
            if ripe.any():
                # Park the freshly frozen members' weights in the output.
                fidx = active[ripe]
                for full, c in zip(out, s.params):
                    full[fidx] = c[ripe]
                keep = ~ripe
                active = active[keep]
                if active.size == 0:
                    stop_reason = "all_frozen"
                    break
                s = s.compact(Xs, keep)
        if active.size:
            for full, c in zip(out, s.params):
                full[active] = c
        # Members still training at the stop ran every recorded epoch.
        m_epochs[active] = len(self.loss_curve_)
        self.member_epochs_ = m_epochs
        self.n_frozen_ = int(k - active.size)
        return stop_reason, best

    def _member_predictions(self, X: np.ndarray) -> np.ndarray:
        if self._params is None:
            raise RuntimeError("predict() before fit()")
        Xs = self._x_scaler.transform(np.asarray(X, dtype=np.float64)).astype(
            np.float32
        )
        _, pred = self._forward(Xs)
        # y-scaler stats are scalars; broadcasting over (k, n) is exact.
        return self._y_scaler.inverse_transform(pred)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction over the k members."""
        return self._member_predictions(X).mean(axis=0)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Member disagreement (ensemble standard deviation)."""
        return self._member_predictions(X).std(axis=0)

    def predict_mean_std(self, X: np.ndarray):
        """Mean and member disagreement from a single forward pass.

        Callers that need both (acquisition scoring in
        ``core/adaptive.py``) previously paid two full forwards.
        """
        preds = self._member_predictions(X)
        return preds.mean(axis=0), preds.std(axis=0)

    # -- persistence ------------------------------------------------------------

    def save(self, path, log_transform: Optional[bool] = None) -> None:
        """Serialize the fitted ensemble to an ``.npz`` file.

        Gathering training data costs simulated (or real) hours; the model
        itself is a few kilobytes — persisting it lets later sessions
        re-rank the space without re-measuring anything.  The write is
        atomic (tempfile + fsync + ``os.replace``, the MeasurementDB.save
        recipe): a kill mid-save leaves any previous file intact instead
        of a truncated archive.

        ``log_transform`` records whether the *owner* of this ensemble
        trained it on log-targets (the meta block's third slot: -1
        unknown, 0 False, 1 True); :meth:`load` surfaces it as
        :attr:`saved_log_transform` so callers can validate instead of
        silently mis-transforming predictions.
        """
        if self._params is None:
            raise RuntimeError("save() before fit()")
        if log_transform is None:
            log_transform = self.saved_log_transform
        lt_flag = -1 if log_transform is None else int(bool(log_transform))
        # Mirror np.savez's path normalization so the atomic rename lands
        # exactly where a plain np.savez(path) would have written.
        target = os.fspath(path)
        if not target.endswith(".npz"):
            target += ".npz"
        W1, b1, W2, b2 = self._params
        parent = os.path.dirname(target) or "."
        fd, tmp = tempfile.mkstemp(
            dir=parent, prefix=os.path.basename(target) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    W1=W1,
                    b1=b1,
                    W2=W2,
                    b2=b2,
                    x_mean=self._x_scaler.mean_,
                    x_scale=self._x_scaler.scale_,
                    y_mean=self._y_scaler.mean_,
                    y_scale=self._y_scaler.scale_,
                    meta=np.array([self.k, self.hidden, lt_flag], dtype=np.int64),
                    activation=np.array(self.activation.name),
                )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path) -> "EnsembleMLPRegressor":
        """Restore an ensemble saved with :meth:`save`.

        Raises
        ------
        ValueError
            When the archive is missing arrays or their shapes disagree
            with its own ``meta`` (k, hidden) — a truncated or foreign
            file would otherwise surface as a cryptic broadcast error
            deep inside :meth:`_forward`.
        """
        data = np.load(path, allow_pickle=False)
        required = (
            "meta", "activation", "W1", "b1", "W2", "b2",
            "x_mean", "x_scale", "y_mean", "y_scale",
        )
        missing = [key for key in required if key not in data.files]
        if missing:
            raise ValueError(f"{path}: not an ensemble archive; missing {missing}")
        meta = data["meta"]
        # Legacy archives carry (k, hidden); current ones append the
        # owner's log_transform flag (-1 unknown / 0 False / 1 True).
        if meta.shape not in ((2,), (3,)):
            raise ValueError(f"{path}: malformed meta block {meta.shape}")
        k, hidden = int(meta[0]), int(meta[1])
        lt_flag = int(meta[2]) if meta.shape == (3,) else -1
        if lt_flag not in (-1, 0, 1):
            raise ValueError(
                f"{path}: log_transform flag must be -1/0/1, got {lt_flag}"
            )
        W1, b1, W2, b2 = data["W1"], data["b1"], data["W2"], data["b2"]
        if W1.ndim != 3 or W1.shape[0] != k or W1.shape[2] != hidden:
            raise ValueError(
                f"{path}: W1 shape {W1.shape} inconsistent with "
                f"meta (k={k}, hidden={hidden})"
            )
        d = int(W1.shape[1])
        expected = {"b1": (k, hidden), "W2": (k, hidden), "b2": (k,)}
        for name, arr in (("b1", b1), ("W2", W2), ("b2", b2)):
            if arr.shape != expected[name]:
                raise ValueError(
                    f"{path}: {name} shape {arr.shape} != {expected[name]} "
                    f"implied by meta (k={k}, hidden={hidden})"
                )
        if data["x_mean"].shape[-1] != d or data["x_scale"].shape[-1] != d:
            raise ValueError(
                f"{path}: x-scaler width {data['x_mean'].shape} does not "
                f"match the {d}-feature weights"
            )
        model = cls(k=k, hidden=hidden, activation=str(data["activation"]))
        model.saved_log_transform = None if lt_flag == -1 else bool(lt_flag)
        model._params = [W1, b1, W2, b2]
        model._x_scaler.mean_ = data["x_mean"]
        model._x_scaler.scale_ = data["x_scale"]
        model._y_scaler.mean_ = data["y_mean"]
        model._y_scaler.scale_ = data["y_scale"]
        return model


def _blocks(flat: np.ndarray, a: int, d: int, h: int) -> list:
    """``[W1, b1, W2, b2]`` views of a flat buffer shaped like the
    parameters of ``a`` members.

    The blocks lie W1 | W2 | b1 | b2, so the two weight blocks (the L2
    term's operands) are one contiguous prefix.
    """
    w1 = a * d * h
    w2 = w1 + a * h
    b1 = w2 + a * h
    return [
        flat[:w1].reshape(a, d, h),
        flat[w2:b1].reshape(a, h),
        flat[w1:w2].reshape(a, h),
        flat[b1:],
    ]


class _ActiveSet:
    """The members still training: their state and one epoch's buffers.

    Parameters, gradients and both Adam moments are one flat float32
    buffer each (``P``, ``G``, ``M``, ``V``, laid out as
    :func:`_blocks`), so one ``adam_step`` call updates all four
    arrays; ``params`` and ``grads`` are their ``[W1, b1, W2, b2]``
    views.  The activation, derivative and delta buffers are
    sample-major ``(n, a, h)`` — the bias add and the sum over samples
    run over inner loops ``a * h`` long — and are viewed member-major
    ``(a, n, h)`` for the per-member GEMMs.  Built when a fit starts and
    rebuilt, smaller, by :meth:`compact` when members freeze; an epoch
    allocates nothing of the sample count's size.
    """

    def __init__(self, Xs: np.ndarray, weights: np.ndarray, params) -> None:
        n, d = Xs.shape
        a, h = params[1].shape
        self.shape = (a, d, h)
        self.weights = weights
        self.twice_weights = 2.0 * weights  # the loss gradient's factor
        self.held_out_weights = None  # built by held_out_loss on demand
        self.P = np.empty(a * (d * h + 2 * h + 1), dtype=np.float32)
        self.params = _blocks(self.P, a, d, h)
        for dst, src in zip(self.params, params):
            dst[...] = src
        self.G = np.empty_like(self.P)
        self.grads = _blocks(self.G, a, d, h)
        self.M = np.zeros_like(self.P)
        self.V = np.zeros_like(self.P)
        n_weights = a * (d * h + h)
        self.P_weights = self.P[:n_weights]
        self.G_weights = self.G[:n_weights]
        self.penalty = np.empty(n_weights, dtype=np.float32)
        self.A = np.empty((n, a, h), dtype=np.float32)
        self.D = np.empty_like(self.A)
        self.delta = np.empty_like(self.A)
        self.err = np.empty((a, n), dtype=np.float32)
        self.sq = np.empty_like(self.err)
        self.delta2 = np.empty_like(self.err)
        self.loss = np.empty(a, dtype=np.float32)

    def compact(self, Xs: np.ndarray, keep: np.ndarray) -> "_ActiveSet":
        """The set of the ``keep`` rows: parameters and Adam moments
        carried over, work buffers allocated for the smaller set."""
        nxt = _ActiveSet(Xs, self.weights[keep], [p[keep] for p in self.params])
        for mine, theirs in ((self.M, nxt.M), (self.V, nxt.V)):
            for dst, src in zip(
                _blocks(theirs, *nxt.shape), _blocks(mine, *self.shape)
            ):
                dst[...] = src[keep]
        return nxt

    def backward(self, Xs, ys, act, k: int, l2: float) -> np.ndarray:
        """One full-batch forward/backward; fills ``G`` and returns the
        per-member weighted MSE (float32, one entry per active member).

        The ufuncs, GEMMs and reductions of the allocating loop in its
        order: the same bits.  ``k`` is the *full* ensemble size (the
        member-average factor), so compaction leaves the surviving
        members' gradients unchanged; ``l2`` is the penalty's gradient
        factor (``2 * l2``, 0 for none).
        """
        W1, b1, W2, b2 = self.params
        gW1, gb1, gW2, gb2 = self.grads
        A, err, sq = self.A, self.err, self.sq
        A_m = A.transpose(1, 0, 2)  # (a, n, h)
        np.matmul(Xs, W1, out=A_m)
        A += b1
        act.value(A, out=A)
        np.matmul(A_m, W2[:, :, None], out=err[:, :, None])
        err += b2[:, None]
        err -= ys  # (a, n)
        np.multiply(self.weights, err, out=sq)
        sq *= err
        np.sum(sq, axis=1, out=self.loss)

        # d loss / d pred, including the member average (1/k).
        delta2 = np.multiply(self.twice_weights, err, out=self.delta2)
        delta2 /= k
        np.matmul(A_m.transpose(0, 2, 1), delta2[:, :, None], out=gW2[:, :, None])
        np.sum(delta2, axis=1, out=gb2)
        delta = np.multiply(delta2.T[:, :, None], W2, out=self.delta)  # (n, a, h)
        delta *= act.derivative(A, out=self.D)
        np.matmul(Xs.T, delta.transpose(1, 0, 2), out=gW1)  # -> (a, d, h)
        np.sum(delta, axis=0, out=gb1)
        if l2 > 0.0:
            np.multiply(self.P_weights, l2, out=self.penalty)
            self.G_weights += self.penalty
        return self.loss

    def held_out_loss(self) -> np.ndarray:
        """Per-member MSE of the last forward pass over the rows each
        member's fold leaves out (weight 0 in its loss), weighted like
        the training loss: 1/|held out| on those rows."""
        if self.held_out_weights is None:
            held = self.weights == 0
            self.held_out_weights = (
                held / held.sum(axis=1, keepdims=True)
            ).astype(np.float32)
        np.multiply(self.held_out_weights, self.err, out=self.sq)
        self.sq *= self.err
        return np.sum(self.sq, axis=1)
