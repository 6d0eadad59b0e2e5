"""The performance model: features -> predicted execution time.

Wraps the paper's learning recipe (§5.2):

* encode tuning-parameter values (:class:`~repro.core.encoding.ConfigEncoder`);
* regress ``log(time)`` — minimizing squared error of the log equals
  minimizing *relative* error of the time, which is what matters when
  kernel times span orders of magnitude;
* bagging: k = 11 networks on leave-one-fold-out splits, mean prediction;
* invalid configurations are simply not in the training set ("we deal with
  this issue by simply ignoring these configurations").

Predictions of the default bagged-ANN ensemble go through the compiled
:class:`~repro.core.sweep.PredictionSweeper`, whose digit tables replace
the ensemble's GEMMs.  :meth:`predict_indices_reference` is the sweep's
parity baseline: the same tables, one thread, a per-member epilogue.
Custom model families have no weights to fold; the reference encodes
and calls their own ``predict``.
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.encoding import ConfigEncoder
from repro.core.measure import MeasurementSet
from repro.core.sweep import PredictionSweeper, select_top_m
from repro.ml.bagging import BaggedRegressor
from repro.ml.ensemble import EnsembleMLPRegressor
from repro.ml.metrics import mean_relative_error
from repro.obs import NULL_TRACER
from repro.params import ParameterSpace

#: Rows per step of :meth:`PerformanceModel.predict_indices_reference`:
#: bounds the temporaries of encoding and of a custom family's predict.
_REFERENCE_CHUNK = 1 << 14


class PerformanceModel:
    """Bagged-ANN regressor from configuration indices to seconds.

    Parameters
    ----------
    space:
        The kernel's parameter space (defines the encoding).
    k:
        Bagging folds (11 in the paper).  ``k=1`` trains a single network
        on all data (the bagging ablation's baseline).
    base_factory:
        Override the member-model factory (used by the model-family
        ablation to swap in trees/kNN/linear models).
    seed:
        Controls fold assignment and member weight initialization.
    fit_mode:
        Training engine for the default ensemble: ``"adaptive"``
        (member-wise convergence freezing, the default) or
        ``"classic"`` (the original global-stop loop).  Ignored for
        custom model families.
    freeze_patience / freeze_tol:
        Optional overrides for the adaptive engine's per-member freeze
        thresholds (``None`` keeps the ensemble defaults;
        ``freeze_patience=math.inf`` disables freezing entirely, which
        is bit-identical to ``"classic"``).
    """

    def __init__(
        self,
        space: ParameterSpace,
        k: int = 11,
        base_factory: Optional[Callable[[], object]] = None,
        seed: Optional[int] = None,
        log_transform: bool = True,
        tracer=None,
        fit_mode: str = "adaptive",
        freeze_patience: Optional[float] = None,
        freeze_tol: Optional[float] = None,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        if fit_mode not in ("adaptive", "classic"):
            raise ValueError(
                f"fit_mode must be 'adaptive' or 'classic', got {fit_mode!r}"
            )
        self.space = space
        self.encoder = ConfigEncoder(space)
        self.k = k
        self.seed = seed
        self.log_transform = log_transform
        self.fit_mode = fit_mode
        self.freeze_patience = freeze_patience
        self.freeze_tol = freeze_tol
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._custom_factory = base_factory is not None
        self._factory = base_factory
        self._model = None
        self._sweeper: Optional[PredictionSweeper] = None

    # -- training -----------------------------------------------------------

    def fit(
        self,
        indices: Sequence[int],
        times_s: Sequence[float],
        warm_start: bool = False,
    ) -> "PerformanceModel":
        """Train on measured (configuration index, seconds) pairs.

        ``warm_start=True`` re-trains the existing default-ensemble
        weights in place (drift refits: tens of epochs instead of
        thousands); it silently degrades to a cold fit when there is no
        compatible previous model (first fit, custom factory, or a
        changed ``k``) — the ensemble itself warns and re-initializes
        if the feature width moved underneath it.
        """
        indices = np.asarray(indices, dtype=np.int64)
        times = np.asarray(times_s, dtype=np.float64)
        if indices.shape[0] != times.shape[0]:
            raise ValueError("indices and times must align")
        if indices.shape[0] < max(2, self.k):
            raise ValueError(
                f"need at least {max(2, self.k)} samples, got {indices.shape[0]}"
            )
        if np.any(times <= 0):
            raise ValueError("times must be positive")
        X = self.encoder.encode_indices(indices)
        y = np.log(times) if self.log_transform else times
        if self._custom_factory:
            if self.k == 1:
                self._model = self._factory()
            else:
                self._model = BaggedRegressor(self._factory, k=self.k, seed=self.seed)
            self._model.fit(X, y)
        else:
            reuse = (
                warm_start
                and isinstance(self._model, EnsembleMLPRegressor)
                and self._model.k == self.k
            )
            if not reuse:
                # Default path: the vectorized ensemble trainer (identical
                # leave-one-fold-out semantics, one batched fit).
                self._model = EnsembleMLPRegressor(
                    k=self.k,
                    seed=self.seed,
                    fit_mode=self.fit_mode,
                    freeze_patience=self.freeze_patience,
                    freeze_tol=self.freeze_tol,
                )
                self._model.tracer = self.tracer
            self._model.fit_mode = self.fit_mode
            self._model.freeze_patience = self.freeze_patience
            self._model.freeze_tol = self.freeze_tol
            self._model.fit(X, y, warm_start=reuse)
        self._sweeper = None  # compiled against the previous weights
        return self

    def fit_measurements(
        self, ms: MeasurementSet, invalid_penalty: Optional[float] = None
    ) -> "PerformanceModel":
        """Train from a measurement batch.

        ``invalid_penalty=None`` is the paper's policy: invalid
        configurations are simply absent from the training set (§5.2) —
        with the §7 consequence that the model may extrapolate low times
        into invalid regions.  A float trains the alternative policy: each
        invalid configuration becomes a sample with target
        ``invalid_penalty x (slowest valid time)``, teaching the model that
        those regions are to be avoided.
        """
        if invalid_penalty is None or ms.n_invalid == 0:
            return self.fit(ms.indices, ms.times_s)
        if invalid_penalty <= 1.0:
            raise ValueError("invalid_penalty must exceed 1 (x slowest valid)")
        if ms.n_valid == 0:
            raise ValueError("cannot penalize invalids with no valid samples")
        penalty_time = float(ms.times_s.max()) * invalid_penalty
        indices = np.concatenate([ms.indices, ms.invalid_indices])
        times = np.concatenate(
            [ms.times_s, np.full(ms.n_invalid, penalty_time)]
        )
        return self.fit(indices, times)

    def detach_tracer(self) -> "PerformanceModel":
        """Point the model, its ensemble and its compiled sweep engine at
        :data:`~repro.obs.NULL_TRACER`, for a model that outlives its run
        (the daemon's model cache).

        The engine is kept, not recompiled: rebuilding its digit tables
        would add their compile time (milliseconds) to the next predict,
        on the daemon's event loop.  Its per-thread scratch is released,
        so an idle model holds its weights plus the tables,
        ``k * hidden * 4`` bytes per table row: 2.8 MB (convolution),
        2.4 MB (raycasting) or 6.2 MB (stereo) for the paper's 11 x 30
        ensemble.  A daemon's cache of ``model_cache_size`` (32) models
        holds at most 6.2 MB x 32, about 200 MB, of tables.
        """
        self.tracer = NULL_TRACER
        if isinstance(self._model, EnsembleMLPRegressor):
            self._model.tracer = NULL_TRACER
        if self._sweeper is not None:
            self._sweeper.tracer = NULL_TRACER
            self._sweeper.release_buffers()
        return self

    # -- prediction -----------------------------------------------------------

    def _get_sweeper(self) -> Optional[PredictionSweeper]:
        """The compiled sweep engine, or None for a custom model family
        (no weights to fold)."""
        if not isinstance(self._model, EnsembleMLPRegressor):
            return None
        if self._sweeper is None:
            self._sweeper = PredictionSweeper(
                self.space,
                self.encoder,
                self._model,
                log_transform=self.log_transform,
                tracer=self.tracer,
            )
        return self._sweeper

    def predict_indices(self, indices: Sequence[int]) -> np.ndarray:
        """Predicted seconds for configuration indices.

        Routes through the fused sweep engine for the default ensemble;
        falls back to :meth:`predict_indices_reference` otherwise."""
        if self._model is None:
            raise RuntimeError("predict before fit")
        sweeper = self._get_sweeper()
        if sweeper is None:
            return self.predict_indices_reference(indices)
        indices = np.asarray(indices, dtype=np.int64)
        with self.tracer.span(
            "model.predict", n=indices.shape[0], engine="sweep"
        ):
            out = sweeper.predict(indices)
        self.tracer.count("model.configs_predicted", int(indices.shape[0]))
        return out

    def predict_indices_reference(self, indices: Sequence[int]) -> np.ndarray:
        """Predicted seconds, each member through its own epilogue.

        The sweep engine's parity baseline: for the default ensemble the
        float32 member outputs come from the sweep's own digit tables
        (:meth:`~repro.core.sweep.PredictionSweeper.member_outputs`,
        gather form, one thread), and each member is mapped back through
        the y-scaler before the mean, as
        :meth:`~repro.ml.ensemble.EnsembleMLPRegressor.predict` does.  So
        the two differ only in the order of the float64 epilogue
        (``tests/test_sweep.py``).  Custom model families, with no
        weights to fold, encode and call their own ``predict``."""
        if self._model is None:
            raise RuntimeError("predict before fit")
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty(indices.shape[0], dtype=np.float64)
        sweeper = self._get_sweeper()
        with self.tracer.span(
            "model.predict", n=indices.shape[0], engine="reference"
        ):
            for start in range(0, indices.shape[0], _REFERENCE_CHUNK):
                chunk = indices[start : start + _REFERENCE_CHUNK]
                if sweeper is None:
                    y = self._model.predict(self.encoder.encode_indices(chunk))
                else:
                    members = sweeper.member_outputs(chunk)
                    y = self._model._y_scaler.inverse_transform(members).mean(axis=0)
                out[start : start + chunk.shape[0]] = (
                    np.exp(y) if self.log_transform else y
                )
        self.tracer.count("model.configs_predicted", int(indices.shape[0]))
        return out

    def predict_all(self) -> np.ndarray:
        """Predicted seconds for the *entire* space (index-aligned)."""
        sweeper = self._get_sweeper() if self._model is not None else None
        if sweeper is None:
            return self.predict_indices(np.arange(self.space.size, dtype=np.int64))
        with self.tracer.span(
            "model.predict", n=self.space.size, engine="sweep"
        ):
            out = sweeper.predict(None)  # range work: no arange materialized
        self.tracer.count("model.configs_predicted", self.space.size)
        return out

    def top_m(self, m: int, candidate_indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Indices of the ``m`` lowest-predicted configurations.

        Sweeps the whole space by default (feasible because evaluating the
        model is orders of magnitude faster than running kernels, §5.3) —
        streamingly, so memory stays O(chunk + m) rather than O(space).
        Prediction ties are broken by smallest configuration index, making
        the result a pure function of the predictions.
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        if self._model is None:
            raise RuntimeError("predict before fit")
        sweeper = self._get_sweeper()
        if sweeper is not None:
            n = (
                self.space.size
                if candidate_indices is None
                else len(candidate_indices)
            )
            with self.tracer.span("model.top_m", m=m, n=n, engine="sweep"):
                out = sweeper.top_m(m, candidate_indices)
            self.tracer.count("model.configs_predicted", int(n))
            return out
        if candidate_indices is None:
            candidate_indices = np.arange(self.space.size, dtype=np.int64)
        else:
            candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
        pred = self.predict_indices(candidate_indices)
        _, idx = select_top_m(pred, candidate_indices, min(m, pred.shape[0]))
        return idx

    # -- evaluation -------------------------------------------------------------

    def relative_error(self, indices: Sequence[int], actual_s: Sequence[float]) -> float:
        """Mean relative error on held-out measurements (the Figs. 4-7 metric)."""
        return mean_relative_error(self.predict_indices(indices), actual_s)

    # -- persistence -------------------------------------------------------------

    def save(self, path) -> None:
        """Persist a fitted default-ensemble model to an ``.npz`` file.

        Only the built-in bagged-ANN path is serializable (custom factory
        models bring their own persistence).  ``log_transform`` is written
        into the archive's meta block: a model trained on ``log(time)``
        loaded without the exp-back step (or vice versa) silently returns
        garbage, so :meth:`load` must be able to validate it.
        """
        if self._model is None:
            raise RuntimeError("save() before fit()")
        if self._custom_factory or not isinstance(self._model, EnsembleMLPRegressor):
            raise TypeError("only the default bagged-ANN model is serializable")
        self._model.save(path, log_transform=self.log_transform)

    @classmethod
    def load(
        cls,
        space: ParameterSpace,
        path,
        log_transform: Optional[bool] = None,
    ) -> "PerformanceModel":
        """Restore a model saved with :meth:`save`, bound to ``space``.

        The caller must supply the same parameter space the model was
        trained against (the weights encode its feature layout).

        ``log_transform=None`` (the default) trusts the archive's
        persisted flag.  Passing an explicit bool that *contradicts* a
        persisted flag raises — loading a ``log_transform=False`` model
        under ``True`` would silently exponentiate its predictions.
        Legacy archives without the flag fall back to the caller's value
        (default True) with a warning.
        """
        inner = EnsembleMLPRegressor.load(path)
        persisted = inner.saved_log_transform
        if persisted is None:
            if log_transform is None:
                warnings.warn(
                    f"{path}: archive predates log_transform persistence; "
                    "assuming log_transform=True (pass log_transform= "
                    "explicitly to silence)",
                    stacklevel=2,
                )
                log_transform = True
        else:
            if log_transform is not None and bool(log_transform) != persisted:
                raise ValueError(
                    f"{path}: archive was saved with log_transform="
                    f"{persisted} but caller requested {bool(log_transform)}; "
                    "predictions would be silently "
                    + ("exponentiated" if log_transform else "left in log space")
                )
            log_transform = persisted
        model = cls(space, log_transform=log_transform)
        expected = model.encoder.n_features
        got = inner.n_features
        if got != expected:
            raise ValueError(
                f"saved model expects {got} features but this space encodes "
                f"{expected}; wrong kernel?"
            )
        model._model = inner
        model.k = inner.k
        return model
