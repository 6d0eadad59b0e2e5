"""The ensemble's training loop as it was before its work buffers: the
reference the buffered epoch is compared against.

:class:`EnsembleReference` keeps the allocating loop — a full-batch
forward/backward (``_backward``) that builds its ``(a, n, h)``
temporaries afresh every epoch, and four ``adam_step`` updates, one per
parameter array — with member-wise freezing and active-set compaction,
operation for operation.  It inherits everything else from
:class:`~repro.ml.ensemble.EnsembleMLPRegressor` (``fit``: scaling, fold
weights, initialisation, warm starts, tracing), so the two differ only
in the epoch.  ``tests/test_ml_train_parity.py`` holds the production
loop to it bit for bit: weights, loss curve, per-member epochs, frozen
count and stop reason.

Production code does not import this module.
"""

from __future__ import annotations

import numpy as np

from repro.ml.ensemble import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    EnsembleMLPRegressor,
)
from repro.ml.optimizers import adam_step


class EnsembleReference(EnsembleMLPRegressor):
    """The allocating training loop (see the module docstring)."""

    def _backward(self, Xs, ys, weights, W1, b1, W2, b2):
        """One full-batch forward/backward over the given member stack.

        Returns ``(member_loss, grads)`` where ``member_loss`` is the
        per-member weighted MSE (float32, one entry per row of the
        stack) and ``grads`` aligns with ``[W1, b1, W2, b2]``.  The
        member axis may be any size — the adaptive engine calls this
        with compacted stacks — but the ``1/self.k`` member-average
        factor is always the *full* ensemble size, so gradients of the
        surviving members are unchanged by compaction.
        """
        A1 = self.activation.value(np.matmul(Xs, W1) + b1[:, None, :])
        pred = np.matmul(A1, W2[:, :, None])[:, :, 0] + b2[:, None]
        err = pred - ys[None, :]  # (a, n)
        member_loss = np.sum(weights * err * err, axis=1)

        # d loss / d pred, including the member average (1/k).
        delta2 = 2.0 * weights * err / self.k  # (a, n)
        gW2 = np.matmul(A1.transpose(0, 2, 1), delta2[:, :, None])[:, :, 0]
        gb2 = delta2.sum(axis=1)
        dA1 = delta2[:, :, None] * W2[:, None, :]  # (a, n, h)
        delta1 = dA1 * self.activation.derivative(A1)
        gW1 = np.matmul(Xs.T, delta1)  # (d, n) @ (a, n, h) -> (a, d, h)
        gb1 = delta1.sum(axis=1)
        grads = [gW1, gb1, gW2, gb2]
        if self.l2 > 0.0:
            grads[0] = grads[0] + 2.0 * self.l2 * W1
            grads[2] = grads[2] + 2.0 * self.l2 * W2
        return member_loss, grads

    def _train(self, Xs, ys, weights):
        """The training loop: member-wise freezing with active-set
        compaction.

        A global stopping criterion watches the mean loss (frozen members
        contribute their final loss to the mean, so the curve and the
        stop decision stay comparable); additionally any member whose own
        loss has been stale for ``_freeze_patience`` epochs is frozen and
        its rows are *physically removed* from the parameter/Adam/weight
        stacks — the per-epoch cost shrinks as members finish.  With a
        patience of ``math.inf`` (the classic preset) nothing ever
        freezes, the stacks are never copied, and the loop is the
        original all-members global-stop loop, floating-point operation
        for operation.
        """
        out = self._params  # full-size (k, ...) arrays we hand back
        k = self.k
        freeze_patience = self._freeze_patience
        freeze_tol = self._freeze_tol
        active = np.arange(k)
        compacted = False  # once True, `cur` rows are copies, not `out`
        cur = out
        w_cur = weights
        ms = [np.zeros_like(p) for p in cur]
        vs = [np.zeros_like(p) for p in cur]
        m_best = np.full(k, np.inf)
        m_stale = np.zeros(k, dtype=np.int64)
        m_epochs = np.zeros(k, dtype=np.int64)
        # Frozen members keep contributing their final loss to the mean;
        # float32 so the mean matches an all-members float32 reduction
        # exactly.
        all_loss = np.zeros(k, dtype=np.float32)
        best = np.inf
        stale = 0
        stop_reason = "max_epochs"
        for step in range(1, self.epochs + 1):
            W1, b1, W2, b2 = cur
            member_loss, grads = self._backward(Xs, ys, w_cur, W1, b1, W2, b2)
            all_loss[active] = member_loss
            loss = float(np.mean(all_loss))
            self.loss_curve_.append(loss)

            # Members that have already converged don't pay for this step:
            # `cur`/`ms`/`vs` only hold the active rows.
            adam_step(
                cur, grads, ms, vs, step,
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
                if compacted:
                    # `cur` rows are detached copies; park the freshly
                    # frozen members' weights back in the output stack.
                    # (Pre-compaction `cur` IS `out`: already in place.)
                    fidx = active[ripe]
                    for full, c in zip(out, cur):
                        full[fidx] = c[ripe]
                keep = ~ripe
                active = active[keep]
                if active.size == 0:
                    stop_reason = "all_frozen"
                    break
                cur = [c[keep] for c in cur]  # boolean mask -> new arrays
                ms = [m[keep] for m in ms]
                vs = [v[keep] for v in vs]
                w_cur = w_cur[keep]
                compacted = True
        if compacted and active.size:
            for full, c in zip(out, cur):
                full[active] = c
        # Members still training at the stop ran every recorded epoch.
        m_epochs[active] = len(self.loss_curve_)
        self.member_epochs_ = m_epochs
        self.n_frozen_ = int(k - active.size)
        return stop_reason, best
