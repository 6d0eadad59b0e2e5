"""Activation functions with derivatives (in terms of the activation value).

The paper uses sigmoid hidden units (§5.2); the others are provided for the
hidden-width/activation ablations.  Each activation exposes

* ``value(z, out=None)`` — elementwise activation of pre-activations
  ``z``, into ``out`` when given (``out=z`` runs in place, the same bits
  as a fresh result);
* ``derivative(a, out=None)`` — elementwise derivative expressed as a
  function of the *activation output* ``a`` (cheaper during backprop: no
  need to keep ``z``), into ``out`` when given (a buffer other than
  ``a``; the same bits as a fresh result).
"""

from __future__ import annotations

import numpy as np


class Sigmoid:
    """Logistic sigmoid, the paper's hidden activation."""

    name = "sigmoid"

    @staticmethod
    def value(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Clipping to +-40 keeps exp() in range without changing the value
        # (sigmoid is fully saturated there) and stays branch-free — this
        # runs on (k, n, h) tensors every training epoch.  The ufuncs of
        # 1 / (1 + exp(-clip(z))), each in place on the clipped copy.
        out = np.clip(z, -40.0, 40.0, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.reciprocal(out, out=out)

    @staticmethod
    def derivative(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # a * (1 - a), the second product into the first's buffer.
        out = np.subtract(1.0, a, out=out)
        return np.multiply(a, out, out=out)


class Tanh:
    name = "tanh"

    @staticmethod
    def value(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.tanh(z, out=out)

    @staticmethod
    def derivative(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(a, a, out=out)
        return np.subtract(1.0, out, out=out)


class ReLU:
    name = "relu"

    @staticmethod
    def value(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.maximum(z, 0.0, out=out)

    @staticmethod
    def derivative(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty_like(a)
        return np.greater(a, 0.0, out=out)


class Identity:
    """Linear output units (regression head)."""

    name = "identity"

    @staticmethod
    def value(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None or out is z:
            return z
        np.copyto(out, z)
        return out

    @staticmethod
    def derivative(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return np.ones_like(a)
        out.fill(1.0)
        return out


ACTIVATIONS = {cls.name: cls for cls in (Sigmoid, Tanh, ReLU, Identity)}


def get_activation(name_or_cls):
    """Resolve an activation by name or pass a class through."""
    if isinstance(name_or_cls, str):
        try:
            return ACTIVATIONS[name_or_cls]
        except KeyError:
            raise KeyError(
                f"unknown activation {name_or_cls!r}; known: {sorted(ACTIVATIONS)}"
            ) from None
    return name_or_cls
