"""Constraint transforms and their derivatives: softplus for sigmas,
softsign for rhos, log-softmax for mixing weights.

The bivariate Gaussian log-density itself lives in ``kernels``.
"""

import numpy as np
from scipy.special import expit


def softplus(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0))))


def softplus_grad(x):
    return expit(np.asarray(x, dtype=float))


def inv_softplus(y):
    """Raw value whose softplus is y (y > 0)."""
    y = np.asarray(y, dtype=float)
    return np.where(y > 30.0, y, np.log(np.expm1(np.maximum(y, 1e-300))))


def softsign(x):
    x = np.asarray(x, dtype=float)
    return x / (1.0 + np.abs(x))


def softsign_grad(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + np.abs(x)) ** 2


def log_softmax(v):
    v = np.asarray(v, dtype=float)
    shifted = v - np.max(v, axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
