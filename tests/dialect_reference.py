"""Unblocked and dense reference paths of the dialect model, for tests only.

``word_log_probs`` builds the whole N x V log-probability matrix in one pass,
apart from ``DialectModel.logit_blocks``, so the blocked heatmap and region
scores are checked against a separate path; ``perplexity`` scores it on
held-out token counts.  ``dense_dialect_loss`` and ``dense_dev_metric`` are
the dialect loss and dev loss on dense N x V targets, the formula the CSR
path in ``dialect.dialect_loss`` must reproduce.
"""

import numpy as np

from geomix import dialect as dl
from geomix.kernels import log_softmax
from geomix.network import ContractError, forward


def word_log_probs(model, coords):
    """N x V log-probabilities over the vocabulary for N coordinates."""
    acts_in, _ = dl.gaussian_layer_forward_batch(model.params, coords)
    return log_softmax(forward(model.params, model.spec, acts_in).output)


def perplexity(log_probs, counts):
    """exp of corpus-level mean negative log-probability per token.

    ``log_probs`` is N x V per-user word log-probabilities, ``counts`` the
    matching in-vocabulary token counts.  Zero-probability counted tokens
    give infinite perplexity.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0.0:
        raise ValueError("no in-vocabulary tokens in the evaluation set")
    lp = np.asarray(log_probs, dtype=float)
    if np.any(counts[np.isneginf(lp)] > 0):
        return float("inf")
    return float(np.exp(-np.sum(counts * np.where(counts > 0, lp, 0.0)) / total))


def dense_target_log_likelihood(log_p, targets):
    """Sum of ``targets * log_p`` over the target rows with positive mass,
    and the boolean mask of those rows, for dense nonnegative ``targets``."""
    targets = np.asarray(targets, dtype=float)
    if np.any(targets < 0.0):
        raise ContractError("target rows must be nonnegative")
    active = targets.sum(axis=1) > 0.0
    return np.sum(targets[active] * log_p[active]), active


def dense_dialect_loss(logits, targets):
    """(loss, dLoss/dLogits) of ``dialect.dialect_loss`` on dense targets."""
    log_p = log_softmax(np.asarray(logits, dtype=float))
    ll, active = dense_target_log_likelihood(log_p, targets)
    n_active = int(active.sum())
    if n_active == 0:
        return 0.0, np.zeros_like(log_p)
    loss = -float(ll / n_active)
    d_logits = np.where(active[:, None], np.exp(log_p) - targets, 0.0) / n_active
    return loss, d_logits


def dense_dev_metric(model, coords, targets):
    """``DialectModel.dev_metric`` in one pass over dense targets."""
    ll, active = dense_target_log_likelihood(word_log_probs(model, coords), targets)
    n_active = int(active.sum())
    return -float(ll / n_active) if n_active else 0.0
