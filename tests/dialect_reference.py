"""Unblocked reference paths of the dialect model, for tests only.

``word_log_probs`` builds the whole N x V log-probability matrix in one pass,
apart from ``DialectModel.logit_blocks``, so the blocked heatmap and region
scores are checked against a separate path; ``perplexity`` scores it on
held-out token counts.
"""

import numpy as np

from geomix import dialect as dl
from geomix.kernels import log_softmax
from geomix.network import forward


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
