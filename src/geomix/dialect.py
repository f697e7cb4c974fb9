"""Inverse model: location -> Gaussian representation layer -> word
distribution, plus dialect-term scoring, ranking, recall@k and perplexity.
"""

from dataclasses import dataclass

import numpy as np

from .gaussian import log_softmax
from .geo import GeoPoint, haversine_km
from .heads import component_grads, component_terms
from .kernels import component_log_pdf
from .network import ContractError


@dataclass
class DialectRegion:
    name: str
    points: list  # GeoPoints of populous-city proxies
    terms: list  # gold dialect terms

    def __post_init__(self):
        if not self.points or not self.terms:
            raise ValueError(f"region {self.name!r} needs points and terms")


def gaussian_layer_forward_batch(params, X, log_domain=False):
    """Per-component activations of the component bank in ``params`` for N
    input points.

    Activation is the raw component density N(x|mu_k, Sigma_k) (or its log
    with ``log_domain``); the layer has no mixing weights.  Returns
    (activations N x K, cache for backward).
    """
    terms = component_terms(params, np.asarray(X, dtype=float))
    log_n = component_log_pdf(*terms[:5])
    acts = log_n if log_domain else np.exp(log_n)
    return acts, (terms, log_n, log_domain)


def gaussian_layer_backward(params, cache, d_acts):
    """Gradients of the loss w.r.t. the layer parameters given dLoss/dActs."""
    terms, log_n, log_domain = cache
    return component_grads(params, terms, d_acts if log_domain else d_acts * np.exp(log_n))


def dialect_loss(logits, targets):
    """Mean cross-entropy of l1-normalized targets against softmax(logits).

    All-zero target rows are skipped; gradient is w.r.t. the pre-softmax
    logits.  Returns (loss, dLoss/dLogits).
    """
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if np.any(targets < 0.0):
        raise ContractError("target rows must be nonnegative")
    row_mass = targets.sum(axis=1)
    active = row_mass > 0.0
    n_active = int(active.sum())
    if n_active == 0:
        return 0.0, np.zeros_like(logits)
    log_p = log_softmax(logits)
    p = np.exp(log_p)
    loss = -float(np.sum(targets[active] * log_p[active]) / n_active)
    d_logits = np.where(active[:, None], p - targets, 0.0) / n_active
    return loss, d_logits


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


def dialect_score(log_probs_at_points, in_region_mask):
    """Mean log-probability over in-region points minus mean over all points."""
    mask = np.asarray(in_region_mask, dtype=bool)
    if not mask.any():
        raise ValueError("no sampled points fall inside the region")
    lp = np.asarray(log_probs_at_points, dtype=float)
    return float(lp[mask].mean() - lp.mean())


def score_vocabulary(log_prob_matrix, in_region_mask):
    """dialect_score for every vocabulary column of a P x V log-prob matrix."""
    mask = np.asarray(in_region_mask, dtype=bool)
    if not mask.any():
        raise ValueError("no sampled points fall inside the region")
    lp = np.asarray(log_prob_matrix, dtype=float)
    return lp[mask].mean(axis=0) - lp.mean(axis=0)


def dialect_rank(terms, scores):
    """Vocabulary ranked by score descending; ties lexicographic."""
    order = sorted(range(len(terms)), key=lambda i: (-scores[i], terms[i]))
    return [(terms[i], float(scores[i])) for i in order]


def recall_at_k(ranked_terms, gold_terms, k, vocab_terms):
    """|top-k intersect gold| / |gold-in-vocab|; OOV gold reported separately.

    Returns (recall or None when no gold term is in vocabulary, oov list).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vocab_set = set(vocab_terms)
    in_vocab = [g for g in gold_terms if g in vocab_set]
    oov = [g for g in gold_terms if g not in vocab_set]
    if not in_vocab:
        return None, oov
    top = set(ranked_terms[:k])
    return len(top & set(in_vocab)) / len(in_vocab), oov


def region_membership(p, region, radius_km=161.0):
    """True iff p is within radius_km of any of the region's city points."""
    if radius_km <= 0.0:
        raise ValueError("radius_km must be positive")
    if not region.points:
        raise ContractError(f"region {region.name!r} has no points")
    return any(haversine_km(p, c) <= radius_km for c in region.points)


def read_regions(path):
    """Region file: name TAB lat,lon;lat,lon TAB term,term per line."""
    regions = []
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            try:
                name, pts, terms = line.split("\t")
                points = [GeoPoint(*map(float, p.split(","))) for p in pts.split(";")]
                regions.append(DialectRegion(name=name, points=points,
                                             terms=[t for t in terms.split(",") if t]))
            except (ValueError, TypeError) as e:
                raise ValueError(f"malformed region file line {ln}: {e}") from e
    return regions


def write_ranking_tsv(path, ranked):
    with open(path, "w", encoding="utf-8") as f:
        f.write("rank\tterm\tscore\n")
        for i, (term, score) in enumerate(ranked, 1):
            f.write(f"{i}\t{term}\t{score!r}\n")
