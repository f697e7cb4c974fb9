"""Inverse model: location -> Gaussian representation layer -> word
distribution, plus dialect-term scoring, ranking and recall@k.
"""

from dataclasses import dataclass

import numpy as np

from .features import text_lines
from .geo import GeoPoint, haversine_km
from .heads import bank_grads, component_grads, component_log_pdfs, component_rows, shared_form
from .kernels import log_softmax
from .network import ContractError


@dataclass
class DialectRegion:
    name: str
    points: np.ndarray  # C x 2 (lat, lon) degrees of populous-city proxies
    terms: list  # gold dialect terms

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if not len(self.points) or not self.terms:
            raise ValueError(f"region {self.name!r} needs points and terms")


def gaussian_layer_forward_batch(params, X):
    """Per-component activations of the component bank in ``params`` for N
    input points.

    Activation is the raw component density N(x|mu_k, Sigma_k); the layer has
    no mixing weights.  Returns (activations N x K, cache for backward).
    """
    rows = component_rows(params)
    log_n, terms = component_log_pdfs(rows, np.asarray(X, dtype=float), shared_form(rows))
    acts = np.exp(log_n)
    return acts, (terms, acts)


def gaussian_layer_backward(params, cache, d_acts):
    """Gradients of the loss w.r.t. the layer parameters given dLoss/dActs."""
    terms, acts = cache
    w = d_acts * acts  # dN/dlog N is N, the kept activation
    return bank_grads(component_grads(component_rows(params), terms, w))


def target_log_likelihood(log_p, targets):
    """Sum of ``targets * log_p`` over the target rows with positive mass,
    and the boolean mask of those rows.

    ``targets`` holds nonnegative word weights, one row per ``log_p`` row.
    """
    targets = np.asarray(targets, dtype=float)
    if np.any(targets < 0.0):
        raise ContractError("target rows must be nonnegative")
    active = targets.sum(axis=1) > 0.0
    return np.sum(targets[active] * log_p[active]), active


def dialect_loss(logits, targets):
    """Mean cross-entropy of l1-normalized targets against softmax(logits).

    All-zero target rows are skipped; gradient is w.r.t. the pre-softmax
    logits.  Returns (loss, dLoss/dLogits).
    """
    log_p = log_softmax(np.asarray(logits, dtype=float))
    ll, active = target_log_likelihood(log_p, targets)
    n_active = int(active.sum())
    if n_active == 0:
        return 0.0, np.zeros_like(log_p)
    loss = -float(ll / n_active)
    d_logits = np.where(active[:, None], np.exp(log_p) - targets, 0.0) / n_active
    return loss, d_logits


def region_weights(counts, inside):
    """R x D weights w, with w @ log_p each region's word scores: the mean
    log-probability over the region's draws minus the mean over all P draws,
    for ``counts`` draws of each of D distinct points and their R x D region
    membership ``inside``.  Each row sums to zero."""
    n = inside @ counts
    if not n.all():
        raise ValueError("no sampled points fall inside the region")
    return inside * (counts / n[:, None]) - counts / counts.sum()


def dialect_rank(terms, scores):
    """Vocabulary ranked by score descending; ties by term in code-point
    order, Python's str order."""
    scores = np.asarray(scores, dtype=float)
    term_rank = np.empty(len(terms), dtype=np.intp)
    term_rank[sorted(range(len(terms)), key=terms.__getitem__)] = np.arange(len(terms))
    order = np.lexsort((term_rank, -scores)).tolist()
    return list(zip([terms[i] for i in order], scores[order].tolist()))


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


def region_membership(points, region, radius_km=161.0):
    """N-length mask: which of the N x 2 points lie within radius_km of any
    of the region's city points."""
    if not radius_km > 0.0:
        raise ValueError("radius_km must be positive")
    if not len(region.points):
        raise ContractError(f"region {region.name!r} has no points")
    points = np.asarray(points, dtype=float)
    return (haversine_km(points[:, None], region.points[None]) <= radius_km).any(axis=1)


def read_regions(path):
    """Region file: name TAB lat,lon;lat,lon TAB term,term per line."""
    regions = []
    for ln, line in text_lines(path, ValueError):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        try:
            name, pts, terms = line.split("\t")
            points = [GeoPoint(*map(float, p.split(","))) for p in pts.split(";")]
            regions.append(DialectRegion(name=name, points=[(c.lat, c.lon) for c in points],
                                         terms=[t for t in terms.split(",") if t]))
        except (ValueError, TypeError) as e:
            raise ValueError(f"{path}:{ln}: malformed region line: {e}") from e
    return regions


def write_ranking_tsv(path, ranked):
    with open(path, "w", encoding="utf-8") as f:
        f.write("rank\tterm\tscore\n")
        f.writelines(f"{i}\t{term}\t{score!r}\n" for i, (term, score) in enumerate(ranked, 1))
