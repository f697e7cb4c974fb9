"""Geolocation output heads: MDN, shared-parameter MDN, regression baseline.

Raw network output for the MDN head is N x 6K with block layout
[mu1 | mu2 | sigma1' | sigma2' | rho' | pi'] (K columns each); primed blocks
are pre-transform.  Losses return both the scalar and the gradient with
respect to the raw output (and the shared parameters where applicable),
factored through per-sample responsibilities.

The K Gaussians that every user shares, in the shared MDN and in the dialect
model's representation layer, are one component bank of ``params`` blocks
(``mus``, ``raw_sigmas``, ``raw_rhos``) handled by the ``*_components`` and
``component_*`` functions below.
"""

from dataclasses import dataclass

import numpy as np

from .cluster import kmeans
from .gaussian import inv_softplus, log_softmax, softplus, softplus_grad, softsign, softsign_grad
from .kernels import SIGMA_MIN, component_log_pdf, log_pdf_partials, logsumexp_rows
from .network import ContractError, TrainingError

SLICE_LAYOUT = "mu1|mu2|sigma1|sigma2|rho|pi"


@dataclass
class MdnHeadConfig:
    K: int
    selection_rule: str = "strongest_pi"  # or "max_mixture_prob"

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.selection_rule not in ("strongest_pi", "max_mixture_prob"):
            raise ValueError(f"unknown selection rule: {self.selection_rule}")


def _clamped_sigma(raw):
    s = softplus(raw)
    return np.maximum(s, SIGMA_MIN), s > SIGMA_MIN


def unpack_arrays(raw, K):
    """Raw N x 6K -> (mu1, mu2, sigma1, sigma2, rho, pi) arrays, each N x K."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != 6 * K:
        raise ContractError(f"raw width {raw.shape} incompatible with 6K = {6 * K}")
    mu1, mu2 = raw[:, :K], raw[:, K:2 * K]
    s1, _ = _clamped_sigma(raw[:, 2 * K:3 * K])
    s2, _ = _clamped_sigma(raw[:, 3 * K:4 * K])
    rho = softsign(raw[:, 4 * K:5 * K])
    pi = np.exp(log_softmax(raw[:, 5 * K:]))
    return mu1, mu2, s1, s2, rho, pi


def _mixture_terms(d1, d2, s1, s2, rho, log_pi):
    log_joint = log_pi + component_log_pdf(d1, d2, s1, s2, rho)
    ll = logsumexp_rows(np.ascontiguousarray(log_joint))
    gamma = np.exp(log_joint - ll[:, None])
    return ll, gamma


def mdn_nll(raw, labels, K):
    """Mean NLL of the unpacked per-sample mixtures; returns (loss, dLoss/dRaw)."""
    raw = np.asarray(raw, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise TrainingError("non-finite raw MDN output")
    N = raw.shape[0]
    mu1, mu2 = raw[:, :K], raw[:, K:2 * K]
    rs1, rs2 = raw[:, 2 * K:3 * K], raw[:, 3 * K:4 * K]
    rr, rpi = raw[:, 4 * K:5 * K], raw[:, 5 * K:]
    s1, live1 = _clamped_sigma(rs1)
    s2, live2 = _clamped_sigma(rs2)
    rho = softsign(rr)
    log_pi = log_softmax(rpi)
    pi = np.exp(log_pi)
    d1 = labels[:, 0:1] - mu1
    d2 = labels[:, 1:2] - mu2
    ll, gamma = _mixture_terms(d1, d2, s1, s2, rho, log_pi)
    loss = -float(np.mean(ll))
    dmu1, dmu2, ds1, ds2, drho = log_pdf_partials(d1, d2, s1, s2, rho)
    g = gamma / N
    d_raw = np.empty_like(raw)
    d_raw[:, :K] = -g * dmu1
    d_raw[:, K:2 * K] = -g * dmu2
    d_raw[:, 2 * K:3 * K] = -g * ds1 * softplus_grad(rs1) * live1
    d_raw[:, 3 * K:4 * K] = -g * ds2 * softplus_grad(rs2) * live2
    d_raw[:, 4 * K:5 * K] = -g * drho * softsign_grad(rr)
    d_raw[:, 5 * K:] = -(gamma - pi) / N
    return loss, d_raw


def unit_components(K):
    """A bank of K components at the origin with unit sigmas and zero rho.

    The shared MDN and the dialect layer keep their K Gaussians as the
    ``params`` blocks ``mus`` (K x 2), ``raw_sigmas`` (K x 2, pre-softplus)
    and ``raw_rhos`` (K, pre-softsign); this is their placeholder until
    ``init_components`` or a checkpoint fills them.
    """
    return {"mus": np.zeros((K, 2)), "raw_sigmas": np.full((K, 2), float(inv_softplus(1.0))),
            "raw_rhos": np.zeros(K)}


def init_components(coords, K, sigma_range, seed=0):
    """K-means mus over the coordinates, effective sigmas uniform in
    ``sigma_range``, zero rhos."""
    mus = kmeans(np.asarray(coords, dtype=float), K, seed=seed).centroids
    sigmas = np.random.default_rng(seed).uniform(*sigma_range, size=(K, 2))
    # a range starting at 0 can draw 0.0, which has no inverse softplus
    return {"mus": mus, "raw_sigmas": inv_softplus(np.maximum(sigmas, 1e-12)),
            "raw_rhos": np.zeros(K)}


def component_transforms(params):
    """(sigma1, sigma2, rho, (live1, live2)) of the component bank, each of
    length K; the live masks are False where SIGMA_MIN clamps a sigma."""
    s1, live1 = _clamped_sigma(params["raw_sigmas"][:, 0])
    s2, live2 = _clamped_sigma(params["raw_sigmas"][:, 1])
    return s1, s2, softsign(params["raw_rhos"]), (live1, live2)


def component_terms(params, X):
    """The bank at the N points of X: (d1, d2, sigma1, sigma2, rho, live).

    d = x - mu are N x K offsets; sigma and rho are N x K read-only
    broadcast views; live is ``component_transforms``' pair of masks.
    """
    s1, s2, rho, live = component_transforms(params)
    d1 = X[:, 0:1] - params["mus"][None, :, 0]
    d2 = X[:, 1:2] - params["mus"][None, :, 1]
    view = lambda v: np.broadcast_to(v, d1.shape)
    return d1, d2, view(s1), view(s2), view(rho), live


def component_grads(params, terms, w):
    """Gradients over mus / raw_sigmas / raw_rhos given ``w`` = dLoss/dlog N
    (N x K) at the ``component_terms`` points; the SIGMA_MIN and Q_MIN clamp
    zones get 0."""
    d1, d2, s1, s2, rho, (live1, live2) = terms
    dmu1, dmu2, ds1, ds2, drho = log_pdf_partials(d1, d2, s1, s2, rho)
    raw_sigmas = params["raw_sigmas"]
    return {
        "mus": np.stack([(w * dmu1).sum(axis=0), (w * dmu2).sum(axis=0)], axis=1),
        "raw_sigmas": np.stack([
            (w * ds1).sum(axis=0) * softplus_grad(raw_sigmas[:, 0]) * live1,
            (w * ds2).sum(axis=0) * softplus_grad(raw_sigmas[:, 1]) * live2,
        ], axis=1),
        "raw_rhos": (w * drho).sum(axis=0) * softsign_grad(params["raw_rhos"]),
    }


def shared_nll(pi_raw, params, labels):
    """NLL with per-sample pi and the globally shared component bank in ``params``.

    Returns (loss, dLoss/dPiRaw, grads dict over mus / raw_sigmas / raw_rhos).
    """
    pi_raw = np.asarray(pi_raw, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if not np.all(np.isfinite(pi_raw)):
        raise TrainingError("non-finite pi output")
    N = pi_raw.shape[0]
    terms = component_terms(params, labels)
    log_pi = log_softmax(pi_raw)
    ll, gamma = _mixture_terms(*terms[:5], log_pi)
    loss = -float(np.mean(ll))
    # negated after the reduction: a negated weight would flip the sign of zero gradients
    grads = {k: -g for k, g in component_grads(params, terms, gamma / N).items()}
    return loss, -(gamma - np.exp(log_pi)) / N, grads


def predict_arrays(mu1, mu2, s1, s2, rho, pi, rule="strongest_pi"):
    """Per-sample point prediction from mixture arrays (all N x K)."""
    N, K = pi.shape
    out = np.empty((N, 2))
    if rule == "strongest_pi":
        best = np.argmax(pi, axis=1)
        rows = np.arange(N)
        out[:, 0] = mu1[rows, best]
        out[:, 1] = mu2[rows, best]
    elif rule == "max_mixture_prob":
        for n in range(N):
            d1 = mu1[n][:, None] - mu1[n][None, :]
            d2 = mu2[n][:, None] - mu2[n][None, :]
            dens = np.exp(component_log_pdf(d1, d2,
                                            np.broadcast_to(s1[n], (K, K)),
                                            np.broadcast_to(s2[n], (K, K)),
                                            np.broadcast_to(rho[n], (K, K))))
            best = int(np.argmax(dens @ pi[n]))
            out[n] = (mu1[n, best], mu2[n, best])
    else:
        raise ValueError(f"unknown selection rule: {rule}")
    return out


def regression_loss(raw, labels):
    """Squared error summed over the 2 dims, mean over samples."""
    raw = np.asarray(raw, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if raw.shape[1] != 2:
        raise ContractError(f"regression output width must be 2, got {raw.shape[1]}")
    diff = raw - labels
    loss = float(np.sum(diff * diff) / raw.shape[0])
    return loss, 2.0 * diff / raw.shape[0]


def grid_cells(bbox, resolution):
    """Cell centres of a resolution x resolution grid over a bounding box.

    bbox = (lat_min, lat_max, lon_min, lon_max).  Returns (lats, lons,
    points) where points is the row-major (resolution^2) x 2 array of
    (lat, lon) centres, lats varying slowest.
    """
    lat_min, lat_max, lon_min, lon_max = bbox
    if resolution < 2 or lat_max <= lat_min or lon_max <= lon_min:
        raise ValueError("bbox must be non-degenerate with resolution >= 2")
    lats = lat_min + (lat_max - lat_min) / resolution * (np.arange(resolution) + 0.5)
    lons = lon_min + (lon_max - lon_min) / resolution * (np.arange(resolution) + 0.5)
    glat, glon = np.meshgrid(lats, lons, indexing="ij")
    return lats, lons, np.stack([glat.ravel(), glon.ravel()], axis=1)


def predictive_density_grid(mixture, points):
    """Mixture log-density at each of the P x 2 (lat, lon) ``points``.

    ``mixture`` is one sample's (mu1, mu2, sigma1, sigma2, rho, pi), each of
    length K, in ``unpack_arrays`` order; pi is renormalised to sum to 1.
    """
    mu1, mu2, s1, s2, rho, pi = mixture
    d1 = points[:, 0:1] - mu1[None, :]
    d2 = points[:, 1:2] - mu2[None, :]
    with np.errstate(divide="ignore"):
        log_joint = np.log(pi / pi.sum())[None, :] + component_log_pdf(
            d1, d2, np.broadcast_to(s1, d1.shape), np.broadcast_to(s2, d1.shape),
            np.broadcast_to(rho, d1.shape))
    return logsumexp_rows(np.ascontiguousarray(log_joint))
