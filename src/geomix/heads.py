"""Geolocation output heads: MDN, shared-parameter MDN, regression baseline.

Raw network output for the MDN head is N x 6K with block layout
[mu1 | mu2 | sigma1' | sigma2' | rho' | pi'] (K columns each); primed blocks
are pre-transform.  A checkpoint's format version fixes this layout.  Losses
return both the scalar and the gradient with respect to the raw output (and
the shared parameters where applicable), factored through per-sample
responsibilities.

Every mixture reaches the Gaussian math as five component rows (mu1, mu2,
raw sigma1, raw sigma2, raw rho): N x K blocks of the MDN's raw output, or
1 x K views of the component bank, the ``params`` blocks ``mus``,
``raw_sigmas`` and ``raw_rhos`` that the shared MDN and the dialect layer
keep.  A density takes one of two paths (see ``kernels``), and the caller
picks it with a form: ``shared_form`` gives 1 x K rows that every point
shares their centre and 6 x K coefficients once a call, and
``component_log_pdfs`` contracts the points' quadratic features with them;
None sends the rows through the elementwise offsets of ``component_terms``.
The MDN's per-user rows always take None, even for one user, so a user's
loss and gradient do not depend on the batch around it.
``component_grads`` reads the path off the terms it is handed: the bank's
moments as w^T F, the offsets' per point.
"""

import numpy as np

from .cluster import kmeans
from .geo import GeoPoint, clip_points
from .kernels import (bank_log_pdf, bank_moments, clamped_sigma, component_log_pdf, inv_softplus,
                      log_pdf_partials, log_softmax, logsumexp_rows, quadratic_features, quadratic_form,
                      row_blocks, softplus_grad, softsign, softsign_grad)
from .network import ContractError, TrainingError


def mdn_rows(raw, K):
    """The MDN's raw N x 6K output as its five N x K component rows and its
    N x K raw pi block (views)."""
    *rows, raw_pi = np.split(raw, K * np.arange(1, 6), axis=1)
    return rows, raw_pi


def mixture_arrays(rows, raw_pi):
    """(mu1, mu2, sigma1, sigma2, rho, pi) of component rows and an N x K raw pi."""
    mu1, mu2, rs1, rs2, rr = rows
    return (mu1, mu2, clamped_sigma(rs1)[0], clamped_sigma(rs2)[0], softsign(rr),
            np.exp(log_softmax(raw_pi)))


def _check_finite(rows, raw_pi):
    if not all(np.isfinite(a).all() for a in (*rows, raw_pi)):
        raise TrainingError("non-finite mixture parameters")


def mixture_log_likelihood(rows, raw_pi, labels, form):
    """Log-likelihood of each label under its mixture of component rows and
    raw pi, along the path of ``form``: (N log-likelihoods, N x K log pi +
    log N, log pi, the terms of ``component_log_pdfs``)."""
    log_joint, terms = component_log_pdfs(rows, np.asarray(labels, dtype=float), form)
    log_pi = log_softmax(raw_pi)
    log_joint += log_pi  # in place: the log-densities are this call's own array
    return logsumexp_rows(log_joint), log_joint, log_pi, terms


def _mixture_nll(rows, raw_pi, labels, form):
    """Mean NLL of the labels under the mixtures of component rows and raw pi,
    which must be finite, along the path of ``form``.

    Returns (loss, dLoss/dRawPi, the five dLoss/dRow in ``rows`` order).
    """
    _check_finite(rows, raw_pi)
    ll, log_joint, log_pi, terms = mixture_log_likelihood(rows, raw_pi, labels, form)
    gamma = np.exp(log_joint - ll[:, None])
    N = len(ll)
    # negated after the reduction: a negated weight would flip the sign of zero gradients
    grads = [-g for g in component_grads(rows, terms, gamma / N)]
    return -float(np.mean(ll)), -(gamma - np.exp(log_pi)) / N, grads


def mdn_nll(raw, labels, K):
    """Mean NLL of the unpacked per-sample mixtures, each elementwise; returns
    (loss, dLoss/dRaw)."""
    loss, d_pi, grads = _mixture_nll(*mdn_rows(np.asarray(raw, dtype=float), K), labels, None)
    return loss, np.concatenate([*grads, d_pi], axis=1)


def shared_nll(pi_raw, params, labels):
    """NLL with per-sample pi and the globally shared component bank in ``params``.

    Returns (loss, dLoss/dPiRaw, grads dict over mus / raw_sigmas / raw_rhos).
    """
    rows = component_rows(params)
    loss, d_pi, grads = _mixture_nll(rows, np.asarray(pi_raw, dtype=float), labels, shared_form(rows))
    return loss, d_pi, bank_grads(grads)


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


def component_rows(params):
    """The bank's component rows: 1 x K views of mus, raw_sigmas and raw_rhos."""
    mus, raw_sigmas = params["mus"], params["raw_sigmas"]
    return [mus[None, :, 0], mus[None, :, 1], raw_sigmas[None, :, 0], raw_sigmas[None, :, 1],
            params["raw_rhos"][None]]


def bank_grads(row_grads):
    """The five 1 x K gradients of ``component_rows`` as mus / raw_sigmas / raw_rhos blocks."""
    g1, g2, gs1, gs2, grho = (g[0] for g in row_grads)
    return {"mus": np.stack([g1, g2], axis=1), "raw_sigmas": np.stack([gs1, gs2], axis=1),
            "raw_rhos": grho}


def component_terms(rows, X):
    """Component rows at the N points of X: (d1, d2, sigma1, sigma2, rho, live).

    ``rows`` are (mu1, mu2, raw sigma1, raw sigma2, raw rho), each N x K or a
    1 x K row every point shares.  d = x - mu are N x K offsets; sigma, rho
    and the pair of live masks, False where SIGMA_MIN clamps a sigma, have
    the rows' shape.
    """
    mu1, mu2, rs1, rs2, rr = rows
    s1, live1 = clamped_sigma(rs1)
    s2, live2 = clamped_sigma(rs2)
    return X[:, 0:1] - mu1, X[:, 1:2] - mu2, s1, s2, softsign(rr), (live1, live2)


def shared_form(rows):
    """What the density of 1 x K component rows, which every point shares,
    needs once a call: (centre, C, (m1, m2, sigma1, sigma2, rho, live masks)),
    the bank's ``kernels.quadratic_form`` of its clamped sigmas and rhos and
    the SIGMA_MIN live masks.  None for N x K rows, one row per point: the
    one place the rows' shape picks a path."""
    if len(rows[0]) != 1:
        return None
    mu1, mu2, rs1, rs2, rr = rows
    s1, live1 = clamped_sigma(rs1)
    s2, live2 = clamped_sigma(rs2)
    rho = softsign(rr)
    centre, m1, m2, C = quadratic_form(mu1, mu2, s1, s2, rho)
    return centre, C, (m1, m2, s1, s2, rho, (live1, live2))


def component_log_pdfs(rows, X, form):
    """N x K log-densities of the component rows at the N points of X, and the
    terms ``component_grads`` takes.  With a ``shared_form`` of 1 x K rows:
    the points' ``quadratic_features`` contracted with its coefficients, terms
    (F, m1, m2, sigma1, sigma2, rho, live masks).  With None: N x K rows
    through ``component_log_pdf`` of the ``component_terms`` offsets."""
    if form is None:
        terms = component_terms(rows, X)
        return component_log_pdf(*terms[:5]), terms
    centre, C, terms = form
    F = quadratic_features(X, centre)
    return bank_log_pdf(F, C), (F, *terms)


def component_grads(rows, terms, w):
    """Gradients over the five component rows given ``w`` = dLoss/dlog N
    (N x K) at the points of the terms of ``component_log_pdfs`` (or of
    ``component_terms``), each of its row's shape: the weighted moments of
    the offsets go to ``log_pdf_partials``.  The terms pick the moments: a
    bank's carry its features F and give ``kernels.bank_moments``, w^T F; the
    offsets' are taken per point and summed over the points for a 1 x K row.
    The SIGMA_MIN and Q_MIN clamp zones get 0."""
    _, _, rs1, rs2, rr = rows
    *at, s1, s2, rho, (live1, live2) = terms
    if len(at) == 3:  # a bank's features F and its means in their frame
        moments = bank_moments(w, *at)
    else:  # the offsets d1, d2
        d1, d2 = at
        wd1, wd2 = w * d1, w * d2
        moments = (w, wd1, wd2, wd1 * d1, wd2 * d2, wd1 * d2)
        if rr.shape != w.shape:
            moments = [m.sum(axis=0, keepdims=True) for m in moments]
    dmu1, dmu2, ds1, ds2, drho = log_pdf_partials(*moments, s1, s2, rho)
    return [dmu1, dmu2, ds1 * softplus_grad(rs1) * live1, ds2 * softplus_grad(rs2) * live2,
            drho * softsign_grad(rr)]


def predict_arrays(mu1, mu2, s1, s2, rho, pi, rule="strongest_pi"):
    """N x 2 point predictions, clipped to the globe, from N x K ``pi`` and
    component arrays that are N x K, or 1 x K rows every sample shares.
    ``max_mixture_prob`` builds the K x K density matrix once per component
    row and scores each sample alone."""
    N = len(pi)
    rows = np.minimum(np.arange(N), len(mu1) - 1)
    if rule == "strongest_pi":
        best = np.argmax(pi, axis=1)
    elif rule == "max_mixture_prob":
        best = np.empty(N, dtype=int)
        for n, r in enumerate(rows):
            if r == n:  # a component row not seen before: its K mus under its K components
                centre, _, _, C = quadratic_form(mu1[r], mu2[r], s1[r], s2[r], rho[r])
                F = quadratic_features(np.stack([mu1[r], mu2[r]], axis=1), centre)
                dens = np.exp(bank_log_pdf(F, C))
            best[n] = np.argmax(dens @ pi[n])
    else:
        raise ValueError(f"unknown selection rule: {rule}")
    return clip_points(np.stack([mu1[rows, best], mu2[rows, best]], axis=1))


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
    GeoPoint(lat_min, lon_min)  # refuses NaN, infinite and out-of-range corners
    GeoPoint(lat_max, lon_max)
    if resolution < 2 or lat_max <= lat_min or lon_max <= lon_min:
        raise ValueError("bbox must be non-degenerate with resolution >= 2")
    lats = lat_min + (lat_max - lat_min) / resolution * (np.arange(resolution) + 0.5)
    lons = lon_min + (lon_max - lon_min) / resolution * (np.arange(resolution) + 0.5)
    glat, glon = np.meshgrid(lats, lons, indexing="ij")
    return lats, lons, np.stack([glat.ravel(), glon.ravel()], axis=1)


def predictive_density_grid(rows, raw_pi, points):
    """Log-likelihood of each of the N x 2 (lat, lon) ``points`` under its
    mixture, whose component rows and raw pi must be finite:
    ``mixture_log_likelihood`` in row blocks of the points.  Each of the
    component rows and raw pi is N x K, one row per point, which a block
    slices, or a 1 x K row every point shares (a heatmap's one mixture, the
    shared MDN's bank), which it keeps whole.  The call's rows pick the path:
    1 x K rows get one ``shared_form`` (centre and coefficients) for every
    block and each block contracts its points' features with it, N x K rows
    go through ``component_log_pdf`` even in a one-row block.  The shapes
    cannot tell one MDN user's 1 x K rows from a mixture every point shares,
    so a one-user MDN dev set takes the contraction, as that user's heatmap
    does.  A row's value does not depend on the blocks."""
    _check_finite(rows, raw_pi)
    form = shared_form(rows)
    out = np.empty(len(points))
    for block in row_blocks(len(points), raw_pi.shape[1]):
        *rows_b, raw_pi_b = (a if len(a) == 1 else a[block] for a in (*rows, raw_pi))
        out[block] = mixture_log_likelihood(rows_b, raw_pi_b, points[block], form)[0]
    return out
