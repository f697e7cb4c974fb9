"""The bivariate Gaussian core, numpy alone: the transforms of raw network
outputs (softplus floored at SIGMA_MIN for sigmas, softsign for rhos,
log-softmax for mixing weights), the clamp floors and the mixture density.

A density has two paths.  N x K rows, one set of K components per point
(the MDN's per-user mixtures), go elementwise: ``component_log_pdf`` of
the N x K offsets d = x - mu.  A 1 x K bank that every point shares (the shared MDN's and the
dialect layer's bank, a heatmap's one mixture, the K x K density of
``max_mixture_prob``) is a quadratic form in x, so its N x K log-density is
one contraction, ``bank_log_pdf``: the points' N x 6 ``quadratic_features``
[y1^2, y2^2, y1*y2, y1, y2, 1] of y = x - centre times the bank's 6 x K
``quadratic_coefficients``, built once a call from the mus, the clamped
sigmas and rhos and Q_MIN.  The centre is the mean of the bank's mus, the same
for every row block.  It keeps the features small, and so the cancellation
between the six terms: the contraction differs from the elementwise density
by at most about 21 eps times the sum of the absolute values of its terms and
of the elementwise terms (tests/test_quadratic_form.py derives the count).
That sum is largest for a narrow component far from the centre: at a
SIGMA_MIN component's own mean the error scales as eps (r / sigma)^2, r its
distance from the centre.  The bank's gradient moments are w^T F (6 x K),
shifted to each mean (``bank_moments``).  Both contractions are ``einsum``
rather than BLAS, so a row's value does not depend on the rows beside it.

``row_blocks`` bounds the wide outputs of the mixture log-likelihood over a
heatmap grid or a dev set, of the dialect model's V-wide logits, of the
k-means assignments and of the elastic-net pass over W; training batches, and
the mixture arrays behind ``predict`` and ``evaluate``, are not blocked.
Importing this module sets the allocator policy they rely on (see
``ROW_BLOCK_ELEMS``).
"""

import ctypes

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))

# Clamp floors.  SIGMA_MIN keeps sigma strictly positive even when the raw
# pre-softplus value is hugely negative; Q_MIN keeps 1 - rho^2 away from zero
# when rho saturates.  Both clamp zones are stop-gradient regions.
SIGMA_MIN = 1e-6
Q_MIN = 1e-9
# float64 values in one row block of a wide output: 2 MB, about one core's L2
# and about glibc's dynamic mmap threshold, so each block temporary would be
# mapped, faulted in and unmapped afresh.  Importing this module sets through
# ``mallopt`` that blocks up to 32 MB (glibc's own cap) come from the heap and
# that up to 128 MB of freed memory stays at its top for the next block and
# call (a 10 000 x 900 shared-MDN heatmap: 33 700 faults and 0.13-0.22 s a call
# without, 0 and 0.08-0.11 s with).  Block size sweep, median s of the
# shared-MDN heatmap (10 000 points x K = 900) / ``dialect`` (P = 10 000,
# V ~ 3 200), fresh processes, 2 vCPUs of a Xeon with 2 MB L2 a core: 2^15 0.32
# / 0.74-0.89, 2^16 0.27 / 0.63, 2^17 0.29 / 0.61, 2^18 0.28 / 0.58, 2^19 0.32
# / 0.60, 2^20 0.34 / 0.62, 2^21 0.32-0.45 / 0.68.
ROW_BLOCK_ELEMS = 1 << 18
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 4 * MMAP_THRESHOLD


def _set_allocator_policy():
    """Set the policy above through glibc's ``mallopt``; nothing where there is none."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_set_allocator_policy()


def softplus(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0))))


def softplus_grad(x):
    """The logistic function, softplus's derivative."""
    with np.errstate(over="ignore"):  # exp(-x) overflows to inf below x ~ -709, giving 0
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def inv_softplus(y):
    """Raw value whose softplus is y (y > 0)."""
    y = np.asarray(y, dtype=float)
    return np.where(y > 30.0, y, np.log(np.expm1(np.maximum(y, 1e-300))))


def clamped_sigma(raw):
    """(softplus(raw) floored at SIGMA_MIN, the mask where the floor is not hit)."""
    s = softplus(raw)
    return np.maximum(s, SIGMA_MIN), s > SIGMA_MIN


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


def row_blocks(n_rows, width):
    """Slices of ``n_rows`` rows, each at most ``ROW_BLOCK_ELEMS // width`` rows and at least one."""
    step = max(1, ROW_BLOCK_ELEMS // width)
    return (slice(start, start + step) for start in range(0, n_rows, step))


def component_log_pdf(d1, d2, s1, s2, rho):
    """log N(d | 0, Sigma(s1, s2, rho)) for offsets d = x - mu."""
    q = np.maximum(1.0 - rho * rho, Q_MIN)
    z = d1 * d1 / (s1 * s1) - 2.0 * rho * d1 * d2 / (s1 * s2) + d2 * d2 / (s2 * s2)
    return -LOG_2PI - np.log(s1) - np.log(s2) - 0.5 * np.log(q) - z / (2.0 * q)


def quadratic_features(X, centre):
    """N x 6 features [y1^2, y2^2, y1*y2, y1, y2, 1] of the points X offset to
    y = x - centre."""
    y1, y2 = X[:, 0] - centre[0], X[:, 1] - centre[1]
    return np.stack([y1 * y1, y2 * y2, y1 * y2, y1, y2, np.ones_like(y1)], axis=1)


def quadratic_coefficients(m1, m2, s1, s2, rho):
    """6 x K coefficients C of the bank's log N(y | m_k, Sigma_k) in the
    ``quadratic_features`` of y, for means m given in the features' frame:
    the quadratic form -z / (2q) of ``component_log_pdf`` expanded about the
    frame's origin, its constant holding the log terms.  K-vectors or 1 x K
    rows in; C row f multiplies feature f."""
    q = np.maximum(1.0 - rho * rho, Q_MIN)
    a1, a2, h = 1.0 / s1, 1.0 / s2, 0.5 / q
    c11, c22, c12 = -h * (a1 * a1), -h * (a2 * a2), (rho / q) * (a1 * a2)
    l1, l2 = -(2.0 * c11 * m1 + c12 * m2), -(2.0 * c22 * m2 + c12 * m1)
    const = ((c11 * m1 * m1 + c22 * m2 * m2 + c12 * m1 * m2)
             - LOG_2PI - np.log(s1) - np.log(s2) - 0.5 * np.log(q))
    return np.stack([np.ravel(c) for c in (c11, c22, c12, l1, l2, const)])


def quadratic_form(mu1, mu2, s1, s2, rho):
    """(centre, m1, m2, C) of a bank of K components that every point shares:
    the mean of the mus as the centre of the features, the mus in that frame
    (m = mu - centre, shaped like mu) and their ``quadratic_coefficients``.
    Centring keeps the features of nearby points small, and with them the
    cancellation between the contraction's terms."""
    centre = (np.mean(mu1), np.mean(mu2))
    m1, m2 = mu1 - centre[0], mu2 - centre[1]
    return centre, m1, m2, quadratic_coefficients(m1, m2, s1, s2, rho)


def bank_log_pdf(F, C):
    """N x K log N(x_n | mu_k, Sigma_k): the contraction of the points'
    ``quadratic_features`` F with the bank's coefficients C.  ``einsum``, not
    BLAS: a row's value does not depend on how many rows come with it."""
    return np.einsum("nf,fk->nk", F, C)


def bank_moments(w, F, m1, m2):
    """The six weighted moments of ``log_pdf_partials`` for a bank, summed over
    the N points with weights w (N x K): w^T F (sums of w times each feature)
    shifted from the features' frame to each component's mean m, shaped like m."""
    w11, w22, w12, w1, w2, w0 = (r.reshape(np.shape(m1)) for r in np.einsum("nk,nf->fk", w, F))
    d1, d2 = w1 - m1 * w0, w2 - m2 * w0
    return w0, d1, d2, w11 - m1 * (w1 + d1), w22 - m2 * (w2 + d2), w12 - m1 * w2 - m2 * d1


def log_pdf_partials(m0, m1, m2, m11, m22, m12, s1, s2, rho):
    """Sums of w times the partials of ``component_log_pdf`` w.r.t. (mu1, mu2,
    s1, s2, rho) over points that share (s1, s2, rho), from the weighted moments
    of their offsets: sum w, w*d1, w*d2, w*d1*d1, w*d2*d2 and w*d1*d2.  Exact in
    real arithmetic; the moments of one point with w = 1 give its partials."""
    r2 = rho * rho
    iq = 1.0 / np.maximum(1.0 - r2, Q_MIN)
    a1, a2 = 1.0 / s1, 1.0 / s2
    u1, u2 = m1 * a1, m2 * a2
    v11, v22 = m11 * a1 * a1, m22 * a2 * a2
    cross = m12 * a1 * a2
    rc = rho * cross
    dmu1 = (u1 - rho * u2) * (a1 * iq)
    dmu2 = (u2 - rho * u1) * (a2 * iq)
    ds1 = ((v11 - rc) * iq - m0) * a1
    ds2 = ((v22 - rc) * iq - m0) * a2
    drho = (rho * m0 + cross - rho * (v11 + v22 - 2.0 * rc) * iq) * iq
    return dmu1, dmu2, ds1, ds2, np.where(1.0 - r2 > Q_MIN, drho, 0.0)  # clamped q: stop-gradient


def logsumexp_rows(a):
    """Row-wise log(sum(exp(a))) of an N x K array; all -inf rows give -inf."""
    m = np.max(a, axis=1)
    shift = np.where(np.isfinite(m), m, 0.0)
    s = np.sum(np.exp(a - shift[:, None]), axis=1)
    with np.errstate(divide="ignore"):
        out = shift + np.log(s)
    return np.where(m == -np.inf, -np.inf, out)
