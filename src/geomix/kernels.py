"""The bivariate Gaussian core, numpy alone: the transforms of raw network
outputs (softplus floored at SIGMA_MIN for sigmas, softsign for rhos,
log-softmax for mixing weights), the clamp floors and the mixture density.

The Gaussian kernels broadcast: N x K offsets take sigma and rho as N x K
arrays or as shared 1 x K rows, whose K-only subterms are then computed once
per component.  ``row_blocks`` bounds the wide outputs of the mixture
log-likelihood over a heatmap grid or a dev set, of the dialect model's
V-wide logits and of the k-means assignments; training
batches, and the mixture arrays behind ``predict`` and ``evaluate``, are not
blocked.
"""

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))

# Clamp floors.  SIGMA_MIN keeps sigma strictly positive even when the raw
# pre-softplus value is hugely negative; Q_MIN keeps 1 - rho^2 away from zero
# when rho saturates.  Both clamp zones are stop-gradient regions.
SIGMA_MIN = 1e-6
Q_MIN = 1e-9
# float64 values in one row block of a wide output: 2 MB, about one core's L2.
# Under the CLI's allocator policy a block's temporaries are reused from the
# heap by the next block instead of being mapped and faulted in afresh.  Block
# size sweep, median seconds of the shared-MDN heatmap (10 000 points x
# K = 900) / ``dialect`` (P = 10 000, V ~ 3 200) in fresh processes on 2 vCPUs
# of a Xeon with 2 MB L2 a core: 2^15 0.32 / 0.74-0.89, 2^16 0.27 / 0.63,
# 2^17 0.29 / 0.61, 2^18 0.28 / 0.58, 2^19 0.32 / 0.60, 2^20 0.34 / 0.62,
# 2^21 0.32-0.45 / 0.68.
ROW_BLOCK_ELEMS = 1 << 18


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
