"""Kernels agree with scipy and with finite differences."""

import numpy as np
from scipy.special import logsumexp as scipy_logsumexp

from geomix import kernels


def random_inputs(rng, shape):
    d1 = rng.normal(scale=3.0, size=shape)
    d2 = rng.normal(scale=3.0, size=shape)
    s1 = rng.uniform(0.3, 4.0, size=shape)
    s2 = rng.uniform(0.3, 4.0, size=shape)
    rho = rng.uniform(-0.95, 0.95, size=shape)
    return d1, d2, s1, s2, rho


def test_logsumexp_matches_scipy_and_handles_extremes():
    rng = np.random.default_rng(3)
    a = rng.normal(scale=300.0, size=(20, 6))
    np.testing.assert_allclose(kernels.logsumexp_rows(a),
                               scipy_logsumexp(a, axis=1), rtol=1e-12)
    inf_row = np.full((1, 4), -np.inf)
    assert kernels.logsumexp_rows(inf_row)[0] == -np.inf
    # shift invariance
    shift = 1234.5
    np.testing.assert_allclose(kernels.logsumexp_rows(a + shift),
                               kernels.logsumexp_rows(a) + shift, rtol=1e-12)


def test_log_pdf_scalar_value():
    # standard bivariate normal at the mean
    got = kernels.component_log_pdf(np.array([[0.0]]), np.array([[0.0]]),
                                    np.array([[1.0]]), np.array([[1.0]]),
                                    np.array([[0.0]]))
    assert abs(got[0, 0] + kernels.LOG_2PI) < 1e-15


def test_partials_match_finite_differences():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(20):
        d1, d2, s1, s2, rho = (x[0, 0] for x in random_inputs(rng, (1, 1)))
        mu1, mu2 = 0.0, 0.0
        x1, x2 = d1, d2

        def f(m1, m2, a, b, r):
            return kernels.component_log_pdf(
                np.array([[x1 - m1]]), np.array([[x2 - m2]]),
                np.array([[a]]), np.array([[b]]), np.array([[r]]))[0, 0]

        # the moments of one point with w = 1 give its partials
        moments = (1.0, d1, d2, d1 * d1, d2 * d2, d1 * d2)
        analytic = [g[0, 0] for g in kernels.log_pdf_partials(
            *(np.array([[m]]) for m in moments), np.array([[s1]]),
            np.array([[s2]]), np.array([[rho]]))]
        base = (mu1, mu2, s1, s2, rho)
        for i in range(5):
            up = list(base)
            dn = list(base)
            up[i] += h
            dn[i] -= h
            numeric = (f(*up) - f(*dn)) / (2.0 * h)
            rel = abs(analytic[i] - numeric) / max(abs(analytic[i]) + abs(numeric), 1e-8)
            assert rel < 1e-4, (i, rel)


def test_rho_clamp_is_stop_gradient():
    d1 = np.array([[1.0]])
    d2 = np.array([[0.5]])
    s = np.array([[1.0]])
    rho = np.array([[1.0 - 1e-12]])  # 1 - rho^2 below Q_MIN
    out = kernels.log_pdf_partials(np.ones((1, 1)), d1, d2, d1 * d1, d2 * d2, d1 * d2, s, s, rho)
    assert out[4][0, 0] == 0.0
    assert np.isfinite(kernels.component_log_pdf(d1, d2, s, s, rho)).all()
