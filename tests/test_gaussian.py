"""Bivariate Gaussian kernels against an independent matrix-form oracle,
mixtures in array form, plus the constraint transforms."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from geomix import kernels
from geomix.gaussian import (inv_softplus, log_softmax, softmax, softmax_jvp, softplus,
                             softplus_grad, softsign, softsign_grad)


def log_pdf(g, x):
    """log N(x | g) through the kernel, g = (mu1, mu2, sigma1, sigma2, rho)."""
    mu1, mu2, s1, s2, rho = (np.array([[v]], dtype=float) for v in g)
    return float(kernels.component_log_pdf(x[0] - mu1, x[1] - mu2, s1, s2, rho)[0, 0])


def mixture_log_pdf(components, weights, x):
    """logsumexp_k of log pi_k + log N_k(x) over 1 x K arrays."""
    mu1, mu2, s1, s2, rho = (np.array([[c[i] for c in components]], dtype=float) for i in range(5))
    with np.errstate(divide="ignore"):
        log_joint = np.log(np.asarray(weights, dtype=float))[None, :] + \
            kernels.component_log_pdf(x[0] - mu1, x[1] - mu2, s1, s2, rho)
    return float(kernels.logsumexp_rows(log_joint)[0])


def oracle_log_pdf(g, x):
    mu1, mu2, s1, s2, rho = g
    cov = np.array([[s1 ** 2, rho * s1 * s2],
                    [rho * s1 * s2, s2 ** 2]])
    return multivariate_normal(mean=[mu1, mu2], cov=cov).logpdf(list(x))


def test_log_pdf_matrix_oracle_fixed_point():
    g = (2.0, -3.0, 1.5, 0.7, -0.3)
    x = (2.7, -2.1)
    assert abs(log_pdf(g, x) - oracle_log_pdf(g, x)) < 1e-10


def test_log_pdf_matrix_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = (rng.normal(scale=10), rng.normal(scale=10),
             rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0),
             rng.uniform(-0.95, 0.95))
        x = (float(rng.uniform(-80, 80)), float(rng.uniform(-170, 170)))
        want = oracle_log_pdf(g, x)
        # relative tolerance: deep-tail log densities reach 1e5 in magnitude
        assert abs(log_pdf(g, x) - want) < 1e-10 * max(1.0, abs(want))


def test_standard_normal_peak():
    g = (0.0, 0.0, 1.0, 1.0, 0.0)
    assert abs(np.exp(log_pdf(g, (0.0, 0.0))) - 1.0 / (2.0 * np.pi)) < 1e-12
    assert abs(log_pdf(g, (0.0, 0.0)) + np.log(2.0 * np.pi)) < 1e-12


def test_mixture_log_pdf_single_component_and_zero_weights():
    g = (1.0, 2.0, 0.8, 1.2, 0.4)
    x = (0.5, 1.5)
    assert abs(mixture_log_pdf((g,), (1.0,), x) - log_pdf(g, x)) < 1e-12
    other = (50.0, 50.0, 1.0, 1.0, 0.0)
    assert abs(mixture_log_pdf((g, other), (1.0, 0.0), x) - log_pdf(g, x)) < 1e-12


def test_mixture_log_pdf_two_components():
    a = (0.0, 0.0, 1.0, 1.0, 0.0)
    b = (3.0, 4.0, 2.0, 1.0, 0.5)
    x = (1.0, 1.0)
    direct = np.log(0.3 * np.exp(log_pdf(a, x)) + 0.7 * np.exp(log_pdf(b, x)))
    assert abs(mixture_log_pdf((a, b), (0.3, 0.7), x) - direct) < 1e-12


def test_logsumexp_shift_invariance_and_empty():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(1, 12))
    assert abs(kernels.logsumexp_rows(v + 500.0)[0] - (kernels.logsumexp_rows(v)[0] + 500.0)) < 1e-9
    with pytest.raises(ValueError):
        kernels.logsumexp_rows(np.empty((1, 0)))


def test_softplus_properties():
    x = np.linspace(-40, 40, 201)
    y = softplus(x)
    assert np.all(y > 0)
    np.testing.assert_allclose(y, np.log1p(np.exp(np.minimum(x, 30))) + np.maximum(x - 30, 0),
                               rtol=1e-9, atol=1e-9)
    # round trip
    vals = np.array([1e-6, 0.1, 1.0, 10.0, 35.0])
    np.testing.assert_allclose(softplus(inv_softplus(vals)), vals, rtol=1e-9)
    assert abs(softplus(np.array(0.0)) - np.log(2.0)) < 1e-15


def test_softsign_properties():
    x = np.array([-1e6, -2.0, 0.0, 3.0, 1e6])
    y = softsign(x)
    assert np.all(np.abs(y) < 1.0)
    assert y[2] == 0.0
    assert abs(softsign(np.array(1.0)) - 0.5) < 1e-15


def test_transform_grads_match_fd():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(50):
        x = rng.normal(scale=3.0)
        fd_sp = (softplus(x + h) - softplus(x - h)) / (2 * h)
        assert abs(softplus_grad(x) - fd_sp) < 1e-6
        fd_ss = (softsign(x + h) - softsign(x - h)) / (2 * h)
        assert abs(softsign_grad(x) - fd_ss) < 1e-6


def test_softmax_and_log_softmax():
    rng = np.random.default_rng(3)
    v = rng.normal(scale=100.0, size=(5, 8))
    p = softmax(v)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)
    np.testing.assert_allclose(np.log(p), log_softmax(v), atol=1e-9)
    # shift invariance
    np.testing.assert_allclose(softmax(v + 123.0), p, atol=1e-12)


def test_softmax_jvp_matches_fd():
    rng = np.random.default_rng(4)
    v = rng.normal(size=6)
    dv = rng.normal(size=6)
    h = 1e-6
    fd = (softmax(v + h * dv) - softmax(v - h * dv)) / (2 * h)
    np.testing.assert_allclose(softmax_jvp(softmax(v), dv), fd, atol=1e-6)
