"""Bivariate Gaussian kernels against an independent matrix-form oracle,
mixtures in array form, plus the constraint transforms, which need no scipy."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, logsumexp
from scipy.stats import multivariate_normal

import geomix
from geomix import kernels
from geomix.kernels import inv_softplus, log_softmax, softplus, softplus_grad, softsign, softsign_grad


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


def test_softplus_grad_is_the_logistic():
    """softplus_grad against scipy's expit, from 0 and -0 out to +-1e6 and +-inf,
    across the range where exp(-x) overflows and the logistic underflows."""
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-1e6, 1e6, 20_000), rng.normal(scale=40.0, size=20_000),
                        rng.normal(size=20_000), np.linspace(-760.0, -700.0, 20_001),
                        [0.0, -0.0, 1e6, -1e6, np.inf, -np.inf]])
    np.testing.assert_allclose(softplus_grad(x), expit(x), rtol=1e-15, atol=0.0)
    assert softplus_grad(np.inf) == 1.0 and softplus_grad(-np.inf) == 0.0
    assert softplus_grad(0.0) == softplus_grad(-0.0) == 0.5


def test_softplus_grad_warns_nowhere():
    """exp(-x) overflows at x = -800; the logistic is then 0, with no warning
    under numpy's default error state."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert softplus_grad(-800.0) == 0.0
        assert np.all(softplus_grad(np.array([-800.0, -1e6, -np.inf])) == 0.0)


def test_cli_loads_only_scipy_sparse():
    """The Gaussian core is numpy alone: importing the CLI in a fresh
    interpreter loads no public scipy subpackage besides sparse (and the
    version module scipy itself imports)."""
    code = ("import sys, geomix.cli; print(' '.join(sorted({m.split('.')[1] for m in sys.modules "
            "if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(Path(geomix.__file__).parents[1])))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["sparse", "version"]


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
    p = np.exp(log_softmax(v))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)
    np.testing.assert_allclose(log_softmax(v), v - logsumexp(v, axis=1, keepdims=True), atol=1e-9)
    # shift invariance
    np.testing.assert_allclose(np.exp(log_softmax(v + 123.0)), p, atol=1e-12)
