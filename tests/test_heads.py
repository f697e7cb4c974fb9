"""Output heads: unpacking, NLL values and gradients, selection rules,
regression loss and the predictive density grid."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from geomix import heads
from geomix.cluster import KMeansInitError, kmeans
from geomix.gaussian import softplus
from geomix.network import ContractError


def mixture_rows(components, weights):
    """1 x K (mu1, mu2, sigma1, sigma2, rho, pi) arrays from per-component tuples."""
    cols = [np.array([[c[i] for c in components]], dtype=float) for i in range(5)]
    return (*cols, np.array([weights], dtype=float))


def predict(components, weights, rule):
    return heads.predict_arrays(*mixture_rows(components, weights), rule)[0]


def test_unpack_widths():
    raw = np.zeros((3, 600))
    arrays = heads.unpack_arrays(raw, 100)
    assert all(a.shape == (3, 100) for a in arrays)
    with pytest.raises(ContractError):
        heads.unpack_arrays(np.zeros((3, 601)), 100)
    with pytest.raises(ContractError):
        heads.unpack_arrays(np.zeros((3, 600)), 99)


def test_unpack_zero_raw():
    mu1, mu2, s1, s2, rho, pi = heads.unpack_arrays(np.zeros((1, 12)), 2)
    np.testing.assert_allclose(pi, [[0.5, 0.5]], atol=1e-12)
    np.testing.assert_allclose(s1, np.log(2.0), atol=1e-12)
    np.testing.assert_allclose(s2, np.log(2.0), atol=1e-12)
    assert np.all(mu1 == 0) and np.all(mu2 == 0) and np.all(rho == 0)


def test_mdn_unpack_valid_mixtures():
    rng = np.random.default_rng(0)
    raw = rng.normal(scale=3.0, size=(4, 18))
    mu1, mu2, s1, s2, rho, pi = heads.unpack_arrays(raw, 3)
    assert np.all(s1 > 0) and np.all(s2 > 0) and np.all(np.abs(rho) < 1)
    assert np.all(pi >= 0)
    np.testing.assert_allclose(pi.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def make_raw(mu1, mu2, sigma, rho_raw, pi_raw):
    """Single-sample raw vector from per-component lists."""
    K = len(mu1)
    raw = np.empty((1, 6 * K))
    raw[0, :K] = mu1
    raw[0, K:2 * K] = mu2
    raw[0, 2 * K:4 * K] = float(heads.inv_softplus(np.asarray(sigma))) \
        if np.isscalar(sigma) else np.concatenate([heads.inv_softplus(np.asarray(sigma))] * 2)
    raw[0, 4 * K:5 * K] = rho_raw
    raw[0, 5 * K:] = pi_raw
    return raw


def test_mdn_nll_single_component_at_mean():
    raw = make_raw([3.0], [-7.0], 1.0, [0.0], [0.0])
    loss, _ = heads.mdn_nll(raw, np.array([[3.0, -7.0]]), 1)
    assert abs(loss - np.log(2.0 * np.pi)) < 1e-12


def test_mdn_nll_matches_mixture_log_pdf():
    rng = np.random.default_rng(1)
    K = 3
    raw = rng.normal(scale=1.5, size=(5, 6 * K))
    labels = rng.normal(scale=2.0, size=(5, 2))
    loss, _ = heads.mdn_nll(raw, labels, K)
    mu1, mu2, s1, s2, rho, pi = heads.unpack_arrays(raw, K)
    direct = -np.mean([np.log(sum(
        pi[n, k] * multivariate_normal(
            mean=[mu1[n, k], mu2[n, k]],
            cov=[[s1[n, k] ** 2, rho[n, k] * s1[n, k] * s2[n, k]],
                 [rho[n, k] * s1[n, k] * s2[n, k], s2[n, k] ** 2]]).pdf(labels[n])
        for k in range(K))) for n in range(len(labels))])
    assert abs(loss - direct) < 1e-10


def test_mdn_nll_component_permutation_invariance():
    rng = np.random.default_rng(2)
    K = 4
    raw = rng.normal(size=(3, 6 * K))
    labels = rng.normal(size=(3, 2))
    loss, _ = heads.mdn_nll(raw, labels, K)
    perm = rng.permutation(K)
    cols = np.concatenate([b * K + perm for b in range(6)])
    loss_p, _ = heads.mdn_nll(raw[:, cols], labels, K)
    assert abs(loss - loss_p) < 1e-12


def test_mdn_nll_gradient_fd():
    rng = np.random.default_rng(3)
    K = 2
    raw = rng.normal(scale=1.0, size=(4, 6 * K))
    labels = rng.normal(scale=1.0, size=(4, 2))
    _, d_raw = heads.mdn_nll(raw, labels, K)
    h = 1e-5
    for i in range(raw.shape[0]):
        for j in range(raw.shape[1]):
            rp, rm = raw.copy(), raw.copy()
            rp[i, j] += h
            rm[i, j] -= h
            numeric = (heads.mdn_nll(rp, labels, K)[0] - heads.mdn_nll(rm, labels, K)[0]) / (2 * h)
            rel = abs(d_raw[i, j] - numeric) / max(abs(d_raw[i, j]) + abs(numeric), 1e-8)
            assert rel < 1e-4


def test_shared_nll_agrees_with_mdn_nll():
    rng = np.random.default_rng(4)
    N, K = 5, 3
    comps = {"mus": rng.normal(scale=2.0, size=(K, 2)), "raw_sigmas": rng.normal(size=(K, 2)),
             "raw_rhos": rng.normal(size=K)}
    pi_raw = rng.normal(size=(N, K))
    labels = rng.normal(scale=2.0, size=(N, 2))
    loss, _, _ = heads.shared_nll(pi_raw, comps, labels)
    # equivalent plain MDN raw tensor with the shared blocks tiled per sample
    raw = np.concatenate([
        np.tile(comps["mus"][:, 0], (N, 1)), np.tile(comps["mus"][:, 1], (N, 1)),
        np.tile(comps["raw_sigmas"][:, 0], (N, 1)), np.tile(comps["raw_sigmas"][:, 1], (N, 1)),
        np.tile(comps["raw_rhos"], (N, 1)), pi_raw], axis=1)
    loss_mdn, _ = heads.mdn_nll(raw, labels, K)
    assert abs(loss - loss_mdn) < 1e-12


def test_shared_nll_gradient_fd():
    rng = np.random.default_rng(5)
    N, K = 4, 2
    comps = {"mus": rng.normal(size=(K, 2)), "raw_sigmas": rng.normal(size=(K, 2)),
             "raw_rhos": rng.normal(size=K)}
    pi_raw = rng.normal(size=(N, K))
    labels = rng.normal(size=(N, 2))

    def loss_of():
        return heads.shared_nll(pi_raw, comps, labels)[0]

    _, d_pi, grads = heads.shared_nll(pi_raw, comps, labels)
    h = 1e-5
    blocks = {**comps, "pi": pi_raw}
    analytic = {**grads, "pi": d_pi}
    for name, arr in blocks.items():
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_of()
            flat[i] = orig - h
            lm = loss_of()
            flat[i] = orig
            numeric = (lp - lm) / (2 * h)
            a = analytic[name].ravel()[i]
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
            assert rel < 1e-4, (name, i)


def test_init_shared_properties():
    rng = np.random.default_rng(6)
    labels = rng.normal(scale=5.0, size=(50, 2))
    comps = heads.init_components(labels, 4, (0.0, 10.0), seed=0)
    sig = softplus(comps["raw_sigmas"])
    assert np.all(sig > 0) and np.all(sig <= 10.0)
    assert np.all(comps["raw_rhos"] == 0.0)
    np.testing.assert_allclose(comps["mus"], kmeans(labels, 4, seed=0).centroids)
    with pytest.raises(KMeansInitError):
        heads.init_components(np.zeros((3, 2)), 2, (0.0, 10.0))  # fewer distinct points than K


def test_predict_strongest_pi():
    p = predict(((0.0, 0.0, 1.0, 1.0, 0.0), (5.0, 5.0, 1.0, 1.0, 0.0)), (0.4, 0.6), "strongest_pi")
    assert tuple(p) == (5.0, 5.0)


def test_predict_max_mixture_prob_differs_from_strongest_pi():
    # Two broad overlapping components hold most of the pi mass, but a narrow
    # third component has the highest mixture density at its own mean.
    comps = ((0.0, 0.0, 1.0, 1.0, 0.0),
             (0.5, 0.0, 1.0, 1.0, 0.0),
             (10.0, 10.0, 0.05, 0.05, 0.0))
    weights = (0.35, 0.34, 0.31)
    assert predict(comps, weights, "strongest_pi")[0] == 0.0
    assert predict(comps, weights, "max_mixture_prob")[0] == 10.0


def test_predict_tie_breaks_to_lowest_index():
    comps = ((1.0, 2.0, 1.0, 1.0, 0.0), (-50.0, 60.0, 1.0, 1.0, 0.0))
    assert predict(comps, (0.5, 0.5), "strongest_pi")[0] == 1.0
    with pytest.raises(ValueError):
        predict(comps, (0.5, 0.5), "mode_hunting")


def test_regression_loss_example():
    loss, grad = heads.regression_loss(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert loss == 25.0
    np.testing.assert_allclose(grad, [[-6.0, -8.0]])
    loss2, _ = heads.regression_loss(np.zeros((2, 2)),
                                     np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert loss2 == 12.5  # mean over samples, sum over dims
    with pytest.raises(ContractError):
        heads.regression_loss(np.zeros((2, 3)), np.zeros((2, 3)))


def test_regression_gradient_fd():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(5, 2))
    labels = rng.normal(size=(5, 2))
    _, grad = heads.regression_loss(raw, labels)
    h = 1e-6
    for i in range(5):
        for j in range(2):
            rp, rm = raw.copy(), raw.copy()
            rp[i, j] += h
            rm[i, j] -= h
            numeric = (heads.regression_loss(rp, labels)[0]
                       - heads.regression_loss(rm, labels)[0]) / (2 * h)
            assert abs(grad[i, j] - numeric) < 1e-6


def test_density_grid_integrates_to_one():
    mixture = [a[0] for a in mixture_rows(
        ((40.0, -100.0, 0.8, 1.1, 0.2), (43.0, -96.0, 1.2, 0.7, -0.4)), (0.55, 0.45))]
    bbox = (30.0, 53.0, -112.0, -84.0)
    lats, lons, points = heads.grid_cells(bbox, 200)
    grid = heads.predictive_density_grid(mixture, points).reshape(200, 200)
    assert grid.shape == (200, 200)
    cell = (bbox[1] - bbox[0]) / 200 * (bbox[3] - bbox[2]) / 200
    assert abs(np.exp(grid).sum() * cell - 1.0) < 1e-2
    # pi is renormalised: doubled weights give the same grid
    doubled = mixture[:5] + [2.0 * mixture[5]]
    np.testing.assert_allclose(heads.predictive_density_grid(doubled, points), grid.ravel(),
                               rtol=1e-12)
    # grid peak sits near the heavier component's mean
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    assert abs(lats[i] - 40.0) < 0.2 and abs(lons[j] + 100.0) < 0.2


def test_density_grid_validation():
    with pytest.raises(ValueError):
        heads.grid_cells((1.0, 1.0, 0.0, 2.0), 10)
    with pytest.raises(ValueError):
        heads.grid_cells((0.0, 1.0, 0.0, 1.0), 1)
    with pytest.raises(ValueError):
        heads.grid_cells((0.0, 1.0, 0.0), 10)
