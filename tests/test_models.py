"""Geolocation models on CSR features: the sparse first layer against the
same rows densified, a guard that no step densifies a sparse matrix, and
the shared MDN's one row of components."""

import numpy as np
import pytest
from scipy import sparse

from geomix import heads, kernels, models, network
from geomix.network import NetworkSpec, train_loop

V, K = 40, 3
GEOLOCATORS = ("regression", "mdn", "mdn_shared")


def corpus(seed=0, n=24):
    rng = np.random.default_rng(seed)
    X = sparse.random(n, V, density=0.15, format="csr", random_state=rng)
    Y = np.stack([rng.normal(40.0, 4.0, n), rng.normal(-100.0, 8.0, n)], axis=1)
    return X, Y


def geolocator(name, Y, seed=0, regul=1e-3):
    """Two hidden layers with dropout and elastic net, so every gradient term
    runs; ``regul=0`` leaves W0's gradient a row gradient."""
    out = {"regression": 2, "mdn": 6 * K, "mdn_shared": K}[name]
    spec = NetworkSpec((V, 8, 6, out), dropout_rate=0.5, l1_coeff=regul, l2_coeff=regul, seed=seed)
    if name == "regression":
        return models.RegressionGeolocator(spec)
    if name == "mdn":
        model = models.MdnGeolocator(spec)
        model.init_output_bias_from_labels(Y, mode="kmeans", seed=seed)
        return model
    model = models.SharedMdnGeolocator(spec)
    model.init_shared_from_labels(Y, seed=seed)
    return model


@pytest.mark.parametrize("name", GEOLOCATORS)
def test_csr_batch_matches_dense_rows(name):
    X, Y = corpus(1)
    for regul in (1e-3, 0.0):
        model = geolocator(name, Y, seed=2, regul=regul)
        idx = np.random.default_rng(3).permutation(len(Y))[:10]
        loss_s, grads_s = model.batch_loss_and_grads((X, Y), idx, rng=np.random.default_rng(4),
                                                     train_mode=True)
        loss_d, grads_d = model.batch_loss_and_grads((X.toarray(), Y), idx,
                                                     rng=np.random.default_rng(4), train_mode=True)
        assert abs(loss_s - loss_d) <= 1e-12 * abs(loss_d)
        assert set(grads_s) == set(grads_d) == set(model.params)
        assert isinstance(grads_s["W0"], network.RowGrad) == (regul == 0.0)
        for block, g in grads_d.items():
            got = network.dense_gradient(grads_s[block], model.params[block].shape)
            assert np.max(np.abs(got - g)) <= 1e-12 * np.max(np.abs(g)), (regul, block)


@pytest.mark.parametrize("name", GEOLOCATORS)
def test_geolocators_never_densify_csr(name, monkeypatch):
    X, Y = corpus(5)
    model = geolocator(name, Y, seed=6)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a sparse matrix was densified")

    for cls in (sparse.csr_matrix, sparse.csc_matrix):
        monkeypatch.setattr(cls, "toarray", refuse)
    with pytest.raises(AssertionError):
        X.toarray()
    log = train_loop(model, (X, Y), (X[:8], Y[:8]), batch_size=5, max_epochs=1, seed=7)
    assert len(log) == 1
    assert np.isfinite(model.dev_metric((X, Y)))
    assert model.predict_points(X).shape == (len(Y), 2)


def test_shared_mixture_arrays_keep_one_component_row():
    X, Y = corpus(8)
    model = geolocator("mdn_shared", Y, seed=9)
    *comps, pi = heads.mixture_arrays(*model.mixture_rows(X))
    assert pi.shape == (len(Y), K)
    np.testing.assert_allclose(pi.sum(axis=1), 1.0)
    _, _, s1, s2, rho, _ = heads.component_terms(heads.component_rows(model.params), Y)
    for got, want in zip(comps, (*model.params["mus"].T, s1[0], s2[0], rho[0])):
        assert got.shape == (1, K)
        np.testing.assert_array_equal(got[0], want)


@pytest.mark.parametrize("name", GEOLOCATORS)
def test_dev_metric_is_the_step_loss_without_backward(name, monkeypatch):
    """Bit for bit, with no backward pass and no mixture gradient."""
    X, Y = corpus(10)
    model = geolocator(name, Y, seed=11)
    loss, _ = model._data_loss(X, Y, train_mode=False, rng=None)

    def refuse(*args, **kwargs):
        raise AssertionError("dev_metric ran a gradient")

    monkeypatch.setattr(models, "backward", refuse)
    monkeypatch.setattr(network, "backward", refuse)
    monkeypatch.setattr(heads, "log_pdf_partials", refuse)
    assert model.dev_metric((X, Y)) == loss


@pytest.mark.parametrize("name", ["mdn", "mdn_shared"])
def test_dev_metric_in_row_blocks_is_bitwise_one_block(name, monkeypatch):
    """The MDN's N x K rows, sliced per block, and the shared MDN's 1 x K
    bank, kept whole, give the one-block dev NLL bit for bit."""
    X, Y = corpus(12, n=50)
    model = geolocator(name, Y, seed=13)
    whole = model.dev_metric((X, Y))  # 50 x 3 fits in one block
    monkeypatch.setattr(kernels, "ROW_BLOCK_ELEMS", 7 * K)  # 7-row blocks and a 1-row tail
    block_rows, logsumexp_rows = [], heads.logsumexp_rows
    monkeypatch.setattr(heads, "logsumexp_rows", lambda a: block_rows.append(len(a)) or logsumexp_rows(a))
    blocked = model.dev_metric((X, Y))
    assert np.float64(blocked).tobytes() == np.float64(whole).tobytes()
    assert block_rows == [7] * 7 + [1]


def test_mdn_refuses_an_output_width_not_a_multiple_of_6():
    """The MDN emits 6K values a row, so its K is the output width over 6;
    the constructor, which every checkpoint load goes through, refuses any
    other width.  The shared MDN's K is its output width."""
    for out in (1, 6 * K - 1, 6 * K + 1, 6 * K + 3):
        with pytest.raises(ValueError, match=f"output size {out} is not a multiple of 6"):
            models.MdnGeolocator(NetworkSpec((V, 8, out)))
    for out in (6, 6 * K, 12 * K):
        assert models.MdnGeolocator(NetworkSpec((V, 8, out))).K == out // 6
    assert models.SharedMdnGeolocator(NetworkSpec((V, 8, K))).K == K
