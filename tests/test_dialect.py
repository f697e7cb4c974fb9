"""Gaussian representation layer, dialect loss, region scoring, ranking,
recall and the reference perplexity, and the dialect model's CSR targets and
row-blocked dev loss."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.stats import multivariate_normal

from dialect_reference import perplexity, word_log_probs
from geomix import dialect as dl
from geomix import kernels, models
from geomix.kernels import inv_softplus, softsign
from geomix.geo import EARTH_RADIUS_KM, haversine_km
from geomix.network import ContractError, gradient_check


def make_components(mus, sigmas, rhos=None):
    mus = np.asarray(mus, dtype=float)
    raw_s = np.asarray(inv_softplus(np.asarray(sigmas, dtype=float)))
    rhos = np.zeros(len(mus)) if rhos is None else np.asarray(rhos, dtype=float)
    return {"mus": mus, "raw_sigmas": raw_s, "raw_rhos": rhos}


def layer_at(comps, x):
    """Activation vector of length K at one (lat, lon) point."""
    acts, _ = dl.gaussian_layer_forward_batch(comps, np.array([x]))
    return acts[0]


def test_layer_peak_activation():
    comps = make_components([[10.0, 20.0]], [[1.0, 1.0]])
    acts = layer_at(comps, (10.0, 20.0))
    assert abs(acts[0] - 1.0 / (2.0 * np.pi)) < 1e-12


def test_layer_tail_underflow():
    comps = make_components([[0.0, 0.0]], [[1.0, 1.0]])
    acts = layer_at(comps, (0.0, 10.0))  # 10 sigma out
    assert 0.0 <= acts[0] < 1e-20


def test_layer_matches_log_pdf_composition():
    rng = np.random.default_rng(0)
    K = 5
    mus = rng.normal(scale=20.0, size=(K, 2))
    sigmas = rng.uniform(0.5, 4.0, size=(K, 2))
    rho_raw = rng.normal(size=K)
    comps = make_components(mus, sigmas, rho_raw)
    x = (5.0, -3.0)
    acts = layer_at(comps, x)
    for k in range(K):
        s1, s2, rho = sigmas[k, 0], sigmas[k, 1], float(softsign(rho_raw[k]))
        cov = [[s1 ** 2, rho * s1 * s2], [rho * s1 * s2, s2 ** 2]]
        assert abs(acts[k] - multivariate_normal(mean=mus[k], cov=cov).pdf(x)) < 1e-12


def test_layer_backward_fd():
    rng = np.random.default_rng(1)
    K = 3
    comps = {"mus": rng.normal(scale=3.0, size=(K, 2)), "raw_sigmas": rng.normal(size=(K, 2)),
             "raw_rhos": rng.normal(size=K)}
    X = rng.normal(scale=2.0, size=(4, 2))
    w = rng.normal(size=(4, K))  # arbitrary downstream weighting

    def loss_of():
        acts, _ = dl.gaussian_layer_forward_batch(comps, X)
        return float(np.sum(w * acts))

    _, cache = dl.gaussian_layer_forward_batch(comps, X)
    grads = dl.gaussian_layer_backward(comps, cache, w)
    h = 1e-5
    for name, arr in comps.items():
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_of()
            flat[i] = orig - h
            lm = loss_of()
            flat[i] = orig
            numeric = (lp - lm) / (2 * h)
            a = grads[name].ravel()[i]
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
            assert rel < 1e-4, (name, i)


def test_dialect_loss_values():
    # perfect (near-one-hot) prediction -> loss near 0
    logits = np.array([[50.0, 0.0, 0.0]])
    targets = np.array([[1.0, 0.0, 0.0]])
    loss, _ = dl.dialect_loss(logits, targets)
    assert loss < 1e-12
    # uniform prediction -> log V for any valid target
    V = 7
    loss_u, _ = dl.dialect_loss(np.zeros((3, V)), np.full((3, V), 1.0 / V))
    assert abs(loss_u - np.log(V)) < 1e-12


def test_dialect_loss_skips_zero_rows_and_rejects_negative():
    logits = np.random.default_rng(2).normal(size=(3, 4))
    targets = np.zeros((3, 4))
    targets[1] = [0.25, 0.25, 0.25, 0.25]
    loss, grad = dl.dialect_loss(logits, targets)
    assert np.all(grad[0] == 0.0) and np.all(grad[2] == 0.0)
    only_row, _ = dl.dialect_loss(logits[1:2], targets[1:2])
    assert abs(loss - only_row) < 1e-12
    with pytest.raises(ContractError):
        dl.dialect_loss(logits, np.array([[0.5, 0.5, 0.5, -0.5]] * 3))


def test_dialect_loss_gradient_fd():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(4, 5))
    targets = rng.dirichlet(np.ones(5), size=4)
    _, grad = dl.dialect_loss(logits, targets)
    h = 1e-5
    for i in range(4):
        for j in range(5):
            lp_, lm_ = logits.copy(), logits.copy()
            lp_[i, j] += h
            lm_[i, j] -= h
            numeric = (dl.dialect_loss(lp_, targets)[0]
                       - dl.dialect_loss(lm_, targets)[0]) / (2 * h)
            rel = abs(grad[i, j] - numeric) / max(abs(grad[i, j]) + abs(numeric), 1e-8)
            assert rel < 1e-4


def test_perplexity_uniform_is_vocab_size():
    V, N = 13, 6
    log_probs = np.full((N, V), -np.log(V))
    counts = np.random.default_rng(4).integers(0, 5, size=(N, V))
    counts[0, 0] += 1  # ensure non-empty
    assert abs(perplexity(log_probs, counts) - V) < 1e-9


def test_perplexity_perfect_predictor_is_one():
    log_probs = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
    counts = np.array([[3, 0], [0, 2]])
    assert abs(perplexity(log_probs, counts) - 1.0) < 1e-12


def test_perplexity_zero_prob_token_is_infinite():
    log_probs = np.array([[-np.inf, 0.0]])
    counts = np.array([[1, 1]])
    assert perplexity(log_probs, counts) == float("inf")
    with pytest.raises(ValueError):
        perplexity(np.zeros((1, 2)), np.zeros((1, 2)))


def test_perplexity_hand_table():
    log_probs = np.log(np.array([[0.5, 0.5], [0.25, 0.75]]))
    counts = np.array([[2, 1], [0, 1]])
    expected = np.exp(-(2 * np.log(0.5) + np.log(0.5) + np.log(0.75)) / 4)
    assert abs(perplexity(log_probs, counts) - expected) < 1e-12


def dialect_score(log_probs_at_points, in_region_mask):
    """Mean log-probability over in-region points minus mean over all
    points: the per-word reference ``DialectModel.region_scores`` is checked against."""
    mask = np.asarray(in_region_mask, dtype=bool)
    if not mask.any():
        raise ValueError("no sampled points fall inside the region")
    lp = np.asarray(log_probs_at_points, dtype=float)
    return float(lp[mask].mean() - lp.mean())


def test_dialect_score_trivials():
    mask = np.array([True, True, False, False, False])
    assert dialect_score(np.full(5, 2.5), mask) == 0.0
    lp = np.where(mask, 1.0, 0.0)
    assert abs(dialect_score(lp, mask) - (1.0 - 2.0 / 5.0)) < 1e-12
    # shift consistency
    rng = np.random.default_rng(5)
    lp2 = rng.normal(size=5)
    assert abs(dialect_score(lp2 + 17.0, mask) - dialect_score(lp2, mask)) < 1e-9
    with pytest.raises(ValueError):
        dialect_score(lp2, np.zeros(5, dtype=bool))


def dialect_model(V=23, K=3, seed=0):
    """A dialect model with dropout and elastic net, coordinates and
    l1-normalized CSR targets."""
    rng = np.random.default_rng(seed)
    coords = np.stack([rng.normal(40.0, 5.0, 90), rng.normal(-95.0, 10.0, 90)], axis=1)
    model = models.DialectModel.init(K, 6, [f"w{v}" for v in range(V)], coords, seed=seed,
                                     dropout_rate=0.5, l1_coeff=1e-3, l2_coeff=1e-3)
    Y = sparse.random(90, V, density=0.2, format="csr", random_state=rng)
    mass = np.asarray(Y.sum(axis=1)).ravel()
    return model, coords, sparse.csr_matrix(sparse.diags(1.0 / np.where(mass > 0, mass, 1.0)) @ Y)


@pytest.mark.parametrize("block_rows", [None, 1])
def test_region_scores_equal_the_per_word_oracle(block_rows, monkeypatch):
    """Each row of ``region_scores`` under ``region_weights`` is, for every
    word, ``dialect_score`` of its log-probabilities at the P draws, repeated
    points counted each time they are drawn, whether the distinct points come
    in one row block or one row a block; a region with no draw is refused."""
    model, coords, _ = dialect_model(seed=7)
    model.params["b1"] = np.random.default_rng(8).normal(size=23)  # b_out must drop out
    if block_rows:
        monkeypatch.setattr(kernels, "ROW_BLOCK_ELEMS", block_rows * 23)
    idx = np.random.default_rng(9).integers(30, size=200)  # 200 draws of 30 points
    distinct, inverse, counts = np.unique(idx, return_inverse=True, return_counts=True)
    inside = np.random.default_rng(10).random((4, len(distinct))) < np.linspace(0.1, 0.7, 4)[:, None]
    inside[:, 0] = True
    scores = model.region_scores(coords[distinct], dl.region_weights(counts, inside))
    assert scores.shape == (4, 23)
    lp = word_log_probs(model, coords[idx])
    for region, got in zip(inside, scores):
        for v in range(23):
            assert abs(got[v] - dialect_score(lp[:, v], region[inverse])) <= 1e-12
    inside[2] = False
    with pytest.raises(ValueError, match="no sampled points fall inside the region"):
        dl.region_weights(counts, inside)


def test_dialect_csr_batch_matches_dense_rows():
    model, coords, Y = dialect_model(seed=1)
    idx = np.random.default_rng(2).permutation(90)[:32]
    loss_s, grads_s = model.batch_loss_and_grads((coords, Y), idx, rng=np.random.default_rng(3),
                                                 train_mode=True)
    loss_d, grads_d = model.batch_loss_and_grads((coords, Y.toarray()), idx,
                                                 rng=np.random.default_rng(3), train_mode=True)
    assert loss_s == loss_d
    assert set(grads_s) == set(grads_d) == set(model.params)
    for block, g in grads_d.items():
        np.testing.assert_array_equal(grads_s[block], g, err_msg=block)
    # full-data losses, as the gradient checker takes them, also run on CSR targets
    assert max(gradient_check(model, (coords[:5], Y[:5])).values()) <= 1e-4


def test_dialect_dev_metric_in_row_blocks(monkeypatch):
    model, coords, Y = dialect_model(seed=4)
    one_shot, _ = model._data_loss(coords, Y.toarray(), train_mode=False, rng=None)
    assert model.dev_metric((coords, Y)) == one_shot  # 90 x 23 fits in one block
    monkeypatch.setattr(kernels, "ROW_BLOCK_ELEMS", 16 * 23)  # 16-row blocks
    blocked = model.dev_metric((coords, Y))
    assert abs(blocked - one_shot) <= 1e-12 * abs(one_shot)


def test_dialect_dev_metric_without_target_mass():
    model, coords, Y = dialect_model(seed=5)
    assert model.dev_metric((coords, sparse.csr_matrix(Y.shape))) == 0.0


def test_dialect_rank_order_and_ties():
    ranked = dl.dialect_rank(["w1", "w2"], np.array([0.5, -0.5]))
    assert [t for t, _ in ranked] == ["w1", "w2"]
    ranked_tie = dl.dialect_rank(["zeta", "alpha", "mid"], np.array([1.0, 1.0, 0.0]))
    assert [t for t, _ in ranked_tie] == ["alpha", "zeta", "mid"]


def sorted_rank(terms, scores):
    """``dialect_rank``'s reference: a sort with a Python key per index."""
    order = sorted(range(len(terms)), key=lambda i: (-scores[i], terms[i]))
    return [(terms[i], float(scores[i])) for i in order]


# few distinct scores, so ties are common; 0.0 and -0.0 tie with each other
SCORES = st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0 ** -1074, -(2.0 ** -1074)]) | st.floats(allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.text(st.sampled_from("ab\x00\u00e9\U0001f600") | st.characters(), max_size=4),
                          SCORES), max_size=40))
@example([("a\x00", 0.0), ("a", -0.0), ("\x00", 1.0), ("", 1.0)])  # NUL-ended terms sort after their prefix
def test_dialect_rank_matches_sorted_reference(pairs):
    terms = [t for t, _ in pairs]  # repeated terms allowed: both sorts are stable
    scores = np.array([s for _, s in pairs])
    got = dl.dialect_rank(terms, scores)
    want = sorted_rank(terms, scores)
    assert [t for t, _ in got] == [t for t, _ in want]
    assert [repr(s) for _, s in got] == [repr(s) for _, s in want]  # keeps the sign of -0.0


def test_recall_at_k():
    vocab = ["a", "b", "c", "d", "e"]
    ranked = ["a", "b", "c", "d", "e"]
    assert dl.recall_at_k(ranked, ["a", "b"], 2, vocab) == (1.0, [])
    assert dl.recall_at_k(ranked, ["d", "e"], 2, vocab) == (0.0, [])
    rec, oov = dl.recall_at_k(ranked, ["a", "c", "d", "e", "zz"], 2, vocab)
    assert rec == 0.25 and oov == ["zz"]
    rec2, _ = dl.recall_at_k(ranked, ["a", "b", "d", "e"], 2, vocab)
    assert rec2 == 0.5
    rec_none, oov_all = dl.recall_at_k(ranked, ["x", "y"], 3, vocab)
    assert rec_none is None and oov_all == ["x", "y"]
    with pytest.raises(ValueError):
        dl.recall_at_k(ranked, ["a"], 0, vocab)


def test_region_membership_boundary():
    city = [40.0, -100.0]
    region = dl.DialectRegion("plains", [city], ["yall"])
    dlon = [np.degrees(km / (EARTH_RADIUS_KM * np.cos(np.radians(40.0)))) for km in (160.0, 162.0)]
    pts = np.array([city, [40.0, -100.0 + dlon[0]], [40.0, -100.0 + dlon[1]]])
    np.testing.assert_array_equal(dl.region_membership(pts, region), [True, True, False])
    with pytest.raises(ValueError):
        dl.region_membership(pts, region, radius_km=0.0)
    with pytest.raises(ValueError):
        dl.DialectRegion("empty", [], ["yall"])


def test_region_membership_batch_matches_per_point():
    rng = np.random.default_rng(5)
    cities = rng.uniform([30.0, -110.0], [45.0, -80.0], size=(3, 2))
    pts = np.vstack([rng.uniform([28.0, -115.0], [47.0, -75.0], size=(400, 2)), cities])
    # the radius is one point's exact distance to a city, so that point sits on the boundary
    radius = float(haversine_km(pts[7], cities[1]))
    region = dl.DialectRegion("r", cities, ["t"])
    mask = dl.region_membership(pts, region, radius)
    expected = [any(haversine_km(p, c) <= radius for c in cities) for p in pts]
    assert mask.shape == (len(pts),) and mask.dtype == bool
    np.testing.assert_array_equal(mask, expected)
    assert mask[7] and mask[-3:].all() and not mask.all()


def test_read_regions_and_ranking_tsv(tmp_path):
    path = tmp_path / "regions.tsv"
    path.write_text("# comment\nnorth\t45.0,-93.0;46.0,-94.0\tpop,bubbler\n"
                    "south\t30.0,-90.0\tyall\n")
    regions = dl.read_regions(path)
    assert [r.name for r in regions] == ["north", "south"]
    assert regions[0].terms == ["pop", "bubbler"]
    np.testing.assert_array_equal(regions[0].points, [[45.0, -93.0], [46.0, -94.0]])
    bad = tmp_path / "bad.tsv"
    bad.write_text("oops\tnot-a-point\tterm\n")
    with pytest.raises(ValueError):
        dl.read_regions(bad)
    out = tmp_path / "rank.tsv"
    dl.write_ranking_tsv(out, [("pop", 1.5), ("soda", -0.5)])
    lines = out.read_text().splitlines()
    assert lines[0] == "rank\tterm\tscore"
    assert lines[1].split("\t") == ["1", "pop", "1.5"]
