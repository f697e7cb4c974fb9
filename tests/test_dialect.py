"""Gaussian representation layer, dialect loss, scoring, ranking, recall
and perplexity."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from geomix import dialect as dl
from geomix.gaussian import inv_softplus, softsign
from geomix.geo import EARTH_RADIUS_KM, GeoPoint
from geomix.network import ContractError


def make_components(mus, sigmas, rhos=None):
    mus = np.asarray(mus, dtype=float)
    raw_s = np.asarray(inv_softplus(np.asarray(sigmas, dtype=float)))
    rhos = np.zeros(len(mus)) if rhos is None else np.asarray(rhos, dtype=float)
    return {"mus": mus, "raw_sigmas": raw_s, "raw_rhos": rhos}


def layer_at(comps, x, log_domain=False):
    """Activation vector of length K at one GeoPoint."""
    acts, _ = dl.gaussian_layer_forward_batch(comps, np.array([[x.lat, x.lon]]), log_domain)
    return acts[0]


def test_layer_peak_activation():
    comps = make_components([[10.0, 20.0]], [[1.0, 1.0]])
    acts = layer_at(comps, GeoPoint(10.0, 20.0))
    assert abs(acts[0] - 1.0 / (2.0 * np.pi)) < 1e-12


def test_layer_tail_underflow():
    comps = make_components([[0.0, 0.0]], [[1.0, 1.0]])
    acts = layer_at(comps, GeoPoint(0.0, 10.0))  # 10 sigma out
    assert 0.0 <= acts[0] < 1e-20


def test_layer_matches_log_pdf_composition():
    rng = np.random.default_rng(0)
    K = 5
    mus = rng.normal(scale=20.0, size=(K, 2))
    sigmas = rng.uniform(0.5, 4.0, size=(K, 2))
    rho_raw = rng.normal(size=K)
    comps = make_components(mus, sigmas, rho_raw)
    x = GeoPoint(5.0, -3.0)
    acts = layer_at(comps, x)
    for k in range(K):
        s1, s2, rho = sigmas[k, 0], sigmas[k, 1], float(softsign(rho_raw[k]))
        cov = [[s1 ** 2, rho * s1 * s2], [rho * s1 * s2, s2 ** 2]]
        assert abs(acts[k] - multivariate_normal(mean=mus[k], cov=cov).pdf([x.lat, x.lon])) < 1e-12
    log_acts = layer_at(comps, x, log_domain=True)
    np.testing.assert_allclose(np.exp(log_acts), acts, rtol=1e-12)


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
    assert abs(dl.perplexity(log_probs, counts) - V) < 1e-9


def test_perplexity_perfect_predictor_is_one():
    log_probs = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
    counts = np.array([[3, 0], [0, 2]])
    assert abs(dl.perplexity(log_probs, counts) - 1.0) < 1e-12


def test_perplexity_zero_prob_token_is_infinite():
    log_probs = np.array([[-np.inf, 0.0]])
    counts = np.array([[1, 1]])
    assert dl.perplexity(log_probs, counts) == float("inf")
    with pytest.raises(ValueError):
        dl.perplexity(np.zeros((1, 2)), np.zeros((1, 2)))


def test_perplexity_hand_table():
    log_probs = np.log(np.array([[0.5, 0.5], [0.25, 0.75]]))
    counts = np.array([[2, 1], [0, 1]])
    expected = np.exp(-(2 * np.log(0.5) + np.log(0.5) + np.log(0.75)) / 4)
    assert abs(dl.perplexity(log_probs, counts) - expected) < 1e-12


def test_dialect_score_trivials():
    mask = np.array([True, True, False, False, False])
    assert dl.dialect_score(np.full(5, 2.5), mask) == 0.0
    lp = np.where(mask, 1.0, 0.0)
    assert abs(dl.dialect_score(lp, mask) - (1.0 - 2.0 / 5.0)) < 1e-12
    # shift consistency
    rng = np.random.default_rng(5)
    lp2 = rng.normal(size=5)
    assert abs(dl.dialect_score(lp2 + 17.0, mask) - dl.dialect_score(lp2, mask)) < 1e-9
    with pytest.raises(ValueError):
        dl.dialect_score(lp2, np.zeros(5, dtype=bool))


def test_score_vocabulary_matches_per_word():
    rng = np.random.default_rng(6)
    lp = rng.normal(size=(20, 7))
    mask = rng.random(20) < 0.4
    scores = dl.score_vocabulary(lp, mask)
    for v in range(7):
        assert abs(scores[v] - dl.dialect_score(lp[:, v], mask)) < 1e-12


def test_dialect_rank_order_and_ties():
    ranked = dl.dialect_rank(["w1", "w2"], np.array([0.5, -0.5]))
    assert [t for t, _ in ranked] == ["w1", "w2"]
    ranked_tie = dl.dialect_rank(["zeta", "alpha", "mid"], np.array([1.0, 1.0, 0.0]))
    assert [t for t, _ in ranked_tie] == ["alpha", "zeta", "mid"]


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
    city = GeoPoint(40.0, -100.0)
    region = dl.DialectRegion("plains", [city], ["yall"])
    assert dl.region_membership(city, region)
    dlon = np.degrees(160.0 / (EARTH_RADIUS_KM * np.cos(np.radians(40.0))))
    assert dl.region_membership(GeoPoint(40.0, -100.0 + dlon), region)
    dlon = np.degrees(162.0 / (EARTH_RADIUS_KM * np.cos(np.radians(40.0))))
    assert not dl.region_membership(GeoPoint(40.0, -100.0 + dlon), region)
    with pytest.raises(ValueError):
        dl.region_membership(city, region, radius_km=0.0)
    with pytest.raises(ValueError):
        dl.DialectRegion("empty", [], ["yall"])


def test_read_regions_and_ranking_tsv(tmp_path):
    path = tmp_path / "regions.tsv"
    path.write_text("# comment\nnorth\t45.0,-93.0;46.0,-94.0\tpop,bubbler\n"
                    "south\t30.0,-90.0\tyall\n")
    regions = dl.read_regions(path)
    assert [r.name for r in regions] == ["north", "south"]
    assert regions[0].terms == ["pop", "bubbler"]
    assert regions[0].points[1] == GeoPoint(46.0, -94.0)
    bad = tmp_path / "bad.tsv"
    bad.write_text("oops\tnot-a-point\tterm\n")
    with pytest.raises(ValueError):
        dl.read_regions(bad)
    out = tmp_path / "rank.tsv"
    dl.write_ranking_tsv(out, [("pop", 1.5), ("soda", -0.5)])
    lines = out.read_text().splitlines()
    assert lines[0] == "rank\tterm\tscore"
    assert lines[1].split("\t") == ["1", "pop", "1.5"]
