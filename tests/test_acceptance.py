"""Acceptance gate: one test per shipping criterion, each printing a single
PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they complete.
"""

import itertools
import os

import numpy as np
import pytest
from scipy import sparse

from dialect_reference import perplexity, word_log_probs
from geomix import cluster, data, dialect as dl, features, geo, heads, models, network
from geomix.geo import GeoPoint


def report(n, ok, detail):
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_oracle():
    tol = 1e-4
    worst = 0.0
    rng = np.random.default_rng(0)
    for init in range(10):
        seed = 100 + init
        X = rng.normal(scale=0.5, size=(4, 6))
        Y = rng.normal(scale=2.0, size=(4, 2))
        model = models.RegressionGeolocator(network.NetworkSpec((6, 5, 2), seed=seed))
        rep = network.gradient_check(model, (X, Y))
        worst = max(worst, max(rep.values()))
        for K in (1, 3, 5):
            mdn = models.MdnGeolocator(network.NetworkSpec((6, 4, 6 * K), seed=seed))
            worst = max(worst, max(network.gradient_check(mdn, (X, Y)).values()))
            sh = models.SharedMdnGeolocator(network.NetworkSpec((6, 4, K), seed=seed))
            sh.params["mus"] += rng.normal(scale=1.0, size=(K, 2))
            sh.params["raw_sigmas"] += rng.normal(scale=0.3, size=(K, 2))
            sh.params["raw_rhos"] += rng.normal(scale=0.3, size=K)
            worst = max(worst, max(network.gradient_check(sh, (np.asarray(X), Y)).values()))
            coords = rng.normal(scale=1.5, size=(4, 2))
            targets = sparse.csr_matrix(rng.dirichlet(np.ones(6), size=4))
            dia = models.DialectModel.init(K, 4, [f"w{i}" for i in range(6)],
                                           rng.normal(scale=2.0, size=(max(K + 1, 8), 2)),
                                           seed=seed)
            worst = max(worst, max(network.gradient_check(dia, (coords, targets)).values()))
    report(1, worst <= tol,
           f"max relative gradient error {worst:.2e} (tolerance {tol:.0e}) over "
           "regression/MDN/shared-MDN/dialect heads, 10 inits, K in {1,3,5}")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_constraint_safety():
    rng = np.random.default_rng(1)
    K = 17
    N = 1000  # 1000 x 102 = 102000 raw entries
    raw = rng.uniform(-1e6, 1e6, size=(N, 6 * K))
    mu1, mu2, s1, s2, rho, pi = heads.mixture_arrays(*heads.mdn_rows(raw, K))
    labels = np.stack([rng.uniform(-90, 90, N), rng.uniform(-180, 180, N)], axis=1)
    loss, d_raw = heads.mdn_nll(raw, labels, K)
    ok = (np.all(s1 > 0) and np.all(s2 > 0)
          and np.all(np.abs(rho) < 1)
          and np.all(np.abs(pi.sum(axis=1) - 1.0) <= 1e-6)
          and np.isfinite(loss) and np.all(np.isfinite(d_raw)))
    report(2, ok, f"{raw.size} raw entries in [-1e6, 1e6]: sigma>0, |rho|<1, "
                  f"|sum pi - 1|<=1e-6, finite NLL {loss:.3f} and gradients")


# ------------------------------------------------- criteria 3 & 4 (training)

def build_features(records, vocab=None):
    toks = [features.tokenize(r.text) for r in records]
    if vocab is None:
        vocab = features.build_vocab(toks, min_df=1)
    return features.vectorize_matrix(toks, vocab), vocab


def train_geo_model(model, Xtr, Ytr, Xdev, Ydev, lr, epochs, patience):
    network.train_loop(model, (Xtr, Ytr), (Xdev, Ydev),
                       network.AdamConfig(learning_rate=lr),
                       network.EarlyStopConfig(patience=patience),
                       batch_size=32, max_epochs=epochs, seed=1)
    return model


def eval_geo(model, Xte, Yte, subset=None):
    pred = model.predict_points(Xte)
    if subset is not None:
        pred, Yte = pred[subset], Yte[subset]
    return geo.evaluate(pred, Yte)


def run_three_models(corpus_seed, spec, mdn_k, mdn_hidden, mdn_dropout, mdn_init,
                     shared_k, patience):
    train, dev, test = data.generate_synthetic(spec)
    Xtr, vocab = build_features(train)
    Xdev, _ = build_features(dev, vocab)
    Xte, _ = build_features(test, vocab)
    Ytr, Ydev, Yte = map(data.coords_array, (train, dev, test))
    D = len(vocab)

    reg = models.RegressionGeolocator(network.NetworkSpec((D, 100, 50, 2), seed=2))
    train_geo_model(reg, Xtr, Ytr, Xdev, Ydev, 0.1, 150, patience)

    mdn = models.MdnGeolocator(
        network.NetworkSpec((D, mdn_hidden, 6 * mdn_k), dropout_rate=mdn_dropout, seed=2))
    if mdn_init == "kmeans":
        mdn.init_output_bias_from_labels(Ytr, sigma=2.0, mode="kmeans", seed=3)
        train_geo_model(mdn, Xtr, Ytr, Xdev, Ydev, 0.02, 200, patience)
    else:
        mdn.init_output_bias_from_labels(Ytr, sigma=5.0, mode="mean")
        train_geo_model(mdn, Xtr, Ytr, Xdev, Ydev, 0.02, 150, patience)

    sh = models.SharedMdnGeolocator(network.NetworkSpec((D, 100, shared_k), seed=2))
    sh.init_shared_from_labels(Ytr, seed=3)
    train_geo_model(sh, Xtr, Ytr, Xdev, Ydev, 0.02, 150, patience)
    return (reg, mdn, sh), (Xte, Yte), test


def test_criterion_3_inverse_problem():
    spec = data.SyntheticSpec(
        mode_centers=[GeoPoint(30.0, -100.0), GeoPoint(50.0, -100.0)],  # 20 deg apart
        mode_stddev=0.5, users_per_mode=[1300, 700], tokens_per_user=30,
        ambiguous_only_fraction=0.3, seed=8)
    (reg, mdn, sh), (Xte, Yte), test = run_three_models(
        8, spec, mdn_k=2, mdn_hidden=50, mdn_dropout=0.0, mdn_init="kmeans",
        shared_k=2, patience=30)
    amb = [i for i, r in enumerate(test) if r.user_id.startswith("amb-")]
    assert amb, "no ambiguous-only users in the test split"
    med_reg = eval_geo(reg, Xte, Yte, amb).median_km
    med_mdn = eval_geo(mdn, Xte, Yte, amb).median_km
    med_sh = eval_geo(sh, Xte, Yte, amb).median_km
    ok = 700.0 <= med_reg <= 1300.0 and med_mdn <= 300.0 and med_sh <= 300.0
    report(3, ok, "ambiguous-user median error (km): "
                  f"regression {med_reg:.0f} (target [700, 1300]), "
                  f"MDN {med_mdn:.0f}, shared MDN {med_sh:.0f} (targets <= 300)")


def test_criterion_4_ordering_claim():
    details = []
    ok = True
    for seed in (8, 9, 10):
        spec = data.SyntheticSpec(
            mode_centers=[GeoPoint(30.0, -110.0), GeoPoint(30.0, -85.0),
                          GeoPoint(45.0, -110.0), GeoPoint(45.0, -85.0)],
            mode_stddev=0.75, users_per_mode=[700, 550, 450, 300],
            tokens_per_user=20, exclusive_tokens_per_mode=3, ambiguous_tokens=2,
            noise_tokens=30, ambiguous_only_fraction=0.25, seed=seed)
        (reg, mdn, sh), (Xte, Yte), _ = run_three_models(
            seed, spec, mdn_k=4, mdn_hidden=50, mdn_dropout=0.5, mdn_init="mean",
            shared_k=8, patience=25)
        r1, r2, r3 = (eval_geo(m, Xte, Yte) for m in (reg, mdn, sh))
        seed_ok = (r3.acc_at_161 > r2.acc_at_161 > r1.acc_at_161
                   and r1.median_km > r2.median_km > r3.median_km)
        ok &= seed_ok
        details.append(f"seed {seed}: acc {r3.acc_at_161:.0f}>{r2.acc_at_161:.0f}"
                       f">{r1.acc_at_161:.0f}, median {r1.median_km:.0f}"
                       f">{r2.median_km:.0f}>{r3.median_km:.0f}"
                       f" [{'ok' if seed_ok else 'violated'}]")
    report(4, ok, "shared MDN > MDN > regression on Acc@161 with reversed medians; "
           + "; ".join(details))


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_kmeans():
    points = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 10.0], [10.0, 10.1]])
    result = cluster.kmeans(points, 2, seed=0)
    best = np.inf
    for labels in itertools.product(range(2), repeat=4):
        labels = np.array(labels)
        if len(set(labels.tolist())) < 2:
            continue
        cents = np.stack([points[labels == c].mean(axis=0) for c in range(2)])
        best = min(best, float(np.sum((points - cents[labels]) ** 2)))
    got = sorted(map(tuple, result.centroids))
    centroid_err = max(abs(a - b) for row, wrow in zip(got, [(0.0, 0.05), (10.0, 10.05)])
                       for a, b in zip(row, wrow))
    mono = True
    rng = np.random.default_rng(2)
    blob = np.concatenate([rng.normal(loc=c, size=(50, 2)) for c in (0.0, 4.0, 9.0)])
    for seed in range(5):
        hist = cluster.kmeans(blob, 3, seed=seed).inertia_history
        mono &= all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
    ok = abs(result.inertia - best) <= 1e-9 and centroid_err <= 1e-9 and mono
    report(5, ok, f"4-point centroids within {centroid_err:.1e} of exhaustive oracle; "
                  f"inertia non-increasing on 5 seeded runs: {mono}")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_metrics_oracle():
    rng = np.random.default_rng(3)
    preds = rng.uniform([-90.0, -180.0], [90.0, 180.0], size=(1000, 2))
    truths = rng.uniform([-90.0, -180.0], [90.0, 180.0], size=(1000, 2))
    rep = geo.evaluate(preds, truths)
    errs = sorted(geo.haversine_km(p, t) for p, t in zip(preds, truths))
    brute_mean = float(np.mean(errs))
    brute_median = errs[(len(errs) - 1) // 2]
    brute_acc = 100.0 * sum(e <= 161.0 for e in errs) / len(errs)
    rel = max(abs(rep.mean_km - brute_mean) / brute_mean,
              abs(rep.median_km - brute_median) / brute_median,
              abs(rep.acc_at_161 - brute_acc) / max(brute_acc, 1e-9))
    nyc, la = np.array([40.7128, -74.0060]), np.array([34.0522, -118.2437])
    lat1, lon1, lat2, lon2 = np.radians([*nyc, *la])
    oracle = 6371.0 * np.arccos(np.sin(lat1) * np.sin(lat2)
                                + np.cos(lat1) * np.cos(lat2) * np.cos(lon2 - lon1))
    nyc_la_err = abs(geo.haversine_km(nyc, la) - oracle)
    ok = rel <= 1e-9 and nyc_la_err <= 1.0
    report(6, ok, f"metrics vs brute force rel err {rel:.1e} (tol 1e-9); "
                  f"NYC-LA vs law-of-cosines diff {nyc_la_err:.2e} km (tol 1 km)")


# ------------------------------------------------------------ criteria 7 & 8

DIALECT_CENTERS = [GeoPoint(32.0, -112.0), GeoPoint(32.0, -85.0),
                   GeoPoint(45.0, -112.0), GeoPoint(45.0, -85.0)]
DIALECT_STDDEV = 0.75


def train_dialect(seed):
    spec = data.SyntheticSpec(
        mode_centers=DIALECT_CENTERS, mode_stddev=DIALECT_STDDEV, users_per_mode=250,
        tokens_per_user=25, exclusive_tokens_per_mode=5, ambiguous_tokens=1,
        noise_tokens=50, ambiguous_only_fraction=0.0, seed=seed)
    train, dev, test = data.generate_synthetic(spec)
    toks = [features.tokenize(r.text) for r in train]
    vocab = features.build_vocab(toks, min_df=1)
    Ttr = features.vectorize_matrix(toks, vocab, scheme="l1_binary_idf")
    Tdev = features.vectorize_matrix([features.tokenize(r.text) for r in dev],
                                     vocab, scheme="l1_binary_idf")
    Ctr, Cdev = data.coords_array(train), data.coords_array(dev)
    model = models.DialectModel.init(4, 16, vocab.terms, Ctr, seed=seed + 1)
    network.train_loop(model, (Ctr, Ttr), (Cdev, Tdev),
                       network.AdamConfig(learning_rate=0.02),
                       network.EarlyStopConfig(patience=15),
                       batch_size=32, max_epochs=120, seed=1)
    return model, vocab, Ctr, test


@pytest.fixture(scope="module")
def dialect_models():
    return {seed: train_dialect(seed) for seed in (8, 9, 10)}


def test_criterion_7_dialect_recall_and_centers(dialect_models):
    seeds_all_regions = 0
    details = []
    mu_ok = True
    for seed, (model, vocab, Ctr, _) in dialect_models.items():
        rng = np.random.default_rng(123)
        distinct, counts = np.unique(rng.integers(len(Ctr), size=2000), return_counts=True)
        pts = Ctr[distinct]
        all_regions = True
        for i, center in enumerate(DIALECT_CENTERS):
            region = dl.DialectRegion(f"region{i}", [[center.lat, center.lon]],
                                      [f"mode{i}tok{j}" for j in range(5)])
            weights = dl.region_weights(counts, dl.region_membership(pts, region)[None])
            ranked = dl.dialect_rank(vocab.terms, model.region_scores(pts, weights)[0])
            rec, _ = dl.recall_at_k([t for t, _ in ranked], region.terms, 10, vocab.terms)
            all_regions &= rec == 1.0
        seeds_all_regions += all_regions
        worst_mu = max(min(float(np.linalg.norm(mu - [c.lat, c.lon]))
                           for mu in model.params["mus"]) for c in DIALECT_CENTERS)
        mu_ok &= worst_mu <= 3.0 * DIALECT_STDDEV
        details.append(f"seed {seed}: recall@10=1.0 in all regions: {bool(all_regions)}, "
                       f"worst mu-center distance {worst_mu:.2f} deg")

    # a word whose probability is constant in the location scores exactly zero
    rng = np.random.default_rng(0)
    const_lp = np.tile(rng.normal(size=7), (500, 1))  # location-independent columns
    mask = rng.random(500) < 0.3
    counts = rng.integers(1, 5, size=500)  # points drawn up to four times
    const_worst = float(np.max(np.abs(dl.region_weights(counts, mask[None]) @ const_lp)))

    ok = seeds_all_regions >= 2 and mu_ok and const_worst <= 1e-9
    report(7, ok, f"{seeds_all_regions}/3 seeds with perfect recall@10 (need >= 2); "
                  f"location-constant word |score| max {const_worst:.1e} (tol 1e-9); "
           + "; ".join(details))


def test_criterion_8_perplexity(dialect_models):
    V0, N = 23, 5
    uniform = np.full((N, V0), -np.log(V0))
    counts = np.random.default_rng(4).integers(0, 6, size=(N, V0))
    counts[0, 0] = max(counts[0, 0], 1)
    uniform_pp = perplexity(uniform, counts)
    uniform_exact = abs(uniform_pp - V0) < 1e-9

    model, vocab, _, test = dialect_models[8]
    V = len(vocab)
    held_counts = np.zeros((len(test), V))
    for n, r in enumerate(test):
        for t in features.tokenize(r.text):
            j = vocab.index.get(t)
            if j is not None:
                held_counts[n, j] += 1
    pp = perplexity(word_log_probs(model, data.coords_array(test)), held_counts)
    ok = uniform_exact and pp < V
    report(8, ok, f"uniform predictor perplexity {uniform_pp:.6f} == V exactly; "
                  f"trained model held-out perplexity {pp:.1f} < V = {V}")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_determinism_and_persistence(tmp_path):
    spec = data.SyntheticSpec(
        mode_centers=[GeoPoint(30.0, -100.0), GeoPoint(50.0, -100.0)],
        users_per_mode=60, seed=0)
    checkpoints = []
    for run in range(2):
        train, dev, _ = data.generate_synthetic(spec)
        Xtr, vocab = build_features(train)
        Xdev, _ = build_features(dev, vocab)
        Ytr, Ydev = data.coords_array(train), data.coords_array(dev)
        model = models.MdnGeolocator(network.NetworkSpec((len(vocab), 8, 12), seed=2))
        model.init_output_bias_from_labels(Ytr, mode="kmeans", seed=3)
        model.vocab_hash = vocab.content_hash()
        train_geo_model(model, Xtr, Ytr, Xdev, Ydev, 0.02, 10, 5)
        path = tmp_path / f"run{run}.json"
        data.save_model(path, model)
        checkpoints.append(path)
    byte_identical = checkpoints[0].read_bytes() == checkpoints[1].read_bytes()

    loaded = data.load_model(checkpoints[0])
    X = Xtr[:20].toarray()
    round_trip = np.array_equal(loaded.predict_points(X), model.predict_points(X))
    ok = byte_identical and round_trip
    report(9, ok, f"two fixed-seed end-to-end runs byte-identical: {byte_identical}; "
                  f"checkpoint round-trip predictions bitwise equal: {round_trip}")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_geotext_best_effort():
    root = os.environ.get("GEOTEXT_DIR")
    if not root or not os.path.isdir(root):
        print("\nCRITERION 10: SKIPPED (non-gating) — set GEOTEXT_DIR to a directory "
              "with train.tsv/dev.tsv/test.tsv in corpus format to run")
        pytest.skip("GEOTEXT corpus not available")
    train = data.read_corpus(os.path.join(root, "train.tsv"))
    dev = data.read_corpus(os.path.join(root, "dev.tsv"))
    test = data.read_corpus(os.path.join(root, "test.tsv"))
    toks = [features.tokenize(r.text) for r in train]
    vocab = features.build_vocab(toks, min_df=10)
    Xtr = features.vectorize_matrix(toks, vocab)
    Xdev, _ = build_features(dev, vocab)
    Xte, _ = build_features(test, vocab)
    Ytr, Ydev, Yte = map(data.coords_array, (train, dev, test))
    model = models.SharedMdnGeolocator(
        network.NetworkSpec((len(vocab), 100, 300), seed=2))
    model.init_shared_from_labels(Ytr, seed=3)
    train_geo_model(model, Xtr, Ytr, Xdev, Ydev, 0.02, 100, 10)
    rep = eval_geo(model, Xte, Yte)
    ok = rep.acc_at_161 >= 30.0 and rep.median_km <= 600.0
    report(10, ok, f"GEOTEXT shared MDN: Acc@161 {rep.acc_at_161:.1f} (>= 30), "
                   f"median {rep.median_km:.0f} km (<= 600)")
