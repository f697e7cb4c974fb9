"""End-to-end checks of the command-line interface."""

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geomix
from dialect_reference import word_log_probs
from geomix import cli, data, heads


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    rc = run(["synth", "--out-prefix", str(d / "s-"),
              "--mode-centers", "30,-100;50,-100", "--users-per-mode", "120,80",
              "--ambiguous-fraction", "0.3", "--seed", "8"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    d = tmp_path_factory.mktemp("run")
    rc = run(["train", "--model", "mdn", "--profile", "synth-mdn",
              "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
              "--checkpoint", str(d / "mdn.json"), "--vocab", str(d / "vocab.tsv"),
              "--log", str(d / "log.tsv"), "--max-epochs", "15"])
    assert rc == 0
    return d


def test_synth_deterministic(tmp_path):
    for prefix in ("a-", "b-"):
        assert run(["synth", "--out-prefix", str(tmp_path / prefix),
                    "--mode-centers", "30,-100;50,-100", "--users-per-mode", "20",
                    "--seed", "5"]) == 0
    for split in ("train", "dev", "test"):
        assert (tmp_path / f"a-{split}.tsv").read_bytes() == \
            (tmp_path / f"b-{split}.tsv").read_bytes()


def test_train_deterministic(corpus, tmp_path):
    """Two identical runs give byte-identical checkpoints and logs, for every
    model, and each checkpoint lands exactly at --checkpoint."""
    written = []
    for model, epochs in (("regression", "5"), ("mdn", "2"), ("mdn_shared", "2"), ("dialect", "2")):
        args = ["train", "--model", model, "--profile", "synth-" + model.replace("_", "-"),
                "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
                "--max-epochs", epochs]
        names = [f"{model}-1.json", f"{model}-2.json"]
        for name in names:
            assert run(args + ["--checkpoint", str(tmp_path / name),
                               "--log", str(tmp_path / (name + ".log"))]) == 0
        first, second = (tmp_path / name for name in names)
        assert first.read_bytes()[:4] == b"PK\x03\x04"
        assert first.read_bytes() == second.read_bytes(), model
        assert (tmp_path / (names[0] + ".log")).read_bytes() == (tmp_path / (names[1] + ".log")).read_bytes()
        written += [*names, *(name + ".log" for name in names)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)  # no .npz siblings


def test_train_log_format(trained):
    lines = (trained / "log.tsv").read_text().splitlines()
    assert lines[0] == "epoch\ttrain_loss\tdev_metric"
    first = lines[1].split("\t")
    assert first[0] == "0"
    float(first[1])
    float(first[2])


def test_evaluate_output(trained, corpus, capsys):
    rc = run(["evaluate", "--checkpoint", str(trained / "mdn.json"),
              "--vocab", str(trained / "vocab.tsv"),
              "--test", str(corpus / "s-test.tsv"),
              "--error-tsv", str(trained / "err.tsv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("Acc@161: ")
    assert "Mean: " in out and "Median: " in out
    header = (trained / "err.tsv").read_text().splitlines()
    assert header[1].startswith("user_id\t")
    assert len(header) > 2


def test_predict_text_and_rule_echo(trained, capsys):
    rc = run(["predict", "--checkpoint", str(trained / "mdn.json"),
              "--vocab", str(trained / "vocab.tsv"),
              "--text", "mode0tok0 mode0tok1", "--rule", "max_mixture_prob",
              "--top", "99"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# selection_rule=max_mixture_prob"
    fields = out[2].split("\t")
    # prediction should sit near mode 0 at (30, -100)
    assert abs(float(fields[1]) - 30.0) < 3.0
    assert abs(float(fields[2]) + 100.0) < 3.0
    assert fields[3].count("pi=") == 2  # top clamped to K components


def test_predict_no_features_row(trained, capsys):
    rc = run(["predict", "--checkpoint", str(trained / "mdn.json"),
              "--vocab", str(trained / "vocab.tsv"), "--text", "zzz qqq"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# selection_rule=strongest_pi"  # the default rule
    assert out[2].split("\t")[1] == "no-features"


def test_predict_top_zero_prints_no_components(trained, capsys):
    rc = run(["predict", "--checkpoint", str(trained / "mdn.json"),
              "--vocab", str(trained / "vocab.tsv"), "--text", "mode0tok0", "--top", "0"])
    assert rc == 0
    fields = capsys.readouterr().out.splitlines()[2].split("\t")
    assert fields[1] != "no-features" and fields[3] == ""


def test_vocab_hash_mismatch(trained, corpus, tmp_path, capsys):
    other = tmp_path / "other-vocab.tsv"
    text = (trained / "vocab.tsv").read_text().splitlines()
    other.write_text("\n".join(text[:-1]) + "\n")  # drop one term
    assert run(["evaluate", "--checkpoint", str(trained / "mdn.json"),
                "--vocab", str(other), "--test", str(corpus / "s-test.tsv")]) == 1
    assert capsys.readouterr().err.startswith("error: vocabulary hash mismatch")


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_vocab_index_past_every_column_is_an_error_line(command, trained, corpus, tmp_path):
    """A checkpoint saved from code has no vocab_hash, so no hash check stops
    a vocabulary line indexed past every column; such a line once sent scipy
    outside the CSR arrays.  The command runs in a child process, so a crash
    fails this test instead of ending pytest."""
    model = data.load_model(trained / "mdn.json")
    model.vocab_hash = None
    data.save_model(tmp_path / "nohash.ckpt", model)
    lines = (trained / "vocab.tsv").read_text().splitlines()
    lines[1] = "100000000\t" + lines[1].split("\t", 1)[1]
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("\n".join(lines) + "\n")
    queries = {"evaluate": ["--test", corpus / "s-test.tsv"],
               "predict": ["--input", corpus / "s-test.tsv", "--output", tmp_path / "p.tsv"]}[command]
    argv = [command, "--checkpoint", tmp_path / "nohash.ckpt", "--vocab", vocab, *queries]
    proc = subprocess.run([sys.executable, "-m", "geomix.cli", *map(str, argv)], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(Path(geomix.__file__).parents[1])))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {vocab}:2: index 100000000 is not the line's position 0\n"


@pytest.fixture(scope="module")
def dialect_run(corpus, tmp_path_factory):
    d = tmp_path_factory.mktemp("dialect")
    rc = run(["train", "--model", "dialect", "--profile", "synth-dialect",
              "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
              "--checkpoint", str(d / "dia.json"), "--vocab", str(d / "vocab.tsv"),
              "--k", "2", "--max-epochs", "25"])
    assert rc == 0
    regions = d / "regions.tsv"
    regions.write_text("north\t50,-100\tmode1tok0,mode1tok1\n"
                       "south\t30,-100\tmode0tok0,mode0tok1\n"
                       "nowhere\t0,0\tmode0tok0\n")
    return d


def test_dialect_command(dialect_run, corpus, capsys):
    rc = run(["dialect", "--checkpoint", str(dialect_run / "dia.json"),
              "--regions", str(dialect_run / "regions.tsv"),
              "--train", str(corpus / "s-train.tsv"), "--p", "400",
              "--out-prefix", str(dialect_run / "rank-")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "nowhere" in captured.err  # zero-sample region reported and skipped
    lines = captured.out.splitlines()
    assert lines[0].startswith("region\t")
    assert {ln.split("\t")[0] for ln in lines[1:]} == {"north", "south"}
    ranked = (dialect_run / "rank-north.tsv").read_text().splitlines()
    assert ranked[0] == "rank\tterm\tscore"


def test_heatmap_dialect(dialect_run, tmp_path):
    out = tmp_path / "hm.csv"
    rc = run(["heatmap", "--checkpoint", str(dialect_run / "dia.json"),
              "--word", "mode0tok0", "--bbox", "25,55,-105,-95",
              "--resolution", "20", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lat,lon,log_value"
    assert len(lines) == 1 + 20 * 20
    # the planted southern word peaks near lat 30
    best = max(lines[1:], key=lambda ln: float(ln.split(",")[2]))
    assert abs(float(best.split(",")[0]) - 30.0) < 5.0
    # each cell is the word's log-probability column, in the grid's row-major order
    model = data.load_model(dialect_run / "dia.json")
    _, _, points = heads.grid_cells((25.0, 55.0, -105.0, -95.0), 20)
    cells = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(cells[:, :2], points)
    want = word_log_probs(model, points)[:, model.terms.index("mode0tok0")]
    np.testing.assert_allclose(cells[:, 2], want, rtol=0.0, atol=1e-12)


def ranking_scores(path):
    return {term: float(score) for _, term, score in
            (line.split("\t") for line in path.read_text().splitlines()[1:])}


def test_dialect_commands_hold_one_row_block(dialect_run, corpus, tmp_path, monkeypatch):
    from scipy import sparse

    from geomix import features, kernels, models
    dialect = ["dialect", "--checkpoint", str(dialect_run / "dia.json"),
               "--regions", str(dialect_run / "regions.tsv"),
               "--train", str(corpus / "s-train.tsv"), "--p", "200"]
    assert run(dialect + ["--out-prefix", str(tmp_path / "whole-")]) == 0  # one block

    V = len(features.load_vocab(dialect_run / "vocab.tsv").terms)
    monkeypatch.setattr(kernels, "ROW_BLOCK_ELEMS", 8 * V)  # 8-row blocks
    logit_blocks, toarray = models.DialectModel.logit_blocks, sparse.csr_matrix.toarray
    evaluated = []

    def one_block(self, coords):
        for start, h, logits in logit_blocks(self, coords):
            assert len(logits) <= 8, f"logits for {len(logits)} rows at once"
            evaluated.append(len(logits))
            yield start, h, logits

    def batch_rows_only(self, *args, **kwargs):
        assert self.shape[0] <= 8, f"a {self.shape} target matrix was densified"
        return toarray(self, *args, **kwargs)

    monkeypatch.setattr(models.DialectModel, "logit_blocks", one_block)
    monkeypatch.setattr(sparse.csr_matrix, "toarray", batch_rows_only)
    # 160 training rows in batches of 8, 20 dev rows in blocks of 8
    assert run(["train", "--model", "dialect", "--profile", "synth-dialect",
                "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
                "--checkpoint", str(tmp_path / "dia.json"), "--k", "2", "--batch-size", "8",
                "--max-epochs", "1"]) == 0
    assert sum(evaluated) == 20
    evaluated.clear()
    assert run(dialect + ["--out-prefix", str(tmp_path / "blocked-")]) == 0
    distinct = len(np.unique(np.random.default_rng(0).integers(160, size=200)))
    assert sum(evaluated) == distinct and len(evaluated) == -(-distinct // 8)
    evaluated.clear()
    assert run(["heatmap", "--checkpoint", str(dialect_run / "dia.json"), "--word", "mode0tok0",
                "--bbox", "25,55,-105,-95", "--resolution", "6",
                "--output", str(tmp_path / "hm.csv")]) == 0
    assert evaluated == [8, 8, 8, 8, 4]  # 36 cells
    assert len((tmp_path / "hm.csv").read_text().splitlines()) == 1 + 6 * 6
    for region in ("north", "south"):
        whole = ranking_scores(tmp_path / f"whole-{region}.tsv")
        blocked = ranking_scores(tmp_path / f"blocked-{region}.tsv")
        assert whole.keys() == blocked.keys()
        for term, score in whole.items():
            assert abs(blocked[term] - score) <= 1e-9, term


def test_dialect_finds_regions_once_per_distinct_point(dialect_run, corpus, tmp_path, monkeypatch,
                                                       capsys):
    """``dialect`` tests region membership on the distinct sampled rows only,
    and each mask gathered back into sampled order counts every draw."""
    from geomix import dialect as dl
    region_membership, tested = dl.region_membership, []

    def distinct_rows_only(points, region, radius_km):
        tested.append(len(points))
        return region_membership(points, region, radius_km)

    monkeypatch.setattr(dl, "region_membership", distinct_rows_only)
    assert run(["dialect", "--checkpoint", str(dialect_run / "dia.json"),
                "--regions", str(dialect_run / "regions.tsv"),
                "--train", str(corpus / "s-train.tsv"), "--p", "200",
                "--out-prefix", str(tmp_path / "rank-")]) == 0
    coords = data.coords_array(data.read_corpus(corpus / "s-train.tsv"))
    idx = np.random.default_rng(0).integers(len(coords), size=200)
    pts, distinct = coords[idx], len(np.unique(idx))
    assert distinct < 200 and tested == [distinct] * 3  # one call a region, nowhere included
    printed = {ln.split("\t")[0]: int(ln.split("\t")[1])
               for ln in capsys.readouterr().out.splitlines()[1:]}
    regions = {r.name: r for r in dl.read_regions(dialect_run / "regions.tsv")}
    assert printed == {name: int(region_membership(pts, regions[name], 161.0).sum())
                       for name in ("north", "south")}


@pytest.mark.parametrize("block_rows", [None, 8])
def test_dialect_scores_equal_the_log_probability_matrix_formula(block_rows, dialect_run, corpus, tmp_path,
                                                                 monkeypatch):
    """``dialect``'s scores are those of the P x V log-probabilities' whole-
    matrix formula in their low bits, in the same order, and bit for bit those
    of ``region_scores`` under ``region_weights`` of the distinct draws."""
    from geomix import dialect as dl
    from geomix import kernels
    model = data.load_model(dialect_run / "dia.json")
    if block_rows:
        monkeypatch.setattr(kernels, "ROW_BLOCK_ELEMS", block_rows * len(model.terms))
    P, seed = 400, 3
    assert run(["dialect", "--checkpoint", str(dialect_run / "dia.json"),
                "--regions", str(dialect_run / "regions.tsv"), "--train", str(corpus / "s-train.tsv"),
                "--p", str(P), "--seed", str(seed), "--out-prefix", str(tmp_path / "rank-")]) == 0
    coords = data.coords_array(data.read_corpus(corpus / "s-train.tsv"))
    idx = np.random.default_rng(seed).integers(len(coords), size=P)
    distinct, counts = np.unique(idx, return_counts=True)
    assert len(distinct) < P  # the draw repeats points
    regions = [r for r in dl.read_regions(dialect_run / "regions.tsv") if r.name != "nowhere"]
    inside = np.array([dl.region_membership(coords[distinct], region) for region in regions])
    same_path = model.region_scores(coords[distinct], dl.region_weights(counts, inside))
    lp = word_log_probs(model, coords[idx])
    for region, same in zip(regions, same_path):
        mask = dl.region_membership(coords[idx], region)
        want = lp[mask].mean(axis=0) - lp.mean(axis=0)
        lines = [ln.split("\t") for ln in (tmp_path / f"rank-{region.name}.tsv").read_text().splitlines()[1:]]
        assert [term for _, term, _ in lines] == [term for term, _ in dl.dialect_rank(model.terms, want)]
        got = {term: score for _, term, score in lines}
        assert max(abs(float(got[t]) - w) for t, w in zip(model.terms, want)) <= 1e-9
        assert [got[t] for t in model.terms] == [repr(x) for x in same.tolist()]


def test_heatmap_geolocation(trained, tmp_path):
    out = tmp_path / "hm2.csv"
    rc = run(["heatmap", "--checkpoint", str(trained / "mdn.json"),
              "--vocab", str(trained / "vocab.tsv"), "--text", "mode1tok0",
              "--bbox", "25,55,-105,-95", "--resolution", "10",
              "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lat,lon,log_value"
    assert len(lines) == 101


def test_heatmap_oov_word_suggests_neighbors(dialect_run, tmp_path, capsys):
    assert run(["heatmap", "--checkpoint", str(dialect_run / "dia.json"),
                "--word", "mode0tik0", "--bbox", "25,55,-105,-95",
                "--output", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: word 'mode0tik0' not in vocabulary") and "mode0tok0" in err


def test_unknown_profile_and_missing_file(tmp_path, capsys):
    assert run(["train", "--model", "mdn", "--profile", "nope",
                "--train", "x", "--dev", "y", "--checkpoint", "z"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown profile: nope")
    rc = run(["evaluate", "--checkpoint", str(tmp_path / "missing.json"),
              "--vocab", "v", "--test", "t"])
    assert rc == 1


def test_malformed_checkpoint_is_an_error_line(trained, tmp_path, capsys):
    ck = data.load_model(trained / "mdn.json").to_checkpoint()
    del ck["network_spec"]
    bad = tmp_path / "bad.json"
    data.write_checkpoint(bad, ck)
    rc = run(["heatmap", "--checkpoint", str(bad), "--vocab", str(trained / "vocab.tsv"),
              "--text", "ambtok0", "--bbox", "25,55,-110,-90", "--output", str(tmp_path / "g.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# checkpoints no command may read, and the message of the one error line each ends in
REFUSED_CHECKPOINTS = {"format 1 json": "only format 4 is read", "format 2 json": "only format 4 is read",
                       "dialect format 2 json": "only format 4 is read",
                       "format 2 in zip": "unsupported checkpoint version: 2",
                       "format 3 in zip": "unsupported checkpoint version: 3 (only format 4 is read)",
                       "dialect integer terms": "not a list of distinct strings",
                       "dialect integer terms, heatmap word typo": "not a list of distinct strings",
                       "dialect repeated terms": "not a list of distinct strings"}


def write_refused_checkpoint(case, ck, path):
    """Write the checkpoint dict ``ck`` to ``path`` broken as ``case`` says."""
    if "json" in case:  # format 1 kept float lists, format 2 base64 of the <f8 bytes
        ck["format_version"] = 1 if case == "format 1 json" else 2
        ck["params"] = {name: {"shape": list(arr.shape), "data": (
                            arr.ravel().tolist() if ck["format_version"] == 1 else
                            base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"))}
                        for name, arr in ck["params"].items()}
        path.write_text(json.dumps(ck))
        return
    if case == "format 2 in zip":
        ck["format_version"] = 2
    elif case == "format 3 in zip":  # with the fields format 4 dropped
        K = ck["network_spec"]["layer_sizes"][-1] // 6
        ck.update(format_version=3, slice_layout="mu1|mu2|sigma1|sigma2|rho|pi",
                  head={"K": K, "selection_rule": "strongest_pi"})
        ck["network_spec"]["hidden_activation"] = "tanh"
    elif "integer terms" in case:
        ck["terms"] = list(range(len(ck["terms"])))
    elif case == "dialect repeated terms":
        ck["terms"][1] = ck["terms"][0]
    data.write_checkpoint(path, ck)


@pytest.mark.parametrize("case", sorted(REFUSED_CHECKPOINTS))
def test_refused_checkpoint_is_one_error_line(case, trained, dialect_run, corpus, tmp_path, capsys):
    d = dialect_run if case.startswith("dialect") else trained
    ck = data.load_model(d / ("dia.json" if case.startswith("dialect") else "mdn.json")).to_checkpoint()
    bad = tmp_path / "bad.ckpt"
    write_refused_checkpoint(case, ck, bad)
    if case.endswith("heatmap word typo"):  # the nearest-term search once met the integer terms
        argv = ["heatmap", "--checkpoint", str(bad), "--word", "mode0tik0", "--bbox", "25,55,-105,-95",
                "--output", str(tmp_path / "out.csv")]
    else:
        argv = ["evaluate", "--checkpoint", str(bad), "--vocab", str(d / "vocab.tsv"),
                "--test", str(corpus / "s-test.tsv")]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert REFUSED_CHECKPOINTS[case] in err
    assert not (tmp_path / "out.csv").exists()


def test_config_file_and_flag_precedence(corpus, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nmodel = regression\nhidden = 8\n"
                   "[train]\nlr = 0.05\nmax_epochs = 3\nmin_df = 1\n")
    ck = tmp_path / "cfg.json"
    rc = run(["train", "--config", str(cfg),
              "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
              "--checkpoint", str(ck), "--max-epochs", "2"])
    assert rc == 0
    saved = data.load_model(ck)
    assert saved.model_name == "regression"
    # hidden size from the config file, flag-overridden epoch count
    assert saved.spec.layer_sizes[1:] == (8, 2)


@pytest.mark.parametrize("flags, ini, l1_l2", [
    (("--profile", "twitterus-mdn", "--l1", "0.5"), "", (0.5, 5e-6)),
    (("--profile", "twitterus-mdn"), "l2 = 0.25\n", (5e-6, 0.25)),
    (("--profile", "twitterus-mdn"), "regul = 0.5\nl1 = 0.1\n", (0.1, 0.25)),
    (("--regul", "0.5"), "l1 = 0.1\n", (0.25, 0.25)),
], ids=["profile regul, flag l1", "profile regul, config l2", "config regul and l1",
        "config l1, flag regul"])
def test_regul_yields_to_l1_l2_of_its_layer_or_a_later_one(flags, ini, l1_l2, corpus, tmp_path):
    """regul sets l1 = l2 = regul / 2 in its own layer (profile < config
    file < flags); an l1 or l2 in that layer or a later one wins."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[train]\n" + ini)
    ck = tmp_path / "reg.json"
    assert run(["train", "--model", "mdn", *flags, "--config", str(cfg), "--hidden", "4", "--k", "2",
                "--min-df", "1", "--max-epochs", "1", "--train", str(corpus / "s-train.tsv"),
                "--dev", str(corpus / "s-dev.tsv"), "--checkpoint", str(ck)]) == 0
    spec = data.load_model(ck).spec
    assert (spec.l1_coeff, spec.l2_coeff) == l1_l2


def test_table_profiles_encode_reported_settings():
    p = cli.PROFILES
    assert p["geotext-mdn"]["k"] == 100 and p["geotext-mdn"]["dropout"] == 0.5
    assert p["geotext-mdn-shared"]["k"] == 300
    assert p["twitterus-mdn"] == dict(model="mdn", hidden="300", k=100,
                                      dropout=0.0, regul=1e-5, min_df=10)
    assert p["twitterus-mdn-shared"]["hidden"] == "900"
    assert p["twitterus-mdn-shared"]["k"] == 900
    assert p["geotext-regression"]["hidden"] == "100,50"
    assert p["twitterus-regression"]["regul"] == 1e-5


@pytest.fixture(scope="module")
def regression_run(corpus, tmp_path_factory):
    d = tmp_path_factory.mktemp("regression")
    rc = run(["train", "--model", "regression", "--profile", "synth-regression",
              "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
              "--checkpoint", str(d / "reg.json"), "--vocab", str(d / "vocab.tsv"),
              "--max-epochs", "1"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def shared_run(corpus, tmp_path_factory):
    d = tmp_path_factory.mktemp("shared")
    rc = run(["train", "--model", "mdn_shared", "--profile", "synth-mdn-shared", "--k", "6",
              "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
              "--checkpoint", str(d / "shared.json"), "--vocab", str(d / "vocab.tsv"),
              "--max-epochs", "10"])
    assert rc == 0
    return d


TRAIN_CASES = {
    "train k 0": ("mdn", "--k", "0"),
    "dialect train k 0": ("dialect", "--k", "0"),
    "train dropout 1": ("mdn", "--dropout", "1.0"),
    "train patience 0": ("mdn", "--patience", "0"),
    "mdn kmeans k above distinct points": ("mdn", "--k", "500", "--mu-init", "kmeans"),
    "shared k above distinct points": ("mdn_shared", "--k", "500"),
    "dialect k above distinct points": ("dialect", "--k", "500"),
    "dialect empty hidden": ("dialect", "--hidden", ""),
    "dialect two hidden sizes": ("dialect", "--hidden", "16,8"),
    "train batch size 0": ("mdn", "--batch-size", "0"),
    "train batch size -5": ("mdn", "--batch-size", "-5"),
    "train lr 0": ("mdn", "--lr", "0"),
    "train lr below 0": ("mdn", "--lr", "-0.01"),
    "train lr inf": ("mdn", "--lr", "inf"),
    "train max epochs below 0": ("mdn", "--max-epochs", "-1"),
    "train regul -1": ("mdn", "--regul", "-1"),
    "dialect train l2 inf": ("dialect", "--l2", "inf"),
}
SYNTH_CASES = {
    "synth more counts than modes": ("--users-per-mode", "5,5,5"),
    "synth count 0": ("--users-per-mode", "0"),
    "synth ambiguous fraction above 1": ("--ambiguous-fraction", "2"),
    "synth noise tokens below 0": ("--noise-tokens", "-3"),
    "synth mode stddev below 0": ("--mode-stddev", "-1"),
    "synth mode stddev nan": ("--mode-stddev", "nan"),
}
DIALECT_CASES = {
    "malformed regions line": ("north\t50,-100\tmode1tok0\nnot a region\n",),
    "dialect radius 0": ("north\t50,-100\tmode1tok0\n", "--radius-km", "0"),
    "dialect k 0": ("north\t50,-100\tmode1tok0\n", "--k", "0"),
    "dialect k -2": ("north\t50,-100\tmode1tok0\n", "--k", "-2"),
    "dialect p 0": ("north\t50,-100\tmode1tok0\n", "--p", "0"),
    "dialect p -3": ("north\t50,-100\tmode1tok0\n", "--p", "-3"),
    "regions file without regions": ("# a comment\n\n",),
    "no region holds a sampled point": ("far\t-40,150\tmode1tok0\nfarther\t-45,170\tmode0tok0\n",),
    # 10^15 draws: a 7 PiB index array, refused at allocation
    "dialect p 10^15": ("north\t50,-100\tmode1tok0\n", "--p", str(10 ** 15)),
}
PREDICT_CASES = {
    "predict without text or input": (),
    "predict with text and input": ("--text", "mode0tok0", "--input", "s-test.tsv"),
    "predict top below 0": ("--text", "mode0tok0", "--top", "-1"),
}
# flags refused before any file is read: each case runs against a checkpoint that does not exist
FLAG_CASES = {
    "dialect radius 0, no checkpoint": ("dialect", "--radius-km", "0"),
    "dialect radius nan, no checkpoint": ("dialect", "--radius-km", "nan"),
    "dialect radius inf, no checkpoint": ("dialect", "--radius-km", "inf"),
    "heatmap three-value bbox, no checkpoint": ("heatmap", "--bbox", "1,2,3"),
    "heatmap nan bbox, no checkpoint": ("heatmap", "--bbox", "nan,60,-120,-70"),
    "heatmap resolution 0, no checkpoint": ("heatmap", "--resolution", "0"),
    # a 10^7 x 10^7 grid: 728 TiB a coordinate array, refused at allocation
    "heatmap resolution 10^7, no checkpoint": ("heatmap", "--resolution", str(10 ** 7)),
}
# train settings refused before any file is read: each case names a --train file that does not exist
EARLY_TRAIN_CASES = {"train patience 0, no train file": ("--patience", "0"),
                     "train batch size 0, no train file": ("--batch-size", "0"),
                     "train lr inf, no train file": ("--lr", "inf")}
# the model and the flag of each train run given a corpus file with no users
EMPTY_CORPUS_CASES = {
    "train empty train file": ("mdn", "--train"),
    "regression empty dev file": ("regression", "--dev"),
    "mdn empty dev file": ("mdn", "--dev"),
    "shared empty dev file": ("mdn_shared", "--dev"),
    "dialect train empty dev file": ("dialect", "--dev"),
}
# an epsilon in a config file: a zero one makes a row no batch touches 0/0
EPSILON_CASES = {"train epsilon 0": "0", "train epsilon below 0": "-1e-3", "train epsilon nan": "nan"}
# a vocabulary of another width than the network's input, read with a checkpoint that has no vocab_hash
NARROW_VOCAB_CASES = ("evaluate narrow vocab", "predict narrow vocab", "heatmap narrow vocab")
BBOX_CASES = {"nan bbox": "nan,60,-120,-70", "infinite bbox": "20,inf,-120,-70",
              "latitude out of range bbox": "80,120,-120,-70",
              "longitude out of range bbox": "20,60,-300,-70"}
# the message a refusal must name, where an earlier failure could also end in an error line
ERROR_MESSAGES = {"dialect p 0": "--p must be >= 1", "dialect p -3": "--p must be >= 1",
                  "dialect k 0": "--k must be >= 1", "dialect k -2": "--k must be >= 1",
                  "predict without text or input": "exactly one of --text and --input",
                  "predict with text and input": "exactly one of --text and --input",
                  "predict top below 0": "--top must be >= 0",
                  "heatmap text without features": "no in-vocabulary token",
                  "train patience 0": "patience must be >= 1",
                  "train patience 0, no train file": "patience must be >= 1",
                  "train batch size 0": "batch_size must be >= 1",
                  "train batch size -5": "batch_size must be >= 1",
                  "train batch size 0, no train file": "batch_size must be >= 1",
                  "train lr 0": "learning_rate must be finite and > 0",
                  "train lr below 0": "learning_rate must be finite and > 0",
                  "train lr inf": "learning_rate must be finite and > 0",
                  "train lr inf, no train file": "learning_rate must be finite and > 0",
                  "regions file without regions": "regions.tsv has no regions",
                  "no region holds a sampled point": "no sampled point lies inside any region of",
                  "train max epochs below 0": "--max-epochs must be >= 0",
                  "synth more counts than modes": "bad synth settings: 3 users_per_mode counts for 2 modes",
                  "synth count 0": "bad synth settings: users_per_mode must be >= 1",
                  "synth ambiguous fraction above 1": "bad synth settings: ambiguous_only_fraction must be in [0, 1]",
                  "synth noise tokens below 0": "bad synth settings: noise_tokens must be >= 0",
                  "synth mode stddev below 0": "bad synth settings: mode_stddev must be finite and >= 0",
                  "synth mode stddev nan": "bad synth settings: mode_stddev must be finite and >= 0",
                  **{case: "out of range" for case in BBOX_CASES},
                  **{case: "--radius-km must be finite and > 0" for case in FLAG_CASES if "radius" in case},
                  **{case: "bad --bbox" for case in FLAG_CASES if case.startswith("heatmap")},
                  "train regul -1": "l1_coeff must be finite and >= 0, got -0.5",
                  "dialect train l2 inf": "l2_coeff must be finite and >= 0, got inf",
                  "dialect p 10^15": "Unable to allocate",
                  "heatmap resolution 10^7, no checkpoint": "Unable to allocate",
                  **{case: "empty.tsv has no users"
                     for case in [*EMPTY_CORPUS_CASES, "dialect empty train file",
                                  "evaluate empty test file"]},
                  "evaluate non-finite checkpoint": "parameter b1 holds a non-finite value",
                  **{case: "epsilon must be finite and > 0" for case in EPSILON_CASES},
                  **{case: "vocabulary {tmp}/narrow-vocab.tsv has 2 terms but checkpoint "
                           "{tmp}/nohash.ckpt takes 32 inputs" for case in NARROW_VOCAB_CASES}}


def bad_input_argv(case, request, tmp_path):
    out = str(tmp_path / "out.csv")
    if case == "synth center out of range":
        return ["synth", "--out-prefix", str(tmp_path / "s-"), "--mode-centers", "100,-100;50,-100"]
    if case in SYNTH_CASES:
        return ["synth", "--out-prefix", str(tmp_path / "out-"), *SYNTH_CASES[case]]
    if case == "malformed vocab":
        trained, corpus = request.getfixturevalue("trained"), request.getfixturevalue("corpus")
        vocab = tmp_path / "bad-vocab.tsv"
        vocab.write_text((trained / "vocab.tsv").read_text() + "x\ty\n")
        return ["evaluate", "--checkpoint", str(trained / "mdn.json"), "--vocab", str(vocab),
                "--test", str(corpus / "s-test.tsv")]
    if case == "bad config value":
        corpus = request.getfixturevalue("corpus")
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[train]\nlr = fast\n")
        return ["train", "--model", "regression", "--config", str(cfg),
                "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
                "--checkpoint", out]
    if case in EPSILON_CASES:
        corpus = request.getfixturevalue("corpus")
        cfg = tmp_path / "eps.ini"
        cfg.write_text(f"[train]\nepsilon = {EPSILON_CASES[case]}\n")
        return ["train", "--model", "mdn", "--profile", "synth-mdn", "--config", str(cfg),
                "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
                "--checkpoint", out]
    if case in NARROW_VOCAB_CASES:
        trained, corpus = request.getfixturevalue("trained"), request.getfixturevalue("corpus")
        model = data.load_model(trained / "mdn.json")
        model.vocab_hash = None
        data.save_model(tmp_path / "nohash.ckpt", model)
        (tmp_path / "narrow-vocab.tsv").write_text(
            "".join((trained / "vocab.tsv").read_text().splitlines(keepends=True)[:3]))
        ck = ["--checkpoint", str(tmp_path / "nohash.ckpt"), "--vocab", str(tmp_path / "narrow-vocab.tsv")]
        return {"evaluate": ["evaluate", *ck, "--test", str(corpus / "s-test.tsv"), "--error-tsv", out],
                "predict": ["predict", *ck, "--text", "mode0tok0", "--output", out],
                "heatmap": ["heatmap", *ck, "--text", "mode0tok0", "--bbox", "25,55,-105,-95",
                            "--output", out]}[case.split()[0]]
    if case in FLAG_CASES:
        command, *flags = FLAG_CASES[case]
        ck = ["--checkpoint", str(tmp_path / "nothere.ckpt")]
        if command == "dialect":
            return ["dialect", *ck, "--regions", str(tmp_path / "regions.tsv"),
                    "--train", str(tmp_path / "train.tsv"), "--out-prefix", str(tmp_path / "out-"), *flags]
        return ["heatmap", *ck, "--word", "mode0tok0", "--bbox", "25,55,-105,-95", "--output", out, *flags]
    if case in EARLY_TRAIN_CASES:
        missing = str(tmp_path / "nothere.tsv")
        return ["train", "--model", "mdn", "--profile", "synth-mdn", "--train", missing, "--dev", missing,
                "--checkpoint", out, *EARLY_TRAIN_CASES[case]]
    if case in EMPTY_CORPUS_CASES:
        corpus = request.getfixturevalue("corpus")
        (tmp_path / "empty.tsv").write_text("")
        model, flag = EMPTY_CORPUS_CASES[case]
        files = {"--train": str(corpus / "s-train.tsv"), "--dev": str(corpus / "s-dev.tsv"),
                 flag: str(tmp_path / "empty.tsv")}
        return ["train", "--model", model, "--profile", f"synth-{model.replace('_', '-')}",
                *(arg for pair in files.items() for arg in pair), "--checkpoint", out]
    if case == "dialect empty train file":
        d = request.getfixturevalue("dialect_run")
        (tmp_path / "empty.tsv").write_text("")
        return ["dialect", "--checkpoint", str(d / "dia.json"), "--regions", str(d / "regions.tsv"),
                "--train", str(tmp_path / "empty.tsv"), "--out-prefix", str(tmp_path / "out-")]
    if case in TRAIN_CASES:
        corpus = request.getfixturevalue("corpus")
        model, *flags = TRAIN_CASES[case]
        return ["train", "--model", model, "--profile", f"synth-{model.replace('_', '-')}",
                "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
                "--checkpoint", out, *flags]
    if case in DIALECT_CASES:
        d, corpus = request.getfixturevalue("dialect_run"), request.getfixturevalue("corpus")
        regions, *flags = DIALECT_CASES[case]
        (tmp_path / "regions.tsv").write_text(regions)
        return ["dialect", "--checkpoint", str(d / "dia.json"), "--regions", str(tmp_path / "regions.tsv"),
                "--train", str(corpus / "s-train.tsv"), "--p", "200",
                "--out-prefix", str(tmp_path / "out-"), *flags]
    if case == "predict on dialect checkpoint":
        d = request.getfixturevalue("dialect_run")
        return ["predict", "--checkpoint", str(d / "dia.json"), "--vocab", str(d / "vocab.tsv"),
                "--text", "mode0tok0", "--output", out]
    if case in PREDICT_CASES:
        trained, corpus = request.getfixturevalue("trained"), request.getfixturevalue("corpus")
        flags = [str(corpus / f) if f.endswith(".tsv") else f for f in PREDICT_CASES[case]]
        return ["predict", "--checkpoint", str(trained / "mdn.json"),
                "--vocab", str(trained / "vocab.tsv"), "--output", out, *flags]
    if case == "evaluate empty test file":
        trained = request.getfixturevalue("trained")
        (tmp_path / "empty.tsv").write_text("")
        return ["evaluate", "--checkpoint", str(trained / "mdn.json"),
                "--vocab", str(trained / "vocab.tsv"), "--test", str(tmp_path / "empty.tsv"),
                "--error-tsv", out]
    if case == "evaluate non-finite checkpoint":
        trained, corpus = request.getfixturevalue("trained"), request.getfixturevalue("corpus")
        model = data.load_model(trained / "mdn.json")
        model.params["b1"][0] = float("nan")
        data.save_model(tmp_path / "nan.ckpt", model)
        return ["evaluate", "--checkpoint", str(tmp_path / "nan.ckpt"),
                "--vocab", str(trained / "vocab.tsv"), "--test", str(corpus / "s-test.tsv"),
                "--error-tsv", out]
    if case.startswith("dialect"):
        ck = request.getfixturevalue("dialect_run") / "dia.json"
        return ["heatmap", "--checkpoint", str(ck), "--word", "mode0tok0",
                "--bbox", "30,30,-100,-90", "--resolution", "1", "--output", out]
    d = request.getfixturevalue("regression_run" if case.startswith("regression") else "trained")
    ck = d / ("reg.json" if case.startswith("regression") else "mdn.json")
    bbox = {"three-value bbox": "1,2,3", "degenerate bbox": "1,1,3,4", **BBOX_CASES}.get(case, "25,55,-105,-95")
    text = "qqqq" if case == "heatmap text without features" else "mode1tok0"
    return ["heatmap", "--checkpoint", str(ck), "--vocab", str(d / "vocab.tsv"),
            "--text", text, "--bbox", bbox, "--output", out]


@pytest.mark.parametrize("case", ["three-value bbox", "degenerate bbox", "dialect degenerate bbox",
                                  *BBOX_CASES, "heatmap text without features",
                                  "regression heatmap", "synth center out of range", *SYNTH_CASES,
                                  "malformed vocab", "bad config value", *TRAIN_CASES,
                                  *DIALECT_CASES, "predict on dialect checkpoint",
                                  *PREDICT_CASES, "evaluate empty test file",
                                  "evaluate non-finite checkpoint", *FLAG_CASES, *EARLY_TRAIN_CASES,
                                  *EMPTY_CORPUS_CASES, "dialect empty train file", *EPSILON_CASES,
                                  *NARROW_VOCAB_CASES])
def test_bad_input_is_an_error_line(case, request, tmp_path, capsys):
    argv = bad_input_argv(case, request, tmp_path)
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert ERROR_MESSAGES.get(case, "").format(tmp=tmp_path) in err
    assert not list(tmp_path.glob("out*"))


def config_argv(command, cfg, corpus, tmp_path):
    if command == "train":
        return ["train", "--model", "regression", "--config", str(cfg),
                "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
                "--checkpoint", str(tmp_path / "typo.json")]
    return ["synth", "--config", str(cfg), "--out-prefix", str(tmp_path / "s-")]


@pytest.mark.parametrize("command", ["train", "synth"])
def test_unknown_config_key_is_an_error(command, corpus, tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[train]\nlearning_rate = 0.5\n")
    assert run(config_argv(command, cfg, corpus, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "learning_rate" in err


@pytest.mark.parametrize("command, text", [("train", "lr = 0.5\n"),  # no [section] line
                                           ("synth", "[synth]\nseed = 1\nseed = 2\n")])
def test_unparsable_config_file_is_an_error_line(command, text, corpus, tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text(text)
    assert run(config_argv(command, cfg, corpus, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad config file {cfg}:") and err.count("\n") == 1


def test_predict_tokenizes_each_row_once(trained, corpus, tmp_path, monkeypatch):
    from geomix import features
    calls = []
    tokenize = features.tokenize
    monkeypatch.setattr(features, "tokenize", lambda text: calls.append(text) or tokenize(text))
    queries = tmp_path / "q.tsv"
    queries.write_text("a\t0\t0\tmode0tok0 mode0tok1\nb\t0\t0\tzzz qqq\nc\t0\t0\tmode1tok0\n")
    assert run(["predict", "--checkpoint", str(trained / "mdn.json"),
                "--vocab", str(trained / "vocab.tsv"), "--input", str(queries),
                "--output", str(tmp_path / "p.tsv")]) == 0
    assert len(calls) == 3
    rows = (tmp_path / "p.tsv").read_text().splitlines()[2:]
    assert [r.split("\t")[1] == "no-features" for r in rows] == [False, True, False]


@pytest.mark.parametrize("rule", ["strongest_pi", "max_mixture_prob"])
@pytest.mark.parametrize("run_dir, checkpoint", [("trained", "mdn.json"), ("shared_run", "shared.json"),
                                                 ("regression_run", "reg.json")])
def test_predict_text_answer_equals_its_input_row(run_dir, checkpoint, rule, request, corpus,
                                                  tmp_path, capsys):
    d = request.getfixturevalue(run_dir)
    argv = ["predict", "--checkpoint", str(d / checkpoint), "--vocab", str(d / "vocab.tsv"),
            "--rule", rule, "--top", "3"]
    queries = (corpus / "s-test.tsv").read_text().splitlines()[:12] + ["none\t0\t0\tzzz qqq"]
    (tmp_path / "q.tsv").write_text("\n".join(queries) + "\n")
    capsys.readouterr()
    assert run(argv + ["--input", str(tmp_path / "q.tsv")]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [r.split("\t")[0] for r in rows] == [q.split("\t")[0] for q in queries]
    for query, row in zip(queries, rows):
        assert run(argv + ["--text", query.split("\t")[3]]) == 0
        (answer,) = capsys.readouterr().out.splitlines()[2:]
        assert answer.split("\t")[1:] == row.split("\t")[1:]


def test_predict_and_evaluate_clip_to_the_same_point(regression_run, corpus, tmp_path, capsys):
    """A regression output layer is unbounded: with W_out zero and b_out
    (100, 0) every user's raw latitude is 100.  ``predict`` prints, and
    ``evaluate --error-tsv`` scores, the same clipped latitude 90."""
    model = data.load_model(regression_run / "reg.json")
    out = len(model.spec.layer_sizes) - 2
    model.params[f"W{out}"][...] = 0.0
    model.params[f"b{out}"][...] = (100.0, 0.0)
    ck = tmp_path / "north.json"
    data.save_model(ck, model)
    argv = ["--checkpoint", str(ck), "--vocab", str(regression_run / "vocab.tsv")]
    uid, _, _, text = (corpus / "s-test.tsv").read_text().splitlines()[0].split("\t")
    capsys.readouterr()
    assert run(["predict", *argv, "--text", text]) == 0
    predicted = capsys.readouterr().out.splitlines()[2].split("\t")[1]
    assert run(["evaluate", *argv, "--test", str(corpus / "s-test.tsv"),
                "--error-tsv", str(tmp_path / "err.tsv")]) == 0
    scored = {row[0]: row[3] for row in (line.split("\t") for line in
                                         (tmp_path / "err.tsv").read_text().splitlines()[2:])}
    assert float(predicted) == float(scored[uid]) == 90.0
