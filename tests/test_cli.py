"""End-to-end checks of the command-line interface."""

import pytest

from geomix import cli


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
    args = ["train", "--model", "regression", "--profile", "synth-regression",
            "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
            "--max-epochs", "5"]
    for name in ("r1.json", "r2.json"):
        assert run(args + ["--checkpoint", str(tmp_path / name),
                           "--log", str(tmp_path / (name + ".log"))]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "r1.json.log").read_bytes() == (tmp_path / "r2.json.log").read_bytes()


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
    assert out[2].split("\t")[1] == "no-features"


def test_vocab_hash_mismatch(trained, corpus, tmp_path, capsys):
    other = tmp_path / "other-vocab.tsv"
    text = (trained / "vocab.tsv").read_text().splitlines()
    other.write_text("\n".join(text[:-1]) + "\n")  # drop one term
    assert run(["evaluate", "--checkpoint", str(trained / "mdn.json"),
                "--vocab", str(other), "--test", str(corpus / "s-test.tsv")]) == 1
    assert capsys.readouterr().err.startswith("error: vocabulary hash mismatch")


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
    import json
    ck = json.loads((trained / "mdn.json").read_text())
    del ck["network_spec"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ck))
    rc = run(["heatmap", "--checkpoint", str(bad), "--vocab", str(trained / "vocab.tsv"),
              "--text", "ambtok0", "--bbox", "25,55,-110,-90", "--output", str(tmp_path / "g.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_config_file_and_flag_precedence(corpus, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nmodel = regression\nhidden = 8\n"
                   "[train]\nlr = 0.05\nmax_epochs = 3\nmin_df = 1\n")
    ck = tmp_path / "cfg.json"
    rc = run(["train", "--config", str(cfg),
              "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
              "--checkpoint", str(ck), "--max-epochs", "2"])
    assert rc == 0
    import json
    saved = json.loads(ck.read_text())
    assert saved["model"] == "regression"
    # hidden size from the config file, flag-overridden epoch count
    assert saved["network_spec"]["layer_sizes"][1:] == [8, 2]


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


TRAIN_CASES = {
    "train k 0": ("mdn", "--k", "0"),
    "dialect train k 0": ("dialect", "--k", "0"),
    "train dropout 1": ("mdn", "--dropout", "1.0"),
    "train patience 0": ("mdn", "--patience", "0"),
    "mdn kmeans k above distinct points": ("mdn", "--k", "500", "--mu-init", "kmeans"),
    "shared k above distinct points": ("mdn_shared", "--k", "500"),
    "dialect k above distinct points": ("dialect", "--k", "500"),
    "dialect empty hidden": ("dialect", "--hidden", ""),
}
DIALECT_CASES = {
    "malformed regions line": ("north\t50,-100\tmode1tok0\nnot a region\n",),
    "dialect radius 0": ("north\t50,-100\tmode1tok0\n", "--radius-km", "0"),
    "dialect k 0": ("north\t50,-100\tmode1tok0\n", "--k", "0"),
}


def bad_input_argv(case, request, tmp_path):
    out = str(tmp_path / "out.csv")
    if case == "synth center out of range":
        return ["synth", "--out-prefix", str(tmp_path / "s-"), "--mode-centers", "100,-100;50,-100"]
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
    if case == "evaluate empty test file":
        trained = request.getfixturevalue("trained")
        (tmp_path / "empty.tsv").write_text("")
        return ["evaluate", "--checkpoint", str(trained / "mdn.json"),
                "--vocab", str(trained / "vocab.tsv"), "--test", str(tmp_path / "empty.tsv"),
                "--error-tsv", out]
    if case.startswith("dialect"):
        ck = request.getfixturevalue("dialect_run") / "dia.json"
        return ["heatmap", "--checkpoint", str(ck), "--word", "mode0tok0",
                "--bbox", "30,30,-100,-90", "--resolution", "1", "--output", out]
    d = request.getfixturevalue("regression_run" if case.startswith("regression") else "trained")
    ck = d / ("reg.json" if case.startswith("regression") else "mdn.json")
    bbox = {"three-value bbox": "1,2,3", "degenerate bbox": "1,1,3,4"}.get(case, "25,55,-105,-95")
    return ["heatmap", "--checkpoint", str(ck), "--vocab", str(d / "vocab.tsv"),
            "--text", "mode1tok0", "--bbox", bbox, "--output", out]


@pytest.mark.parametrize("case", ["three-value bbox", "degenerate bbox", "dialect degenerate bbox",
                                  "regression heatmap", "synth center out of range",
                                  "malformed vocab", "bad config value", *TRAIN_CASES,
                                  *DIALECT_CASES, "predict on dialect checkpoint",
                                  "evaluate empty test file"])
def test_bad_input_is_an_error_line(case, request, tmp_path, capsys):
    argv = bad_input_argv(case, request, tmp_path)
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["train", "synth"])
def test_unknown_config_key_is_an_error(command, corpus, tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[train]\nlearning_rate = 0.5\n")
    if command == "train":
        argv = ["train", "--model", "regression", "--config", str(cfg),
                "--train", str(corpus / "s-train.tsv"), "--dev", str(corpus / "s-dev.tsv"),
                "--checkpoint", str(tmp_path / "typo.json")]
    else:
        argv = ["synth", "--config", str(cfg), "--out-prefix", str(tmp_path / "s-")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "learning_rate" in err


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
