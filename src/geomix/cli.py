"""Command-line entry point: train, evaluate, predict, dialect, heatmap, synth.

Hyperparameter profiles encode the tuned per-dataset settings; any field can
be overridden by a config file ([section] key=value) and, above that, by a
command-line flag.
"""

import argparse
import configparser
import contextlib
import sys

import numpy as np

from . import data, dialect as dl, features, geo, heads, models, network

# regul is the total elastic-net coefficient, split equally between l1 and l2
PROFILES = {
    "geotext-regression": dict(model="regression", hidden="100,50", dropout=0.0, regul=0.0, min_df=10),
    "geotext-mdn": dict(model="mdn", hidden="100", k=100, dropout=0.5, regul=0.0, min_df=10),
    "geotext-mdn-shared": dict(model="mdn_shared", hidden="100", k=300, dropout=0.0, regul=0.0, min_df=10),
    "twitterus-regression": dict(model="regression", hidden="100,50", dropout=0.0, regul=1e-5, min_df=10),
    "twitterus-mdn": dict(model="mdn", hidden="300", k=100, dropout=0.0, regul=1e-5, min_df=10),
    "twitterus-mdn-shared": dict(model="mdn_shared", hidden="900", k=900, dropout=0.0, regul=0.0, min_df=10),
    "synth-regression": dict(model="regression", hidden="100,50", dropout=0.0, regul=0.0,
                             min_df=1, lr=0.1, max_epochs=150, patience=30),
    "synth-mdn": dict(model="mdn", hidden="50", k=2, dropout=0.0, regul=0.0,
                      min_df=1, lr=0.02, max_epochs=200, patience=30, mu_init="kmeans"),
    "synth-mdn-shared": dict(model="mdn_shared", hidden="100", k=2, dropout=0.0, regul=0.0,
                             min_df=1, lr=0.02, max_epochs=150, patience=30),
    "synth-dialect": dict(model="dialect", hidden="16", k=4, dropout=0.0, regul=0.0,
                          min_df=1, lr=0.02, max_epochs=120, patience=15),
}

DEFAULTS = dict(model=None, hidden="100", k=100, dropout=0.0, regul=None,
                l1=0.0, l2=0.0, min_df=10, lr=1e-3, beta1=0.9, beta2=0.999,
                epsilon=1e-8, batch_size=32, max_epochs=100, patience=10,
                seed=0, selection_rule="strongest_pi", mu_init="mean")


SYNTH_KEYS = ("mode_centers", "mode_stddev", "users_per_mode", "tokens_per_user",
              "exclusive_tokens_per_mode", "ambiguous_tokens", "noise_tokens",
              "ambiguous_only_fraction", "seed")


class UsageError(ValueError):
    """Bad command-line or config-file input."""


def _load_config_file(path, allowed):
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as f:
        parser.read_file(f)
    flat = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key not in allowed:
                raise UsageError(f"unknown key {key!r} in [{section}] of {path}")
            flat[key] = value
    return flat


def resolve_config(args):
    """Defaults < profile < config file < explicit flags."""
    cfg = dict(DEFAULTS)
    if getattr(args, "profile", None):
        if args.profile not in PROFILES:
            raise UsageError(f"unknown profile: {args.profile} (have {', '.join(sorted(PROFILES))})")
        cfg.update(PROFILES[args.profile])
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config, DEFAULTS))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    try:
        for key in ("k", "min_df", "batch_size", "max_epochs", "patience", "seed"):
            cfg[key] = int(cfg[key])
        for key in ("dropout", "l1", "l2", "lr", "beta1", "beta2", "epsilon"):
            cfg[key] = float(cfg[key])
        if cfg.get("regul") is not None:
            cfg["l1"] = cfg["l2"] = float(cfg["regul"]) / 2.0
        cfg["hidden"] = tuple(int(h) for h in str(cfg["hidden"]).split(",") if h)
    except ValueError as e:
        raise UsageError(f"bad setting: {e}") from e
    return cfg


def _read_features(path, vocab=None, min_df=10, scheme="l2_count"):
    records = data.read_corpus(path)
    tokens = [features.tokenize(r.text) for r in records]
    if vocab is None:
        vocab = features.build_vocab(tokens, min_df=min_df)
    X = features.vectorize_matrix(tokens, vocab, scheme=scheme)
    return records, tokens, vocab, X


def cmd_train(args):
    cfg = resolve_config(args)
    if cfg["model"] not in ("regression", "mdn", "mdn_shared", "dialect"):
        raise UsageError(f"--model must be one of regression/mdn/mdn_shared/dialect, got {cfg['model']!r}")
    if cfg["model"] == "regression" and args.k is not None:
        print("warning: K is ignored for the regression model", file=sys.stderr)
    scheme = "l1_binary_idf" if cfg["model"] == "dialect" else "l2_count"
    train_recs, train_toks, vocab, Xtr = _read_features(args.train, min_df=cfg["min_df"], scheme=scheme)
    dev_recs, _, _, Xdev = _read_features(args.dev, vocab=vocab, scheme=scheme)
    Ytr = data.coords_array(train_recs)
    Ydev = data.coords_array(dev_recs)
    D, K = len(vocab), cfg["k"]
    seed = cfg["seed"]

    if cfg["model"] == "dialect":
        if not cfg["hidden"]:
            raise UsageError("the dialect model needs a --hidden size")
        model = models.DialectModel.init(K, cfg["hidden"][0], vocab.terms, Ytr, seed=seed,
                                         dropout_rate=cfg["dropout"], l1_coeff=cfg["l1"], l2_coeff=cfg["l2"])
        train_data = (Ytr, Xtr.toarray())
        dev_data = (Ydev, Xdev.toarray())
    else:
        if cfg["model"] == "regression":
            spec = network.NetworkSpec((D, *cfg["hidden"], 2), dropout_rate=cfg["dropout"],
                                       l1_coeff=cfg["l1"], l2_coeff=cfg["l2"], seed=seed)
            model = models.RegressionGeolocator(spec)
        elif cfg["model"] == "mdn":
            spec = network.NetworkSpec((D, *cfg["hidden"], 6 * K), dropout_rate=cfg["dropout"],
                                       l1_coeff=cfg["l1"], l2_coeff=cfg["l2"], seed=seed)
            model = models.MdnGeolocator(spec, heads.MdnHeadConfig(K, cfg["selection_rule"]))
            model.init_output_bias_from_labels(Ytr, mode=cfg["mu_init"], seed=seed)
        else:
            spec = network.NetworkSpec((D, *cfg["hidden"], K), dropout_rate=cfg["dropout"],
                                       l1_coeff=cfg["l1"], l2_coeff=cfg["l2"], seed=seed)
            model = models.SharedMdnGeolocator(spec, heads.MdnHeadConfig(K, cfg["selection_rule"]))
            model.init_shared_from_labels(Ytr, seed=seed)
        train_data = (Xtr, Ytr)
        dev_data = (Xdev, Ydev)

    model.vocab_hash = vocab.content_hash()
    log_lines = []

    def sink(record):
        epoch, train_loss, dev_metric, elapsed = record
        log_lines.append(f"{epoch}\t{float(train_loss)!r}\t{float(dev_metric)!r}\n")
        print(f"epoch {epoch}: train={train_loss:.6f} dev={dev_metric:.6f} ({elapsed:.2f}s)",
              file=sys.stderr)

    network.train_loop(model, train_data, dev_data,
                       network.AdamConfig(cfg["lr"], cfg["beta1"], cfg["beta2"], cfg["epsilon"]),
                       network.EarlyStopConfig(cfg["patience"]),
                       batch_size=cfg["batch_size"], max_epochs=cfg["max_epochs"],
                       seed=seed, log_sink=sink)
    data.save_model(args.checkpoint, model)
    if args.vocab:
        features.save_vocab(args.vocab, vocab)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            f.write("epoch\ttrain_loss\tdev_metric\n")
            f.writelines(log_lines)
    print(f"checkpoint written to {args.checkpoint}", file=sys.stderr)


def _load_vocab_for(model, path):
    """The vocabulary at ``path``, refused unless ``model`` was trained on it."""
    vocab = features.load_vocab(path)
    if model.vocab_hash is not None and model.vocab_hash != vocab.content_hash():
        raise UsageError(f"vocabulary hash mismatch: checkpoint {model.vocab_hash}, "
                         f"file {vocab.content_hash()}")
    return vocab


def _load_geolocator(args):
    """The ``--checkpoint`` geolocation model and its ``--vocab``."""
    model = data.load_model(args.checkpoint)
    if model.model_name == "dialect":
        raise UsageError(f"{args.command} expects a geolocation checkpoint; "
                         "use the dialect subcommand for dialect models")
    return model, _load_vocab_for(model, args.vocab)


def cmd_evaluate(args):
    model, vocab = _load_geolocator(args)
    records, _, _, X = _read_features(args.test, vocab=vocab)
    truths = [r.location for r in records]
    raw = model.predict_points(X)
    preds = models.points_from_array(np.clip(raw, [-90.0, -180.0], [90.0, 180.0]))
    report = geo.evaluate(preds, truths, [r.user_id for r in records])
    print(f"Acc@161: {report.acc_at_161:.2f}")
    print(f"Mean: {report.mean_km:.2f}")
    print(f"Median: {report.median_km:.2f}")
    if args.error_tsv:
        geo.write_error_tsv(args.error_tsv, preds, truths, [r.user_id for r in records])
        print(f"per-user errors written to {args.error_tsv}", file=sys.stderr)


def cmd_predict(args):
    model, vocab = _load_geolocator(args)
    rule = args.rule or getattr(getattr(model, "head", None), "selection_rule", "strongest_pi")
    if args.text is not None:
        rows = [("stdin", args.text)]
    else:
        rows = [(r.user_id, r.text) for r in data.read_corpus(args.input)]
    with (open(args.output, "w", encoding="utf-8") if args.output
          else contextlib.nullcontext(sys.stdout)) as out:
        print(f"# selection_rule={rule}", file=out)
        print("user_id\tpred_lat\tpred_lon\tcomponents", file=out)
        for uid, text in rows:
            X = features.vectorize_matrix([features.tokenize(text)], vocab)
            if X.nnz == 0:
                print(f"{uid}\tno-features\tno-features\t", file=out)
                continue
            if hasattr(model, "mixture_arrays"):
                mu1, mu2, s1, s2, rho, pi = model.mixture_arrays(X)
                p = heads.predict_arrays(mu1, mu2, s1, s2, rho, pi, rule)[0]
                order = np.argsort(-pi[0])[:min(args.top, pi.shape[1])]
                comps = ";".join(
                    f"pi={pi[0, k]:.4f},mu=({mu1[0, k]:.4f},{mu2[0, k]:.4f}),"
                    f"sigma=({s1[0, k]:.4f},{s2[0, k]:.4f}),rho={rho[0, k]:.4f}"
                    for k in order)
            else:
                p = model.predict_points(X)[0]
                comps = ""
            print(f"{uid}\t{p[0]:.6f}\t{p[1]:.6f}\t{comps}", file=out)


def cmd_dialect(args):
    model = data.load_model(args.checkpoint)
    if model.model_name != "dialect":
        raise UsageError(f"dialect scoring needs a dialect checkpoint, got {model.model_name!r}")
    regions = dl.read_regions(args.regions)
    train_recs = data.read_corpus(args.train)
    coords = data.coords_array(train_recs)
    rng = np.random.default_rng(args.seed)
    pts = coords[rng.integers(len(coords), size=args.p)]
    log_probs = model.word_log_probs(pts)
    terms = model.terms
    summary = []
    for region in regions:
        mask = np.array([dl.region_membership(geo.GeoPoint(*p), region, args.radius_km)
                         for p in pts])
        if not mask.any():
            print(f"warning: no sampled points inside {region.name}; skipped", file=sys.stderr)
            continue
        scores = dl.score_vocabulary(log_probs, mask)
        ranked = dl.dialect_rank(terms, scores)
        recall, oov = dl.recall_at_k([t for t, _ in ranked], region.terms, args.k, terms)
        dl.write_ranking_tsv(f"{args.out_prefix}{region.name}.tsv", ranked)
        summary.append((region.name, int(mask.sum()), recall, len(oov)))
    print("region\tn_points\trecall@%d\toov_gold" % args.k)
    for name, n, recall, oov in summary:
        rec = "undefined" if recall is None else f"{recall:.4f}"
        print(f"{name}\t{n}\t{rec}\t{oov}")


def _edit_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def cmd_heatmap(args):
    model = data.load_model(args.checkpoint)
    res = args.resolution
    try:
        lats, lons, points = heads.grid_cells(tuple(float(x) for x in args.bbox.split(",")), res)
    except ValueError as e:
        raise UsageError(f"bad --bbox {args.bbox!r} or --resolution {res}: {e}") from e
    if model.model_name == "dialect":
        if args.word is None:
            raise UsageError("dialect heatmap needs --word")
        if args.word not in model.terms:
            near = sorted(model.terms, key=lambda t: _edit_distance(args.word, t))[:5]
            raise UsageError(f"word {args.word!r} not in vocabulary; nearest: {', '.join(near)}")
        values = model.word_log_probs(points)[:, model.terms.index(args.word)]
    else:
        if not hasattr(model, "mixture_arrays"):
            raise UsageError(f"heatmap needs a mixture or dialect checkpoint, got {model.model_name!r}")
        if args.text is None or args.vocab is None:
            raise UsageError("geolocation heatmap needs --text and --vocab")
        vocab = _load_vocab_for(model, args.vocab)
        X = features.vectorize_matrix([features.tokenize(args.text)], vocab)
        values = heads.predictive_density_grid([a[0] for a in model.mixture_arrays(X)], points)
    values = values.reshape(res, res)
    with open(args.output, "w", encoding="utf-8") as f:
        f.write("lat,lon,log_value\n")
        for i, la in enumerate(lats):
            for j, lo in enumerate(lons):
                f.write(f"{float(la)!r},{float(lo)!r},{float(values[i, j])!r}\n")
    print(f"grid written to {args.output}", file=sys.stderr)


def _synth_spec(args, cfg):
    centers = [geo.GeoPoint(*map(float, p.split(",")))
               for p in (args.mode_centers or cfg.get("mode_centers", "30,-100;50,-100")).split(";")]
    users = args.users_per_mode or cfg.get("users_per_mode", "100")
    users = [int(u) for u in str(users).split(",")]
    return data.SyntheticSpec(
        mode_centers=centers,
        mode_stddev=float(args.mode_stddev or cfg.get("mode_stddev", 0.5)),
        users_per_mode=users if len(users) > 1 else users[0],
        tokens_per_user=int(args.tokens_per_user or cfg.get("tokens_per_user", 30)),
        exclusive_tokens_per_mode=int(args.exclusive_tokens or cfg.get("exclusive_tokens_per_mode", 5)),
        ambiguous_tokens=int(args.ambiguous_tokens or cfg.get("ambiguous_tokens", 2)),
        noise_tokens=int(args.noise_tokens or cfg.get("noise_tokens", 20)),
        ambiguous_only_fraction=float(args.ambiguous_fraction or cfg.get("ambiguous_only_fraction", 0.25)),
        seed=int(args.seed if args.seed is not None else cfg.get("seed", 0)))


def cmd_synth(args):
    cfg = {}
    if args.config:
        cfg = _load_config_file(args.config, SYNTH_KEYS)
    try:
        spec = _synth_spec(args, cfg)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad synth settings: {e}") from e
    train, dev, test = data.generate_synthetic(spec)
    for name, records in (("train", train), ("dev", dev), ("test", test)):
        path = f"{args.out_prefix}{name}.tsv"
        data.write_corpus(path, records)
        print(f"{path}: {len(records)} users", file=sys.stderr)


def build_parser():
    parser = argparse.ArgumentParser(prog="geomix",
                                     description="Gaussian-mixture geolocation and lexical dialectology")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI-style config file; flags override")
        p.add_argument("--profile", help=f"named profile: {', '.join(sorted(PROFILES))}")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="train a model")
    add_common(p)
    p.add_argument("--model", choices=["regression", "mdn", "mdn_shared", "dialect"])
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--log")
    p.add_argument("--k", type=int)
    p.add_argument("--hidden")
    p.add_argument("--dropout", type=float)
    p.add_argument("--regul", type=float)
    p.add_argument("--l1", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--min-df", dest="min_df", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--selection-rule", dest="selection_rule",
                   choices=["strongest_pi", "max_mixture_prob"])
    p.add_argument("--mu-init", dest="mu_init", choices=["mean", "kmeans"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a geolocation checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--error-tsv", dest="error_tsv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict locations for text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--text")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--rule", choices=["strongest_pi", "max_mixture_prob"])
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("dialect", help="rank dialect terms per region")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--train", required=True, help="corpus to sample points from")
    p.add_argument("--out-prefix", dest="out_prefix", default="ranking-")
    p.add_argument("--p", type=int, default=10000)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--radius-km", dest="radius_km", type=float, default=161.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dialect)

    p = sub.add_parser("heatmap", help="export a log-probability grid")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--word")
    p.add_argument("--text")
    p.add_argument("--bbox", required=True, help="lat_min,lat_max,lon_min,lon_max")
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config")
    p.add_argument("--out-prefix", dest="out_prefix", default="synth-")
    p.add_argument("--mode-centers", dest="mode_centers")
    p.add_argument("--mode-stddev", dest="mode_stddev")
    p.add_argument("--users-per-mode", dest="users_per_mode")
    p.add_argument("--tokens-per-user", dest="tokens_per_user")
    p.add_argument("--exclusive-tokens", dest="exclusive_tokens")
    p.add_argument("--ambiguous-tokens", dest="ambiguous_tokens")
    p.add_argument("--noise-tokens", dest="noise_tokens")
    p.add_argument("--ambiguous-fraction", dest="ambiguous_fraction")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, network.TrainingError, OSError) as e:  # geomix's input errors are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
