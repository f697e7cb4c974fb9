"""Command-line entry point: train, evaluate, predict, dialect, heatmap, synth.

Hyperparameter profiles encode the tuned per-dataset settings; any field can
be overridden by a config file ([section] key=value) and, above that, by a
command-line flag.
"""

import argparse
import configparser
import contextlib
import itertools
import sys

import numpy as np

from . import data, dialect as dl, features, geo, heads, kernels, models, network

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

DEFAULTS = dict(model=None, hidden="100", k=100, dropout=0.0, regul=0.0,
                l1=0.0, l2=0.0, min_df=10, lr=1e-3, beta1=0.9, beta2=0.999,
                epsilon=1e-8, batch_size=32, max_epochs=100, patience=10,
                seed=0, mu_init="mean")

SYNTH_DEFAULTS = dict(mode_centers="30,-100;50,-100", mode_stddev=0.5, users_per_mode="100",
                      tokens_per_user=30, exclusive_tokens_per_mode=5, ambiguous_tokens=2,
                      noise_tokens=20, ambiguous_only_fraction=0.25, seed=0)


class UsageError(ValueError):
    """Bad command-line or config-file input."""


def _load_config_file(path, allowed):
    parser = configparser.ConfigParser()
    flat = {}
    with open(path, encoding="utf-8") as f:
        try:
            parser.read_file(f)
            for section in parser.sections():
                for key, value in parser.items(section):
                    if key not in allowed:
                        raise UsageError(f"unknown key {key!r} in [{section}] of {path}")
                    flat[key] = value
        except configparser.Error as e:
            raise UsageError(f"bad config file {path}: {' '.join(str(e).split())}") from e
    return flat


def resolve_config(args, defaults, profiles=None):
    """The settings ``defaults`` names: defaults < ``--profile`` < ``--config``
    file < explicit flags, each value converted by the type of its default.

    A ``regul`` sets l1 = l2 = regul / 2 in its own layer; an l1 or l2 in
    that layer or a later one wins.
    """
    layers = []
    if getattr(args, "profile", None):
        if args.profile not in profiles:
            raise UsageError(f"unknown profile: {args.profile} (have {', '.join(sorted(profiles))})")
        layers.append(profiles[args.profile])
    if args.config:
        layers.append(_load_config_file(args.config, defaults))
    layers.append({key: getattr(args, key) for key in defaults if getattr(args, key, None) is not None})
    cfg = dict(defaults)
    try:
        for layer in layers:
            layer = {key: value if defaults[key] is None else type(defaults[key])(value)
                     for key, value in layer.items()}
            if "regul" in layer:
                cfg["l1"] = cfg["l2"] = layer["regul"] / 2.0
            cfg.update(layer)
    except ValueError as e:
        raise UsageError(f"bad setting: {e}") from e
    return cfg


def _vectorize(texts, vocab=None, min_df=10, scheme="l2_count"):
    """(vocabulary, N x V CSR) of the texts; ``vocab`` None builds one from them."""
    tokens = [features.tokenize(t) for t in texts]
    if vocab is None:
        vocab = features.build_vocab(tokens, min_df=min_df)
    return vocab, features.vectorize_matrix(tokens, vocab, scheme=scheme)


def _read_users(path):
    """The corpus at ``path``, refused if it holds no user."""
    records = data.read_corpus(path)
    if not records:
        raise UsageError(f"{path} has no users")
    return records


def cmd_train(args):
    cfg = resolve_config(args, DEFAULTS, PROFILES)
    try:
        hidden = tuple(int(h) for h in cfg["hidden"].split(",") if h)
    except ValueError as e:
        raise UsageError(f"bad setting: {e}") from e
    if cfg["max_epochs"] < 0:
        raise UsageError("--max-epochs must be >= 0")
    adam_cfg = network.AdamConfig(cfg["lr"], cfg["beta1"], cfg["beta2"], cfg["epsilon"])
    stop_cfg = network.EarlyStopConfig(cfg["patience"])
    if cfg["batch_size"] < 1:
        raise UsageError(f"batch_size must be >= 1, got {cfg['batch_size']}")
    if cfg["model"] not in ("regression", "mdn", "mdn_shared", "dialect"):
        raise UsageError(f"--model must be one of regression/mdn/mdn_shared/dialect, got {cfg['model']!r}")
    if cfg["model"] == "regression" and args.k is not None:
        print("warning: K is ignored for the regression model", file=sys.stderr)
    scheme = "l1_binary_idf" if cfg["model"] == "dialect" else "l2_count"
    train_recs, dev_recs = _read_users(args.train), _read_users(args.dev)
    vocab, Xtr = _vectorize([r.text for r in train_recs], min_df=cfg["min_df"], scheme=scheme)
    _, Xdev = _vectorize([r.text for r in dev_recs], vocab, scheme=scheme)
    Ytr = data.coords_array(train_recs)
    Ydev = data.coords_array(dev_recs)
    D, K = len(vocab), cfg["k"]
    seed = cfg["seed"]

    if cfg["model"] == "dialect":
        if len(hidden) != 1:
            raise UsageError("the dialect model needs exactly one --hidden size")
        model = models.DialectModel.init(K, hidden[0], vocab.terms, Ytr, seed=seed,
                                         dropout_rate=cfg["dropout"], l1_coeff=cfg["l1"], l2_coeff=cfg["l2"])
        train_data = (Ytr, Xtr)
        dev_data = (Ydev, Xdev)
    else:
        out = {"regression": 2, "mdn": 6 * K, "mdn_shared": K}[cfg["model"]]
        spec = network.NetworkSpec((D, *hidden, out), dropout_rate=cfg["dropout"],
                                   l1_coeff=cfg["l1"], l2_coeff=cfg["l2"], seed=seed)
        if cfg["model"] == "regression":
            model = models.RegressionGeolocator(spec)
        elif cfg["model"] == "mdn":
            model = models.MdnGeolocator(spec)
            model.init_output_bias_from_labels(Ytr, mode=cfg["mu_init"], seed=seed)
        else:
            model = models.SharedMdnGeolocator(spec)
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

    network.train_loop(model, train_data, dev_data, adam_cfg, stop_cfg, batch_size=cfg["batch_size"],
                       max_epochs=cfg["max_epochs"], seed=seed, log_sink=sink)
    data.save_model(args.checkpoint, model)
    if args.vocab:
        features.save_vocab(args.vocab, vocab)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            f.write("epoch\ttrain_loss\tdev_metric\n")
            f.writelines(log_lines)
    print(f"checkpoint written to {args.checkpoint}", file=sys.stderr)


def _load_vocab_for(model, args):
    """The ``--vocab`` file, refused unless the ``--checkpoint`` model was
    trained on it, or, for a checkpoint with no vocab_hash, unless it has
    one term per network input."""
    vocab = features.load_vocab(args.vocab)
    if model.vocab_hash not in (None, file_hash := vocab.content_hash()):
        raise UsageError(f"vocabulary hash mismatch: checkpoint {model.vocab_hash}, file {file_hash}")
    if len(vocab) != (width := model.spec.layer_sizes[0]):
        raise UsageError(f"vocabulary {args.vocab} has {len(vocab)} terms but checkpoint "
                         f"{args.checkpoint} takes {width} inputs")
    return vocab


def _load_geolocator(args):
    """The ``--checkpoint`` geolocation model and its ``--vocab``."""
    model = data.load_model(args.checkpoint)
    if model.model_name == "dialect":
        raise UsageError(f"{args.command} expects a geolocation checkpoint; "
                         "use the dialect subcommand for dialect models")
    return model, _load_vocab_for(model, args)


def cmd_evaluate(args):
    model, vocab = _load_geolocator(args)
    records = _read_users(args.test)
    _, X = _vectorize([r.text for r in records], vocab)
    truths = data.coords_array(records)
    preds = model.predict_points(X)
    report = geo.evaluate(preds, truths)
    print(f"Acc@161: {report.acc_at_161:.2f}")
    print(f"Mean: {report.mean_km:.2f}")
    print(f"Median: {report.median_km:.2f}")
    if args.error_tsv:
        geo.write_error_tsv(args.error_tsv, [r.user_id for r in records], preds, truths, report.errors_km)
        print(f"per-user errors written to {args.error_tsv}", file=sys.stderr)


def cmd_predict(args):
    if (args.text is None) == (args.input is None):
        raise UsageError("predict needs exactly one of --text and --input")
    if args.top < 0:
        raise UsageError(f"--top must be >= 0, got {args.top}")
    model, vocab = _load_geolocator(args)
    if args.text is not None:
        uids, texts = ["stdin"], [args.text]
    else:
        records = data.read_corpus(args.input)
        uids, texts = [r.user_id for r in records], [r.text for r in records]
    _, X = _vectorize(texts, vocab)
    if hasattr(model, "mixture_rows"):
        arrays = heads.mixture_arrays(*model.mixture_rows(X))
        preds = heads.predict_arrays(*arrays, args.rule)
        mu1, mu2, s1, s2, rho, pi = np.broadcast_arrays(*arrays)
    else:
        preds, pi = model.predict_points(X), None
    with (open(args.output, "w", encoding="utf-8") if args.output
          else contextlib.nullcontext(sys.stdout)) as out:
        print(f"# selection_rule={args.rule}", file=out)
        print("user_id\tpred_lat\tpred_lon\tcomponents", file=out)
        for n, (uid, p) in enumerate(zip(uids, preds)):
            if X.indptr[n] == X.indptr[n + 1]:
                print(f"{uid}\tno-features\tno-features\t", file=out)
                continue
            comps = "" if pi is None else ";".join(
                f"pi={pi[n, k]:.4f},mu=({mu1[n, k]:.4f},{mu2[n, k]:.4f}),"
                f"sigma=({s1[n, k]:.4f},{s2[n, k]:.4f}),rho={rho[n, k]:.4f}"
                for k in np.argsort(-pi[n])[:args.top])
            print(f"{uid}\t{p[0]:.6f}\t{p[1]:.6f}\t{comps}", file=out)


def cmd_dialect(args):
    if args.p < 1:
        raise UsageError("--p must be >= 1")
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    if not (np.isfinite(args.radius_km) and args.radius_km > 0.0):
        raise UsageError(f"--radius-km must be finite and > 0, got {args.radius_km}")
    model = data.load_model(args.checkpoint)
    if model.model_name != "dialect":
        raise UsageError(f"dialect scoring needs a dialect checkpoint, got {model.model_name!r}")
    regions = dl.read_regions(args.regions)
    if not regions:
        raise UsageError(f"{args.regions} has no regions")
    coords = data.coords_array(_read_users(args.train))
    idx = np.random.default_rng(args.seed).integers(len(coords), size=args.p)
    distinct, counts = np.unique(idx, return_counts=True)  # points drawn again are computed once
    pts = coords[distinct]
    inside = np.array([dl.region_membership(pts, region, args.radius_km) for region in regions])
    n_points = inside @ counts
    if not n_points.any():
        raise UsageError(f"no sampled point lies inside any region of {args.regions}")
    for region, n in zip(regions, n_points):
        if not n:
            print(f"warning: no sampled points inside {region.name}; skipped", file=sys.stderr)
    scored = n_points > 0
    terms = model.terms
    summary = []
    for region, n, scores in zip(itertools.compress(regions, scored), n_points[scored],
                                 model.region_scores(pts, dl.region_weights(counts, inside[scored]))):
        ranked = dl.dialect_rank(terms, scores)
        recall, oov = dl.recall_at_k([t for t, _ in ranked], region.terms, args.k, terms)
        dl.write_ranking_tsv(f"{args.out_prefix}{region.name}.tsv", ranked)
        summary.append((region.name, int(n), recall, len(oov)))
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
    res = args.resolution
    try:
        lats, lons, points = heads.grid_cells(tuple(float(x) for x in args.bbox.split(",")), res)
    except ValueError as e:
        raise UsageError(f"bad --bbox {args.bbox!r} or --resolution {res}: {e}") from e
    model = data.load_model(args.checkpoint)
    if model.model_name == "dialect":
        if args.word is None:
            raise UsageError("dialect heatmap needs --word")
        if args.word not in model.terms:
            near = sorted(model.terms, key=lambda t: _edit_distance(args.word, t))[:5]
            raise UsageError(f"word {args.word!r} not in vocabulary; nearest: {', '.join(near)}")
        j = model.terms.index(args.word)
        values = np.empty(len(points))
        for start, _, logits in model.logit_blocks(points):
            values[start:start + len(logits)] = logits[:, j] - kernels.logsumexp_rows(logits)
    else:
        if not hasattr(model, "mixture_rows"):
            raise UsageError(f"heatmap needs a mixture or dialect checkpoint, got {model.model_name!r}")
        if args.text is None or args.vocab is None:
            raise UsageError("geolocation heatmap needs --text and --vocab")
        vocab = _load_vocab_for(model, args)
        _, X = _vectorize([args.text], vocab)
        if X.nnz == 0:
            raise UsageError("--text has no in-vocabulary token")
        values = heads.predictive_density_grid(*model.mixture_rows(X), points)
    lat_reprs, lon_reprs = [list(map(repr, axis.tolist())) for axis in (lats, lons)]
    with open(args.output, "w", encoding="utf-8") as f:
        f.write("lat,lon,log_value\n")
        f.writelines(f"{la},{lo},{v!r}\n" for la, row in zip(lat_reprs, values.reshape(res, res).tolist())
                     for lo, v in zip(lon_reprs, row))
    print(f"grid written to {args.output}", file=sys.stderr)


def cmd_synth(args):
    cfg = resolve_config(args, SYNTH_DEFAULTS)
    try:
        centers = [geo.GeoPoint(*map(float, p.split(","))) for p in cfg["mode_centers"].split(";")]
        users = [int(u) for u in cfg["users_per_mode"].split(",")]
        spec = data.SyntheticSpec(**dict(cfg, mode_centers=centers,
                                         users_per_mode=users if len(users) > 1 else users[0]))
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
    p.add_argument("--rule", choices=["strongest_pi", "max_mixture_prob"], default="strongest_pi")
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
    p.add_argument("--exclusive-tokens", dest="exclusive_tokens_per_mode")
    p.add_argument("--ambiguous-tokens", dest="ambiguous_tokens")
    p.add_argument("--noise-tokens", dest="noise_tokens")
    p.add_argument("--ambiguous-fraction", dest="ambiguous_only_fraction")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, network.TrainingError, OSError, MemoryError) as e:  # MemoryError: too big to allocate
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
