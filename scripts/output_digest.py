"""Digest of every output of one fixed-seed geomix round trip.

Runs synth; train for the regression, mdn, mdn_shared and dialect models;
evaluate with --error-tsv; predict over an input file (with a row that has
no features) and over --text under both selection rules; the three kinds
of heatmap; and dialect scoring.  Two more runs take their settings from a
config file: synth with every synth key in the file and one overridden by a
flag, and train on that corpus with the file's l1 and l2 and no profile.
Every command runs in-process through ``geomix.cli.main`` in a temporary
directory.  The script prints one ``sha256  path`` line per file written
there, each command's stdout included.

For each of the five checkpoints it also prints a ``sha256  path blocks``
line: the digest of the blocks (name, shape and bytes, in sorted order) of
the model ``data.load_model`` reads back.  That line is the same for the same
parameters in any checkpoint format, so it compares trees that write
different formats.  For each of the four profile checkpoints a
``sha256  path decoded`` line hashes the model's metadata without
``format_version``, then its blocks; it is the same only between formats
that store the same metadata fields.  For each vocabulary file it prints a
``sha256  <name>-vocab.tsv decoded`` line: the digest of the terms
``features.load_vocab`` reads back, their ``content_hash`` and the CSR
matrices ``features.vectorize_matrix`` makes of the test split of the
vocabulary's own corpus through that vocabulary under both weighting
schemes.  The four profile runs share one min-df-1 vocabulary of
``s-train.tsv``; the config run's ``config-mdn-vocab.tsv``, of
``c-train.tsv``, is a second one.  A last ``sha256  tokenize`` line is the
digest of ``features.tokenize`` over ``TOKEN_TEXTS``, non-ASCII texts that
no corpus above holds.

Run it on two source trees and diff the listings; equal lines mean
byte-identical outputs (equal ``blocks`` lines: equal parameters; equal
``decoded`` lines: equal checkpointed models and equal vocabularies):

    PYTHONPATH=<tree>/src python scripts/output_digest.py > digest.txt
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from geomix import cli, data, features

SEED = "5"
K_SHARED = 1000  # 2**18 // 1000 = 262 rows a block: the 100 x 100 heatmap takes 39
# the 1 040 distinct training rows drawn, not P, set the logit blocks: 412 terms, so
# 2**18 // 412 = 636 rows a block, 2 blocks, each weighted into the region sums
P_DIALECT = 30000
MODELS = ("regression", "mdn", "mdn_shared", "dialect")
# each vocabulary file with the test split of the corpus it was built from
VOCAB_TESTS = {**{f"{model}-vocab.tsv": "s-test.tsv" for model in MODELS},
               "config-mdn-vocab.tsv": "c-test.tsv"}
TEXT = "mode0tok0 ambtok1 mode1tok2 noisetok7"
BBOX = "25,55,-110,-90"
# the 29 characters str.split splits on
SPLIT_WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680" + \
    "".join(map(chr, range(0x2000, 0x200b))) + "\u2028\u2029\u202f\u205f\u3000"
# every whitespace between tokens; @- and #-led tokens; tokens of punctuation or
# marks only; combining marks; "İ", which lowercases to two characters; "ß";
# a word-final and a word-inner capital sigma
TOKEN_TEXTS = [
    SPLIT_WHITESPACE.join(["W\u00f6rd", "@m\u00e9ntion", "#Ta\u011f", "\u00bf\u00bf", "\u2026#\u2026",
                           "(caf\u00e9)", "@", "x@y", "e\u0301\u0301", "\u0301a", "--a-b--", "#", "_",
                           "\u4e2d\u6587\u3002", "\u0663\u0664"]),
    "\u0130stanbul \u0130 \u0130\u0130 STRA\u00dfE \u00df\u00df! "
    "\u039f\u0394\u039f\u03a3 \u03a3\u039f\u03a6\u0399\u0391 \u03a3.",
    "\u00a0@\u00e0\u3000#\u00e0#\u2028\u0085\u00ab\u00bb "
    "\u201cquoted\u201d \u2014dash\u2014 \u20dd\u20dd @@ ##",
    "",
]
SYNTH_INI = """[synth]
mode_centers = 30,-100;45,-90;50,-110
mode_stddev = 0.7
users_per_mode = 60,40,50
tokens_per_user = 25
exclusive_tokens_per_mode = 4
ambiguous_tokens = 3
noise_tokens = 50
ambiguous_only_fraction = 0.3
seed = 9
"""
TRAIN_INI = """[model]
model = mdn
hidden = 20
k = 3
mu_init = kmeans
[train]
l1 = 0.0001
l2 = 0.0002
lr = 0.02
min_df = 1
batch_size = 16
max_epochs = 5
"""


def round_trip(d):
    calls = []

    def run(*argv):
        calls.append(argv[0])
        err = io.StringIO()
        with open(d / f"stdout-{len(calls):02d}-{argv[0]}.txt", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        if rc != 0:
            sys.exit(f"geomix {' '.join(map(str, argv))} exited {rc}:\n{err.getvalue()}")

    run("synth", "--out-prefix", d / "s-", "--users-per-mode", "650", "--noise-tokens", "400",
        "--seed", SEED)
    test_rows = (d / "s-test.tsv").read_text(encoding="utf-8").splitlines()[:20]
    (d / "queries.tsv").write_text("\n".join(test_rows + ["none\t0\t0\tzzz qqq"]) + "\n", encoding="utf-8")
    (d / "regions.tsv").write_text("north\t50,-100\tmode1tok0\nsouth\t30,-100\tmode0tok0\n", encoding="utf-8")

    for model in MODELS:
        k = ("--k", K_SHARED) if model == "mdn_shared" else ()
        run("train", "--model", model, "--profile", "synth-" + model.replace("_", "-"), *k,
            "--train", d / "s-train.tsv", "--dev", d / "s-dev.tsv", "--max-epochs", "10",
            "--checkpoint", d / f"{model}.json", "--vocab", d / f"{model}-vocab.tsv",
            "--log", d / f"{model}-log.tsv", "--seed", SEED)

    for model in ("regression", "mdn", "mdn_shared"):
        ck = ("--checkpoint", d / f"{model}.json", "--vocab", d / f"{model}-vocab.tsv")
        run("evaluate", *ck, "--test", d / "s-test.tsv", "--error-tsv", d / f"{model}-errors.tsv")
        for rule in ("strongest_pi", "max_mixture_prob"):
            for source, arg in (("input", d / "queries.tsv"), ("text", TEXT)):
                run("predict", *ck, f"--{source}", arg, "--rule", rule, "--top", "7",
                    "--output", d / f"{model}-{rule}-{source}.tsv")
        if model != "regression":
            run("heatmap", *ck, "--text", TEXT, "--bbox", BBOX, "--resolution", "100",
                "--output", d / f"{model}-heatmap.csv")

    run("heatmap", "--checkpoint", d / "dialect.json", "--word", "mode0tok0", "--bbox", BBOX,
        "--resolution", "100", "--output", d / "dialect-heatmap.csv")
    run("dialect", "--checkpoint", d / "dialect.json", "--regions", d / "regions.tsv",
        "--train", d / "s-train.tsv", "--p", P_DIALECT, "--out-prefix", d / "ranking-")

    (d / "synth.ini").write_text(SYNTH_INI, encoding="utf-8")
    run("synth", "--config", d / "synth.ini", "--exclusive-tokens", "6", "--out-prefix", d / "c-")
    (d / "train.ini").write_text(TRAIN_INI, encoding="utf-8")
    run("train", "--config", d / "train.ini", "--train", d / "c-train.tsv", "--dev", d / "c-dev.tsv",
        "--checkpoint", d / "config-mdn.json", "--vocab", d / "config-mdn-vocab.tsv",
        "--log", d / "config-mdn-log.tsv", "--seed", SEED)


def checkpoint_digests(path):
    """The ``decoded`` and ``blocks`` digests of the checkpoint at ``path``."""
    model = data.load_model(path)
    meta = {key: value for key, value in model.to_checkpoint().items()
            if key not in ("params", "format_version")}
    decoded = hashlib.sha256(json.dumps(meta, sort_keys=True).encode("utf-8"))
    blocks = hashlib.sha256()
    for name, arr in sorted(model.params.items()):
        for part in (f"{name} {list(arr.shape)}\n".encode("utf-8"),
                     np.ascontiguousarray(arr, dtype="<f8").tobytes()):
            decoded.update(part)
            blocks.update(part)
    return decoded.hexdigest(), blocks.hexdigest()


def vocab_digest(path, corpus):
    vocab = features.load_vocab(path)
    tokens = [features.tokenize(r.text) for r in data.read_corpus(corpus)]
    h = hashlib.sha256(json.dumps([list(vocab.terms), vocab.content_hash()]).encode("utf-8"))
    for scheme in ("l2_count", "l1_binary_idf"):
        X = features.vectorize_matrix(tokens, vocab, scheme=scheme)
        h.update(f"{scheme} {list(X.shape)}\n".encode("utf-8"))
        for arr, dtype in ((X.indptr, "<i8"), (X.indices, "<i8"), (X.data, "<f8")):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        round_trip(d)
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(d)}")
        digests = {model: checkpoint_digests(d / f"{model}.json") for model in (*MODELS, "config-mdn")}
        for model in MODELS:
            print(f"{digests[model][0]}  {model}.json decoded")
        for model, (_, blocks) in digests.items():
            print(f"{blocks}  {model}.json blocks")
        for vocab, test in VOCAB_TESTS.items():
            print(f"{vocab_digest(d / vocab, d / test)}  {vocab} decoded")
    tokens = json.dumps([features.tokenize(text) for text in TOKEN_TEXTS])
    print(f"{hashlib.sha256(tokens.encode('utf-8')).hexdigest()}  tokenize")


if __name__ == "__main__":
    main()
