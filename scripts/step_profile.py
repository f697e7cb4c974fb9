"""Median time of each stage of one training step at the benchmark's model shapes.

For each workload in ``perfbench/workloads.py``, runs STEPS steps of 32 users
of the untrained model ``geomix train --max-epochs 0`` builds on its corpus
(seed 0) through ``batch_loss_and_grads`` and ``network.adam_step``, timing
forward, the head, backward (with the dialect model's Gaussian layer) and
Adam; ``gather`` is the rest: the row gather and the elastic-net penalty and
its gradient.  The steps run under the BLAS scope of training
(``network._one_blas_thread``), so Adam's row ranges have the second core as
they do in ``network.train_loop``, and no BLAS thread spins on it.
Run from the root of a checkout: ``PYTHONPATH=src python scripts/step_profile.py``
"""

import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from geomix import cli, data, dialect as dl, features, models, network  # noqa: E402

STEPS = 120
STAGES = ("gather", "forward", "head", "backward", "adam")
TIMED = [(models, "forward", "forward"), (dl, "gaussian_layer_forward_batch", "forward"),
         (dl, "dialect_loss", "head"), (models, "backward", "backward"),
         (dl, "gaussian_layer_backward", "backward"), (network, "adam_step", "adam")]
SPENT = Counter()


def timed(stage, fn):
    def run(*args, **kwargs):
        start, out = time.perf_counter(), fn(*args, **kwargs)
        SPENT[stage] += time.perf_counter() - start
        return out
    return run


def build(w, d):
    """(untrained model, training data) of workload ``w``."""
    p = corpus.generate(w.shape, 0, d)["paths"]
    ck, vocab = f"{d}/model.json", f"{d}/vocab.tsv"
    assert cli.main(["train", "--train", p["train"], "--dev", p["dev"], "--checkpoint", ck,
                     "--vocab", vocab, *w.train_args, "--max-epochs", "0"]) == 0
    records = data.read_corpus(p["train"])
    scheme = "l1_binary_idf" if w.kind == "dialect" else "l2_count"
    X = features.vectorize_matrix([features.tokenize(r.text) for r in records],
                                  features.load_vocab(vocab), scheme=scheme)
    Y = data.coords_array(records)
    return data.load_model(ck), ((Y, X) if w.kind == "dialect" else (X, Y))


def main():
    for module, name, stage in TIMED:
        setattr(module, name, timed(stage, getattr(module, name)))
    print(f"{'workload':16} {'V':>6} " + " ".join(f"{s:>9}" for s in STAGES) + "   (median ms a step)")
    for w in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as d:
            model, train = build(w, d)
        model._head = timed("head", model._head)  # the dialect model's head is dl.dialect_loss
        rng = np.random.default_rng(0)
        adam, cfg = network.AdamState(), network.AdamConfig()
        order = rng.permutation(n := model.num_examples(train))[:n // 32 * 32].reshape(-1, 32)
        times = []  # the first step makes Adam's arrays, so it is left out
        with network._one_blas_thread():
            for i in range(STEPS + 1):
                SPENT.clear()
                start = time.perf_counter()
                _, grads = model.batch_loss_and_grads(train, order[i % len(order)], rng, train_mode=True)
                SPENT["gather"] = time.perf_counter() - start - sum(SPENT.values())
                network.adam_step(adam, model.params, grads, cfg)
                times.append([SPENT[s] for s in STAGES])
        V = model.spec.layer_sizes[0 if w.kind == "geo" else -1]
        print(f"{w.name:16} {V:>6} " + " ".join(f"{1e3 * m:9.3f}" for m in np.median(times[1:], axis=0)))


if __name__ == "__main__":
    main()
