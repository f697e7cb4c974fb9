"""The benchmark workloads: corpus shape and the CLI round trip of each.

Every workload trains a model through ``geomix.cli.main`` and then queries
the checkpoint the way a user would.  Each call belongs to a group:

- ``train``: the ``train`` command, reported as ``train_s``;
- ``batch``: the held-out batch commands, ``evaluate`` plus ``predict
  --input`` for geolocation, ``dialect`` for the dialect model;
- ``lookup``: single-item interactive queries, ``predict --text`` for
  geolocation, a low-resolution ``heatmap --word`` for the dialect model;
- ``heatmap``: the full-resolution ``heatmap`` export.

``query_s`` is the time of a round's batch, lookup and heatmap calls
together; the per-group times are kept in the run's details.  Short commands
run several times a round, so the query part is not dominated by one call.
"""

from dataclasses import dataclass

from corpus import US_BBOX, CorpusShape, geotext_split

BBOX = ",".join(str(x) for x in US_BBOX)
LOOKUP_RESOLUTION = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "geo" or "dialect"
    shape: CorpusShape
    train_args: tuple
    lookups: int  # lookup calls per round
    heatmaps: int  # heatmap calls per round
    predict_rule: str = ""  # rule for predict --input and --text; "" keeps the checkpoint's
    heatmap_resolution: int = 100


WORKLOADS = {w.name: w for w in (
    # The paper's headline shape: sparse bag of words, V~10k, H=100, K=100,
    # dropout 0.5.  Time goes to the dense first layer, Adam over V x H, the
    # dense N x V dev and test matrices and the ~1M-parameter JSON
    # checkpoint; the mixture head is a few percent.
    Workload(
        name="mdn-sparse", kind="geo",
        shape=CorpusShape(region_terms=5, city_terms=2, users=geotext_split(1421), queries=100,
                          tokens_per_user=40, planted_per_user=8, regional_fraction=0.9,
                          noise_vocab=25000, city_stddev=0.4),
        train_args=("--profile", "geotext-mdn", "--min-df", "1", "--lr", "0.02",
                    "--mu-init", "kmeans", "--max-epochs", "1", "--patience", "1"),
        lookups=1, heatmaps=1),
    # Shared-parameter MDN with K=900 on a small vocabulary: the shared NLL,
    # the N x K and K x K kernel calls, the K=900 k-means init and the
    # per-user K x K max_mixture_prob rule dominate; the network is light.
    Workload(
        name="shared-wideK", kind="geo",
        shape=CorpusShape(region_terms=5, city_terms=2, users=geotext_split(1200), queries=16,
                          tokens_per_user=40, planted_per_user=8, regional_fraction=0.9,
                          noise_vocab=750, city_stddev=0.4),
        train_args=("--profile", "twitterus-mdn-shared", "--hidden", "100", "--min-df", "1", "--lr", "0.01",
                    "--max-epochs", "3", "--patience", "3"),
        lookups=3, heatmaps=1, predict_rule="max_mixture_prob"),
    # Location -> words: Gaussian-layer forward/backward, a V-wide softmax,
    # the P x V log-probability matrix of `dialect` (peak memory) and the
    # scalar region-membership loop over P=10000 sampled points.
    Workload(
        name="dialect-regions", kind="dialect",
        shape=CorpusShape(region_terms=5, city_terms=0, users=geotext_split(1200, test=False), queries=0,
                          tokens_per_user=40, planted_per_user=4, regional_fraction=0.9,
                          noise_vocab=3200, city_stddev=0.4),
        train_args=("--model", "dialect", "--k", "100", "--hidden", "100", "--min-df", "1", "--lr", "0.01",
                    "--max-epochs", "4", "--patience", "4"),
        lookups=2, heatmaps=2, heatmap_resolution=50),
)}


def round_trip(w, files, seed, work):
    """The CLI calls of one round trip as (group, argv, grid) triples.

    ``files`` is what ``corpus.generate`` returned; outputs go under
    ``work``.  ``grid`` is (path, resolution) of a heatmap the call writes,
    else None.
    """
    p = files["paths"]
    ck, vocab = f"{work}/model.json", f"{work}/vocab.tsv"
    calls = [("train", ["train", "--train", p["train"], "--dev", p["dev"], "--checkpoint", ck,
                        "--vocab", vocab, "--log", f"{work}/train-log.tsv", "--seed", str(seed),
                        *w.train_args], None)]

    def heatmap(group, i, res, query):
        out = f"{work}/{group}-{i}.csv"
        calls.append((group, ["heatmap", "--checkpoint", ck, *query, "--bbox", BBOX,
                              "--resolution", str(res), "--output", out], (out, res)))

    if w.kind == "geo":
        calls.append(("batch", ["evaluate", "--checkpoint", ck, "--vocab", vocab, "--test", p["test"]], None))
        predict = ["predict", "--checkpoint", ck, "--vocab", vocab] + (
            ["--rule", w.predict_rule] if w.predict_rule else [])
        calls.append(("batch", predict + ["--input", p["queries"], "--output", f"{work}/predictions.tsv"],
                      None))
        for text in files["query_texts"][:w.lookups]:
            calls.append(("lookup", predict + ["--text", text], None))
        for i in range(w.heatmaps):
            heatmap("heatmap", i, w.heatmap_resolution, ["--vocab", vocab, "--text", files["query_texts"][i]])
    else:
        calls.append(("batch", ["dialect", "--checkpoint", ck, "--regions", p["regions"],
                                "--train", p["train"], "--p", "10000", "--k", "10",
                                "--seed", str(seed), "--out-prefix", f"{work}/ranking-"], None))
        terms = files["region_terms"]
        for i in range(w.lookups):
            heatmap("lookup", i, LOOKUP_RESOLUTION, ["--word", terms[i % len(terms)][0]])
        for i in range(w.heatmaps):
            heatmap("heatmap", i, w.heatmap_resolution, ["--word", terms[i % len(terms)][1]])
    return calls
