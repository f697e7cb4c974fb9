"""Peak memory of the dialect scoring and geolocation heatmap commands
against their dense bounds."""

import pytest

from childrss import peak_rss_bytes
from geomix import cli, features


@pytest.fixture(scope="module")
def wide_dialect(tmp_path_factory):
    """A dialect checkpoint over a vocabulary of about 400 terms."""
    d = tmp_path_factory.mktemp("wide")
    assert cli.main(["synth", "--out-prefix", str(d / "s-"), "--mode-centers", "30,-100;50,-100",
                     "--users-per-mode", "100", "--noise-tokens", "400", "--seed", "3"]) == 0
    assert cli.main(["train", "--model", "dialect", "--profile", "synth-dialect",
                     "--train", str(d / "s-train.tsv"), "--dev", str(d / "s-dev.tsv"),
                     "--checkpoint", str(d / "dia.json"), "--vocab", str(d / "vocab.tsv"),
                     "--k", "2", "--hidden", "8", "--max-epochs", "1"]) == 0
    (d / "regions.tsv").write_text("north\t50,-100\tmode1tok0\nsouth\t30,-100\tmode0tok0\n")
    return d


def test_dialect_scoring_stays_below_one_dense_matrix(wide_dialect):
    d = wide_dialect
    V = len(features.load_vocab(d / "vocab.tsv").terms)
    assert 350 <= V <= 450

    def dialect(p):
        return peak_rss_bytes(["dialect", "--checkpoint", d / "dia.json", "--regions", d / "regions.tsv",
                               "--train", d / "s-train.tsv", "--p", p, "--out-prefix", d / f"p{p}-"])

    P = 40000
    setup, scored = dialect(1), dialect(P)
    # the P x V log-probability matrix alone is P * V * 8 bytes
    assert scored < setup + P * V * 8, (setup, scored)


@pytest.fixture(scope="module")
def wide_shared(tmp_path_factory):
    """A one-epoch shared-MDN checkpoint with K = 1 000 components."""
    d = tmp_path_factory.mktemp("wideK")
    assert cli.main(["synth", "--out-prefix", str(d / "s-"), "--users-per-mode", "650", "--seed", "3"]) == 0
    assert cli.main(["train", "--model", "mdn_shared", "--profile", "synth-mdn-shared", "--k", "1000",
                     "--train", str(d / "s-train.tsv"), "--dev", str(d / "s-dev.tsv"),
                     "--checkpoint", str(d / "shared.json"), "--vocab", str(d / "vocab.tsv"),
                     "--max-epochs", "1"]) == 0
    return d


def test_geolocation_heatmap_stays_below_two_dense_grids(wide_shared):
    d = wide_shared

    def heatmap(res):
        return peak_rss_bytes(["heatmap", "--checkpoint", d / "shared.json", "--vocab", d / "vocab.tsv",
                               "--text", "mode0tok0 mode1tok0", "--bbox", "25,55,-110,-90",
                               "--resolution", res, "--output", d / f"grid{res}.csv"])

    P, K = 100 * 100, 1000
    setup, grid = heatmap(2), heatmap(100)
    # two P x K float64 arrays, such as the offsets d1 and d2, are 2 * P * K * 8 bytes
    assert grid < setup + 2 * P * K * 8, (setup, grid)
