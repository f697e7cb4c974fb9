"""Peak memory of the dialect scoring command against its dense bound."""

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
