"""Peak memory of the dialect scoring and heatmap commands against their
dense bounds, and the page faults the CLI's allocator policy saves."""

import ctypes
from types import SimpleNamespace

import pytest

from childrss import peak_rss_bytes, second_call_minor_faults
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


def test_dialect_heatmap_stays_below_one_dense_grid(wide_dialect):
    d = wide_dialect
    V = len(features.load_vocab(d / "vocab.tsv").terms)

    def heatmap(res):
        return peak_rss_bytes(["heatmap", "--checkpoint", d / "dia.json", "--word", "mode0tok0",
                               "--bbox", "25,55,-110,-90", "--resolution", res,
                               "--output", d / f"word{res}.csv"])

    P = 100 * 100
    setup, grid = heatmap(2), heatmap(100)
    # the P x V log-probability matrix alone is P * V * 8 bytes
    assert grid < setup + P * V * 8, (setup, grid)


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


def shared_heatmap(d, res):
    return ["heatmap", "--checkpoint", d / "shared.json", "--vocab", d / "vocab.tsv",
            "--text", "mode0tok0 mode1tok0", "--bbox", "25,55,-110,-90",
            "--resolution", res, "--output", d / f"grid{res}.csv"]


def test_geolocation_heatmap_stays_below_two_dense_grids(wide_shared):
    P, K = 100 * 100, 1000
    setup, grid = (peak_rss_bytes(shared_heatmap(wide_shared, res)) for res in (2, 100))
    # two P x K float64 arrays, such as the offsets d1 and d2, are 2 * P * K * 8 bytes
    assert grid < setup + 2 * P * K * 8, (setup, grid)


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None, reason="no glibc mallopt")
def test_heatmap_reuses_the_heap_on_a_second_call(wide_shared):
    """Under the CLI's allocator policy a second wide heatmap in the same
    process reuses the memory the first one freed."""
    faults = second_call_minor_faults(shared_heatmap(wide_shared, 100))
    # without the policy each block temporary is mapped and faulted in afresh:
    # about 17 000 faults with 16 MB blocks
    assert faults < 2000, faults


def test_main_sets_the_allocator_policy_where_libc_has_it(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=lambda *a: calls.append(a)))
    argv = ["synth", "--out-prefix", str(tmp_path / "s-"), "--users-per-mode", "5"]
    assert cli.main(argv) == 0
    assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 128 << 20)]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace())  # no mallopt
    assert cli.main(argv) == 0
