"""Peak memory of the dialect scoring and heatmap commands against their
dense bounds, the page faults saved in the CLI and in a library caller by
the allocator policy that importing ``geomix.kernels`` sets, and the threads
``train`` leaves to BLAS and to Adam."""

import ctypes
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from childrss import library_grid_second_call_minor_faults, peak_rss_bytes, second_call_minor_faults
from geomix import cli, data, features, kernels, models, network


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


SHARED_TEXT, SHARED_BBOX = "mode0tok0 mode1tok0", "25,55,-110,-90"


def shared_heatmap(d, res):
    return ["heatmap", "--checkpoint", d / "shared.json", "--vocab", d / "vocab.tsv",
            "--text", SHARED_TEXT, "--bbox", SHARED_BBOX,
            "--resolution", res, "--output", d / f"grid{res}.csv"]


def test_geolocation_heatmap_stays_below_two_dense_grids(wide_shared):
    P, K = 100 * 100, 1000
    setup, grid = (peak_rss_bytes(shared_heatmap(wide_shared, res)) for res in (2, 100))
    # two P x K float64 arrays, such as the offsets d1 and d2, are 2 * P * K * 8 bytes
    assert grid < setup + 2 * P * K * 8, (setup, grid)


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None, reason="no glibc mallopt")
def test_heatmap_reuses_the_heap_on_a_second_call(wide_shared):
    """Under the allocator policy a second wide heatmap in the same process
    reuses the memory the first one freed."""
    faults = second_call_minor_faults(shared_heatmap(wide_shared, 100))
    # without the policy each 2 MB block temporary is mapped and faulted in
    # afresh: about 37 900 faults
    assert faults < 2000, faults


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None, reason="no glibc mallopt")
def test_a_library_density_grid_reuses_the_heap_on_a_second_call(wide_shared):
    """A host process that calls ``heads.predictive_density_grid`` without
    ``geomix.cli`` gets the same policy, from importing ``geomix.kernels``."""
    d = wide_shared
    faults = library_grid_second_call_minor_faults(d / "shared.json", d / "vocab.tsv",
                                                   SHARED_TEXT, SHARED_BBOX, 100)
    # without the policy: about 37 700 faults
    assert faults < 2000, faults


def test_kernels_set_the_allocator_policy_where_libc_has_it(monkeypatch):
    calls = []
    monkeypatch.setattr(kernels.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=lambda *a: calls.append(a)))
    kernels._set_allocator_policy()
    assert calls == [(kernels.M_MMAP_THRESHOLD, 32 << 20), (kernels.M_TRIM_THRESHOLD, 128 << 20)]
    monkeypatch.setattr(kernels.ctypes, "CDLL", lambda name: SimpleNamespace())  # no mallopt
    kernels._set_allocator_policy()


@pytest.fixture
def small_train(tmp_path):
    """``train`` argv of a one-epoch MDN on a small synthetic corpus."""
    assert cli.main(["synth", "--out-prefix", str(tmp_path / "s-"), "--users-per-mode", "20"]) == 0
    return ["train", "--model", "mdn", "--profile", "synth-mdn", "--max-epochs", "1",
            "--train", str(tmp_path / "s-train.tsv"), "--dev", str(tmp_path / "s-dev.tsv"),
            "--checkpoint", str(tmp_path / "m.json")]


def stub_blas(monkeypatch, threads):
    """Stands an OpenBLAS whose thread count is ``threads[0]`` in for the loaded one."""
    get_set = (lambda: threads[0], lambda n: threads.__setitem__(0, n))
    monkeypatch.setattr(network, "_openblas_threads", lambda: get_set)


def test_train_runs_at_one_blas_thread_and_restores_the_count(small_train, monkeypatch):
    threads, seen = [3], []
    stub_blas(monkeypatch, threads)
    adam_step = network.adam_step

    def counted(*args, **kwargs):
        seen.append(threads[0])
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(network, "adam_step", counted)
    assert cli.main(small_train) == 0
    assert seen and set(seen) == {1} and threads == [3]

    def failing(*args, **kwargs):
        seen.append(threads[0])
        raise network.TrainingError("non-finite gradient")

    seen.clear()
    monkeypatch.setattr(network, "adam_step", failing)
    assert cli.main(small_train) == 1
    assert seen == [1] and threads == [3]


def test_a_library_train_loop_runs_at_one_blas_thread(monkeypatch):
    """``network.train_loop`` called without the CLI takes the same scope:
    every step at one BLAS thread, the count restored after, also when a step
    raises."""
    threads, seen = [3], []
    stub_blas(monkeypatch, threads)
    model = models.RegressionGeolocator(network.NetworkSpec((4, 3, 2), seed=0))
    rng = np.random.default_rng(1)
    train = (rng.normal(size=(20, 4)), rng.normal(size=(20, 2)))
    step = model.batch_loss_and_grads

    def counted(*args, **kwargs):
        seen.append(threads[0])
        return step(*args, **kwargs)

    model.batch_loss_and_grads = counted
    assert len(network.train_loop(model, train, train, batch_size=8, max_epochs=2)) == 2
    assert seen == [1] * 6 and threads == [3]

    def failing(*args, **kwargs):
        seen.append(threads[0])
        raise network.TrainingError("NaN loss")

    model.batch_loss_and_grads = failing
    with pytest.raises(network.TrainingError):
        network.train_loop(model, train, train, batch_size=8, max_epochs=2)
    assert seen[-1] == 1 and threads == [3]


def test_train_without_a_blas_setter_runs_as_before(small_train, monkeypatch):
    stub_blas(monkeypatch, [2])
    assert cli.main(small_train) == 0
    checkpoint = Path(small_train[small_train.index("--checkpoint") + 1])
    with_setter = checkpoint.read_bytes()
    monkeypatch.undo()
    monkeypatch.setattr(network.ctypes, "CDLL", lambda name: SimpleNamespace())  # no OpenBLAS symbols
    assert network._openblas_threads() is None
    assert cli.main(small_train) == 0
    assert checkpoint.read_bytes() == with_setter


def test_the_blas_scope_sets_the_loaded_openblas_and_restores_it():
    threads = network._openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS with a thread setter is loaded")
    get, _ = threads
    before = get()
    with network._one_blas_thread():
        assert get() == 1
    assert get() == before


def test_a_train_below_the_split_size_starts_no_thread(small_train, monkeypatch):
    monkeypatch.setattr(network, "_pool", None)  # as if no earlier step had made it
    before = threading.active_count()
    assert cli.main(small_train) == 0
    assert threading.active_count() == before
    model = data.load_model(small_train[small_train.index("--checkpoint") + 1])
    assert max(a.size for a in model.params.values()) < network._SPLIT_ELEMS


def test_importing_geomix_starts_no_thread():
    code = "import threading, geomix.cli; print(threading.active_count())"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "1"
