"""Fuzzed input files.

Every reader either parses its input or raises its own typed error, and
through ``cli.main`` every input ends in a result or in one ``error:`` line
with exit code 1, never in a traceback.
"""

import contextlib
import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomix import cli, data, dialect, features
from geomix.data import CheckpointError, CorpusError
from geomix.features import PipelineError

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# fragments of corpus, vocabulary and region lines, valid and not
FRAGMENTS = [b"u1", b"0", b"40.5", b"-74.2", b"91", b"-181", b"nan", b"inf", b"1e999", b"",
             b"hello world", b"mode0tok0", b"\xff", b"\xc3\xa9", b"\xed\xa0\x80", b"\r", b"#",
             b"50,-100", b"30,-100;31,-101", b"a,b", b"1,2,3", b";", b"x" * 40]
lines = st.lists(st.sampled_from(FRAGMENTS), max_size=5).map(b"\t".join)
text_files = st.one_of(st.binary(max_size=120),
                       st.lists(lines, max_size=8).map(b"\n".join))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    assert cli.main(["synth", "--out-prefix", str(d / "s-"), "--users-per-mode", "30",
                     "--noise-tokens", "5", "--seed", "3"]) == 0
    for model in ("mdn", "dialect"):
        assert cli.main(["train", "--model", model, "--profile", f"synth-{model}",
                         "--train", str(d / "s-train.tsv"), "--dev", str(d / "s-dev.tsv"),
                         "--max-epochs", "1", "--checkpoint", str(d / f"{model}.ckpt"),
                         "--vocab", str(d / f"{model}-vocab.tsv")]) == 0
    model = data.load_model(d / "mdn.ckpt")
    model.vocab_hash = None  # as a model saved from code has it: no hash check guards the vocabulary
    data.save_model(d / "mdn-nohash.ckpt", model)
    return d


def cli_result(argv):
    """(exit code, stderr) of ``cli.main(argv)``; an exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


def assert_error_line(argv):
    rc, err = cli_result(argv)
    assert rc == 1 and err.startswith("error:"), (rc, err)


def assert_ok_or_error_line(argv):
    rc, err = cli_result(argv)
    assert rc == 0 or (rc == 1 and err.startswith("error:")), (rc, err)


def evaluate_with(d, checkpoint=None, vocab=None, test=None):
    return ["evaluate", "--checkpoint", checkpoint or d / "mdn.ckpt",
            "--vocab", vocab or d / "mdn-vocab.tsv", "--test", test or d / "s-test.tsv"]


def members(path):
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def npy_bytes(arr, allow_pickle=False):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=allow_pickle)
    return buf.getvalue()


@FUZZ
@given(cut=st.integers(0, 10 ** 6))
def test_truncated_checkpoint(run_dir, cut):
    raw = (run_dir / "mdn.ckpt").read_bytes()
    bad = run_dir / "bad.ckpt"
    bad.write_bytes(raw[:cut % len(raw)])
    with pytest.raises(CheckpointError):
        data.load_model(bad)
    assert_error_line(evaluate_with(run_dir, checkpoint=bad))


@FUZZ
@given(flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)), min_size=1, max_size=3))
def test_flipped_checkpoint_bytes(run_dir, flips):
    """A flipped byte is refused, or it sits where no reader looks (a zip
    timestamp, say) and the blocks come back unchanged."""
    raw = bytearray((run_dir / "mdn.ckpt").read_bytes())
    for pos, mask in flips:
        raw[pos % len(raw)] ^= mask
    bad = run_dir / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    try:
        loaded = data.load_model(bad)
    except CheckpointError:
        assert_error_line(evaluate_with(run_dir, checkpoint=bad))
        return
    original = data.load_model(run_dir / "mdn.ckpt")
    assert sorted(loaded.params) == sorted(original.params)
    for name, arr in original.params.items():
        assert loaded.params[name].tobytes() == arr.tobytes()


@FUZZ
@given(data_=st.data())
def test_member_with_wrong_dtype_or_shape(run_dir, data_):
    """Pickled object arrays included."""
    ck = members(run_dir / "mdn.ckpt")
    name = data_.draw(st.sampled_from(sorted(n for n in ck if n.endswith(".npy"))))
    arr = np.lib.format.read_array(io.BytesIO(ck[name]))
    dtype = data_.draw(st.sampled_from(["<f8", ">f8", "<f4", "<i8", "<c16", "|u1", "|O"]))
    grow = data_.draw(st.integers(-1, 2))
    if dtype == "<f8" and grow == 0:
        grow = 1
    shape = list(arr.shape)
    shape[-1] = max(shape[-1] + grow, 0)
    ck[name] = npy_bytes(np.zeros(shape, dtype=dtype), allow_pickle=dtype == "|O")
    bad = run_dir / "bad.ckpt"
    with zipfile.ZipFile(bad, "w") as zf:
        for member, raw in ck.items():
            zf.writestr(member, raw)
    with pytest.raises(CheckpointError):
        data.load_model(bad)
    assert_error_line(evaluate_with(run_dir, checkpoint=bad))


@FUZZ
@given(raw=text_files)
def test_fuzzed_corpus(run_dir, raw):
    path = run_dir / "corpus.tsv"
    path.write_bytes(raw)
    try:
        data.read_corpus(path)
    except CorpusError:
        pass
    assert_ok_or_error_line(evaluate_with(run_dir, test=path))
    assert_ok_or_error_line(["predict", "--checkpoint", run_dir / "mdn.ckpt",
                             "--vocab", run_dir / "mdn-vocab.tsv", "--input", path,
                             "--output", run_dir / "predictions.tsv"])


@FUZZ
@given(raw=text_files)
def test_fuzzed_vocabulary(run_dir, raw):
    path = run_dir / "vocab.tsv"
    path.write_bytes(raw)
    try:
        features.load_vocab(path)
    except PipelineError:
        pass
    assert_ok_or_error_line(evaluate_with(run_dir, vocab=path))
    assert_ok_or_error_line(evaluate_with(run_dir, checkpoint=run_dir / "mdn-nohash.ckpt", vocab=path))


def dialect_with(d, regions):
    return ["dialect", "--checkpoint", d / "dialect.ckpt", "--regions", regions,
            "--train", d / "s-train.tsv", "--p", "50", "--out-prefix", d / "ranking-"]


@FUZZ
@given(raw=text_files)
def test_fuzzed_regions(run_dir, raw):
    path = run_dir / "regions.tsv"
    path.write_bytes(raw)
    try:
        dialect.read_regions(path)
    except ValueError:
        pass
    assert_ok_or_error_line(dialect_with(run_dir, path))


@pytest.mark.parametrize("reader, error, raw, argv", [
    (data.read_corpus, CorpusError, b"u1\t10\t20\thi\nu2\t10\t20\tyo\r\nu3\t10\t20\tb\xffd\n",
     lambda d, path: evaluate_with(d, test=path)),
    (features.load_vocab, PipelineError, b"3\t1\tabc\n0\tfoo\t2\r\n1\tb\xffr\t1\n",
     lambda d, path: evaluate_with(d, vocab=path)),
    (dialect.read_regions, ValueError, b"# north\nnorth\t50,-100\tx\r\nsouth\t30,-100\ty\xff\n",
     dialect_with)])
def test_undecodable_byte_names_file_and_line(run_dir, reader, error, raw, argv):
    path = run_dir / "input.tsv"
    path.write_bytes(raw)
    with pytest.raises(error, match=r"input\.tsv:3: byte 0xff is not UTF-8"):
        reader(path)
    rc, err = cli_result(argv(run_dir, path))
    assert rc == 1 and err == f"error: {path}:3: byte 0xff is not UTF-8 text\n"
