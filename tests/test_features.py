"""Tokenization, vocabulary construction and feature weighting."""

import numpy as np
import pytest

from geomix import features
from geomix.features import (PipelineError, build_vocab, load_vocab, save_vocab,
                             tokenize, vectorize, vectorize_matrix)


def test_tokenize_examples():
    assert tokenize("Hella cold in NorCal!") == ["hella", "cold", "in", "norcal"]
    assert tokenize("@user yall #jawn") == ["yall", "#jawn"]
    assert tokenize("") == []
    assert tokenize("  (wow)  ...  ") == ["wow"]
    assert tokenize("#TagCase @Mention") == ["#tagcase"]


def test_build_vocab_df_boundary():
    docs = [["common", "rare"] if i < 9 else ["common"] for i in range(20)]
    vocab = build_vocab(docs, min_df=10)
    assert "common" in vocab.index  # df 20 >= 10
    assert "rare" not in vocab.index  # df 9 < 10
    vocab9 = build_vocab(docs, min_df=9)
    assert "rare" in vocab9.index


def test_build_vocab_stopwords_and_order():
    docs = [["the", "zebra", "apple"]] * 12 + [["apple"]] * 3
    vocab = build_vocab(docs, min_df=1)
    assert "the" not in vocab.index  # stopword despite high df
    # descending df, then lexicographic
    assert vocab.terms == ["apple", "zebra"]
    docs_tie = [["beta", "alpha"]] * 5
    assert build_vocab(docs_tie, min_df=1).terms == ["alpha", "beta"]


def test_build_vocab_errors():
    with pytest.raises(ValueError):
        build_vocab([["axx"]], min_df=0)
    with pytest.raises(PipelineError):
        build_vocab([["the", "and"]] * 5, min_df=1)  # all stopwords


def test_vectorize_l2():
    vocab = build_vocab([["axx", "bxx"]] * 3, min_df=1)
    pairs = vectorize(["axx"] * 3 + ["bxx"] * 4, vocab, scheme="l2_count")
    weights = dict(pairs)
    assert abs(weights[vocab.index["axx"]] - 0.6) < 1e-12
    assert abs(weights[vocab.index["bxx"]] - 0.8) < 1e-12
    assert [i for i, _ in pairs] == sorted(weights)


def test_vectorize_oov_and_norms():
    vocab = build_vocab([["axx", "bxx", "cxx"]] * 3, min_df=1)
    assert vectorize(["zzz"], vocab) == []
    rng = np.random.default_rng(0)
    pool = ["axx", "bxx", "cxx", "oov"]
    for _ in range(50):
        toks = [pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 12))]
        pairs2 = vectorize(toks, vocab, scheme="l2_count")
        if pairs2:
            assert abs(np.linalg.norm([w for _, w in pairs2]) - 1.0) < 1e-9
        pairs1 = vectorize(toks, vocab, scheme="l1_binary_idf")
        if pairs1:
            assert abs(sum(w for _, w in pairs1) - 1.0) < 1e-9


def test_vectorize_order_independent():
    vocab = build_vocab([["axx", "bxx", "cxx"]] * 3, min_df=1)
    assert vectorize(["axx", "bxx", "bxx", "cxx"], vocab) == vectorize(["cxx", "bxx", "axx", "bxx"], vocab)


def test_idf_zero_term_contributes_nothing():
    # "evry" appears in every document -> idf log(1) = 0
    docs = [["evry", "rare1"], ["evry", "rare2"], ["evry", "rare1"]]
    vocab = build_vocab(docs, min_df=1)
    pairs = vectorize(["evry", "rare1"], vocab, scheme="l1_binary_idf")
    assert vocab.index["evry"] not in dict(pairs)
    assert vectorize(["evry"], vocab, scheme="l1_binary_idf") == []


def test_single_term_l1_weight_one():
    docs = [["axx", "bxx"], ["axx"], ["bxx"]]
    vocab = build_vocab(docs, min_df=1)
    assert vectorize(["bxx"], vocab, scheme="l1_binary_idf") == [(vocab.index["bxx"], 1.0)]


def test_unknown_scheme():
    vocab = build_vocab([["axx"]] * 2, min_df=1)
    with pytest.raises(ValueError):
        vectorize(["axx"], vocab, scheme="tfidf")


def test_vectorize_matrix_shape_and_rows():
    vocab = build_vocab([["axx", "bxx", "cxx"]] * 3, min_df=1)
    docs = [["axx", "bxx"], ["zzz"], ["cxx"]]
    X = vectorize_matrix(docs, vocab)
    assert X.shape == (3, 3)
    assert X[1].nnz == 0  # all-OOV row is empty
    assert abs(np.linalg.norm(X[0].toarray()) - 1.0) < 1e-9


def test_vocab_round_trip(tmp_path):
    docs = [["apple", "pear"], ["apple"], ["pear", "plum"], ["apple", "plum"]]
    vocab = build_vocab(docs, min_df=1)
    path = tmp_path / "vocab.tsv"
    save_vocab(path, vocab)
    loaded = load_vocab(path)
    assert loaded.index == vocab.index
    assert loaded.df == vocab.df
    assert loaded.content_hash() == vocab.content_hash()
    toks = ["apple", "plum", "plum"]
    for scheme in ("l2_count", "l1_binary_idf"):
        assert vectorize(toks, loaded, scheme) == vectorize(toks, vocab, scheme)


def test_content_hash_changes_with_df():
    docs = [["axx", "bxx"]] * 3
    v1 = build_vocab(docs, min_df=1)
    v2 = build_vocab(docs + [["axx"]], min_df=1)
    assert v1.content_hash() != v2.content_hash()


def test_malformed_vocab_names_the_line(tmp_path):
    vocab = tmp_path / "v.tsv"
    vocab.write_text("3\t1\tabc\n0\tfoo\t2\nx\ty\n")
    with pytest.raises(PipelineError, match=r"v\.tsv:3:"):
        load_vocab(vocab)
