"""Tokenization, vocabulary construction and feature weighting."""

import hashlib
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from geomix import features
from geomix.features import (PipelineError, Vocabulary, build_vocab, load_vocab, save_vocab,
                             tokenize, vectorize_matrix)
from geomix.stopwords import STOPWORDS

_STRIP = re.compile(r"^[^\w#]+|[^\w#]+$")


def reference_tokenize(text):
    """The tokenizer as a per-token loop: split, drop @-led tokens, strip."""
    out = []
    for tok in text.lower().split():
        if tok.startswith("@"):
            continue
        tok = _STRIP.sub("", tok)
        if tok:
            out.append(tok)
    return out


def reference_build_vocab(token_docs, min_df):
    """The vocabulary by a dict of document frequencies and a (-df, term) sort."""
    df = {}
    n_docs = 0
    for toks in token_docs:
        n_docs += 1
        for t in set(toks):
            df[t] = df.get(t, 0) + 1
    kept = {t: c for t, c in df.items() if c >= min_df and t not in STOPWORDS}
    if not kept:
        raise PipelineError("vocabulary is empty after filtering")
    terms = sorted(kept, key=lambda t: (-kept[t], t))
    return Vocabulary(terms, [kept[t] for t in terms], doc_count=n_docs, min_df=min_df)


# every character str.split splits on, found by splitting on it
SPLIT_WHITESPACE = [chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".split()) == 2]
# "İ" lowercases to "i" and a combining dot; "Σ" lowercases to "ς" at a word's end
TOKEN_CHARS = [*SPLIT_WHITESPACE, "@", "#", "_", "!", "?", ".", ",", "'", "(", ")", "-", "\u2026", "\u00bf",
               "\u0301", "\u0307", "\u20dd", "\u0130", "\u00df", "\u03a3", "\u03c3", "a", "B", "7", "\u00e9",
               "\u4e2d", "\u0663"]


def test_tokenize_examples():
    assert tokenize("Hella cold in NorCal!") == ["hella", "cold", "in", "norcal"]
    assert tokenize("@user yall #jawn") == ["yall", "#jawn"]
    assert tokenize("") == []
    assert tokenize("  (wow)  ...  ") == ["wow"]
    assert tokenize("#TagCase @Mention") == ["#tagcase"]


def test_every_split_whitespace_separates_tokens():
    assert len(SPLIT_WHITESPACE) >= 25
    # the regex's \s is the same set, so no character splits one way only
    assert re.findall(r"\s", "".join(map(chr, range(0x110000)))) == SPLIT_WHITESPACE
    for ws in SPLIT_WHITESPACE:
        assert tokenize(f"ab{ws}@cd{ws}#ef!{ws}{ws}!!") == ["ab", "#ef"], hex(ord(ws))


def test_tokenize_strips_marks_and_punctuation_at_the_ends_only():
    assert tokenize("e\u0301t\u00e9\u0301 \u0130stanbul \u039f\u0394\u039f\u03a3 STRA\u00dfE") == \
        ["e\u0301t\u00e9", "i\u0307stanbul", "\u03bf\u03b4\u03bf\u03c2", "stra\u00dfe"]
    assert tokenize("\u00bf\u00bfqu\u00e9?? ...#... @ @@x x@y --a-b--") == ["qu\u00e9", "#", "x@y", "a-b"]


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(st.text(st.sampled_from(TOKEN_CHARS) | st.characters(), max_size=60))
def test_tokenize_equals_the_reference_on_unicode_text(text):
    """Whitespace of every kind, @- and #-led tokens, tokens of punctuation
    or marks only, and characters whose lowercase form is longer."""
    assert tokenize(text) == reference_tokenize(text)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.sampled_from(["axx", "bxx", "cxx", "dxx", "the", "and", "#x", "b"]), max_size=8),
                min_size=1, max_size=25),
       st.integers(1, 26))
def test_build_vocab_equals_the_reference(docs, min_df):
    """Terms, df and file text, on few terms (many df ties) with stopwords
    and min_df at, above and below every df."""
    try:
        want = reference_build_vocab(docs, min_df)
    except PipelineError:
        with pytest.raises(PipelineError, match="empty after filtering"):
            build_vocab(docs, min_df)
        return
    vocab = build_vocab(docs, min_df)
    assert (vocab.terms, vocab.df, vocab.doc_count) == (want.terms, want.df, want.doc_count)
    assert vocab.text() == want.text()


def rows(docs, vocab, scheme="l2_count"):
    """Each document's (index, weight) pairs: its row of ``vectorize_matrix``."""
    X = vectorize_matrix(docs, vocab, scheme)
    return [list(zip(X.indices[a:b].tolist(), X.data[a:b].tolist()))
            for a, b in zip(X.indptr[:-1], X.indptr[1:])]


def test_vectorize_l2():
    vocab = build_vocab([["axx", "bxx"]] * 3, min_df=1)
    (pairs,) = rows([["axx"] * 3 + ["bxx"] * 4], vocab, scheme="l2_count")
    weights = dict(pairs)
    assert abs(weights[vocab.index["axx"]] - 0.6) < 1e-12
    assert abs(weights[vocab.index["bxx"]] - 0.8) < 1e-12
    assert [i for i, _ in pairs] == sorted(weights)


def test_vectorize_oov_and_norms():
    vocab = build_vocab([["axx", "bxx", "cxx"]] * 3, min_df=1)
    assert rows([["zzz"]], vocab) == [[]]
    rng = np.random.default_rng(0)
    pool = ["axx", "bxx", "cxx", "oov"]
    docs = [[pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 12))] for _ in range(50)]
    for pairs2 in rows(docs, vocab, scheme="l2_count"):
        if pairs2:
            assert abs(np.linalg.norm([w for _, w in pairs2]) - 1.0) < 1e-9
    for pairs1 in rows(docs, vocab, scheme="l1_binary_idf"):
        if pairs1:
            assert abs(sum(w for _, w in pairs1) - 1.0) < 1e-9


def test_vectorize_order_independent():
    vocab = build_vocab([["axx", "bxx", "cxx"]] * 3, min_df=1)
    first, second = rows([["axx", "bxx", "bxx", "cxx"], ["cxx", "bxx", "axx", "bxx"]], vocab)
    assert first == second


def test_idf_zero_term_contributes_nothing():
    # "evry" appears in every document -> idf log(1) = 0
    docs = [["evry", "rare1"], ["evry", "rare2"], ["evry", "rare1"]]
    vocab = build_vocab(docs, min_df=1)
    pairs, evry_only = rows([["evry", "rare1"], ["evry"]], vocab, scheme="l1_binary_idf")
    assert vocab.index["evry"] not in dict(pairs)
    assert evry_only == []


def test_single_term_l1_weight_one():
    docs = [["axx", "bxx"], ["axx"], ["bxx"]]
    vocab = build_vocab(docs, min_df=1)
    assert rows([["bxx"]], vocab, scheme="l1_binary_idf") == [[(vocab.index["bxx"], 1.0)]]


def test_unknown_scheme():
    vocab = build_vocab([["axx"]] * 2, min_df=1)
    with pytest.raises(ValueError):
        vectorize_matrix([["axx"]], vocab, scheme="tfidf")


def test_vectorize_matrix_shape_and_rows():
    vocab = build_vocab([["axx", "bxx", "cxx"]] * 3, min_df=1)
    docs = [["axx", "bxx"], ["zzz"], ["cxx"]]
    X = vectorize_matrix(docs, vocab)
    assert X.shape == (3, 3)
    assert X[1].nnz == 0  # all-OOV row is empty
    assert abs(np.linalg.norm(X[0].toarray()) - 1.0) < 1e-9


def oracle_pairs(tokens, vocab, scheme):
    """One document's sorted (index, weight) pairs, computed on its own."""
    counts = {}
    for t in tokens:
        if t in vocab.index:
            counts[vocab.index[t]] = counts.get(vocab.index[t], 0) + 1
    if not counts:
        return []
    idx = sorted(counts)
    if scheme == "l2_count":
        w = np.array([counts[i] for i in idx], dtype=float)
        w /= np.linalg.norm(w)
    else:
        w = np.array([np.log(vocab.doc_count / vocab.df[i]) for i in idx])
        if w.sum() <= 0.0:
            return []
        w /= w.sum()
    return [(i, x) for i, x in zip(idx, w) if x != 0.0]


TERMS = [f"t{i}" for i in range(24)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.sampled_from(TERMS), max_size=30), min_size=1, max_size=12),
       st.lists(st.lists(st.sampled_from(TERMS + ["oov1", "oov2"]), max_size=40), max_size=10),
       st.sampled_from(["l2_count", "l1_binary_idf"]))
def test_vectorize_matrix_equals_per_document_oracle(vocab_docs, docs, scheme):
    """Bit for bit, for empty and OOV-only documents, and with "evry", a term
    of every vocabulary document, at idf 0."""
    vocab = build_vocab([d + ["evry"] for d in vocab_docs], min_df=1)
    X = vectorize_matrix(docs, vocab, scheme)
    want = [oracle_pairs(d, vocab, scheme) for d in docs]
    assert X.shape == (len(docs), len(vocab))
    assert X.indptr.tolist() == np.cumsum([0] + [len(p) for p in want]).tolist()
    assert X.indices.tolist() == [i for p in want for i, _ in p]
    assert X.data.tobytes() == np.array([w for p in want for _, w in p], dtype=float).tobytes()


def test_vocab_round_trip(tmp_path):
    docs = [["apple", "pear"], ["apple"], ["pear", "plum"], ["apple", "plum"]]
    vocab = build_vocab(docs, min_df=1)
    path = tmp_path / "vocab.tsv"
    save_vocab(path, vocab)
    assert path.read_text(encoding="utf-8") == vocab.text()
    loaded = load_vocab(path)
    assert loaded == vocab
    assert loaded.content_hash() == vocab.content_hash()
    toks = ["apple", "plum", "plum"]
    for scheme in ("l2_count", "l1_binary_idf"):
        assert rows([toks], loaded, scheme) == rows([toks], vocab, scheme)


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


def test_vocab_file_and_hash_are_one_text():
    """The file layout and the hash every checkpoint's ``vocab_hash`` holds."""
    vocab = build_vocab([["axx", "bxx"], ["axx"]], min_df=1)
    assert vocab.terms == ["axx", "bxx"] and vocab.df == [2, 1]
    assert vocab.text() == f"2\t1\t{features.STOP_HASH}\n0\taxx\t2\n1\tbxx\t1\n"
    assert vocab.content_hash() == hashlib.sha256(vocab.text().encode("utf-8")).hexdigest()[:16]


def test_vocabulary_refuses_repeated_terms_and_wrong_df_length():
    with pytest.raises(PipelineError, match="repeated"):
        Vocabulary(["axx", "bxx", "axx"], [3, 2, 1], doc_count=3, min_df=1)
    with pytest.raises(PipelineError, match="2 document frequencies for 3 terms"):
        Vocabulary(["axx", "bxx", "cxx"], [3, 2], doc_count=3, min_df=1)


@pytest.mark.parametrize("line, problem", [
    ("2\tbar\t1", "index 2 is not the line's position 1"),
    ("100000000\tbar\t1", "index 100000000 is not the line's position 1"),
    ("-1\tbar\t1", "index -1 is not the line's position 1"),
    ("0\tbar\t1", "index 0 is not the line's position 1"),  # a repeated index
    ("1\tfoo\t1", "term 'foo' repeats line 2"),
    ("1\tbar\t0", r"df 0 outside \[1, 3\]"),
    ("1\tbar\t4", r"df 4 outside \[1, 3\]"),
], ids=["index skips one", "index out of range", "negative index", "repeated index", "repeated term",
        "df 0", "df above doc_count"])
def test_load_vocab_refuses_what_no_vocabulary_holds(line, problem, tmp_path):
    """Every loaded vocabulary names only columns 0..V-1, each term once."""
    path = tmp_path / "v.tsv"
    path.write_text(f"3\t1\tabc\n0\tfoo\t2\n{line}\n2\tbaz\t1\n")
    with pytest.raises(PipelineError, match=rf"v\.tsv:3: {problem}$"):
        load_vocab(path)
