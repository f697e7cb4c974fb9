"""Text to sparse feature vectors: tokenization, vocabulary, weighting."""

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse

from .stopwords import STOPWORDS


class PipelineError(ValueError):
    pass


STOP_HASH = hashlib.sha256("\n".join(sorted(STOPWORDS)).encode("utf-8")).hexdigest()[:16]


# A whitespace token not led by "@", less its leading and trailing characters
# other than \w and "#".  \s is the whitespace str.split splits on.
_TOKEN = re.compile(r"(?<!\S)(?!@)[^\w#\s]*([\w#](?:\S*[\w#])?)[^\w#\s]*(?!\S)")


def tokenize(text):
    """Lowercase whitespace tokens; @-mentions dropped, hashtags kept whole."""
    return _TOKEN.findall(text.lower())


@dataclass
class Vocabulary:
    terms: list  # column j's term
    df: list  # df[j]: the document frequency of terms[j]
    doc_count: int
    min_df: int
    stop_hash: str = STOP_HASH

    def __post_init__(self):
        self.index = {t: j for j, t in enumerate(self.terms)}  # term -> column
        if len(self.index) != len(self.terms):
            raise PipelineError("repeated vocabulary term")
        if len(self.df) != len(self.terms):
            raise PipelineError(f"{len(self.df)} document frequencies for {len(self.terms)} terms")

    def __len__(self):
        return len(self.terms)

    def text(self):
        """The vocabulary file: its header, then ``index TAB term TAB df`` per column."""
        return "".join([f"{self.doc_count}\t{self.min_df}\t{self.stop_hash}\n",
                        *(f"{j}\t{t}\t{c}\n" for j, (t, c) in enumerate(zip(self.terms, self.df)))])

    def content_hash(self):
        return hashlib.sha256(self.text().encode("utf-8")).hexdigest()[:16]


def build_vocab(token_docs, min_df=10):
    """Vocabulary over a list of tokenized documents; df >= min_df, stopwords removed.

    Index order is descending df, ties broken lexicographically.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    df = Counter(chain.from_iterable(map(set, token_docs)))
    kept = {t: c for t, c in df.items() if c >= min_df and t not in STOPWORDS}
    if not kept:
        raise PipelineError("vocabulary is empty after filtering")
    terms = sorted(sorted(kept), key=kept.__getitem__, reverse=True)  # stable: ties stay lexical
    return Vocabulary(terms, [kept[t] for t in terms], doc_count=len(token_docs), min_df=min_df)


def vectorize_matrix(token_docs, vocab, scheme="l2_count"):
    """N x |V| CSR of the N tokenized documents, sorted column indices in
    each row; a row with no in-vocabulary weight is empty.

    l2_count: raw counts, l2-normalized.  l1_binary_idf: 1{tf>0} * idf,
    l1-normalized, idf-0 terms dropped.
    """
    if scheme not in ("l2_count", "l1_binary_idf"):
        raise ValueError(f"unknown scheme: {scheme}")
    cols, indptr = [], [0]
    for toks in token_docs:
        cols.extend(i for i in map(vocab.index.get, toks) if i is not None)
        indptr.append(len(cols))
    X = sparse.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(len(indptr) - 1, len(vocab)))
    X.sum_duplicates()  # counts, with sorted indices
    rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    if scheme == "l2_count":  # integer counts: their sum of squares is exact in any order
        X.data /= np.sqrt(np.bincount(rows, X.data ** 2, X.shape[0]))[rows]
        return X
    idf = np.log(vocab.doc_count / np.array(vocab.df, dtype=float))
    X.data = idf[X.indices]
    # np.sum of each row's slice, the order a per-document sum adds in; np.add.reduceat adds in another
    sums = np.array([np.sum(X.data[a:b]) for a, b in zip(X.indptr[:-1], X.indptr[1:])])
    X.data /= np.where(sums > 0.0, sums, np.inf)[rows]  # a row without positive weight empties
    X.eliminate_zeros()
    return X


def save_vocab(path, vocab):
    with open(path, "w", encoding="utf-8") as f:
        f.write(vocab.text())


def text_lines(path, error):
    """``(line number, line)`` for each line of the UTF-8 text file at
    ``path``, split as text mode splits them.  A byte that is not UTF-8
    raises ``error`` naming the file and the line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for ln, line in enumerate(f, 1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:  # surrogateescape maps byte b to U+DC00 + b
                    byte = ord(line[e.start]) - 0xDC00
                    raise error(f"{path}:{ln}: byte 0x{byte:02x} is not UTF-8 text") from None
            yield ln, line


def load_vocab(path):
    """The vocabulary file at ``path``.  A malformed line, an index that is not
    its line's position, a repeated term or a df outside [1, doc_count] is a
    ``PipelineError`` naming the file and line."""
    terms, df, first_line = [], [], {}
    lines = text_lines(path, PipelineError)
    _, header = next(lines, (1, ""))
    try:
        doc_count, min_df, stop_hash = header.rstrip("\n").split("\t")
        doc_count, min_df = int(doc_count), int(min_df)
    except ValueError as e:
        raise PipelineError(f"{path}:1: malformed vocabulary header: {e}") from e
    for ln, line in lines:
        try:
            i, t, c = line.rstrip("\n").split("\t")
            i, c = int(i), int(c)
        except ValueError as e:
            raise PipelineError(f"{path}:{ln}: malformed vocabulary line: {e}") from e
        if i != len(terms):
            raise PipelineError(f"{path}:{ln}: index {i} is not the line's position {len(terms)}")
        if t in first_line:
            raise PipelineError(f"{path}:{ln}: term {t!r} repeats line {first_line[t]}")
        if not 1 <= c <= doc_count:
            raise PipelineError(f"{path}:{ln}: df {c} outside [1, {doc_count}]")
        first_line[t] = ln
        terms.append(t)
        df.append(c)
    return Vocabulary(terms, df, doc_count, min_df, stop_hash)
