"""Text to sparse feature vectors: tokenization, vocabulary, weighting."""

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .stopwords import STOPWORDS


class PipelineError(ValueError):
    pass


def stopword_hash(stopwords=STOPWORDS):
    return hashlib.sha256("\n".join(sorted(stopwords)).encode("utf-8")).hexdigest()[:16]


_STRIP = re.compile(r"^[^\w#]+|[^\w#]+$", re.UNICODE)


def tokenize(text):
    """Lowercase whitespace tokens; @-mentions dropped, hashtags kept whole."""
    out = []
    for tok in text.lower().split():
        if tok.startswith("@"):
            continue
        tok = _STRIP.sub("", tok)
        if tok:
            out.append(tok)
    return out


@dataclass
class Vocabulary:
    index: dict  # term -> dense index
    df: dict  # term -> document frequency
    doc_count: int
    min_df: int
    stop_hash: str = field(default_factory=stopword_hash)

    def __len__(self):
        return len(self.index)

    @property
    def terms(self):
        """Terms in index order."""
        return sorted(self.index, key=self.index.get)

    def content_hash(self):
        h = hashlib.sha256()
        h.update(f"{self.doc_count}\t{self.min_df}\t{self.stop_hash}\n".encode())
        for t in self.terms:
            h.update(f"{self.index[t]}\t{t}\t{self.df[t]}\n".encode())
        return h.hexdigest()[:16]


def build_vocab(token_docs, min_df=10, stopwords=STOPWORDS):
    """Vocabulary over tokenized documents; df >= min_df, stopwords removed.

    Index order is descending df, ties broken lexicographically.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    df = {}
    n_docs = 0
    for toks in token_docs:
        n_docs += 1
        for t in set(toks):
            df[t] = df.get(t, 0) + 1
    kept = {t: c for t, c in df.items() if c >= min_df and t not in stopwords}
    if not kept:
        raise PipelineError("vocabulary is empty after filtering")
    ordered = sorted(kept, key=lambda t: (-kept[t], t))
    return Vocabulary(index={t: i for i, t in enumerate(ordered)}, df=kept,
                      doc_count=n_docs, min_df=min_df)


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
    idf = np.log(vocab.doc_count / np.array([vocab.df[t] for t in vocab.terms], dtype=float))
    X.data = idf[X.indices]
    # np.sum of each row's slice, the order a per-document sum adds in; np.add.reduceat adds in another
    sums = np.array([np.sum(X.data[a:b]) for a, b in zip(X.indptr[:-1], X.indptr[1:])])
    X.data /= np.where(sums > 0.0, sums, np.inf)[rows]  # a row without positive weight empties
    X.eliminate_zeros()
    return X


def save_vocab(path, vocab):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{vocab.doc_count}\t{vocab.min_df}\t{vocab.stop_hash}\n")
        for t in vocab.terms:
            f.write(f"{vocab.index[t]}\t{t}\t{vocab.df[t]}\n")


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
    index, df = {}, {}
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
            index[t], df[t] = int(i), int(c)
        except ValueError as e:
            raise PipelineError(f"{path}:{ln}: malformed vocabulary line: {e}") from e
    return Vocabulary(index=index, df=df, doc_count=doc_count, min_df=min_df, stop_hash=stop_hash)
