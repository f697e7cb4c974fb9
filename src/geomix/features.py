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
        """Terms in index order (cached)."""
        cached = self.__dict__.get("_terms")
        if cached is None or len(cached) != len(self.index):
            cached = sorted(self.index, key=self.index.get)
            self.__dict__["_terms"] = cached
        return cached

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


def vectorize(tokens, vocab, scheme="l2_count"):
    """Sorted (index, weight) pairs of one document; [] when it has no
    in-vocabulary weight.

    l2_count: raw counts, l2-normalized.  l1_binary_idf: 1{tf>0} * idf,
    l1-normalized.
    """
    counts = {}
    for t in tokens:
        i = vocab.index.get(t)
        if i is not None:
            counts[i] = counts.get(i, 0) + 1
    if not counts:
        return []
    idx = sorted(counts)
    if scheme == "l2_count":
        w = np.array([counts[i] for i in idx], dtype=float)
        w /= np.linalg.norm(w)
    elif scheme == "l1_binary_idf":
        terms = vocab.terms
        w = np.array([np.log(vocab.doc_count / vocab.df[terms[i]]) for i in idx])
        if w.sum() <= 0.0:
            return []
        w /= w.sum()
    else:
        raise ValueError(f"unknown scheme: {scheme}")
    return [(i, float(x)) for i, x in zip(idx, w) if x != 0.0]


def vectorize_matrix(token_docs, vocab, scheme="l2_count"):
    """Stack vectorize() of each document into a CSR matrix (N x |V|)."""
    rows, cols, vals = [], [], []
    for r, toks in enumerate(token_docs):
        for i, w in vectorize(toks, vocab, scheme):
            rows.append(r)
            cols.append(i)
            vals.append(w)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(len(token_docs), len(vocab)))


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
