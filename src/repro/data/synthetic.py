"""Synthetic task generators (see package docstring for the mapping)."""

from __future__ import annotations

import numpy as np

from repro.tensor.gnn import normalized_adjacency

__all__ = [
    "lm_corpus",
    "lm_batches",
    "classification_set",
    "summarization_pairs",
    "wisconsin_like_graph",
]


def lm_corpus(
    n_tokens: int, vocab: int, rng: np.random.Generator, order: float = 4.0
) -> np.ndarray:
    """A learnable token stream: first-order Markov chain with sparse,
    peaked transitions (so a small LM can reduce perplexity well below the
    uniform baseline, like natural text)."""
    if n_tokens <= 1 or vocab <= 1:
        raise ValueError("need n_tokens > 1 and vocab > 1")
    if order <= 0:
        raise ValueError("order must be positive")
    # Per-state transition distribution: Dirichlet with small alpha =>
    # peaked rows; a shared base measure adds Zipf-like global frequency.
    base = 1.0 / (np.arange(1, vocab + 1) ** 1.1)
    base /= base.sum()
    trans = rng.dirichlet(base * order, size=vocab)
    first = int(rng.integers(vocab))
    cdf = np.cumsum(trans, axis=1)
    u = rng.random(n_tokens)
    # Inverse-CDF sampling: nxt[s][t] is the token drawn at step t from
    # state s.  One searchsorted per state row into the narrowest dtype
    # that holds ``vocab``, then a walk over memoryviews, which index to
    # Python ints without NumPy's per-call cost.
    table = np.empty((vocab, n_tokens), dtype=np.min_scalar_type(vocab))
    for s, row in enumerate(cdf):
        table[s] = np.searchsorted(row, u)
    nxt = [memoryview(r) for r in table]
    tokens = [first]
    tok = first
    for t in range(1, n_tokens):
        tok = nxt[tok][t]
        tokens.append(tok)
    return np.clip(np.array(tokens, dtype=np.int64), 0, vocab - 1)


def lm_batches(
    corpus: np.ndarray,
    batch_size: int,
    seq_len: int,
    n_batches: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray]]:
    """Random fixed-length windows over a corpus, as loss() argument
    tuples for :class:`~repro.tensor.transformer.TinyTransformerLM`."""
    if seq_len >= corpus.size:
        raise ValueError("corpus shorter than seq_len")
    if batch_size <= 0 or n_batches <= 0:
        raise ValueError("batch_size and n_batches must be positive")
    starts = rng.integers(0, corpus.size - seq_len, (n_batches, batch_size))
    return [
        (np.stack([corpus[s : s + seq_len] for s in row]),) for row in starts
    ]


def classification_set(
    n_samples: int,
    vocab: int,
    seq_len: int,
    rng: np.random.Generator,
    n_classes: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Keyword-sentiment proxy for IMDB: each class owns a disjoint
    keyword set; a sample's label is the class whose keywords dominate."""
    if vocab < 4 * n_classes:
        raise ValueError("vocab too small for keyword classes")
    if n_samples <= 0 or seq_len <= 2:
        raise ValueError("need positive samples and seq_len > 2")
    keywords = np.arange(n_classes * 2).reshape(n_classes, 2)
    ids = rng.integers(2 * n_classes, vocab, (n_samples, seq_len))
    labels = rng.integers(0, n_classes, n_samples)
    # plant 1-3 keywords of the labelled class
    for i in range(n_samples):
        k = rng.integers(1, 4)
        pos = rng.choice(seq_len, size=k, replace=False)
        ids[i, pos] = rng.choice(keywords[labels[i]], size=k)
    return ids, labels


def summarization_pairs(
    n_samples: int,
    vocab: int,
    src_len: int,
    tgt_len: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Copy-prefix summarization proxy: the 'summary' is the source's
    every-other token — a compressive, learnable seq2seq mapping."""
    if tgt_len > src_len:
        raise ValueError("tgt_len must be <= src_len")
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    src = rng.integers(0, vocab, (n_samples, src_len))
    stride = max(1, src_len // tgt_len)
    tgt = src[:, ::stride][:, :tgt_len]
    return src, tgt


def qa_span_set(
    n_samples: int,
    vocab: int,
    seq_len: int,
    rng: np.random.Generator,
    marker: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squad-v2 proxy: answer spans delimited by a marker token.

    Each sequence contains one contiguous answer span whose first and last
    tokens are preceded/followed by ``marker``; the model must return the
    (start, end) indices of the span between the markers.

    Returns (ids, starts, ends).
    """
    if seq_len < 6:
        raise ValueError("seq_len must be >= 6 to fit a marked span")
    if not 0 <= marker < vocab:
        raise ValueError("marker must be a valid token id")
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    body_tokens = [t for t in range(vocab) if t != marker]
    ids = rng.choice(body_tokens, size=(n_samples, seq_len))
    starts = np.empty(n_samples, dtype=np.int64)
    ends = np.empty(n_samples, dtype=np.int64)
    for i in range(n_samples):
        span_len = int(rng.integers(1, min(4, seq_len - 4) + 1))
        start = int(rng.integers(1, seq_len - span_len - 1))
        ids[i, start - 1] = marker
        ids[i, start + span_len] = marker
        starts[i] = start
        ends[i] = start + span_len - 1
    return ids, starts, ends


def wisconsin_like_graph(
    rng: np.random.Generator,
    n_nodes: int = 48,
    n_features: int = 16,
    n_classes: int = 2,
    edge_prob: float = 0.08,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A small attributed graph in the WebKB-Wisconsin style:
    *heterophilous* (edges mostly connect different classes — the regime
    GCNII's initial residual was designed for), with class-informative
    node features.

    Returns (features, normalized_adjacency, labels).
    """
    if n_nodes < 4 or n_features < 2:
        raise ValueError("graph too small")
    labels = rng.integers(0, n_classes, n_nodes)
    centers = rng.standard_normal((n_classes, n_features)) * 1.5
    feats = centers[labels] + rng.standard_normal((n_nodes, n_features)) * 0.8
    adj = np.zeros((n_nodes, n_nodes), dtype=np.float32)
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            p = edge_prob * (2.0 if labels[i] != labels[j] else 0.5)
            if rng.random() < p:
                adj[i, j] = adj[j, i] = 1.0
    return (
        feats.astype(np.float32),
        normalized_adjacency(adj),
        labels,
    )
