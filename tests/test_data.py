"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import (
    classification_set,
    lm_batches,
    lm_corpus,
    summarization_pairs,
    wisconsin_like_graph,
)


class TestLMCorpus:
    def test_range_and_length(self):
        rng = np.random.default_rng(0)
        corpus = lm_corpus(5000, 32, rng)
        assert corpus.shape == (5000,)
        assert corpus.min() >= 0 and corpus.max() < 32

    def test_markov_structure_is_learnable(self):
        """Bigram entropy must be well below unigram entropy — otherwise
        the LM experiments could not reduce perplexity."""
        rng = np.random.default_rng(1)
        corpus = lm_corpus(20_000, 16, rng)
        uni = np.bincount(corpus, minlength=16) / corpus.size
        h_uni = -np.sum(uni[uni > 0] * np.log(uni[uni > 0]))
        joint = np.zeros((16, 16))
        np.add.at(joint, (corpus[:-1], corpus[1:]), 1)
        joint /= joint.sum()
        cond = joint / np.maximum(joint.sum(axis=1, keepdims=True), 1e-12)
        h_bi = -np.sum(joint * np.where(cond > 0, np.log(cond + 1e-12), 0))
        assert h_bi < 0.8 * h_uni

    @pytest.mark.parametrize("vocab", [8, 16, 32])
    def test_matches_per_step_searchsorted_chain(self, vocab):
        """The table walk draws the chain a per-step ``searchsorted`` loop
        draws, token for token."""

        def reference(n_tokens, vocab, rng, order=4.0):
            base = 1.0 / (np.arange(1, vocab + 1) ** 1.1)
            base /= base.sum()
            trans = rng.dirichlet(base * order, size=vocab)
            tokens = np.empty(n_tokens, dtype=np.int64)
            tokens[0] = rng.integers(vocab)
            cdf = np.cumsum(trans, axis=1)
            u = rng.random(n_tokens)
            for t in range(1, n_tokens):
                tokens[t] = np.searchsorted(cdf[tokens[t - 1]], u[t])
            return np.clip(tokens, 0, vocab - 1)

        for seed in range(5):
            got = lm_corpus(2000, vocab, np.random.default_rng(seed))
            want = reference(2000, vocab, np.random.default_rng(seed))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_determinism(self):
        a = lm_corpus(100, 8, np.random.default_rng(42))
        b = lm_corpus(100, 8, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_invalid(self):
        with pytest.raises(ValueError):
            lm_corpus(1, 8, np.random.default_rng(0))

    def test_batches_shape(self):
        rng = np.random.default_rng(2)
        corpus = lm_corpus(1000, 8, rng)
        batches = lm_batches(corpus, 4, 16, 5, rng)
        assert len(batches) == 5
        assert batches[0][0].shape == (4, 16)

    def test_batches_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            lm_batches(np.arange(10), 2, 20, 1, rng)


class TestClassification:
    def test_shapes(self):
        ids, labels = classification_set(50, 32, 12, np.random.default_rng(4))
        assert ids.shape == (50, 12)
        assert labels.shape == (50,)

    def test_keywords_present(self):
        ids, labels = classification_set(
            100, 32, 10, np.random.default_rng(5)
        )
        for row, label in zip(ids, labels):
            own = {label * 2, label * 2 + 1}
            assert own & set(row.tolist())

    def test_vocab_too_small(self):
        with pytest.raises(ValueError):
            classification_set(10, 4, 8, np.random.default_rng(0), n_classes=2)


class TestSummarization:
    def test_target_is_strided_source(self):
        src, tgt = summarization_pairs(10, 16, 12, 6, np.random.default_rng(6))
        np.testing.assert_array_equal(tgt, src[:, ::2][:, :6])

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            summarization_pairs(1, 16, 4, 8, np.random.default_rng(0))


class TestWisconsinGraph:
    def test_shapes_and_normalization(self):
        feats, a_hat, labels = wisconsin_like_graph(np.random.default_rng(7))
        n = labels.size
        assert feats.shape[0] == n and a_hat.shape == (n, n)
        np.testing.assert_allclose(a_hat, a_hat.T, atol=1e-6)

    def test_heterophily(self):
        """Most edges connect different classes (the Wisconsin regime)."""
        rng = np.random.default_rng(8)
        feats, a_hat, labels = wisconsin_like_graph(rng, n_nodes=80)
        adj = (a_hat > 0) & ~np.eye(labels.size, dtype=bool)
        i, j = np.nonzero(np.triu(adj))
        cross = np.mean(labels[i] != labels[j])
        assert cross > 0.5

    def test_features_informative(self):
        """A linear probe on features beats chance comfortably."""
        rng = np.random.default_rng(9)
        feats, _, labels = wisconsin_like_graph(rng, n_nodes=120)
        centroids = np.stack(
            [feats[labels == c].mean(axis=0) for c in range(2)]
        )
        pred = np.argmin(
            ((feats[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1
        )
        assert np.mean(pred == labels) > 0.75

    def test_too_small(self):
        with pytest.raises(ValueError):
            wisconsin_like_graph(np.random.default_rng(0), n_nodes=2)
