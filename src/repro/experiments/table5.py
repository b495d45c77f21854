"""E-T5 — Table V: final model metrics, original vs TECO-Reduction.

Paper (original -> TECO-Reduction): GPT-2 perplexity 21.05 -> 21.54,
Albert F1/EM 84.38/81.40 -> 83.69/79.87, Bert accuracy 93.13 -> 91.99,
T5 gen-length 22.95 -> 21.11, GCNII 54.90 -> N/A.  The reproduced claim is
the *shape*: DBA costs a small metric delta, never a collapse.

Proxy-metric mapping (tiny models on synthetic tasks — absolute values
differ, deltas are the reproduced quantity):

* GPT-2       -> eval perplexity of the decoder proxy;
* Albert      -> genuine Squad-style F1/EM of a span-extraction proxy
  (shared-layer encoder + start/end heads) on marked-span QA data;
* Bert        -> classification accuracy;
* T5          -> genuine "Gen-length": mean greedy-decoded length until
  EOS on the summarization proxy (the paper's T5 metric);
* GCNII       -> node-classification accuracy; TECO-Reduction is N/A as
  in the paper (full-graph GNN training does not activate DBA).
"""

from __future__ import annotations

import numpy as np

from repro.data import qa_span_set, summarization_pairs, wisconsin_like_graph
from repro.experiments.registry import register, renderer
from repro.tensor.span import TinySpanExtractor
from repro.dba import ActivationPolicy
from repro.experiments.runner import (
    finetune,
    pretrained_classifier,
    pretrained_lm,
)
from repro.models import TinyProxyConfig, get_model, make_tiny_proxy
from repro.offload import OffloadTrainer, TrainerMode
from repro.tensor import functional as F
from repro.tensor.tensor import no_grad
from repro.utils.rng import make_rng
from repro.utils.tables import format_table

__all__ = ["run_table5", "render_table5", "PAPER_TABLE5"]

PAPER_TABLE5 = {
    "gpt2": ("Perplexity", 21.05, 21.54),
    "albert-xxlarge-v1": ("F1/EM", 84.38, 83.69),
    "bert-large-cased": ("Accuracy", 93.13, 91.99),
    "t5-large": ("Gen-length", 22.95, 21.11),
    "gcnii": ("Accuracy", 54.90, None),
}


def _policy(act: int) -> ActivationPolicy:
    return ActivationPolicy(act_aft_steps=act, dirty_bytes=2)


def _lm_row(n_steps: int, seed: int) -> dict:
    setup = pretrained_lm(seed=seed, finetune_batches=n_steps)
    out = {}
    for mode in (TrainerMode.ZERO_OFFLOAD, TrainerMode.TECO_REDUCTION):
        tr = finetune(setup, mode, seed=seed + 1, policy=_policy(n_steps // 4))
        out[mode] = tr.model.perplexity(setup.eval_batch)
    return {
        "model": "gpt2",
        "metric": "perplexity (proxy)",
        "original": out[TrainerMode.ZERO_OFFLOAD],
        "teco_reduction": out[TrainerMode.TECO_REDUCTION],
        "higher_is_better": False,
    }


def _classifier_row(name: str, metric: str, n_steps: int, seed: int) -> dict:
    setup = pretrained_classifier(seed=seed, finetune_batches=n_steps)
    out = {}
    for mode in (TrainerMode.ZERO_OFFLOAD, TrainerMode.TECO_REDUCTION):
        tr = finetune(setup, mode, seed=seed + 1, policy=_policy(n_steps // 4))
        out[mode] = tr.model.accuracy(setup.eval_ids, setup.eval_labels) * 100
    return {
        "model": name,
        "metric": metric,
        "original": out[TrainerMode.ZERO_OFFLOAD],
        "teco_reduction": out[TrainerMode.TECO_REDUCTION],
        "higher_is_better": True,
    }


def _albert_qa_row(n_steps: int, seed: int) -> dict:
    """Genuine F1/EM via span extraction (the Albert/Squad task shape)."""
    rng = make_rng(seed + 20)
    vocab, seq, batch = 32, 16, 8
    pretrain_steps = max(2 * n_steps, 120)
    total = (pretrain_steps + n_steps) * batch + 64
    ids, starts, ends = qa_span_set(total, vocab, seq, rng)
    batches = [
        (
            ids[i * batch : (i + 1) * batch],
            starts[i * batch : (i + 1) * batch],
            ends[i * batch : (i + 1) * batch],
        )
        for i in range(pretrain_steps + n_steps)
    ]
    eval_ids, eval_s, eval_e = ids[-64:], starts[-64:], ends[-64:]

    def fresh() -> TinySpanExtractor:
        return TinySpanExtractor(
            vocab=vocab, dim=32, n_heads=2, n_layers=2, max_seq=seq,
            rng=make_rng(seed + 21), share_layers=True,
        )

    pre = fresh()
    OffloadTrainer(pre, lr=3e-3).train(batches[:pretrain_steps])
    state = pre.state_dict()
    out = {}
    for mode in (TrainerMode.ZERO_OFFLOAD, TrainerMode.TECO_REDUCTION):
        model = fresh()
        model.load_state_dict(state)
        trainer = OffloadTrainer(
            model, mode=mode, lr=5e-4, policy=_policy(n_steps // 4)
        )
        trainer.train(batches[pretrain_steps:])
        out[mode] = model.evaluate(eval_ids, eval_s, eval_e)
    orig = out[TrainerMode.ZERO_OFFLOAD]
    teco = out[TrainerMode.TECO_REDUCTION]
    return {
        "model": "albert-xxlarge-v1",
        "metric": "F1/EM",
        "original": orig["f1"],
        "teco_reduction": teco["f1"],
        "original_em": orig["em"],
        "teco_reduction_em": teco["em"],
        "higher_is_better": True,
    }


def _seq2seq_token_accuracy(model, src, tgt) -> float:
    with no_grad():
        logits = model(src, tgt[:, :-1])
    pred = np.argmax(logits.data, axis=-1)
    return float(np.mean(pred == tgt[:, 1:])) * 100


#: Reserved special tokens of the summarization proxy.
T5_BOS, T5_EOS = 0, 1


def _t5_row(n_steps: int, seed: int) -> dict:
    rng = make_rng(seed + 30)
    cfg = TinyProxyConfig(vocab=16)
    pretrain_steps = max(2 * n_steps, 120)
    total = pretrain_steps + n_steps + 8
    # Content tokens in [2, vocab): 0/1 are BOS/EOS.
    src, core = summarization_pairs(8 * total, cfg.vocab - 2, 8, 4, rng)
    src = src + 2
    core = core + 2
    bos = np.full((core.shape[0], 1), T5_BOS, dtype=core.dtype)
    eos = np.full((core.shape[0], 1), T5_EOS, dtype=core.dtype)
    tgt = np.concatenate([bos, core, eos], axis=1)
    batches = [
        (src[i * 8 : (i + 1) * 8], tgt[i * 8 : (i + 1) * 8])
        for i in range(pretrain_steps + n_steps)
    ]
    eval_src = src[-64:]
    # Pre-train once (the paper fine-tunes a pre-trained T5).
    pre = make_tiny_proxy(get_model("t5-large"), make_rng(seed + 31), cfg)
    OffloadTrainer(pre, lr=3e-3).train(batches[:pretrain_steps])
    state = pre.state_dict()
    out = {}
    for mode in (TrainerMode.ZERO_OFFLOAD, TrainerMode.TECO_REDUCTION):
        model = make_tiny_proxy(get_model("t5-large"), make_rng(seed + 31), cfg)
        model.load_state_dict(state)
        trainer = OffloadTrainer(
            model, mode=mode, lr=5e-4, policy=_policy(n_steps // 4)
        )
        trainer.train(batches[pretrain_steps:])
        out[mode] = model.mean_generation_length(
            eval_src, bos=T5_BOS, eos=T5_EOS, max_len=8
        )
    return {
        "model": "t5-large",
        "metric": "gen-length",
        "original": out[TrainerMode.ZERO_OFFLOAD],
        "teco_reduction": out[TrainerMode.TECO_REDUCTION],
        "higher_is_better": True,
    }


def _gcnii_row(n_steps: int, seed: int) -> dict:
    rng = make_rng(seed + 40)
    feats, a_hat, labels = wisconsin_like_graph(rng)
    model = make_tiny_proxy(get_model("gcnii"), make_rng(seed + 41))
    trainer = OffloadTrainer(model, lr=5e-3)
    trainer.train([(feats, a_hat, labels)] * n_steps)
    acc = model.accuracy(feats, a_hat, labels) * 100
    return {
        "model": "gcnii",
        "metric": "accuracy",
        "original": acc,
        "teco_reduction": None,  # N/A, as in the paper
        "higher_is_better": True,
    }


@register(
    "table5",
    "Table V — final model metrics",
    tags=("table", "functional"),
)
def run_table5(n_steps: int = 80, seed: int = 0) -> list[dict]:
    """All five Table V rows on the proxy workloads."""
    return [
        _lm_row(n_steps, seed),
        _albert_qa_row(n_steps, seed + 1),
        _classifier_row("bert-large-cased", "accuracy", n_steps, seed + 2),
        _t5_row(n_steps, seed + 3),
        _gcnii_row(n_steps, seed + 4),
    ]


@renderer("table5")
def render_table5(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    def fmt(v):
        return "N/A" if v is None else f"{v:.2f}"

    return format_table(
        ["model", "metric", "original", "TECO-Reduction"],
        [
            (r["model"], r["metric"], fmt(r["original"]), fmt(r["teco_reduction"]))
            for r in rows
        ],
        title="Table V — final model metrics (proxy tasks)",
    )
