"""Shared experiment harness utilities.

The functional experiments all follow the paper's methodology: take a
*pre-trained* model, fine-tune it under a system configuration, measure a
task metric.  :func:`pretrained_lm` / :func:`pretrained_classifier` build
and pre-train the tiny proxies once per argument tuple — memoized through
:mod:`repro.experiments.pretrained`, so the dozen experiments sharing one
proxy checkpoint pre-train it exactly once per process; the fine-tuning
comparisons then run from identical checkpoints.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.data import classification_set, lm_batches, lm_corpus
from repro.dba import ActivationPolicy
from repro.experiments.pretrained import memoized_setup
from repro.experiments.registry import content_hash
from repro.models import TinyProxyConfig
from repro.offload import OffloadTrainer, TrainerMode
from repro.tensor.nn import Module
from repro.tensor.transformer import (
    TinyTransformerClassifier,
    TinyTransformerLM,
)
from repro.utils.rng import make_rng

__all__ = [
    "LMSetup",
    "ClassifierSetup",
    "Branch",
    "pretrained_lm",
    "pretrained_classifier",
    "finetune",
    "finetune_branches",
    "checkpoint_file",
    "CHECKPOINT_EVERY",
    "FINETUNE_LR",
]

DEFAULT_CFG = TinyProxyConfig()

#: Steps between the checkpoints :func:`finetune` writes to its
#: ``checkpoint_path`` (it also writes one after the last step).
CHECKPOINT_EVERY = 25

#: Default fine-tuning learning rate (Adam).
FINETUNE_LR = 5e-4


@dataclass
class LMSetup:
    """A pre-trained tiny LM plus its data splits."""

    model: TinyTransformerLM
    state: dict[str, np.ndarray]
    train_batches: list[tuple]
    eval_batch: np.ndarray

    def fresh_model(self, rng: np.random.Generator) -> TinyTransformerLM:
        """A new model loaded with the pre-trained checkpoint."""
        m = TinyTransformerLM(
            vocab=self.model.vocab,
            dim=self.model.tok.dim,
            n_heads=self.model.stack.blocks[0].attn.n_heads,
            n_layers=self.model.stack.n_layers,
            max_seq=self.model.max_seq,
            rng=rng,
        )
        m.load_state_dict(self.state)
        return m


@dataclass
class ClassifierSetup:
    """A pre-trained tiny classifier plus its data splits."""

    model: TinyTransformerClassifier
    state: dict[str, np.ndarray]
    train_batches: list[tuple]
    eval_ids: np.ndarray
    eval_labels: np.ndarray
    shape: tuple[int, int, int, int, int]  # vocab, dim, heads, layers, seq

    def fresh_model(self, rng: np.random.Generator) -> TinyTransformerClassifier:
        """A new model loaded with the pre-trained checkpoint."""
        vocab, dim, heads, layers, seq = self.shape
        m = TinyTransformerClassifier(
            vocab=vocab,
            dim=dim,
            n_heads=heads,
            n_layers=layers,
            max_seq=seq,
            n_classes=self.model.n_classes,
            rng=rng,
        )
        m.load_state_dict(self.state)
        return m


def pretrained_lm(
    seed: int = 0,
    pretrain_steps: int = 80,
    finetune_batches: int = 120,
    vocab: int = 32,
    dim: int = 32,
    seq: int = 16,
    batch: int = 8,
) -> LMSetup:
    """Pre-train a tiny LM on a Markov corpus, yield a fine-tuning setup.

    Pre-training uses one corpus; fine-tuning batches come from a second
    corpus with different transition structure — the 'domain shift' that
    makes fine-tuning meaningful.

    Deterministic in its arguments and memoized per process: repeated
    calls with the same arguments return one shared (read-only) setup
    instead of re-pre-training.
    """
    key = (seed, pretrain_steps, finetune_batches, vocab, dim, seq, batch)
    return memoized_setup(
        "lm", key, lambda: _build_pretrained_lm(*key)
    )


def _build_pretrained_lm(
    seed, pretrain_steps, finetune_batches, vocab, dim, seq, batch
) -> LMSetup:
    """The uncached body of :func:`pretrained_lm`."""
    rng = make_rng(seed)
    model = TinyTransformerLM(
        vocab=vocab, dim=dim, n_heads=2, n_layers=2, max_seq=seq + 2, rng=rng
    )
    pre_corpus = lm_corpus(6000, vocab, make_rng(seed + 1))
    trainer = OffloadTrainer(model, lr=3e-3)
    trainer.train(
        lm_batches(pre_corpus, batch, seq, pretrain_steps, make_rng(seed + 2))
    )
    ft_corpus = lm_corpus(6000, vocab, make_rng(seed + 3))
    train = lm_batches(ft_corpus, batch, seq, finetune_batches, make_rng(seed + 4))
    eval_batch = np.stack(
        [
            ft_corpus[s : s + seq]
            for s in make_rng(seed + 5).integers(0, 5000, 16)
        ]
    )
    return LMSetup(
        model=model,
        state=model.state_dict(),
        train_batches=train,
        eval_batch=eval_batch,
    )


def pretrained_classifier(
    seed: int = 0,
    pretrain_steps: int = 60,
    finetune_batches: int = 100,
    vocab: int = 32,
    dim: int = 32,
    seq: int = 12,
    batch: int = 8,
) -> ClassifierSetup:
    """Pre-train a tiny classifier, yield a fine-tuning setup on fresh data.

    Memoized like :func:`pretrained_lm`.
    """
    key = (seed, pretrain_steps, finetune_batches, vocab, dim, seq, batch)
    return memoized_setup(
        "classifier", key, lambda: _build_pretrained_classifier(*key)
    )


def _build_pretrained_classifier(
    seed, pretrain_steps, finetune_batches, vocab, dim, seq, batch
) -> ClassifierSetup:
    """The uncached body of :func:`pretrained_classifier`."""
    rng = make_rng(seed + 10)
    model = TinyTransformerClassifier(
        vocab=vocab,
        dim=dim,
        n_heads=2,
        n_layers=2,
        max_seq=seq,
        n_classes=2,
        rng=rng,
    )
    ids, labels = classification_set(
        batch * pretrain_steps, vocab, seq, make_rng(seed + 11)
    )
    trainer = OffloadTrainer(model, lr=3e-3)
    trainer.train(
        [
            (ids[i * batch : (i + 1) * batch], labels[i * batch : (i + 1) * batch])
            for i in range(pretrain_steps)
        ]
    )
    ft_ids, ft_labels = classification_set(
        batch * finetune_batches + 64, vocab, seq, make_rng(seed + 12)
    )
    train = [
        (
            ft_ids[i * batch : (i + 1) * batch],
            ft_labels[i * batch : (i + 1) * batch],
        )
        for i in range(finetune_batches)
    ]
    return ClassifierSetup(
        model=model,
        state=model.state_dict(),
        train_batches=train,
        eval_ids=ft_ids[-64:],
        eval_labels=ft_labels[-64:],
        shape=(vocab, dim, 2, 2, seq),
    )


def checkpoint_file(checkpoint_dir, run: str, **cell) -> str | None:
    """Checkpoint path of fine-tuning run ``run`` inside ``checkpoint_dir``
    (``None`` without a directory).

    ``cell`` holds every seed and parameter the run's trajectory depends
    on; the file name carries a short hash of it, so a rerun with other
    settings starts its own checkpoint instead of resuming another
    cell's.
    """
    if checkpoint_dir is None:
        return None
    name = f"{run}-{content_hash(cell)[:12]}.teco-ckpt"
    return os.path.join(os.fspath(checkpoint_dir), name)


@dataclass
class Branch:
    """One fine-tuning run of a :func:`finetune_branches` sweep."""

    mode: TrainerMode
    #: DBA activation policy (``None``: the trainer's default).
    policy: ActivationPolicy | None = None
    #: Where the run checkpoints and resumes (``None``: not at all).
    checkpoint_path: str | os.PathLike | None = None

    def diverges_at(self, n_steps: int) -> int:
        """The first step whose dataflow differs from a run that never
        activates DBA (``n_steps`` if none does)."""
        if self.mode is not TrainerMode.TECO_REDUCTION:
            return n_steps
        policy = self.policy or ActivationPolicy()
        return 0 if policy.active else min(policy.act_aft_steps, n_steps)


def finetune_branches(
    make_model: Callable[[], Module],
    state: dict[str, np.ndarray],
    batches: list[tuple],
    branches: list[Branch],
    lr: float = FINETUNE_LR,
    grad_transform=None,
) -> list[OffloadTrainer]:
    """Fine-tune one trainer per branch from the pre-trained ``state``,
    running the steps the branches share once.

    Until DBA activates, every mode and policy runs the same arithmetic,
    so the branches agree up to :meth:`Branch.diverges_at`.  One trunk —
    the branch that diverges last — trains from ``make_model()`` loaded
    with ``state``; every other branch is forked from it
    (:meth:`OffloadTrainer.fork`) at its divergence step and trained on
    to the end, before the trunk goes on.  Each trainer equals a
    separate run of its branch, bit for bit.

    A branch with a ``checkpoint_path`` checkpoints there every
    :data:`CHECKPOINT_EVERY` steps and after its last one.  One whose
    checkpoint exists resumes from it (already-trained batches are
    skipped); otherwise it forks from the trunk, or runs from step 0
    when it diverges at step 0 or the resumed trunk is past its
    divergence step.

    ``grad_transform`` is forwarded to every :class:`OffloadTrainer` —
    the in-fabric aggregation experiments pass a wire-format round-trip
    so accuracy reflects the gradient rounding of the chosen format.
    """
    n = len(batches)

    def fresh(branch: Branch) -> OffloadTrainer:
        model = make_model()
        model.load_state_dict(state)
        return OffloadTrainer(
            model,
            mode=branch.mode,
            lr=lr,
            policy=branch.policy,
            grad_transform=grad_transform,
        )

    def resumed(branch: Branch) -> OffloadTrainer | None:
        path = branch.checkpoint_path
        if path is None or not os.path.exists(path):
            return None
        trainer = fresh(branch)
        trainer.load_checkpoint(path)
        if trainer.step_count > n:
            raise ValueError(
                f"checkpoint at {path!r} has {trainer.step_count} steps but "
                f"this run only has {n} batches; wrong checkpoint?"
            )
        return trainer

    def train(trainer: OffloadTrainer, branch: Branch, stop: int) -> None:
        path = branch.checkpoint_path
        for i in range(trainer.step_count, stop):
            trainer.step(*batches[i])
            done = i + 1
            if path is not None and (done % CHECKPOINT_EVERY == 0 or done == n):
                trainer.save_checkpoint(path)

    for branch in branches:
        if branch.checkpoint_path is not None:
            path = os.fspath(branch.checkpoint_path)
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    points = [b.diverges_at(n) for b in branches]
    t = max(range(len(branches)), key=points.__getitem__)
    trunk = resumed(branches[t]) or fresh(branches[t])
    trainers: list[OffloadTrainer | None] = [None] * len(branches)
    for i in sorted(range(len(branches)), key=points.__getitem__):
        if i == t:
            continue
        branch = branches[i]
        trainer = resumed(branch)
        if trainer is None and 0 < points[i] >= trunk.step_count:
            train(trunk, branches[t], points[i])
            trainer = trunk.fork(
                branch.mode, branch.policy or ActivationPolicy()
            )
        trainers[i] = trainer or fresh(branch)
        train(trainers[i], branch, n)
    train(trunk, branches[t], n)
    trainers[t] = trunk
    return trainers


def finetune(
    setup: LMSetup | ClassifierSetup,
    mode: TrainerMode,
    lr: float = FINETUNE_LR,
    seed: int = 99,
    policy=None,
    checkpoint_path: str | os.PathLike | None = None,
    grad_transform=None,
) -> OffloadTrainer:
    """Fine-tune a fresh copy of the setup's checkpoint under ``mode``:
    the one-branch :func:`finetune_branches`.

    With ``checkpoint_path`` the run becomes interruptible: an existing
    checkpoint at that path is resumed (bit-exactly — already-trained
    batches are skipped), and the trainer re-checkpoints there every
    :data:`CHECKPOINT_EVERY` steps and after its last step.  Sweeps name
    each run's path with :func:`checkpoint_file`.
    """
    return finetune_branches(
        lambda: setup.fresh_model(make_rng(seed)),
        setup.state,
        setup.train_batches,
        [Branch(mode, policy, checkpoint_path)],
        lr=lr,
        grad_transform=grad_transform,
    )[0]
