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
import queue
import threading
from dataclasses import dataclass

import numpy as np

from repro.data import classification_set, lm_batches, lm_corpus
from repro.experiments.pretrained import memoized_setup
from repro.experiments.registry import content_hash
from repro.models import TinyProxyConfig
from repro.offload import OffloadTrainer, TrainerMode
from repro.state import save_state
from repro.tensor.transformer import (
    TinyTransformerClassifier,
    TinyTransformerLM,
)
from repro.utils.rng import make_rng

__all__ = [
    "LMSetup",
    "ClassifierSetup",
    "AsyncCheckpointer",
    "pretrained_lm",
    "pretrained_classifier",
    "finetune",
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


class AsyncCheckpointer:
    """Overlap checkpoint serialization/IO with the training loop.

    :meth:`submit` snapshots the trainer's ``state_dict()`` (already a
    decoupled copy — every component copies its arrays) synchronously,
    then a single background thread writes it through
    :func:`repro.state.save_state`, which is atomic (temp file +
    ``os.replace``): a kill mid-save always leaves the previous
    checkpoint at ``path`` intact.  The parent directory is created if
    missing.

    Snapshots are written in submission order; :meth:`close` drains the
    queue and re-raises the first writer error, so a completed run is
    guaranteed to have its last submitted checkpoint on disk.
    """

    def __init__(self, trainer: OffloadTrainer, path) -> None:
        self._trainer = trainer
        self._path = os.fspath(path)
        os.makedirs(os.path.dirname(self._path) or ".", exist_ok=True)
        self._queue: queue.Queue = queue.Queue()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._drain, name="teco-ckpt-writer", daemon=True
        )
        self._thread.start()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                state, meta = item
                save_state(self._path, state, meta=meta)
            except BaseException as exc:  # surfaced by close()
                if self._error is None:
                    self._error = exc
            finally:
                self._queue.task_done()

    def submit(self) -> None:
        """Snapshot the trainer now; write it in the background."""
        if self._error is not None:
            raise self._error
        self._queue.put(
            (self._trainer.state_dict(), self._trainer.checkpoint_meta())
        )

    def close(self) -> None:
        """Flush pending writes, stop the writer, re-raise its error."""
        self._queue.put(None)
        self._thread.join()
        if self._error is not None:
            raise self._error


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


def finetune(
    setup: LMSetup | ClassifierSetup,
    mode: TrainerMode,
    lr: float = FINETUNE_LR,
    seed: int = 99,
    policy=None,
    checkpoint_path: str | os.PathLike | None = None,
    profile=None,
    grad_transform=None,
) -> OffloadTrainer:
    """Fine-tune a fresh copy of the setup's checkpoint under ``mode``.

    With ``checkpoint_path`` the run becomes interruptible: an existing
    checkpoint at that path is resumed (bit-exactly — already-trained
    batches are skipped), and the trainer re-checkpoints there every
    :data:`CHECKPOINT_EVERY` steps and after its last step.  Long
    Figure-10/13 sweeps can then be killed and relaunched without
    redoing finished work; they name each run's path with
    :func:`checkpoint_file`.

    ``profile`` (a :class:`repro.obs.Profile`) attaches the observability
    layer to the fine-tuning trainer: per-step phase spans and payload
    metrics are recorded without changing the computation.

    ``grad_transform`` is forwarded to :class:`OffloadTrainer` — the
    in-fabric aggregation experiments pass a wire-format round-trip so
    accuracy reflects the gradient rounding of the chosen format.
    """
    model = setup.fresh_model(make_rng(seed))
    trainer = OffloadTrainer(
        model,
        mode=mode,
        lr=lr,
        policy=policy,
        tracer=None if profile is None else profile.tracer,
        metrics=None if profile is None else profile.metrics,
        grad_transform=grad_transform,
    )
    batches = setup.train_batches
    start = 0
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        trainer.load_checkpoint(checkpoint_path)
        start = trainer.step_count
        if start > len(batches):
            raise ValueError(
                f"checkpoint at {checkpoint_path!r} has {start} steps but "
                f"this run only has {len(batches)} batches; wrong checkpoint?"
            )
    writer = (
        None
        if checkpoint_path is None
        else AsyncCheckpointer(trainer, checkpoint_path)
    )
    try:
        for i in range(start, len(batches)):
            trainer.step(*batches[i])
            done = i + 1
            if writer is not None and (
                done % CHECKPOINT_EVERY == 0 or done == len(batches)
            ):
                writer.submit()
    finally:
        if writer is not None:
            writer.close()
    return trainer
