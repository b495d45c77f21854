#!/usr/bin/env python
"""Memory planning: will a (model, batch) configuration fit — and where?

Uses the GPU memory model (deriving the paper's T5 OOM observation) and
the activation-checkpointing option that rescues it.

Run:  python examples/memory_planning.py
"""

from repro.models import evaluation_models, get_model
from repro.offload import MemoryModel
from repro.utils.tables import format_table
from repro.utils.units import GIB


def gpu_fit_table() -> None:
    mm = MemoryModel(mixed_precision=False)
    rows = []
    for spec in evaluation_models():
        if spec.name == "gcnii":
            continue
        seq = 512 if spec.name == "t5-large" else spec.seq_len
        for batch in (4, 8, 16):
            budget = mm.gpu_budget(spec, batch, seq_len=seq)
            rows.append(
                (
                    spec.name,
                    batch,
                    f"{budget.required_bytes / GIB:.1f} GiB",
                    "yes" if budget.fits else "OOM",
                )
            )
    print(format_table(
        ["model", "batch", "GPU footprint", "fits 32 GB?"],
        rows,
        title="GPU memory plan (paper: T5-large OOMs at batch 16)",
    ))


def checkpointing_rescue() -> None:
    t5 = get_model("t5-large")
    plain = MemoryModel(mixed_precision=False)
    ckpt = MemoryModel(mixed_precision=False, activation_checkpointing=True)
    a = plain.gpu_budget(t5, 16, seq_len=512)
    b = ckpt.gpu_budget(t5, 16, seq_len=512)
    print(
        f"\nT5-large @ batch 16: {a.required_bytes / GIB:.1f} GiB plain "
        f"-> {b.required_bytes / GIB:.1f} GiB with activation "
        f"checkpointing (fits: {b.fits}; costs "
        f"+{ckpt.recompute_backward_overhead:.0%} backward FLOPs)"
    )


def main() -> None:
    gpu_fit_table()
    checkpointing_rescue()


if __name__ == "__main__":
    main()
