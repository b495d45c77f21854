"""Bit-exact checkpoint/resume: state dicts, container format, harness.

Three pieces:

* the ``state_dict()`` / ``load_state_dict()`` protocol
  (:class:`~repro.state.checkpoint.Stateful`), implemented by every
  resumable component — ``OffloadTrainer``, ``FlatAdam``,
  ``ActivationPolicy``, ``CommVolume``, and the RNG helpers in
  :mod:`repro.utils.rng`;
* the versioned, CRC-checked, atomically-written container format
  (:mod:`repro.state.checkpoint`), with a migration path for seed-era
  ``np.savez`` checkpoints;
* the resume-equivalence harness (:mod:`repro.state.verify`), which
  enforces the invariant **resume == never stopped** bit-exactly across
  all ``TrainerMode``s, DBA activation and trainer forks.
"""

from repro.state.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    Stateful,
    StateMismatchError,
    is_legacy_checkpoint,
    load_state,
    save_state,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "StateMismatchError",
    "Stateful",
    "is_legacy_checkpoint",
    "load_state",
    "save_state",
]
