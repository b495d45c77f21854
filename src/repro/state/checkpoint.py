"""Versioned, CRC-checked, atomically-written checkpoint container.

The functional trainer used to persist resume state with ad-hoc
``np.savez`` fields, which silently dropped everything it did not know
about (comm-volume counters, step history) and
gave no integrity guarantee.  This module replaces that with a small
binary container for arbitrary *state dicts* — nested ``dict``s whose
leaves are :class:`numpy.ndarray`s or JSON scalars — with:

* a magic + format-version header (``TECOCKPT``, version 1), so readers
  can reject files from the future with a descriptive error;
* a trailing CRC-32 over the entire payload, so truncated or bit-flipped
  files fail loudly instead of resuming from garbage;
* atomic writes (temp file in the target directory + ``fsync`` +
  ``os.replace``), so a crash mid-checkpoint never destroys the previous
  checkpoint.

File layout (all integers little-endian)::

    8 bytes   magic  b"TECOCKPT"
    4 bytes   format version (uint32)
    8 bytes   header length H (uint64)
    H bytes   UTF-8 JSON header {"state": tree, "meta": ..., "arrays": [...]}
    .. bytes  raw array buffers, concatenated in header order
    4 bytes   CRC-32 of every preceding byte (uint32)

Arrays are pulled out of the state tree and replaced by ``{"__array__":
index}`` placeholders; the header's ``arrays`` list records dtype, shape
and byte length so loading needs no pickling (and is safe on untrusted
files).  Legacy ``np.savez`` checkpoints are recognised by their zip
magic — see :func:`is_legacy_checkpoint` — and migrated by the caller.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "StateMismatchError",
    "Stateful",
    "save_state",
    "load_state",
    "is_legacy_checkpoint",
]

#: File magic for the native checkpoint container.
MAGIC = b"TECOCKPT"

#: Current container format version.
FORMAT_VERSION = 1

#: Zip magic — ``np.savez`` files (the legacy seed checkpoint format).
_LEGACY_ZIP_MAGIC = b"PK\x03\x04"

_FIXED_HEADER = struct.Struct("<8sIQ")
_CRC = struct.Struct("<I")


class CheckpointError(ValueError):
    """Base error for unreadable or incompatible checkpoints."""


class CheckpointCorruptError(CheckpointError):
    """The file is truncated, bit-flipped, or otherwise not intact."""


class CheckpointVersionError(CheckpointError):
    """The file's format version is not supported by this reader."""


class StateMismatchError(CheckpointError):
    """A state dict does not fit the object it is being loaded into."""


@runtime_checkable
class Stateful(Protocol):
    """The ``state_dict()`` / ``load_state_dict()`` protocol.

    Implemented by every resumable component: ``OffloadTrainer``,
    ``FlatAdam``, ``ActivationPolicy`` and ``CommVolume``.
    """

    def state_dict(self) -> dict:
        """Serializable snapshot of all mutable state."""
        ...

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        ...


# -- state-tree <-> (json tree, array list) ---------------------------------
def _encode(node: Any, arrays: list[np.ndarray]) -> Any:
    """Replace ndarrays in a state tree with indexed placeholders."""
    if isinstance(node, np.ndarray):
        arrays.append(np.ascontiguousarray(node))
        return {"__array__": len(arrays) - 1}
    if isinstance(node, np.generic):
        return node.item()
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(f"state dict keys must be str, got {key!r}")
            if key == "__array__":
                raise TypeError("'__array__' is a reserved state-dict key")
            out[key] = _encode(value, arrays)
        return out
    if isinstance(node, (list, tuple)):
        return [_encode(item, arrays) for item in node]
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise TypeError(f"unsupported state leaf of type {type(node).__name__}")


def _decode(node: Any, arrays: list[np.ndarray]) -> Any:
    """Inverse of :func:`_encode`."""
    if isinstance(node, dict):
        if set(node) == {"__array__"}:
            return arrays[node["__array__"]]
        return {key: _decode(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode(item, arrays) for item in node]
    return node


# -- public API -------------------------------------------------------------
def save_state(path, state: dict, meta: dict | None = None) -> None:
    """Write a state dict to ``path`` atomically.

    Parameters
    ----------
    state
        Nested dict of ndarrays and JSON scalars (the ``state_dict()`` of
        some component).
    meta
        Optional JSON-able metadata stored alongside (model shape, run
        configuration, ...) and returned verbatim by :func:`load_state`.
    """
    path = os.fspath(path)
    arrays: list[np.ndarray] = []
    tree = _encode(state, arrays)
    header = json.dumps(
        {
            "state": tree,
            "meta": meta,
            "arrays": [
                {
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "nbytes": int(arr.nbytes),
                }
                for arr in arrays
            ],
        }
    ).encode("utf-8")

    crc = 0
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp.", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in (
                _FIXED_HEADER.pack(MAGIC, FORMAT_VERSION, len(header)),
                header,
                *(arr.tobytes() for arr in arrays),
            ):
                crc = zlib.crc32(chunk, crc)
                fh.write(chunk)
            fh.write(_CRC.pack(crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def is_legacy_checkpoint(path) -> bool:
    """Whether ``path`` is a seed-era ``np.savez`` checkpoint (zip file)."""
    with open(path, "rb") as fh:
        return fh.read(4) == _LEGACY_ZIP_MAGIC


def load_state(path) -> tuple[dict, dict | None]:
    """Read a checkpoint written by :func:`save_state`.

    Returns
    -------
    (state, meta)
        The reconstructed state dict and the metadata stored with it.

    Raises
    ------
    CheckpointCorruptError
        On truncation, CRC mismatch, or inconsistent array sizes.
    CheckpointVersionError
        When the file's format version is newer than this reader.
    CheckpointError
        When the file is not a native checkpoint at all (including the
        legacy ``np.savez`` format, which callers migrate separately).
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _FIXED_HEADER.size + _CRC.size:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is truncated "
            f"({len(blob)} bytes is smaller than the fixed header)"
        )
    magic, version, header_len = _FIXED_HEADER.unpack_from(blob)
    if magic != MAGIC:
        if blob[:4] == _LEGACY_ZIP_MAGIC:
            raise CheckpointError(
                f"checkpoint {path!r} is a legacy np.savez file; load it "
                "through OffloadTrainer.load_checkpoint, which migrates it"
            )
        raise CheckpointError(
            f"checkpoint {path!r} is not a TECO checkpoint "
            f"(bad magic {magic!r})"
        )
    if version > FORMAT_VERSION or version < 1:
        raise CheckpointVersionError(
            f"checkpoint {path!r} has format version {version}; this "
            f"reader supports versions 1..{FORMAT_VERSION}"
        )
    (stored_crc,) = _CRC.unpack_from(blob, len(blob) - _CRC.size)
    actual_crc = zlib.crc32(blob[: -_CRC.size])
    if stored_crc != actual_crc:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} failed its CRC-32 integrity check "
            f"(stored {stored_crc:#010x}, computed {actual_crc:#010x}); "
            "the file is corrupt"
        )
    try:
        header = json.loads(
            blob[_FIXED_HEADER.size : _FIXED_HEADER.size + header_len]
        )
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} has an unparseable header: {exc}"
        ) from exc

    offset = _FIXED_HEADER.size + header_len
    arrays: list[np.ndarray] = []
    for desc in header["arrays"]:
        nbytes = int(desc["nbytes"])
        raw = blob[offset : offset + nbytes]
        if len(raw) != nbytes:
            raise CheckpointCorruptError(
                f"checkpoint {path!r} array data is truncated"
            )
        arrays.append(
            np.frombuffer(raw, dtype=np.dtype(desc["dtype"]))
            .reshape(desc["shape"])
            .copy()
        )
        offset += nbytes
    if offset != len(blob) - _CRC.size:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} has {len(blob) - _CRC.size - offset} "
            "unaccounted bytes between arrays and CRC"
        )
    return _decode(header["state"], arrays), header["meta"]
