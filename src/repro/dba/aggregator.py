"""The Aggregator: sender-side dirty-byte packing (Section V-B, Figure 7a).

For each 64-byte cache line of FP32 parameters, the Aggregator takes the
least significant ``dirty_bytes`` bytes of each 4-byte word and concatenates
them into a compact payload (32 bytes for the default ``dirty_bytes=2``),
which the CXL link layer then packs into packets.  When the DBA register is
disabled the logic is bypassed and full lines are sent.

Implementation notes: lines are processed as ``uint32`` word matrices; the
low byte lanes leave as one narrowing cast to a little-endian integer type
(one strided byte gather for 3 dirty bytes), which is endianness-neutral and
vectorizes over arbitrarily many lines at once.  A
per-word scalar reference (:meth:`Aggregator.pack_lines_scalar`) defines
the semantics and anchors the differential tests.
"""

from __future__ import annotations

import numpy as np

from repro.dba.registers import DBARegister
from repro.interconnect.packets import CACHE_LINE_BYTES
from repro.utils.bits import float32_to_words
from repro.utils.units import NS

__all__ = ["Aggregator", "WORDS_PER_LINE"]

#: FP32 words per 64-byte cache line.
WORDS_PER_LINE = CACHE_LINE_BYTES // 4

#: ASIC-scaled Aggregator latency per 64-byte line (Section VIII-D).
AGGREGATOR_LATENCY = 1.28 * NS


class Aggregator:
    """CPU-side CXL-module logic packing dirty bytes into payloads."""

    def __init__(self, register: DBARegister | None = None):
        self.register = register or DBARegister()
        self.lines_processed = 0
        self.payload_bytes_produced = 0

    @property
    def latency(self) -> float:
        """Per-line processing latency (0 when bypassed)."""
        return AGGREGATOR_LATENCY if self.register.enabled else 0.0

    def configure(self, register: DBARegister) -> None:
        """Program the DBA register via the CXL configuration interface."""
        self.register = register

    def _validated(self, lines: np.ndarray) -> np.ndarray:
        lines = np.ascontiguousarray(lines, dtype=np.float32)
        if lines.ndim != 2 or lines.shape[1] != WORDS_PER_LINE:
            raise ValueError(
                f"expected (n, {WORDS_PER_LINE}) float32, got {lines.shape}"
            )
        return lines

    def pack_lines(self, lines: np.ndarray) -> np.ndarray:
        """Aggregate cache lines into wire payloads (vectorized fast path).

        Casts the words to little-endian ``<u1``/``<u2``/``<u4`` (a
        narrowing cast keeps the low bytes) and reinterprets the result
        as the payload bytes; ``dirty_bytes=3`` has no such type, so it
        gathers the low three lanes of the ``(n_lines, 16, 4)`` byte grid
        with one strided copy.  No per-byte shift/mask passes.
        Bit-identical to :meth:`pack_lines_scalar`, the per-word
        reference (the equivalence is differentially fuzz-tested).

        Parameters
        ----------
        lines
            FP32 array of shape ``(n_lines, 16)`` — 64 bytes per row.

        Returns
        -------
        numpy.ndarray
            ``uint8`` payload of shape ``(n_lines, 16 * dirty_bytes)``;
            with DBA disabled, the full ``(n_lines, 64)`` line bytes.
        """
        lines = self._validated(lines)
        n = self.register.effective_dirty_bytes
        rows = lines.shape[0]
        # "<u4" pins byte j of the view to (word >> 8j) & 0xFF regardless
        # of host endianness (a no-op view on little-endian hosts).
        words = float32_to_words(lines).astype("<u4", copy=False)
        if n == 3:
            lanes = words.view(np.uint8).reshape(rows, WORDS_PER_LINE, 4)
            out = np.ascontiguousarray(lanes[:, :, :n]).reshape(
                rows, WORDS_PER_LINE * n
            )
        else:
            # A narrowing cast keeps each word's low n bytes, and "<u{n}"
            # stores them low byte first: the payload in one copy.
            out = words.astype(f"<u{n}").view(np.uint8)
        self.lines_processed += rows
        self.payload_bytes_produced += out.size
        return out

    def pack_lines_scalar(self, lines: np.ndarray) -> np.ndarray:
        """Reference packer: one Python iteration per FP32 word.

        This is the semantic definition of the Aggregator (Section V-B's
        per-word byte extraction, written out literally); the vectorized
        :meth:`pack_lines` must reproduce it byte-for-byte.  Counters
        advance exactly as in the fast path.
        """
        lines = self._validated(lines)
        n = self.register.effective_dirty_bytes
        words = float32_to_words(lines)
        out = np.empty((lines.shape[0], WORDS_PER_LINE * n), dtype=np.uint8)
        for i in range(lines.shape[0]):
            for j in range(WORDS_PER_LINE):
                w = int(words[i, j])
                for b in range(n):
                    out[i, j * n + b] = (w >> (8 * b)) & 0xFF
        self.lines_processed += lines.shape[0]
        self.payload_bytes_produced += out.size
        return out

    def _pack_padded(self, tensor: np.ndarray, packer) -> np.ndarray:
        flat = np.ascontiguousarray(tensor, dtype=np.float32).reshape(-1)
        rem = (-flat.size) % WORDS_PER_LINE
        if rem:
            flat = np.concatenate([flat, np.zeros(rem, dtype=np.float32)])
        payload = packer(flat.reshape(-1, WORDS_PER_LINE))
        if rem:
            self.payload_bytes_produced -= (
                rem * self.register.effective_dirty_bytes
            )
        return payload

    def pack_tensor(self, tensor: np.ndarray) -> np.ndarray:
        """Aggregate a flat FP32 tensor (padded to whole lines).

        The returned payload covers the padded line grid (the
        Disaggregator needs the full-line shape to merge), but
        :attr:`payload_bytes_produced` counts only the tensor's own words
        — the zero-padding of a partial final line never crosses the
        wire, so it must not inflate communication-volume accounting.
        This is the batch fast path; :meth:`pack_tensor_scalar` is the
        per-word reference with identical payload and accounting.
        """
        return self._pack_padded(tensor, self.pack_lines)

    def pack_tensor_scalar(self, tensor: np.ndarray) -> np.ndarray:
        """Reference per-word variant of :meth:`pack_tensor`."""
        return self._pack_padded(tensor, self.pack_lines_scalar)

    def tensor_payload_bytes(self, n_words: int) -> int:
        """True wire bytes for an ``n_words`` tensor (padding excluded)."""
        if n_words < 0:
            raise ValueError("n_words must be non-negative")
        return n_words * self.register.effective_dirty_bytes

    def payload_bytes_per_line(self) -> int:
        """Wire payload per 64-byte line under the current register."""
        return WORDS_PER_LINE * self.register.effective_dirty_bytes
