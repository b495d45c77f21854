"""Content-addressed experiment result cache.

Results are keyed on ``(spec name, param hash, seed, code version)`` —
the full provenance of the rows.  Re-running ``make repro-all`` or a
killed sweep therefore only recomputes *dirty* cells: a cell whose
params, seed, or defining code changed.  Everything else is served
byte-identically from disk (rows are stored as canonical JSON, so a
cached result compares equal to a fresh one).

The cache lives under ``results/cache`` by default, overridable via the
``REPRO_CACHE_DIR`` environment variable or the constructor.  Writes are
atomic (temp file + ``os.replace``) so concurrent sweep workers can
share one cache directory safely.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.registry import (
    ExperimentResult,
    content_hash,
    json_safe,
)

__all__ = ["ResultCache", "CacheStats", "default_cache_dir"]

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every cached result at once (format changes).
CACHE_FORMAT = 1


def default_cache_dir() -> str:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``results/cache``."""
    return os.environ.get(CACHE_DIR_ENV) or os.path.join("results", "cache")


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> dict:
        """The counters as a plain dict (for logs and sweep summaries)."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


@dataclass
class ResultCache:
    """Disk-backed, content-addressed store of :class:`ExperimentResult`.

    Parameters
    ----------
    root
        Cache directory (default :func:`default_cache_dir`).
    enabled
        When ``False`` every lookup misses and nothing is stored —
        the ``--no-cache`` behaviour without branching at call sites.
    """

    root: str | Path = field(default_factory=default_cache_dir)
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def key(self, name: str, params: dict, seed: int, code_version: str) -> str:
        """The content address of one cell."""
        return content_hash(
            {
                "format": CACHE_FORMAT,
                "name": name,
                "params": json_safe(params),
                "seed": seed,
                "code_version": code_version,
            }
        )

    def path(self, name: str, key: str) -> Path:
        """Where the cell's JSON lives (sharded per experiment name)."""
        return Path(self.root) / name / f"{key}.json"

    def get(
        self, name: str, params: dict, seed: int, code_version: str
    ) -> ExperimentResult | None:
        """Look up a cell; ``None`` on miss (or when disabled)."""
        if not self.enabled:
            self.stats.misses += 1
            return None
        path = self.path(name, self.key(name, params, seed, code_version))
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        result = ExperimentResult.from_dict(data)
        result.meta["cached"] = True
        return result

    def put(self, result: ExperimentResult) -> Path | None:
        """Store a result atomically; returns the file path."""
        if not self.enabled:
            return None
        key = self.key(
            result.name,
            result.params,
            result.seed,
            result.meta.get("code_version", ""),
        )
        path = self.path(result.name, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(result.to_dict(), indent=1)
        fd, tmp = tempfile.mkstemp(
            prefix=path.name + ".tmp.", dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stats.stores += 1
        return path

    def clear(self) -> int:
        """Delete every cached cell under the root; returns count.

        Also removes orphaned ``*.tmp.*`` files — the temp halves of
        atomic writes whose worker was killed between ``mkstemp`` and
        ``os.replace`` — which no ``*.json`` glob would ever match.
        """
        root = Path(self.root)
        if not root.exists():
            return 0
        n = 0
        for pattern in ("*/*.json", "*/*.tmp.*"):
            for path in root.glob(pattern):
                try:
                    path.unlink()
                    n += 1
                except FileNotFoundError:
                    continue  # a racing writer replaced (or removed) it
        return n
