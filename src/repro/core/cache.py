"""Content-hash cache for pooled column signatures.

A data lake repeats columns: the same dimension table is joined into many
fact tables, the same reference column ("country_code", "year") appears in
thousands of files. Gem's transform path is corpus-level — the GMM is fixed
after ``fit`` — so a column's pooled mean-probability row depends only on
its cell values. :class:`SignatureCache` exploits that: columns are keyed by
a BLAKE2b hash of their raw bytes and scored once, no matter how often they
recur within a corpus or across ``transform`` calls.

The cache lives on a fitted :class:`~repro.core.gem.GemEmbedder` and is
cleared whenever the embedder refits (a new mixture invalidates every row).
It is bounded LRU so long-running services cannot grow it without limit.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

_FLOAT64 = np.dtype(np.float64)


def array_fingerprint(values: np.ndarray) -> str:
    """Content hash of an array: dtype, shape and raw bytes.

    Two arrays share a fingerprint iff they are bit-identical, so hash
    collisions aside (BLAKE2b/128 — negligible), cached rows are exact.
    """
    arr = np.ascontiguousarray(values)
    digest = hashlib.blake2b(digest_size=16)
    # str(dtype) runs numpy's Python-level name formatting, most of a
    # small column's hashing time; every column is float64, so skip it.
    dtype = arr.dtype
    digest.update(b"float64" if dtype is _FLOAT64 else str(dtype).encode("ascii"))
    digest.update(str(arr.shape).encode("ascii"))
    digest.update(arr.tobytes())
    return digest.hexdigest()


class SignatureCache:
    """Bounded LRU map from column content-hash to pooled signature row.

    Thread-safe: the serving layer (:mod:`repro.serve`) runs concurrent
    transform batches against one embedder, so get/put/clear serialise on
    an internal lock (the LRU reordering and eviction are multi-step
    ``OrderedDict`` updates that individual-operation atomicity would not
    protect).

    Parameters
    ----------
    max_entries:
        Maximum number of cached rows; the least recently used entry is
        evicted beyond that.
    """

    def __init__(self, max_entries: int = 65_536) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._rows: OrderedDict[str, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def get(self, key: str) -> np.ndarray | None:
        """The cached row for ``key``, or ``None``; counts hit/miss.

        The returned array is a read-only *view* of the stored row, never
        the stored array itself: handing out the owning array would let a
        caller flip its ``writeable`` flag back on and mutate it, silently
        poisoning every future hit for that column. A view of a read-only
        base cannot be made writeable, so the cached row is safe however
        the caller treats the result (copy it to modify it).
        """
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                self.misses += 1
                return None
            self._rows.move_to_end(key)
            self.hits += 1
            return row.view()

    def put(self, key: str, row: np.ndarray) -> None:
        """Store a copy of ``row`` under ``key``, evicting LRU if full."""
        stored = np.array(row, dtype=float, copy=True)
        stored.flags.writeable = False
        with self._lock:
            self._rows[key] = stored
            self._rows.move_to_end(key)
            while len(self._rows) > self.max_entries:
                self._rows.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._rows.clear()
            self.hits = 0
            self.misses = 0

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (for monitoring and tests)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._rows)}


__all__ = ["SignatureCache", "array_fingerprint"]
