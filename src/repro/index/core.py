"""The :class:`GemIndex`: a lake-scale cosine-similarity index over Gem rows.

The paper's headline workload is retrieval — rank every other column in the
lake by cosine similarity of its Gem signature and inspect the top k
(§4.1.2). The dense path needs the full ``(n, n)`` similarity matrix;
``GemIndex`` answers the same queries without ever forming it:

* the **exact** backend streams blocked matmuls over the stored rows
  (:mod:`repro.index.exact`) — bit-identical to the dense path for any
  ``block_size``, peak search memory ``O(query_block × block_size)``;
* the **ivf** backend partitions rows with a k-means coarse quantizer
  (:mod:`repro.index.ivf`) and probes only the ``n_probe`` closest lists —
  sub-linear scanned work for a measured recall@k trade-off;
* the **pq** backend adds product quantization on top of the IVF coarse
  quantizer (:mod:`repro.index.pq`): rows compress to a few uint8 codes and
  search runs asymmetric distance computation over per-query lookup tables,
  never decoding the corpus — the RAM-bound regime where even float32 rows
  do not fit.

Storage is ``float64`` by default; ``dtype="float32"`` halves bytes-per-row
for a measured (benchmark-gated) recall delta. The exact float64
configuration remains the bit-identity oracle against the dense path.

Rows are stored under **stable string column ids**: positions shift when
removed rows are compacted away, ids never do. ``remove`` tombstones rows
(an O(batch) mask update) and compacts storage only once the dead fraction
passes ``compact_threshold``, so eviction storms stay linear instead of
quadratic. An index built from a fitted embedder
(:meth:`repro.core.gem.GemEmbedder.build_index`) carries the owning model's
fingerprint, and every model-mediated operation re-checks it, so a stale
index refuses to serve a refit model (:class:`StaleIndexError`) instead of
silently mixing embedding spaces.

:meth:`GemIndex.search_corpus` ranks a corpus through that attached model
and recognises the indexed corpus itself by its rows: when the fresh rows,
cast to the storage dtype, equal the live stored rows in storage order,
each column's own stored row is left out of its results (§4.1.2) — the
same row check ``precision_recall_at_k(index=)`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.evaluation.neighbors import unit_rows
from repro.index.exact import blocked_topk
from repro.index.ivf import IVFPartition, ivf_topk
from repro.index.pq import ProductQuantizer, pq_topk
from repro.utils.rng import RandomState
from repro.utils.validation import check_array_2d, check_positive_int

_BACKENDS = ("exact", "ivf", "pq")
_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


class StaleIndexError(RuntimeError):
    """The index was built against a different fitted Gem model.

    Signature rows are only comparable within one embedding space; serving
    queries embedded by a refit (or different) model against stored rows
    from the old one would return confidently wrong neighbours. Rebuild the
    index from the current model instead.
    """


def corpus_column_ids(corpus: Iterable) -> list[str]:
    """Default stable ids for a corpus's columns: ``"<position>:<header>"``.

    Deterministic for a given corpus, so rebuilding an index from the
    same corpus reproduces the ids.
    """
    return [f"{i}:{getattr(col, 'name', '')}" for i, col in enumerate(corpus)]


@dataclass(frozen=True)
class SearchResult:
    """Top-k neighbours for a batch of queries, best first per row.

    Attributes
    ----------
    ids:
        ``(n_queries, k)`` object array of stored column ids; ``None``
        where a slot could not be filled (IVF probing fewer than k rows).
    positions:
        Stored positions at search time (``-1`` for unfilled slots).
        Positions are transient — they shift when removed rows are
        compacted away — use ``ids`` for anything persistent.
    scores:
        Cosine similarities (``-inf`` for unfilled slots). On the ``pq``
        backend without re-ranking these are quantization approximations
        of the cosine and may slightly exceed 1.
    """

    ids: np.ndarray
    positions: np.ndarray
    scores: np.ndarray

    @property
    def k(self) -> int:
        return int(self.positions.shape[1])


class GemIndex:
    """Incremental cosine-similarity index over Gem embedding rows.

    Parameters
    ----------
    dim:
        Dimensionality of the stored rows.
    backend:
        ``"exact"`` (blocked full scan, bit-identical to the dense path),
        ``"ivf"`` (partitioned approximate search) or ``"pq"``
        (IVF + product quantization: rows stored as uint8 codes).
    block_size:
        Stored rows scored per matmul on the exact path. A memory knob
        only: any value returns bit-identical results.
    n_lists:
        Inverted lists for the IVF coarse quantizer (``None`` →
        ``round(sqrt(n))`` at training time). Shared by ``ivf`` and ``pq``.
    n_probe:
        Lists probed per query on the IVF/PQ path — the recall/speed knob.
    dtype:
        Storage dtype for the row/unit buffers: ``"float64"`` (default,
        the bit-identity oracle) or ``"float32"`` (half the bytes per row
        for a benchmark-gated recall delta). Queries and all kernel
        arithmetic stay float64.
    pq_subvectors:
        PQ backend: sub-vector slices per row — each row compresses to
        this many uint8 codes. More slices, more bytes, higher recall.
    pq_codes:
        PQ backend: sub-codebook size (at most 256 so one code fits a
        uint8; capped at the training row count).
    pq_rerank:
        PQ backend: re-score this many top ADC candidates per query
        exactly from the stored rows before the final top-k cut (0
        disables). Enabling it keeps the raw rows resident — without it
        they are released after training and only codes remain.
    compact_threshold:
        Dead-slot fraction above which :meth:`remove` compacts storage.
        Until then removed rows are tombstoned — masked from every search
        but still resident — keeping eviction storms O(batch) per call.
        ``1.0`` disables automatic compaction (call :meth:`compact`).
    random_state:
        Seeds the k-means quantizers (coarse and PQ sub-codebooks).
    model_fingerprint:
        Fingerprint of the owning fitted Gem model (see
        :func:`repro.core.persistence.gem_fingerprint`); stamped by
        ``GemEmbedder.build_index`` and enforced on every model-mediated
        call.
    """

    def __init__(
        self,
        dim: int,
        *,
        backend: str = "exact",
        block_size: int = 4096,
        n_lists: int | None = None,
        n_probe: int = 8,
        dtype: str | np.dtype = "float64",
        pq_subvectors: int = 8,
        pq_codes: int = 256,
        pq_rerank: int = 0,
        compact_threshold: float = 0.25,
        random_state: RandomState = 0,
        model_fingerprint: str | None = None,
    ) -> None:
        self.dim = check_positive_int(dim, "dim")
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.backend = backend
        self.block_size = check_positive_int(block_size, "block_size")
        if n_lists is not None:
            n_lists = check_positive_int(n_lists, "n_lists")
        self.n_probe = check_positive_int(n_probe, "n_probe")
        dtype = np.dtype(dtype)
        if dtype not in _DTYPES:
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {dtype.name!r}"
            )
        self.dtype = dtype
        self.pq_subvectors = check_positive_int(pq_subvectors, "pq_subvectors")
        self.pq_codes = check_positive_int(pq_codes, "pq_codes")
        if not isinstance(pq_rerank, (int, np.integer)) or pq_rerank < 0:
            raise ValueError(f"pq_rerank must be a non-negative int, got {pq_rerank!r}")
        self.pq_rerank = int(pq_rerank)
        if not 0.0 < compact_threshold <= 1.0:
            raise ValueError(
                f"compact_threshold must be in (0, 1], got {compact_threshold!r}"
            )
        self.compact_threshold = float(compact_threshold)
        # Row storage is an amortized-growth buffer: the live slots are the
        # first _n_rows of each buffer (exposed as the _rows/_unit/_codes
        # views), and add() doubles capacity instead of reallocating per
        # call, so incremental ingestion stays O(n) instead of quadratic.
        # Which buffers are *active* depends on the backend's life stage
        # (see _buffer_specs): a trained pq index stores uint8 codes, keeps
        # raw rows only for re-ranking and never stores unit rows.
        self._rows_buf = np.empty((0, self.dim), dtype=self.dtype)
        self._unit_buf = np.empty((0, self.dim), dtype=self.dtype)
        self._codes_buf: np.ndarray | None = None
        self._capacity = 0
        self._n_rows = 0
        # Copy-on-write tail claim. Forks made by snapshot() share the row
        # buffers; rows below each holder's _n_rows are immutable, and the
        # spare tail beyond the fork point may be extended in place by
        # exactly ONE holder — whichever add()s first claims the shared
        # cell. The other holder copies before writing. A single writer
        # publishing snapshots therefore appends in place (O(batch)
        # amortized, no per-publish buffer copy) while every published
        # snapshot stays frozen.
        self._tail_owner: list = [self]
        # Slot bookkeeping: _slot_ids maps storage slot -> column id (None
        # for a tombstoned slot), _pos maps live id -> slot, _dead is the
        # tombstone mask (None when no slot is dead; rebound, never written
        # in place, so snapshots sharing it stay frozen).
        self._slot_ids: list[str | None] = []
        self._pos: dict[str, int] = {}
        self._dead: np.ndarray | None = None
        self._id_lookup: np.ndarray | None = None
        self._partition = (
            IVFPartition(n_lists, random_state) if backend in ("ivf", "pq") else None
        )
        self._pq = (
            ProductQuantizer(self.dim, self.pq_subvectors, self.pq_codes, random_state)
            if backend == "pq"
            else None
        )
        self.model_fingerprint = model_fingerprint
        self._embedder = None

    # -------------------------------------------------------------- basics

    @property
    def _rows(self) -> np.ndarray:
        """View of the live raw rows (first ``_n_rows`` slots)."""
        return self._rows_buf[: self._n_rows]

    @property
    def _unit(self) -> np.ndarray:
        """View of the live unit-normalised rows."""
        return self._unit_buf[: self._n_rows]

    @property
    def _codes(self) -> np.ndarray:
        """View of the live PQ codes."""
        assert self._codes_buf is not None
        return self._codes_buf[: self._n_rows]

    @property
    def _stores_rows(self) -> bool:
        """Raw rows are resident (everything but trained no-rerank pq)."""
        if self.backend != "pq" or self._pq is None or not self._pq.trained:
            return True
        return self.pq_rerank > 0

    @property
    def _stores_unit(self) -> bool:
        """Unit rows are resident (released once a pq index trains)."""
        return not (self.backend == "pq" and self._pq is not None and self._pq.trained)

    @property
    def _stores_codes(self) -> bool:
        """PQ codes are resident (only on a trained pq index)."""
        return self.backend == "pq" and self._pq is not None and self._pq.trained

    def _buffer_specs(self) -> list[tuple[str, int, np.dtype]]:
        """The active storage buffers: ``(attr, row_width, dtype)``.

        Growth, copy-on-write reallocation and compaction all iterate this
        list, so every active buffer keeps the shared ``_capacity`` and the
        single tail claim stays sufficient for all of them.
        """
        specs: list[tuple[str, int, np.dtype]] = []
        if self._stores_rows:
            specs.append(("_rows_buf", self.dim, self.dtype))
        if self._stores_unit:
            specs.append(("_unit_buf", self.dim, self.dtype))
        if self._stores_codes:
            specs.append(("_codes_buf", self.pq_subvectors, np.dtype(np.uint8)))
        return specs

    def __len__(self) -> int:
        return len(self._pos)

    def __contains__(self, column_id: str) -> bool:
        return column_id in self._pos

    @property
    def ids(self) -> tuple[str, ...]:
        """Live column ids in storage order."""
        return tuple(cid for cid in self._slot_ids if cid is not None)

    @property
    def needs_training(self) -> bool:
        """True when quantizer state must be fitted before searching.

        The exact backend never trains; ``ivf`` needs its coarse quantizer,
        ``pq`` additionally its sub-codebooks (fitted together by
        :meth:`train`).
        """
        if self._partition is None:
            return False
        if not self._partition.trained:
            return True
        return self._pq is not None and not self._pq.trained

    def vectors(self) -> np.ndarray:
        """Copy of the live raw rows (storage dtype), in storage order.

        A trained ``pq`` index without re-ranking has released its raw
        rows — only codes remain — so this raises.
        """
        if not self._stores_rows:
            raise RuntimeError(
                "a trained pq index with pq_rerank=0 stores only uint8 codes; "
                "raw rows are not recoverable (build with pq_rerank > 0 to "
                "keep them resident)"
            )
        rows = self._rows
        return rows.copy() if self._dead is None else rows[~self._dead]

    def storage_bytes(self) -> dict[str, int]:
        """Resident bytes of the index's array storage, by component.

        Counts every numpy buffer the index holds — row/unit/code buffers
        at their allocated capacity, coarse centroids and assignments, PQ
        codebooks and the tombstone mask — under a ``"total"`` key.
        Per-id Python bookkeeping (dicts/lists) is excluded: it is the
        same for every backend and dtype.
        """
        parts = {
            "rows": int(self._rows_buf.nbytes),
            "unit": int(self._unit_buf.nbytes),
            "codes": int(self._codes_buf.nbytes) if self._codes_buf is not None else 0,
            "centroids": 0,
            "assignments": 0,
            "codebooks": 0,
            "dead_mask": int(self._dead.nbytes) if self._dead is not None else 0,
        }
        if self._partition is not None and self._partition.trained:
            parts["centroids"] = int(self._partition.centroids_.nbytes)
            parts["assignments"] = int(self._partition.assignments_.nbytes)
        if self._pq is not None and self._pq.trained:
            parts["codebooks"] = int(self._pq.codebooks_.nbytes)
        parts["total"] = sum(parts.values())
        return parts

    # ----------------------------------------------------------- add/remove

    def add(self, ids: Sequence[str], vectors: np.ndarray) -> None:
        """Store ``vectors`` under ``ids`` (appended in order).

        Ids must be unique strings not already present. On a trained IVF or
        PQ index, new rows are assigned to their nearest existing centroid
        (and PQ-encoded) without retraining; call :meth:`train` after heavy
        churn to refresh the quantizers.
        """
        X = check_array_2d(vectors, "vectors", min_rows=1)
        if X.shape[1] != self.dim:
            raise ValueError(f"vectors have dim {X.shape[1]}, index has dim {self.dim}")
        ids = list(ids)
        if len(ids) != X.shape[0]:
            raise ValueError(f"{len(ids)} ids for {X.shape[0]} vectors")
        for column_id in ids:
            if not isinstance(column_id, str):
                raise TypeError(f"column ids must be strings, got {type(column_id).__name__}")
            if column_id in self._pos:
                raise ValueError(f"column id {column_id!r} is already stored")
        if len(set(ids)) != len(ids):
            raise ValueError("column ids within one add() call must be unique")
        # The stored representation is the dtype-cast row; unit rows are
        # computed FROM it (not from the float64 input), so reloading a
        # float32 archive — or re-encoding the stored rows — reproduces
        # the same units and codes bit-identically.
        Xd = X if self.dtype == np.float64 else np.ascontiguousarray(X, dtype=self.dtype)
        unit64 = unit_rows(Xd)
        base = self._n_rows
        needed = self._n_rows + X.shape[0]
        cell = self._tail_owner
        if cell[0] is None:
            cell[0] = self  # first fork holder to write claims the tail
        if needed > self._capacity or cell[0] is not self:
            # Reallocate on growth — or copy-on-write when another fork
            # holder already claimed the shared tail: every slot a snapshot
            # can see (below its _n_rows) is never written again, and two
            # holders can never extend the same spare capacity.
            capacity = max(needed, 2 * self._capacity, 64)
            for name, width, buf_dtype in self._buffer_specs():
                grown = np.empty((capacity, width), dtype=buf_dtype)
                grown[: self._n_rows] = getattr(self, name)[: self._n_rows]
                setattr(self, name, grown)
            self._capacity = capacity
            self._tail_owner = [self]
        assignments = None
        if self._partition is not None and self._partition.trained:
            assignments = self._partition.assign(unit64)
        if self._stores_rows:
            self._rows_buf[base:needed] = Xd  # gemlint: disable=GEM-C02(the tail claim above guarantees exclusive ownership of slots >= _n_rows; no published snapshot can see them)
        if self._stores_unit:
            self._unit_buf[base:needed] = unit64  # gemlint: disable=GEM-C02(same tail claim as the raw-row write above: only the claiming fork may extend the spare capacity)
        if self._stores_codes:
            residuals = unit64 - self._partition.centroids_[assignments]
            self._codes_buf[base:needed] = self._pq.encode(residuals)  # gemlint: disable=GEM-C02(same tail claim as the raw-row write above: codes beyond _n_rows are invisible to every snapshot)
        self._n_rows = needed
        self._slot_ids.extend(ids)
        self._id_lookup = None
        if self._dead is not None:
            self._dead = np.concatenate(
                [self._dead, np.zeros(X.shape[0], dtype=bool)]
            )
        for offset, column_id in enumerate(ids):
            self._pos[column_id] = base + offset
        if assignments is not None:
            self._partition.extend(unit64, assignments=assignments)

    def remove(self, ids: Sequence[str]) -> None:
        """Tombstone the rows stored under ``ids``; unknown ids raise ``KeyError``.

        Removal is O(batch): the slots are masked out of every subsequent
        search but stay resident until the dead fraction passes
        ``compact_threshold``, when :meth:`compact` reclaims them — so an
        eviction storm of m single-id removals costs O(m + n) overall, not
        O(m·n). Search results are identical either way; only the transient
        positions shift at compaction.
        """
        ids = list(ids)
        for column_id in ids:
            if column_id not in self._pos:
                raise KeyError(f"column id {column_id!r} is not stored")
        dead = (
            self._dead.copy()
            if self._dead is not None
            else np.zeros(self._n_rows, dtype=bool)
        )
        for column_id in dict.fromkeys(ids):
            slot = self._pos.pop(column_id)
            self._slot_ids[slot] = None
            dead[slot] = True
        # Rebind (never write the shared mask in place): snapshots holding
        # the previous mask keep serving the rows they had when published.
        self._dead = dead
        self._id_lookup = None
        if dead.mean() > self.compact_threshold:
            self.compact()

    def compact(self) -> "GemIndex":
        """Reclaim tombstoned slots (fresh exact-size buffers, no dead rows).

        Called automatically by :meth:`remove` past ``compact_threshold``
        and by :meth:`train`. Positions shift (ids never do); search
        results are unchanged.
        """
        if self._dead is None:
            return self
        keep = ~self._dead
        for name, _width, _buf_dtype in self._buffer_specs():
            # Fancy indexing allocates fresh buffers, so snapshots sharing
            # the old ones are untouched.
            setattr(self, name, getattr(self, name)[: self._n_rows][keep])
        self._capacity = int(keep.sum())
        self._n_rows = self._capacity
        self._tail_owner = [self]
        self._slot_ids = [cid for cid, alive in zip(self._slot_ids, keep) if alive]
        self._pos = {cid: i for i, cid in enumerate(self._slot_ids)}
        self._dead = None
        self._id_lookup = None
        if self._partition is not None and self._partition.trained:
            self._partition.compact(keep)
        return self

    # ------------------------------------------------------------- snapshots

    def snapshot(self) -> "GemIndex":
        """An immutable-by-convention copy-on-write fork of this index.

        The fork shares the row/unit/code buffers and the tombstone mask
        (O(1)), the id bookkeeping is copied (O(n) dict/list copies, no
        array copies) and trained quantizer state is forked shallowly.
        After the call, mutating *either* object never changes what the
        other serves: ``remove`` rebinds a fresh mask, ``compact``
        reallocates, slots below a fork's ``_n_rows`` are never written
        again, and the spare tail capacity may be extended in place by
        whichever fork ``add``s first (the ``_tail_owner`` claim) — the
        other fork copies before writing. A single writer that keeps
        appending and publishing snapshots therefore pays O(batch)
        amortized per write batch, not a buffer copy per publish. (Mutating
        both forks concurrently from different threads requires external
        synchronisation, as all GemIndex mutation does; concurrent *reads*
        of any snapshot are safe.)

        This is the reader side of the serving layer's snapshot isolation
        (:mod:`repro.serve`): a writer applies a batch of adds/removes to
        its working index, then publishes ``working.snapshot()`` by a
        single reference assignment. Readers holding an older snapshot keep
        serving exactly the rows it had when published. Concurrent
        ``search`` calls on one snapshot are thread-safe: the only lazy
        state they touch (``_id_lookup``, the IVF member lists, an
        untrained quantizer) is rebuilt deterministically, so racing
        threads can only write identical values.
        """
        clone = GemIndex.__new__(GemIndex)
        clone.dim = self.dim
        clone.backend = self.backend
        clone.block_size = self.block_size
        clone.n_probe = self.n_probe
        clone.dtype = self.dtype
        clone.pq_subvectors = self.pq_subvectors
        clone.pq_codes = self.pq_codes
        clone.pq_rerank = self.pq_rerank
        clone.compact_threshold = self.compact_threshold
        clone._rows_buf = self._rows_buf
        clone._unit_buf = self._unit_buf
        clone._codes_buf = self._codes_buf
        clone._capacity = self._capacity
        clone._n_rows = self._n_rows
        clone._slot_ids = list(self._slot_ids)
        clone._pos = dict(self._pos)
        clone._dead = self._dead
        clone._id_lookup = self._id_lookup
        clone._partition = (
            self._partition.fork() if self._partition is not None else None
        )
        clone._pq = self._pq.fork() if self._pq is not None else None
        clone.model_fingerprint = self.model_fingerprint
        clone._embedder = self._embedder
        # Fresh unclaimed tail cell shared by both sides: the first to
        # add() claims the spare capacity, the other copies on write.
        cell: list = [None]
        self._tail_owner = cell
        clone._tail_owner = cell
        return clone

    # --------------------------------------------------------------- search

    def train(self) -> "GemIndex":
        """(Re)fit the quantizer state on the current rows.

        A no-op for the exact backend. For ``ivf``, refits the coarse
        quantizer; for ``pq``, fits the coarse quantizer and the PQ
        sub-codebooks together, encodes every stored row and releases the
        staging buffers (unit rows always; raw rows too unless
        ``pq_rerank > 0`` keeps them for re-ranking). Called implicitly by
        the first approximate search; call it explicitly after bulk
        adds/removes to rebalance the inverted lists. Tombstoned slots are
        compacted away first.
        """
        if self._partition is None:
            return self
        if self._dead is not None:
            self.compact()
        if self.backend == "ivf":
            self._partition.train(self._unit)
            return self
        if not self._stores_rows:
            raise RuntimeError(
                "cannot retrain this pq index: pq_rerank=0 released the raw "
                "rows after the first training, so there is nothing to "
                "re-encode from — rebuild the index (or use pq_rerank > 0)"
            )
        if self._n_rows == 0:
            raise ValueError("cannot train a pq index with no stored rows")
        assert self._pq is not None
        unit64 = unit_rows(self._rows)
        self._partition.train(unit64)
        residuals = unit64 - self._partition.centroids_[self._partition.assignments_]
        self._pq.train(residuals, self.dtype)
        codes_buf = np.empty(
            (max(self._capacity, self._n_rows), self.pq_subvectors), dtype=np.uint8
        )
        codes_buf[: self._n_rows] = self._pq.encode(residuals)
        self._codes_buf = codes_buf
        self._capacity = codes_buf.shape[0]
        # Staging buffers are released once codes exist: unit rows are
        # never needed again (ADC scores come from the lookup tables), raw
        # rows only for exact re-ranking.
        self._unit_buf = np.empty((0, self.dim), dtype=self.dtype)
        if not self.pq_rerank:
            self._rows_buf = np.empty((0, self.dim), dtype=self.dtype)
        return self

    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        exclude_ids: Sequence[str] | None = None,
        n_probe: int | None = None,
        pq_rerank: int | None = None,
    ) -> SearchResult:
        """Top-k stored neighbours of each query row by cosine similarity.

        Parameters
        ----------
        queries:
            ``(n_queries, dim)`` raw embedding rows (normalised internally
            exactly as the dense path normalises them).
        k:
            Neighbours per query; capped at the number of stored rows
            (minus one under exclusion, mirroring ``top_k_neighbors``).
        exclude_ids:
            Optional per-query stored id to exclude (length ``n_queries``)
            — self-exclusion for corpus-vs-itself retrieval. Every entry
            must name a stored id (``ValueError`` naming the first that
            does not), and ``k`` is capped at ``n - 1``, mirroring
            ``top_k_neighbors``.
        n_probe / pq_rerank:
            Per-call overrides of the index's configured probe width and
            PQ re-rank depth — the serving layer's degradation lever:
            under load it trades recall for latency on *this* call
            without touching shared index state. ``None`` (the default)
            keeps the configured values; the exact backend ignores both.
        """
        Q = check_array_2d(queries, "queries", min_rows=1)
        if Q.shape[1] != self.dim:
            raise ValueError(f"queries have dim {Q.shape[1]}, index has dim {self.dim}")
        k = check_positive_int(k, "k")
        n = len(self)
        exclude_positions = None
        k_eff = min(k, n)
        if exclude_ids is not None:
            exclude_ids = list(exclude_ids)
            if len(exclude_ids) != Q.shape[0]:
                raise ValueError(f"{len(exclude_ids)} exclude_ids for {Q.shape[0]} queries")
            try:
                positions = [self._pos[cid] for cid in exclude_ids]
            except KeyError as exc:
                raise ValueError(f"exclude_ids entry {exc.args[0]!r} is not a stored id") from None
            exclude_positions = np.array(positions, dtype=np.intp)
            k_eff = min(k, n - 1)
        if k_eff < 1:
            empty = np.empty((Q.shape[0], 0))
            return SearchResult(
                ids=empty.astype(object),
                positions=empty.astype(np.intp),
                scores=empty,
            )
        unit_q = unit_rows(Q)
        probe = self.n_probe if n_probe is None else check_positive_int(n_probe, "n_probe")
        rerank = self.pq_rerank if pq_rerank is None else int(pq_rerank)
        if rerank < 0:
            raise ValueError(f"pq_rerank must be >= 0, got {rerank}")
        if rerank > 0 and not self._stores_rows:
            # A codes-only index has nothing to re-rank against; raising
            # here would turn a degradation *recovery* (rerank back up)
            # into an outage, so clamp instead.
            rerank = 0
        if self.backend == "pq":
            assert self._partition is not None and self._pq is not None
            if self.needs_training:
                self.train()
            pos, scores = pq_topk(
                unit_q,
                self._codes,
                self._partition,
                self._pq,
                k_eff,
                n_probe=probe,
                rerank=rerank,
                stored_rows=self._rows if rerank else None,
                exclude_positions=exclude_positions,
                dead=self._dead,
            )
        elif self.backend == "ivf":
            assert self._partition is not None
            if not self._partition.trained:
                self.train()
            pos, scores = ivf_topk(
                unit_q,
                self._unit,
                self._partition,
                k_eff,
                n_probe=probe,
                exclude_positions=exclude_positions,
                dead=self._dead,
            )
        else:
            pos, scores = blocked_topk(
                unit_q,
                self._unit,
                k_eff,
                block_size=self.block_size,
                exclude_positions=exclude_positions,
                dead=self._dead,
            )
        # Unfilled or masked slots (score -inf) carry no real neighbour.
        pad = np.isneginf(scores)
        pos[pad] = -1
        ids_arr = np.empty(pos.shape, dtype=object)
        if self._id_lookup is None:
            # O(n) to build; cached across searches (serving workloads issue
            # many small queries against a large frozen store). Tombstoned
            # slots map to None but are unreachable: every kernel masks
            # them to -inf.
            lookup = np.empty(self._n_rows, dtype=object)
            lookup[:] = self._slot_ids
            self._id_lookup = lookup
        valid = ~pad
        ids_arr[valid] = self._id_lookup[pos[valid]]
        return SearchResult(ids=ids_arr, positions=pos, scores=scores)

    def search_corpus(self, corpus, k: int, *, exclude_self: bool = True) -> SearchResult:
        """Embed ``corpus`` through the attached model and search it.

        Requires an attached embedder (set by ``GemEmbedder.build_index``
        or :meth:`attach`); the model fingerprint is re-checked on every
        call, so a refit model raises :class:`StaleIndexError` instead of
        serving stale neighbours.

        With ``exclude_self`` (default), a corpus that *is* the indexed one
        leaves each column's own stored row out of its results — the
        §4.1.2 protocol, the dense path's diagonal. The corpus is the
        indexed one when it has one column per live row and its fresh
        rows, cast to the storage dtype, equal the stored rows in storage
        order. Exclusion is then by stored id, so custom ids work and
        exact-duplicate columns keep each other as neighbours. Any other
        corpus — a subset, or one whose column coincides with a stored
        one — has no diagonal: nothing is excluded, and a content twin
        comes back as a perfect-score neighbour.

        Raises ``ValueError`` before transforming when the embedder's
        transform is corpus-dependent (rows from separate calls are not
        comparable), and ``RuntimeError`` when the rows must be compared
        but a trained ``pq`` index with ``pq_rerank=0`` has released them.
        """
        if self._embedder is None:
            raise RuntimeError(
                "no embedder attached: build the index with "
                "GemEmbedder.build_index() or call index.attach(embedder)"
            )
        self._check_fresh(self._embedder)
        if self._embedder.transform_is_corpus_dependent:
            raise ValueError(
                "search_corpus needs a corpus-independent transform, but this "
                "embedder's is corpus-dependent (composition='autoencoder', or "
                "fit_mode='per_column' with balanced blocks or a Generator "
                "seed): freshly embedded rows are not comparable to the "
                "stored ones. To rank the indexed corpus against itself, use "
                "index.search(index.vectors(), k, exclude_ids=list(index.ids))."
            )
        rows = self._embedder.transform(corpus)
        exclude_ids = None
        if exclude_self and rows.shape[0] == len(self):
            # Train before comparing: training a pq index with pq_rerank=0
            # releases its rows, so the answer must not depend on whether
            # an earlier search already trained it.
            if self.needs_training:
                self.train()
            if np.array_equal(rows.astype(self.dtype, copy=False), self.vectors()):
                exclude_ids = list(self.ids)
        return self.search(rows, k, exclude_ids=exclude_ids)

    # ------------------------------------------------------ model freshness

    def attach(self, embedder) -> "GemIndex":
        """Bind a fitted embedder for :meth:`search_corpus`.

        If the index carries a model fingerprint (built or loaded from
        one), the embedder must match it; otherwise the embedder's
        fingerprint is adopted.
        """
        self._check_fresh(embedder)
        if self.model_fingerprint is None:
            from repro.core.persistence import gem_fingerprint

            self.model_fingerprint = gem_fingerprint(embedder)
        self._embedder = embedder
        return self

    def _check_fresh(self, embedder) -> None:
        from repro.core.persistence import gem_fingerprint

        if self.model_fingerprint is None:
            return
        current = gem_fingerprint(embedder)
        if current != self.model_fingerprint:
            raise StaleIndexError(
                "index is stale: it was built against a different fitted Gem "
                f"model (index fingerprint {self.model_fingerprint[:12]}…, "
                f"embedder fingerprint {current[:12]}…). Rebuild the index "
                "with GemEmbedder.build_index() after refitting."
            )


__all__ = ["GemIndex", "SearchResult", "StaleIndexError", "corpus_column_ids"]
