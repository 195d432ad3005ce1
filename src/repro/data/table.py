"""In-memory representation of numeric columns, tables and corpora.

The whole evaluation pipeline operates on a :class:`ColumnCorpus` — an
ordered collection of :class:`NumericColumn` objects carrying values, a
header and ground-truth labels at two granularities (coarse and fine,
paper §4.1.1). :class:`Table` groups columns the way they appeared in the
source table, which matters only for I/O and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.utils.rng import RandomState, check_random_state
from repro.utils.validation import check_array_1d


@dataclass(frozen=True)
class NumericColumn:
    """A single numeric table column with its ground-truth annotations.

    Attributes
    ----------
    name:
        Header string as it would appear in the source table. May be coarse
        ("score") even when the fine label is specific ("score_cricket") —
        that mismatch is exactly the WDC ambiguity the paper studies.
    values:
        1-D float array of cell values.
    fine_label:
        Fine-grained ground-truth semantic type (paper §4.1.1), or ``None``
        for unlabeled data.
    coarse_label:
        Coarse-grained ground-truth semantic type, or ``None``.
    table_id:
        Identifier of the source table, if any.
    """

    name: str
    values: np.ndarray
    fine_label: str | None = None
    coarse_label: str | None = None
    table_id: str | None = None

    def __post_init__(self) -> None:
        arr = check_array_1d(self.values, f"values of column {self.name!r}").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def label(self, granularity: str = "fine") -> str | None:
        """Return the ground-truth label at ``granularity`` ('fine'|'coarse')."""
        if granularity == "fine":
            return self.fine_label
        if granularity == "coarse":
            return self.coarse_label
        raise ValueError(f"granularity must be 'fine' or 'coarse', got {granularity!r}")

    def with_values(self, values: np.ndarray) -> "NumericColumn":
        """Copy of this column with different cell values."""
        return replace(self, values=values)


@dataclass(frozen=True)
class Table:
    """A named group of numeric columns, as they co-occurred in one table."""

    name: str
    columns: tuple[NumericColumn, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def headers(self) -> list[str]:
        """Column headers in table order."""
        return [c.name for c in self.columns]


class ColumnCorpus:
    """An ordered collection of numeric columns — the unit every embedder
    consumes and every experiment iterates over.

    Parameters
    ----------
    columns:
        The columns, in a stable order (embedding row *i* corresponds to
        column *i* throughout the library).
    name:
        Corpus name used in reports ("GDS", "WDC", ...).
    """

    def __init__(self, columns: Iterable[NumericColumn], name: str = "corpus") -> None:
        self._columns: tuple[NumericColumn, ...] = tuple(columns)
        if not self._columns:
            raise ValueError("a ColumnCorpus requires at least one column")
        self.name = str(name)

    # ------------------------------------------------------------ container

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[NumericColumn]:
        return iter(self._columns)

    def __getitem__(self, index: int) -> NumericColumn:
        return self._columns[index]

    def __repr__(self) -> str:
        return (
            f"ColumnCorpus(name={self.name!r}, n_columns={len(self)}, "
            f"n_fine={len(self.fine_label_set())}, n_coarse={len(self.coarse_label_set())})"
        )

    @property
    def columns(self) -> tuple[NumericColumn, ...]:
        """The underlying column tuple."""
        return self._columns

    # ------------------------------------------------------------ accessors

    @property
    def headers(self) -> list[str]:
        """Header strings, corpus order."""
        return [c.name for c in self._columns]

    def labels(self, granularity: str = "fine") -> list[str]:
        """Ground-truth labels at ``granularity``; missing labels become ''."""
        return [c.label(granularity) or "" for c in self._columns]

    def fine_label_set(self) -> set[str]:
        """Distinct fine labels present (ignoring unlabeled columns)."""
        return {c.fine_label for c in self._columns if c.fine_label is not None}

    def coarse_label_set(self) -> set[str]:
        """Distinct coarse labels present (ignoring unlabeled columns)."""
        return {c.coarse_label for c in self._columns if c.coarse_label is not None}

    def value_lists(self) -> list[np.ndarray]:
        """Per-column value arrays, corpus order."""
        return [c.values for c in self._columns]

    def stacked_values(self) -> np.ndarray:
        """All cell values of all columns as one 1-D stack.

        This is the array the paper fits its single shared GMM on (§3.2:
        "treats all numerical values from the columns as a single stack").
        """
        return np.concatenate([c.values for c in self._columns])

    # ----------------------------------------------------------- operations

    def filter(self, predicate: Callable[[NumericColumn], bool]) -> "ColumnCorpus":
        """New corpus with only the columns satisfying ``predicate``."""
        kept = [c for c in self._columns if predicate(c)]
        if not kept:
            raise ValueError("filter removed every column")
        return ColumnCorpus(kept, name=self.name)

    def subsample(self, n_columns: int, random_state: RandomState = None) -> "ColumnCorpus":
        """Uniformly subsample ``n_columns`` columns (used by Figure 5)."""
        if n_columns <= 0:
            raise ValueError(f"n_columns must be positive, got {n_columns}")
        if n_columns >= len(self):
            return self
        rng = check_random_state(random_state)
        idx = np.sort(rng.choice(len(self), size=n_columns, replace=False))  # gemlint: disable=GEM-D01(sorts distinct sampled indices: replace=False rules out ties, so stability cannot change the result)
        return ColumnCorpus([self._columns[i] for i in idx], name=self.name)

    def take(self, indices: Sequence[int]) -> "ColumnCorpus":
        """New corpus with the columns at ``indices``, in that order."""
        return ColumnCorpus([self._columns[i] for i in indices], name=self.name)

    def relabeled(self, granularity: str) -> "ColumnCorpus":
        """Corpus whose *fine* labels are replaced by the chosen granularity.

        Lets experiments that only look at fine labels run against the
        coarse ground truth (Table 2 uses coarse, Table 3 fine).
        """
        if granularity == "fine":
            return self
        if granularity != "coarse":
            raise ValueError(f"granularity must be 'fine' or 'coarse', got {granularity!r}")
        cols = [replace(c, fine_label=c.coarse_label) for c in self._columns]
        return ColumnCorpus(cols, name=self.name)

    def to_tables(self) -> list[Table]:
        """Group columns back into tables by ``table_id`` (order-stable)."""
        groups: dict[str, list[NumericColumn]] = {}
        for col in self._columns:
            groups.setdefault(col.table_id or "table_0", []).append(col)
        return [Table(name=tid, columns=tuple(cols)) for tid, cols in groups.items()]

    @classmethod
    def from_tables(cls, tables: Iterable[Table], name: str = "corpus") -> "ColumnCorpus":
        """Flatten tables into one corpus, preserving table ids."""
        columns: list[NumericColumn] = []
        for table in tables:
            for col in table.columns:
                columns.append(replace(col, table_id=col.table_id or table.name))
        return cls(columns, name=name)

    # ------------------------------------------------------------ reporting

    def statistics(self) -> dict[str, object]:
        """Summary statistics in the shape of paper Table 1."""
        sizes = np.array([len(c) for c in self._columns])
        return {
            "name": self.name,
            "n_columns": len(self),
            "n_fine_clusters": len(self.fine_label_set()),
            "n_coarse_clusters": len(self.coarse_label_set()),
            "n_values_total": int(sizes.sum()),
            "values_per_column_mean": float(sizes.mean()),
            "values_per_column_min": int(sizes.min()),
            "values_per_column_max": int(sizes.max()),
        }


__all__ = ["NumericColumn", "Table", "ColumnCorpus"]
