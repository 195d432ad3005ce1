"""Workload inputs, derived from the workload seed and built before timing.

Held-out lakes, query pools, probe sets and the arrival schedule are
paper-scale synthetic GDS lakes (2,117 columns, about 170 values each)
generated from seeds derived from the workload seed. Every column handed
out in one run is content-distinct from every other and from the fit
corpus, so the signature cache never hits unless a workload repeats a
column on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bundle.corpus import load_corpus
from repro.core.cache import array_fingerprint
from repro.data import ColumnCorpus, NumericColumn, make_gds

#: The fit corpus every workload deploys: what ``python -m repro.bundle fit
#: --corpus synthetic:gds`` canonicalises to (240 columns, 41k values). It
#: is pinned instead of drawn from the workload seed because EM's
#: iteration count, and with it the fit's wall clock, varies about fourfold
#: between GDS corpora (4.8-21.2 s, 7-50 iterations over seeds 1-10 with
#: the default config), far beyond any regression bound on ``fit_s``.
FIT_SPEC = "synthetic:gds:small:7"


def derived_seed(seed: int, pool: str, i: int = 0) -> int:
    """A seed for lake ``i`` of ``pool``, independent across pools."""
    words = [seed, i] + [ord(ch) for ch in pool]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


@dataclass(frozen=True)
class Table:
    """One held-out table: the ids to store it under and its columns."""

    ids: list[str]
    columns: list[NumericColumn]


class Inputs:
    """Hands out content-distinct held-out columns for one run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fit_corpus, _ = load_corpus(FIT_SPEC)
        self._seen = {array_fingerprint(c.values) for c in self.fit_corpus}

    def _fresh(self, columns: list[NumericColumn]) -> list[NumericColumn]:
        out = []
        for col in columns:
            fp = array_fingerprint(col.values)
            if fp not in self._seen:
                self._seen.add(fp)
                out.append(col)
        return out

    def lake(self, pool: str) -> ColumnCorpus:
        """One paper-scale GDS lake, minus columns already handed out."""
        lake = make_gds(scale="paper", random_state=derived_seed(self.seed, pool))
        return ColumnCorpus(self._fresh(list(lake)), name=pool)

    def columns(self, pool: str, n: int) -> list[NumericColumn]:
        """``n`` distinct held-out columns from as many lakes as it takes."""
        out: list[NumericColumn] = []
        i = 0
        while len(out) < n:
            lake = make_gds(scale="paper", random_state=derived_seed(self.seed, pool, i))
            out.extend(self._fresh(list(lake))[: n - len(out)])
            i += 1
        return out

    def tables(self, pool: str, n: int | None = None) -> list[Table]:
        """Tables of held-out lakes in lake order, ids prefixed by ``pool``.

        ``n=None`` gives one lake's tables; otherwise exactly ``n`` tables.
        """
        out: list[Table] = []
        i = 0
        while True:
            lake = make_gds(scale="paper", random_state=derived_seed(self.seed, pool, i))
            groups: dict[str, list[NumericColumn]] = {}
            for col in self._fresh(list(lake)):
                groups.setdefault(col.table_id or "", []).append(col)
            for table_id, cols in groups.items():
                ids = [f"{pool}{i}/{table_id}/{j}" for j in range(len(cols))]
                out.append(Table(ids, cols))
                if n is not None and len(out) == n:
                    return out
            if n is None:
                return out
            i += 1
