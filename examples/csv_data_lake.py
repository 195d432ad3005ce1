"""Dataset search over a directory of CSV files, via the bundle CLI.

The data-lake workflow the paper's introduction motivates: ingest raw CSV
tables, keep the numeric columns, embed them with Gem, and answer "find
me columns like this one" queries across tables — without any labels.
Here the whole pipeline is driven by ``python -m repro.bundle`` with a
``csv:<directory>`` corpus spec: the manifest pins the lake's content
fingerprint, so editing any CSV after fitting makes the downstream
stages refuse to serve stale results.

Run:  python examples/csv_data_lake.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.bundle import open_service
from repro.bundle.__main__ import main as bundle_cli
from repro.data import ColumnCorpus, read_csv_table


def build_demo_lake(root: Path) -> None:
    """Write a few small CSV tables resembling open-data files."""
    rng = np.random.default_rng(0)
    (root / "employees.csv").write_text(
        "name,age,salary\n"
        + "\n".join(
            f"e{i},{int(rng.normal(38, 9))},{int(rng.lognormal(10.8, 0.3))}"
            for i in range(120)
        )
    )
    (root / "athletes.csv").write_text(
        "athlete,age,rank\n"
        + "\n".join(
            f"a{i},{int(rng.normal(27, 5))},{int(rng.integers(1, 100))}"
            for i in range(150)
        )
    )
    (root / "products.csv").write_text(
        "sku,price,stock\n"
        + "\n".join(
            f"p{i},{rng.lognormal(3.2, 0.8):.2f},{int(rng.gamma(2, 40))}"
            for i in range(200)
        )
    )
    (root / "housing.csv").write_text(
        "listing,price,area\n"
        + "\n".join(
            f"h{i},{int(rng.lognormal(12.6, 0.4))},{int(rng.normal(95, 30))}"
            for i in range(100)
        )
    )


def run_cli(*args: str) -> None:
    """Run one `python -m repro.bundle ...` command, echoing it first."""
    print(f"\n$ python -m repro.bundle {' '.join(args)}")
    code = bundle_cli(list(args))
    if code != 0:
        raise SystemExit(f"bundle command failed with exit code {code}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        lake = Path(tmp) / "lake"
        lake.mkdir()
        build_demo_lake(lake)
        bundle = str(Path(tmp) / "lake.bundle")

        # What's in the lake? (The CLI ingests the same way: every *.csv
        # under the directory, numeric columns only, sorted file order.)
        tables = [read_csv_table(p) for p in sorted(lake.glob("*.csv"))]
        corpus = ColumnCorpus.from_tables(tables, name="demo-lake")
        print(f"ingested {len(tables)} tables -> {len(corpus)} numeric columns")
        for col in corpus:
            print(f"  {col.table_id}.{col.name}  (n={len(col)})")

        # Fit + index the lake: the manifest records csv:<dir> and the
        # lake's content fingerprint.
        run_cli(
            "fit", bundle,
            "--corpus", f"csv:{lake}",
            "--set", "n_components=20",
            "--set", "n_init=2",
            "--set", "random_state=0",
        )
        run_cli("index", bundle)
        run_cli("verify", bundle)

        # Query from Python: which columns resemble employees.age?
        query = next(
            c for c in corpus if c.table_id == "employees" and c.name == "age"
        )
        print("\ncolumns most similar to employees.age:")
        with open_service(bundle) as service:
            result = service.search([query], k=4)
            for cid, score in zip(result.ids[0], result.scores[0]):
                print(f"  {cid:16s} cos={score:.3f}")
        print("\nathletes.age should rank above the price/stock columns.")


if __name__ == "__main__":
    main()
