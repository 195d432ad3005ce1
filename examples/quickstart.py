"""Quickstart: operate a Gem deployment through the bundle CLI.

The five-minute tour, end to end: fit an embedder on a synthetic corpus,
build its retrieval index, smoke-test the serving layer, verify the
bundle's integrity offline — each step the exact shell command from
docs/cli.md, run here in-process — then warm-start the service from the
bundle and query it from Python.

Run:  python examples/quickstart.py
Honours REPRO_SCALE (tiny/small/paper) like the experiment suite.
"""

import tempfile
from pathlib import Path

from repro import make_gds
from repro.bundle import open_service
from repro.bundle.__main__ import main as bundle_cli


def run_cli(*args: str) -> None:
    """Run one `python -m repro.bundle ...` command, echoing it first."""
    print(f"\n$ python -m repro.bundle {' '.join(args)}")
    code = bundle_cli(list(args))
    if code != 0:
        raise SystemExit(f"bundle command failed with exit code {code}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bundle = str(Path(tmp) / "lake.bundle")

        # 1. Fit: one command pins the corpus (spec + content fingerprint)
        #    and the full GemConfig into the bundle manifest.
        run_cli(
            "fit", bundle,
            "--corpus", "synthetic:gds",
            "--set", "n_components=20",
            "--set", "n_init=2",
            "--set", "random_state=0",
        )

        # 2. Index: builds the retrieval index from the fit artifact and
        #    records the derivation chain (a later refit would make this
        #    index refuse to serve as stale).
        run_cli("index", bundle, "--backend", "exact")

        # 3. Serve (smoke): warm-starts the service — WAL replay and all —
        #    and runs a few self-queries through it.
        run_cli("serve", bundle, "--smoke", "--queries", "3", "--k", "3")

        # 4. Verify: re-checks every artifact checksum and fingerprint
        #    offline; exit 0 means the bundle is internally consistent.
        run_cli("verify", bundle)

        # 5. The same bundle from Python: find neighbours of a fresh
        #    column through the served index.
        corpus = make_gds()
        query = corpus[0]
        print(f"\nquery column: {query.name!r} ({query.fine_label})")
        with open_service(bundle) as service:
            result = service.search([query], k=5)
            for rank, (cid, score) in enumerate(
                zip(result.ids[0], result.scores[0]), 1
            ):
                print(f"  neighbour {rank}: {cid:28s} cos={score:.3f}")


if __name__ == "__main__":
    main()
