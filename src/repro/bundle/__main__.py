"""``python -m repro.bundle`` — operate pipeline bundles from the shell.

Subcommands (full reference in ``docs/cli.md``)::

    python -m repro.bundle fit BUNDLE --corpus synthetic:gds:tiny [--set k=v]
    python -m repro.bundle index BUNDLE [--backend ivf] [--set n_lists=16]
    python -m repro.bundle serve BUNDLE [--smoke] [--k 5] [--queries 8]
    python -m repro.bundle verify BUNDLE
    python -m repro.bundle sweep BUNDLE --grid n_components=8,16 [...]

Exit codes:

* ``0`` — success (``verify``: the bundle is internally consistent).
* ``1`` — integrity failure: a stale derivation chain
  (:exc:`~repro.index.StaleIndexError`), a corrupt or tampered artifact
  (:exc:`~repro.core.persistence.CorruptArchiveError`), or ``verify``
  finding any problem.
* ``2`` — usage error: unknown flags, malformed corpus specs or grids,
  stages invoked out of order.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bundle import stages as _stages
from repro.bundle.corpus import load_corpus
from repro.bundle.manifest import read_manifest
from repro.bundle.stages import fit_stage, index_stage, open_service, verify_bundle
from repro.bundle.sweep import format_sweep_table, run_sweep
from repro.core.config import GemConfig
from repro.core.persistence import CorruptArchiveError
from repro.index import StaleIndexError

_EXIT_OK = 0
_EXIT_INTEGRITY = 1
_EXIT_USAGE = 2


def _parse_value(raw: str) -> object:
    """A ``--set``/``--grid`` value: JSON if it parses, bare string if not.

    ``n_components=16`` → int, ``value_transform=log`` → str,
    ``auto_components=true`` → bool — no quoting gymnastics at the shell.
    """
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _parse_sets(pairs: list[str]) -> dict:
    overrides: dict = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        overrides[key] = _parse_value(value)
    return overrides


def _parse_grid(pairs: list[str]) -> dict[str, list]:
    grid: dict[str, list] = {}
    for pair in pairs:
        key, sep, values = pair.partition("=")
        if not sep or not key or not values:
            raise ValueError(f"--grid expects KEY=V1,V2[,...], got {pair!r}")
        grid[key] = [_parse_value(v) for v in values.split(",")]
    return grid


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bundle",
        description="Operate versioned Gem pipeline bundles: fit a model, "
        "build its index, serve it, verify integrity offline, and sweep "
        "config grids. See docs/cli.md and docs/bundle-format.md.",
        epilog="exit codes: 0 success; 1 stale/corrupt bundle or failed "
        "verify; 2 usage error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser(
        "fit", help="fit the embedder on a corpus and start the bundle manifest"
    )
    fit.add_argument("bundle", help="bundle directory (created if missing)")
    fit.add_argument(
        "--corpus",
        required=True,
        help="corpus spec: synthetic:<name>[:<scale>[:<seed>]] or csv:<dir>",
    )
    fit.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="GemConfig override (repeatable), e.g. --set n_components=16",
    )

    index = sub.add_parser(
        "index", help="build and persist the retrieval index from the fit stage"
    )
    index.add_argument("bundle", help="bundle directory")
    index.add_argument(
        "--backend", help="index backend: exact, ivf or pq (same as --set backend=...)"
    )
    index.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="GemIndex argument (repeatable), e.g. --set n_probe=4; "
        "unset ones take GemIndex's defaults",
    )

    serve = sub.add_parser(
        "serve", help="warm-start the service from the bundle (WAL replayed)"
    )
    serve.add_argument("bundle", help="bundle directory")
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="serve a few self-queries from the bundle's corpus and exit",
    )
    serve.add_argument("--k", type=int, default=5, help="neighbours per query")
    serve.add_argument(
        "--queries",
        type=int,
        default=8,
        help="number of corpus columns to query in --smoke mode",
    )

    verify = sub.add_parser(
        "verify", help="re-check every artifact checksum and fingerprint chain"
    )
    verify.add_argument("bundle", help="bundle directory")

    sweep = sub.add_parser("sweep", help="rank a GemConfig grid by an objective")
    sweep.add_argument("bundle", help="bundle directory")
    sweep.add_argument(
        "--grid",
        dest="grids",
        action="append",
        default=[],
        metavar="KEY=V1,V2",
        required=True,
        help="grid axis (repeatable), e.g. --grid n_components=8,16,32",
    )
    sweep.add_argument(
        "--objective",
        default="precision_at_k",
        help="objective: precision_at_k, recall_at_k, index_recall_at_k, bic",
    )
    sweep.add_argument(
        "--corpus",
        help="corpus spec (defaults to the bundle manifest's corpus)",
    )
    sweep.add_argument("--seed", type=int, default=0, help="trial random_state")
    sweep.add_argument(
        "--workers", type=int, default=1, help="parallel trial workers"
    )
    return parser


def _cmd_fit(args: argparse.Namespace) -> int:
    config = GemConfig(**_parse_sets(args.sets))  # type: ignore[arg-type]
    manifest = fit_stage(args.bundle, args.corpus, config)
    record = manifest["stages"]["fit"]
    print(
        f"fit: {record['artifact']} model={record['model_fingerprint']} "
        f"corpus={manifest['corpus']['spec']}"
    )
    return _EXIT_OK


def _cmd_index(args: argparse.Namespace) -> int:
    index_kwargs = _parse_sets(args.sets)
    if args.backend is not None:
        if "backend" in index_kwargs:
            raise ValueError("give the backend once: --backend or --set backend=...")
        index_kwargs["backend"] = args.backend
    manifest = index_stage(args.bundle, **index_kwargs)
    record = manifest["stages"]["index"]
    print(
        f"index: {record['artifact']} backend={record['backend']} "
        f"rows={record['n_rows']}"
    )
    return _EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    manifest = read_manifest(args.bundle)
    corpus, _ = load_corpus(manifest["corpus"]["spec"])
    n_queries = min(args.queries, len(corpus)) if args.smoke else len(corpus)
    with open_service(args.bundle) as service:
        queries = [corpus[i] for i in range(n_queries)]
        result = service.search(queries, args.k)
        for row, col in enumerate(queries):
            neighbours = ", ".join(str(cid) for cid in result.ids[row][:3])
            print(f"{col.name!r}: top neighbours {neighbours} …")
    mode = "smoke" if args.smoke else "full self-search"
    print(f"serve ({mode}): {n_queries} queries x top-{args.k} ok")
    return _EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    problems = verify_bundle(args.bundle)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        print(f"verify: {len(problems)} problem(s)", file=sys.stderr)
        return _EXIT_INTEGRITY
    stages = sorted(read_manifest(args.bundle).get("stages", {}))
    print(f"verify: ok ({', '.join(stages) or 'no stages'})")
    return _EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    document = run_sweep(
        args.bundle,
        _parse_grid(args.grids),
        objective=args.objective,
        corpus_spec=args.corpus,
        seed=args.seed,
        n_workers=args.workers,
    )
    print(format_sweep_table(document))
    print(f"sweep: table written to {args.bundle}/{_stages.SWEEP_ARTIFACT}")
    return _EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "index": _cmd_index,
    "serve": _cmd_serve,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both
        # through as return codes so in-process callers (tests, examples)
        # never get killed by SystemExit.
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (StaleIndexError, CorruptArchiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INTEGRITY
    except (ValueError, TypeError, KeyError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
