"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload build --seed 7 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's public entry points in spans, prints the per-layer metrics and
the tracing overhead, and writes the spans to
``.perfbench_out/spans-<workload>-<seed>.jsonl``. Human-readable figures
go to standard output first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A failed
output check exits with status 1 and prints no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["build", "serve-read", "serve-mixed"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The library is built from the checkout's sources: nothing installed
    # may stand in for it.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'repro'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    from harness import CheckFailed, Tracer, peak_rss_mb
    from layers import PER_LAYER, layer_metrics, register
    from workloads import END_TO_END, WORKLOADS, Run

    tracer = None
    if args.trace:
        tracer = Tracer()
        register(tracer)
        tracer.install()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(seed=args.seed, seconds=args.seconds, workdir=workdir, tracer=tracer)
    try:
        WORKLOADS[args.workload](run)
    except CheckFailed as exc:
        for line in run.ops.report_lines():
            print(line)
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        shutil.rmtree(workdir, ignore_errors=True)
    run.e2e["peak_rss_mb"] = peak_rss_mb()

    attempted, failed = run.ops.totals()
    for line in run.report + run.ops.report_lines():
        print(line)
    print(f"metric failed_frac = {failed / max(1, attempted):.6g} ratio  (attempted={attempted})")
    if tracer is None:
        metrics = {name: {"value": run.e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layer = layer_metrics(tracer.spans[: run.measured_spans], run.extra)
        metrics = {name: {"value": layer[name][0], "unit": unit} for name, unit in PER_LAYER}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
