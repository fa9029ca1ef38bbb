#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 loadbench/run.py --workload solve-multiple --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines above it name every metric with its unit, the raw value next
to each yardstick-normalised one, and the workload's own names for them.
See ``loadbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

WORKLOADS = ("solve-multiple", "solve-single", "serve-mix", "replay-mesh")

#: The end-to-end metrics every workload reports, with units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "cold.p50_ms": "ms",
    "warm.p50_ms": "ms",
    "all.p90_ms": "ms",
    "cpu_per_op_ms": "ms",
}

#: What each end-to-end metric is called on each workload.
ALIASES = {
    "solve-multiple": {"cold.p50_ms": "cold_multiple.p50_ms",
                       "warm.p50_ms": "hit.p50_ms", "ops_per_s": "solves_per_s"},
    "solve-single": {"cold.p50_ms": "cold_single.p50_ms",
                     "warm.p50_ms": "hit.p50_ms", "ops_per_s": "solves_per_s"},
    "serve-mix": {"cold.p50_ms": "miss.p50_ms", "warm.p50_ms": "hit.p50_ms",
                  "ops_per_s": "requests_per_s"},
    "replay-mesh": {"cold.p50_ms": "cold_start.p50_ms",
                    "warm.p50_ms": "tick.p50_ms", "ops_per_s": "ticks_per_s"},
}

#: Largest accepted |sum of self times - duration| of one traced operation.
SELF_TIME_TOLERANCE_S = 1e-6


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _measure(args):
    if args.workload in ("solve-multiple", "solve-single"):
        import solve_large

        return solve_large.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "serve-mix":
        import serve_mix

        return serve_mix.run(args.seed, args.seconds, bool(args.trace))
    import replay_mesh

    return replay_mesh.run(args.seed, args.seconds, bool(args.trace))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"loadbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import LAYER_UNITS, BenchError
    from tracer import current_targets

    pristine = current_targets()
    try:
        out = _measure(args)
    except BenchError as exc:
        print(f"loadbench: {exc}", file=sys.stderr)
        return 3
    if any(a is not b for a, b in zip(current_targets(), pristine)):
        out.problems.append("a traced function was left wrapped")
    worst_gap = max(out.gaps, default=0.0)
    if worst_gap > SELF_TIME_TOLERANCE_S:
        out.problems.append(f"self times miss an operation's duration by {worst_gap:.3g} s")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"attempted {out.attempted}  failed {out.failed}")
    for line in out.info:
        print("  " + line)
    if args.trace:
        metrics = {name: {"value": out.layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"  {name:<46} {m['value']:14.4f} {m['unit']}")
    else:
        metrics = {name: {"value": out.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for generic, own in ALIASES[args.workload].items():
            print(f"  {own} = {generic} = {out.metrics[generic]:.4f} "
                  f"{END_TO_END[generic]}")
    for problem in out.problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": out.failed == 0 and not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
