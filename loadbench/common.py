"""Pieces every workload shares: paths, statistics, input pinning,
start-up timing, memory, and the per-layer metric table."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from yardstick import Yardstick, normalise_setup, startup_yardstick_s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS = BENCH_DIR / "pins.json"
#: Scratch space for data directories and span files, inside the checkout.
WORK_DIR = ROOT / ".loadbench_work"

#: Start-ups per run; setup_s is their median, scaled by the start-up
#: yardstick timed between them (README.md).
STARTUP_RUNS = 9


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def program_env() -> Dict[str, str]:
    """Environment for child processes running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- statistics ----------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise BenchError("quantile of an empty sample")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def p50(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def p90(values: Sequence[float]) -> float:
    return quantile(values, 0.9)


# -- input pinning ---------------------------------------------------------
def digest(obj: object) -> str:
    """Stable digest of JSON-able generated inputs."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def check_pin(workload: str, seed: int, inputs: object,
              generate: Callable[[int], object]) -> None:
    """Refuse to measure inputs that differ from the recorded ones.

    Only some seeds have a recorded digest.  For any other seed the
    generators are checked through a pinned seed instead, so every run
    is checked against a recorded digest.
    """
    pins = json.loads(PINS.read_text()).get(workload, {})
    if not pins:
        raise BenchError(f"no input digests recorded for {workload} in {PINS.name}")
    value = digest(inputs)
    if str(seed) in pins:
        print(f"input digest {workload} seed {seed}: {value} (pinned)")
        pinned, recorded = seed, pins[str(seed)]
    else:
        pinned = sorted(int(k) for k in pins)[seed % len(pins)]
        recorded = pins[str(pinned)]
        print(f"input digest {workload} seed {seed}: {value} "
              f"(no pin; generators checked through pinned seed {pinned})")
        value = digest(generate(pinned))
    if recorded != value:
        raise BenchError(
            f"input digest of {workload} for seed {pinned} is {value}, "
            f"but {recorded} is recorded in {PINS.name}: the generators "
            "changed, so this run would measure a different workload"
        )


def _cli_pins(argv: Sequence[str]) -> None:
    """Record the input digests of seeds 0..N-1 after a deliberate change
    to the generators:  python3 loadbench/common.py pin N"""
    import replay_mesh
    import serve_mix
    import solve_large

    sys.path.insert(0, str(SRC))
    gens = {
        "solve-multiple": lambda s: solve_large.generate("solve-multiple", s),
        "solve-single": lambda s: solve_large.generate("solve-single", s),
        "serve-mix": serve_mix.generate,
        "replay-mesh": replay_mesh.generate,
    }
    n = int(argv[1])
    pins = {wl: {str(s): digest(gen(s)) for s in range(n)} for wl, gen in gens.items()}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# -- set-up time and memory ----------------------------------------------
def startup_seconds(kind: str) -> Tuple[List[float], List[float]]:
    """Wall times of STARTUP_RUNS fresh program start-ups of one kind, and
    of the start-up yardstick run before each and after the last."""
    times, yards = [], []
    for _ in range(STARTUP_RUNS):
        yards.append(startup_yardstick_s())
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "startup.py"), kind],
            env=program_env(), check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    yards.append(startup_yardstick_s())
    return times, yards


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds_of(pid: int) -> float:
    """User plus system CPU time of a live process and all its threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of proc(5), counted after the command name.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- results ---------------------------------------------------------------
@dataclass
class Outcome:
    """What one run measured, before it becomes the final JSON line."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    info: List[str] = field(default_factory=list)
    #: Per-layer metrics (traced runs only).
    layers: Optional[Dict[str, float]] = None
    #: Per traced operation: |sum of self times - duration|, seconds.
    gaps: List[float] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def _line(name: str, value: float, unit: str, raw: Optional[float] = None) -> str:
    tail = "" if raw is None else f" raw {raw:.4f}"
    return f"{name:<28} {value:12.4f} {unit:<5}{tail}"


#: The end-to-end metrics besides setup_s and peak_rss_mb, with units.
TIMED_UNITS = {"ops_per_s": "1/s", "cold.p50_ms": "ms", "warm.p50_ms": "ms",
               "all.p90_ms": "ms", "cpu_per_op_ms": "ms"}


def end_to_end(out: Outcome, yard: Yardstick, *, setup: Tuple[List[float], List[float]],
               rss_mb: float, timed: Dict[str, tuple]) -> None:
    """Record the end-to-end metrics.

    ``setup`` holds the set-up times and the start-up yardstick times of
    the run; ``timed`` maps each of TIMED_UNITS to (reported value, raw
    value).
    """
    setups, yards = setup
    out.metrics["setup_s"] = normalise_setup(setups, yards)
    out.info.append(_line("setup_s", out.metrics["setup_s"], "s", p50(setups)))
    out.metrics["peak_rss_mb"] = rss_mb
    out.info.append(_line("peak_rss_mb", rss_mb, "MB"))
    for name, unit in TIMED_UNITS.items():
        value, raw = timed[name]
        out.metrics[name] = value
        out.info.append(_line(name, value, unit, raw))
    out.info.append(_line("loadgen.yardstick_ms (raw)", yard.median_ms, "ms"))
    out.info.append(_line("start-up yardstick_s (raw)", p50(yards), "s"))


# -- per-layer metrics -----------------------------------------------------
#: Every per-layer metric with its unit.  Times are self times per
#: workload operation; counts are per operation; ratios are over the run.
LAYER_UNITS: Dict[str, str] = {
    "service.fingerprint.instance_ms": "ms",
    "service.cache.get_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.cache.evictions": "count",
    "service.selection.select_ms": "ms",
    "service.facade.solve_self_ms": "ms",
    "runner.registry.solve_self_ms": "ms",
    "service.schema.decode_ms": "ms",
    "service.schema.encode_ms": "ms",
    "service.schema.request_kb": "kB",
    "service.schema.response_kb": "kB",
    "service.daemon.http_ms": "ms",
    "cluster.router.hop_ms": "ms",
    "cluster.router.retries": "count",
    "cluster.ring.max_share": "ratio",
    "algorithms.multiple_nod_dp_ms": "ms",
    "algorithms.feasibility.multiple_assignment_ms": "ms",
    "algorithms.single_nod_ms": "ms",
    "algorithms.single_gen_ms": "ms",
    "algorithms.multiple_greedy_ms": "ms",
    "core.kernels.min_plus_calls": "count",
    "core.kernels.min_plus_ms": "ms",
    "core.kernels.absorb_calls": "count",
    "core.kernels.absorb_ms": "ms",
    "core.kernels.cells": "count",
    "core.arrays.compile_ms": "ms",
    "core.arrays.compiles": "count",
    "core.arrays.hits": "count",
    "core.bounds.lower_bound_ms": "ms",
    "core.validation.check_ms": "ms",
    "storage.store.append_ms": "ms",
    "storage.store.records": "count",
    "storage.wal.bytes": "count",
    "storage.store.snapshot_ms": "ms",
    "storage.store.snapshots": "count",
    "dynamic.engine.apply_ms": "ms",
    "dynamic.events.apply_batch_ms": "ms",
    "dynamic.incremental.solve_ms": "ms",
    "dynamic.incremental.reuse_fraction": "ratio",
    "replay.traces.levels_ms": "ms",
    "scenarios.sampled.check_ms": "ms",
    "loadgen.yardstick_ms": "ms",
    "loadgen.trace_overhead_pct": "%",
}

#: Span name -> per-layer time metric built from its self time.
_SELF_TIME = {
    "service.fingerprint.instance": "service.fingerprint.instance_ms",
    "service.cache.get": "service.cache.get_ms",
    "service.selection.select": "service.selection.select_ms",
    "service.facade.solve": "service.facade.solve_self_ms",
    "runner.registry.solve": "runner.registry.solve_self_ms",
    "service.schema.decode": "service.schema.decode_ms",
    "service.schema.encode": "service.schema.encode_ms",
    "algorithms.multiple_nod_dp": "algorithms.multiple_nod_dp_ms",
    "algorithms.feasibility.multiple_assignment":
        "algorithms.feasibility.multiple_assignment_ms",
    "algorithms.single_nod": "algorithms.single_nod_ms",
    "algorithms.single_gen": "algorithms.single_gen_ms",
    "algorithms.multiple_greedy": "algorithms.multiple_greedy_ms",
    "core.kernels.min_plus": "core.kernels.min_plus_ms",
    "core.kernels.absorb": "core.kernels.absorb_ms",
    "core.arrays.flat_tree": "core.arrays.compile_ms",
    "core.bounds.lower_bound": "core.bounds.lower_bound_ms",
    "core.validation.check": "core.validation.check_ms",
    "storage.store.append": "storage.store.append_ms",
    "storage.wal.append": "storage.store.append_ms",
    "storage.store.snapshot": "storage.store.snapshot_ms",
    "dynamic.engine.apply": "dynamic.engine.apply_ms",
    "dynamic.events.apply_batch": "dynamic.events.apply_batch_ms",
    "dynamic.incremental.solve": "dynamic.incremental.solve_ms",
    "replay.traces.levels": "replay.traces.levels_ms",
    "scenarios.sampled.check": "scenarios.sampled.check_ms",
}


class LayerTotals:
    """Span totals summed over one or more traced processes."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.extras: Dict[str, list] = defaultdict(list)
        self.flat: Counter = Counter()
        self.gaps: List[float] = []

    def add(self, tracer) -> None:
        own = tracer.self_times()
        for span in tracer.spans:
            self.self_s[span.name] += own[span.sid]
            self.calls[span.name] += 1
            if span.extra is not None:
                self.extras[span.name].append(span.extra)
        for key in ("compiles", "hits"):
            self.flat[key] += tracer.flat_after.get(key, 0) - tracer.flat_before.get(key, 0)
        self.gaps.extend(tracer.self_time_gaps())

    def metrics(self, n_ops: int, yard: Yardstick, measured: Dict[str, float]) -> Dict[str, float]:
        """Every per-layer metric; layers this workload never ran read 0."""
        if n_ops <= 0:
            raise BenchError("no traced operations")
        m = {name: 0.0 for name in LAYER_UNITS}
        for span, name in _SELF_TIME.items():
            m[name] += yard.time_value(self.self_s[span] * 1e3) / n_ops
        gets = self.extras["service.cache.get"]
        m["service.cache.hit_ratio"] = sum(gets) / len(gets) if gets else 0.0
        m["core.kernels.min_plus_calls"] = self.calls["core.kernels.min_plus"] / n_ops
        m["core.kernels.absorb_calls"] = self.calls["core.kernels.absorb"] / n_ops
        m["core.kernels.cells"] = (
            sum(self.extras["core.kernels.min_plus"]) + sum(self.extras["core.kernels.absorb"])
        ) / n_ops
        m["core.arrays.compiles"] = self.flat["compiles"] / n_ops
        m["core.arrays.hits"] = self.flat["hits"] / n_ops
        m["storage.store.records"] = self.calls["storage.store.append"] / n_ops
        m["storage.wal.bytes"] = sum(self.extras["storage.wal.append"]) / n_ops
        m["storage.store.snapshots"] = self.calls["storage.store.snapshot"] / n_ops
        reuse = self.extras["dynamic.incremental.solve"]
        total = sum(t for _r, t in reuse)
        m["dynamic.incremental.reuse_fraction"] = (
            sum(r for r, _t in reuse) / total if total else 0.0
        )
        m["loadgen.yardstick_ms"] = yard.median_ms
        unknown = set(measured) - set(LAYER_UNITS)
        if unknown:
            raise BenchError(f"unknown per-layer metrics {sorted(unknown)}")
        m.update(measured)
        return m


def overhead_pct(untraced: float, traced: float) -> float:
    return (traced - untraced) / untraced * 100.0


if __name__ == "__main__":
    if sys.argv[1:2] != ["pin"] or len(sys.argv) != 3:
        raise SystemExit("usage: python3 loadbench/common.py pin N")
    _cli_pins(sys.argv[1:])
