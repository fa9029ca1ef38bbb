"""replay-mesh: ``run_replay`` in engine mode on the 9544-node ISP mesh.

Each cycle times a one-tick call (the cold placement of the mesh) and a
fixed-horizon call (the cold tick plus HORIZON-1 incremental ticks of
about 5.8k demand changes each), both on fresh instance objects, with
the yardstick between them.  No service, wire, storage or cluster code
runs.  Every call must report zero sampled violations and the same
``ReplayResult.fingerprint()`` as the untimed first call of its horizon.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from common import (
    BenchError,
    LayerTotals,
    Outcome,
    check_pin,
    overhead_pct,
    p50,
    p90,
    end_to_end,
    self_peak_rss_mb,
    startup_seconds,
)
from tracer import Tracer
from yardstick import Yardstick

N_POPS, CAPACITY, MESH_SEED = 6000, 300, 3
TRACE = "diurnal+flash"
HORIZON = 6


def generate(seed: int) -> dict:
    from repro.instances import isp_mesh
    from repro.instances.io import instance_to_dict

    return {
        "instance": instance_to_dict(isp_mesh(N_POPS, capacity=CAPACITY, seed=MESH_SEED)),
        "trace": TRACE,
        "horizon": HORIZON,
        "seed": seed,
    }


class _Loop:
    def __init__(self, inputs: dict, out: Outcome) -> None:
        self.inputs = inputs
        self.out = out
        self.reference = {}
        for horizon in (1, HORIZON):
            _elapsed, _cpu, result = self._replay(horizon, None)
            if result.violations or result.repair_failures:
                raise BenchError(f"reference replay of horizon {horizon} is not clean")
            self.reference[horizon] = result.fingerprint()

    def _replay(self, horizon: int, tracer):
        from repro.instances.io import instance_from_dict
        from repro.replay import run_replay

        inst = instance_from_dict(self.inputs["instance"])
        c0, t0 = time.process_time(), time.perf_counter()
        with nullcontext() if tracer is None else tracer.span(f"replay-{horizon}"):
            result = run_replay(inst, TRACE, horizon=horizon, seed=self.inputs["seed"])
        return time.perf_counter() - t0, time.process_time() - c0, result

    def _op(self, horizon: int, tracer) -> tuple:
        elapsed, cpu, result = self._replay(horizon, tracer)
        self.out.attempted += 1
        if result.violations:
            self.out.fail(f"horizon {horizon}: {len(result.violations)} violations")
        elif result.fingerprint() != self.reference[horizon]:
            self.out.fail(f"horizon {horizon}: fingerprint differs from the first run")
        return elapsed, cpu

    def run(self, seconds: float, yard: Yardstick, tracer=None):
        """(seconds, yardstick position) of each one-tick and each
        HORIZON-tick call, and (CPU seconds, position) of every call."""
        cold, full, cpu = [], [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(full) < 3:
            for horizon, into in ((1, cold), (HORIZON, full)):
                yard.sample()
                elapsed, used = self._op(horizon, tracer)
                into.append((elapsed, yard.position))
                cpu.append((used, yard.position))
        yard.sample()
        return cold, full, cpu


def timed_metrics(yard: Yardstick, cold: list, full: list, cpu: list) -> dict:
    """Each timed end-to-end metric as (normalised, raw)."""
    out = {}
    for label, scale in (("value", yard.times), ("raw", lambda ops: [t for t, _ in ops])):
        c, f, used = scale(cold), scale(full), scale(cpu)
        # Per incremental tick: a full call minus the one-tick call just
        # before it.
        ticks = [(x - y) / (HORIZON - 1) for x, y in zip(f, c)]
        out[label] = {
            "ops_per_s": HORIZON * len(f) / sum(f),
            "cold.p50_ms": p50(c) * 1e3,
            "warm.p50_ms": p50(ticks) * 1e3,
            "all.p90_ms": p90(c + f) * 1e3,
            "cpu_per_op_ms": sum(used) / (len(c) + HORIZON * len(f)) * 1e3,
        }
    return {name: (out["value"][name], out["raw"][name]) for name in out["value"]}


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    inputs = generate(seed)
    check_pin("replay-mesh", seed, inputs, generate)
    yard = Yardstick()
    startup = startup_seconds("replay-mesh")
    loop = _Loop(inputs, out)
    if not trace:
        cold, full, cpu = loop.run(seconds, yard)
        end_to_end(out, yard, setup=startup, rss_mb=self_peak_rss_mb(),
                   timed=timed_metrics(yard, cold, full, cpu))
        return out

    _, base_full, _ = loop.run(seconds / 2, yard)
    traced_yard = Yardstick()
    tracer = Tracer()
    tracer.install()
    try:
        cold, full, _ = loop.run(seconds / 2, traced_yard, tracer)
    finally:
        tracer.restore()
    totals = LayerTotals()
    totals.add(tracer)
    measured = {"loadgen.trace_overhead_pct": overhead_pct(
        p50(yard.times(base_full)), p50(traced_yard.times(full)))}
    out.layers = totals.metrics(len(cold) + len(full), traced_yard, measured)
    out.gaps = totals.gaps
    return out
