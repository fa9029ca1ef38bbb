"""solve-multiple / solve-single: in-process ``PlacementService.solve`` on
10k-node trees, one closed-loop caller.

Each cycle times a cold solve and then one cache hit: the same request
submitted again, as a retry or a second reader of the same instance.
Every operation gets a freshly built instance object (built untimed
from the generated dict), because no served path resubmits the same
object.  A cold solve carries a tenant never used before, so it misses
the cache while the put and evict paths still run.  Answers are checked untimed after each operation.
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

N_INTERNAL, N_CLIENTS, CAPACITY, MAX_ARITY = 5000, 10000, 50, 4
#: One entry: each cold put evicts the previous cold solve's entry, and
#: the re-submit that follows finds its own.
CACHE_SIZE = 1


def generate(workload: str, seed: int) -> dict:
    from repro.core.policies import Policy
    from repro.instances import random_tree
    from repro.instances.io import instance_to_dict

    policy = Policy.MULTIPLE if workload == "solve-multiple" else Policy.SINGLE
    inst = random_tree(N_INTERNAL, N_CLIENTS, capacity=CAPACITY,
                       max_arity=MAX_ARITY, policy=policy, seed=seed)
    return instance_to_dict(inst)


class _Loop:
    def __init__(self, data: dict, expected: tuple, out: Outcome) -> None:
        from repro.service import PlacementService

        self.data = data
        self.expected = expected
        self.out = out
        self.svc = PlacementService(cache_size=CACHE_SIZE)
        self.k = 0
        self.checked = None

    def _op(self, tenant: str, want_hit: bool, tracer, cls: str) -> tuple:
        from repro.core.validation import placement_violations
        from repro.instances.io import instance_from_dict
        from repro.service import SolveRequest

        inst = instance_from_dict(self.data)
        request = SolveRequest(instance=inst, tenant=tenant)
        c0, t0 = time.process_time(), time.perf_counter()
        with nullcontext() if tracer is None else tracer.span(cls):
            resp = self.svc.solve(request)
        elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.out.attempted += 1
        got = (resp.status, resp.solver, resp.n_replicas)
        if got != self.expected:
            self.out.fail(f"{cls}: answer {got}, expected {self.expected}")
        elif resp.diagnostics.cache_hit != want_hit:
            self.out.fail(f"{cls}: cache_hit={resp.diagnostics.cache_hit}")
        elif resp.placement is not self.checked and placement_violations(inst, resp.placement):
            self.out.fail(f"{cls}: placement violates the instance")
        # A hit hands back the placement object the cold solve cached,
        # which was just checked.
        self.checked = resp.placement
        return elapsed, cpu

    def run(self, seconds: float, yard: Yardstick, tracer=None):
        """(seconds, yardstick position) of each cold and each hit
        operation, and (CPU seconds, position) of each operation."""
        cold, hit, cpu = [], [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(cold) < 3:
            yard.sample()
            self.k += 1
            tenant = f"cold-{self.k}"
            for want_hit, cls, into in ((False, "cold", cold), (True, "hit", hit)):
                elapsed, used = self._op(tenant, want_hit, tracer, cls)
                into.append((elapsed, yard.position))
                cpu.append((used, yard.position))
        yard.sample()
        return cold, hit, cpu


def timed_metrics(yard: Yardstick, cold: list, hit: list, cpu: list) -> dict:
    """Each timed end-to-end metric as (normalised, raw)."""
    out = {}
    for label, scale in (("value", yard.times), ("raw", lambda ops: [t for t, _ in ops])):
        c, h, used = scale(cold), scale(hit), scale(cpu)
        out[label] = {
            "ops_per_s": len(c) / sum(c),
            "cold.p50_ms": p50(c) * 1e3,
            "warm.p50_ms": p50(h) * 1e3,
            "all.p90_ms": p90(c + h) * 1e3,
            "cpu_per_op_ms": sum(used) / len(used) * 1e3,
        }
    return {name: (out["value"][name], out["raw"][name]) for name in out["value"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.instances.io import instance_from_dict
    from repro.service import PlacementService, SolveRequest

    out = Outcome()
    data = generate(workload, seed)
    check_pin(workload, seed, data, lambda s: generate(workload, s))
    # The answer every operation must reproduce, recorded once.
    with PlacementService(cache_size=1) as ref:
        r = ref.solve(SolveRequest(instance=instance_from_dict(data)))
    if not r.ok:
        raise BenchError(f"reference solve failed: {r.status}")
    expected = (r.status, r.solver, r.n_replicas)
    yard = Yardstick()
    startup = startup_seconds(workload)
    loop = _Loop(data, expected, out)
    label = "cold_multiple" if workload == "solve-multiple" else "cold_single"
    out.info.append(f"answer {expected}; cold class is {label}")
    if not trace:
        cold, hit, cpu = loop.run(seconds, yard)
        end_to_end(out, yard, setup=startup, rss_mb=self_peak_rss_mb(),
                   timed=timed_metrics(yard, cold, hit, cpu))
        return out

    base_cold, _, _ = loop.run(seconds / 2, yard)
    traced_yard = Yardstick()
    tracer = Tracer()
    evictions = loop.svc.stats().cache.evictions
    tracer.install()
    try:
        cold, hit, _ = loop.run(seconds / 2, traced_yard, tracer)
    finally:
        tracer.restore()
    totals = LayerTotals()
    totals.add(tracer)
    n_ops = len(cold) + len(hit)
    measured = {
        "service.cache.evictions": (loop.svc.stats().cache.evictions - evictions) / n_ops,
        "loadgen.trace_overhead_pct": overhead_pct(
            p50(yard.times(base_cold)), p50(traced_yard.times(cold))),
    }
    out.layers = totals.metrics(n_ops, traced_yard, measured)
    out.gaps = totals.gaps
    return out
