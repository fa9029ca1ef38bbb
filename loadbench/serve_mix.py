"""serve-mix: two closed-loop clients against ``repro cluster --attach``
over two durable ``repro serve --data-dir`` workers, each its own process.

Each client keeps one persistent HTTP connection to the router.  About
one request in ten is a write: a ``/v1/dynamic/apply`` of the next
demand event of the client's Multiple-NoD session, opened at set-up.
The rest are solves drawn Zipf (weight 1/(rank+1), as ``repro
loadtest``) from a pool of 300-node instances spanning Single/Multiple
x no-dmax/dmax, so the auto-selection chain reaches single-nod,
single-gen, multiple-nod-dp and multiple-greedy.  Each client's pool
and session hash to one worker, so each worker's cache sees one
client's sequence.  The workers keep the default cache size; before the
timed loop each cache is filled with its pool's top ranks, and the
pools are 1.5 times the caches, so misses depend on eviction.  A request
is a hit or a miss as its reply says; a request for a key never sent
before must miss, and an immediate repeat must hit.  Requests go in
rounds, and the yardstick runs between rounds, while no request is in
flight.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    BENCH_DIR,
    WORK_DIR,
    BenchError,
    LayerTotals,
    Outcome,
    check_pin,
    overhead_pct,
    p50,
    p90,
    cpu_seconds_of,
    peak_rss_mb_of,
    program_env,
    end_to_end,
    self_peak_rss_mb,
)
from tracer import Tracer
from yardstick import Yardstick, startup_yardstick_s

N_INTERNAL, N_CLIENTS, CAPACITY, MAX_ARITY, DMAX = 100, 200, 50, 4, 8.0
CLIENTS = 2
NODES = tuple(f"worker-{i}" for i in range(CLIENTS))  # the ids --attach assigns
#: Instances per client.  The workers keep the ``repro serve`` default
#: cache of 256 entries; a pool of 1.5 times that makes the pools
#: together (768) larger than both caches together (512), so misses
#: depend on eviction.  Every pool instance is generated and solved for
#: its expected answer on each run, so the pool is not made larger.
POOL_PER_CLIENT = 384
#: One request in ten is a write (the workload definition).
WRITE_SHARE = 0.1
#: Pre-generated demand events per session.  A write sends the next one;
#: the stream wraps around if a run sends more.
WRITE_STEPS = 256
#: One write in this many has its placement fetched and checked.
WRITE_CHECK_EVERY = 8
ROUND = 40  # requests per client between yardstick samples
SETUP_RUNS = 5
SPAWN_TIMEOUT_S = 60.0
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


# -- inputs ------------------------------------------------------------------
def generate(seed: int) -> dict:
    """Per client: a pool balanced over the four regimes, a Multiple-NoD
    session and its demand events, all hashing to that client's worker.

    The write events come from the program's own seeded event stream
    (``random_event_trace``) with its default of one demand event per
    step: Poisson around the client's current level, capped at W.
    """
    from repro.cluster.ring import HashRing
    from repro.core.policies import Policy
    from repro.dynamic.events import event_to_wire, random_event_trace
    from repro.instances import random_tree
    from repro.instances.io import instance_to_dict
    from repro.service.fingerprint import instance_fingerprint

    regimes = [(Policy.SINGLE, None), (Policy.SINGLE, DMAX),
               (Policy.MULTIPLE, None), (Policy.MULTIPLE, DMAX)]
    ring = HashRing(NODES)
    per_regime = POOL_PER_CLIENT // len(regimes)
    # One stream of instances per regime, and one for the sessions.
    wants = [(policy, dmax, per_regime) for policy, dmax in regimes] + [(Policy.MULTIPLE, None, 1)]
    buckets = []
    for r, (policy, dmax, limit) in enumerate(wants):
        got = {node: [] for node in NODES}
        j = 0
        while any(len(b) < limit for b in got.values()):
            inst = random_tree(N_INTERNAL, N_CLIENTS, capacity=CAPACITY, max_arity=MAX_ARITY,
                               policy=policy, dmax=dmax, seed=[seed, r, j])
            j += 1
            bucket = got[ring.route(instance_fingerprint(inst))]
            if len(bucket) < limit:
                bucket.append(inst)
        buckets.append(got)
    inputs = {}
    for index, node in enumerate(NODES):
        session = buckets[-1][node][0]
        events = random_event_trace(session, steps=WRITE_STEPS, seed=[seed, index])
        inputs[node] = {
            # Interleaved regimes: Zipf rank k belongs to regime k % 4.
            "pool": [instance_to_dict(buckets[r][node][i])
                     for i in range(per_regime) for r in range(len(regimes))],
            "session": instance_to_dict(session),
            "events": [[event_to_wire(e) for e in step] for step in events],
        }
    return inputs


def expected_answers(pool: List[dict]) -> List[tuple]:
    from repro.instances.io import instance_from_dict
    from repro.service import PlacementService, SolveRequest

    with PlacementService(cache_size=0) as svc:
        answers = []
        for d in pool:
            r = svc.solve(SolveRequest(instance=instance_from_dict(d)))
            if not r.ok:
                raise BenchError(f"pool instance does not solve: {r.status}")
            answers.append((r.solver, r.n_replicas))
    return answers


def solve_body(inst: dict) -> bytes:
    return json.dumps({"schema": 1, "instance": inst, "solver": None, "budget": None,
                       "include_assignments": True, "request_id": None}).encode()


# -- processes ---------------------------------------------------------------
class _Proc:
    def __init__(self, argv: List[str], log: Path) -> None:
        self.log = log
        with open(log, "wb") as fh:
            self.proc = subprocess.Popen(argv, env=program_env(), stdout=fh,
                                         stderr=subprocess.STDOUT)

    def address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            m = _LISTENING.search(self.log.read_text(errors="replace"))
            if m:
                return m.group(1), int(m.group(2))
            if self.proc.poll() is not None:
                raise BenchError(f"{self.log.name} exited: {self.log.read_text()[-2000:]}")
            time.sleep(0.005)
        raise BenchError(f"{self.log.name} never announced its address")

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait(self) -> None:
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Fleet:
    """Two workers and a router; with ``traced`` the workers run under the
    launcher and write their spans when stopped."""

    def __init__(self, workdir: Path, traced: bool) -> None:
        self.workdir = workdir
        self.procs: List[_Proc] = []
        self.spans: List[Path] = []
        self.urls: Dict[str, Tuple[str, int]] = {}
        workdir.mkdir(parents=True)
        try:
            for node in NODES:
                argv = ["serve", "--port", "0", "--data-dir", str(workdir / node)]
                if traced:
                    span_file = workdir / f"{node}.spans.json"
                    self.spans.append(span_file)
                    argv = [sys.executable, str(BENCH_DIR / "launcher.py"), str(span_file)] + argv
                else:
                    argv = [sys.executable, "-m", "repro.cli"] + argv
                self.procs.append(_Proc(argv, workdir / f"{node}.log"))
            for node, proc in zip(NODES, self.procs):
                self.urls[node] = proc.address()
            attach = [f"http://{h}:{p}" for h, p in self.urls.values()]
            router = _Proc([sys.executable, "-m", "repro.cli", "cluster", "--port", "0",
                            "--attach", *attach], workdir / "router.log")
            self.procs.append(router)
            self.router = router.address()
        except BaseException:
            self.stop()
            raise

    def rss_mb(self) -> float:
        return sum(peak_rss_mb_of(p.proc.pid) for p in self.procs)

    def cpu_s(self) -> float:
        """CPU time used so far by the router and both workers."""
        return sum(cpu_seconds_of(p.proc.pid) for p in self.procs)

    def healthz(self, node: str) -> dict:
        conn = http.client.HTTPConnection(*self.urls[node], timeout=60)
        try:
            return json.loads(_request(conn, "/v1/healthz", None)[2])
        finally:
            conn.close()

    def mark(self, n: int) -> None:
        """Mark the traced workers' span records for the n-th time and wait
        until both have done so."""
        for proc in self.procs[:len(self.spans)]:
            proc.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        for path in self.spans:
            while not Path(f"{path}.mark{n}").exists():
                if time.monotonic() > deadline:
                    raise BenchError(f"{path.name}: mark {n} never taken")
                time.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM every process at once, then wait for each to exit."""
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()


# -- the client --------------------------------------------------------------
def _request(conn: http.client.HTTPConnection, path: str, body: Optional[bytes]):
    method = "GET" if body is None else "POST"
    conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.getheader("X-Repro-Worker"), resp.read()


def _request_once(address: Tuple[str, int], path: str, body: bytes):
    """One request on a connection of its own."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        return _request(conn, path, body)
    finally:
        conn.close()


@dataclass
class Sample:
    cls: str  # "hit" | "miss" | "write"
    seconds: float
    request_bytes: int
    response_bytes: int


@dataclass
class Client:
    node: str
    inputs: dict
    answers: List[tuple]
    fleet: Fleet
    seed: int
    conn: http.client.HTTPConnection = None
    rng: np.random.Generator = None
    session: dict = None
    seen: set = field(default_factory=set)
    last: Optional[int] = None
    writes: int = 0
    attempted: int = 0
    checks: List[Tuple[dict, int]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    busy_s: float = 0.0

    def __post_init__(self) -> None:
        index = NODES.index(self.node)
        self.rng = np.random.default_rng([self.seed, index])
        # The weighting of repro.cluster.loadtest.request_mix: rank i has
        # weight 1/(i+1).
        weights = 1.0 / np.arange(1, POOL_PER_CLIENT + 1)
        self.weights = weights / weights.sum()
        self.bodies = [solve_body(d) for d in self.inputs["pool"]]
        self.conn = http.client.HTTPConnection(*self.fleet.router, timeout=60)

    def open_session(self) -> None:
        d = self.inputs["session"]
        body = json.dumps({"schema": 1, "instance": d, "solver": None}).encode()
        status, worker, raw = _request(self.conn, "/v1/dynamic/start", body)
        if status != 200 or worker != self.node:
            raise BenchError(f"session start: HTTP {status} on {worker}: {raw[:200]!r}")
        self.session = {"id": json.loads(raw)["session_id"], "requests": list(d["requests"]),
                        "next": 0}

    def warm_up(self) -> None:
        status, _w, raw = _request(self.conn, "/v1/solve", solve_body(self.inputs["session"]))
        if status != 200:
            raise BenchError(f"warm-up solve: HTTP {status}")

    def fill_cache(self) -> None:
        """Untimed: solve the pool's top ranks on the worker, one fresh
        connection each, so the timed loop starts on a full cache, as a
        worker that has been serving for a while would."""
        size = self.fleet.healthz(self.node)["stats"]["cache"]["max_entries"]
        for k in reversed(range(min(size, POOL_PER_CLIENT))):
            status, _w, raw = _request_once(self.fleet.urls[self.node], "/v1/solve", self.bodies[k])
            reply = json.loads(raw)
            if status != 200 or (reply["solver"], reply["n_replicas"]) != self.answers[k]:
                raise BenchError(f"cache fill: HTTP {status} {raw[:200]!r}")
            self.seen.add(k)

    def round(self, timed: List[Sample]) -> None:
        for _ in range(ROUND):
            try:
                self.step(timed)
            except (ValueError, KeyError, TypeError) as exc:  # a malformed reply
                self.problems.append(f"{type(exc).__name__}: {exc}")

    def step(self, timed: List[Sample]) -> None:
        self.attempted += 1
        if self.rng.random() < WRITE_SHARE:
            self._write(timed)
        else:
            self._solve(int(self.rng.choice(POOL_PER_CLIENT, p=self.weights)), timed)

    def _solve(self, k: int, timed: List[Sample]) -> None:
        body = self.bodies[k]
        t0 = time.perf_counter()
        try:
            status, _w, raw = _request(self.conn, "/v1/solve", body)
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.problems.append(f"solve: {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - t0
        self.busy_s += elapsed
        first, repeat = k not in self.seen, self.last == k
        self.seen.add(k)
        self.last = k
        if status != 200:
            self.problems.append(f"solve: HTTP {status}")
            return
        reply = json.loads(raw)
        hit = reply["diagnostics"]["cache_hit"]
        got = (reply.get("solver"), reply.get("n_replicas"))
        if reply["status"] != "ok" or got != self.answers[k]:
            self.problems.append(f"solve: {reply['status']} {got}, expected {self.answers[k]}")
        elif (first and hit) or (repeat and not hit):
            self.problems.append(f"solve: cache_hit={hit} on a {'first' if first else 'repeat'} request")
        else:
            timed.append(Sample("hit" if hit else "miss", elapsed, len(body), len(raw)))

    def _write(self, timed: List[Sample]) -> None:
        session = self.session
        events = self.inputs["events"][session["next"] % len(self.inputs["events"])]
        session["next"] += 1
        body = json.dumps({"schema": 1, "session_id": session["id"], "events": events}).encode()
        self.last = None
        t0 = time.perf_counter()
        try:
            status, _w, raw = _request(self.conn, "/v1/dynamic/apply", body)
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.problems.append(f"write: {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - t0
        self.busy_s += elapsed
        for e in events:
            session["requests"][e["client"]] = e["requests"]
        reply = json.loads(raw) if status == 200 else {}
        if status != 200 or not reply.get("ok"):
            self.problems.append(f"write: HTTP {status} {raw[:200]!r}")
            return
        timed.append(Sample("write", elapsed, len(body), len(raw)))
        self.writes += 1
        if self.writes % WRITE_CHECK_EVERY == 0:
            state = dict(self.inputs["session"], requests=list(session["requests"]))
            self.checks.append((state, reply["cost"]))

    def verify_writes(self) -> None:
        """Untimed, after the timed loop: for each sampled write, solve the
        session's state on its worker; the placement must be valid and cost
        what the write reply said, which is the Multiple-NoD optimum."""
        from repro.algorithms import multiple_nod_dp
        from repro.core.validation import placement_violations
        from repro.instances.io import instance_from_dict, placement_from_dict

        for state, cost in self.checks:
            status, _w, raw = _request_once(self.fleet.urls[self.node], "/v1/solve",
                                            solve_body(state))
            if status != 200:
                self.problems.append(f"placement fetch: HTTP {status}")
                continue
            reply = json.loads(raw)
            inst = instance_from_dict(state)
            placement = placement_from_dict(reply["placement"])
            if placement_violations(inst, placement):
                self.problems.append("write: placement violates the instance")
            elif not placement.n_replicas == reply["n_replicas"] == cost == multiple_nod_dp(inst).n_replicas:
                self.problems.append(f"write: cost {cost} is not the optimum")


def _run_rounds(clients: List[Client], seconds: float, yard: Yardstick) -> Tuple[List[Sample], float]:
    samples: List[Sample] = []
    start_busy = [c.busy_s for c in clients]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        yard.sample()
        per_client = [[] for _ in clients]
        threads = [threading.Thread(target=c.round, args=(out,))
                   for c, out in zip(clients, per_client)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for out in per_client:
            samples.extend(out)
    busy = sum(c.busy_s - b for c, b in zip(clients, start_busy)) / len(clients)
    return samples, busy


def _fleet_with_clients(workdir: Path, traced: bool, inputs, answers, seed):
    fleet = Fleet(workdir, traced)
    try:
        clients = [Client(node, inputs[node], answers[node], fleet, seed) for node in NODES]
        for c in clients:
            c.open_session()
            c.warm_up()
    except BaseException:
        fleet.stop()
        raise
    return fleet, clients


def _fill(clients: List[Client]) -> None:
    errors = []

    def fill(c: Client) -> None:
        try:
            c.fill_cache()
        except (BenchError, OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            errors.append(exc)

    threads = [threading.Thread(target=fill, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError(f"cache fill failed: {errors[0]}")


def _check(out: Outcome, clients: List[Client]) -> None:
    for c in clients:
        for problem in c.problems:
            out.fail(problem)
        out.attempted += c.attempted
        c.conn.close()


def _classes(samples: List[Sample]) -> Dict[str, List[float]]:
    by: Dict[str, List[float]] = {"hit": [], "miss": [], "write": []}
    for s in samples:
        by[s.cls].append(s.seconds)
    return by


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    inputs = generate(seed)
    check_pin("serve-mix", seed, inputs, generate)
    answers = {node: expected_answers(inputs[node]["pool"]) for node in NODES}
    yard = Yardstick()
    workdir = WORK_DIR / f"serve-mix-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if not trace:
            return _run_untraced(out, workdir, seed, seconds, inputs, answers, yard)
        return _run_traced(out, workdir, seed, seconds, inputs, answers, yard)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_untraced(out, workdir, seed, seconds, inputs, answers, yard) -> Outcome:
    setups, yards = [], []
    for i in range(SETUP_RUNS):
        yards.append(startup_yardstick_s())
        t0 = time.perf_counter()
        fleet, clients = _fleet_with_clients(workdir / f"setup-{i}", False, inputs, answers, seed)
        setups.append(time.perf_counter() - t0)
        if i < SETUP_RUNS - 1:
            for c in clients:
                c.conn.close()
            fleet.stop()
    yards.append(startup_yardstick_s())
    try:
        _fill(clients)
        cpu = fleet.cpu_s()
        samples, busy = _run_rounds(clients, seconds, yard)
        cpu = fleet.cpu_s() - cpu
        rss = fleet.rss_mb() + self_peak_rss_mb()
        for c in clients:
            c.verify_writes()
    finally:
        fleet.stop()
    _check(out, clients)
    by = _classes(samples)
    # Latencies and rate are not normalised: about 40 ms of each request
    # is the TCP delayed-ACK timer, which does not follow the CPU
    # (README.md).  The workers' CPU time does.
    timed = {
        "ops_per_s": len(samples) / busy,
        "cold.p50_ms": p50(by["miss"]) * 1e3,
        "warm.p50_ms": p50(by["hit"]) * 1e3,
        "all.p90_ms": p90([s.seconds for s in samples]) * 1e3,
    }
    timed = {name: (value, value) for name, value in timed.items()}
    cpu_ms = cpu / len(samples) * 1e3
    timed["cpu_per_op_ms"] = (yard.time_value(cpu_ms), cpu_ms)
    end_to_end(out, yard, setup=(setups, yards), rss_mb=rss, timed=timed)
    out.info.append(f"{'write.p50_ms (not gated)':<28} {p50(by['write']) * 1e3:12.4f} ms")
    out.info.append(f"requests: {len(by['hit'])} hits, {len(by['miss'])} misses, "
                    f"{len(by['write'])} writes")
    return out


def _probe_hops(fleet: Fleet, inputs):
    """Routed and direct latency of the same cache hit, and the worker's
    own service time, for a few pool instances."""
    router = http.client.HTTPConnection(*fleet.router, timeout=60)
    direct = {node: http.client.HTTPConnection(*fleet.urls[node], timeout=60) for node in NODES}
    hops, http_ms = [], []
    try:
        for node in NODES:
            for inst in inputs[node]["pool"][:8]:
                body = solve_body(inst)
                _request(router, "/v1/solve", body)  # make sure it is cached
                t0 = time.perf_counter()
                s1, worker, _raw = _request(router, "/v1/solve", body)
                routed = time.perf_counter() - t0
                t0 = time.perf_counter()
                s2, _w, raw = _request(direct[worker], "/v1/solve", body)
                alone = time.perf_counter() - t0
                reply = json.loads(raw)
                if s1 != 200 or s2 != 200 or not reply["diagnostics"]["cache_hit"]:
                    raise BenchError("hop probe did not hit the cache")
                hops.append(routed - alone)
                http_ms.append(alone - reply["diagnostics"]["service_ms"] / 1e3)
    finally:
        router.close()
        for conn in direct.values():
            conn.close()
    return hops, http_ms


def _counters(fleet: Fleet) -> Tuple[int, int, dict]:
    """Evictions summed over the workers, router retries, router health."""
    evictions = sum(fleet.healthz(n)["stats"]["cache"]["evictions"] for n in NODES)
    health = json.loads(_request_once(fleet.router, "/v1/healthz", None)[2])
    return evictions, sum(w["retries"] for w in health["workers"]), health


def _run_traced(out, workdir, seed, seconds, inputs, answers, yard) -> Outcome:
    fleet, clients = _fleet_with_clients(workdir / "untraced", False, inputs, answers, seed)
    try:
        _fill(clients)
        base, _busy = _run_rounds(clients, seconds / 2, yard)
        for c in clients:
            c.verify_writes()
    finally:
        fleet.stop()
    _check(out, clients)
    fleet, clients = _fleet_with_clients(workdir / "traced", True, inputs, answers, seed)
    try:
        _fill(clients)
        # The per-layer figures cover only the timed rounds: the spans
        # between the two marks, the counters' change across them.
        evictions, retries, _health = _counters(fleet)
        fleet.mark(1)
        samples, _busy = _run_rounds(clients, seconds / 2, yard)
        fleet.mark(2)
        after = _counters(fleet)
        evictions, retries, health = after[0] - evictions, after[1] - retries, after[2]
        for c in clients:
            c.verify_writes()
        hops, http_ms = _probe_hops(fleet, inputs)
    finally:
        fleet.stop()
    _check(out, clients)
    totals = LayerTotals()
    for path in fleet.spans:
        wire = json.loads(path.read_text())
        if not wire["restored"]:
            out.problems.append(f"{path.name}: a traced function was left wrapped")
        totals.add(Tracer.from_wire(wire).window(0, 1))
    solves = [s for s in samples if s.cls != "write"]
    n = len(samples)
    measured = {
        "service.cache.evictions": evictions / n,
        "service.schema.request_kb": sum(s.request_bytes for s in solves) / len(solves) / 1024,
        "service.schema.response_kb": sum(s.response_bytes for s in solves) / len(solves) / 1024,
        # Raw, like the request latencies: the hop carries the
        # delayed-ACK wait of the kept-alive router connection.
        "service.daemon.http_ms": p50(http_ms) * 1e3,
        "cluster.router.hop_ms": p50(hops) * 1e3,
        "cluster.router.retries": retries / n,
        "cluster.ring.max_share": max(w["ring_share"] for w in health["workers"]),
        "loadgen.trace_overhead_pct": overhead_pct(
            p50(_classes(base)["miss"]), p50(_classes(samples)["miss"])),
    }
    out.layers = totals.metrics(n, yard, measured)
    out.gaps = totals.gaps
    return out
