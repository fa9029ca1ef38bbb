"""In-memory span tracer installed around the public functions of ``repro``.

Each target is wrapped where its caller looks it up — for example
``repro.runner.registry.lower_bound`` (the name the registry calls),
not ``repro.core.bounds.lower_bound`` — so the program runs its own
code paths and only the lookups change.  Solver functions are wrapped
in their registry entries, which is where the service finds them.

A span records (id, parent, name, start, end, request id, extra).  The
request id is the id of the outermost span of the same thread, so all
spans of one operation share it.  A span's self time is its duration
minus the durations of its direct children; spans of one thread nest,
so the self times of one operation add up to its duration.

Nothing is installed until :meth:`Tracer.install` runs, and
:meth:`Tracer.restore` puts every original back.  :meth:`Tracer.mark`
notes a point between operations, so that a process traced for its whole
life can report only the spans of a window (:meth:`Tracer.window`).
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def _cells_min_plus(args: tuple, result: object) -> int:
    return len(args[0]) + len(args[1])


def _cells_absorb(args: tuple, result: object) -> int:
    return len(args[0])


def _wal_bytes(args: tuple, result: object) -> int:
    return len(args[2])  # WriteAheadLog.append(self, seq, payload)


def _reuse(args: tuple, result: object) -> Tuple[int, int]:
    stats = result[1]
    return (stats.nodes_reused, stats.nodes_total)


def _cache_hit(args: tuple, result: object) -> bool:
    return result is not None


_FLAT = "core.arrays.flat_tree"

#: (module, attribute path, span name, extra probe) — every public
#: function the benchmark traces, at the place its caller looks it up.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.service.facade", "PlacementService.solve", "service.facade.solve", None),
    ("repro.service.facade", "instance_fingerprint", "service.fingerprint.instance", None),
    ("repro.service.facade", "select_solver", "service.selection.select", None),
    ("repro.service.cache", "ResultCache.get", "service.cache.get", _cache_hit),
    ("repro.service.schema", "SolveRequest.from_wire", "service.schema.decode", None),
    ("repro.service.schema", "SolveResponse.to_wire", "service.schema.encode", None),
    ("repro.runner.registry", "solve", "runner.registry.solve", None),
    ("repro.runner.registry", "lower_bound", "core.bounds.lower_bound", None),
    ("repro.runner.registry", "placement_violations", "core.validation.check", None),
    ("repro.algorithms.feasibility", "multiple_assignment",
     "algorithms.feasibility.multiple_assignment", None),
    ("repro.algorithms.multiple_nod_dp", "min_plus_mono", "core.kernels.min_plus", _cells_min_plus),
    ("repro.algorithms.multiple_nod_dp", "absorb_step", "core.kernels.absorb", _cells_absorb),
    ("repro.dynamic.incremental", "min_plus_mono", "core.kernels.min_plus", _cells_min_plus),
    ("repro.dynamic.incremental", "absorb_step", "core.kernels.absorb", _cells_absorb),
    ("repro.algorithms.multiple_nod_dp", "flat_tree", _FLAT, None),
    ("repro.algorithms.single_nod", "flat_tree", _FLAT, None),
    ("repro.algorithms.greedy", "flat_tree", _FLAT, None),
    ("repro.algorithms.feasibility", "flat_tree", _FLAT, None),
    ("repro.dynamic.incremental", "flat_tree", _FLAT, None),
    ("repro.storage.store", "StateStore.append", "storage.store.append", None),
    ("repro.storage.store", "StateStore.snapshot_now", "storage.store.snapshot", None),
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal.append", _wal_bytes),
    ("repro.dynamic.engine", "DynamicPlacement.apply", "dynamic.engine.apply", None),
    ("repro.dynamic.engine", "apply_events_batch", "dynamic.events.apply_batch", None),
    ("repro.dynamic.incremental", "IncrementalSingleNod.solve", "dynamic.incremental.solve", _reuse),
    ("repro.dynamic.incremental", "IncrementalNodDP.solve", "dynamic.incremental.solve", _reuse),
    ("repro.replay.traces", "DemandTrace.levels", "replay.traces.levels", None),
    ("repro.replay.runner", "sampled_violations", "scenarios.sampled.check", None),
]

#: Registry entries whose solver function is traced.
SOLVERS: Dict[str, str] = {
    "multiple-nod-dp": "algorithms.multiple_nod_dp",
    "single-nod": "algorithms.single_nod",
    "single-gen": "algorithms.single_gen",
    "multiple-greedy": "algorithms.multiple_greedy",
}


@dataclasses.dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    rid: int
    extra: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def current_targets() -> List[object]:
    """The objects each target currently resolves to (for hygiene checks)."""
    from repro.runner import registry

    found = []
    for module, path, _name, _probe in TARGETS:
        owner, attr = _resolve(module, path)
        found.append(vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr))
    found.extend(registry.get_solver(name).fn for name in SOLVERS)
    return found


class Tracer:
    """Collects spans in memory; installs and restores the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []
        self.flat_before: Dict[str, int] = {}
        self.flat_after: Dict[str, int] = {}
        #: (number of spans recorded, flat-tree cache counters) per mark.
        self.marks: List[Tuple[int, Dict[str, int]]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span around a block; the block may set its ``extra``."""
        stack = self._stack()
        sid = next(self._ids)
        parent, rid = stack[-1] if stack else (None, sid)
        stack.append((sid, rid))
        record = Span(sid, parent, name, time.perf_counter(), 0.0, rid)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _wrap(self, fn: Callable, name: str, probe: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if probe is not None:
                    record.extra = probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------
    def install(self) -> None:
        from repro.core.arrays import flat_cache_stats
        from repro.runner import registry

        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, path, name, probe in TARGETS:
            owner, attr = _resolve(module, path)
            if isinstance(owner, type):
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new: object = classmethod(self._wrap(raw.__func__, name, probe))
                else:
                    new = self._wrap(raw, name, probe)
            else:
                raw = getattr(owner, attr)
                new = self._wrap(raw, name, probe)
            setattr(owner, attr, new)
            self._restore.append(
                lambda owner=owner, attr=attr, raw=raw: setattr(owner, attr, raw)
            )
        for solver, name in SOLVERS.items():
            spec = registry.get_solver(solver)
            registry._REGISTRY[solver] = dataclasses.replace(
                spec, fn=self._wrap(spec.fn, name, None)
            )
            self._restore.append(
                lambda solver=solver, spec=spec: registry._REGISTRY.__setitem__(solver, spec)
            )
        self.flat_before = flat_cache_stats()

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        from repro.core.arrays import flat_cache_stats

        if self._restore:
            self.flat_after = flat_cache_stats()
        while self._restore:
            self._restore.pop()()

    def mark(self) -> None:
        """Note the current point; call it while no operation is running."""
        from repro.core.arrays import flat_cache_stats

        self.marks.append((len(self.spans), flat_cache_stats()))

    # -- analysis ------------------------------------------------------
    def window(self, first: int, last: int) -> "Tracer":
        """The spans recorded between two marks, as a tracer of their own."""
        (lo, before), (hi, after) = self.marks[first], self.marks[last]
        part = Tracer()
        part.spans = self.spans[lo:hi]
        part.flat_before, part.flat_after = before, after
        return part

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus its direct children's durations."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return {s.sid: s.duration - child[s.sid] for s in self.spans}

    def self_time_gaps(self) -> List[float]:
        """Per root span: |sum of self times of its request - its duration|."""
        own = self.self_times()
        total = defaultdict(float)
        for s in self.spans:
            total[s.rid] += own[s.sid]
        return [abs(total[s.sid] - s.duration) for s in self.spans if s.parent is None]

    def to_wire(self) -> dict:
        return {
            "spans": [dataclasses.astuple(s) for s in self.spans],
            "flat": [self.flat_before, self.flat_after],
            "marks": self.marks,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "Tracer":
        tracer = cls()
        tracer.spans = [Span(*row) for row in data["spans"]]
        tracer.flat_before, tracer.flat_after = data["flat"]
        tracer.marks = [(n, flat) for n, flat in data.get("marks", [])]
        return tracer
