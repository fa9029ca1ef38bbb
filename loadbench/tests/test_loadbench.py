"""Self-checks of the benchmark: the yardstick and the tracer.

    python3 -m pytest loadbench/tests -q
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import solve_large  # noqa: E402
from common import LayerTotals, Outcome, end_to_end  # noqa: E402
from tracer import Tracer, current_targets  # noqa: E402
from yardstick import REFERENCE_MS, REFERENCE_STARTUP_S, Yardstick, normalise_setup  # noqa: E402


def _tiny_loop(monkeypatch, workload="solve-multiple"):
    monkeypatch.setattr(solve_large, "N_INTERNAL", 20)
    monkeypatch.setattr(solve_large, "N_CLIENTS", 40)
    data = solve_large.generate(workload, 7)
    from repro.instances.io import instance_from_dict
    from repro.service import PlacementService, SolveRequest

    r = PlacementService().solve(SolveRequest(instance=instance_from_dict(data)))
    out = Outcome()
    return solve_large._Loop(data, (r.status, r.solver, r.n_replicas), out), out


def _unwrapped(objs):
    return all(not hasattr(getattr(o, "__func__", o), "__wrapped__") for o in objs)


# -- yardstick ---------------------------------------------------------------
def test_yardstick_imports_nothing_from_the_program():
    tree = ast.parse((BENCH_DIR / "yardstick.py").read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [m for m in names if m.split(".")[0] == "repro"]
    probe = "import sys, yardstick; yardstick.yardstick_ms(1000); print('repro' in sys.modules)"
    got = subprocess.run([sys.executable, "-c", probe], cwd=BENCH_DIR,
                         capture_output=True, text=True, check=True).stdout
    assert got.strip() == "False"


def test_normalisation_undoes_a_uniform_slowdown():
    op_ms = 250.0
    yard = Yardstick()
    yard.samples = [REFERENCE_MS * 1.5] * 5
    assert yard.time_value(op_ms * 1.5) == pytest.approx(op_ms)
    assert yard.times([(op_ms * 1.5, 2)]) == [pytest.approx(op_ms)]


def test_setup_normalisation_undoes_a_uniform_slowdown():
    setups, yards = [0.4, 0.5, 0.45], [REFERENCE_STARTUP_S] * 4
    slow = normalise_setup([t * 1.5 for t in setups], [y * 1.5 for y in yards])
    assert slow == pytest.approx(normalise_setup(setups, yards)) == pytest.approx(0.45)


def test_each_operation_is_normalised_by_the_samples_around_it():
    yard = Yardstick()
    # The host runs at reference speed, then 1.5x slower from sample 10 on.
    yard.samples = [REFERENCE_MS] * 10 + [REFERENCE_MS * 1.5] * 10
    ops = [(0.25, 2), (0.25 * 1.5, 17)]
    assert yard.times(ops) == [pytest.approx(0.25), pytest.approx(0.25)]


def test_raw_yardstick_is_reported_per_run():
    yard = Yardstick()
    yard.samples = [30.0, 31.0, 31.0, 50.0]
    out = Outcome()
    cold = [(0.1, 1), (0.1, 2), (0.1, 3)]
    cpu = [(0.062, 1), (0.062, 2), (0.062, 3)]
    timed = solve_large.timed_metrics(yard, cold, cold, cpu)
    end_to_end(out, yard, setup=([0.5, 0.7, 0.6], [0.4, 0.4]), rss_mb=10.0, timed=timed)
    assert any(line.startswith("loadgen.yardstick_ms") and "31.0000" in line
               for line in out.info)
    assert out.metrics["setup_s"] == pytest.approx(0.6 * REFERENCE_STARTUP_S / 0.4)
    assert out.metrics["cpu_per_op_ms"] == pytest.approx(62.0 * REFERENCE_MS / 31.0)
    assert any(line.startswith("cpu_per_op_ms") and "raw 62.0000" in line for line in out.info)
    totals = LayerTotals()
    totals.add(Tracer())
    layers = totals.metrics(1, yard, {})
    assert layers["loadgen.yardstick_ms"] == 31.0


# -- input pinning -----------------------------------------------------------
def test_every_seed_is_checked_against_a_recorded_digest(monkeypatch, tmp_path):
    import common

    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"w": {"0": common.digest([0]), "1": common.digest([1])}}))
    monkeypatch.setattr(common, "PINS", pins)
    common.check_pin("w", 1, [1], lambda s: [s])
    common.check_pin("w", 7, [7], lambda s: [s])  # checked through pinned seed 1
    with pytest.raises(common.BenchError):
        common.check_pin("w", 0, [5], lambda s: [s])
    with pytest.raises(common.BenchError):  # the generators changed
        common.check_pin("w", 8, [8], lambda s: [s, "changed"])
    with pytest.raises(common.BenchError):
        common.check_pin("other", 0, [0], lambda s: [s])


# -- tracing hygiene ---------------------------------------------------------
def test_install_wraps_every_target_and_restore_puts_originals_back():
    pristine = current_targets()
    assert _unwrapped(pristine)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = current_targets()
        assert all(a is not b for a, b in zip(wrapped, pristine))
        assert not _unwrapped(wrapped)
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(current_targets(), pristine))


def test_untraced_run_carries_no_wrapper(monkeypatch):
    loop, out = _tiny_loop(monkeypatch)
    seen = []
    real_solve = loop.svc.solve

    def spy(request):  # instance attribute: the class target stays untouched
        seen.append(current_targets())
        return real_solve(request)

    monkeypatch.setattr(loop.svc, "solve", spy)
    loop.run(0.0, Yardstick())
    assert seen and all(_unwrapped(targets) for targets in seen)
    assert out.failed == 0 and out.attempted == 6


def test_self_times_of_an_operation_sum_to_its_duration(monkeypatch):
    loop, out = _tiny_loop(monkeypatch)
    tracer = Tracer()
    tracer.install()
    try:
        loop.run(0.0, Yardstick(), tracer)
    finally:
        tracer.restore()
    assert out.failed == 0
    roots = [s for s in tracer.spans if s.parent is None]
    assert {s.name for s in roots} == {"cold", "hit"}
    assert len(tracer.self_time_gaps()) == len(roots)
    assert max(tracer.self_time_gaps()) < 1e-9
    names = {s.name for s in tracer.spans}
    assert {"algorithms.multiple_nod_dp", "core.kernels.min_plus",
            "service.fingerprint.instance"} <= names
    again = Tracer.from_wire(tracer.to_wire())
    assert again.self_time_gaps() == tracer.self_time_gaps()


def test_window_keeps_only_the_spans_between_two_marks():
    tracer = Tracer()
    with tracer.span("before"):
        pass
    tracer.mark()
    with tracer.span("inside"):
        with tracer.span("child"):
            pass
    tracer.mark()
    with tracer.span("after"):
        pass
    part = Tracer.from_wire(json.loads(json.dumps(tracer.to_wire()))).window(0, 1)
    assert [s.name for s in part.spans] == ["child", "inside"]
    assert part.flat_before == tracer.marks[0][1] and part.flat_after == tracer.marks[1][1]


def test_benchmark_json_lists_what_the_runs_print():
    import run

    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    from common import LAYER_UNITS

    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    assert set(pins) == set(run.WORKLOADS)
