"""Self-test of the benchmark's traced run and oracle.

Run from the repository root::

    python3 -m pytest perfbench -q

The cases here are small versions of the benchmark's workloads (same
classes, smaller sizes), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import cases  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import LayerTracer, layer_modules  # noqa: E402

from repro.config import KiB  # noqa: E402
from repro.core import MAX_OP, SUM_OP  # noqa: E402
from repro.io import CollectiveHints  # noqa: E402
from repro.obs import metrics as obs  # noqa: E402
from repro.pfs import datasource  # noqa: E402
from repro.workloads.climate import (interleaved_workload,  # noqa: E402
                                     sparse_subset_workload)

#: ``sum(self_s) + unattributed_s`` must match the wall time measured
#: around the traced operation within this share of it, plus 1 ms.
SUM_TOLERANCE = 0.01
SEED = 5


def small_shuffle() -> cases.Case:
    case = cases.Case(name="small-shuffle", nprocs=48, nodes=2,
                      op=SUM_OP.with_cost(256.0), op_name="sum",
                      workload=lambda p: interleaved_workload(
                          p, per_rank_bytes=32 * KiB))
    case.build(SEED)
    return case


def small_faulted() -> cases.FaultedCase:
    case = cases.FaultedCase(
        name="small-faulted", nprocs=12, nodes=1, op=SUM_OP.with_cost(4000.0), op_name="sum",
        stripe_size=16 * KiB,
        hints=CollectiveHints(cb_buffer_size=64 * KiB,
                              aggregators_per_node=1),
        rates=dict(ost_fail_rate=0.05, corrupt_ost_rate=0.05,
                   corrupt_msg_rate=0.05),
        plan_seed=SEED,
        workload=lambda p: interleaved_workload(p, per_rank_bytes=32 * KiB))
    case.build(SEED)
    return case


@pytest.fixture(scope="module")
def tracer() -> LayerTracer:
    return LayerTracer(layer_modules(), layers._meters())


def _observed_run(case, tracer=None):
    """One operation with metrics and timelines on: (row, snapshot, wall)."""
    datasource.GLOBAL_BLOCK_CACHE.clear()
    with obs.override_obs(True):
        if tracer is None:
            t0 = time.perf_counter()
            row = case.run(timeline=True)
            return row, obs.current().snapshot(), time.perf_counter() - t0
        with tracer:
            tracer.reset()
            t0 = time.perf_counter()
            tracer.start()
            row = case.run(timeline=True)
            tracer.stop()
            wall = time.perf_counter() - t0
        return row, obs.current().snapshot(), wall


# -- wrapping ----------------------------------------------------------------

def test_install_replaces_every_module_level_binding(tracer):
    import repro.core.api as api
    import repro.io as io
    import repro.io.twophase as twophase

    original = twophase.collective_read
    assert api.collective_read is original  # imported by name
    with tracer:
        wrapper = twophase.collective_read
        assert wrapper is not original
        assert api.collective_read is wrapper
        assert io.collective_read is wrapper
        unwrapped = [f"{mod.__name__}.{name}"
                     for mod in list(sys.modules.values())
                     if isinstance(mod, types.ModuleType)
                     for name, obj in vars(mod).items()
                     if isinstance(obj, types.FunctionType)
                     and obj in tracer._wrappers]
        assert not unwrapped
    assert twophase.collective_read is original
    assert api.collective_read is original
    assert io.collective_read is original


def _toy_module(name: str, source: str) -> types.ModuleType:
    mod = types.ModuleType(name)
    exec(source, vars(mod))
    sys.modules[name] = mod
    return mod


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_generator_entry_points_are_timed_per_resume_step():
    # ``spin`` belongs to no layer, so its time goes to whichever layer
    # is current: the generator's, while one of its steps runs.
    inner = _toy_module("toy_inner", """
def worker(spin):
    spin(0.02)
    got = yield "first"
    spin(0.02)
    yield got
    return "done"
""")
    outer = _toy_module("toy_outer", """
import toy_inner
def driver(spin):
    spin(0.01)
    result = yield from toy_inner.worker(spin)
    return result
""")
    try:
        t = LayerTracer({"inner": [inner], "outer": [outer]})
        with t:
            t.start()
            gen = outer.driver(_spin)
            assert next(gen) == "first"
            _spin(0.03)  # the caller's own time between resumes
            assert gen.send("second") == "second"
            with pytest.raises(StopIteration) as stop:
                next(gen)
            t.stop()
        assert stop.value.value == "done"
        own = t.self_seconds()
        assert 0.04 <= own["inner"] < 0.05
        assert 0.01 <= own["outer"] < 0.02
        assert t.unattributed_s >= 0.03
        assert t.calls("toy_inner.worker") == 1
        assert t.depth == 0
    finally:
        del sys.modules["toy_inner"], sys.modules["toy_outer"]


def test_generator_wrapper_forwards_thrown_exceptions():
    mod = _toy_module("toy_throw", """
def catcher():
    try:
        yield 1
    except KeyError:
        yield "caught"
""")
    try:
        t = LayerTracer({"toy": [mod]})
        with t:
            gen = mod.catcher()
            assert next(gen) == 1
            assert gen.throw(KeyError()) == "caught"
            gen.close()
        assert t.depth == 0
    finally:
        del sys.modules["toy_throw"]


# -- the traced run on real workloads ----------------------------------------

@pytest.mark.parametrize("make", [small_shuffle, small_faulted])
def test_self_times_and_unattributed_sum_to_the_traced_wall(make, tracer):
    case = make()
    _observed_run(case, tracer)  # warm
    _, _, wall = _observed_run(case, tracer)
    total = sum(tracer.self_seconds().values()) + tracer.unattributed_s
    assert abs(total - wall) <= SUM_TOLERANCE * wall + 1e-3
    assert tracer.depth == 0


@pytest.mark.parametrize("make", [small_shuffle, small_faulted])
def test_traced_run_repeats_every_exact_counter(make, tracer):
    case = make()
    plain_row, plain_snap, _ = _observed_run(case)
    traced_row, traced_snap, _ = _observed_run(case, tracer)
    assert traced_snap == plain_snap
    assert plain_snap["counters"]["sim.events"] > 0
    # sim_makespan_s and cc_speedup, also against the end-to-end set-up
    # (metrics and timelines off).
    datasource.GLOBAL_BLOCK_CACHE.clear()
    bare = case.run()
    for row in (plain_row, traced_row):
        assert (row.cc_sim_s, row.speedup) == (bare.cc_sim_s, bare.speedup)
        assert case.check(row) is None


def test_faulted_case_exercises_faults_and_integrity(tracer):
    case = small_faulted()
    _, snap, _ = _observed_run(case, tracer)
    counters = snap["counters"]
    assert layers._total(counters, "faults.inject:") > 0
    assert layers._total(counters, "faults.detect:") > 0
    assert counters["integrity.blocks_verified"] > 0
    assert tracer.metered(layers.CRC) > 0
    assert tracer.self_seconds()["integrity"] > 0


def test_traced_loop_reports_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    loop = run.Loop(small_shuffle(), datasource)
    values, units = layers.traced(loop, seconds=0.0)
    assert loop.failed == 0 and loop.attempted == 2
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert values["sim.events"] > 0 and values["mpi.messages"] > 0


# -- the oracle ----------------------------------------------------------------

def test_oracle_holds_sums_to_the_tolerance():
    case = small_shuffle()
    datasource.GLOBAL_BLOCK_CACHE.clear()
    row = case.run()
    assert case.check(row) is None
    off = 1 + 10 * cases.sum_tolerance(case.workload.gsub.n_elements)
    for bad in (cases.Row(row.trad_sim_s, row.cc_sim_s,
                          row.trad_result * off, row.cc_result),
                cases.Row(row.trad_sim_s, row.cc_sim_s,
                          row.trad_result, row.cc_result * off)):
        assert case.check(bad) is not None
    # Different summation orders may differ in the last bit.
    ulp = cases.Row(row.trad_sim_s, row.cc_sim_s, row.trad_result,
                    row.cc_result * (1 + 2 ** -52))
    assert case.check(ulp) is None


def test_oracle_holds_max_exactly():
    case = cases.Case(name="small-max", nprocs=8, nodes=1, op=MAX_OP,
                      op_name="max",
                      workload=lambda p: sparse_subset_workload(
                          p, scale=0.001))
    case.build(SEED)
    datasource.GLOBAL_BLOCK_CACHE.clear()
    row = case.run()
    assert case.check(row) is None
    assert row.cc_result == row.trad_result == case.expected
    lower = float(np.nextafter(np.float32(row.cc_result), np.float32(0)))
    assert case.check(cases.Row(row.trad_sim_s, row.cc_sim_s,
                                row.trad_result, lower)) is not None


def test_seed_shifts_the_field():
    idx = np.arange(1000, dtype=np.int64)
    assert (cases.shifted_field(1)(idx) != cases.shifted_field(2)(idx)).any()
    assert (cases.shifted_field(3)(idx) == cases.shifted_field(3)(idx)).all()
