#!/usr/bin/env python3
"""Iterative analysis + fault tolerance (the paper's future work, §VI).

Sweeps a moving window over the time axis of a climate variable,
computing per-step moments with :class:`IterativeAnalysis` — the plan
is exchanged once and reused (shifted) for every later step — and then
repeats one step under a seeded fault plan that crashes an aggregator
mid-job, to show the fault-tolerant runtime (repro.faults) reproducing
the identical answer, slower.

Run:  python examples/iterative_timeseries.py
"""

import numpy as np

from repro import (CollectiveHints, DatasetSpec, Kernel, Machine, MiB,
                   MOMENTS_OP, ObjectIO, Subarray, hopper_like, mpi_run)
from repro.core import IterativeAnalysis, object_get, sliding_windows
from repro.dataspace import block_partition
from repro.faults import FaultInjector, FaultPlan, resilient_object_get
from repro.workloads.climate import climate_field

NPROCS = 48
#: Seeded aggregator crashes: each aggregator fail-stops partway through
#: its round-0 windows with this probability (decisions are a pure
#: function of the seed, so the run replays exactly).
CRASH_PLAN = FaultPlan(seed=6, agg_crash_rate=0.5)
STEPS = 8
WINDOW_T = 4
SHAPE = (STEPS * WINDOW_T, NPROCS * 2, 16, 16)


def build():
    kernel = Kernel()
    machine = Machine(kernel, hopper_like(nodes=2, n_osts=16))
    file = machine.fs.create_procedural_file(
        "climate.nc", int(np.prod(SHAPE)), dtype=np.float64,
        func=climate_field, stripe_size=MiB // 16)
    return kernel, machine, file


def main():
    spec = DatasetSpec(SHAPE, np.float64, name="temperature")
    base_global = Subarray((0, 0, 0, 0), (WINDOW_T,) + SHAPE[1:])
    parts = block_partition(base_global, NPROCS, axis=1)

    kernel, machine, file = build()
    captured = {}

    def main_rank(ctx):
        oio = ObjectIO(spec, parts[ctx.rank], MOMENTS_OP.with_cost(3.0),
                       hints=CollectiveHints(cb_buffer_size=1 * MiB))
        analysis = IterativeAnalysis(file, oio)
        regions = sliding_windows(parts[ctx.rank], axis=0, steps=STEPS,
                                  stride=WINDOW_T)
        results = yield from analysis.run(ctx, regions)
        if ctx.rank == 0:
            captured["stats"] = analysis.stats
        return [r.global_result for r in results]

    results = mpi_run(machine, NPROCS, main_rank)
    stats = captured["stats"]
    print(f"time-series sweep: {STEPS} steps, plan exchanged "
          f"{stats.plans_exchanged}x, reused {stats.plans_reused}x, "
          f"{kernel.now * 1e3:.1f} ms simulated")
    for s, (mean, var) in enumerate(results[0]):
        bar = "#" * int((mean - 270) * 2)
        print(f"  window t=[{s * WINDOW_T:2d},{(s + 1) * WINDOW_T:2d}): "
              f"mean {mean:7.3f} K  var {var:6.2f}  {bar}")

    # --- fault tolerance: rerun step 0 under injected crashes --------
    def run_step0(plan):
        k, m, f = build()
        injector = FaultInjector.attach(m, plan) if plan else None

        def rank_main(ctx):
            # Smaller windows here so the failure's extra work is visible.
            oio = ObjectIO(spec, parts[ctx.rank],
                           MOMENTS_OP.with_cost(40.0),
                           hints=CollectiveHints(cb_buffer_size=MiB // 8))
            get = resilient_object_get if plan else object_get
            res = yield from get(ctx, f, oio)
            return res.global_result

        out = mpi_run(m, NPROCS, rank_main)
        return out[0], k.now, injector

    healthy, t_ok, _ = run_step0(None)
    degraded, t_deg, injector = run_step0(CRASH_PLAN)
    crashes = [r for r in injector.records if r.kind == "inject:agg-crash"]
    assert crashes, "the seeded plan must crash at least one aggregator"
    assert healthy == degraded
    print("\nfault tolerance: seeded aggregator crashes mid-job —")
    for record in crashes:
        print(f"  {record.format()}")
    print(f"  healthy  run: mean {healthy[0]:.3f} K in {t_ok * 1e3:.1f} ms")
    print(f"  degraded run: mean {degraded[0]:.3f} K in {t_deg * 1e3:.1f} ms "
          f"({t_deg / t_ok:.2f}x slower, bit-identical result)")


if __name__ == "__main__":
    main()
