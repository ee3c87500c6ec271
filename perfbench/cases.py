"""The benchmark's workloads, their seeded inputs and their oracles.

An **operation** is one figure row: the traditional two-phase job, then
the collective-computing (CC) job, on the same inputs -- what every
``figNN.run_point`` does.  The program is driven only through its public
entry points (``run_objectio_job``, ``resilient_object_get``,
``FaultInjector.attach``, ``IntegrityManager.attach``).

The workload seed shifts the synthetic field's index origin
(:func:`shifted_field`); the program only ever receives the generated
inputs.  The fault plan of ``faulted-verify`` has a seed of its own, the
same for every workload seed, so that every run recovers from the same
faults (see :class:`FaultedCase`).

Every operation is checked against an oracle built in set-up:

* Max: both pipelines must equal the numpy maximum exactly.
* Sum: both pipelines must be within :func:`sum_tolerance` of the numpy
  sum.  The two pipelines add in different orders, so they are not held
  to each other bit for bit: with seed 101 on ``shuffle-wide`` at 480
  ranks their Sums differ by one ulp.
* ``faulted-verify`` also compares each pipeline bit-for-bit against its
  own fault-free, checksums-off reference job built in set-up (as
  Figure 15 does).

``run.Loop`` adds that every operation must reproduce the warm-up's row
bit for bit: results and simulated times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import Machine
from repro.config import KiB, MiB
from repro.core import MAX_OP, SUM_OP, MapReduceOp, ObjectIO
from repro.experiments.common import (DEFAULT_HINTS, hopper_platform,
                                      run_objectio_job)
from repro.faults import (FaultInjector, FaultPlan, RecoveryPolicy,
                          RetryPolicy)
from repro.faults.resilient import resilient_object_get
from repro.integrity import IntegrityManager
from repro.io import CollectiveHints
from repro.mpi import mpi_run
from repro.pfs import datasource
from repro.profiling import PhaseTimeline
from repro.sim import Kernel
from repro.workloads.climate import (Workload, climate_field,
                                     interleaved_workload,
                                     sparse_subset_workload)

#: Elements per oracle chunk (8 MiB of float64), which bounds the
#: oracle's memory whatever the selection size.
ORACLE_CHUNK = 1 << 20


def shifted_field(seed: int) -> Callable[[np.ndarray], np.ndarray]:
    """``climate_field`` with its index origin moved by the seed.

    The shift stays below 2**31, so ``index * 2654435761`` inside the
    field stays inside int64 for any dataset the benchmark builds.
    """
    shift = np.int64((seed * 1_000_003) % (1 << 31))

    def field(idx: np.ndarray) -> np.ndarray:
        return climate_field(idx + shift)

    return field


def sum_tolerance(n_elements: int) -> float:
    """Relative tolerance of a float64 Sum of ``n_elements`` same-sign
    terms: ``n * 2**-53``, the worst-case error bound of recursive
    summation in any order (the climate field is always positive)."""
    return n_elements * 2.0 ** -53


def _selection_indices(workload: Workload):
    """Linear dataset indices of the selection, in chunks of whole
    leading-axis slabs (C order)."""
    shape = workload.dspec.shape
    start, count = workload.gsub.start, workload.gsub.count
    strides = [int(np.prod(shape[d + 1:])) for d in range(len(shape))]
    inner = np.zeros(1, dtype=np.int64)
    for d in range(len(shape) - 1, 0, -1):
        axis = (np.arange(start[d], start[d] + count[d], dtype=np.int64)
                * strides[d])
        inner = (axis[:, None] + inner[None, :]).ravel()
    per_chunk = max(1, ORACLE_CHUNK // max(inner.size, 1))
    first = start[0]
    while first < start[0] + count[0]:
        last = min(first + per_chunk, start[0] + count[0])
        outer = np.arange(first, last, dtype=np.int64) * strides[0]
        yield (outer[:, None] + inner[None, :]).ravel()
        first = last


def oracle(workload: Workload, field: Callable, op_name: str) -> float:
    """The numpy answer for ``op_name`` ('sum' or 'max') over the
    workload's selection of ``field``, cast to the dataset dtype."""
    dtype = workload.dspec.dtype
    parts: List[float] = []
    for idx in _selection_indices(workload):
        values = field(idx).astype(dtype, copy=False)
        parts.append(float(values.max()) if op_name == "max"
                     else float(values.sum(dtype=np.float64)))
    return max(parts) if op_name == "max" else math.fsum(parts)


@dataclass
class Row:
    """What one operation produced."""

    trad_sim_s: float
    cc_sim_s: float
    trad_result: Any
    cc_result: Any

    @property
    def speedup(self) -> float:
        """Simulated traditional time / CC time."""
        return self.trad_sim_s / self.cc_sim_s


class Case:
    """One workload at fixed sizes; :meth:`build` makes its inputs."""

    def __init__(self, *, name: str, nprocs: int, nodes: int,
                 op: MapReduceOp, op_name: str,
                 hints: CollectiveHints = DEFAULT_HINTS,
                 cache_bytes: int = datasource.DEFAULT_CACHE_BYTES,
                 workload: Callable[[int], Workload]) -> None:
        self.name = name
        self.nprocs = nprocs
        self.nodes = nodes
        self.op = op
        self.op_name = op_name
        self.hints = hints
        self.cache_bytes = cache_bytes
        self._workload = workload
        self.field: Optional[Callable] = None
        self.workload: Optional[Workload] = None
        self.expected: Optional[float] = None

    def build(self, seed: int) -> None:
        """Generate the inputs from ``seed`` and compute the oracle, and
        install an empty process-global block cache of ``cache_bytes``."""
        datasource.GLOBAL_BLOCK_CACHE = datasource.BlockCache(self.cache_bytes)
        self.platform = hopper_platform(self.nodes)
        self.workload = self._workload(self.nprocs)
        self.field = shifted_field(seed)
        self.expected = oracle(self.workload, self.field, self.op_name)

    @property
    def selection_mib(self) -> float:
        """MiB of the selection one job analyses."""
        return self.workload.total_bytes / MiB

    def run(self, timeline: bool = False) -> Row:
        """One operation: the traditional job, then the CC job."""
        trad = self._job(block=True, timeline=timeline)
        cc = self._job(block=False, timeline=timeline)
        return Row(trad[0], cc[0], trad[1], cc[1])

    def _job(self, *, block: bool, timeline: bool) -> Tuple[float, Any]:
        out = run_objectio_job(self.platform, self.workload, self.op,
                               block=block, hints=self.hints,
                               field_func=self.field,
                               record_timeline=timeline)
        return out.time, out.global_result

    def check(self, row: Row) -> Optional[str]:
        """``None`` when ``row`` is correct, else what is wrong."""
        for pipeline, got in (("traditional", row.trad_result),
                              ("CC", row.cc_result)):
            problem = self._against_oracle(got)
            if problem is not None:
                return f"{pipeline} {problem}"
        return None

    def _against_oracle(self, got: Any) -> Optional[str]:
        got = float(got)
        if self.op_name == "max":
            if got != self.expected:
                return f"max {got!r} != oracle {self.expected!r}"
            return None
        tol = sum_tolerance(self.workload.gsub.n_elements)
        if abs(got - self.expected) > tol * abs(self.expected):
            return (f"sum {got!r} differs from oracle {self.expected!r} "
                    f"by more than {tol:.3g} relative")
        return None


class FaultedCase(Case):
    """Resilient pipelines under a fixed fault plan, with integrity on.

    Each job builds its machine and file the way Figure 15 does, with the
    shifted field, attaches the :class:`IntegrityManager` and the
    :class:`FaultInjector`, and runs ``resilient_object_get``.

    The plan is seeded by ``plan_seed``, not by the workload seed.  Seeded
    by the workload seed, it injected 4 to 20 faults per operation over
    seeds 101 to 110, and the host time of an operation followed the
    count; every recovery re-reads and re-checksums.
    """

    def __init__(self, *, stripe_size: int, rates: Dict[str, float],
                 plan_seed: int, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.stripe_size = stripe_size
        self.rates = rates
        self.plan_seed = plan_seed
        self.policy = RecoveryPolicy(retry=RetryPolicy(max_retries=6))
        self.reference: Tuple[Any, Any] = (None, None)

    def build(self, seed: int) -> None:
        super().build(seed)
        self.plan = FaultPlan(seed=self.plan_seed, **self.rates)
        self.reference = (self._resilient(block=True, faults=False)[1],
                          self._resilient(block=False, faults=False)[1])
        for result in self.reference:  # checked once, in set-up
            problem = self._against_oracle(result)
            if problem is not None:
                raise RuntimeError(f"fault-free reference: {problem}")

    def _job(self, *, block: bool, timeline: bool) -> Tuple[float, Any]:
        return self._resilient(block=block, faults=True, timeline=timeline)

    def _resilient(self, *, block: bool, faults: bool,
                   timeline: bool = False) -> Tuple[float, Any]:
        machine = Machine(Kernel(), self.platform)
        machine.validate_job(self.nprocs)
        file = machine.fs.create_procedural_file(
            "dataset.nc", self.workload.dspec.n_elements,
            dtype=self.workload.dspec.dtype, func=self.field,
            stripe_size=self.stripe_size, stripe_count=-1)
        if faults:
            IntegrityManager.attach(machine)
            FaultInjector.attach(machine, self.plan)
        phases = PhaseTimeline() if timeline else None
        finish = [0.0] * self.nprocs
        workload, op, hints, policy = (self.workload, self.op, self.hints,
                                       self.policy)

        def main(ctx):
            oio = ObjectIO(workload.dspec, workload.parts[ctx.rank], op,
                           block=block, hints=hints)
            result = yield from resilient_object_get(ctx, file, oio,
                                                     policy=policy,
                                                     timeline=phases)
            # Completion is the rank finishing: cancelled receive timers
            # keep the event queue warm past the job.
            finish[ctx.rank] = ctx.kernel.now
            return result

        results = mpi_run(machine, self.nprocs, main)
        if faults:
            FaultInjector.detach(machine)
            IntegrityManager.detach(machine)
        return max(finish), results[0].global_result

    def check(self, row: Row) -> Optional[str]:
        """Each pipeline bit-identical to its own fault-free reference,
        and within the oracle's tolerance."""
        trad_ref, cc_ref = self.reference
        if row.trad_result != trad_ref or row.cc_result != cc_ref:
            return (f"faulted results ({row.trad_result!r}, "
                    f"{row.cc_result!r}) differ from the fault-free "
                    f"references ({trad_ref!r}, {cc_ref!r})")
        return super().check(row)


def make_cases() -> Dict[str, Case]:
    """The benchmark's four workloads, by name (BENCHMARK.json says why
    each exists; README.md gives their sizes and what they stress)."""
    cases = [
        Case(name="shuffle-wide", nprocs=240, nodes=10,
             op=SUM_OP.with_cost(256.0), op_name="sum",
             workload=lambda p: interleaved_workload(
                 p, per_rank_bytes=128 * KiB)),
        Case(name="scan-bulk", nprocs=24, nodes=1, op=SUM_OP,
             op_name="sum", cache_bytes=32 * MiB,
             workload=lambda p: interleaved_workload(
                 p, per_rank_bytes=2 * MiB)),
        Case(name="sparse-subset", nprocs=48, nodes=2, op=MAX_OP,
             op_name="max",
             hints=CollectiveHints(cb_buffer_size=256 * KiB,
                                   aggregators_per_node=1),
             workload=lambda p: sparse_subset_workload(p, scale=0.01)),
        FaultedCase(name="faulted-verify", nprocs=24, nodes=1,
                    op=SUM_OP.with_cost(16000.0), op_name="sum",
                    stripe_size=64 * KiB,
                    hints=CollectiveHints(cb_buffer_size=256 * KiB,
                                          aggregators_per_node=1),
                    rates=dict(ost_fail_rate=0.02, corrupt_ost_rate=0.02,
                               corrupt_msg_rate=0.02),
                    plan_seed=3,
                    workload=lambda p: interleaved_workload(
                        p, per_rank_bytes=64 * KiB, time_steps=8)),
    ]
    return {case.name: case for case in cases}
