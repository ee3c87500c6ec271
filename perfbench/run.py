"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shuffle-wide --seed 1 --seconds 20 --trace 0

A single process on a single thread runs a closed loop of operations,
one at a time, back to back (see ``cases.py``).  With ``--trace 0`` it
reports the end-to-end metrics, with host times rescaled to a reference
host speed by the kernel of ``calibrate.py``; with ``--trace 1`` it
alternates untraced and traced operations and reports the per-layer
metrics of ``tracer.py``.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it name the seed, give the unscaled host times and list
every metric with its unit.  See README.md for the metric catalogue.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

# Noise hygiene: numeric libraries on one thread, and the program's
# optional checkers and metrics off unless this script turns them on.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_CHECK", "REPRO_RACES", "REPRO_OBS"):
    os.environ.pop(_var, None)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Set-up (input generation and oracle) is repeated this often per run;
#: its median enters ``setup_s``.
SETUP_REPEATS = 3
#: Fewest timed operations per run, however long each one takes.
MIN_OPERATIONS = 5
#: Unit of each end-to-end metric, in the order they are reported.
END_TO_END_UNITS = {
    "wall_ref_s": "s", "throughput_ref_mib_s": "MiB/s", "setup_s": "s",
    "peak_rss_mib": "MiB", "sim_makespan_s": "sim_s", "cc_speedup": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def hygiene(datasource) -> None:
    """Before every operation, outside the timed region: a cold block
    cache (as every figure row starts) and no garbage left to collect."""
    if datasource.GLOBAL_BLOCK_CACHE is not None:
        datasource.GLOBAL_BLOCK_CACHE.clear()
    gc.collect()


class Loop:
    """Runs operations, checks each, and tallies failures."""

    def __init__(self, case, datasource):
        self.case = case
        self.datasource = datasource
        self.attempted = 0
        self.failed = 0
        self.reference = None  # the warm-up's row
        self._open = False  # the current operation counts and has not failed

    def fail(self, problem: str) -> None:
        """Report ``problem`` and count the current operation as failed."""
        print(f"operation failed: {problem}", file=sys.stderr)
        if self._open:
            self.failed += 1
            self._open = False

    def operation(self, *, timed: bool = True, timeline: bool = False,
                  tracer=None):
        """One checked operation; returns ``(host seconds, row)``, with
        ``row`` None when the operation raised or failed its check."""
        hygiene(self.datasource)
        self.attempted += timed
        self._open = timed
        row = problem = None
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.start()
            try:
                row = self.case.run(timeline=timeline)
            finally:
                if tracer is not None:
                    tracer.stop()
        except Exception:  # an operation failure is a result, not a crash
            problem = traceback.format_exc()
        seconds = time.perf_counter() - t0
        if row is not None:
            problem = self.case.check(row)
            if problem is None and self.reference is not None \
                    and row != self.reference:
                problem = f"{row} differs from the warm-up's {self.reference}"
        if problem is not None:
            self.fail(problem)
            return seconds, None
        return seconds, row


def set_up(case, seed):
    """Build the inputs and oracle ``SETUP_REPEATS`` times; the median."""
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        case.build(seed)
        builds.append(time.perf_counter() - t0)
    return statistics.median(builds)


def end_to_end(loop, seconds, setup_s, kernel_before_s):
    """The timed loop.  The reference kernel runs before the first
    operation and after each one, outside the operations' timing.  Each
    operation's wall time is rescaled by the mean of the two kernel times
    around it, so host-speed drift during the run cancels; set-up is
    rescaled by the kernel times before and after it."""
    warm_s, row = loop.operation(timed=False)
    if row is None:
        return None
    loop.reference = row
    setup_s += warm_s
    # Every timed operation repeats the warm-up's row bit for bit, so the
    # peak so far stands for theirs; read it before the timed loop's
    # kernel samples can raise it.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = []
    kernel = [calibrate.sample()]
    t_loop = time.perf_counter()
    while len(walls) < MIN_OPERATIONS or time.perf_counter() - t_loop < seconds:
        wall, _ = loop.operation()
        walls.append(wall)
        kernel.append(calibrate.sample())
    ref_walls = [_rescale(wall, before, after)
                 for wall, before, after in zip(walls, kernel, kernel[1:])]
    mib = 2 * loop.case.selection_mib * len(walls)
    print(f"  unscaled: set-up {setup_s:.6g} s, median operation "
          f"{statistics.median(walls):.6g} s, {mib / sum(walls):.6g} MiB/s; "
          f"median reference kernel {statistics.median(kernel):.6g} s "
          f"against {calibrate.REFERENCE_S:g} s")
    return {
        "wall_ref_s": statistics.median(ref_walls),
        "throughput_ref_mib_s": mib / sum(ref_walls),
        "setup_s": _rescale(setup_s, kernel_before_s, kernel[0]),
        "peak_rss_mib": peak_rss_mib,
        "sim_makespan_s": row.cc_sim_s,
        "cc_speedup": row.speedup,
    }, dict(END_TO_END_UNITS)


def _rescale(seconds, kernel_before_s, kernel_after_s):
    """``seconds`` at the host speed where the kernel takes REFERENCE_S."""
    return (seconds * 2 * calibrate.REFERENCE_S
            / (kernel_before_s + kernel_after_s))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({SRC}); run "
              "from a full checkout", file=sys.stderr)
        return 2
    # The kernel runs before the program is imported, so that the memory
    # it touches is reused by the program, not added to its peak.
    t0 = time.perf_counter()
    calibrate.sample()  # first-call costs stay out of the reference
    kernel_before_s = calibrate.sample()
    kernel_s = time.perf_counter() - t0
    sys.path.insert(0, str(SRC))
    import cases as case_defs
    from repro.pfs import datasource

    catalogue = case_defs.make_cases()
    if args.workload not in catalogue:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(catalogue)}", file=sys.stderr)
        return 2
    case = catalogue[args.workload]
    import_s = time.perf_counter() - _T_START - kernel_s
    print(f"perfbench workload={case.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    setup_s = import_s + set_up(case, args.seed)
    loop = Loop(case, datasource)
    if args.trace:
        import layers
        measured = layers.traced(loop, args.seconds)
    else:
        measured = end_to_end(loop, args.seconds, setup_s, kernel_before_s)
    if measured is None:
        print("perfbench: the warm-up operation failed", file=sys.stderr)
        return 1
    values, units = measured
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    failed_frac = loop.failed / loop.attempted
    print(f"  {'failed_frac':28s} {failed_frac:14.6g} ratio "
          f"({loop.failed} of {loop.attempted} operations)")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
