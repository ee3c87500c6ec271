"""A fixed reference kernel that measures the host's current speed.

On a shared host the speed of the same code drifts by tens of percent
over minutes, and no run of tens of seconds averages that away.  The
timed loop of ``run.py`` therefore times this kernel before the first
operation and after each one, and rescales each operation's wall time
to the host speed at which the kernel takes :data:`REFERENCE_S`.

The kernel imports nothing from the program, so a change to the program
cannot change it.  It mixes the three kinds of host work the program
does: an interpreter-bound event loop (generators resumed from a heap,
as the simulator runs ranks), numpy arithmetic over 2 MiB blocks (as
synthesis of the climate field), and reads of small objects scattered
over a heap of about 10 MiB (as the bookkeeping of messages and
requests).  The blocks and the heap are this large on purpose: with
512 KiB blocks and a 3 MiB heap the kernel did not slow down with the
program (README.md, "Measured host behaviour").
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

#: Seconds the kernel takes at the reference host speed.
REFERENCE_S = 0.1

_BLOCK = 1 << 18  # elements of one synthesis block (2 MiB of float64)
_OBJECTS = 40_000
_ORDER = list(range(_OBJECTS))
random.Random(1).shuffle(_ORDER)


def _rank(steps: int, delay: float):
    t = 0.0
    for _ in range(steps):
        t += delay
        yield t


def _event_loop(ranks: int = 64, steps: int = 400) -> int:
    heap = [(0.0, r, _rank(steps, 1.0 + r / ranks)) for r in range(ranks)]
    heapq.heapify(heap)
    tally: dict = {}
    while heap:
        _, r, proc = heapq.heappop(heap)
        t = next(proc, None)
        if t is not None:
            tally[r] = tally.get(r, 0) + 1
            heapq.heappush(heap, (t, r, proc))
    return sum(tally.values())


def _synthesis(blocks: int = 3) -> float:
    total = 0.0
    for b in range(blocks):
        idx = np.arange(b * _BLOCK, (b + 1) * _BLOCK, dtype=np.int64)
        h = (idx * 2654435761) & 0xFFFFFFFF
        total += float(np.sum(np.sin(h * 1e-6) + np.sqrt(h + 1.0)))
    return total


def _object_heap() -> int:
    objects = [{"key": i, "span": (i, i + 1)} for i in range(_OBJECTS)]
    return sum(objects[i]["span"][1] for i in _ORDER)


def sample() -> float:
    """Host seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    _event_loop()
    _synthesis()
    _object_heap()
    return time.perf_counter() - t0
