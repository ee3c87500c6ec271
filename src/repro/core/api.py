"""Public entry points for analysis-in-I/O.

:func:`object_get` is the library's front door: give it an
:class:`~repro.core.ObjectIO` and it dispatches to

* the **collective-computing pipeline** (``mode="collective"``,
  ``block=False``) — the paper's contribution;
* the **traditional path** (``block=True`` or ``mode="independent"``) —
  read all the data first (two-phase collective or independent I/O),
  compute afterwards, reduce with MPI — the paper's baseline
  (Figure 5).

Both paths return the same :class:`~repro.core.runtime.CCResult` shape
and, crucially, the same numbers; only the simulated time differs.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

import numpy as np

from ..dataspace import DatasetSpec
from ..errors import CollectiveComputingError
from ..io import AccessRequest, collective_read, independent_read
from ..mpi import RankContext
from ..pfs import PFSFile
from ..profiling import PhaseTimeline
from .map_engine import linear_indices_of_runs
from .metadata import CCStats
from .object_io import ObjectIO
from .plan_cache import PlanMemo
from .runtime import cc_read_compute, reduce_to_root


def _memoized_plan(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                   plan_memo: PlanMemo, runs, grid) -> Generator:
    """Plan for ``runs`` via the caller's memo: reuse a shifted cached
    plan when the request is a translation, else exchange and store."""
    from ..io.twophase import make_plan

    itemsize = grid[1] if grid is not None else 1
    plan = plan_memo.lookup(runs, itemsize)
    if plan is None:
        plan = yield from make_plan(ctx, runs, file, oio.hints, grid)
        plan_memo.store(runs, plan)
    return plan


def traditional_read_compute(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                             timeline: Optional[PhaseTimeline] = None,
                             stats: Optional[CCStats] = None,
                             plan_memo: Optional[PlanMemo] = None
                             ) -> Generator:
    """The baseline: complete the I/O, then compute, then MPI_Reduce.

    ``oio.mode`` selects two-phase collective I/O or per-rank
    independent I/O for the read stage.  Computation cannot start until
    the rank's full buffer has arrived — the blocking constraint the
    paper breaks.
    """
    request = AccessRequest.from_subarray(oio.spec, oio.sub)
    if oio.mode == "collective":
        plan = None
        if plan_memo is not None:
            plan = yield from _memoized_plan(ctx, file, oio, plan_memo,
                                             request.runs, None)
        buf = yield from collective_read(ctx, file, request, oio.hints,
                                         timeline, plan=plan)
    else:
        buf = yield from independent_read(ctx, file, request)
    result = yield from map_buffer_and_reduce(ctx, oio, request, buf,
                                              timeline, stats)
    return result


def map_buffer_and_reduce(ctx: RankContext, oio: ObjectIO,
                          request: AccessRequest, buf: np.ndarray,
                          timeline: Optional[PhaseTimeline],
                          stats: Optional[CCStats]) -> Generator:
    """The traditional path's tail, once the rank's packed ``buf`` for
    ``request`` is complete: map it, charge the compute, MPI_Reduce the
    payload to the root."""
    payload = None
    if request.nbytes:
        values = buf.view(oio.spec.dtype)
        indices = (linear_indices_of_runs(oio.spec, request.runs)
                   if oio.op.needs_indices else None)
        t0 = ctx.kernel.now
        payload = oio.op.map_chunk(values, indices)
        yield from ctx.compute(values.size, oio.op.ops_per_element)
        if stats is not None:
            stats.map_elements += values.size
            stats.map_time += ctx.kernel.now - t0
        if timeline is not None:
            timeline.record(ctx.rank, 0, "compute", t0, ctx.kernel.now)
    t1 = ctx.kernel.now
    result = yield from reduce_to_root(ctx, oio, payload, stats)
    if stats is not None and ctx.rank == oio.root:
        stats.local_reduction_time += ctx.kernel.now - t1
    return result


def local_read_compute(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                       timeline: Optional[PhaseTimeline] = None,
                       stats: Optional[CCStats] = None) -> Generator:
    """Independent (non-collective) analysis-in-I/O.

    The paper's ``io.mode = independent`` with ``io.block = false``:
    each rank sweeps *its own* request in collective-buffer-size
    windows, reading the next window while mapping the current one —
    the collective-computing overlap without aggregation (useful when
    ranks' data does not interleave).  Ends with the same global tree
    reduce as the collective path.
    """
    from ..dataspace import merge_runlists
    from .map_engine import map_pieces
    from .reduction import combine_partials

    request = AccessRequest.from_subarray(oio.spec, oio.sub)
    runs = request.runs
    kernel = ctx.kernel
    cb = oio.hints.cb_buffer_size
    payload = None
    partials = []
    if len(runs):
        lo, hi = runs.extent()
        # Element-aligned windows over this rank's own extent.
        # Each entry carries the window's clipped pieces, computed once
        # and reused by the read issue and the map step below.
        windows = []
        pos = lo
        item = oio.spec.itemsize
        while pos < hi:
            win_hi = min(pos + max(cb, item), hi)
            win_hi -= (win_hi - oio.spec.file_offset) % item
            if win_hi <= pos:
                win_hi = min(pos + max(cb, item), hi)
            win_pieces = runs.clip(pos, win_hi)
            if len(win_pieces):
                windows.append(win_pieces)
            pos = win_hi

        def issue_read(pieces):
            r_lo, r_hi = pieces.extent()
            return r_lo, kernel.process(
                ctx.fs.read(file, r_lo, r_hi - r_lo, client=ctx.node.index),
                name=f"lread:r{ctx.rank}@{r_lo}",
            )

        pending = issue_read(windows[0])
        for t, pieces in enumerate(windows):
            read_lo, read_proc = pending
            t0 = kernel.now
            data = yield from ctx.wait_recording(read_proc, "wait")
            if timeline is not None:
                timeline.record(ctx.rank, t, "read", t0, kernel.now)
            if t + 1 < len(windows):
                pending = issue_read(windows[t + 1])
            window_data = np.frombuffer(data, dtype=np.uint8)
            t_map = kernel.now
            partial, elements = map_pieces(oio.spec, oio.op, window_data,
                                           read_lo, pieces, ctx.rank, t)
            yield from ctx.compute(elements, oio.op.ops_per_element)
            if partial is not None:
                partials.append(partial)
                if stats is not None:
                    stats.add_partial(partial)
                    stats.map_elements += elements
                    stats.map_time += kernel.now - t_map
            if timeline is not None:
                timeline.record(ctx.rank, t, "map", t_map, kernel.now)
        payload = yield from combine_partials(ctx, oio.op, partials, stats)
    result = yield from reduce_to_root(ctx, oio, payload, stats)
    return result


def object_get(ctx: RankContext, file: PFSFile, oio: ObjectIO,
               timeline: Optional[PhaseTimeline] = None,
               stats: Optional[CCStats] = None,
               plan_memo: Optional[PlanMemo] = None) -> Generator:
    """Analysis-in-I/O front door (collective call on all ranks).

    Dispatch rules (paper §III-A): ``block=True`` runs the traditional
    path (I/O completes, then compute, then reduce) over the configured
    I/O mode; ``block=False`` runs the collective-computing pipeline
    for ``mode="collective"`` and the local per-rank pipeline
    (:func:`local_read_compute`) for ``mode="independent"``.

    ``plan_memo`` (opt-in) caches the two-phase schedule across repeated
    calls on *both* collective paths: a call whose request is a
    whole-element byte translation of the memo's base skips the offset
    exchange and reuses the shifted plan — the general form of
    :class:`repro.core.iterative.IterativeAnalysis`'s reuse.  All ranks
    must pass memos with the same call history (SPMD), and one memo must
    not be shared between block and non-block calls (their window grids
    differ).  Ignored on the independent path, which builds no plan.
    """
    if oio.block:
        result = yield from traditional_read_compute(ctx, file, oio,
                                                     timeline, stats,
                                                     plan_memo)
    elif oio.mode == "independent":
        result = yield from local_read_compute(ctx, file, oio, timeline,
                                               stats)
    else:
        plan = None
        if plan_memo is not None:
            request = AccessRequest.from_subarray(oio.spec, oio.sub)
            # Element-aligned grid, matching cc_read_compute's own
            # planning (the map must never see a split value).
            grid = (oio.spec.file_offset, oio.spec.itemsize)
            plan = yield from _memoized_plan(ctx, file, oio, plan_memo,
                                             request.runs, grid)
        result = yield from cc_read_compute(ctx, file, oio, timeline, stats,
                                            plan=plan)
    return result


def locate(spec: DatasetSpec, loc_result: Tuple[float, int]
           ) -> Tuple[float, Tuple[int, ...]]:
    """Convert a ``(value, linear_index)`` result of a ``minloc`` /
    ``maxloc`` operator into ``(value, logical coordinates)``."""
    if not isinstance(loc_result, tuple) or len(loc_result) != 2:
        raise CollectiveComputingError(
            f"expected a (value, linear_index) pair, got {loc_result!r}"
        )
    value, linear = loc_result
    return (value, spec.coords_of(int(linear)))
