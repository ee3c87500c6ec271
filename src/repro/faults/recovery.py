"""Recovery policies: bounded retry, timeouts, failover, degradation.

Three layers of defence, applied by :mod:`repro.faults.resilient` in
escalation order:

1. **Retry with exponential backoff** (:class:`RetryPolicy`,
   :func:`read_with_retry`) absorbs transient OST failures without any
   coordination — the cheapest recovery, local to one read.
2. **Timed receives with aggregator failover**: a receiver that waits
   longer than :attr:`RecoveryPolicy.read_timeout` for a window suspects
   the serving aggregator; after an agreement allgather the missed
   windows are re-served by survivors (:func:`assign_orphans`), reusing
   the original :class:`~repro.io.twophase.TwoPhasePlan` artifacts
   (``window_pieces`` / ``read_span``) — only *who serves* changes,
   never *what is served*.
3. **Graceful degradation** to independent I/O
   (:func:`degradation_needed`): when fewer aggregators survive than
   :attr:`RecoveryPolicy.min_aggregator_fraction` requires (or the
   failover round budget is exhausted), every rank reads and maps its
   own missing pieces directly — slower, but needing no aggregator at
   all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Sequence, Tuple

from ..errors import (FaultError, IntegrityError, RecoveryError,
                      TransientIOError)
from ..obs import metrics

#: A window's identity across recovery rounds: its position in the
#: original plan — ``(aggregator index, iteration)``.
WindowKey = Tuple[int, int]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient OST read failures.

    ``max_retries`` is the number of *re*-tries after the first attempt:
    an operation is attempted at most ``max_retries + 1`` times, and a
    failure on the last permitted attempt surfaces as
    :class:`~repro.errors.RecoveryError`.
    """

    max_retries: int = 3
    backoff_base: float = 0.001
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise FaultError(
                "backoff_base must be >= 0 and backoff_factor >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before re-attempt ``attempt`` (0-based): the classic
        ``base * factor**attempt`` exponential schedule."""
        return self.backoff_base * self.backoff_factor ** attempt


@dataclass(frozen=True)
class RecoveryPolicy:
    """Everything the resilient protocols need to decide how hard to
    fight before giving ground.

    Parameters
    ----------
    retry:
        Backoff schedule for transient OST failures.
    read_timeout:
        Simulated seconds a receiver waits for one window before
        suspecting its aggregator.  Must exceed the healthy inter-window
        gap, or healthy aggregators are suspected spuriously (false
        positives are *safe* — the suspect stops serving and its windows
        are re-served — but they cost a failover round).
    min_aggregator_fraction:
        Collective serving continues while at least
        ``ceil(fraction * original aggregator count)`` aggregators
        survive; below that the job degrades to independent I/O.  A
        surviving count *exactly at* the ceiling stays collective.
    max_rounds:
        Failover rounds attempted before degrading unconditionally.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    read_timeout: float = 0.5
    min_aggregator_fraction: float = 0.5
    max_rounds: int = 3

    def __post_init__(self) -> None:
        if self.read_timeout <= 0:
            raise FaultError(
                f"read_timeout must be > 0, got {self.read_timeout}")
        if not 0.0 <= self.min_aggregator_fraction <= 1.0:
            raise FaultError("min_aggregator_fraction must be in [0, 1]")
        if self.max_rounds < 1:
            raise FaultError(f"max_rounds must be >= 1, got {self.max_rounds}")


def read_with_retry(ctx, file, offset: int, nbytes: int,
                    policy: RetryPolicy) -> Generator:
    """Read with bounded exponential backoff over retryable failures.

    Generator (``yield from`` inside a rank process).  Returns the bytes
    on success.  Both fault classes a re-read can repair are absorbed:
    injected transient EIOs (:class:`~repro.errors.TransientIOError`)
    and checksum mismatches on served extents
    (:class:`~repro.errors.IntegrityError` — the source is pristine, so
    fresh bytes verify).  When the read still fails on the last
    permitted attempt, a :class:`~repro.errors.RecoveryError` is raised
    naming the extent, the retry budget and the final cause (which
    itself names the failing OST).  Each absorbed failure is logged as
    a ``recover:retry`` record on the machine's injector.
    """
    faults = getattr(ctx.machine, "faults", None)
    for attempt in range(policy.max_retries + 1):
        try:
            data = yield from ctx.fs.read(file, offset, nbytes,
                                          client=ctx.node.index)
            return data
        except (TransientIOError, IntegrityError) as exc:
            if attempt == policy.max_retries:
                raise RecoveryError(
                    f"read [{offset}, {offset + nbytes}) of {file.name!r} "
                    f"still failing after {policy.max_retries} retries "
                    f"({policy.max_retries + 1} attempts; last: {exc})"
                ) from exc
            delay = policy.delay(attempt)
            m = metrics.current()
            if m is not None:
                m.count("pfs.read_retries")
            if faults is not None:
                kind = ("checksum mismatch"
                        if isinstance(exc, IntegrityError) else "EIO")
                faults.record(
                    "recover:retry", f"rank{ctx.rank}",
                    f"{kind} on [{offset}, {offset + nbytes}), retry "
                    f"{attempt + 1}/{policy.max_retries} after {delay:g}s")
            yield ctx.kernel.timeout(delay)
    raise AssertionError("unreachable")  # pragma: no cover


def required_aggregators(n_original: int, fraction: float) -> int:
    """Minimum surviving aggregators for collective serving (never
    below one)."""
    return max(1, math.ceil(fraction * n_original))


def degradation_needed(n_alive: int, n_original: int,
                       fraction: float) -> bool:
    """Whether the survivor count has fallen *below* the collective
    minimum.  Exactly meeting the threshold stays collective."""
    return n_alive < required_aggregators(n_original, fraction)


def assign_orphans(missing: Sequence[WindowKey],
                   survivors: Sequence[int]) -> Dict[WindowKey, int]:
    """Deal the missed windows round-robin over surviving aggregators.

    ``missing`` must be sorted and ``survivors`` in rank order on every
    rank (both are derived from the allgathered agreement data), so all
    ranks compute the identical assignment without further
    communication.
    """
    if not survivors:
        raise RecoveryError(
            "no surviving aggregator to adopt the orphaned windows")
    return {w: survivors[i % len(survivors)]
            for i, w in enumerate(missing)}


def merge_missed(entries: Sequence[Sequence[WindowKey]]
                 ) -> Tuple[List[WindowKey], Dict[WindowKey, List[int]]]:
    """Fold the allgathered per-rank miss lists into the shared view:
    the sorted list of missed windows, and which ranks missed each.

    ``entries[r]`` is rank ``r``'s report.  Every rank folds the same
    allgathered entries, so every rank derives the same view.
    """
    missed_by: Dict[WindowKey, List[int]] = {}
    for r, misses in enumerate(entries):
        for w in misses:
            missed_by.setdefault(tuple(w), []).append(r)
    missing = sorted(missed_by)
    return missing, missed_by


def merge_missed_pairs(
    entries: Sequence[Tuple[Sequence[WindowKey], Sequence[WindowKey]]]
) -> Tuple[List[WindowKey], Dict[WindowKey, List[int]], List[WindowKey]]:
    """Fold allgathered ``(timeout missed, corrupt missed)`` pair
    entries — the agreement format used when wire digests are on —
    into ``(missing, missed_by, timeout_missing)``.

    ``missing`` and ``missed_by`` cover *both* miss kinds (every such
    window must be re-served); ``timeout_missing`` lists only the
    timed-out windows, the ones that indict their server — a corrupt
    delivery proves its server alive, so it must not feed the suspect
    set.
    """
    t_missing, t_by = merge_missed([e[0] for e in entries])
    _c_missing, c_by = merge_missed([e[1] for e in entries])
    missed_by: Dict[WindowKey, List[int]] = {
        w: list(ranks) for w, ranks in t_by.items()}
    for w, ranks in c_by.items():
        missed_by[w] = sorted(set(missed_by.get(w, [])) | set(ranks))
    return sorted(missed_by), missed_by, t_missing
