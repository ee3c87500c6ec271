"""Shared-resource primitives built on the event kernel.

Three primitives cover every contention point in the simulated cluster:

* :class:`Resource` — a counted FIFO server (CPU cores, NIC channels,
  OST service slots).  Strict FIFO granting keeps runs deterministic.
* :class:`Store` — an unbounded FIFO queue of items with blocking ``get``
  (message mailboxes, work queues).
* :func:`hold` — the ubiquitous acquire → delay → release pattern as a
  sub-process, used to model "service takes t seconds on this device".
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional, TYPE_CHECKING

from ..errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel


class Request(Event):
    """The event returned by :meth:`Resource.request`.

    It fires when the resource grants a slot to the requester.  Pass it to
    :meth:`Resource.release` to free the slot.
    """

    __slots__ = ("resource",)

    def __init__(self, kernel: "Kernel", resource: "Resource") -> None:
        # Plain attribute reference: request events are created on the
        # per-message hot path, so skip per-instance string formatting.
        super().__init__(kernel, name=resource.name)
        self.resource = resource


class Resource:
    """A counted resource with strict-FIFO granting.

    Parameters
    ----------
    kernel:
        Owning kernel.
    capacity:
        Number of slots that may be held simultaneously (>= 1).
    name:
        Diagnostics label.
    """

    def __init__(self, kernel: "Kernel", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.capacity = int(capacity)
        self.name = name
        self._in_use = 0
        self._waiting: Deque[Request] = deque()
        #: Race-tracker lock clock: the (joined) clock of past releases,
        #: so even an uncontended grant synchronizes with the previous
        #: critical section.  None without the tracker.
        self._release_vc = None

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot.  The returned event fires once granted."""
        req = Request(self.kernel, self)
        tracker = self.kernel._tracker
        if self._in_use < self.capacity and not self._waiting:
            self._in_use += 1
            if tracker is not None:
                # Uncontended grant: no event flows from the previous
                # holder, so join the published release clock instead.
                tracker.lock_acquire(self, req)
            req.succeed(self)
        else:
            if tracker is not None:
                # The grant is scheduled later from the releaser's
                # context; carry the requester's clock into it so a
                # waiter that is a callback chain, not a process, keeps
                # its history across the wait.
                req._vc = tracker.current_vc()
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Free the slot held by ``request`` and grant the next waiter."""
        if request.resource is not self:
            raise SimulationError("release() with a foreign request")
        if not request.triggered:
            # The request never got the slot: cancel it from the queue.
            try:
                self._waiting.remove(request)
            except ValueError:
                raise SimulationError("release() of an unknown pending request")
            return
        if self._in_use <= 0:  # pragma: no cover - defensive
            raise SimulationError(f"release() on idle resource {self.name}")
        self._in_use -= 1
        tracker = self.kernel._tracker
        if tracker is not None:
            tracker.lock_release(self)
        while self._waiting and self._in_use < self.capacity:
            nxt = self._waiting.popleft()
            self._in_use += 1
            if tracker is not None:
                tracker.lock_acquire(self, nxt)
            nxt.succeed(self)


def hold(resource: Resource, duration: float) -> Generator:
    """Sub-process: acquire ``resource``, hold it ``duration`` sim-seconds,
    release.  Yields from inside another process::

        yield kernel.process(hold(core, 0.25))

    or inline::

        yield from hold(core, 0.25)
    """
    req = resource.request()
    yield req
    try:
        yield resource.kernel.timeout(duration)
    finally:
        resource.release(req)


class Store:
    """Unbounded FIFO item queue with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item; if items are available the event fires immediately.
    Waiting getters are served FIFO.
    """

    def __init__(self, kernel: "Kernel", name: str = "store") -> None:
        self.kernel = kernel
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter if any."""
        tracker = self.kernel._tracker
        if tracker is not None:
            # Queue order is shared mutable state: concurrent putters
            # make the item order schedule-dependent.
            tracker.access(f"store:{self.name}", write=True)
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next available item."""
        tracker = self.kernel._tracker
        if tracker is not None:
            tracker.access(f"store:{self.name}", write=True)
        ev = Event(self.kernel, name=f"get:{self.name}")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (diagnostics only)."""
        return list(self._items)
