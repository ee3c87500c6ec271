"""The process-free send path and the block-carrying Bruck allgather.

A send is a chain of event callbacks (NIC grants, timed transfer, fault
decision, pair sequencing), so a job spawns only its rank processes.
The allgather moves contiguous blocks but must charge exactly the bytes
the classic dict-merging algorithm charged.
"""

import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.errors import MPIError
from repro.faults import FaultInjector, FaultPlan
from repro.mpi import Communicator, mpi_run, wire_size
from repro.mpi.collectives import allgather, alltoall
from repro.sim import Kernel


def machine(nodes=2, cores=4):
    return Machine(Kernel(), small_test_machine(nodes=nodes,
                                                cores_per_node=cores))


@pytest.fixture
def spawns(monkeypatch):
    """Counts calls of ``Kernel.process`` during the test."""
    calls = []
    original = Kernel.process

    def counting(self, generator, name=None):
        calls.append(name)
        return original(self, generator, name=name)

    monkeypatch.setattr(Kernel, "process", counting)
    return calls


# -- no process per message ------------------------------------------------

def test_ring_spawns_only_rank_processes(spawns):
    def main(ctx):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        req = ctx.comm.isend(ctx.rank, right, tag=3)
        got = yield from ctx.comm.recv(left, tag=3)
        yield req.event
        return got

    m = machine(nodes=2, cores=4)
    assert mpi_run(m, 8, main) == [7, 0, 1, 2, 3, 4, 5, 6]
    assert len(spawns) == 8
    assert m.kernel._spawned == 8


def test_alltoall_spawns_only_rank_processes(spawns):
    def main(ctx):
        out = yield from alltoall(ctx.comm, [(ctx.rank, d)
                                             for d in range(ctx.size)])
        return out

    m = machine(nodes=3, cores=2)
    res = mpi_run(m, 6, main)
    assert res[4] == [(s, 4) for s in range(6)]
    assert len(spawns) == 6
    assert m.network.inter_node_bytes > 0 and m.network.intra_node_bytes > 0


# -- negative explicit size ------------------------------------------------

def test_negative_nbytes_raises_in_isend_before_any_state_moves():
    m = machine()
    comm = Communicator(m.kernel, m, 2)
    handle = comm.handle(0)
    with pytest.raises(MPIError, match="negative message size -5"):
        handle.isend("x", 1, tag=2, nbytes=-5)
    assert comm.messages_sent == 0 and comm.bytes_sent == 0
    assert comm._pair_next_out == {}
    assert m.network.traffic == {}
    assert m.kernel.queue_size == 0


def test_negative_nbytes_fails_inside_the_rank():
    def main(ctx):
        if ctx.rank == 0:
            try:
                ctx.comm.isend("x", 1, nbytes=-5)
            except MPIError:
                yield from ctx.comm.send("fine", 1)
                return "raised"
            return "accepted"
        got = yield from ctx.comm.recv(0)
        return got

    assert mpi_run(machine(), 2, main) == ["raised", "fine"]


# -- allgather -------------------------------------------------------------

def _value(rank):
    """Payloads of differing wire sizes, so block bytes differ per rank."""
    return list(range(rank % 5)) if rank % 3 else float(rank)


def _dict_bruck_nbytes(size):
    """Per-(rank, round) bytes of the classic dict-merging Bruck
    allgather: round k sends everything collected so far as a dict
    keyed by rank, then merges the dict received from rank + 2^k."""
    collected = [{r: _value(r)} for r in range(size)]
    nbytes = {}
    step, k = 1, 0
    while step < size:
        sent = [dict(c) for c in collected]
        for r in range(size):
            nbytes[(r, k)] = wire_size(sent[r])
        for r in range(size):
            for key, val in sent[(r + step) % size].items():
                collected[r].setdefault(key, val)
        step <<= 1
        k += 1
    return nbytes


@pytest.mark.parametrize("size", list(range(1, 18)) + [240])
def test_allgather_matches_dict_algorithm_bytes(size, monkeypatch):
    sent = {}
    original = Communicator._start_send

    def recording(self, msg, seq):
        sent[(msg.source, msg.tag)] = msg.nbytes
        return original(self, msg, seq)

    monkeypatch.setattr(Communicator, "_start_send", recording)

    comms = set()

    def main(ctx):
        comms.add(ctx.comm.comm)
        out = yield from allgather(ctx.comm, _value(ctx.rank))
        return out

    nodes = 10 if size == 240 else 3
    m = machine(nodes=nodes, cores=max(1, -(-size // nodes)))
    res = mpi_run(m, size, main)
    expected_values = [_value(r) for r in range(size)]
    assert all(out == expected_values for out in res)

    expected = _dict_bruck_nbytes(size)
    base = min((tag for _src, tag in sent), default=0)
    assert {(src, tag - base): n for (src, tag), n in sent.items()} == expected
    (comm,) = comms
    assert comm.bytes_sent == sum(expected.values())


def test_allgather_measures_only_its_own_value(monkeypatch):
    import repro.mpi.collectives as coll
    calls = []

    def counting(obj):
        calls.append(obj)
        return wire_size(obj)

    monkeypatch.setattr(coll, "wire_size", counting)

    def main(ctx):
        out = yield from allgather(ctx.comm, ctx.rank)
        return out

    mpi_run(machine(nodes=3, cores=4), 12, main)
    assert sorted(calls) == list(range(12))


# -- faults on the callback chain -----------------------------------------

def _tags(plan, source, dest, want):
    """The first user tags (from 1) whose message fault equals each
    entry of ``want``, in order."""
    out, tag = [], 1
    for decision in want:
        while plan.message_fault(source, dest, tag) != decision:
            tag += 1
        out.append(tag)
        tag += 1
    return out


def test_delayed_message_is_still_delivered_in_pair_order():
    plan = FaultPlan(seed=5, msg_delay_rate=0.5, msg_delay_seconds=0.25)
    slow, fast = _tags(plan, 0, 1, [(False, 0.25), (False, 0.0)])

    def main(ctx):
        if ctx.rank == 0:
            first = ctx.comm.isend("slow", 1, tag=slow)
            second = ctx.comm.isend("fast", 1, tag=fast)
            yield second.event
            t_fast = ctx.kernel.now
            yield first.event
            return t_fast, ctx.kernel.now
        got = []
        for _ in range(2):
            msg = yield from ctx.comm.recv_msg()  # wildcard source + tag
            got.append((msg.data, ctx.kernel.now))
        return got

    m = machine()
    injector = FaultInjector.attach(m, plan)
    (t_fast, t_slow), got = mpi_run(m, 2, main)
    # The second send's transfer finished first, but delivery waits for
    # the delayed one: pair order holds and both land together.
    assert t_fast < t_slow
    assert t_slow - t_fast >= 0.2
    assert [data for data, _t in got] == ["slow", "fast"]
    assert got[0][1] == got[1][1] == t_slow
    assert [r.kind for r in injector.injected()] == ["inject:msg-delay"]


def test_dropped_message_still_advances_pair_sequencing():
    plan = FaultPlan(seed=9, msg_drop_rate=0.5)
    lost, kept, later = _tags(plan, 0, 1,
                              [(True, 0.0), (False, 0.0), (False, 0.0)])

    comms = set()

    def main(ctx):
        comms.add(ctx.comm.comm)
        if ctx.rank == 0:
            reqs = [ctx.comm.isend(name, 1, tag=tag) for name, tag in
                    (("lost", lost), ("kept", kept), ("later", later))]
            for req in reqs:
                yield req.event  # a dropped send still completes
            return None
        got = []
        for _ in range(2):
            got.append((yield from ctx.comm.recv()))
        return got

    m = machine()
    injector = FaultInjector.attach(m, plan)
    injector.allow_drops(0, 1 << 20)
    assert mpi_run(m, 2, main) == [None, ["kept", "later"]]
    (comm,) = comms
    assert comm._pair_next_in[(0, 1)] == 3
    assert not comm._held_back.get((0, 1))
    assert [r.kind for r in injector.injected()] == ["inject:msg-drop"]
