"""Unit tests for the network model (transfers, NIC contention)."""

import pytest

from repro.cluster import Machine
from repro.config import CostModel, small_test_machine
from repro.sim import Kernel


def make_machine(**cost_kw):
    spec = small_test_machine(nodes=3, cores_per_node=2,
                              cost=CostModel(**cost_kw))
    k = Kernel()
    return k, Machine(k, spec)


def ignore(_ev):
    pass


def test_transfer_time_alpha_beta():
    k, m = make_machine(net_latency=1e-6, hop_latency=0.0, link_bandwidth=1e9)
    m.network.transfer(0, 1, 10**9, ignore)
    k.run()
    assert k.now == pytest.approx(1.0 + 1e-6)


def test_intra_node_transfer_uses_shm_cost():
    k, m = make_machine(intra_node_latency=1e-6, intra_node_bandwidth=1e10)
    m.network.transfer(2, 2, 10**10, ignore)
    k.run()
    assert k.now == pytest.approx(1.0 + 1e-6)


def test_transfer_spawns_no_process():
    k, m = make_machine()
    m.network.transfer(0, 1, 100, ignore)
    m.network.transfer(1, 1, 100, ignore)
    assert k._active_processes == 0
    k.run()


def test_nic_serializes_concurrent_sends_from_one_node():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []
    for dst in (1, 2):  # 1 second each
        m.network.transfer(0, dst, 10**6,
                           lambda _ev, dst=dst: done.append((dst, k.now)))
    k.run()
    # Same source NIC: strictly serialized.
    assert done == [(1, 1.0), (2, 2.0)]


def test_different_sources_to_different_dests_run_parallel():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []
    m.network.transfer(0, 1, 10**6, lambda _ev: done.append(k.now))
    # disjoint NICs (2.out, 0.in) vs (0.out, 1.in)
    m.network.transfer(2, 0, 10**6, lambda _ev: done.append(k.now))
    k.run()
    assert done == [1.0, 1.0]


def test_receiver_nic_serializes_fan_in():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []
    for src in (0, 1):
        m.network.transfer(src, 2, 10**6, lambda _ev: done.append(k.now))
    k.run()
    assert done == [1.0, 2.0]


def test_inject_charges_inbound_nic():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []

    def io_arrival():
        yield from m.network.inject(1, 10**6)
        done.append(("io", k.now))

    k.process(io_arrival())
    m.network.transfer(0, 1, 10**6, lambda _ev: done.append(("msg", k.now)))
    k.run()
    # Both need node 1's inbound NIC: serialized (io first, FIFO).
    assert done == [("io", 1.0), ("msg", 2.0)]


def test_traffic_accounting():
    k, m = make_machine()
    m.network.transfer(0, 1, 100, ignore)
    m.network.transfer(0, 1, 50, ignore)
    m.network.transfer(1, 1, 25, ignore)
    k.run()
    assert m.network.traffic[(0, 1)] == 150
    assert m.network.inter_node_bytes == 150
    assert m.network.intra_node_bytes == 25
    m.network.reset_counters()
    assert m.network.inter_node_bytes == 0


def test_negative_size_rejected():
    k, m = make_machine()
    with pytest.raises(ValueError):
        m.network.transfer(0, 1, -1, ignore)
    assert m.network.traffic == {}
    assert k.queue_size == 0
