"""Network model: point-to-point transfers with NIC serialization.

A transfer between two nodes charges the alpha/beta cost from the
:class:`~repro.config.CostModel` *while holding* the sender's outbound
NIC and the receiver's inbound NIC, so concurrent messages through the
same endpoint serialize (store-and-forward at the endpoints).  Intra-node
transfers bypass the NICs and use the shared-memory cost instead.

:meth:`Network.transfer` is a chain of event callbacks (NIC grants,
then the timed transfer), so a message costs a handful of events and
no simulated process.  :meth:`Network.inject` and
:meth:`Network.eject` stay generators: they run inline (``yield
from``) inside the file system's read and write processes.

The deadlock-freedom argument for holding two resources: a transfer
acquires ``src.nic_out`` before ``dst.nic_in``; since the ``nic_out`` and
``nic_in`` pools are disjoint, no cycle of waits can form between
transfers (an out-holder waits only on in-slots, never on out-slots).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List

from ..config import CostModel
from ..sim import Event, Kernel
from .node import Node
from .topology import MeshTopology


class Network:
    """The machine interconnect.

    Parameters
    ----------
    kernel:
        Owning simulation kernel.
    nodes:
        Node list, indexed by node id.
    topology:
        Hop-count provider.
    cost:
        The platform cost model.
    """

    def __init__(self, kernel: Kernel, nodes: List[Node],
                 topology: MeshTopology, cost: CostModel) -> None:
        self.kernel = kernel
        self.nodes = nodes
        self.topology = topology
        self.cost = cost
        #: Cumulative transferred bytes keyed by (src_node, dst_node);
        #: experiments use this to report shuffle traffic volumes.
        self.traffic: Dict[tuple, int] = {}
        #: Total bytes moved across node boundaries.
        self.inter_node_bytes = 0
        #: Total bytes moved within nodes (shared memory).
        self.intra_node_bytes = 0

    def _account(self, src: int, dst: int, nbytes: int) -> None:
        key = (src, dst)
        self.traffic[key] = self.traffic.get(key, 0) + nbytes
        if src == dst:
            self.intra_node_bytes += nbytes
        else:
            self.inter_node_bytes += nbytes

    def transfer(self, src: int, dst: int, nbytes: int,
                 then: Callable[[Event], None]) -> None:
        """Start one message transfer; ``then(event)`` runs once the
        message has been fully delivered.

        A callback chain, not a process: ``src.nic_out`` request, on
        grant ``dst.nic_in`` request, on grant a timeout for the
        alpha/beta cost, then both NICs are released (inbound first)
        and ``then`` is called with the expired timeout.  An intra-node
        transfer is one timed callback at the shared-memory cost.
        """
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        self._account(src, dst, nbytes)
        kernel = self.kernel
        if src == dst:
            kernel.timeout(self.cost.intra_node_msg_time(nbytes)
                           ).callbacks.append(then)
            return
        nic_out = self.nodes[src].nic_out
        nic_in = self.nodes[dst].nic_in
        msg_time = self.cost.msg_time(nbytes, self.topology.hops(src, dst))
        out_req = nic_out.request()

        def out_granted(_ev: Event) -> None:
            in_req = nic_in.request()

            def in_granted(_ev: Event) -> None:
                def sent(ev: Event) -> None:
                    nic_in.release(in_req)
                    nic_out.release(out_req)
                    then(ev)

                kernel.timeout(msg_time).callbacks.append(sent)

            in_req.callbacks.append(in_granted)

        out_req.callbacks.append(out_granted)

    def inject(self, dst: int, nbytes: int) -> Generator:
        """Sub-process: storage-to-compute traffic arriving at ``dst``.

        On the paper's testbed the Lustre data path (LNET) shares the
        Gemini interconnect with MPI traffic, so file reads occupy the
        client node's inbound NIC and genuinely contend with the shuffle
        phase — the contention collective computing sidesteps.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.inter_node_bytes += nbytes
        node = self.nodes[dst]
        req = node.nic_in.request()
        yield req
        try:
            yield self.kernel.timeout(self.cost.msg_time(nbytes, hops=1))
        finally:
            node.nic_in.release(req)

    def eject(self, src: int, nbytes: int) -> Generator:
        """Sub-process: compute-to-storage traffic leaving ``src``
        (writes); occupies the outbound NIC."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.inter_node_bytes += nbytes
        node = self.nodes[src]
        req = node.nic_out.request()
        yield req
        try:
            yield self.kernel.timeout(self.cost.msg_time(nbytes, hops=1))
        finally:
            node.nic_out.release(req)

    def reset_counters(self) -> None:
        """Clear traffic accounting (between experiment phases)."""
        self.traffic.clear()
        self.inter_node_bytes = 0
        self.intra_node_bytes = 0
