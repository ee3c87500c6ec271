"""The traced run: per-layer host self-time and exact work counts.

Untraced and traced operations alternate, both with the program's
``repro.obs`` metrics and the jobs' phase timelines on.  Host times are
medians over the traced operations; counts are per operation (both jobs)
and must repeat exactly: every operation's deterministic metrics snapshot
must equal the warm-up's, traced or not, or the operation counts as
failed.  See README.md for what each metric should move.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.config import MiB
from repro.core import ops
from repro.obs import metrics as obs

import calibrate
from tracer import LAYERS, LayerTracer, layer_modules

SPAWN = "repro.sim.kernel.Kernel.process"
TRANSFER = "repro.cluster.network.Network.transfer"
SYNTH = "repro.workloads.climate.climate_field"
CRC = "repro.integrity.digest.crc32c"


#: Every operator's ``map_chunk``; their meters sum to ``core.map_elements``.
MAP_CHUNKS = [f"{cls.__module__}.{cls.__qualname__}.map_chunk"
              for cls in vars(ops).values()
              if isinstance(cls, type) and "map_chunk" in vars(cls)]


def _meters() -> Dict[str, Any]:
    meters = {
        SYNTH: lambda args, kwargs, result: result.nbytes,
        CRC: lambda args, kwargs, result: memoryview(args[0]).nbytes,
    }
    for name in MAP_CHUNKS:  # args are (self, values, indices)
        meters[name] = lambda args, kwargs, result: np.size(args[1])
    return meters


def _total(counters: Dict[str, float], prefix: str) -> float:
    return sum(v for k, v in counters.items() if k.startswith(prefix))


def traced(loop, seconds: float):
    """Run the traced loop for ``seconds``; ``(values, units)`` or None."""
    tracer = LayerTracer(layer_modules(), _meters())
    with obs.override_obs(True):
        _, row = loop.operation(timed=False, timeline=True)
        reference = obs.current().snapshot()
    if row is None:
        return None
    loop.reference = row

    plain: List[float] = []
    kernel: List[float] = []
    samples: List[Dict[str, Any]] = []
    t_loop = time.perf_counter()
    while not samples or time.perf_counter() - t_loop < seconds:
        with obs.override_obs(True):
            wall, _ = loop.operation(timeline=True)
            cache = obs.current().snapshot(volatile=True)["counters"]
            _match(loop, reference, obs.current().snapshot(), "untraced")
        plain.append(wall)
        with obs.override_obs(True), tracer:
            wall, _ = loop.operation(timeline=True, tracer=tracer)
            _match(loop, reference, obs.current().snapshot(), "traced")
        if tracer.depth:
            loop.fail(f"tracer left {tracer.depth} layer calls open")
        kernel.append(calibrate.sample())
        samples.append(dict(
            wall=wall, self=tracer.self_seconds(),
            unattributed=tracer.unattributed_s,
            counts=(tracer.calls(SPAWN), tracer.calls(TRANSFER),
                    tracer.layer_calls("dataspace"), tracer.metered(SYNTH),
                    tracer.metered(CRC), _map_elements(tracer))))
        if samples[-1]["counts"] != samples[0]["counts"]:
            loop.fail(f"traced call counts {samples[-1]['counts']} differ "
                      f"from the first traced operation's "
                      f"{samples[0]['counts']}")
    return _metrics(loop, reference["counters"], cache, plain, kernel,
                    samples)


def _map_elements(tracer: LayerTracer) -> float:
    return sum(tracer.metered(name) for name in MAP_CHUNKS)


def _match(loop, reference: Dict[str, Any], snapshot: Dict[str, Any],
           which: str) -> None:
    if snapshot != reference:
        diff = sorted(k for kind in ("counters", "gauges", "histograms")
                      for k in set(reference[kind]) | set(snapshot[kind])
                      if reference[kind].get(k) != snapshot[kind].get(k))
        loop.fail(f"{which} operation's metrics differ from the warm-up's: "
                  f"{', '.join(diff)}")


def _metrics(loop, c: Dict[str, float], cache: Dict[str, float],
             plain: List[float], kernel: List[float],
             samples: List[Dict[str, Any]]
             ) -> Tuple[Dict[str, float], Dict[str, str]]:
    def med(key, layer=None):
        return statistics.median(s[key][layer] if layer else s[key]
                                 for s in samples)

    spawned, transfers, ds_calls, synth, crc, mapped = samples[0]["counts"]
    events = c.get("sim.events", 0)
    ost_bytes = c.get("pfs.ost.bytes", 0)
    hits = cache.get("pfs.blockcache.hits", 0)
    lookups = hits + cache.get("pfs.blockcache.misses", 0)
    values: Dict[str, float] = {f"{layer}.self_s": med("self", layer)
                                for layer in LAYERS}
    values.update({
        "sim.events": events,
        "sim.processes": spawned,
        "sim.host_us_per_event": (1e6 * values["sim.self_s"] / events
                                  if events else 0.0),
        "cluster.transfers": transfers,
        "mpi.messages": c.get("mpi.messages", 0),
        "mpi.wire_bytes": c.get("mpi.wire_bytes", 0),
        "mpi.collectives": _total(c, "mpi.coll."),
        "io.plan_exchanges": c.get("io.plan_exchanges", 0),
        "io.shuffle_bytes": c.get("io.shuffle_bytes", 0),
        "io.internode_bytes": c.get("io.internode_bytes", 0),
        "io.read_sim_s": c.get("sim.phase.read", 0.0),
        "io.shuffle_sim_s": c.get("sim.phase.shuffle", 0.0),
        "core.map_elements": mapped,
        "core.compute_sim_s": (c.get("sim.phase.map", 0.0)
                               + c.get("sim.phase.compute", 0.0)),
        "pfs.ost_requests": c.get("pfs.ost.requests", 0),
        "pfs.ost_bytes": ost_bytes,
        "pfs.useful_ratio": (2 * loop.case.workload.total_bytes / ost_bytes
                             if ost_bytes else 0.0),
        "pfs.blockcache_hit_ratio": hits / lookups if lookups else 0.0,
        "pfs.read_retries": c.get("pfs.read_retries", 0),
        "dataspace.calls": ds_calls,
        "workloads.synth_mib": synth / MiB,
        "faults.injected": _total(c, "faults.inject:"),
        "faults.recovered": _total(c, "faults.recover:"),
        "integrity.crc_mib": crc / MiB,
        "integrity.detected": _total(c, "faults.detect:"),
        "integrity.blocks_verified": c.get("integrity.blocks_verified", 0),
        "trace.overhead_frac": med("wall") / statistics.median(plain) - 1.0,
        "trace.unattributed_s": med("unattributed"),
        "host.wall_s": statistics.median(plain),
        "host.kernel_s": statistics.median(kernel),
    })
    return values, {name: unit_of(name) for name in values}


def unit_of(name: str) -> str:
    """The unit of the per-layer metric ``name``."""
    if name.endswith(("self_s", "unattributed_s")) or name.startswith("host."):
        return "s"
    if name.endswith("_sim_s"):
        return "sim_s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_us_per_event"):
        return "us"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"
