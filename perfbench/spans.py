"""Span recording around the public calls of each ``repro`` layer.

The benchmark traces from outside: it replaces each listed function or
method with a wrapper that records one span per call (name, start,
end, parent) in memory, and puts the originals back afterwards.  A
function imported by name into other modules (``encapsulate`` into
``repro.mobileip.tunnel``, ``trace_digest`` into the runner) is
replaced wherever a loaded ``repro`` module holds it, because that is
where its callers look it up.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import Span, self_times

# (layer, module, qualified name, count non-None returns as hits).
# A layer is named after its module, except that ``events`` holds the
# simulator's run loop.  The metrics for a call are
# ``<layer>.<qualified name>.calls`` and ``.self_s``.
TRACED_CALLS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("events", "repro.netsim.simulator", "Simulator.run", False),
    ("node", "repro.netsim.node", "Node.ip_send", False),
    ("node", "repro.netsim.node", "Node.ip_input", False),
    ("node", "repro.netsim.node", "Node.forward", False),
    ("router", "repro.netsim.router", "Router.forward", False),
    ("routing", "repro.netsim.routing", "RoutingTable.lookup", False),
    ("filters", "repro.netsim.filters", "FilterEngine.evaluate", False),
    ("arp", "repro.netsim.arp", "ArpService.lookup", True),
    ("arp", "repro.netsim.arp", "ArpService.resolve_and_send", False),
    ("encap", "repro.netsim.encap", "encapsulate", False),
    ("encap", "repro.netsim.encap", "decapsulate", False),
    ("tunnel", "repro.mobileip.tunnel",
     "TunnelEndpoint.send_encapsulated", False),
    ("link", "repro.netsim.link", "Segment.transmit", False),
    ("link", "repro.netsim.link", "Interface.receive", False),
    ("sockets", "repro.transport.sockets", "TransportStack.udp_output", False),
    ("sockets", "repro.transport.sockets", "UDPSocket.sendto", False),
    ("home_agent", "repro.mobileip.home_agent", "HomeAgent.ip_input", False),
    ("binding", "repro.mobileip.binding", "BindingTable.lookup", True),
    ("binding", "repro.mobileip.binding", "BindingTable.prune", False),
    ("trace", "repro.netsim.trace", "TraceLog.note", False),
    ("fastforward", "repro.netsim.fastforward", "FastForwarder.run", False),
    ("golden", "repro.bench.golden", "trace_digest", False),
    ("scenarios", "repro.analysis.scenarios", "build_scenario", False),
    ("population", "repro.netsim.population", "install_population", False),
    ("population", "repro.netsim.population", "Population.promote", False),
    ("population", "repro.netsim.population", "HostPool.refresh_slice",
     False),
    ("runner", "repro.experiment.runner", "Runner.run", False),
    ("cache", "repro.experiment.cache", "ResultCache.lookup", True),
    ("cache", "repro.experiment.cache", "ResultCache.store", False),
    ("ledger", "repro.obs.ledger", "RunLedger.append", False),
    ("supervise", "repro.experiment.supervise",
     "SweepCheckpoint.record", False),
    ("sweep", "repro.experiment.sweep", "SweepExecutor.run", False),
)

SPAN_NAMES = tuple(f"{layer}.{qualname}"
                   for layer, _, qualname, _ in TRACED_CALLS)


class SpanRecorder:
    """In-memory spans plus hit counts for lookup-style calls."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.hits: Dict[str, List[int]] = {}   # name -> [hits, calls]
        # Largest event-heap size seen at any span entry while a
        # simulator is running.
        self.heap_peak = 0
        self.sim: Any = None

    def wrap(self, name: str, func: Callable, count_hits: bool) -> Callable:
        """``func`` with one span recorded per call."""
        spans, stack = self.spans, self.stack
        clock = perf_counter
        recorder = self
        hits = self.hits.setdefault(name, [0, 0]) if count_hits else None

        def wrapper(*args, **kwargs):
            sim = recorder.sim
            if sim is not None:
                size = sim.events.heap_size
                if size > recorder.heap_peak:
                    recorder.heap_peak = size
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hits is not None:
                hits[1] += 1
                if result is not None:
                    hits[0] += 1
            return result

        if name == "events.Simulator.run":
            traced_call = wrapper

            def wrapper(sim, *args, **kwargs):
                # Heap sizes are sampled while this simulator runs.
                outer, recorder.sim = recorder.sim, sim
                try:
                    return traced_call(sim, *args, **kwargs)
                finally:
                    recorder.sim = outer

        return wrapper

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        return self_times([s for s in self.spans if s is not None])

    def hit_ratio(self, name: str) -> float:
        hit, calls = self.hits.get(name, (0, 0))
        return hit / calls if calls else 0.0


def _load_repro_modules() -> List[Any]:
    """Import every ``repro`` submodule so no by-name copy is missed."""
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    return [module for name, module in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


class Installed:
    """The wrappers of one recorder, in place until :meth:`remove`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        modules = _load_repro_modules()
        self._undo: List[Tuple[Any, str, Any]] = []
        for layer, module_name, qualname, count_hits in TRACED_CALLS:
            name = f"{layer}.{qualname}"
            module = sys.modules[module_name]
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, recorder.wrap(name, original,
                                                     count_hits))
                continue
            original = getattr(module, qualname)
            wrapper = recorder.wrap(name, original, count_hits)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, attr, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
