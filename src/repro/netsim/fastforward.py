"""Flow fast-forwarding: replay verified steady-state cascades in bulk.

Between mobility, fault, adversary, and timer events, a registered
traffic flow's per-packet behavior is fully determined: the same route,
the same encapsulation chain, the same per-hop latencies, the same
trace entries shifted in time.  Helmy's state-aggregation observation —
that the long steady tail of mobility workloads is analytically
compressible — applies directly: simulate one packet, then *replay* its
event cascade N times instead of re-executing it.

The :class:`FastForwarder` wraps one :class:`~repro.netsim.simulator.
Simulator` run.  Mechanics:

* **Capture.**  The first dispatch of each flow always runs real and
  uninstrumented (ARP warm-up differs from the steady shape anyway).
  Later ones run under instrumentation, within the backoff below,
  until the flow pairs: every ``schedule`` call becomes a child *step*
  (exact delay, label, callback identity), every trace event (through
  a ``TraceLog`` subscription) and every ``note_link_bytes`` call is
  snapshotted eagerly (packets mutate in place), every transport
  boundary crossing (source selection, send/receive reports, socket
  delivery) is recorded as a live *invoke*, and every counter cell
  (node/segment/tunnel/agent counters, filter hit dicts) is diffed
  around each step.  Dispatches
  that are neither captured nor replayed run *benign*: real execution
  whose scheduled children are exempt from the horizon scan, so warming
  up never poisons the world.
* **Capture backoff.**  A flow's first two captures are free; after
  the k-th capture past them, the flow runs 2**k dispatches benign
  (``backed_off``) before capturing again, so a flow that never pairs
  (indexed payloads) pays O(log n) captures, not one per dispatch.
  Only forming a template resets the backoff.  ``_world_changed`` does
  not: every dispatch from a mobile host is a world change, so in a
  two-way conversation a reset there would never let the budget bite.
* **Verification.**  A template forms only from two captures of the
  same flow that are bit-identical: same step tree with exactly equal
  float delays, same emissions (including packet reprs), same invokes,
  same counter deltas, same RNG state before and after, and exactly one
  fresh trace id per cascade whose value advanced by exactly one per
  intervening dispatch (proving no cascade performs hidden id draws).
* **Quiescence.**  A dispatch replays only if the whole cascade window
  fits before the *horizon*: the earliest of the run deadline, any
  pending non-flow event in the heap, and every node's
  ``ff_time_horizon`` (ARP expiry, reassembly timeouts, binding
  lifetimes, advisory rate-limit boundaries).  The flow's
  ``ff_flow_signature`` (source address, binding cache state) must also
  equal the template's.  Any unknown event executing marks the world
  changed and drops all templates; any real flow execution invalidates
  the cached horizon (it may move rate-limit boundaries).
* **Replay.**  The cascade's steps are merged with real events through
  a virtual heap keyed by the same ``(time, seq)`` order the engine
  uses — sequence numbers are drawn from the real queue at the same
  points real scheduling would draw them, and child times are chained
  with the same float additions, so entries, interleaving, and the
  golden digest are byte-identical with fast-forwarding on or off.
  A template compiles each trace emission into one shape tuple with
  its digest suffix precomputed; replay appends one
  ``(time, trace_id, shape)`` row per emission, inline, and every
  replayed datagram shares that shape, so replay builds no
  ``TraceEntry`` (the log builds those only when read).  Aggregate
  counters (action counts, drop reasons, link bytes, component
  counters) are applied in bulk when the run finishes or the template
  is invalidated.  Invokes whose effect is provably null (source
  selection with no selector hook, send/receive reports with no
  observers, socket delivery into a ``ff_pure`` callback) are pruned
  from templates at build time.

The forwarder disengages entirely — plain ``EventQueue.run`` — when
the trace log has any subscriber (span recorder, invariant monitor,
flight recorder, or anything else reading events live: replay appends
rows without calling ``note()``, so a subscriber would miss them),
when no flows are registered, when a run has no deadline, or when any
segment is lossy or down.  The capture itself subscribes (and hooks
link bytes and transport boundaries) only while a capture is recording.

Known, deliberate gap: within one replayed event, all trace emissions
are applied before the live invokes; a cascade whose invokes themselves
emit trace entries interleaved with note() calls would reorder within
that single event (none of the registered transport boundaries do).
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from .filters import FilterEngine
from .packet import _trace_ids
from .trace import freeze_row

if TYPE_CHECKING:  # pragma: no cover
    from .events import Event
    from .node import Node
    from .simulator import Simulator

__all__ = ["FF_STAT_KEYS", "FastForwarder"]

# The counters :meth:`FastForwarder.stats` reports besides ``enabled``;
# everything that sums or prints them across runs iterates this tuple.
FF_STAT_KEYS = ("engaged_runs", "replayed", "captured", "fallbacks",
                "world_changes", "backed_off")

# Slack added to a cascade's span when checking it against the horizon.
# Replayed times are bit-exact (same float chain as real execution), so
# this only errs toward falling back to real execution at boundaries.
_SPAN_MARGIN = 1e-9

# Counter attributes probed on every node (and agent subclasses).  Only
# attributes that exist and are ints become cells; the list covers every
# counter incremented on a packet path (see the capture/replay parity
# argument in the module docstring).
_NODE_COUNTERS = (
    "packets_sent", "packets_received", "packets_forwarded",
    "packets_tunneled", "packets_reverse_forwarded", "advisories_sent",
    "encap_failures", "auth_failures", "replays_rejected",
    "decap_refused", "direct_tunneled", "link_directed",
    "packets_delivered_final_hop", "advertisements_sent",
    "posture_changes",
)
_REASSEMBLER_COUNTERS = ("timeouts", "reassembled", "duplicates", "overlaps")
_TUNNEL_COUNTERS = ("encapsulated_count", "decapsulated_count", "bad_encap_count")
_SEGMENT_COUNTERS = ("frames_carried", "bytes_carried", "frames_lost",
                     "queue_dropped", "busy_bits")
_INTERFACE_COUNTERS = ("frames_dropped",)


class _IntCell:
    """One integer counter attribute watched during capture."""

    __slots__ = ("obj", "attr")

    def __init__(self, obj: Any, attr: str):
        self.obj = obj
        self.attr = attr

    def apply(self, delta: int, count: int) -> None:
        setattr(self.obj, self.attr, getattr(self.obj, self.attr) + delta * count)


class _DictCell:
    """An int-valued dict counter (e.g. ``FilterEngine.hits``)."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Dict[str, int]):
        self.mapping = mapping

    def delta(self, before: Dict[str, int]):
        out = [
            (key, value - before.get(key, 0))
            for key, value in self.mapping.items()
            if value != before.get(key, 0)
        ]
        return tuple(sorted(out)) or None

    def apply(self, delta, count: int) -> None:
        mapping = self.mapping
        for key, dv in delta:
            mapping[key] = mapping.get(key, 0) + dv * count


class _Step:
    """One event of a captured cascade.

    ``ops`` interleaves, in execution order, trace emissions
    ``("e", row)`` (the row ``TraceLog.note`` stores), link-byte notes
    ``("l", name, size)``, and transport invokes
    ``("i", bound_method, args, kwargs)``.
    """

    __slots__ = ("parent", "delay", "label", "fkey", "ops", "delta")

    def __init__(self, parent: int, delay: float, label: str, fkey):
        self.parent = parent
        self.delay = delay
        self.label = label
        self.fkey = fkey
        self.ops: List[tuple] = []
        self.delta: tuple = ()


class _Capture:
    """A cascade being recorded; pairs with its predecessor to form a
    template.  ``record=False`` marks the shared *benign* sentinel:
    real execution whose children are exempt but nothing is recorded.
    """

    __slots__ = ("key", "sig", "rng_state", "steps", "outstanding", "alive",
                 "record", "state", "idx")

    def __init__(self, key, sig, rng_state):
        self.key = key
        self.sig = sig
        self.rng_state = rng_state
        self.steps: List[_Step] = []
        self.outstanding = 0
        self.alive = True
        self.record = True
        self.state: Optional[list] = None
        self.idx = 0


class _Template:
    """A verified cascade, compiled for replay.

    ``steps[i]`` is ``(delay, shapes, invokes, children)``: trace-row
    shapes with their digest suffix precomputed (time and trace id are
    paired with them at replay), live invoke triples, and child step
    indexes.  All aggregate effects (action counts, drop reasons, link
    bytes, counter cells) are summed once here and applied ``count``
    times at flush.
    """

    __slots__ = ("sig", "steps", "span", "n", "actions", "drops", "losses",
                 "links", "cells", "count")

    def __init__(self, sig, steps, span, actions, drops, losses, links, cells):
        self.sig = sig
        self.steps = steps
        self.span = span
        self.n = len(steps)
        self.actions = actions
        self.drops = drops
        self.losses = losses
        self.links = links
        self.cells = cells
        self.count = 0


def _prunable_invoke(func) -> bool:
    """True when replaying this recorded invoke can have no effect."""
    owner = getattr(func, "__self__", None)
    name = getattr(func, "__name__", "")
    if name == "_select_source":
        # Pure address computation unless an engine hook is installed.
        return getattr(owner, "source_selector", True) is None
    if name in ("report_send", "report_receive"):
        observers = getattr(owner, "observers", None)
        return observers is not None and len(observers) == 0
    if name == "_deliver":
        callback = getattr(owner, "_callback", False)
        return callback is None or getattr(callback, "ff_pure", False)
    return False


class FastForwarder:
    """Per-simulator fast path; owned by :class:`Simulator`."""

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self.enabled = True
        # flow dispatch seq -> (flow key, origin node, destination ip)
        self._flows: Dict[int, tuple] = {}
        # seqs the horizon scan must ignore: flow dispatches plus
        # capture/benign child events (our own in-flight machinery).
        self._exempt: Set[int] = set()
        self._stacks: list = []
        self._sockets: list = []
        self._templates: Dict[tuple, _Template] = {}
        self._pending: Dict[tuple, _Capture] = {}
        self._open: Set[_Capture] = set()
        # per-flow warm-up state: [dispatch index, open capture count,
        # captures since the flow last formed a template, first dispatch
        # index the capture backoff allows to capture again]
        self._key_state: Dict[tuple, list] = {}
        self._benign = _Capture(None, None, None)
        self._benign.record = False
        self._cells: Optional[list] = None
        # Snapshot fast path: (obj, attr) pairs for the int-cell prefix
        # of ``_cells`` and the dict-cell suffix, kept index-aligned.
        self._snap_pairs: list = []
        self._snap_dicts: list = []
        self._cur: Optional[_Capture] = None
        self._cur_idx = 0
        self._in_invoke = False
        self._horizon: Optional[float] = None
        self._suspect = False
        self._until = 0.0
        self._vheap: list = []
        self._saved: list = []
        # Hooks that only a recording capture reads; armed while _open
        # is non-empty (see _arm_recording).
        self._recording_hooks: list = []
        self._recording_saved: list = []
        self._recording = False
        self._orig_schedule = None
        self._orig_link = None
        # True while _run_engaged is on the stack: observers (the
        # engine sampler) use it to tag readings taken mid-replay.
        self.active = False
        # stats (see FF_STAT_KEYS)
        self.engaged_runs = 0
        self.replayed = 0
        self.captured = 0
        self.fallbacks = 0
        self.world_changes = 0
        self.backed_off = 0

    # ------------------------------------------------------------------
    # Registration (called by the experiment runner before sim.run)
    # ------------------------------------------------------------------
    def register_traffic(self, stacks, sockets) -> None:
        """Declare the transport stacks and sockets traffic flows use;
        their boundary methods are captured as live invokes."""
        for stack in stacks:
            if stack not in self._stacks:
                self._stacks.append(stack)
        for sock in sockets:
            if sock not in self._sockets:
                self._sockets.append(sock)

    def register_flow_event(self, event: "Event", node: "Node", key: tuple,
                            dst) -> None:
        """Mark a scheduled traffic dispatch as a fast-forwardable flow."""
        self._flows[event.seq] = (key, node, dst)
        self._exempt.add(event.seq)

    def stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {"enabled": self.enabled}
        for key in FF_STAT_KEYS:
            stats[key] = getattr(self, key)
        return stats

    def register_metrics(self, registry: Any) -> None:
        """Expose the counters as a ``fast_forward`` metrics family.

        Deliberately *not* registered on the simulator's own registry:
        a run's metrics snapshot must be byte-identical with the
        forwarder on or off (the equivalence contract).  Callers that
        want the counters in an observability report — the CLI's
        ``--obs-out`` path — register them on a report-side registry,
        the same pattern :meth:`ResultCache.register_metrics` uses.
        """
        registry.family(
            "fast_forward",
            lambda: {k: float(v) for k, v in self.stats().items()},
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: int = 1_000_000) -> float:
        sim = self._sim
        if (not self.enabled or until is None or not self._flows
                or sim.trace.subscribers
                or not self._segments_clean()):
            # Replay appends rows without calling note(), so any
            # trace subscriber would miss replayed cascades.
            return sim.events.run(until=until, max_events=max_events)
        return self._run_engaged(until, max_events)

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------
    def _segments_clean(self) -> bool:
        # A queueing segment (queue_capacity set) makes frame timing
        # depend on cross-flow line state, so a per-flow cascade is no
        # longer self-contained — stand aside, like for loss and down.
        return all(
            segment.up and not segment.loss_rate
            and segment.queue_capacity is None
            for segment in self._sim.segments.values()
        )

    def _compute_horizon(self, now: float) -> float:
        horizon = self._until
        exempt = self._exempt
        for time, seq, event in self._sim.events._heap:
            if (time < horizon and seq not in exempt
                    and not event.cancelled
                    and not getattr(event.action, "ff_transparent", False)):
                horizon = time
        for node in self._sim.nodes.values():
            node_horizon = node.ff_time_horizon(now)
            if node_horizon < horizon:
                horizon = node_horizon
        return horizon

    def _world_changed(self) -> None:
        """An event outside the verified flows ran: drop everything but
        the per-flow capture backoff (see the module docstring)."""
        self.world_changes += 1
        if self._templates:
            self._flush()
            self._templates.clear()
        for capture in self._open:
            capture.alive = False
            if capture.state is not None:
                capture.state[1] -= 1
        self._open.clear()
        self._disarm_recording()
        self._pending.clear()
        self._horizon = None
        self._suspect = True
        self._cells = None

    # ------------------------------------------------------------------
    # The engaged main loop — replicates EventQueue.run bookkeeping
    # ------------------------------------------------------------------
    def _run_engaged(self, until: float, max_events: int) -> float:
        sim = self._sim
        queue = sim.events
        clock = queue.clock
        heap = queue._heap
        vheap: list = []
        self._vheap = vheap
        self._until = until
        self._horizon = None
        self._suspect = False
        self._templates.clear()
        self._pending.clear()
        self._key_state.clear()
        self.engaged_runs += 1
        trace = sim.trace
        rows = trace.rows
        byid = trace._rows_by_id
        pop = heappop
        push = heappush
        flows = self._flows
        exempt = self._exempt
        templates = self._templates
        key_state = self._key_state
        benign = self._benign
        processed = 0
        live_popped = 0
        self._install()
        self.active = True
        try:
            while True:
                if processed >= max_events:
                    raise RuntimeError(
                        f"event budget exhausted ({max_events} events)")
                rhead = None
                while heap:
                    candidate = heap[0]
                    if candidate[2].cancelled:
                        pop(heap)
                        queue._cancelled -= 1
                        exempt.discard(candidate[1])
                    else:
                        rhead = candidate
                        break
                if vheap:
                    vhead = vheap[0]
                    if rhead is None or vhead[0] < rhead[0] or (
                            vhead[0] == rhead[0] and vhead[1] < rhead[1]):
                        # Drain every virtual event due before the real
                        # head.  Replay itself never touches the real
                        # heap; a live invoke may (schedule), which the
                        # length check catches — cancellation only makes
                        # the drain bound conservative.
                        if rhead is not None:
                            rtime, rseq = rhead[0], rhead[1]
                        else:
                            rtime, rseq = float("inf"), 0
                        hlen = len(heap)
                        while True:
                            time, _vseq, ctx, idx = pop(vheap)
                            clock._now = time
                            steps, trace_id, index_list = ctx
                            _delay, shapes, invokes, children = steps[idx]
                            for shape in shapes:
                                index_list.append(len(rows))
                                rows.append((time, trace_id, shape))
                            for func, fargs, fkwargs in invokes:
                                func(*fargs, **fkwargs)
                            if children:
                                seq = queue._seq
                                for child in children:
                                    push(vheap, (time + steps[child][0],
                                                 seq, ctx, child))
                                    seq += 1
                                queue._seq = seq
                            processed += 1
                            if not vheap or processed >= max_events:
                                break
                            vhead = vheap[0]
                            if (vhead[0] > rtime
                                    or (vhead[0] == rtime
                                        and vhead[1] > rseq)
                                    or len(heap) != hlen):
                                break
                        continue
                if rhead is None:
                    if until > clock._now:
                        clock._now = until
                    return clock._now
                time, seq, event = rhead
                if time > until:
                    if until > clock._now:
                        clock._now = until
                    return clock._now
                pop(heap)
                live_popped += 1
                if time < clock._now:
                    raise RuntimeError(
                        f"time went backwards: {time} < {clock._now}")
                clock._now = time
                event.done = True
                # Seqs are never reused: forget an exempt one once popped.
                own = seq in exempt
                if own:
                    exempt.remove(seq)
                meta = flows.get(seq)
                if meta is not None:
                    key, node, dst = meta
                    signature = node.ff_flow_signature(dst)
                    if signature is None:
                        # Unsupported origin (mobile host): its send
                        # machinery mutates state the capture cannot
                        # verify, so it both runs real and invalidates.
                        self._world_changed()
                        event.action(*event.args)
                    else:
                        template = templates.get(key)
                        if template is not None and template.sig != signature:
                            # The steady state shifted (binding learned
                            # or expired): rebuild from scratch.
                            self._flush()
                            del templates[key]
                            self._pending.pop(key, None)
                            template = None
                        if template is not None:
                            ok = template.n <= max_events - processed
                            if ok and self._suspect:
                                if self._segments_clean():
                                    self._suspect = False
                                else:
                                    self._flush()
                                    templates.clear()
                                    self._pending.clear()
                                    ok = False
                            if ok:
                                horizon = self._horizon
                                if horizon is None:
                                    horizon = self._compute_horizon(time)
                                    self._horizon = horizon
                                ok = (time + template.span + _SPAN_MARGIN
                                      <= horizon)
                            if ok:
                                template.count += 1
                                self.replayed += 1
                                # The root replays through the virtual
                                # branch above under the real dispatch's
                                # seq; one fresh trace id per cascade.
                                tid = next(_trace_ids)
                                push(vheap, (time, seq,
                                             (template.steps, tid,
                                              byid[tid]), 0))
                                continue
                            self.fallbacks += 1
                            self._benign_exec(event)
                            self._horizon = None
                        else:
                            state = key_state.get(key)
                            if state is None:
                                state = key_state[key] = [0, 0, 0, 0]
                            idx = state[0]
                            state[0] = idx + 1
                            if idx == 0:
                                # First dispatch warms caches (ARP);
                                # never matches the steady shape.
                                do_capture = False
                            elif key in self._pending:
                                do_capture = state[1] == 0
                            else:
                                do_capture = state[1] < 2
                            if do_capture and idx < state[3]:
                                do_capture = False
                                self.backed_off += 1
                            if do_capture:
                                self.captured += 1
                                tries = state[2] = state[2] + 1
                                if tries > 2:
                                    # Capture backoff: the k-th capture
                                    # past the first pair is followed by
                                    # 2**k benign dispatches (undone if
                                    # it forms a template).
                                    state[3] = idx + 1 + (1 << (tries - 2))
                                self._capture_dispatch(
                                    key, signature, event, state, idx)
                            else:
                                self._benign_exec(event)
                            self._horizon = None
                elif own or getattr(event.action, "ff_transparent", False):
                    # Our own capture/benign children, and read-only
                    # observers (the engine sampler tick): run benign —
                    # real execution, children exempt — instead of
                    # dropping every template.  Inlined _benign_exec.
                    self._cur = benign
                    try:
                        event.action(*event.args)
                    finally:
                        self._cur = None
                else:
                    self._world_changed()
                    event.action(*event.args)
                processed += 1
        finally:
            self.active = False
            self._restore()
            self._flush()
            queue.processed += processed
            queue._live -= live_popped

    # ------------------------------------------------------------------
    # Benign real execution (uninstrumented, horizon-exempt children)
    # ------------------------------------------------------------------
    def _benign_exec(self, event: "Event") -> None:
        prev = self._cur
        self._cur = self._benign
        try:
            event.action(*event.args)
        finally:
            self._cur = prev

    def _flush(self) -> None:
        """Apply every template's deferred aggregate effects."""
        trace = self._sim.trace
        cells = self._cells
        for template in self._templates.values():
            count = template.count
            if not count:
                continue
            template.count = 0
            if trace.aggregates:
                for action, n in template.actions.items():
                    trace.action_counts[action] += n * count
                for reason, n in template.drops.items():
                    trace.drops_by_reason[reason] += n * count
                for reason, n in template.losses.items():
                    trace.losses_by_reason[reason] += n * count
                for link, n in template.links.items():
                    trace.bytes_by_link[link] += n * count
            for cell_index, delta in template.cells:
                cells[cell_index].apply(delta, count)

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def _capture_dispatch(self, key, signature, event: "Event",
                          state: list, idx: int) -> None:
        if self._cells is None:
            self._cells = self._collect_cells()
            self._snap_pairs = [
                (cell.obj, cell.attr) for cell in self._cells
                if type(cell) is _IntCell
            ]
            self._snap_dicts = self._cells[len(self._snap_pairs):]
        capture = _Capture(key, signature, self._sim.rng.getstate())
        capture.state = state
        capture.idx = idx
        state[1] += 1
        # The root label is the dispatch's own (per-index) label; replay
        # never re-creates the dispatch event, so it must not be compared.
        capture.steps.append(_Step(-1, 0.0, "", None))
        capture.outstanding = 1
        if not self._open:
            self._arm_recording()
        self._open.add(capture)
        self._exec_step(capture, 0, event.action, event.args)

    def _exec_step(self, capture: _Capture, idx: int, action, args) -> None:
        prev, prev_idx = self._cur, self._cur_idx
        self._cur, self._cur_idx = capture, idx
        # Inlined snapshots: one getattr listcomp beats a method call
        # per cell (a scenario has ~120 cells and every captured step
        # brackets all of them twice).
        pairs = self._snap_pairs
        dict_cells = self._snap_dicts
        n_int = len(pairs)
        before_ints = [getattr(obj, attr) for obj, attr in pairs]
        before_dicts = [dict(cell.mapping) for cell in dict_cells]
        try:
            action(*args)
        finally:
            self._cur, self._cur_idx = prev, prev_idx
            delta = []
            after_ints = [getattr(obj, attr) for obj, attr in pairs]
            if after_ints != before_ints:
                for i in range(n_int):
                    d = after_ints[i] - before_ints[i]
                    if d:
                        delta.append((i, d))
            for j, cell in enumerate(dict_cells):
                d = cell.delta(before_dicts[j])
                if d is not None:
                    delta.append((n_int + j, d))
            capture.steps[idx].delta = tuple(delta)
            capture.outstanding -= 1
            if capture.outstanding == 0 and capture.alive:
                self._finalize(capture)

    def _run_child(self, capture: _Capture, idx: int, action, args) -> None:
        if not capture.alive:
            # A killed cascade finishes in the benign context the main
            # loop runs exempt events in, so its grandchildren stay
            # exempt instead of each firing as a further world change.
            action(*args)
            return
        self._exec_step(capture, idx, action, args)

    def _finalize(self, capture: _Capture) -> None:
        self._open.discard(capture)
        if not self._open:
            self._disarm_recording()
        capture.state[1] -= 1
        # The cascade may have moved rate-limit boundaries (advisory
        # gates, cache refreshes): recompute lazily.
        self._horizon = None
        key = capture.key
        previous = self._pending.get(key)
        if self._sim.rng.getstate() != capture.rng_state:
            # The cascade (or anything overlapping it) consumed
            # randomness: not replayable, and it poisons pairing.
            self._pending.pop(key, None)
            return
        self._pending[key] = capture
        if key in self._templates:
            return
        if previous is not None and self._paired(previous, capture):
            self._templates[key] = self._build_template(capture)
            # The flow paired: lift its capture backoff.
            capture.state[2] = capture.state[3] = 0

    @staticmethod
    def _cascade_trace_id(capture: _Capture) -> Optional[int]:
        ids = {
            op[1][1]
            for step in capture.steps
            for op in step.ops
            if op[0] == "e"
        }
        return ids.pop() if len(ids) == 1 else None

    def _paired(self, a: _Capture, b: _Capture) -> bool:
        """Bit-identical cascades?  (See module docstring.)"""
        if a.sig != b.sig or len(a.steps) != len(b.steps):
            return False
        tid_a = self._cascade_trace_id(a)
        tid_b = self._cascade_trace_id(b)
        if tid_a is None or tid_b is None:
            return False
        # Every dispatch between the two captures (benign real runs)
        # must have drawn exactly one trace id of its own.
        if tid_b - tid_a != b.idx - a.idx:
            return False
        for step_a, step_b in zip(a.steps, b.steps):
            if (step_a.parent != step_b.parent
                    or step_a.delay != step_b.delay
                    or step_a.label != step_b.label
                    or step_a.fkey != step_b.fkey
                    or step_a.delta != step_b.delta
                    or len(step_a.ops) != len(step_b.ops)):
                return False
            for op_a, op_b in zip(step_a.ops, step_b.ops):
                if op_a[0] != op_b[0]:
                    return False
                if op_a[0] == "e":
                    _time_a, id_a, shape_a = op_a[1]
                    _time_b, id_b, shape_b = op_b[1]
                    if id_a != tid_a or id_b != tid_b or shape_a != shape_b:
                        return False
                elif op_a[0] == "i":
                    fa, fb = op_a[1], op_b[1]
                    if (getattr(fa, "__func__", fa)
                            is not getattr(fb, "__func__", fb)
                            or getattr(fa, "__self__", None)
                            is not getattr(fb, "__self__", None)
                            or op_a[2] != op_b[2] or op_a[3] != op_b[3]):
                        return False
                else:
                    if op_a[1:] != op_b[1:]:
                        return False
        return True

    def _build_template(self, capture: _Capture) -> _Template:
        steps = capture.steps
        n = len(steps)
        rel = [0.0] * n
        children: List[List[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            step = steps[i]
            rel[i] = rel[step.parent] + step.delay
            children[step.parent].append(i)
        actions: Counter = Counter()
        drops: Counter = Counter()
        losses: Counter = Counter()
        links: Counter = Counter()
        cell_totals: Dict[int, Any] = {}
        enabled = self._sim.trace.enabled
        compiled = []
        for i, step in enumerate(steps):
            shapes = []
            invokes = []
            for op in step.ops:
                if op[0] == "e":
                    e = op[1][2]
                    actions[e[1]] += 1
                    if e[1] == "drop":
                        drops[e[6]] += 1
                    elif e[1] == "lost":
                        losses[e[6]] += 1
                    if enabled:
                        # Every replayed row shares this shape; its
                        # precomputed digest suffix spares trace_digest
                        # re-formatting the constant fields per replay.
                        shapes.append(e[:7] + (
                            f"|{e[0]}|{e[1]}|{e[3]}|{e[4]}|{e[5]}|{e[6]}\n",))
                elif op[0] == "i":
                    if not _prunable_invoke(op[1]):
                        invokes.append((op[1], op[2], op[3]))
                else:
                    links[op[1]] += op[2]
            for cell_index, delta in step.delta:
                existing = cell_totals.get(cell_index)
                if existing is None:
                    cell_totals[cell_index] = delta
                elif isinstance(delta, int):
                    cell_totals[cell_index] = existing + delta
                else:
                    merged = dict(existing)
                    for dkey, dv in delta:
                        merged[dkey] = merged.get(dkey, 0) + dv
                    cell_totals[cell_index] = tuple(sorted(merged.items()))
            compiled.append((step.delay, tuple(shapes), tuple(invokes),
                             tuple(children[i])))
        return _Template(capture.sig, compiled, max(rel), actions, drops,
                         losses, links, tuple(cell_totals.items()))

    # ------------------------------------------------------------------
    # Instrumentation wrappers (installed per engaged run)
    # ------------------------------------------------------------------
    def _install(self) -> None:
        sim = self._sim
        queue = sim.events
        self._orig_schedule = queue.schedule
        self._patch(self._saved, queue, "schedule", self._schedule_wrap)
        trace = sim.trace
        self._orig_link = trace.note_link_bytes
        hooks = [(trace, "note_link_bytes", self._link_wrap)]
        for stack in self._stacks:
            for name in ("_select_source", "report_send", "report_receive"):
                hooks.append(
                    (stack, name, self._make_invoke(getattr(stack, name))))
        for sock in self._sockets:
            hooks.append((sock, "_deliver", self._make_invoke(sock._deliver)))
        self._recording_hooks = hooks
        if self._open:
            self._arm_recording()

    def _restore(self) -> None:
        self._disarm_recording()
        self._unpatch(self._saved)

    def _arm_recording(self) -> None:
        """Hook trace events, link bytes and transport boundaries.

        Only a recording capture reads them, so they are installed while
        one is open: benign and backed-off dispatches then run without
        the per-call wrapper cost.
        """
        self._recording = True
        self._sim.trace.subscribe(self._capture_event)
        for obj, name, replacement in self._recording_hooks:
            self._patch(self._recording_saved, obj, name, replacement)

    def _disarm_recording(self) -> None:
        if not self._recording:
            return
        self._recording = False
        self._sim.trace.unsubscribe(self._capture_event)
        self._unpatch(self._recording_saved)

    @staticmethod
    def _patch(saved: list, obj, name: str, replacement) -> None:
        d = obj.__dict__
        saved.append((obj, name, name in d, d.get(name)))
        setattr(obj, name, replacement)

    @staticmethod
    def _unpatch(saved: list) -> None:
        for obj, name, had, old in reversed(saved):
            if had:
                obj.__dict__[name] = old
            else:
                del obj.__dict__[name]
        saved.clear()

    def _schedule_wrap(self, delay, action, *args, label=""):
        capture = self._cur
        if capture is not None and capture.alive and not self._in_invoke:
            if capture.record:
                idx = len(capture.steps)
                capture.steps.append(_Step(
                    self._cur_idx, delay, label,
                    (getattr(action, "__func__", action),
                     id(getattr(action, "__self__", None)))))
                capture.outstanding += 1
                event = self._orig_schedule(
                    delay, self._run_child, capture, idx, action, args,
                    label=label)
                self._exempt.add(event.seq)
                return event
            event = self._orig_schedule(delay, action, *args, label=label)
            self._exempt.add(event.seq)
            return event
        event = self._orig_schedule(delay, action, *args, label=label)
        self._horizon = None
        return event

    def _capture_event(self, time, node, action, packet, detail=""):
        capture = self._cur
        if (capture is not None and capture.record and capture.alive
                and not self._in_invoke):
            capture.steps[self._cur_idx].ops.append(
                ("e", freeze_row(time, node, action, packet, detail)))

    def _link_wrap(self, link_name, size):
        capture = self._cur
        if (capture is not None and capture.record and capture.alive
                and not self._in_invoke):
            capture.steps[self._cur_idx].ops.append(("l", link_name, size))
        self._orig_link(link_name, size)

    def _make_invoke(self, orig):
        def wrapper(*args, **kwargs):
            capture = self._cur
            if (capture is not None and capture.record and capture.alive
                    and not self._in_invoke):
                capture.steps[self._cur_idx].ops.append(
                    ("i", orig, args, kwargs))
                self._in_invoke = True
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._in_invoke = False
            return orig(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # Counter cells
    # ------------------------------------------------------------------
    def _collect_cells(self) -> list:
        # Int cells first, dict cells after: _exec_step snapshots the
        # int prefix with a single getattr listcomp and only the (rare)
        # dict suffix through the cell objects.
        sim = self._sim
        cells: list = []
        dict_cells: list = []
        for node in sim.nodes.values():
            for attr in _NODE_COUNTERS:
                if type(getattr(node, attr, None)) is int:
                    cells.append(_IntCell(node, attr))
            for iface in node.interfaces.values():
                for attr in _INTERFACE_COUNTERS:
                    cells.append(_IntCell(iface, attr))
            reassembler = getattr(node, "reassembler", None)
            if reassembler is not None:
                for attr in _REASSEMBLER_COUNTERS:
                    cells.append(_IntCell(reassembler, attr))
            tunnel = getattr(node, "tunnel", None)
            if tunnel is not None:
                for attr in _TUNNEL_COUNTERS:
                    if type(getattr(tunnel, attr, None)) is int:
                        cells.append(_IntCell(tunnel, attr))
            bindings = getattr(node, "bindings", None)
            if bindings is not None and type(
                    getattr(bindings, "expirations", None)) is int:
                cells.append(_IntCell(bindings, "expirations"))
            engine = getattr(node, "engine", None)
            if isinstance(engine, FilterEngine):
                dict_cells.append(_DictCell(engine.hits))
        for segment in sim.segments.values():
            for attr in _SEGMENT_COUNTERS:
                if type(getattr(segment, attr, None)) is int:
                    cells.append(_IntCell(segment, attr))
        return cells + dict_cells
