"""The trace log's subscriber list and the observers that ride it.

The span recorder, the invariant monitor and the flight recorder all
read the event stream by subscribing to the :class:`TraceLog`; these
tests pin what that means for any observer on any trace level, and
that detaching one observer never cuts another off.
"""

import pytest

from repro.netsim import Simulator
from repro.netsim.addressing import IPAddress
from repro.netsim.packet import IPProto, Packet
from repro.netsim.trace import TraceLog
from repro.obs import FlightRecorder, SpanRecorder
from repro.verify.invariants import InvariantMonitor


def make_packet():
    return Packet(
        src=IPAddress("10.9.0.1"), dst=IPAddress("10.9.0.2"),
        proto=IPProto.UDP, payload="data", payload_size=100,
    )


# Each observer, and how many events it has seen.  Every event below
# carries a fresh packet (fresh trace id), so each seen event grows
# these by exactly one.
OBSERVERS = {
    "spans": (lambda: SpanRecorder(), lambda o: len(o.spans)),
    "invariants": (lambda: InvariantMonitor(), lambda o: len(o._states)),
    "flightrec": (lambda: FlightRecorder(Simulator(seed=1), limit=16),
                  lambda o: o.recorded),
}

LEVELS = {
    "full": dict(enabled=True),
    "aggregates": dict(enabled=False),
    "off": dict(enabled=False, aggregates=False),
}

EVENTS = [
    ("send", ""), ("forward", ""), ("drop", "filtered"), ("lost", "queue"),
    ("deliver", ""),
]


def note_events(trace):
    for index, (action, detail) in enumerate(EVENTS):
        trace.note(float(index), "n", action, make_packet(), detail)


def log_state(trace):
    return (
        [(e.time, e.node, e.action, e.packet_repr, e.src, e.dst,
          e.wire_size, e.detail) for e in trace.entries],
        dict(trace.action_counts),
        dict(trace.drops_by_reason),
        dict(trace.losses_by_reason),
    )


@pytest.mark.parametrize("observer_name", sorted(OBSERVERS))
@pytest.mark.parametrize("level", sorted(LEVELS))
def test_observer_rides_the_subscriber_list(observer_name, level):
    make, seen = OBSERVERS[observer_name]
    trace = TraceLog(**LEVELS[level])
    observer = make()
    order = []
    trace.subscribe(lambda *event: order.append(("before", seen(observer))))
    observer.attach(trace)
    trace.subscribe(lambda *event: order.append(("after", seen(observer))))

    note_events(trace)

    # Every event reaches the subscribers in attach order.
    assert seen(observer) == len(EVENTS)
    assert order == [pair for n in range(len(EVENTS))
                     for pair in (("before", n), ("after", n + 1))]

    # The log records exactly what it records with no subscriber.
    bare = TraceLog(**LEVELS[level])
    note_events(bare)
    assert log_state(trace) == log_state(bare)
    if level == "off":
        assert log_state(trace) == ([], {}, {}, {})

    with pytest.raises(RuntimeError, match="already attached"):
        observer.attach(trace)

    observer.detach()
    observer.detach()
    note_events(trace)
    assert seen(observer) == len(EVENTS)
    # The other subscribers keep receiving events.
    assert len(order) == 4 * len(EVENTS)

    # A detached observer may attach again.
    observer.attach(trace)
    note_events(trace)
    assert seen(observer) == 2 * len(EVENTS)


def test_detach_during_fan_out_does_not_skip_the_neighbour():
    trace = TraceLog()
    seen = []

    def leaves(*event):
        seen.append("leaves")
        trace.unsubscribe(leaves)

    trace.subscribe(leaves)
    trace.subscribe(lambda *event: seen.append("stays"))
    trace.note(0.0, "n", "send", make_packet())
    trace.note(1.0, "n", "send", make_packet())
    assert seen == ["leaves", "stays", "stays"]


class TestOutOfOrderDetach:
    def test_disabling_spans_keeps_later_observers(self):
        sim = Simulator(seed=1)
        obs = sim.enable_observability(engine_cadence=None)
        monitor = sim.enable_invariants()
        recorder = sim.enable_flight_recorder()
        obs.disable()
        sim.trace.note(0.0, "n", "send", make_packet())
        assert len(monitor._states) == 1
        assert recorder.recorded == 1

    def test_first_attached_detaches_first(self):
        sim = Simulator(seed=1)
        trace = sim.trace
        monitor = InvariantMonitor()
        recorder = FlightRecorder(sim, limit=8)
        monitor.attach(trace)
        recorder.attach(trace)
        monitor.detach()
        trace.note(0.0, "n", "send", make_packet())
        assert recorder.recorded == 1
        assert len(monitor._states) == 0
        recorder.detach()
        trace.note(1.0, "n", "send", make_packet())
        assert recorder.recorded == 1
        assert len(monitor._states) == 0
        assert len(trace.entries) == 2
