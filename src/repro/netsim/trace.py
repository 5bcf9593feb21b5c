"""Packet tracing and evidence collection.

Every claim in the paper is ultimately about what happens to packets:
where they travel (Figures 1, 3, 4, 5), where they are dropped
(Figure 2), and how big they are (§3.3).  The :class:`TraceLog`
collects a global record of packet fates that the analysis layer and
the figure benchmarks query.

Nodes call :meth:`TraceLog.note` as packets pass through them, and
the log is the only record of a packet's journey: per-datagram queries
by trace id (path, delivery, drop and its reason, hop counts) sit next
to cross-packet ones (delivery ratios, per-destination drop summaries,
and byte accounting per link).

Observers that read the event stream live (span recorder, invariant
monitor, flight recorder, fast-forward capture) subscribe to the log
instead of wrapping ``note``: :meth:`TraceLog.note` records the event
at the log's level and then calls each subscriber in subscription
order.  :class:`TraceObserver` is their shared attach/detach base.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .packet import Packet

__all__ = ["TraceEntries", "TraceEntry", "TraceLog", "TraceObserver",
           "entry_json", "freeze_row"]

# A subscriber receives ``(time, node, action, packet, detail)``.
Subscriber = Callable[[float, str, str, Packet, str], None]

# The log stores one row per event: ``(time, trace_id, shape)``.  A
# shape is ``(node, action, packet_repr, src, dst, wire_size, detail,
# digest_suffix)``; the suffix is the digest line after the timestamp
# (see repro.bench.golden), precomputed by fast-forward templates and
# None elsewhere.  Replayed rows share their template's shape tuple.
Shape = Tuple[str, str, str, str, str, int, str, Optional[str]]
Row = Tuple[float, int, Shape]


@dataclass(frozen=True)
class TraceEntry:
    """A globally-logged packet event."""

    time: float
    node: str
    action: str          # send | forward | deliver | drop | encapsulate | ...
    packet_repr: str
    trace_id: int
    src: str
    dst: str
    wire_size: int
    detail: str = ""


def freeze_row(
    time: float, node: str, action: str, packet: Packet, detail: str = ""
) -> Row:
    """The row for one event, frozen from the live packet.

    Packets mutate in place (TTL decrements, encapsulation), so every
    field is derived now, at ``note()`` time.
    """
    return (time, packet.trace_id,
            (node, action, repr(packet), str(packet.src), str(packet.dst),
             packet.wire_size, detail, None))


def _row_entry(row: Row) -> TraceEntry:
    time, trace_id, shape = row
    return TraceEntry(time, shape[0], shape[1], shape[2], trace_id,
                      shape[3], shape[4], shape[5], shape[6])


def entry_json(row: Row) -> Dict[str, Any]:
    """One row as the JSON object :meth:`TraceLog.export_jsonl` writes."""
    time, trace_id, shape = row
    return {
        "time": time,
        "node": shape[0],
        "action": shape[1],
        "trace_id": trace_id,
        "src": shape[3],
        "dst": shape[4],
        "wire_size": shape[5],
        "detail": shape[6],
        "packet": shape[2],
    }


class TraceEntries(Sequence):
    """Read-only view of a log's rows as :class:`TraceEntry` objects.

    Entries are built on index, slice and iteration; nothing is cached.
    The view equals any sequence with equal elements (a list, a tuple,
    another view).
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: List[Row]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_row_entry(row) for row in self._rows[index]]
        return _row_entry(self._rows[index])

    def __iter__(self):
        return map(_row_entry, self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:
        return f"TraceEntries({list(self)!r})"


class TraceLog:
    """Global record of packet events for one simulation run.

    Three levels of tracing, cheapest first:

    * ``TraceLog(enabled=False, aggregates=False)`` — records nothing:
      :meth:`note` skips counter updates and row construction behind
      one ``aggregates`` check, so large throughput runs pay one call
      and one branch per event.
    * ``TraceLog(enabled=False)`` — aggregate counters only (action
      counts, drop and loss reasons, link bytes); no per-event rows.
    * ``TraceLog()`` — full tracing; every event becomes one row in
      :attr:`rows` (see :func:`freeze_row`).

    On every level, :meth:`note` then hands the event to each of
    :attr:`subscribers` in subscription order.  :attr:`entries` is a
    read-only view that builds a :class:`TraceEntry` per row on read;
    the queries and the JSONL export read the rows directly.
    """

    def __init__(self, enabled: bool = True, aggregates: bool = True):
        self.enabled = enabled
        self.aggregates = aggregates or enabled
        self.rows: List[Row] = []
        # trace_id -> indices into ``rows``, maintained incrementally
        # by note() so the per-datagram queries (entries_for, delivered,
        # dropped, delivery_ratio) are O(per-datagram events) instead of
        # a full O(n) scan per call.
        self._rows_by_id: Dict[int, List[int]] = defaultdict(list)
        # Aggregates maintained incrementally so benches stay cheap even
        # with tracing of individual entries disabled.
        self.bytes_by_link: Counter = Counter()
        self.action_counts: Counter = Counter()
        self.drops_by_reason: Counter = Counter()
        # ``lost`` events (link loss, interface/segment down, queue
        # overflow) keyed by detail — the loss-side twin of
        # ``drops_by_reason``, so congestion drops are queryable without
        # scanning entries.
        self.losses_by_reason: Counter = Counter()
        # Copy-on-write: subscribe/unsubscribe build a new tuple, so a
        # subscriber that detaches mid fan-out cannot skip a neighbour.
        self.subscribers: Tuple[Subscriber, ...] = ()

    # ------------------------------------------------------------------
    # Subscribers
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Subscriber) -> None:
        """Call ``subscriber`` on every later event, after those
        already subscribed."""
        self.subscribers += (subscriber,)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Stop calling ``subscriber``; raises ``ValueError`` if absent."""
        subscribers = list(self.subscribers)
        subscribers.remove(subscriber)
        self.subscribers = tuple(subscribers)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def note(
        self,
        time: float,
        node: str,
        action: str,
        packet: Packet,
        detail: str = "",
    ) -> None:
        """Record an event at this log's level, then pass it to every
        subscriber in order."""
        if self.aggregates:
            self.action_counts[action] += 1
            if action == "drop":
                self.drops_by_reason[detail] += 1
            elif action == "lost":
                self.losses_by_reason[detail] += 1
            if self.enabled:
                rows = self.rows
                self._rows_by_id[packet.trace_id].append(len(rows))
                rows.append(freeze_row(time, node, action, packet, detail))
        for subscriber in self.subscribers:
            subscriber(time, node, action, packet, detail)

    def note_link_bytes(self, link_name: str, size: int) -> None:
        if self.aggregates:
            self.bytes_by_link[link_name] += size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def entries(self) -> TraceEntries:
        """Every recorded event, oldest first, as a read-only view."""
        return TraceEntries(self.rows)

    def entries_for(self, trace_id: int) -> List[TraceEntry]:
        rows = self.rows
        return [_row_entry(rows[index])
                for index in self._rows_by_id.get(trace_id, ())]

    def _shapes_for(self, trace_id: int) -> List[Shape]:
        rows = self.rows
        return [rows[index][2] for index in self._rows_by_id.get(trace_id, ())]

    def path_of(self, trace_id: int) -> Tuple[str, ...]:
        """Node names that forwarded/delivered the logical datagram."""
        return tuple(
            shape[0]
            for shape in self._shapes_for(trace_id)
            if shape[1] in ("forward", "deliver")
        )

    def delivered(self, trace_id: int) -> bool:
        return any(shape[1] == "deliver" for shape in self._shapes_for(trace_id))

    def dropped(self, trace_id: int) -> bool:
        return any(shape[1] == "drop" for shape in self._shapes_for(trace_id))

    def drop_detail(self, trace_id: int) -> Optional[str]:
        for shape in self._shapes_for(trace_id):
            if shape[1] == "drop":
                return shape[6]
        return None

    @property
    def total_drops(self) -> int:
        return self.action_counts["drop"]

    @property
    def total_deliveries(self) -> int:
        return self.action_counts["deliver"]

    def delivery_ratio(self, trace_ids: Iterable[int]) -> float:
        """Fraction of the given logical datagrams that were delivered."""
        ids = list(trace_ids)
        if not ids:
            return 0.0
        return sum(1 for tid in ids if self.delivered(tid)) / len(ids)

    def hop_counts(self) -> Dict[int, int]:
        """trace_id -> number of forwarding hops."""
        counts: Dict[int, int] = defaultdict(int)
        for _time, trace_id, shape in self.rows:
            if shape[1] == "forward":
                counts[trace_id] += 1
        return dict(counts)

    def summary(self) -> str:
        """A human-readable one-run summary (used by examples)."""
        lines = [
            f"events: {sum(self.action_counts.values())}",
            f"delivered: {self.total_deliveries}  dropped: {self.total_drops}",
        ]
        for reason, count in self.drops_by_reason.most_common():
            lines.append(f"  drop[{reason}]: {count}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_jsonl(self, path, chunk_lines: int = 4096) -> int:
        """Write every recorded entry as one JSON object per line.

        The poor man's pcap: external tooling (jq, pandas, a notebook)
        can reconstruct paths, timings, and drop reasons from the file.
        Lines are batched through a buffer and flushed ``chunk_lines``
        at a time instead of one ``write`` per entry, which matters at
        the hundreds-of-thousands-of-events scale the soak scenarios
        produce.  Returns the number of entries written.
        """
        import json

        dumps = json.dumps
        buffer: List[str] = []
        with open(path, "w") as handle:
            for row in self.rows:
                buffer.append(dumps(entry_json(row)))
                if len(buffer) >= chunk_lines:
                    handle.write("\n".join(buffer) + "\n")
                    buffer.clear()
            if buffer:
                handle.write("\n".join(buffer) + "\n")
        return len(self.rows)

    @classmethod
    def import_jsonl(cls, path) -> "TraceLog":
        """Rebuild a :class:`TraceLog` from an :meth:`export_jsonl` file.

        Rows, the per-datagram index, and the derivable aggregates
        (action counts, drop reasons) are all reconstructed, so the
        query API works identically on an imported log.  Per-link byte
        counters are *not* round-tripped: they are recorded through
        :meth:`note_link_bytes`, not as entries, and do not appear in
        the export.
        """
        import json

        log = cls(enabled=True)
        rows = log.rows
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                action = obj["action"]
                detail = obj.get("detail", "")
                log._rows_by_id[obj["trace_id"]].append(len(rows))
                rows.append((obj["time"], obj["trace_id"], (
                    obj["node"], action, obj.get("packet", ""), obj["src"],
                    obj["dst"], obj["wire_size"], detail, None)))
                log.action_counts[action] += 1
                if action == "drop":
                    log.drops_by_reason[detail] += 1
                elif action == "lost":
                    log.losses_by_reason[detail] += 1
        return log


class TraceObserver:
    """Base for observers that read a :class:`TraceLog`'s events live.

    :meth:`attach` subscribes the observer's :meth:`on_event` to one
    log; attaching twice raises, and :meth:`detach` is idempotent.
    """

    _trace: Optional[TraceLog] = None

    def attach(self, trace: TraceLog) -> None:
        if self._trace is not None:
            raise RuntimeError(f"{type(self).__name__} is already attached")
        trace.subscribe(self.on_event)
        self._trace = trace

    def detach(self) -> None:
        if self._trace is not None:
            self._trace.unsubscribe(self.on_event)
            self._trace = None

    def on_event(
        self, time: float, node: str, action: str, packet: Packet, detail: str = ""
    ) -> None:
        raise NotImplementedError
