"""Tests for TraceLog's per-datagram index, entries view and JSONL
round-tripping."""

import pytest

from repro.netsim.addressing import IPAddress
from repro.netsim.packet import IPProto, Packet
from repro.netsim.trace import TraceEntry, TraceLog


def _packet(payload_size=100):
    return Packet(
        src=IPAddress("10.3.0.10"),
        dst=IPAddress("10.1.0.10"),
        proto=IPProto.UDP,
        payload_size=payload_size,
    )


def _interleaved_log(datagrams=5, hops=4):
    """Several datagrams noted hop-by-hop in interleaved order."""
    log = TraceLog()
    packets = [_packet() for _ in range(datagrams)]
    for hop in range(hops):
        for index, packet in enumerate(packets):
            action = ("send" if hop == 0
                      else "deliver" if hop == hops - 1 and index % 2 == 0
                      else "drop" if hop == hops - 1
                      else "forward")
            detail = "ttl" if action == "drop" else ""
            log.note(float(hop), f"n{hop}", action, packet, detail)
    return log, packets


class TestEntriesIndex:
    def test_entries_for_matches_linear_scan(self):
        log, packets = _interleaved_log()
        for packet in packets:
            indexed = log.entries_for(packet.trace_id)
            scanned = [e for e in log.entries if e.trace_id == packet.trace_id]
            assert indexed == scanned
            assert len(indexed) == 4

    def test_entries_for_unknown_id_is_empty(self):
        log, _ = _interleaved_log()
        assert log.entries_for(999_999_999) == []

    def test_delivered_dropped_queries(self):
        log, packets = _interleaved_log()
        assert log.delivered(packets[0].trace_id)
        assert not log.delivered(packets[1].trace_id)
        assert log.dropped(packets[1].trace_id)
        assert log.drop_detail(packets[1].trace_id) == "ttl"
        assert log.drop_detail(packets[0].trace_id) is None

    def test_disabled_entries_keep_queries_empty(self):
        log = TraceLog(enabled=False)
        packet = _packet()
        log.note(0.0, "a", "send", packet)
        log.note(1.0, "b", "deliver", packet)
        assert log.entries == []
        assert log.entries_for(packet.trace_id) == []
        assert log.total_deliveries == 1  # aggregates still counted


class TestEntriesView:
    def test_len_and_indexing(self):
        log, packets = _interleaved_log(datagrams=3, hops=2)
        entries = log.entries
        assert len(entries) == 6
        first = entries[0]
        assert isinstance(first, TraceEntry)
        assert (first.time, first.node, first.action) == (0.0, "n0", "send")
        assert first.trace_id == packets[0].trace_id
        assert entries[-1] == entries[5]
        assert entries[-1].trace_id == packets[2].trace_id
        with pytest.raises(IndexError):
            entries[6]

    def test_slice_iteration_and_membership(self):
        log, _ = _interleaved_log(datagrams=3, hops=2)
        entries = log.entries
        listed = list(entries)
        assert len(listed) == 6
        assert all(isinstance(entry, TraceEntry) for entry in listed)
        assert entries[1:4] == listed[1:4]
        assert entries[::-1] == listed[::-1]
        assert listed[2] in entries
        assert TraceEntry(9.0, "x", "send", "", 0, "", "", 0) not in entries

    def test_equality_with_lists_and_views(self):
        log, _ = _interleaved_log(datagrams=2, hops=2)
        listed = list(log.entries)
        assert log.entries == listed
        assert listed == log.entries
        assert log.entries == tuple(listed)
        assert log.entries == log.entries
        assert log.entries != listed[:-1]
        assert log.entries != listed[::-1]
        other, _ = _interleaved_log(datagrams=2, hops=2)
        # Fresh packets draw fresh trace ids: same events, unequal entries.
        assert log.entries != other.entries

    def test_view_is_read_only(self):
        log, packets = _interleaved_log(datagrams=1, hops=1)
        entries = log.entries
        assert not hasattr(entries, "append")
        with pytest.raises(TypeError):
            entries[0] = entries[0]
        # The view is live: later notes show through it.
        log.note(5.0, "n9", "deliver", packets[0])
        assert len(entries) == 2 and entries[-1].node == "n9"


class TestJsonlRoundTrip:
    def test_round_trip_rebuilds_everything(self, tmp_path):
        log, packets = _interleaved_log()
        path = tmp_path / "trace.jsonl"
        written = log.export_jsonl(path)
        assert written == len(log.entries) == 20

        imported = TraceLog.import_jsonl(path)
        assert imported.entries == log.entries
        assert imported.action_counts == log.action_counts
        assert imported.drops_by_reason == log.drops_by_reason
        for packet in packets:
            assert (imported.entries_for(packet.trace_id)
                    == log.entries_for(packet.trace_id))
            assert imported.delivered(packet.trace_id) == \
                log.delivered(packet.trace_id)
        assert imported.summary() == log.summary()

    def test_buffered_export_flushes_all_chunk_sizes(self, tmp_path):
        log, _ = _interleaved_log(datagrams=7, hops=3)
        for chunk in (1, 2, 1000):
            path = tmp_path / f"chunk{chunk}.jsonl"
            log.export_jsonl(path, chunk_lines=chunk)
            assert len(path.read_text().splitlines()) == len(log.entries)
            assert TraceLog.import_jsonl(path).entries == log.entries

    def test_import_skips_blank_lines(self, tmp_path):
        log, _ = _interleaved_log(datagrams=2, hops=2)
        path = tmp_path / "trace.jsonl"
        log.export_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        assert TraceLog.import_jsonl(path).entries == log.entries

    def test_export_empty_log(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert TraceLog().export_jsonl(path) == 0
        assert TraceLog.import_jsonl(path).entries == []
