"""Equivalence proofs for the flow fast-forwarder.

The fast path's contract is *byte-identical* output: the same
:class:`~repro.netsim.trace.TraceLog` entries (hence the same digest),
deliverability, overhead, and metrics with fast-forward on and off.
These tests exercise that contract across the worked 24-cell grid, the
canonical golden workload, and a run disturbed mid-conversation by a
fault plan.
"""

import dataclasses
import json
import pathlib

from repro.experiment import Runner, SpecGrid
from repro.netsim.faults import FaultPlan

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
GRID = EXAMPLES / "grid_4x4.json"


def _run_pair(spec):
    """One spec, fast-forward on and off; returns both results."""
    on = Runner().run(spec)
    off = Runner().run(dataclasses.replace(spec, fast_forward=False))
    return on, off


def _assert_equivalent(on, off, label=""):
    assert on.digest == off.digest, f"digest diverged: {label}"
    assert on.trace_entries == off.trace_entries, label
    assert on.deliverability == off.deliverability, label
    assert on.overhead == off.overhead, label
    assert on.metrics == off.metrics, label
    assert on.invariants == off.invariants, label


class TestGridEquivalence:
    def test_grid_digests_identical_on_and_off(self):
        """All 24 worked-grid cells: same digests with the flag flipped.

        The grid arms the invariant monitor, which is a disturbance
        source the forwarder refuses to fast-forward past — so these
        cells prove the *stand-aside* path changes nothing.
        """
        specs = SpecGrid.from_file(str(GRID)).expand()
        assert len(specs) == 24
        for spec in specs:
            on, off = _run_pair(spec)
            _assert_equivalent(on, off, label=spec.label)

    def test_unarmed_grid_cells_engage_and_match(self):
        """With invariants unarmed the fast path can engage; digests
        must still match cell for cell."""
        specs = SpecGrid.from_file(str(GRID)).expand()
        engaged = 0
        for spec in specs[:6]:
            spec = dataclasses.replace(spec, arm_invariants=False)
            on, off = _run_pair(spec)
            _assert_equivalent(on, off, label=spec.label)
            engaged += on.extras["fast_forward"]["engaged_runs"]
        assert engaged > 0, "no unarmed cell engaged the fast path"


class TestGoldenEquivalence:
    def test_canonical_workload_replays_and_matches(self):
        from repro.experiment import canonical_traffic_spec

        spec = canonical_traffic_spec(datagrams=200, seed=1401)
        on, off = _run_pair(spec)
        _assert_equivalent(on, off, label="canonical")
        ff = on.extras["fast_forward"]
        assert ff["engaged_runs"] == 1
        assert ff["replayed"] > 0, "fast path never replayed a cascade"
        assert ff["fallbacks"] == 0
        # With the engine flag off the forwarder is never constructed.
        assert "fast_forward" not in off.extras


class TestFaultDisengagement:
    def test_mid_conversation_fault_disengages_and_matches(self):
        """A fault plan firing inside the send window forces the
        forwarder to drop its templates (world change) and re-verify;
        output must still be byte-identical to the per-event run."""
        from repro.experiment import canonical_traffic_spec

        plan = FaultPlan()
        plan.add(0.45, "link-flap", "uplink-visited", duration=0.2)
        spec = dataclasses.replace(
            canonical_traffic_spec(datagrams=100, seed=1401),
            faults=plan.to_dict())
        on, off = _run_pair(spec)
        _assert_equivalent(on, off, label="mid-conversation fault")
        ff = on.extras["fast_forward"]
        assert ff["engaged_runs"] == 1
        # The flap's scheduled events run outside the verified flows:
        # the forwarder must notice and invalidate at least once...
        assert ff["world_changes"] >= 1
        # ...and still have fast-forwarded the quiet stretches.
        assert ff["replayed"] > 0


def _traced_pair(spec):
    """One spec, fast-forward on and off; returns both results and
    both trace logs."""
    on_runner, off_runner = Runner(), Runner()
    on = on_runner.run(spec)
    off = off_runner.run(dataclasses.replace(spec, fast_forward=False))
    return on, off, on_runner.scenario.sim.trace, off_runner.scenario.sim.trace


def _rebased(entries):
    """Entries with trace ids made relative to the run's first id (the
    id counter is process-global, so absolute values differ per run)."""
    base = entries[0].trace_id
    return [dataclasses.replace(entry, trace_id=entry.trace_id - base)
            for entry in entries]


class TestReplayedRows:
    """Replay stores shared-shape rows; reads see the same entries the
    per-event run records."""

    def _canonical(self):
        from repro.experiment import canonical_traffic_spec

        on, off, trace_on, trace_off = _traced_pair(
            canonical_traffic_spec(datagrams=200, seed=1401))
        _assert_equivalent(on, off, label="canonical")
        # The oracle must not pass by the fast path never engaging.
        assert on.extras["fast_forward"]["replayed"] > 0
        return trace_on, trace_off

    def test_entries_match_field_by_field(self):
        trace_on, trace_off = self._canonical()
        assert len(trace_on.entries) == len(trace_off.entries) > 0
        assert _rebased(trace_on.entries) == _rebased(trace_off.entries)

    def test_replayed_datagrams_share_step_shapes(self):
        trace_on, _ = self._canonical()
        replayed: dict = {}
        for _time, trace_id, shape in trace_on.rows:
            if shape[7] is not None:
                replayed.setdefault(trace_id, []).append(shape)
        assert len(replayed) >= 2
        first, second = list(replayed.values())[:2]
        assert len(first) == len(second) > 0
        for shape_a, shape_b in zip(first, second):
            assert shape_a is shape_b

    def test_export_jsonl_identical_after_rebasing(self, tmp_path):
        trace_on, trace_off = self._canonical()
        lines = {}
        for name, trace in (("on", trace_on), ("off", trace_off)):
            path = tmp_path / f"{name}.jsonl"
            assert trace.export_jsonl(path) == len(trace.entries)
            objs = [json.loads(line) for line in path.read_text().splitlines()]
            base = objs[0]["trace_id"]
            for obj in objs:
                obj["trace_id"] -= base
            lines[name] = [json.dumps(obj) for obj in objs]
        assert lines["on"] == lines["off"]


def _indexed_both_spec(datagrams):
    from repro.experiment import canonical_traffic_spec

    spec = canonical_traffic_spec(datagrams=datagrams, seed=1401)
    program = spec.traffic.to_dict()
    program["payload_style"] = "indexed"
    program["uniform"]["direction"] = "both"
    return spec.replace(traffic=program)


class TestCaptureBackoff:
    def test_unpairable_flow_backs_off_and_matches(self):
        """Indexed payloads both ways never pair, and every MH send is a
        world change: the backoff survives those and caps the captures
        at O(log n), with digests unchanged."""
        on, off = _run_pair(_indexed_both_spec(1000))
        _assert_equivalent(on, off, label="indexed both ways")
        ff = on.extras["fast_forward"]
        assert ff["world_changes"] > 500
        assert ff["captured"] <= 16
        assert ff["backed_off"] > 0

    def test_pairing_flow_is_never_delayed(self):
        from repro.experiment import canonical_traffic_spec

        on = Runner().run(canonical_traffic_spec(datagrams=200, seed=1401))
        ff = on.extras["fast_forward"]
        assert ff["captured"] == 2
        assert ff["replayed"] == 190
        assert ff["backed_off"] == 0

    def test_flow_pairs_again_after_a_world_change(self):
        """A template resets the backoff, so after a mid-run non-flow
        event the flow pairs again from two fresh captures."""
        from repro.experiment import canonical_traffic_spec

        def driver(scenario, _spec):
            # Traffic runs 5.0-7.0 s; this no-op lands mid-train.
            scenario.sim.events.schedule(1.0, lambda: None)

        spec = canonical_traffic_spec(datagrams=200, seed=1401)
        on = Runner().run(spec, driver=driver)
        off = Runner().run(dataclasses.replace(spec, fast_forward=False),
                           driver=driver)
        _assert_equivalent(on, off, label="mid-run world change")
        ff = on.extras["fast_forward"]
        assert ff["world_changes"] == 1
        assert ff["captured"] == 4
        assert ff["backed_off"] == 0
        # Only 100 dispatches precede the event: the rest replayed from
        # the template the two fresh captures formed.
        assert ff["replayed"] > 100

    def test_exempt_seqs_are_pruned_as_events_pop(self):
        runner = Runner()
        runner.run(_indexed_both_spec(300))
        sim = runner.scenario.sim
        pending = {seq for _time, seq, _event in sim.events._heap}
        assert sim.fast_forward._exempt <= pending
        # Capture hooks are gone once the engaged run returns.
        assert sim.trace.subscribers == ()
        assert "note_link_bytes" not in vars(sim.trace)
