"""The benchmark's four workloads, each run through ``repro``'s public API.

Every workload turns a variant number into inputs, runs them once per
:meth:`Workload.once` call and returns a :class:`Sample`: wall and CPU
times, the work done, the outputs that are pinned in ``pins.json``,
and deterministic operation counts read from public attributes.

``--seed`` picks one of :data:`POOL` pinned variants (``seed % POOL``).
The held-out check uses a variant outside the pool, which has no pin,
and checks the equivalences the simulator claims instead.

Import this module only after :func:`source.add_source_path`.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.mega import mega_spec
from repro.experiment import (
    ExperimentSpec,
    ResultCache,
    Runner,
    RunResult,
    SweepExecutor,
    aggregate_fast_forward,
    canonical_traffic_spec,
    demo_grid,
)
from repro.experiment.supervise import SweepCheckpoint
from repro.obs.ledger import RunLedger

# Pinned input variants per workload.
POOL = 4
# Deliverability counts pinned beside the digest and trace-entry count.
COUNTS = ("sent", "delivered", "dropped", "lost")
FF_STATS = ("captured", "replayed", "fallbacks", "world_changes")
# The sweep uses at most two workers, and never more than the CPUs.
SWEEP_JOBS = max(1, min(2, os.cpu_count() or 1))


@dataclass
class Sample:
    """One repetition of a workload."""

    wall_s: float            # the whole repetition
    active_s: float          # drive + collect; the whole sweep for sweeps
    setup_s: float           # up to the first traffic event / first cell
    cpu_s: float
    datagrams: int           # traffic-program datagrams offered
    cells: int               # runs or sweep cells completed
    sim_s: float             # simulated seconds advanced
    outputs: Dict[str, Any]  # compared with the pins
    ops: Dict[str, int]      # must repeat exactly between repetitions
    unit_problems: List[List[str]]  # one list per run or cell
    timings: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)
    # Host-speed factors for wall and CPU seconds (see measure.reference).
    wall_scale: float = 1.0
    cpu_scale: float = 1.0


def pinned_outputs(result: RunResult) -> Dict[str, Any]:
    out: Dict[str, Any] = {"digest": result.digest,
                           "trace_entries": result.trace_entries}
    out.update({key: result.deliverability.get(key) for key in COUNTS})
    return out


def compare(outputs: Dict[str, Any], pin: Optional[Dict[str, Any]],
            what: str) -> List[str]:
    """One problem per pinned value that differs (or a missing pin)."""
    if pin is None:
        return [f"{what}: no pin"]
    return [f"{what}: {key} differs from pin"
            for key in sorted(pin) if outputs.get(key) != pin[key]]


def ff_counts(result: RunResult) -> Dict[str, int]:
    stats = result.extras.get("fast_forward") or {}
    return {f"ff_{key}": stats.get(key, 0) for key in FF_STATS}


class _SetupDone(Exception):
    """Stops a run at its first traffic event (see ``setup_seconds``)."""


def _stop(_scenario, _spec):
    raise _SetupDone


# ----------------------------------------------------------------------
# Single-run workloads
# ----------------------------------------------------------------------
class RunWorkload:
    """A spec through ``Runner`` to a ``RunResult``."""

    name = ""
    rate_metric = "datagrams_per_s"

    def spec(self, variant: int, small: bool = False) -> ExperimentSpec:
        raise NotImplementedError

    def setup_seconds(self, variant: int, since: float) -> float:
        """Seconds from ``since`` to the first traffic event of a run.

        The runner calls its driver hook after building, arming and
        scheduling the traffic, just before the clock starts; the hook
        stops the run there.
        """
        try:
            Runner().run(self.spec(variant), driver=_stop)
        except _SetupDone:
            return perf_counter() - since
        raise RuntimeError("the runner never reached its driver hook")

    def once(self, variant: int, pin: Optional[Dict[str, Any]]) -> Sample:
        spec = self.spec(variant)
        mark: Dict[str, float] = {}

        def driver(scenario, _spec):
            mark["wall"] = perf_counter()
            mark["sim"] = scenario.sim.now
            return None

        gc.collect()
        runner = Runner()
        cpu0, t0 = process_time(), perf_counter()
        result = runner.run(spec, driver=driver)
        t1, cpu1 = perf_counter(), process_time()
        outputs = pinned_outputs(result)
        problems = compare(outputs, pin, self.name)
        if not result.ok:
            problems.append(f"{self.name}: invariant violations")
        return Sample(
            wall_s=t1 - t0,
            active_s=t1 - mark["wall"],
            setup_s=mark["wall"] - t0,
            cpu_s=cpu1 - cpu0,
            datagrams=len(spec.traffic.resolved_events()),
            cells=1,
            sim_s=result.sim_time - mark["sim"],
            outputs=outputs,
            ops=self.ops(runner, result),
            unit_problems=[problems],
            timings=dict(result.timings),
            detail={"drops_by_reason": result.deliverability.get(
                "drops_by_reason", {})},
        )

    def ops(self, runner: Runner, result: RunResult) -> Dict[str, int]:
        sim = runner.scenario.sim
        segments = sim.segments.values()
        ops = {
            "events_processed": sim.events.processed,
            "trace_entries": result.trace_entries,
            "link_frames": sum(s.frames_carried for s in segments),
            "link_queue_drops": sum(s.queue_dropped for s in segments),
        }
        ops.update(ff_counts(result))
        return ops

    def held_out(self, seed: int) -> List[str]:
        """Fast-forward on and off must give equal outputs on a variant
        that has no pin."""
        spec = self.spec(POOL + seed % 50, small=True)
        on = Runner().run(spec)
        off = Runner().run(spec.replace(fast_forward=False))
        if pinned_outputs(on) != pinned_outputs(off):
            return [f"{self.name}: held-out fast-forward on/off outputs differ"]
        return []


def _traffic_spec(variant: int, datagrams: int, direction: str = "ch->mh",
                  payload_style: str = "plain") -> ExperimentSpec:
    """The golden world (seed 1401 for variant 0) with a longer train.

    The variant shifts the world seed and the datagram size (100 bytes
    plus 8 per variant, well under the MTU, so nothing fragments).
    """
    spec = canonical_traffic_spec(
        seed=1401 + variant, datagrams=datagrams,
        duration=datagrams * 0.01 + 5.0)
    program = spec.traffic.to_dict()
    program["payload_style"] = payload_style
    program["uniform"].update(size=100 + 8 * variant, direction=direction)
    return spec.replace(traffic=program)


class TriangleReplay(RunWorkload):
    """Plain-payload CH->MH train through the home-agent tunnel, where
    fast-forward replays the steady tail."""

    name = "triangle_replay"

    def spec(self, variant: int, small: bool = False) -> ExperimentSpec:
        return _traffic_spec(variant, 1000 if small else 20000)


class IndexedFloor(RunWorkload):
    """The same world with indexed payloads in both directions: every
    datagram takes the full per-hop path."""

    name = "indexed_floor"

    def spec(self, variant: int, small: bool = False) -> ExperimentSpec:
        return _traffic_spec(variant, 500 if small else 3000,
                             direction="both", payload_style="indexed")


class MegaPromote(RunWorkload):
    """A million pooled hosts; a conversation with one promoted host
    spanning several timer-wheel rotations."""

    name = "mega_promote"
    rate_metric = "sim_s_per_s"
    hosts = 1_000_000
    window = 300.0       # simulated seconds; the wheel period is 240 s
    spacing = 0.25

    def spec(self, variant: int, small: bool = False,
             mode: str = "pooled") -> ExperimentSpec:
        hosts, window = (200, 60.0) if small else (self.hosts, self.window)
        return mega_spec(
            hosts, mode=mode, seed=1996 + variant, duration=window,
            datagrams=int(window / self.spacing), spacing=self.spacing,
            target_index=(123 + 7919 * variant) % hosts)

    def ops(self, runner: Runner, result: RunResult) -> Dict[str, int]:
        ops = super().ops(runner, result)
        population = runner.scenario.population
        ops.update({
            "promotions": population.promotions,
            "refreshes": population.pool.refreshes,
            "state_bytes": population.state_bytes(),
            "wheel_ticks": population.wheel.ticks,
        })
        return ops

    def held_out(self, seed: int) -> List[str]:
        """Pooled and materialized hosts must give equal outputs."""
        variant = POOL + seed % 50
        pooled = Runner().run(self.spec(variant, small=True))
        full = Runner().run(self.spec(variant, small=True,
                                      mode="materialized"))
        if pinned_outputs(pooled) != pinned_outputs(full):
            return [f"{self.name}: held-out pooled/materialized outputs "
                    f"differ"]
        return []


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------
def _sweep_grids(variant: int) -> Tuple[List[ExperimentSpec],
                                        List[ExperimentSpec]]:
    """The demo grid over two seeds, then the same grid plus one seed."""
    seeds = [1996 + variant, 2024 + variant]
    return (demo_grid(seeds=seeds).expand(),
            demo_grid(seeds=seeds + [3000 + variant]).expand())


class SweepCells:
    """A demo-grid sweep through supervised workers with a fresh cache,
    ledger and checkpoint, then a second sweep over the grid extended by
    one seed: old cells become cache reads, new cells add writes."""

    name = "sweep_cells"
    rate_metric = "cells_per_s"

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir

    def once(self, variant: int, pin: Optional[Dict[str, Any]]) -> Sample:
        first, second = _sweep_grids(variant)
        root = tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir)
        provenance: List[List[str]] = []
        first_cell: List[float] = []

        def progress(event: Dict[str, Any]) -> None:
            if not first_cell:
                first_cell.append(perf_counter())
            provenance[-1][event["index"]] = event["provenance"]

        gc.collect()
        try:
            cache = ResultCache(os.path.join(root, "cache"))
            with RunLedger(os.path.join(root, "ledger.jsonl")) as ledger, \
                    SweepCheckpoint(os.path.join(root, "checkpoint.jsonl")) \
                    as checkpoint:
                executor = SweepExecutor(
                    jobs=SWEEP_JOBS, cache=cache, ledger=ledger,
                    checkpoint=checkpoint, progress=progress)
                children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
                cpu0, t0 = process_time(), perf_counter()
                sweeps = []
                for specs in (first, second):
                    provenance.append([""] * len(specs))
                    sweeps.append(executor.run(specs))
                t1, cpu1 = perf_counter(), process_time()
                children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        workers_cpu = (children1.ru_utime + children1.ru_stime
                       - children0.ru_utime - children0.ru_stime)

        outputs: Dict[str, Any] = {}
        unit_problems: List[List[str]] = []
        fresh: List[RunResult] = []
        for sweep, origins in zip(sweeps, provenance):
            for result, origin in zip(sweep.results, origins):
                cell = dict(pinned_outputs(result),
                            violations=result.invariants.get(
                                "violation_count", 0))
                outputs[result.label] = cell
                problems = compare(cell, (pin or {}).get(result.label),
                                   f"{self.name} {result.label}")
                if result.failure is not None:
                    problems.append(f"{self.name}: cell quarantined")
                unit_problems.append(problems)
                if origin == "run":
                    fresh.append(result)
        timings = {phase: sum(r.timings.get(phase, 0.0) for r in fresh)
                   for phase in ("build", "arm", "drive", "collect", "total")}
        stats = cache.stats()
        ff = aggregate_fast_forward(sweeps[-1].results)
        ops = {
            "cells_run": len(fresh),
            "cache_hits": stats["hits"],
            "cache_misses": stats["misses"],
            "cache_stores": stats["stores"],
            "ledger_appends": ledger.appended,
            "checkpoint_records": checkpoint.appended,
            "retries": sum(sweep.retries for sweep in sweeps),
            "trace_entries": sum(r.trace_entries for r in fresh),
        }
        ops.update({f"ff_{key}": ff[key] for key in FF_STATS})
        return Sample(
            wall_s=t1 - t0,
            active_s=t1 - t0,
            setup_s=first_cell[0] - t0,
            cpu_s=(cpu1 - cpu0) + workers_cpu,
            datagrams=sum(r.spec["traffic"]["uniform"]["datagrams"]
                          for r in fresh),
            cells=sum(sweep.runs for sweep in sweeps),
            sim_s=sum(r.sim_time for r in fresh),
            outputs=outputs,
            ops=ops,
            unit_problems=unit_problems,
            timings=timings,
            detail={"cache_bytes": stats["bytes_read"]
                    + stats["bytes_written"],
                    "overhead_s": SWEEP_JOBS * (t1 - t0) - timings["total"]},
        )

    def held_out(self, seed: int) -> List[str]:
        """Serial and supervised sweeps of a grid with an unpinned seed
        must give equal per-cell outputs."""
        specs = demo_grid(seeds=[5000 + seed % 1000]).expand()
        serial = SweepExecutor(jobs=1).run(specs)
        supervised = SweepExecutor(jobs=SWEEP_JOBS).run(specs)
        if ([pinned_outputs(r) for r in serial.results]
                != [pinned_outputs(r) for r in supervised.results]):
            return [f"{self.name}: held-out serial/supervised outputs differ"]
        return []


def make(name: str, work_dir: str):
    """The workload called ``name``."""
    if name == SweepCells.name:
        return SweepCells(work_dir)
    return {cls.name: cls for cls in (TriangleReplay, IndexedFloor,
                                      MegaPromote)}[name]()


def golden_check(pin: Dict[str, Any]) -> List[str]:
    """Wiring self-check: the canonical 200-datagram spec still gives
    the golden digest."""
    result = Runner().run(canonical_traffic_spec())
    return compare({"digest": result.digest,
                    "trace_entries": result.trace_entries}, pin, "golden")
