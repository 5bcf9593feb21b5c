"""Run one benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload triangle_replay --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` times repetitions of the workload for ``--seconds``
seconds with no tracing and reports the end-to-end metrics, medians
over the repetitions, with each repetition's seconds scaled to the
reference host (``measure.reference``).  ``--trace 1`` times untraced repetitions for
half the time, then makes one traced repetition and reports the
per-layer metrics and the tracing overhead.  Every repetition is
checked against ``pins.json`` and against the first repetition's
operation counts.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the details (machine, sample counts, spreads,
unscaled figures, operation counts, failure reasons).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from measure import Tally, host_scale, median, reference, summarize
from source import CHECKOUT, add_source_path
from spans import SPAN_NAMES, Installed, SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
# Scratch space for the sweep's cache, ledger and checkpoint.
WORK_DIR = os.path.join(CHECKOUT, ".perfbench_work")
SETUP_PROBES = 5
MIN_REPS = 3
WORKLOADS = ("triangle_replay", "indexed_floor", "sweep_cells",
             "mega_promote")

END_TO_END_UNITS = {
    "setup_s": "s",
    "datagrams_per_s": "datagrams/s",
    "cells_per_s": "cells/s",
    "sim_s_per_s": "sim_s/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "ok_share": "fraction",
}

# Per-layer counts besides the per-call ``.calls`` and ``.self_s``.
LAYER_COUNT_UNITS = {
    "events.processed": "count",
    "events.heap_peak": "count",
    "filters.drops": "count",
    "arp.hit_ratio": "fraction",
    "link.frames": "count",
    "link.queue_drops": "count",
    "binding.lookup_hit_ratio": "fraction",
    "trace.entries": "count",
    "fastforward.captured": "count",
    "fastforward.replayed": "count",
    "fastforward.fallbacks": "count",
    "fastforward.world_changes": "count",
    "fastforward.replay_ratio": "fraction",
    "population.promotions": "count",
    "population.refreshes": "count",
    "population.state_bytes": "bytes",
    "runner.build_s": "s",
    "runner.arm_s": "s",
    "runner.drive_s": "s",
    "runner.collect_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.bytes": "bytes",
    "cache.hit_ratio": "fraction",
    "ledger.appends": "count",
    "supervise.checkpoint_records": "count",
    "sweep.overhead_s": "s",
    "tracing.overhead": "ratio",
    "tracing.equivalent": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(LAYER_COUNT_UNITS)
    return units


def machine() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
    }


def check(sample, reference, tally: Tally) -> None:
    """Count each run or cell of ``sample``; it fails on a pin mismatch
    or when outputs or op counts differ from the ``reference`` run."""
    drift = []
    if sample.outputs != reference.outputs:
        drift.append("outputs differ between repetitions")
    if sample.ops != reference.ops:
        drift.append("op counts differ between repetitions")
    for problems in sample.unit_problems:
        tally.record(problems + drift)


def attempt(tally: Tally, func, *args):
    """``func(*args)``; an exception counts as one failed run."""
    try:
        return func(*args)
    except Exception as exc:  # noqa: BLE001 - counted, then reported
        tally.record([f"raised {type(exc).__name__}: {exc}"])
        return None


def timed(tally: Tally, workload, variant: int, pin, before):
    """One repetition between two reference-loop timings: the sample
    (None if it raised), with its host-speed factors set, and the
    timing after it, which serves as the next repetition's before."""
    sample = attempt(tally, workload.once, variant, pin)
    after = reference()
    if sample is not None:
        sample.wall_scale = host_scale(before[0], after[0])
        sample.cpu_scale = host_scale(before[1], after[1])
    return sample, after


def repeat(workload, variant: int, pin, first, tally: Tally,
           seconds: float) -> List[Any]:
    samples = []
    deadline = perf_counter() + seconds
    before = reference()
    while len(samples) < MIN_REPS or perf_counter() < deadline:
        sample, before = timed(tally, workload, variant, pin, before)
        if sample is not None:
            check(sample, first, tally)
            samples.append(sample)
        elif not samples and perf_counter() >= deadline:
            break
    return samples


def series(samples, scaled: bool = True) -> Dict[str, List[float]]:
    """Per-repetition figures; ``scaled`` puts seconds on the reference
    host (see ``measure.reference``)."""
    def wall(s):
        return s.wall_scale if scaled else 1.0

    def cpu(s):
        return s.cpu_scale if scaled else 1.0

    return {
        "datagrams_per_s": [s.datagrams / (s.active_s * wall(s))
                            for s in samples],
        "cells_per_s": [s.cells / (s.wall_s * wall(s)) for s in samples],
        "sim_s_per_s": [s.sim_s / (s.active_s * wall(s)) for s in samples],
        "cpu_s": [s.cpu_s * cpu(s) for s in samples],
    }


def probe_setup(workload_name: str, variant: int) -> List[float]:
    """Set-up seconds of fresh interpreters, imports included, scaled
    by the reference-loop times each probe takes around its set-up."""
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               workload_name, str(variant)]
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, check=True, capture_output=True,
                              text=True, timeout=120)
        setup, before, after = map(float, done.stdout.split()[-3:])
        values.append(setup * host_scale(before, after))
    return values


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest
    worker's peak (an upper bound on the workers' sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * children) / 1024.0


def end_to_end(args, workloads, workload, variant, samples, tally, pins
               ) -> Dict[str, Any]:
    is_sweep = args.workload == workloads.SweepCells.name
    if is_sweep:
        setup = [s.setup_s * s.wall_scale for s in samples]
    else:
        setup = probe_setup(args.workload, variant)
    for check_outputs, arg in ((workload.held_out, args.seed),
                               (workloads.golden_check, pins["golden"])):
        problems = attempt(tally, check_outputs, arg)
        if problems is not None:
            tally.record(problems)
    values = dict(series(samples), setup_s=setup)
    metrics = {name: median(v) for name, v in values.items()}
    metrics["peak_rss_mb"] = peak_rss_mb(
        workloads.SWEEP_JOBS if is_sweep else 0)
    metrics["ok_share"] = tally.ok_share
    return {"metrics": metrics,
            "summaries": {name: summarize(v) for name, v in values.items()},
            "unscaled": {name: summarize(v) for name, v
                         in series(samples, scaled=False).items()}}


def per_layer(workload, variant: int, samples, warm) -> Dict[str, Any]:
    untraced = median(series(samples)[workload.rate_metric])
    recorder = SpanRecorder()
    before = reference()
    installed = Installed(recorder)
    try:
        traced = workload.once(variant, None)
    finally:
        installed.remove()
    after = reference()
    traced.wall_scale = host_scale(before[0], after[0])
    traced_rate = median(series([traced])[workload.rate_metric])
    ff_keys = [key for key in traced.ops if key.startswith("ff_")]
    equivalent = (traced.outputs == warm.outputs and all(
        traced.ops[key] == warm.ops[key] for key in ff_keys))

    metrics: Dict[str, float] = {}
    times = recorder.self_times()
    for name in SPAN_NAMES:
        calls, own = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = own
    ops = traced.ops
    captured, replayed = ops["ff_captured"], ops["ff_replayed"]
    hits, misses = ops.get("cache_hits", 0), ops.get("cache_misses", 0)
    drops = traced.detail.get("drops_by_reason", {})
    metrics.update({
        "events.processed": ops.get("events_processed", 0),
        "events.heap_peak": recorder.heap_peak,
        "filters.drops": sum(n for reason, n in drops.items()
                             if "filter" in reason),
        "arp.hit_ratio": recorder.hit_ratio("arp.ArpService.lookup"),
        "link.frames": ops.get("link_frames", 0),
        "link.queue_drops": ops.get("link_queue_drops", 0),
        "binding.lookup_hit_ratio":
            recorder.hit_ratio("binding.BindingTable.lookup"),
        "trace.entries": ops["trace_entries"],
        "fastforward.captured": captured,
        "fastforward.replayed": replayed,
        "fastforward.fallbacks": ops["ff_fallbacks"],
        "fastforward.world_changes": ops["ff_world_changes"],
        "fastforward.replay_ratio":
            replayed / (replayed + captured) if replayed + captured else 0.0,
        "population.promotions": ops.get("promotions", 0),
        "population.refreshes": ops.get("refreshes", 0),
        "population.state_bytes": ops.get("state_bytes", 0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.stores": ops.get("cache_stores", 0),
        "cache.bytes": traced.detail.get("cache_bytes", 0),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "ledger.appends": ops.get("ledger_appends", 0),
        "supervise.checkpoint_records": ops.get("checkpoint_records", 0),
        "sweep.overhead_s": median(
            [s.detail.get("overhead_s", 0.0) for s in samples]),
        "tracing.overhead": untraced / traced_rate,
        "tracing.equivalent": int(equivalent),
    })
    for phase in ("build", "arm", "drive", "collect"):
        metrics[f"runner.{phase}_s"] = median(
            [s.timings.get(phase, 0.0) for s in samples])
    return {
        "metrics": metrics,
        "tracing": {
            "rate_metric": workload.rate_metric,
            "untraced": untraced,
            "traced": traced_rate,
            "spans": len(recorder.spans),
            "per_layer_void": not equivalent,
        },
    }


def measure(args) -> Tuple[Tally, Dict[str, Any]]:
    import workloads

    workload = workloads.make(args.workload, WORK_DIR)
    variant = args.seed % workloads.POOL
    with open(PINS) as handle:
        pins = json.load(handle)
    pin = pins[args.workload][str(variant)]
    tally = Tally()
    # The first repetition warms caches and lazy set-up; it is checked
    # and becomes the reference for op counts, but is not timed.
    warm = attempt(tally, workload.once, variant, pin)
    if warm is None:
        raise SystemExit(f"the first repetition failed: {tally.reasons}")
    check(warm, warm, tally)
    budget = args.seconds / 2 if args.trace else args.seconds
    samples = repeat(workload, variant, pin, warm, tally, budget)
    if not samples:
        raise SystemExit(f"no repetition succeeded: {tally.reasons}")
    if args.trace:
        report = per_layer(workload, variant, samples, warm)
    else:
        report = end_to_end(args, workloads, workload, variant, samples,
                            tally, pins)
    report.update({
        "variant": variant,
        "samples": len(samples),
        "ops": warm.ops,
        "detail": warm.detail,
    })
    return tally, report


def stop_resource_tracker() -> None:
    """Stop the resource tracker that every spawn start launches, and
    wait for it, so that no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is None:
            return
        # The tracker exits once the last write end of its pipe closes.
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    host = machine()
    add_source_path()
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        tally, report = measure(args)
    finally:
        stop_resource_tracker()
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    metrics = report.pop("metrics")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "machine": host,
        "failed_share": tally.failed_share,
        "failures": tally.reasons,
        **report,
    }, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
