"""Regenerate ``pins.json``: the outputs of every pinned variant.

    python3 perfbench/make_pins.py

Pins record outputs only (digest, trace-entry count, deliverability
counts, and per-cell invariant violations for the sweep), never how
the simulator got there.  Regenerate them only when the simulation's
semantics change on purpose.
"""

from __future__ import annotations

import json
import os
import shutil

from run import WORK_DIR, WORKLOADS
from source import add_source_path

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    add_source_path()
    import workloads
    from repro.experiment import Runner, canonical_traffic_spec

    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        pins = {}
        for name in WORKLOADS:
            workload = workloads.make(name, WORK_DIR)
            pins[name] = {str(variant): workload.once(variant, None).outputs
                          for variant in range(workloads.POOL)}
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    golden = Runner().run(canonical_traffic_spec())
    pins["golden"] = {"digest": golden.digest,
                      "trace_entries": golden.trace_entries}
    with open(os.path.join(HERE, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
