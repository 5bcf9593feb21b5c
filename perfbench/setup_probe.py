"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <variant>

Prints the seconds from before the first ``repro`` import to the first
traffic event (imports, spec construction, ``build_scenario``, arming
and traffic scheduling), then the wall seconds of the reference loop
timed just before and just after it.  ``run.py`` starts several of
these and reports the median of their scaled set-up times as
``setup_s``.
"""

import sys
from time import perf_counter

from measure import reference


def main() -> None:
    before = reference()[0]
    start = perf_counter()
    from source import add_source_path

    add_source_path()
    import workloads

    workload = workloads.make(sys.argv[1], work_dir="")
    setup = workload.setup_seconds(int(sys.argv[2]), start)
    print(setup, before, reference()[0])


if __name__ == "__main__":
    main()
