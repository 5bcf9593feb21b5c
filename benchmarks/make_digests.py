"""Regenerate ``digests.json``: the trace digests of every paper benchmark.

    PYTHONPATH=src python3 benchmarks/make_digests.py

Runs the benchmarks once with timing disabled and records, per test,
the ordered ``trace_digest`` of every simulator it built (see the
``trace_digests`` fixture in ``conftest.py``).  Regenerate only when
the simulation's semantics change on purpose; a benchmark that fails
for any reason other than the corpus itself writes nothing.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "digests.json")


class Collect:
    """Reads each test's digests back from its teardown report."""

    def __init__(self) -> None:
        self.corpus = {}
        self.failed = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed and report.when != "teardown":
            self.failed.append(report.nodeid)
        for name, value in report.user_properties:
            if name == "trace_digests" and report.when == "teardown":
                self.corpus.update(value)


def main() -> int:
    collect = Collect()
    pytest.main([HERE, "-q", "-p", "no:cacheprovider", "--benchmark-disable"],
                plugins=[collect])
    if collect.failed or not collect.corpus:
        print(f"not written; failed: {collect.failed}", file=sys.stderr)
        return 1
    with open(CORPUS, "w") as handle:
        json.dump(collect.corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(collect.corpus)} tests to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
