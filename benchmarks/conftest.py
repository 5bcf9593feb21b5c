"""Benchmark harness plumbing.

Every benchmark regenerates one figure or section-level claim of the
paper and reports its rows through the ``reporter`` fixture.  Collected
tables are printed in the terminal summary (outside pytest's capture),
so ``pytest benchmarks/ --benchmark-only`` shows both pytest-benchmark
timings and the paper-style result tables.

Every benchmark is also a byte-identity check: the ``trace_digests``
fixture digests the trace of each :class:`Simulator` the test builds
and compares the ordered list with ``digests.json``, keyed by test id.
The corpus covers what the golden digest does not (TCP, DNS,
fragmentation, MINENC/GRE, source routing, multicast).  Regenerate it
with ``make_digests.py`` only when the simulation's semantics change on
purpose.
"""

from __future__ import annotations

import functools
import json
import os
from typing import List

import pytest

from repro.analysis.reporting import TextTable
from repro.bench.golden import trace_digest
from repro.netsim.simulator import Simulator

_TABLES: List[str] = []
CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "digests.json")


@pytest.fixture(scope="session")
def digest_corpus():
    with open(CORPUS_PATH) as handle:
        return json.load(handle)


@pytest.fixture(autouse=True)
def trace_digests(request, monkeypatch, digest_corpus):
    simulators: List[Simulator] = []
    init = Simulator.__init__

    @functools.wraps(init)
    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        simulators.append(self)

    monkeypatch.setattr(Simulator, "__init__", recording_init)
    yield
    digests = [list(trace_digest(sim.trace)) for sim in simulators]
    # ``test_file.py::test_name``, whatever the rootdir.
    key = request.node.nodeid.rsplit("/", 1)[-1]
    # Read back by make_digests.py from the teardown report.
    request.node.user_properties.append(("trace_digests", {key: digests}))
    assert key in digest_corpus, f"{key} has no entry in {CORPUS_PATH}"
    expected = digest_corpus[key]
    # A timed (not --benchmark-disable) run may call the workload for
    # several rounds; each round must reproduce the pinned list.
    rounds = max(1, len(digests) // max(1, len(expected)))
    assert digests == expected * rounds, (
        f"{key}: trace digests differ from {CORPUS_PATH}")


class Reporter:
    """Collects rendered tables for the end-of-run summary."""

    def table(self, table: TextTable) -> None:
        _TABLES.append(table.render())

    def text(self, text: str) -> None:
        _TABLES.append(text)


@pytest.fixture
def reporter() -> Reporter:
    return Reporter()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "paper-reproduction result tables")
    for rendered in _TABLES:
        terminalreporter.write_line("")
        for line in rendered.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
