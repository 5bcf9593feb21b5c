"""Smoke tests: every example script runs cleanly and tells its story.

Run as subprocesses so the examples are exercised exactly the way a
user runs them (fresh interpreter, no pytest fixtures in scope).
"""

import pathlib
import subprocess
import sys

import pytest

from repro.experiment import ExperimentSpec, Runner


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=180,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "registered with home agent: True" in out
        assert "correspondent received 'pong'" in out
        assert "legend" in out            # the grid was printed

    def test_roaming_telnet(self):
        out = run_example("roaming_telnet.py")
        assert "survived: True   echoes: 22/22" in out
        assert "survived: False" in out
        assert "retransmission-limit" in out

    def test_web_browsing_heuristics(self):
        out = run_example("web_browsing_heuristics.py")
        assert "survived the move:   True" in out
        assert "completed" in out

    def test_smart_correspondent(self):
        out = run_example("smart_correspondent.py")
        assert "home agent tunneled 1, correspondent sent 4 In-DE" in out
        assert "home agent tunneled 0, correspondent sent 5 In-DE" in out

    def test_probe_strategies(self):
        out = run_example("probe_strategies.py")
        assert "FILTERING" in out and "PERMISSIVE" in out
        assert "settled at" in out

    def test_grid_tour(self):
        out = run_example("grid_tour.py")
        assert "16/16 cells agree with Figure 10." in out
        assert "MISMATCH" not in out

    def test_firewall_home_agent(self):
        out = run_example("firewall_home_agent.py")
        assert "registered through the firewall: True" in out
        assert "laptop received: ('file-contents', 'quarterly-report.doc')" in out
        assert "attacker received: nothing" in out


# The example specs that ``Runner`` accepts (``grid_4x4.json`` is a
# sweep grid), pinned by the digest of their whole trace.
SPEC_DIGESTS = {
    "mega_world.json":
        "1dfc9a60bb8b3b2e1e763fe08f0667394c030b64dce7dfceaa458c2a6176c32b",
    "violating_spec.json":
        "751d5094488e03683c7e9b27a8e21fb839d655326672c59b78362a5a3f9e9bce",
}


@pytest.mark.parametrize("name", sorted(SPEC_DIGESTS))
def test_example_spec_digest(name):
    result = Runner().run(ExperimentSpec.from_file(str(EXAMPLES / name)))
    assert result.digest == SPEC_DIGESTS[name]
