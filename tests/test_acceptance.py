"""Acceptance gate: every verification suite runs at its stated tolerance
and prints one pass/fail line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the lines as they pass;
``submult verify all`` drives the same suites from the command line, and
its structured output must match the copy recorded in ``tests/data``.
"""

import json
from pathlib import Path

import pytest

from submult.cli import main
from submult.config import RunConfig
from submult.suites import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite(name):
    result = run_suite(name, RunConfig())
    print(f"\n{result.suite}: {result.title} ({result.elapsed:.1f}s)")
    for criterion in result.criteria:
        print(criterion.line())
    failed = [c for c in result.criteria if not c.passed]
    assert not failed, (
        f"{name} failed {len(failed)}/{len(result.criteria)} criteria: "
        + "; ".join(f"{c.name} ({c.detail})" for c in failed))


RECORDED_VERIFY = Path(__file__).parent / "data" / "verify_all_seed0.json"


def _without_timings(node):
    if isinstance(node, dict):
        return {k: _without_timings(v) for k, v in node.items()
                if k != "elapsed_seconds"}
    if isinstance(node, list):
        return [_without_timings(v) for v in node]
    return node


def test_verify_all_matches_recorded_output(capsys):
    """``verify all --seed 0`` reproduces its recorded structured output,
    every criterion, detail and witness, apart from the timings."""
    assert main(["verify", "all", "--seed", "0", "--format", "structured"]) == 0
    output = json.loads(capsys.readouterr().out)
    assert _without_timings(output) == json.loads(RECORDED_VERIFY.read_text())
