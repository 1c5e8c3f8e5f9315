"""Work-count gate: stabilizer chains and normal closures built by one CLI run.

Each count is exact and deterministic, so the gate holds on a machine of any
speed: a duplicate build coming back raises a count past its committed
limit.  A change that lowers a count lowers its limit here; one that raises
a count must say why.  The groups are read from ``bench/corpus``, read only.
"""

from __future__ import annotations

import sys

import pytest

import nilcrit.group
from nilcrit.chain import StabilizerChain
from nilcrit.cli import main

from conftest import SCALE_CORPUS

# (subcommand, group, extra arguments) -> (chain constructions, normal_closure calls)
LIMITS = {
    ("series", "S3wrC3", ()): (6, 5),
    ("series", "S4xS4", ()): (6, 5),
    ("tower", "S3wrC3", ()): (6, 5),
    ("tower", "S4xS4", ()): (6, 5),
    ("criterion", "S4wrC2", ("--k", "1..3")): (7, 6),
}


@pytest.fixture
def counts(monkeypatch) -> dict[str, int]:
    """Count StabilizerChain constructions and normal_closure calls, in every module binding them."""
    seen = {"chains": 0, "closures": 0}

    class Counted(StabilizerChain):
        def __init__(self, *args, **kwargs):
            seen["chains"] += 1
            super().__init__(*args, **kwargs)

    closure = nilcrit.group.normal_closure

    def counted_closure(*args, **kwargs):
        seen["closures"] += 1
        return closure(*args, **kwargs)

    monkeypatch.setattr(nilcrit.group, "StabilizerChain", Counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("nilcrit") and getattr(module, "normal_closure", None) is closure:
            monkeypatch.setattr(module, "normal_closure", counted_closure)
    return seen


@pytest.mark.parametrize("command, group, extra", list(LIMITS),
                         ids=[" ".join((c, g, *e)) for c, g, e in LIMITS])
def test_builds_at_most_the_committed_counts(command, group, extra, counts, capsys):
    assert main([command, str(SCALE_CORPUS / f"{group}.grp"), *extra]) == 0
    capsys.readouterr()
    chains, closures = LIMITS[command, group, extra]
    assert counts["chains"] <= chains
    assert counts["closures"] <= closures
    assert counts["closures"] > 0  # the counters are in place
