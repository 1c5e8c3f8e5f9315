"""Every benchmark operation, replayed at seed 0, writes its golden report byte for byte.

The operations and their input descriptors come from ``bench/workloads.py``,
loaded read-only; the goldens are ``bench/golden/<workload>/<op>.json``.
Each operation runs through ``nilcrit.cli.main`` in this process, as the
benchmark's worker runs it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from nilcrit.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
CASES = [(w, op) for w in sorted(workloads.WORKLOADS) for op in workloads.operations(w)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    out = {}
    for w in workloads.WORKLOADS:
        out[w] = tmp_path_factory.mktemp(w)
        workloads.write_inputs(w, 0, out[w])
    return out


@pytest.mark.parametrize("workload,op", CASES, ids=[f"{w}/{op.name}" for w, op in CASES])
def test_report_matches_golden(workload, op, inputs, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(op.argv(inputs[workload], report)) == 0
    capsys.readouterr()
    golden = workloads.GOLDEN_DIR / workload / f"{op.name}.json"
    assert report.read_bytes() == golden.read_bytes()
