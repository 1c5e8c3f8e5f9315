"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/tests

They cover the correctness gate, the deadline, the outside-in tracer, the
speed reference and the benchmark's input data; none of them measures speed.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH / "tests")]

import stall_oracle  # noqa: E402
from checks import check_report, invariant_view  # noqa: E402
from pace import REFERENCE_S, Pace, reference_loop, scaled_interval  # noqa: E402
from run import _unit  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import (  # noqa: E402
    BUILTIN_IDS,
    CORPUS_DIR,
    GOLDEN_DIR,
    Op,
    operations,
    relabelling,
    write_inputs,
)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Seed-0 and seed-7 descriptor files for every group of every workload."""
    root = tmp_path_factory.mktemp("inputs")
    for workload in SPEC_WORKLOADS:
        for seed in (0, 7):
            write_inputs(workload, seed, root / str(seed))
    return root


def _run(op: Op, inputs: Path, tmp_path: Path, seed: int, golden_dir: Path,
         deadline_s: float = 60.0):
    return run_op(op, inputs / str(seed), tmp_path, seed, deadline_s, golden_dir)


def _find(workload: str, name: str) -> Op:
    return next(op for op in operations(workload) if op.name == name)


def test_workloads_match_the_spec_and_have_goldens():
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(SPEC_WORKLOADS)
    for workload in SPEC_WORKLOADS:
        names = [op.name for op in operations(workload)]
        assert len(names) == len(set(names))
        for name in names:
            assert (GOLDEN_DIR / workload / f"{name}.json").is_file(), name
    assert [op.group for op in operations("builtin-lemmas")] == list(BUILTIN_IDS)


def test_builtin_ids_are_the_whole_builtin_corpus():
    from nilcrit.corpus import builtin_names

    assert sorted(BUILTIN_IDS) == builtin_names()


@pytest.mark.parametrize("seed", [0, 7])
def test_matching_report_passes(inputs, tmp_path, seed):
    op = _find("scale-structure", "series.S4")
    result = _run(op, inputs, tmp_path, seed, GOLDEN_DIR / "scale-structure")
    assert result.error is None
    assert result.report_bytes > 0


@pytest.mark.parametrize("seed", [0, 7])
def test_altered_report_is_a_failure(inputs, tmp_path, seed):
    op = _find("scale-structure", "series.S4")
    golden = json.loads((GOLDEN_DIR / "scale-structure" / f"{op.name}.json").read_text())
    golden["records"][0]["derived_orders"][1] = 13
    altered = tmp_path / "golden"
    altered.mkdir()
    (altered / f"{op.name}.json").write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n")
    result = _run(op, inputs, tmp_path, seed, altered)
    assert result.error is not None


def test_seed_zero_compares_bytes_and_other_seeds_compare_invariants():
    golden = (GOLDEN_DIR / "scale-scan" / "criterion.S4wrC2.json").read_bytes()
    report = json.loads(golden)
    report["records"][0]["criterion"]["witness"] = None
    moved = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    assert check_report(moved, golden, seed=0) is not None
    assert check_report(moved, golden, seed=3) is None
    report["records"][0]["criterion"]["holds"] = True
    flipped = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    assert check_report(flipped, golden, seed=3) is not None
    assert check_report(None, golden, seed=3) is not None


def test_lemma_records_compare_in_any_order():
    golden = json.loads((GOLDEN_DIR / "builtin-lemmas" / "lemmas.S4.json").read_text())
    shuffled = dict(golden, records=list(reversed(golden["records"])))
    assert invariant_view(shuffled) == invariant_view(golden)


def test_deadline_overrun_fails_and_leaves_nothing_running(inputs, tmp_path):
    # series on C2wrS4 runs for minutes at the parent commit
    op = Op("series", "C2wrS4")
    threads = threading.active_count()
    result = run_op(op, CORPUS_DIR, tmp_path, 0, 0.5, GOLDEN_DIR)
    assert result.error is not None and "deadline" in result.error
    assert 0.4 <= result.seconds <= 0.5
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_relabelling_is_seeded_and_identity_at_zero():
    assert relabelling(0, "S4", 4) == [0, 1, 2, 3]
    assert relabelling(5, "S6", 6) == relabelling(5, "S6", 6)
    assert sorted(relabelling(5, "S6", 6)) == list(range(6))
    assert relabelling(5, "S6", 6) != relabelling(6, "S6", 6)


def test_seed_zero_inputs_reproduce_the_committed_corpus(inputs):
    for path in CORPUS_DIR.glob("*.grp"):
        written = inputs / "0" / path.name
        if written.exists():
            assert written.read_text() == path.read_text()


def test_stall_expectations_match_an_independent_closure():
    expected = json.loads((BENCH / "expected_stalls.json").read_text())
    for group in ("ASL2_3", "C2wrS4"):
        got = stall_oracle.series_profile(CORPUS_DIR / f"{group}.grp")
        assert got == expected[f"series.{group}"]
    got = stall_oracle.criterion_profile(CORPUS_DIR / "AGL2_3.grp", [1, 2, 3])
    assert got == expected["criterion.AGL2_3"]


def test_tracer_reports_every_per_layer_metric(inputs, tmp_path):
    # one small operation of each kind the workloads run
    ops = [("builtin-lemmas", Op("lemmas", "S4", ("--k", "1..3"))),
           ("builtin-lemmas", Op("lemmas", "A5", ("--k", "1..3"))),
           ("scale-scan", Op("criterion", "S3wrC3", ("--k", "1..3"))),
           ("scale-scan", Op("focal", "AGL1_16", ("--k", "1..3"))),
           ("scale-structure", Op("series", "S4")),
           ("scale-structure", Op("tower", "S4"))]
    tracer = Tracer()
    tracer.install()
    try:
        results = [_run(op, inputs, tmp_path, 0, GOLDEN_DIR / w) for w, op in ops]
    finally:
        tracer.uninstall()
    assert [r.error for r in results] == [None] * len(ops)
    metrics = tracer.metrics()
    metrics["cli.report_bytes"] = sum(r.report_bytes for r in results)
    metrics["trace.overhead_frac"] = 1.0  # measured by the worker, not here
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert [name for name, value in metrics.items() if value <= 0] == []
    assert all(_unit(m["name"]) == m["unit"] for m in SPEC["per_layer"])


def test_tracer_restores_every_binding():
    import nilcrit.cli
    import nilcrit.group
    import nilcrit.indexed
    import nilcrit.structure

    before = (nilcrit.group.normal_closure, nilcrit.structure.normal_closure,
              nilcrit.indexed.IndexedGroup.row, nilcrit.cli.main)
    tracer = Tracer()
    tracer.install()
    assert nilcrit.structure.normal_closure is not before[1]
    assert nilcrit.group.normal_closure is nilcrit.structure.normal_closure
    tracer.uninstall()
    after = (nilcrit.group.normal_closure, nilcrit.structure.normal_closure,
             nilcrit.indexed.IndexedGroup.row, nilcrit.cli.main)
    assert after == before


def test_reference_loop_enumerates_s6():
    assert reference_loop() == 720


def test_scaled_interval_excludes_samples_and_scales_by_their_speed():
    nominal = [(0.0, REFERENCE_S), (1.0, REFERENCE_S)]
    assert scaled_interval(0.5, 1.0, nominal) == pytest.approx((0.5, 0.5))
    # a host at half speed: the reference takes twice as long, so 2 s read as 1 s
    slow = [(0.0, 2 * REFERENCE_S), (1.0, 2 * REFERENCE_S), (3.0, 2 * REFERENCE_S)]
    raw, scaled = scaled_interval(0.5, 3.0, slow)
    assert raw == pytest.approx(2.5 - 2 * REFERENCE_S)
    assert scaled == pytest.approx(raw / 2)


def test_paced_operations_restore_the_profiling_timer(inputs, tmp_path):
    handler = signal.getsignal(signal.SIGPROF)
    passed = run_op(_find("scale-structure", "series.S4"), inputs / "0", tmp_path, 0, 60.0,
                    GOLDEN_DIR / "scale-structure", Pace())
    overran = run_op(Op("series", "C2wrS4"), CORPUS_DIR, tmp_path, 0, 0.5, GOLDEN_DIR, Pace())
    assert passed.error is None and passed.scaled_s > 0
    assert "deadline" in overran.error and 0 < overran.scaled_s <= 0.5
    assert signal.getsignal(signal.SIGPROF) == handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
