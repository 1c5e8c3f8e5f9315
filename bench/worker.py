"""One workload run in a fresh process: operations in sequence, timed and checked.

Started by ``run.py`` with ``src`` on the import path.  Each operation calls
``nilcrit.cli.main(argv)`` in this process, exactly as the console script
does, under a per-operation deadline delivered by ``SIGALRM``, so no thread
or child process is ever started.  nilcrit keeps no global caches, so every
``main()`` call starts cold.  With tracing off, every operation is also timed
against the reference loop of ``pace.py``, which scales its time to a fixed
processor speed.  The last line of standard output is a JSON object with the
measurements.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_report  # noqa: E402
from pace import Pace  # noqa: E402
from workloads import GOLDEN_DIR, Op, operations  # noqa: E402

# Far from every passing operation: the slowest, the order-1152 criterion scan
# or the A6 lemma battery, takes 4-8 s on a 2-core machine.
DEADLINE_S = 30.0
# Whole-run limit on operation time, well inside the 180 s a run may take.
BUDGET_S = 140.0


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler; a BaseException so no nilcrit handler catches it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class OpResult:
    op: Op
    seconds: float
    error: str | None
    report_bytes: int
    scaled_s: float = 0.0  # seconds at the nominal speed, when timed with a Pace


def run_op(op: Op, input_dir: Path, report_dir: Path, seed: int, deadline_s: float,
           golden_dir: Path, pace: Pace | None = None) -> OpResult:
    """Run one operation; an overrun is charged at most its deadline and fails."""
    from nilcrit.cli import main

    report = report_dir / f"{op.name}.json"
    report.unlink(missing_ok=True)
    gc.collect()  # start from a clean heap, as a fresh CLI process would
    argv = op.argv(input_dir, report)
    sink = io.StringIO()
    error = None
    scaled = 0.0
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    if pace:
        pace.start()
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if pace:
                _, scaled = pace.stop()
        if code != 0:
            error = f"exit code {code}"
    except DeadlineExceeded:
        error = f"overran its {deadline_s:g} s deadline"
    except Exception as exc:  # a raising operation is a failed operation, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    written = report.read_bytes() if report.exists() else None
    if error is None:
        golden = (golden_dir / f"{op.name}.json").read_bytes()
        error = check_report(written, golden, seed)
    return OpResult(op, min(elapsed, deadline_s), error, len(written or b""),
                    min(scaled, deadline_s))


def run_batch(ops: list[Op], input_dir: Path, report_dir: Path, seed: int,
              golden_dir: Path, budget: list[float], pace: Pace | None = None
              ) -> list[OpResult]:
    """Every operation once, in order; ``budget[0]`` is the operation time left."""
    results = []
    for op in ops:
        if budget[0] <= 0:
            results.append(OpResult(op, 0.0, "run budget exhausted", 0))
            continue
        result = run_op(op, input_dir, report_dir, seed, min(DEADLINE_S, budget[0]),
                        golden_dir, pace)
        budget[0] -= result.seconds
        results.append(result)
    return results


def _failures(results: list[OpResult], note: str = "") -> list[str]:
    return [f"{r.op.name}: {r.error}{note}" for r in results if r.error]


def measure(ops: list[Op], args, golden_dir: Path, budget: list[float]) -> dict:
    """Whole batches while the next one is expected to end within the measuring time.

    Each batch reports its operations' time and its slowest operation, both
    scaled to the nominal processor speed, and the same raw.
    """
    pace = Pace()
    batches: list[list[OpResult]] = []
    elapsed: list[float] = []  # clock seconds of each batch, samples included
    started = perf_counter()
    while not batches or (budget[0] > 0 and perf_counter() - started
                          + statistics.median(elapsed) <= args.seconds):
        batch_start = perf_counter()
        batches.append(run_batch(ops, args.inputs, args.reports, args.seed, golden_dir,
                                 budget, pace))
        elapsed.append(perf_counter() - batch_start)
    return {
        "batches": [{"wall_s": sum(r.scaled_s for r in batch),
                     "slowest_op_s": max(r.scaled_s for r in batch),
                     "raw_wall_s": sum(r.seconds for r in batch),
                     "raw_slowest_op_s": max(r.seconds for r in batch)}
                    for batch in batches],
        "attempted": sum(len(b) for b in batches),
        "failures": [f for b in batches for f in _failures(b)],
    }


def trace(ops: list[Op], args, golden_dir: Path, budget: list[float]) -> dict:
    """Each operation untraced and then traced, back to back, so both see the same machine."""
    from tracing import Tracer

    tracer = Tracer()
    plain: list[OpResult] = []
    traced: list[OpResult] = []
    for op in ops:
        plain += run_batch([op], args.inputs, args.reports, args.seed, golden_dir, budget)
        tracer.install()
        try:
            traced += run_batch([op], args.inputs, args.reports, args.seed, golden_dir, budget)
        finally:
            tracer.uninstall()
    layer = tracer.metrics()
    layer["cli.report_bytes"] = sum(r.report_bytes for r in traced)
    layer["trace.overhead_frac"] = (sum(r.seconds for r in traced)
                                    / sum(r.seconds for r in plain) - 1)
    return {"attempted": len(plain) + len(traced),
            "failures": _failures(plain) + _failures(traced, " (traced)"),
            "per_layer": layer}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--reports", type=Path, required=True)
    args = parser.parse_args()

    import nilcrit.cli  # noqa: F401  (imported before any timing)

    args.reports.mkdir(parents=True, exist_ok=True)
    run = trace if args.trace else measure
    out = run(operations(args.workload), args, GOLDEN_DIR / args.workload, [BUDGET_S])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
