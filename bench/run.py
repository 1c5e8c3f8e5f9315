"""nilcrit benchmark: one workload run, printed as one JSON line.

    python3 bench/run.py --workload builtin-lemmas --seed 0 --seconds 15 --trace 0

Run from the repository root.  The benchmark drives the public CLI entry
point ``nilcrit.cli.main`` from ``src/``; nothing needs building.  Steps:

1. write the workload's descriptor files, relabelled by ``--seed``;
2. start one fresh worker process that runs whole batches of the workload's
   operations while the next batch is expected to end within ``--seconds``,
   checking every report;
3. time set-up (a fresh interpreter imports ``nilcrit.cli`` and loads the
   builtin corpus) several times, half before and half after the worker, and
   keep the median;
4. print the result.  With ``--trace 0`` the metrics are the end-to-end ones,
   taken with tracing off.  Their times are scaled to a fixed processor speed
   by the reference loop of ``pace.py``, timed next to each operation and
   each set-up; the raw times go to standard error.  With ``--trace 1`` the
   worker runs every
   operation once untraced and once traced, back to back, and the metrics
   are the per-layer ones from the traced runs plus the tracing overhead.

Generated inputs and reports go to ``.bench_work/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from pace import sample, scaled_interval  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 165.0
SETUP_CODE = ("import nilcrit.cli\n"
              "from nilcrit.corpus import builtin_names, load_group\n"
              "for name in builtin_names():\n"
              "    load_group(name)\n")


def _env(src: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src)}


class SetupTimeout(Exception):
    pass


def _raise_setup_timeout(signum, frame):
    raise SetupTimeout


def time_setups(src: Path, repeats: int) -> list[tuple[float, float]]:
    """Raw and scaled wall times of fresh interpreters importing the CLI and the corpus."""
    times = []
    previous = signal.signal(signal.SIGALRM, _raise_setup_timeout)
    try:
        for _ in range(repeats):
            before = sample()
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=_env(src),
                                    stdout=subprocess.DEVNULL)
            signal.alarm(SETUP_TIMEOUT_S)
            try:
                # a blocking wait: waiting with a timeout polls, rounding up by up to 50 ms
                code = proc.wait()
            except SetupTimeout:
                proc.kill()
                proc.wait()
                raise SystemExit(f"set-up overran {SETUP_TIMEOUT_S} s")
            finally:
                signal.alarm(0)
            end = perf_counter()
            times.append(scaled_interval(start, end, [before, sample()]))
            if code != 0:
                raise SystemExit(f"set-up exited with code {code}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return times


def run_worker(args, src: Path, work: Path) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", str(work / "inputs"), "--reports", str(work / "reports")]
    # subprocess.run kills and reaps the worker if it overruns the timeout
    done = subprocess.run(cmd, env=_env(src), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nilcrit" / "cli.py").is_file():
        print(f"error: no nilcrit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    write_inputs(args.workload, args.seed, work / "inputs")

    # set-up is timed before and after the worker, so one slow spell of the
    # machine cannot move every sample
    setups = [] if args.trace else time_setups(src, SETUP_REPEATS // 2)
    raw = run_worker(args, src, work)
    if not args.trace:
        setups += time_setups(src, SETUP_REPEATS - len(setups))
    for failure in raw["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(raw["per_layer"].items())}
    else:
        batches = raw["batches"]
        print("raw seconds: wall {:.4f}, slowest op {:.4f}, set-up {:.4f}".format(
            statistics.median(b["raw_wall_s"] for b in batches),
            statistics.median(b["raw_slowest_op_s"] for b in batches),
            statistics.median(t[0] for t in setups)), file=sys.stderr)
        metrics = {
            "wall_s": {"value": statistics.median(b["wall_s"] for b in batches), "unit": "s"},
            "slowest_op_s": {"value": statistics.median(b["slowest_op_s"] for b in batches),
                             "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
            "ops_passed_frac": {"value": 1 - len(raw["failures"]) / raw["attempted"],
                                "unit": "ratio"},
            "setup_s": {"value": statistics.median(t[1] for t in setups), "unit": "s"},
        }
    print(json.dumps({"correct": not raw["failures"], "attempted": raw["attempted"],
                      "failed": len(raw["failures"]), "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.report_bytes":
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
