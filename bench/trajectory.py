"""Measure every workload over several seeds and write a trajectory point.

    python3 bench/trajectory.py --seeds 1..10 --out bench/baseline.json

Run from the repository root.  For each workload this runs ``run.py`` once
per seed with tracing off, then once at seed 0 with tracing on, and records
for each end-to-end metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), and the per-layer
figures of the traced run.  The output also names the machine, the Python
version and the git commit, the nominal speed the end-to-end times are
scaled to (``pace.py``), and which end-to-end metric each per-layer metric
is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from pace import REFERENCE_S  # noqa: E402

# Which end-to-end metrics, on which workloads, each per-layer metric should move.
EXPECTED_EFFECTS = {
    "chain.builds chain.sifts chain.elements_enumerated chain.self_s":
        "wall_s on builtin-lemmas and scale-structure",
    "group.coset_map_calls group.quotients group.memo_calls group.memo_misses group.self_s":
        "wall_s and slowest_op_s on builtin-lemmas; no change predicted on scale-scan",
    "group.normal_closures group.max_closure_generators structure.series_built "
    "structure.self_s":
        "ops_passed_frac, slowest_op_s and wall_s on scale-structure; wall_s on scale-scan",
    "indexed.views indexed.row_calls indexed.rows_built indexed.self_s":
        "wall_s and peak_rss_mb on scale-scan; no change predicted on builtin-lemmas",
    "words.value_sets words.values_total words.self_s": "wall_s on scale-scan",
    "criterion.scans criterion.pairs_checked criterion.self_s":
        "wall_s on scale-scan; nothing elsewhere",
    "lemmas.checks lemmas.inadmissible lemmas.self_s": "builtin-lemmas only",
    "corpus.loads corpus.self_s":
        "wall_s on scale-scan, where load-time tag verification runs the series",
    "cli.report_bytes cli.self_s": "wall_s everywhere, expected to be small",
}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
    return result


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1..10", help="seed range, e.g. 1..10")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, help="write the trajectory point here")
    args = parser.parse_args()

    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "run_seconds": seconds,
        "reference_s": REFERENCE_S,
        "seeds": seeds,
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        "expected_effects": EXPECTED_EFFECTS,
        "workloads": {},
    }
    ok = True
    for workload in args.workloads:
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        traced = _run(workload, 0, seconds, 1)
        ok &= all(r["correct"] for r in runs) and traced["correct"]
        end_to_end = {name: _summary([r["metrics"][name]["value"] for r in runs])
                      for name in bounds}
        point["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in end_to_end.items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  (above bound/3)"
            print(f"{workload:16s} {name:16s} median {s['median']:.4g}  "
                  f"spread {s['spread']:.3f}  bound {bounds[name]}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
