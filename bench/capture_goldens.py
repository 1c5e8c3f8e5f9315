"""Capture the golden report of every benchmark operation at seed 0.

    python3 bench/capture_goldens.py [workload ...]

Run from the repository root, at the commit whose outputs are the reference.
Each operation runs through ``nilcrit.cli.main`` on the seed-0 descriptor
files; an operation that exits nonzero is reported and gets no golden.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import GOLDEN_DIR, WORKLOADS, operations, write_inputs  # noqa: E402


def capture(workload: str) -> int:
    from nilcrit.cli import main

    input_dir = Path.cwd() / ".bench_work" / "golden-inputs" / workload
    write_inputs(workload, 0, input_dir)
    out_dir = GOLDEN_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    bad = 0
    for op in operations(workload):
        with redirect_stdout(io.StringIO()):
            code = main(op.argv(input_dir, out_dir / f"{op.name}.json"))
        if code != 0:
            (out_dir / f"{op.name}.json").unlink(missing_ok=True)
            print(f"{op.name}: exit code {code}, no golden", file=sys.stderr)
            bad += 1
    return bad


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(WORKLOADS)
    raise SystemExit(1 if sum(capture(name) for name in names) else 0)
