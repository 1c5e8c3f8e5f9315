"""What a fresh ``nilcrit`` process loads before it does any work.

``import nilcrit.cli`` loads every nilcrit module, which the benchmark's
tracer relies on, and leaves out ``dataclasses`` (with the ``inspect`` it
pulls in) and ``hashlib`` (which loads OpenSSL): the records are
NamedTuples, and only ``corpus_hash`` needs a digest.  The child runs under
``python -S``, so no ``.pth`` file of the environment adds modules first.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
import nilcrit.cli
loaded = {"dataclasses": "dataclasses" in sys.modules, "hashlib": "hashlib" in sys.modules,
          "nilcrit": sorted(n for n in sys.modules if n.startswith("nilcrit."))}
code = nilcrit.cli.main(["series", "S4", "--json", sys.argv[1]])
loaded.update(code=code, hashlib_after=("hashlib" in sys.modules))
print(json.dumps(loaded))
"""


def _traced_layers() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_import_loads_every_layer_and_no_dataclasses_or_hashlib(tmp_path):
    report = tmp_path / "series.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD, str(report)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])  # after the series summary
    assert not seen["dataclasses"]
    assert not seen["hashlib"]
    assert {f"nilcrit.{layer}" for layer in _traced_layers()} <= set(seen["nilcrit"])
    # the report's corpus hash loads hashlib on first call
    assert seen["code"] == 0 and seen["hashlib_after"]
    assert len(json.loads(report.read_text())["corpus_hash"]) == 64
