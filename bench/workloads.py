"""Workload definitions and their seeded inputs.

An operation is one CLI subcommand run on one group, as a user would type it.
Every operation names its group by a descriptor file that the benchmark
writes before the run: for seed 0 the file holds the group's own generators,
for any other seed the points are relabelled by a permutation drawn from the
seed and the group id.  Relabelling changes element order, chain bases and
scan order but not the mathematics, so verdicts, orders and series profiles
must not change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CORPUS_DIR = BENCH_DIR / "corpus"
GOLDEN_DIR = BENCH_DIR / "golden"

# The 40 builtins, as `nilcrit corpus` lists them.
BUILTIN_IDS = (
    "A4", "A5", "A6", "C10", "C11", "C12", "C2", "C3", "C3:C4", "C3wrC2", "C4", "C5",
    "C6", "C7", "C7:C3", "C8", "C9", "D10", "D12", "D14", "D16", "D18", "D20", "D22",
    "D24", "D6", "D8", "E27", "F20", "PSL2_7", "Q8", "S3", "S3xS3", "S4", "S4xC3",
    "S5", "SL2_3", "SL2_5", "V4", "trivial",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation on one group; ``name`` keys its golden report."""

    command: str
    group: str
    flags: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        kind = "-gamma" if "gamma" in self.flags else ""
        return f"{self.command}{kind}.{self.group.replace(':', '_')}"

    def argv(self, input_dir: Path, report: Path) -> list[str]:
        return [self.command, str(input_dir / group_file(self.group)), *self.flags,
                "--json", str(report)]


K3 = ("--k", "1..3")


def _builtin_lemmas() -> list[Op]:
    return [Op("lemmas", g, K3) for g in BUILTIN_IDS]


def _scale_scan() -> list[Op]:
    ops = [Op("criterion", g, K3)
           for g in ("AGammaL1_8", "AGL1_16", "C2wrS4", "S4xS4", "S3wrC3", "S4wrC2")]
    ops += [Op("criterion", g, ("--kind", "gamma", *K3))
            for g in ("AGammaL1_8", "AGL1_16", "S3wrC3", "PGL2_7", "PSL2_11", "S6")]
    ops += [Op("focal", g, K3) for g in ("AGammaL1_8", "AGL1_16", "C2wrS4", "S4xS4")]
    ops += [Op("probe", g, K3) for g in ("PGL2_7", "PSL2_11", "S6")]
    return ops


def _scale_structure() -> list[Op]:
    groups = BUILTIN_IDS + ("AGammaL1_8", "AGL1_16", "S4xS4", "S3wrC3",
                            "PGL2_7", "PSL2_11", "S6")
    return [Op(command, g) for g in groups for command in ("series", "tower")]


WORKLOADS = {
    "builtin-lemmas": _builtin_lemmas,
    "scale-scan": _scale_scan,
    "scale-structure": _scale_structure,
}


def operations(workload: str) -> list[Op]:
    return WORKLOADS[workload]()


def group_file(group: str) -> str:
    return group.replace(":", "_") + ".grp"


def relabelling(seed: int, group: str, degree: int) -> list[int]:
    """0-based point map for (seed, group); seed 0 is the identity."""
    points = list(range(degree))
    if seed:
        random.Random(f"{seed}/{group}").shuffle(points)
    return points


def relabel(generators, sigma: list[int]) -> tuple[tuple[int, ...], ...]:
    """Conjugate 1-based image arrays by sigma: the new map sends sigma(x) to sigma(g(x))."""
    out = []
    for images in generators:
        new = [0] * len(sigma)
        for x, gx in enumerate(images):
            new[sigma[x]] = sigma[gx - 1] + 1
        out.append(tuple(new))
    return tuple(out)


def write_inputs(workload: str, seed: int, input_dir: Path) -> None:
    """Write the relabelled descriptor of every group the workload uses."""
    from nilcrit.corpus import BUILTINS, GroupDescriptor, parse_descriptor

    input_dir.mkdir(parents=True, exist_ok=True)
    for group in sorted({op.group for op in operations(workload)}):
        if group in BUILTINS:
            desc = BUILTINS[group]
        else:
            path = CORPUS_DIR / group_file(group)
            desc = parse_descriptor(path.read_text(encoding="utf-8"), source=str(path))
        sigma = relabelling(seed, group, desc.degree)
        moved = GroupDescriptor(desc.id, desc.degree, relabel(desc.generators, sigma),
                                desc.expected_order, desc.tags)
        (input_dir / group_file(group)).write_text(moved.canonical_text(), encoding="utf-8")
