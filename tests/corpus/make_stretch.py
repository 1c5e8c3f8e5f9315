"""Write the stretch descriptors: soluble groups of order 13,824 and 82,944.

S4^3 and S4 wr S3, on 12 points in three blocks of four, are past the scale
corpus's orders and inside the enumeration cap.  They are written with the
scale corpus's own ``_cycles`` and ``descriptor_text``, so loading a file
re-verifies its stated order and tags.  Run from the repository root:

    python3 tests/corpus/make_stretch.py

The output files are committed next to this script; the tests read them.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "bench"))

from make_corpus import _cycles, descriptor_text  # noqa: E402

S4_BLOCKS = [
    [_cycles(12, (1 + 4 * b, 2 + 4 * b)), _cycles(12, (1 + 4 * b, 2 + 4 * b, 3 + 4 * b, 4 + 4 * b))]
    for b in range(3)
]
# the blocks {1..4}, {5..8}, {9..12} swapped and rotated, point by point
BLOCK_SWAP = _cycles(12, (1, 5), (2, 6), (3, 7), (4, 8))
BLOCK_ROTATION = _cycles(12, (1, 5, 9), (2, 6, 10), (3, 7, 11), (4, 8, 12))


def stretch_groups() -> list[tuple[str, int, list[list[int]], int, str]]:
    """(id, degree, generators, order, tags) for every stretch group."""
    return [
        ("S4cubed", 12, [g for block in S4_BLOCKS for g in block], 24 ** 3, "soluble"),
        ("S4wrS3", 12, [*S4_BLOCKS[0], BLOCK_SWAP, BLOCK_ROTATION], 24 ** 3 * 6, "soluble"),
    ]


def main() -> None:
    for name, degree, gens, order, tags in stretch_groups():
        path = HERE / f"{name}.grp"
        path.write_text(descriptor_text(name, degree, gens, order, tags), encoding="utf-8")
        print(path)


if __name__ == "__main__":
    main()
