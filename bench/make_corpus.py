"""Write the scale corpus: descriptor files for groups of order 168-1152.

Each group is built here from explicit generators (affine and projective maps
over small finite fields, wreath and direct products of symmetric groups) and
written as a descriptor with ``order:`` and ``tags:`` lines, so that loading
the file re-verifies both.  Run from the repository root:

    python3 bench/make_corpus.py

The output files are committed; the benchmark only reads them.
"""

from __future__ import annotations

from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


def _cycles(degree: int, *cycles: tuple[int, ...]) -> list[int]:
    images = list(range(1, degree + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    return images


def _on_points(points: list, f) -> list[int]:
    index = {p: i for i, p in enumerate(points)}
    return [index[f(p)] + 1 for p in points]


# affine groups over F_3^2: points (x, y) numbered 1 + x + 3y

_F3_PLANE = [(x, y) for y in range(3) for x in range(3)]


def _linear(m) -> list[int]:
    (a, b), (c, d) = m
    return _on_points(_F3_PLANE, lambda v: ((a * v[0] + b * v[1]) % 3,
                                            (c * v[0] + d * v[1]) % 3))


_TRANSLATION = _on_points(_F3_PLANE, lambda v: ((v[0] + 1) % 3, v[1]))
_SL23_GENS = [_linear(((1, 1), (0, 1))), _linear(((0, 1), (2, 0)))]


# F_8 = F_2[t]/(t^3 + t + 1) and F_16 = F_2[t]/(t^4 + t + 1), elements as bit masks

def _gf2_mul(a: int, b: int, bits: int, poly: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> bits:
            a ^= poly
    return out


def _affine_line(bits: int, poly: int, frobenius: bool) -> list[list[int]]:
    """Generators of AGL(1, 2^bits), or of AGammaL(1, 2^bits) with the Frobenius map."""
    points = list(range(2 ** bits))
    gens = [_on_points(points, lambda x: x ^ 1),
            _on_points(points, lambda x: _gf2_mul(x, 2, bits, poly))]
    if frobenius:
        gens.append(_on_points(points, lambda x: _gf2_mul(x, x, bits, poly)))
    return gens


def _projective_line(q: int, scale: int | None) -> list[list[int]]:
    """PSL(2, q) on q + 1 points (PGL(2, q) when a non-square scale is given)."""
    inf = q
    points = list(range(q + 1))

    def shift(x):
        return inf if x == inf else (x + 1) % q

    def invert(x):
        if x == inf:
            return 0
        if x == 0:
            return inf
        return (-pow(x, q - 2, q)) % q

    gens = [_on_points(points, shift), _on_points(points, invert)]
    if scale is not None:
        gens.append(_on_points(points, lambda x: inf if x == inf else (scale * x) % q))
    return gens


def scale_groups() -> list[tuple[str, int, list[list[int]], int, str]]:
    """(id, degree, generators, order, tags) for every scale group."""
    return [
        ("AGammaL1_8", 8, _affine_line(3, 0b1011, True), 168, "soluble"),
        ("AGL1_16", 16, _affine_line(4, 0b10011, False), 240, "soluble"),
        ("ASL2_3", 9, [_TRANSLATION, *_SL23_GENS], 216, "soluble"),
        ("C2wrS4", 8, [_cycles(8, (1, 2)), _cycles(8, (1, 3), (2, 4)),
                       _cycles(8, (1, 3, 5, 7), (2, 4, 6, 8))], 384, "soluble"),
        ("AGL2_3", 9, [_TRANSLATION, *_SL23_GENS, _linear(((2, 0), (0, 1)))], 432, "soluble"),
        ("S4xS4", 8, [_cycles(8, (1, 2)), _cycles(8, (1, 2, 3, 4)),
                      _cycles(8, (5, 6)), _cycles(8, (5, 6, 7, 8))], 576, "soluble"),
        ("S3wrC3", 9, [_cycles(9, (1, 2)), _cycles(9, (1, 2, 3)),
                       _cycles(9, (1, 4, 7), (2, 5, 8), (3, 6, 9))], 648, "soluble"),
        ("S4wrC2", 8, [_cycles(8, (1, 2)), _cycles(8, (1, 2, 3, 4)),
                       _cycles(8, (1, 5), (2, 6), (3, 7), (4, 8))], 1152, "soluble"),
        ("PGL2_7", 8, _projective_line(7, 3), 336, "insoluble"),
        ("PSL2_11", 12, _projective_line(11, None), 660, "insoluble"),
        ("S6", 6, [_cycles(6, (1, 2)), _cycles(6, (1, 2, 3, 4, 5, 6))], 720, "insoluble"),
    ]


def descriptor_text(name: str, degree: int, gens: list[list[int]], order: int,
                    tags: str) -> str:
    lines = [f"id: {name}", f"degree: {degree}", f"order: {order}", f"tags: {tags}"]
    lines += [f"gen: [{', '.join(map(str, g))}]" for g in gens]
    return "\n".join(lines) + "\n"


def main() -> None:
    CORPUS_DIR.mkdir(exist_ok=True)
    for name, degree, gens, order, tags in scale_groups():
        path = CORPUS_DIR / f"{name}.grp"
        path.write_text(descriptor_text(name, degree, gens, order, tags), encoding="utf-8")
        print(path)


if __name__ == "__main__":
    main()
