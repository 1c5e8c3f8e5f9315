"""Shared fixtures and brute-force oracles.

Oracles here deliberately avoid the library's optimized paths: closures are
plain breadth-first multiplication, conjugacy classes come from full element
scans, and series terms from all-pairs commutator closures.
"""

from __future__ import annotations

import itertools
import math
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import strategies as st

from nilcrit.corpus import load_group
from nilcrit.perm import Permutation, commutator
from nilcrit.group import PermGroup, subgroup_generated
from nilcrit.indexed import indexed_view

SCALE_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"
# S4^3 and S4 wr S3, of orders 13,824 and 82,944, written by corpus/make_stretch.py
STRETCH_CORPUS = Path(__file__).resolve().parent / "corpus"


def scale_group(name: str) -> PermGroup:
    """A group of the scale corpus, loaded from its descriptor file."""
    return load_group(str(SCALE_CORPUS / f"{name}.grp"))


def stretch_group(name: str) -> PermGroup:
    """A group of the stretch corpus, loaded from its descriptor file."""
    return load_group(str(STRETCH_CORPUS / f"{name}.grp"))


def regular_cyclic(n: int) -> PermGroup:
    return PermGroup(n, [Permutation([(x + 1) % n for x in range(n)])], name=f"C{n}")


def regular_elementary_abelian(bits: int) -> PermGroup:
    n = 1 << bits
    return PermGroup(n, [Permutation([x ^ (1 << i) for x in range(n)]) for i in range(bits)],
                     name=f"C2^{bits}")


def small_symmetric_subgroups(max_degree: int = 6):
    """Subgroups of S_n, n <= max_degree, each generated by 1 to 3 random permutations."""
    return st.integers(1, max_degree).flatmap(lambda n: st.lists(
        st.permutations(range(n)).map(Permutation), min_size=1, max_size=3).map(
        lambda gens: PermGroup(n, gens)))


def perm(cycles: str, degree: int) -> Permutation:
    return Permutation.parse_cycles(cycles, degree)


def conjugated(H: PermGroup, by: Permutation) -> PermGroup:
    """H^by, generated by the conjugates of H's generators."""
    return PermGroup(H.degree, tuple(g.conjugate(by) for g in H.generators))


class CountingIndex(dict):
    """An images-keyed index that counts its lookups: put in place of a view's ``index``."""

    lookups = 0

    def __getitem__(self, images):
        self.lookups += 1
        return super().__getitem__(images)


class TuplePermutation:
    """The former tuple-backed permutation arithmetic, an oracle for nilcrit.perm.

    Images are a tuple of 0-based ints, and every operation is a Python
    loop over them, as the library computed before images became bytes.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    def __eq__(self, other):
        return isinstance(other, TuplePermutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __hash__(self):
        return hash(self.images)

    def __mul__(self, other):
        b = other.images
        return TuplePermutation(b[x] for x in self.images)

    def inverse(self):
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return TuplePermutation(inv)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = TuplePermutation(range(len(self.images)))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self, by):
        return by.inverse() * self * by

    def is_identity(self):
        return all(x == i for i, x in enumerate(self.images))

    def cycles(self, with_fixed=False):
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cur, cycle = start, []
            while not seen[cur]:
                seen[cur] = True
                cycle.append(cur + 1)
                cur = self.images[cur]
            if len(cycle) > 1 or with_fixed:
                out.append(tuple(cycle))
        return out

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles(with_fixed=True)))


def tuple_commutator(a: TuplePermutation, b: TuplePermutation) -> TuplePermutation:
    return a.inverse() * b.inverse() * a * b


class PermutationView:
    """The former Permutation-object indexed view, an oracle for nilcrit.indexed.

    Elements are looked up by Permutation, rows are ``index[a * b]``,
    inverses come from ``inverse()``, orders from ``cycles``, and the
    conjugation table of a generator s maps x to s^-1 * x * s through rows.
    """

    def __init__(self, group: PermGroup):
        chain = PermutationChain(group.degree, list(group.generators))
        self.elements = tuple(sorted(chain.elements()))
        self.size = len(self.elements)
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.order_of = [math.lcm(*(len(c) for c in p.cycles(with_fixed=True)))
                         for p in self.elements]
        self.inverse = [self.index[p.inverse()] for p in self.elements]
        self.generators = [self.index[s] for s in group.generators]
        self._rows: dict[int, list[int]] = {}

    def row(self, i: int) -> list[int]:
        if i not in self._rows:
            a = self.elements[i]
            self._rows[i] = [self.index[a * b] for b in self.elements]
        return self._rows[i]

    def times(self, s: int) -> list[int]:
        return [self.row(z)[s] for z in range(self.size)]

    def conjugation_tables(self) -> list[list[int]]:
        return [[self.row(self.row(self.inverse[s])[x])[s] for x in range(self.size)]
                for s in self.generators]


class PermutationChain:
    """Incremental Schreier-Sims on Permutation objects, an oracle for nilcrit.chain.

    Every product and inverse is a Permutation; sifts call ``inverse()`` at
    every level.  It follows the same rules as the library's chain, so base
    points, strong generators and transversals come out in the same order:
    a generator is added only when its sift leaves a residue; the residue
    joins levels 0..level, opening a new level at its smallest moved point;
    each orbit grows breadth-first, the new generator on the old points and
    then every level generator on the new ones; every Schreier pair that does
    not define a transversal element is queued once, and the queues are
    emptied deepest level first, last pair first.
    """

    def __init__(self, degree: int, generators: list[Permutation]):
        self.degree = degree
        self.base: list[int] = []
        self.strong: list[Permutation] = []
        self.transversals: list[dict[int, Permutation]] = []
        self._level_gens: list[list[Permutation]] = []
        self._identity = Permutation.identity(degree)
        for g in generators:
            self.add(g)

    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def contains(self, g: Permutation) -> bool:
        return self._sift(g, 0)[0].is_identity()

    def elements(self) -> list[Permutation]:
        out = [self._identity]
        for level in range(len(self.base) - 1, -1, -1):
            reps = list(self.transversals[level].values())
            out = [deep * u for deep in out for u in reps]
        return out

    def add(self, g: Permutation) -> bool:
        residue, level = self._sift(g, 0)
        if residue.is_identity():
            return False
        queues: list[list[tuple[int, Permutation]]] = []
        self._extend(residue, level, queues)
        while any(queues):
            i = max(j for j, q in enumerate(queues) if q)
            x, s = queues[i].pop()
            trans = self.transversals[i]
            schreier = trans[x] * s * trans[s.images[x]].inverse()
            residue, deeper = self._sift(schreier, i + 1)
            if not residue.is_identity():
                self._extend(residue, deeper, queues)
        return True

    def _sift(self, g: Permutation, start: int) -> tuple[Permutation, int]:
        for i in range(start, len(self.base)):
            u = self.transversals[i].get(g.images[self.base[i]])
            if u is None:
                return g, i
            g = g * u.inverse()
        return g, len(self.base)

    def _extend(self, h: Permutation, level: int, queues: list) -> None:
        if level == len(self.base):
            b = next(i for i, x in enumerate(h.images) if x != i)
            self.base.append(b)
            self.transversals.append({b: self._identity})
            self._level_gens.append([])
        while len(queues) < len(self.base):
            queues.append([])
        self.strong.append(h)
        for i in range(level + 1):
            trans = self.transversals[i]
            old_points = list(trans)
            self._level_gens[i].append(h)
            points = list(old_points)
            k = 0
            while k < len(points):
                x = points[k]
                for s in ([h] if k < len(old_points) else self._level_gens[i]):
                    y = s.images[x]
                    if y in trans:
                        queues[i].append((x, s))
                    else:
                        trans[y] = trans[x] * s
                        points.append(y)
                k += 1


def closure_oracle(degree: int, gens: list[Permutation]) -> set[Permutation]:
    """Breadth-first closure under multiplication, no chains involved."""
    seen = {Permutation.identity(degree)}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def product_set(left, right) -> set[Permutation]:
    """Every product a * b, a in left and b in right."""
    right = list(right)
    return {a * b for a in left for b in right}


def class_lists(G: PermGroup) -> list[list[Permutation]]:
    """G's conjugacy classes as sorted element lists, numbered as on its indexed view."""
    iv = indexed_view(G)
    return [iv.perms(c) for c in iv.classes()]


def p_prime_core_oracle(G: PermGroup, p: int) -> PermGroup:
    """O_{p'}(G): the class closures that are p'-groups, each on a chain, joined by generators."""
    gens: list[Permutation] = []
    for cls in class_lists(G):
        if cls[-1].order() % p == 0:
            continue
        closed = subgroup_generated(G.degree, cls)
        if closed.order() % p != 0:
            gens.extend(closed.generators)
    return subgroup_generated(G.degree, gens)


def classes_oracle(degree: int, elements: set[Permutation]) -> list[set[Permutation]]:
    """Conjugacy classes by conjugating with every group element."""
    remaining = set(elements)
    out = []
    while remaining:
        x = min(remaining)
        cls = {x.conjugate(g) for g in elements}
        out.append(cls)
        remaining -= cls
    return sorted(out, key=lambda c: min(c).images)


def derived_subgroup_oracle(degree: int, elements: set[Permutation]) -> set[Permutation]:
    """Closure of the set of all commutators of element pairs."""
    comms = {commutator(a, b) for a, b in itertools.product(elements, repeat=2)}
    return closure_oracle(degree, list(comms))


def lower_central_step_oracle(degree: int, term: set[Permutation],
                              whole: set[Permutation]) -> set[Permutation]:
    comms = {commutator(a, g) for a in term for g in whole}
    return closure_oracle(degree, list(comms))


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once it has run for the given wall time.

    Uses SIGALRM, so it must run in the main thread.  The previous handler
    and any pending real-time timer are restored on exit, the timer less the
    time spent in the block.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after the {seconds} s deadline")

    started = time.monotonic()
    previous_handler = signal.signal(signal.SIGALRM, expire)
    previous_delay, previous_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
        if previous_delay:
            remaining = previous_delay - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-3), previous_interval)


@pytest.fixture
def stall_deadline():
    """Fail a test that used to hang instead of letting it block the suite."""
    with deadline(30):
        yield


@pytest.fixture(scope="session")
def corpus() -> dict[str, PermGroup]:
    from nilcrit.corpus import builtin_names, load_group
    return {name: load_group(name) for name in builtin_names()}


@pytest.fixture(scope="session")
def soluble_corpus(corpus) -> dict[str, PermGroup]:
    from nilcrit.corpus import filter_names
    return {n: corpus[n] for n in filter_names("soluble")}


@pytest.fixture(scope="session")
def insoluble_corpus(corpus) -> dict[str, PermGroup]:
    from nilcrit.corpus import filter_names
    return {n: corpus[n] for n in filter_names("insoluble")}


@pytest.fixture(scope="session")
def s4() -> PermGroup:
    return PermGroup(4, (perm("(1 2)", 4), perm("(1 2 3 4)", 4)), name="S4")


@pytest.fixture(scope="session")
def s3() -> PermGroup:
    return PermGroup(3, (perm("(1 2)", 3), perm("(1 2 3)", 3)), name="S3")


@pytest.fixture(scope="session")
def a4() -> PermGroup:
    return PermGroup(4, (perm("(1 2 3)", 4), perm("(2 3 4)", 4)), name="A4")


@pytest.fixture(scope="session")
def a5() -> PermGroup:
    return PermGroup(5, (perm("(1 2 3 4 5)", 5), perm("(3 4 5)", 5)), name="A5")


@pytest.fixture(scope="session")
def v4() -> PermGroup:
    return PermGroup(4, (perm("(1 2)(3 4)", 4), perm("(1 3)(2 4)", 4)), name="V4")


@pytest.fixture(scope="session")
def d8() -> PermGroup:
    return PermGroup(4, (perm("(1 2 3 4)", 4), perm("(1 3)", 4)), name="D8")
