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

import pytest

from nilcrit.perm import Permutation, commutator
from nilcrit.group import PermGroup, conjugacy_classes, subgroup_generated


def perm(cycles: str, degree: int) -> Permutation:
    return Permutation.parse_cycles(cycles, degree)


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
    """The former Schreier-Sims on Permutation objects, an oracle for nilcrit.chain.

    Every product and inverse is a Permutation; sifts call ``inverse()`` at
    every level.  Base points, strong generators and transversals come out
    in the same deterministic order as the library's chain.
    """

    def __init__(self, degree: int, generators: list[Permutation]):
        self.degree = degree
        self.base: list[int] = []
        self.strong: list[Permutation] = []
        self.transversals: list[dict[int, Permutation]] = []
        self._identity = Permutation.identity(degree)
        dirty = False
        for g in generators:
            residue, level = self._sift(g, 0)
            if not (residue.is_identity() and level == len(self.base)):
                self._add_strong_generator(residue, level)
                dirty = True
        if dirty:
            self._close()

    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def elements(self) -> list[Permutation]:
        out = [self._identity]
        for level in range(len(self.base) - 1, -1, -1):
            reps = list(self.transversals[level].values())
            out = [deep * u for deep in out for u in reps]
        return out

    def _level_gens(self, level: int) -> list[Permutation]:
        pts = self.base[:level]
        return [g for g in self.strong if all(g.images[b] == b for b in pts)]

    def _sift(self, g: Permutation, start: int) -> tuple[Permutation, int]:
        for i in range(start, len(self.base)):
            u = self.transversals[i].get(g.images[self.base[i]])
            if u is None:
                return g, i
            g = g * u.inverse()
        return g, len(self.base)

    def _rebuild_transversal(self, level: int) -> None:
        b = self.base[level]
        gens = self._level_gens(level)
        trans = {b: self._identity}
        queue = [b]
        while queue:
            x = queue.pop(0)
            for s in gens:
                y = s.images[x]
                if y not in trans:
                    trans[y] = trans[x] * s
                    queue.append(y)
        self.transversals[level] = trans

    def _add_strong_generator(self, g: Permutation, level: int) -> None:
        if level == len(self.base):
            b = min(g.moved_points())
            self.base.append(b)
            self.transversals.append({b: self._identity})
        self.strong.append(g)
        for i in range(level + 1):
            self._rebuild_transversal(i)

    def _close(self) -> None:
        i = len(self.base) - 1
        while i >= 0:
            inserted_at = self._verify_level(i)
            if inserted_at is None:
                i -= 1
            else:
                i = min(inserted_at, len(self.base) - 1)
        for level in range(len(self.base)):
            self._rebuild_transversal(level)

    def _verify_level(self, level: int) -> int | None:
        self._rebuild_transversal(level)
        gens = self._level_gens(level)
        trans = self.transversals[level]
        for x in sorted(trans):
            for s in gens:
                schreier = trans[x] * s * trans[s.images[x]].inverse()
                if schreier.is_identity():
                    continue
                residue, lvl = self._sift(schreier, level + 1)
                if not (residue.is_identity() and lvl == len(self.base)):
                    self._add_strong_generator(residue, lvl)
                    return lvl
        return None


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


def p_prime_core_oracle(G: PermGroup, p: int) -> PermGroup:
    """The former p_prime_core: a chain per p'-class closure, joined by generators."""
    gens: list[Permutation] = []
    for cls in conjugacy_classes(G):
        if cls.elements[-1].order() % p == 0:
            continue
        closed = subgroup_generated(G.degree, cls.elements)
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
