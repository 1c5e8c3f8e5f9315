"""Stabilizer chains (base and strong generating set) by incremental Schreier-Sims.

A chain is grown one element at a time: ``add`` sifts an element and, only
when the sift leaves a residue, extends the chain by it and completes it
again, so after every ``add`` the chain is a base and strong generating set
of the group generated so far.  A closure keeps one chain and adds each
candidate to it: the sift is the membership test and the extension at once.

Each level keeps its orbit and transversal and grows them in place: a new
strong generator is applied to the points already reached, and every
generator of the level to the points it reaches.  A transversal element is
never replaced, so a Schreier generator, one (point, generator) pair of a
level, is sifted once; a pair that sifts through the deeper levels keeps
doing so as they grow.  Pending pairs are taken from the deepest level
first, so shallower levels sift against completed stabilizers.

The construction is fully deterministic: base points are always the smallest
moved point of the residue that forces them, and orbits grow breadth-first
with generators in the order they joined the level.  Order and membership
tests read off the chain, so neither is subject to the enumeration cap.

Sifts, Schreier generators and element enumeration run on image bytes: a
product is one ``bytes.translate`` by the right factor's pad, and each
transversal element's inverse is kept as a translation table, so a sift step
is one translate.  Strong generators are Permutations; transversal elements
are wrapped as Permutations only when ``transversals`` is read.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DegreeMismatch
from .perm import Permutation, inverse_table, pad, wrap_images


class StabilizerChain:
    """Base, strong generators and transversals for a permutation group."""

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        gens = list(generators)
        for g in gens:
            _check_degree(g, degree)
        self.degree = degree
        self.base: list[int] = []
        self.strong: list[Permutation] = []
        # per level: _orbits[i] maps each orbit point x to the images of u
        # with base[i]^u = x, _inverse_tables[i] maps it to the pad of u^-1,
        # and _gens[i] holds (images, pad) of the strong generators fixing
        # base[:i], in the order they joined
        self._orbits: list[dict[int, bytes]] = []
        self._inverse_tables: list[dict[int, bytes]] = []
        self._gens: list[list[tuple[bytes, bytes]]] = []
        self._identity = Permutation.identity(degree).images
        for g in gens:
            self.add(g)

    # public queries

    @property
    def transversals(self) -> list[dict[int, Permutation]]:
        """Per level, orbit point -> u with base[i]^u = point, in the order the points were reached."""
        return [{x: wrap_images(u) for x, u in orbit.items()} for orbit in self._orbits]

    def order(self) -> int:
        n = 1
        for orbit in self._orbits:
            n *= len(orbit)
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return self._sift(g.images, 0)[0] == self._identity

    def add(self, g: Permutation) -> bool:
        """Extend the chain by g and complete it; False, with nothing changed, when g is a member.

        Raises DegreeMismatch, before any sift, when g's degree is not the chain's.
        """
        _check_degree(g, self.degree)
        residue, level = self._sift(g.images, 0)
        if residue == self._identity:
            return False
        identity, orbits, inverse_tables, sift = self._identity, self._orbits, self._inverse_tables, self._sift
        pending: list[list[tuple[int, bytes, bytes]]] = []
        self._extend(residue, level, pending)
        i = level
        while i >= 0:
            if not pending[i]:
                i -= 1
                continue
            x, s, table = pending[i].pop()
            # the Schreier generator u_x * s * u_y^-1, y = x^s
            residue, deeper = sift(orbits[i][x].translate(table).translate(inverse_tables[i][s[x]]), i + 1)
            if residue != identity:
                self._extend(residue, deeper, pending)
                i = deeper
        return True

    def elements(self) -> list[bytes]:
        """The images of all group elements, one per transversal-product decomposition."""
        out = [self._identity]
        for level in range(len(self.base) - 1, -1, -1):
            tables = [pad(wrap_images(u)) for u in self._orbits[level].values()]
            out = [deep.translate(t) for deep in out for t in tables]
        return out

    # construction

    def _sift(self, g: bytes, start: int) -> tuple[bytes, int]:
        """``(residue, level)``: g stripped down the chain from ``start``, and where it stopped.

        Once the levels from ``start`` down are complete, the residue is the
        identity exactly when g lies in the stabilizer they describe: a
        non-identity residue either moves the base point it stopped at out of
        that level's orbit, or fixes every base point.
        """
        base, tables = self.base, self._inverse_tables
        for i in range(start, len(base)):
            table = tables[i].get(g[base[i]])
            if table is None:
                return g, i
            g = g.translate(table)
        return g, len(base)

    def _extend(self, h: bytes, level: int, pending: list[list[tuple[int, bytes, bytes]]]) -> None:
        """Make the residue h a strong generator of levels 0..level and queue its Schreier pairs.

        h fixes base[:level]; at level == len(base) it opens a new level at
        its smallest moved point.  Each orbit grows breadth-first: h on the
        points already reached, then every generator of the level on each new
        point.  A pair that reaches a new point defines its transversal
        element, so its Schreier generator is the identity and is not queued.
        """
        if level == len(self.base):
            b = next(i for i, x in enumerate(h) if x != i)
            self.base.append(b)
            self._orbits.append({b: self._identity})
            self._inverse_tables.append({b: inverse_table(self._identity)})
            self._gens.append([])
        while len(pending) < len(self.base):
            pending.append([])
        self.strong.append(wrap_images(h))
        new = (h, pad(self.strong[-1]))
        for i in range(level + 1):
            orbit, inverses, gens, queue = self._orbits[i], self._inverse_tables[i], self._gens[i], pending[i]
            gens.append(new)
            reached = list(orbit)
            old = len(reached)
            for j, x in enumerate(reached):  # grows while it is walked: a breadth-first queue
                ux = orbit[x]
                for s, table in (gens if j >= old else (new,)):
                    y = s[x]
                    if y in orbit:
                        queue.append((x, s, table))
                    else:
                        orbit[y] = u = ux.translate(table)
                        inverses[y] = inverse_table(u)
                        reached.append(y)


def _check_degree(g: Permutation, degree: int) -> None:
    if g.degree != degree:
        raise DegreeMismatch(f"generator of degree {g.degree} in a degree-{degree} chain")
