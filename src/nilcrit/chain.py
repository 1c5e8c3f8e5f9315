"""Stabilizer chains (base and strong generating set) via Schreier-Sims.

The construction is fully deterministic: base points are always the smallest
moved point of the generator that forces them, and orbits are explored
breadth-first with generators in list order.  Order and membership tests read
off the chain, so neither is subject to the enumeration cap.

Sifts, Schreier generators and element enumeration run on image bytes: a
product is one ``bytes.translate`` by the right factor's pad, and each
transversal element's inverse is kept as a translation table, so a sift step
is one translate.  Strong generators and transversal elements are stored as
Permutations; a residue becomes one only when it joins the strong set.
"""

from __future__ import annotations

from .perm import Permutation, inverse_table, pad, wrap_images


class StabilizerChain:
    """Base, strong generators and transversals for a permutation group."""

    def __init__(self, degree: int, generators: list[Permutation]):
        self.degree = degree
        self.base: list[int] = []
        self.strong: list[Permutation] = []
        # transversals[i] maps orbit point -> u with base[i]^u = point; while
        # the chain is built, _orbits[i] maps it to u's images and
        # _inverse_tables[i] to the pad of u^-1
        self.transversals: list[dict[int, Permutation]] = []
        self._orbits: list[dict[int, bytes]] = []
        self._inverse_tables: list[dict[int, bytes]] = []
        self._identity = Permutation.identity(degree).images
        dirty = False
        for g in generators:
            residue, level = self._sift(g.images, 0)
            if not (residue == self._identity and level == len(self.base)):
                self._add_strong_generator(residue, level)
                dirty = True
        if dirty:
            self._close()
        self.transversals = [{x: wrap_images(u) for x, u in orbit.items()} for orbit in self._orbits]

    # public queries

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        residue, level = self._sift(g.images, 0)
        return level == len(self.base) and residue == self._identity

    def elements(self) -> list[bytes]:
        """The images of all group elements, one per transversal-product decomposition."""
        out = [self._identity]
        for level in range(len(self.base) - 1, -1, -1):
            tables = [pad(u) for u in self.transversals[level].values()]
            out = [deep.translate(t) for deep in out for t in tables]
        return out

    # construction

    def _level_gens(self, level: int) -> list[Permutation]:
        pts = self.base[:level]
        return [g for g in self.strong if all(g.images[b] == b for b in pts)]

    def _sift(self, g: bytes, start: int) -> tuple[bytes, int]:
        for i in range(start, len(self.base)):
            table = self._inverse_tables[i].get(g[self.base[i]])
            if table is None:
                return g, i
            g = g.translate(table)
        return g, len(self.base)

    def _rebuild_transversal(self, level: int) -> None:
        b = self.base[level]
        gens = [(s.images, pad(s)) for s in self._level_gens(level)]
        trans = {b: self._identity}
        queue = [b]
        for x in queue:  # grows while it is walked: a breadth-first queue
            ux = trans[x]
            for s, table in gens:
                y = s[x]
                if y not in trans:
                    trans[y] = ux.translate(table)
                    queue.append(y)
        self._orbits[level] = trans
        self._inverse_tables[level] = {x: inverse_table(u) for x, u in trans.items()}

    def _add_strong_generator(self, g: bytes, level: int) -> None:
        if level == len(self.base):
            b = next(i for i, x in enumerate(g) if x != i)
            self.base.append(b)
            self._orbits.append({})
            self._inverse_tables.append({})
        self.strong.append(wrap_images(g))
        # orbits at this level and above may have grown
        for i in range(level + 1):
            self._rebuild_transversal(i)

    def _close(self) -> None:
        """Verify Schreier generators level by level, deepest first."""
        i = len(self.base) - 1
        while i >= 0:
            inserted_at = self._verify_level(i)
            if inserted_at is None:
                i -= 1
            else:
                i = min(inserted_at, len(self.base) - 1)
        # final pass: transversals consistent with the full strong set
        for level in range(len(self.base)):
            self._rebuild_transversal(level)

    def _verify_level(self, level: int) -> int | None:
        """Sift all Schreier generators of this level; returns insertion level on failure."""
        self._rebuild_transversal(level)
        gens = [(s.images, pad(s)) for s in self._level_gens(level)]
        trans = self._orbits[level]
        inverses = self._inverse_tables[level]
        for x in sorted(trans):
            ux = trans[x]
            for s, table in gens:
                # u_x * s * u_y^-1, y = x^s
                schreier = ux.translate(table).translate(inverses[s[x]])
                if schreier == self._identity:
                    continue
                residue, lvl = self._sift(schreier, level + 1)
                if not (residue == self._identity and lvl == len(self.base)):
                    self._add_strong_generator(residue, lvl)
                    return lvl
        return None
