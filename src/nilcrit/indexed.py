"""Index-based multiplication view of an enumerated group.

Pair-enumeration loops (word value closures, coprime product scans, random
commutator closures) dominate the runtime of every check, and doing them on
Permutations wastes time re-hashing them.  This view numbers the
elements in canonical order and multiplies by table lookup; rows of the
multiplication table are built on demand so sparse access stays cheap.
Rows, columns, inverses, orders and single commutators and conjugates are
computed on the elements' image bytes against ``index``, a dict keyed by
images, so no Permutation is made per product: a row entry is one
``bytes.translate`` and one lookup, and ``comm`` and ``conj`` force no row.

Conjugation runs on per-generator tables instead of rows.  For each generator
s of G the view keeps x -> x*s and x -> x^s, and a breadth-first spanning
tree of G in which every element is b = parent*s, so r^b = (r^parent)^s and
all conjugates of one element come out of a single pass of table lookups.
The tables also give the conjugacy classes, numbered by minimal element.
Building them costs 2 |G| products per generator, against |G|^2 for the
full multiplication table.

Subgroups and normal subsets of G are index sets on the view: a subgroup
closure fetches rows only for the seeds that enlarge it, and a subset is
normal when every generator's conjugation table maps it into itself.  The
index set of a normal subgroup is kept, keyed by its generators' indices.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import NotNormal, OrderCapExceeded
from .group import DEFAULT_ENUM_CAP, PermGroup, group_with_elements
from .perm import Permutation, image_order, inverse_table, pad


class IndexedGroup:
    """Canonical numbering of a group's elements with lazy multiplication rows."""

    def __init__(self, group: PermGroup, cap: int = DEFAULT_ENUM_CAP):
        elems = group.elements(cap)
        self.group = group
        self.elements: tuple[Permutation, ...] = elems
        self.size = len(elems)
        self.images: list[bytes] = [p.images for p in elems]
        self.pads: list[bytes] = [pad(p) for p in elems]
        # keyed by images: look a Permutation p up as index[p.images]
        self.index: dict[bytes, int] = {b: i for i, b in enumerate(self.images)}
        self.order_of: list[int] = [image_order(b) for b in self.images]
        self.inverse: list[int] = [self.index[inverse_table(b)[:len(b)]] for b in self.images]
        self._rows: list[list[int] | None] = [None] * self.size
        self._cosets: dict[frozenset[int], tuple[list[int], list[int]]] = {}
        self._normal: dict[frozenset[int], frozenset[int]] = {}
        self._gen_tables: tuple[list[list[int]], list[list[int]]] | None = None
        self._tree: list[tuple[int, int, int]] | None = None
        self._classes: tuple[list[int], list[int]] | None = None
        # the identity is the lexicographic minimum of any permutation set
        assert elems[0].is_identity()
        self.identity_index = 0

    def row(self, i: int) -> list[int]:
        r = self._rows[i]
        if r is None:
            a, key = self.images[i], self.index
            r = [key[a.translate(t)] for t in self.pads]
            self._rows[i] = r
        return r

    def times(self, s: int) -> list[int]:
        """``out[z]`` is the index of elements[z] * elements[s], for every z: one column of the table."""
        t, key = self.pads[s], self.index
        return [key[z.translate(t)] for z in self.images]

    def comm(self, i: int, j: int) -> int:
        """index of [elements[i], elements[j]] = i^-1 j^-1 i j, from image bytes; forces no row."""
        inv, pads = self.inverse, self.pads
        images = self.images[inv[i]].translate(pads[inv[j]]).translate(pads[i]).translate(pads[j])
        return self.index[images]

    def conj(self, i: int, j: int) -> int:
        """index of elements[i]^elements[j] = j^-1 i j, from image bytes; forces no row."""
        pads = self.pads
        return self.index[self.images[self.inverse[j]].translate(pads[i]).translate(pads[j])]

    def commutator_table(self) -> list[list[int]]:
        """Full table of [a, b] indices; forces all multiplication rows."""
        inv = self.inverse
        table = []
        for i in range(self.size):
            row_invi = self.row(inv[i])
            table.append([self.row(self.row(row_invi[inv[j]])[i])[j] for j in range(self.size)])
        return table

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup closure of the seed indices, by left multiplication with kept seeds' rows."""
        return frozenset(self._close(seed)[0])

    def subgroup(self, seed: Iterable[int]) -> PermGroup:
        """The subgroup of the seeds, on the generators ``subgroup_generated`` keeps; no chain."""
        members, kept = self._close(seed)
        return group_with_elements(self.group.degree, self.perms(kept), self.perms(sorted(members)))

    def _close(self, seed: Iterable[int]) -> tuple[set[int], list[int]]:
        """``(members, kept)``: the closure of the seeds and the seeds kept for it.

        Seeds are walked in order and one is kept only when the group closed
        so far does not contain it; the group is then re-closed under left
        multiplication by the rows of the kept seeds.  Each kept seed at
        least doubles the group, so the closure H fetches at most log2|H|
        rows however many seeds it is given.
        """
        seen = {self.identity_index}
        kept, rows = [], []
        for s in seed:
            if s in seen:
                continue
            kept.append(s)
            rows.append(self.row(s))
            frontier = list(seen)
            while frontier:
                nxt = []
                for x in frontier:
                    for row in rows:
                        y = row[x]
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
        return seen, kept

    def commutator_closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Close a set of indices under taking commutators of members."""
        inv, comm = self.inverse, self.comm
        closed = set(seed)
        closed.add(self.identity_index)
        members = list(closed)
        frontier = list(closed)
        while frontier and len(closed) < self.size:
            fresh = []
            for x in frontier:
                for y in members:
                    # [x, y], and [y, x] = [x, y]^-1
                    c1 = comm(x, y)
                    c2 = inv[c1]
                    if c1 not in closed:
                        closed.add(c1)
                        fresh.append(c1)
                    if c2 not in closed:
                        closed.add(c2)
                        fresh.append(c2)
                if len(closed) == self.size:
                    break
            members.extend(fresh)
            frontier = fresh
        return frozenset(closed)

    def coset_labels(self, kernel: PermGroup) -> tuple[list[int], list[int]]:
        """``(labels, reps)`` of the right cosets N*g, numbered by their minimal elements.

        ``labels[i]`` is the coset of element i, ``reps[c]`` the index of the
        minimal element of coset c.  N*g is the orbit of g under left
        multiplication by N's generators, read off their rows.
        """
        gens = frozenset(self.index[n.images] for n in kernel.generators)
        if gens not in self._cosets:
            self._cosets[gens] = _orbit_labels(self.size, [self.row(n) for n in gens])
        return self._cosets[gens]

    def conjugation_tables(self) -> list[list[int]]:
        """One table per generator s of G: ``table[i]`` is the index of elements[i]^s."""
        return self._generator_tables()[1]

    def class_labels(self) -> tuple[list[int], list[int]]:
        """``(labels, reps)`` of the conjugacy classes, numbered by their minimal elements.

        ``labels[i]`` is the class of element i, ``reps[c]`` the index of the
        minimal element of class c.  A class is the orbit of an element under
        the generators' conjugation tables.
        """
        if self._classes is None:
            self._classes = _orbit_labels(self.size, self.conjugation_tables())
        return self._classes

    def classes(self) -> list[list[int]]:
        """The conjugacy classes as increasing index lists, numbered as in class_labels."""
        labels, reps = self.class_labels()
        members: list[list[int]] = [[] for _ in reps]
        for i, c in enumerate(labels):
            members[c].append(i)
        return members

    def conjugates(self, r: int) -> list[int]:
        """``out[b]`` is the index of elements[r]^elements[b], for every b.

        One table lookup per element: along the spanning tree, b = parent*s
        gives r^b = (r^parent)^s.
        """
        conj = self.conjugation_tables()
        out = [0] * self.size
        out[self.identity_index] = r
        for b, parent, j in self._spanning_tree():
            out[b] = conj[j][out[parent]]
        return out

    def member_indices(self, H: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> set[int]:
        """The indices of H's elements; NotNormal if H is not contained in G."""
        return self._indices(H.elements(cap))

    def normal_indices(self, subset: Iterable[Permutation]) -> set[int]:
        """The index set of a normal subset of G.

        Raises NotNormal when a member lies outside G, and then when some
        generator's conjugation table maps a member outside the set.  A set
        closed under conjugation by G's generators is closed under
        conjugation by all of G, so for a subgroup this decides normality.
        """
        members = self._indices(subset)
        for table in self.conjugation_tables():
            if any(table[i] not in members for i in members):
                raise NotNormal("subset is not closed under conjugation in the group")
        return members

    def normal_subgroup_indices(self, H: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> frozenset[int]:
        """The index set of a normal subgroup H of G, memoised by H's generator indices.

        The first call for H's generators runs ``normal_indices`` on H's
        elements.  Only successes are kept, so a subgroup that is not normal
        in G raises the same NotNormal on every call.
        """
        key = frozenset(self.index.get(h.images) for h in H.generators)
        members = self._normal.get(key)
        if members is None:
            members = frozenset(self.normal_indices(H.elements(cap)))
            self._normal[key] = members
        return members

    def _indices(self, subset: Iterable[Permutation]) -> set[int]:
        members = {self.index.get(x.images) for x in subset}
        if None in members:
            raise NotNormal("subset is not contained in the group")
        return members

    def normalizing(self, subgroups: Iterable[PermGroup], domain: Iterable[int] | None = None,
                    cap: int = DEFAULT_ENUM_CAP) -> Iterator[int]:
        """The g in domain (default all of G, in index order) that normalize every subgroup.

        g is kept when h^g lies in H for every generator h of every subgroup
        H: one conjugation lookup per pair, against H's index set.
        """
        tests = []
        for H in subgroups:
            members = self.member_indices(H, cap)
            tests += [(self.conjugates(self.index[h.images]), members) for h in H.generators]
        return (g for g in (range(self.size) if domain is None else domain)
                if all(conj[g] in members for conj, members in tests))

    def _generator_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per generator s of G, the tables of i -> i*s and of i -> i^s."""
        if self._gen_tables is None:
            gens = [self.index[s.images] for s in self.group.generators]
            times = [self.times(s) for s in gens]
            # x^s = s^-1 * (x*s), read off the row of s^-1
            rows = [self.row(self.inverse[s]) for s in gens]
            self._gen_tables = (times, [[row[y] for y in t] for row, t in zip(rows, times)])
        return self._gen_tables

    def _spanning_tree(self) -> list[tuple[int, int, int]]:
        """Breadth-first tree of G from the identity: ``(b, parent, j)`` with b = parent * generators[j]."""
        if self._tree is None:
            times = self._generator_tables()[0]
            seen = [False] * self.size
            seen[self.identity_index] = True
            tree = []
            order = [self.identity_index]
            for parent in order:  # grows while it is walked: a breadth-first queue
                for j, times_s in enumerate(times):
                    b = times_s[parent]
                    if not seen[b]:
                        seen[b] = True
                        tree.append((b, parent, j))
                        order.append(b)
            self._tree = tree
        return self._tree

    def perms(self, indices: Iterable[int]) -> list[Permutation]:
        return [self.elements[i] for i in indices]


def _orbit_labels(size: int, maps: list[list[int]]) -> tuple[list[int], list[int]]:
    """``(labels, reps)`` of the orbits of 0..size-1 under the given index maps.

    Orbits are numbered in order of their minimal members; ``reps[c]`` is the
    minimal member of orbit c.
    """
    labels = [-1] * size
    reps: list[int] = []
    for g in range(size):
        if labels[g] >= 0:
            continue
        labels[g] = len(reps)
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for m in maps:
                y = m[x]
                if labels[y] < 0:
                    labels[y] = len(reps)
                    frontier.append(y)
        reps.append(g)
    return labels, reps


def indexed_view(G: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> IndexedGroup:
    """Cached indexed view of G; raises OrderCapExceeded when G is too big."""
    n = G.order()
    if n > cap:
        raise OrderCapExceeded(n, cap)
    return G.memo(("indexed",), lambda: IndexedGroup(G, cap))
