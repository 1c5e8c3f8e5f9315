"""Index-based multiplication view of an enumerated group.

Pair-enumeration loops dominate the runtime of every check, and doing them
on Permutations wastes time re-hashing them.  This view numbers the elements
in canonical order and multiplies them on their image bytes: a product is
one ``bytes.translate`` and one lookup in ``index``, a dict keyed by images.
It is built from bytes alone: G's chain enumerates the image bytes, which
are sorted, and their pads are formed in one pass (``pad_tables``).  No
Permutation is made per element: ``element(i)`` wraps one on demand, for
subgroup generators and witnesses.  The inverse list is filled on first
use, by the few scans that read it.

Conjugation runs on per-generator tables.  For each generator
s of G the view keeps x -> x*s and x -> x^s, and a breadth-first spanning
tree of G in which every element is b = parent*s, so r^b = (r^parent)^s and
all conjugates of one element come out of a single pass of table lookups.
The tables also give the conjugacy classes, numbered by minimal element,
and their member lists, built once per view.  Building them costs 2 |G|
products per generator, against |G|^2 for the full multiplication table.
Element order is constant on a class, so ``order_of`` is filled on first
use from one ``image_order`` per class representative.

Subgroups and normal subsets of G are index sets on the view: one routine,
Dimino's coset algorithm, closes subgroups of G and of a quotient G/N on
coset labels (G's are its indices) and forms each member once, and a subset
is normal when every generator's conjugation table maps it into itself.  The
right coset labels of a subgroup are kept per index set.  The index set of
a PermGroup H is kept in one dict, keyed by the indices of its generators:
they are looked up first, once per H object, so an H outside G fails before
it is enumerated, and an H inside G has |H| <= |G|.  A subgroup the view
builds is a PermGroup of known order, with no chain, and its index set is
kept at once; any other H is enumerated once, from its chain's image bytes.
The enumeration cap is checked once per group, when G's view is built; no
other code enumerates a group's elements.
"""

from __future__ import annotations

from functools import cached_property
from typing import Collection, Iterable, Iterator
from weakref import WeakKeyDictionary

from .errors import NotNormal, OrderCapExceeded
from .group import DEFAULT_ENUM_CAP, PermGroup, group_of_order
from .perm import Permutation, image_order, inverse_table, pad_tables, wrap_images


class IndexedGroup:
    """Canonical numbering of a group's elements, multiplied on their image bytes."""

    def __init__(self, group: PermGroup, cap: int = DEFAULT_ENUM_CAP):
        n = group.order()
        if n > cap:
            raise OrderCapExceeded(n, cap)
        images = sorted(group.chain().elements())
        self.group = group
        self.size = n
        self.images: list[bytes] = images
        self.pads: list[bytes] = pad_tables(images, group.degree)
        # keyed by images: look a Permutation p up as index[p.images]
        self.index: dict[bytes, int] = dict(zip(images, range(n)))
        # each element is its own coset of the trivial subgroup, for ``_dimino``;
        # a list of index's own ints, not a range, which is slower to index
        self._own_labels: list[int] = list(self.index.values())
        # keyed by a subgroup's generator indices (``_generator_key``), which
        # are kept per subgroup object for as long as it lives
        self._generator_keys: WeakKeyDictionary[PermGroup, frozenset[int]] = WeakKeyDictionary()
        self._subgroups: dict[frozenset[int], frozenset[int]] = {}
        # per kernel: its coset (labels, reps), and the reps' images and pads
        self._cosets: dict[frozenset[int], tuple] = {}
        self._gen_tables: tuple[list[list[int]], list[list[int]]] | None = None
        self._tree: list[tuple[int, int, int]] | None = None
        self._classes: tuple[list[int], list[int]] | None = None
        self._class_members: list[list[int]] | None = None
        # the identity is the lexicographic minimum of any permutation set
        assert images[0] == bytes(range(group.degree))
        self.identity_index = 0

    @cached_property
    def inverse(self) -> list[int]:
        """``inverse[i]`` is the index of elements[i]^-1, filled on first use."""
        key, n = self.index, self.group.degree
        return [key[inverse_table(b)[:n]] for b in self.images]

    def times(self, s: int) -> list[int]:
        """``out[z]`` is the index of elements[z] * elements[s], for every z: one column of the table."""
        t, key = self.pads[s], self.index
        return [key[z.translate(t)] for z in self.images]

    def comm(self, i: int, j: int) -> int:
        """index of [elements[i], elements[j]] = i^-1 j^-1 i j, from image bytes."""
        inv, pads = self.inverse, self.pads
        images = self.images[inv[i]].translate(pads[inv[j]]).translate(pads[i]).translate(pads[j])
        return self.index[images]

    def conj(self, i: int, j: int) -> int:
        """index of elements[i]^elements[j] = j^-1 i j, from image bytes."""
        pads = self.pads
        return self.index[self.images[self.inverse[j]].translate(pads[i]).translate(pads[j])]

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup closure of the seed indices."""
        return frozenset(self._close(seed)[0])

    def subgroup(self, seed: Iterable[int]) -> PermGroup:
        """The subgroup of the seeds, on the generators ``subgroup_generated`` keeps; no chain."""
        members, kept = self._close(seed)
        return self.known_subgroup(frozenset(members), kept)

    def known_subgroup(self, members: frozenset[int], generators: list[int]) -> PermGroup:
        """The subgroup with index set members, which the generators generate; no chain.

        The caller vouches for both.  The group has a known order and no
        chain, and members is kept as its index set, under the key of its
        generators, so ``member_indices`` reads it back; a set already kept
        under that key is kept, not replaced.
        """
        gens = generators or [self.identity_index]
        H = group_of_order(self.group.degree, self.perms(gens), len(members))
        self._generator_keys[H] = key = frozenset(gens)
        self._subgroups.setdefault(key, members)
        return H

    def _close(self, seed: Iterable[int]) -> tuple[set[int], list[int]]:
        """``(members, kept)``: the closure of the seeds and the seeds kept for it.

        ``_dimino`` on G as its quotient by the trivial subgroup, whose
        labels are the indices themselves.
        """
        return _dimino(seed, self.index, self.images, self.pads, self._own_labels)

    def coset_closure(self, kernel: frozenset[int], seed: Iterable[int]) -> set[int]:
        """The subgroup of G/N generated by the seed cosets, as coset labels of N = kernel.

        ``_dimino`` on the quotient: a coset is multiplied on its minimal
        element's image bytes, c*d = labels[reps[c] * reps[d]], one translate
        and two lookups, so the closure forms |N| times fewer products than
        closing the preimage <N, reps> in G.  Coset 0 is N.
        """
        (labels, _), rep_images, rep_pads = self._coset_entry(kernel)
        return _dimino(seed, self.index, rep_images, rep_pads, labels)[0]

    def coset_labels(self, kernel: frozenset[int]) -> tuple[list[int], list[int]]:
        """``(labels, reps)`` of the right cosets N*g, numbered by their minimal elements.

        ``kernel`` must be a subgroup N's index set; labels are kept per set.
        ``labels[i]`` is the coset of element i, ``reps[c]`` the index of the
        minimal element of coset c.  G is walked in index order, and each g
        not yet labelled is the minimum of N*g, formed from N's image bytes.
        """
        return self._coset_entry(kernel)[0]

    def _coset_entry(self, kernel: frozenset[int]):
        """``((labels, reps), rep_images, rep_pads)`` of N = kernel, built once per set."""
        if kernel not in self._cosets:
            key, images, pads = self.index, self.images, self.pads
            kernel_images = [images[n] for n in kernel]
            labels, reps = [-1] * self.size, []
            for g in range(self.size):
                if labels[g] < 0:
                    for b in kernel_images:
                        labels[key[b.translate(pads[g])]] = len(reps)
                    reps.append(g)
            self._cosets[kernel] = ((labels, reps), [images[r] for r in reps],
                                    [pads[r] for r in reps])
        return self._cosets[kernel]

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
        """The conjugacy classes as increasing index lists, numbered as in class_labels.

        Built once per view and shared by every caller, which must not mutate them.
        """
        if self._class_members is None:
            labels, reps = self.class_labels()
            members: list[list[int]] = [[] for _ in reps]
            for i, c in enumerate(labels):
                members[c].append(i)
            self._class_members = members
        return self._class_members

    @cached_property
    def order_of(self) -> list[int]:
        """``order_of[i]`` is the order of elements[i]: one ``image_order`` per conjugacy class."""
        labels, reps = self.class_labels()
        orders = [image_order(self.images[r]) for r in reps]
        return [orders[c] for c in labels]

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

    def _generator_key(self, H: PermGroup) -> frozenset[int]:
        """The indices of H's generators, looked up once per H; NotNormal if one lies outside G."""
        key = self._generator_keys.get(H)
        if key is None:
            key = frozenset(self.index.get(h.images) for h in H.generators)
            if None in key:
                raise NotNormal("subgroup is not contained in the group")
            self._generator_keys[H] = key
        return key

    def member_indices(self, H: PermGroup) -> frozenset[int]:
        """The index set of a subgroup H of G, kept per generator key; H <= G is checked first.

        A subgroup the view built has its set kept already; any other is
        enumerated once, from its chain's image bytes.
        """
        key = self._generator_key(H)
        if key not in self._subgroups:
            self._subgroups[key] = frozenset(map(self.index.__getitem__, H.chain().elements()))
        return self._subgroups[key]

    def are_indices(self, members: Iterable[object]) -> bool:
        """Whether every member is an int in range(size).

        A negative int would index from the end, and a bool is no index
        although True == 1.
        """
        return all(type(x) is int and 0 <= x < self.size for x in members)

    def require_normal(self, seeds: Collection[int], members: Collection[int]) -> None:
        """NotNormal unless every generator's conjugation table maps each seed into members."""
        for table in self.conjugation_tables():
            if any(table[i] not in members for i in seeds):
                raise NotNormal("subset is not closed under conjugation in the group")

    def normalizing(self, subgroups: Iterable[PermGroup],
                    domain: Iterable[int] | None = None) -> Iterator[int]:
        """The g in domain (default all of G, in index order) that normalize every subgroup.

        g is kept when h^g lies in H for every generator h of every subgroup
        H: one conjugation lookup per pair, against H's index set.
        """
        tests = []
        for H in subgroups:
            members = self.member_indices(H)
            tests += [(self.conjugates(self.index[h.images]), members) for h in H.generators]
        return (g for g in (range(self.size) if domain is None else domain)
                if all(conj[g] in members for conj, members in tests))

    def _generator_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per generator s of G, the tables of i -> i*s and of i -> i^s."""
        if self._gen_tables is None:
            gens = [self.index[s.images] for s in self.group.generators]
            times = [self.times(s) for s in gens]
            key, pads, conj = self.index, self.pads, []
            for s, times_s in zip(gens, times):
                # x^s = s^-1 * (x*s), from the column of s
                inv_s = inverse_table(self.images[s])[:self.group.degree]
                conj.append([key[inv_s.translate(pads[y])] for y in times_s])
            self._gen_tables = (times, conj)
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

    def element(self, i: int) -> Permutation:
        """elements[i] as a Permutation, wrapped anew on each call: for generators and witnesses."""
        return wrap_images(self.images[i], self.pads[i])

    def perms(self, indices: Iterable[int]) -> list[Permutation]:
        return [self.element(i) for i in indices]


def _dimino(seed: Iterable[int], key: dict[bytes, int], images: list[bytes],
            pads: list[bytes], labels: list[int]) -> tuple[set[int], list[int]]:
    """``(members, kept)``: the closure of the seed labels in a quotient of G, and the seeds kept.

    Label c is a coset, multiplied on ``images[c]`` and ``pads[c]``, those of
    one of its elements; the element of G with image bytes b lies in coset
    ``labels[key[b]]``, and label 0 is the identity's.  Dimino's algorithm:
    seeds are walked in order and one is kept only when the group H closed
    so far lacks it.  The first kept seed's group is its powers; after that
    H grows by whole right cosets H*t, formed from H's image bytes, for
    t = r*s over coset representatives r and kept seeds s, so each member is
    formed once.
    """
    members, kept = [0], []
    seen = set(members)
    for s in seed:
        if s in seen:
            continue
        kept.append(s)
        if len(kept) == 1:
            p = images[s]
            while (i := labels[key[p]]) not in seen:
                members.append(i)
                seen.add(i)
                p = p.translate(pads[s])
            continue
        old, reps = [images[h] for h in members], [0]
        for r in reps:  # grows while it is walked
            for g in kept:
                t = labels[key[images[r].translate(pads[g])]]
                if t not in seen:
                    members += (coset := [labels[key[b.translate(pads[t])]] for b in old])
                    seen.update(coset)
                    reps.append(t)
    return seen, kept


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


def indexed_view(G: PermGroup, cap: int | None = None) -> IndexedGroup:
    """G's indexed view, built once and kept on G.

    An explicit cap raises OrderCapExceeded whenever |G| > cap, even once the
    view is kept; with none, the kept view is returned, or one is built under
    DEFAULT_ENUM_CAP.
    """
    if cap is not None and G.order() > cap:
        raise OrderCapExceeded(G.order(), cap)
    return G.memo(("indexed",), lambda: IndexedGroup(G, DEFAULT_ENUM_CAP if cap is None else cap))
