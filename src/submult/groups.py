"""Generic finite-group kernel on canonically indexed elements.

A ``FiniteGroup`` is a closed element list, an identity index and, for
each generator index g, the right-multiplication permutation x -> x*g on
indices.  Carriers are opaque to it: monomial matrices, affine pairs,
index tuples (direct products) or parent indices (quotients) all work;
the group only describes them through ``describe``.

Every builder hands over those permutations.  ``close`` records them while
closing, on integer codes that sort as the elements' keys where the carrier
offers a codec (``MonomialCodec``, ``AffineCodec``), and its group decodes
elements on first read, ``describe`` one element; quotients and direct
products read them off their parents' products and keep plain elements.

Products come from the permutations alone, along a breadth-first spanning
tree from the identity on which each element y is x*g for its parent x and
a generator g (a Schreier vector; Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 4); no carrier is multiplied.  One row
store holds every product the group keeps: ``row`` gathers row x -> x*j
whole from its tree parent's, ``mul`` reads it, and a generated subgroup
grows one left coset at a time, each one gather of a row.  The pair scans
of (S), p-abelianness, order divisibility and regularity read the rows of
class representatives, the conjugacy classes walked once and cached, and
of their p-th powers; ``full_table`` completes the store into the whole
table for the deciders that multiply arbitrary pairs: the subgroup
lattice, the section scans and the Engel scan, which runs only on a group
of nilpotency class above its depth.  Power maps are built whole,
composed where the exponent factors and otherwise one product per element
that walks the tree path of its right factor; inverses and element orders
follow the tree too, and conjugation by s is three gathers through row s
and the inverses.  So element orders, the Omega/agemo levels, generated
subgroups, the lower central series and the center, which ``analyze``,
wp2 and the whole-group p1/p2 probe ask, need no n**2 table; the series
is walked once per group, and the class and [G, G] read that walk.  A
group's size, and so its table's, is bounded by the cap its builder used.
``p_abelian``, whether x -> x**p is an endomorphism, is decided on the
generators alone: a few gathers of the p-th power map through each
generator's permutation and along the tree path of its p-th power.

The subgroup lattice of a p-group runs on integer indices over the table:
each subgroup of order p**(i+1) is one of order p**i extended by a single
element (cyclic extension), and records as a bitmask the positions of its
own subgroups in the lattice; the normal subgroups are its G-normal
members.  Sections H/K are pairs of its subgroups: ``sections`` yields
each H with a mask of the K normal in it, read off H's bitmask in the
same lattice, built once per scan.  A section scan builds no group for a
section, probes G/1 before it asks for the lattice, and counts the
sections it does not probe off the masks.

Determinism contract: ``close`` orders elements by breadth-first layer and
then by canonical key, so element indices are reproducible across runs and
platforms; every witness in a report cites indices plus serialized
elements.  Groups are immutable once built and all queries are pure.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

DEFAULT_CLOSURE_CAP = 4096
DEFAULT_SECTION_CAP = 256
# a subgroup lattice built under an order cap N stops past this many times
# N subgroups (``FiniteGroup.all_subgroups``)
SUBGROUPS_PER_ORDER = 128


class ClosureCapExceeded(RuntimeError):
    """Raised when a closure grows past its cap; carries the partial size."""

    def __init__(self, partial_size: int, cap: int, what: str = "elements"):
        super().__init__(
            f"closure exceeded cap {cap} (at least {partial_size} {what})")
        self.partial_size = partial_size
        self.cap = cap


def least_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2."""
    p = 2
    while p * p <= n and n % p:
        p += 1
    return p if n % p == 0 else n


def is_prime(n: int) -> bool:
    return n > 1 and least_prime_factor(n) == n


def prime_power_base(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n = p**e, or None if n is not a prime power."""
    if n < 2:
        return None
    p = least_prime_factor(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


class FiniteGroup:
    """Closed, canonically indexed finite group."""

    def __init__(self, elements: list, right: dict[int, list[int]],
                 identity: int, *, describe: Callable[[Any], Any],
                 gens: tuple[int, ...], name: str = ""):
        self.codes = list(elements)  # the elements, or close's codes
        self.codec = None  # set by close: then codes decode to the elements
        self._right = right  # generator index -> the list x -> x*g
        self.identity = identity
        self._describe = describe
        self.gens = tuple(gens)
        self.name = name
        # the row store, x -> row x or None until gathered, made by ``row``;
        # ``full_table`` completes it and keeps it as ``_table``
        self._rows: list[list[int] | None] | None = None
        self._table: list[list[int]] | None = None
        self._left_gathers: dict[int, Callable] = {}  # g -> read a row through row g
        self._inv: list[int] | None = None  # built by inverses
        self._pow_cache: dict[int, Sequence[int]] = {}

    # -- basics ---------------------------------------------------------------

    @functools.cached_property
    def elements(self) -> list:
        """The carrier elements, decoded from the codes on first read."""
        return self.codes if self.codec is None else list(map(self.codec.decode, self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def describe(self, i: int) -> Any:
        x = self.codes[i]
        return self._describe(x if self.codec is None else self.codec.decode(x))

    # -- the spanning tree ------------------------------------------------------

    @functools.cached_property
    def _steps(self) -> list[tuple[int, int, int]]:
        """The breadth-first spanning tree from the identity, as steps
        (y, x, g) in BFS order: y = x*g for its parent x and a generator g
        (a Schreier vector; Holt, Eick and O'Brien, Handbook of
        Computational Group Theory, ch. 4).  Raises ValueError when the
        generators reach fewer than all elements."""
        n, right = len(self), list(self._right.items())
        steps: list[tuple[int, int, int]] = []
        seen = [False] * n
        seen[self.identity] = True
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g, perm in right:
                    y = perm[x]
                    if not seen[y]:
                        seen[y] = True
                        steps.append((y, x, g))
                        nxt.append(y)
            frontier = nxt
        if len(steps) + 1 != n:
            raise ValueError(f"generators of {self.name or 'group'} reach only "
                             f"{len(steps) + 1} of {n} elements")
        return steps

    @functools.cached_property
    def _parent(self) -> list[tuple[int, int]]:
        """y -> (x, g) with y = x*g on the tree; the identity maps to
        (identity, identity)."""
        parent = [(self.identity, self.identity)] * len(self)
        for y, x, g in self._steps:
            parent[y] = (x, g)
        return parent

    @functools.cached_property
    def _paths(self) -> list[tuple[list[int], ...]]:
        """y -> the right-multiplication permutations along its tree path,
        y = 1*g1*...*gk, so v*y is v read through each of them in turn."""
        paths: list[tuple[list[int], ...]] = [()] * len(self)
        for y, x, g in self._steps:
            paths[y] = paths[x] + (self._right[g],)
        return paths

    def _row(self, w: int) -> list[int]:
        """The row j -> w*j, filled along the tree: w*(x*g) = (w*x)*g."""
        row = [0] * len(self)
        row[self.identity] = w
        right = self._right
        for y, x, g in self._steps:
            row[y] = right[g][row[x]]
        return row

    def _products(self, left: Sequence[int], right: Sequence[int]) -> list[int]:
        """x -> left[x] * right[x], each product walking right[x]'s tree path."""
        paths, out = self._paths, []
        for v, u in zip(left, right):
            for perm in paths[u]:
                v = perm[v]
            out.append(v)
        return out

    # -- products -----------------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        """i*j, read from row i of the row store (``row``)."""
        return self.row(i)[j]

    def inv(self, i: int) -> int:
        return (self._inv or self.inverses())[i]

    def inverses(self) -> list[int]:
        """x -> x**-1 for every element, along the tree: (x*g)**-1 is
        g**-1 * x**-1, read from the row of g**-1."""
        if self._inv is None:
            identity = self.identity
            left = {g: self._row(perm.index(identity)) for g, perm in self._right.items()}
            inv = [identity] * len(self)
            for y, x, g in self._steps:
                inv[y] = left[g][inv[x]]
            self._inv = inv
        return self._inv

    def row(self, x: int) -> list[int]:
        """Row x of the Cayley table, j -> x*j, kept in the row store.

        The store starts with the identity row and each generator's row,
        filled along the tree (``_row``).  A missing row y = x*g on the tree
        is gathered whole, since y*j = x*(g*j): row x read through row g, in
        one ``itemgetter`` call, after row x itself when that is missing
        too.  So a decider that reads only the rows of class representatives
        pays for those rows and their tree ancestors, not for n**2 entries.
        """
        rows, pending = self._rows or self._seed_rows(), []
        while rows[x] is None:
            pending.append(x)
            x = self._parent[x][0]
        row = rows[x]
        for y in reversed(pending):
            row = rows[y] = list(self._left_gathers[self._parent[y][1]](row))
        return row

    def _seed_rows(self) -> list[list[int] | None]:
        """The row store with the identity's and the generators' rows, and
        for each generator g the gather that reads a row through row g."""
        rows: list[list[int] | None] = [None] * len(self)
        for g in self._right:
            rows[g] = self._row(g)
        rows[self.identity] = list(range(len(self)))  # a list: a range reads slower
        self._left_gathers = {g: operator.itemgetter(*rows[g]) for g in self._right}
        self._rows = rows
        return rows

    def full_table(self) -> list[list[int]]:
        """The whole Cayley table: row i holds the index of i*j at position
        j.  Built on first call and cached.  Only the deciders that multiply
        arbitrary pairs ask for it: the subgroup lattice, the section scans
        and the Engel scan of a group whose class exceeds the depth; ``row``
        serves ``mul``, conjugation and the other pair scans, and powers and
        inverses walk the spanning tree.

        The table rests on the right-multiplication permutations x -> x*g
        that the group's builder handed over; no carrier is multiplied.  It
        completes the row store of ``row`` in breadth-first order, each
        missing row gathered whole from its tree parent's, and keeps the
        rows already gathered.
        """
        if self._table is None:
            rows = self._rows or self._seed_rows()
            gathers = self._left_gathers
            for y, x, g in self._steps:
                if rows[y] is None:
                    rows[y] = list(gathers[g](rows[x]))
            self._table = rows
        return self._table

    def _conjugation(self, s: int) -> Sequence[int]:
        """x -> s x s**-1, uncached: s x s**-1 = (s (s x)**-1)**-1, so three
        gathers through row s and the inverses.  Its fixed points, orbits
        and invariant subgroups are those of conjugation by s**-1."""
        row, inv = self.row(s), self.inverses()
        return _gather(inv, _gather(row, _gather(inv, row)))

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x**-1 (y**-1 (x y)): the left factors, whose rows are
        read, are only x**-1, y**-1 and x."""
        return self.mul(self.inv(x), self.mul(self.inv(y), self.mul(x, y)))

    def power_map(self, m: int) -> Sequence[int]:
        """x -> x**m for every element, cached.

        m is read modulo |G|, since x**|G| = 1, so x**-1 = x**(|G|-1).  A
        composite m composes the maps of its least prime factor q and of
        m/q, x**m = (x**q)**(m/q); for a prime m, x**(m-1) (composed, or x
        itself for m = 2) is multiplied by x, each product walking x's tree
        path (``_products``).
        """
        cached = self._pow_cache.get(m)
        if cached is None:
            n = len(self)
            if not 0 <= m < n:
                cached = self.power_map(m % n)
            elif m <= 1:
                cached = range(n) if m else [self.identity] * n
            elif (q := least_prime_factor(m)) < m:
                cached = _gather(self.power_map(m // q), self.power_map(q))
            else:
                cached = self._products(self.power_map(m - 1), range(n))
            self._pow_cache[m] = cached
        return cached

    @functools.cached_property
    def _orders(self) -> list[int]:
        """Element orders read off prime-power maps.  For each prime q with
        q**e exactly dividing |G|, x**(|G|/q**e) has order the q-part of x's
        order, which x -> x**q reaches the identity from in that many steps."""
        n, identity = len(self), self.identity
        orders, rest = [1] * n, n
        while rest > 1:
            q, part = least_prime_factor(rest), 1
            while rest % q == 0:
                rest, part = rest // q, part * q
            step = self.power_map(q)
            for x, y in enumerate(self.power_map(n // part)):
                while y != identity:
                    y = step[y]
                    orders[x] *= q
        return orders

    def element_order(self, i: int) -> int:
        return self._orders[i]

    def exponent(self) -> int:
        return math.lcm(*self._orders)

    def p_group_base(self) -> tuple[int, int]:
        """(p, e) with |G| = p**e; raises for non-p-groups.  The trivial
        group is a p-group for every prime and reports the least, (2, 0)."""
        return self._p_base

    @functools.cached_property
    def _p_base(self) -> tuple[int, int]:
        if len(self) == 1:
            return 2, 0
        base = prime_power_base(len(self))
        if base is None:
            raise ValueError(f"group of order {len(self)} is not a p-group")
        return base

    @functools.cached_property
    def p_abelian(self) -> bool:
        """x -> x**p is an endomorphism of the p-group: (xy)**p = x**p y**p
        for all x and y.  Raises for non-p-groups.

        Checked on the generators only: (x s)**p = x**p s**p for every x and
        each generator s extends to every y = s1*...*sk, since (x y s)**p =
        (x y)**p s**p = x**p y**p s**p = x**p (y s)**p.  The left side is the
        p-th power map read through s's permutation; the right side is that
        map multiplied on the right by s**p, one gather per permutation on
        the tree path of s**p.  No pair is scanned."""
        p, _ = self.p_group_base()
        pw = self.power_map(p)
        for s, perm in self._right.items():
            image = pw
            for step in self._paths[pw[s]]:
                image = _gather(step, image)
            if any(map(operator.ne, _gather(pw, perm), image)):
                return False
        return True

    # -- subgroup machinery -----------------------------------------------------

    def _adjoin(self, members: list[int], member_set: set[int],
                gens: list[int], g: int) -> None:
        """Grow the closed subgroup ``members``, generated by ``gens``, to
        <members, g> in place, one left coset r*H at a time (Dimino; Butler,
        Fundamental Algorithms for Permutation Groups, 1991).

        The old subgroup H is a block: a new coset is found as a product s*r
        of a generator and a coset representative that lands outside H's
        cosets so far, and is then added whole as (s*r)*H = s*(r*H), read
        from the row of s.  H itself is never closed again.
        """
        gens.append(g)
        rows = [self.row(s) for s in gens]
        reps, cosets = [g], [_gather(rows[-1], members)]
        members.extend(cosets[0])
        member_set.update(cosets[0])
        for r, coset in zip(reps, cosets):  # both grow while walked
            for row in rows:
                t = row[r]
                if t not in member_set:
                    new = _gather(row, coset)
                    members.extend(new)
                    member_set.update(new)
                    reps.append(t)
                    cosets.append(new)

    def _grow(self, sub: "Subgroup", seeds: Sequence[int]) -> "Subgroup":
        """<sub, seeds>, adjoining in order each seed not already inside;
        ``sub.gens`` must generate ``sub``.  The generator set is
        ``sub.gens`` plus the seeds that added something."""
        members, member_set = list(sub.members), set(sub.members)
        gens = list(sub.gens)
        for s in seeds:
            if s not in member_set:
                self._adjoin(members, member_set, gens, s)
        if len(gens) == len(sub.gens):
            return sub
        return Subgroup(self, tuple(sorted(members)), tuple(gens))

    def subgroup(self, seed_indices: Sequence[int]) -> "Subgroup":
        """Subgroup generated by the seeds, with a greedy reduced generator set."""
        return self._grow(self.trivial_subgroup(), seed_indices)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (self.identity,), ())

    def whole_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(len(self))), self.gens)

    def normal_closure(self, seeds: Sequence[int],
                       ambient_gens: Sequence[int]) -> "Subgroup":
        """Smallest subgroup containing the seeds that is normalized by the
        ambient generators."""
        maps = [self._conjugation(g) for g in dict.fromkeys(ambient_gens)]
        sub = self.subgroup(seeds)
        while True:
            conjugates = (conj[k] for k in sub.members for conj in maps)
            new = [c for c in conjugates if c not in sub.member_set]
            if not new:
                return sub
            sub = self._grow(sub, new)

    def commutator_subgroup(self, a: "Subgroup", b: "Subgroup") -> "Subgroup":
        """[A, B], the subgroup generated by all commutators [x, y] with
        x in A, y in B.

        Computed as the normal closure, under the generators of A and B, of
        the commutators of the reduced generator sets.
        """
        if a.parent is not self or b.parent is not self:
            raise ValueError("subgroups belong to a different parent")
        a_gens, b_gens = a.reduced_gens(), b.reduced_gens()
        seeds = sorted({self.commutator(x, y) for x in a_gens for y in b_gens})
        return self.normal_closure(seeds, a_gens + b_gens)

    @functools.cached_property
    def _lower_central(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(members, gens) of G, [G,G], ..., walked once, up to the first
        trivial term or the term a non-nilpotent G's series stalls at.
        Tuples, since a cached Subgroup would hold G in a reference cycle."""
        whole = term = self.whole_subgroup()
        series = [(whole.members, whole.gens)]
        while len(term) > 1:
            nxt = self.commutator_subgroup(term, whole)
            if len(nxt) == len(term):
                break
            term = nxt
            series.append((term.members, term.gens))
        return series

    def derived_subgroup(self) -> "Subgroup":
        """[G, G]: G itself where the walk stalls at once (G perfect)."""
        series = self._lower_central
        return Subgroup(self, *series[1 if len(series) > 1 else 0])

    def lower_central_series(self) -> list["Subgroup"]:
        """[G, [G,G], [[G,G],G], ...] down to the trivial subgroup."""
        self.nilpotency_class()  # raises where the series stalls
        return [Subgroup(self, *term) for term in self._lower_central]

    def nilpotency_class(self) -> int:
        series = self._lower_central
        if len(series[-1][0]) > 1:
            raise ValueError("lower central series stalled: group not nilpotent")
        return len(series) - 1

    def center(self) -> "Subgroup":
        """The elements that conjugation by every generator fixes."""
        maps = [self._conjugation(g) for g in dict.fromkeys(self.gens)]
        members = [z for z in range(len(self)) if all(conj[z] == z for conj in maps)]
        return Subgroup(self, tuple(members), ())

    def is_abelian(self) -> bool:
        """The generators commute, read off their permutations: no row."""
        return all(self._right[b][a] == self._right[a][b]
                   for a in self.gens for b in self.gens)

    def is_metabelian(self) -> bool:
        """G' is abelian: its generators commute pairwise."""
        gens = self.derived_subgroup().reduced_gens()
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    # -- power structure ---------------------------------------------------------

    def order_dividing_set(self, k: int) -> tuple[int, ...]:
        """Elements of order dividing p**k (sorted indices)."""
        p, _ = self.p_group_base()
        return tuple(i for i, y in enumerate(self.power_map(p ** k))
                     if y == self.identity)

    def power_image_set(self, k: int) -> tuple[int, ...]:
        """The set of p**k-th powers (sorted indices)."""
        p, _ = self.p_group_base()
        return tuple(sorted(set(self.power_map(p ** k))))

    def omega_subgroup(self, k: int) -> "Subgroup":
        """Subgroup generated by the elements of order dividing p**k."""
        return self.subgroup(self.order_dividing_set(k))

    def agemo_subgroup(self, k: int) -> "Subgroup":
        """Subgroup generated by the p**k-th powers."""
        return self.subgroup(self.power_image_set(k))

    # -- normal subgroups, quotients, sections -------------------------------------

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """The orbits of conjugation by the generators, by least member;
        walked once per group and cached, so the pair scans and the
        per-class spectra of (S) share one walk."""
        return self._classes

    @functools.cached_property
    def _classes(self) -> list[tuple[int, ...]]:
        maps = [self._conjugation(g) for g in dict.fromkeys(self.gens)]
        seen = [False] * len(self)
        classes = []
        for start in range(len(self)):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            for x in orbit:  # orbit grows while it is walked
                for conj in maps:
                    y = conj[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            classes.append(tuple(sorted(orbit)))
        return classes

    def all_subgroups(self, cap: int = DEFAULT_SECTION_CAP) -> list["Subgroup"]:
        """Every subgroup of a p-group, by order and then members, one order
        p**i at a time by cyclic extension (Holt, Eick and O'Brien, Handbook
        of Computational Group Theory, 2005).

        Each subgroup H > 1 is M<x> for an M of index p normal in H and any
        x in H outside M; x normalizes M and x**p is in M, and every such x
        gives an M<x> of order p|M|.  The candidates x are the p-th roots of
        M's members, in order; each x in H outside M gives H again, and an x
        that does not normalize M fails with x**-1 and with every product
        xs and x**-1 s for s in N_G(M), so with the first failure the left
        cosets of the part of N_G(M) seen so far are marked seen, each one
        gather of a row.  Each H is extended once, from the first M (in
        layer order) below it: before M's roots are scanned, the members of
        every H already grown that holds M's generators are marked seen.
        Those H are read off an index, element -> bits of the grown H
        holding it, as the AND over M's generators.  The scan of M stops
        once every element of G is seen.

        So every H of the next layer that contains M is met, either marked
        or grown from M, and each subgroup's ``below`` records containment:
        bit t is set when the subgroup at position t of the returned list
        lies in it, its own position included.  In a p-group every K < H
        lies in a chain of subgroups each of index p in the next, so the
        covers M < H, closed layer by layer, give every containment.

        Raises ``ClosureCapExceeded`` when |G| > cap, and once the lattice
        grows past ``SUBGROUPS_PER_ORDER * cap`` subgroups: C2**8, of order
        256, has 417,199, and their ``below`` masks alone would take 11 GB.
        """
        n = len(self)
        if n > cap:
            raise ClosureCapExceeded(n, cap)
        bound = SUBGROUPS_PER_ORDER * cap
        p, _ = self.p_group_base()
        rows, inv = self.full_table(), self.inverses()
        roots: list[list[int]] = [[] for _ in range(n)]  # y -> {x : x**p = y}
        for x, y in enumerate(self.power_map(p)):
            roots[y].append(x)
        layer = [Subgroup(self, (self.identity,), (), below=1)]
        found = list(layer)
        while layer:
            # the next layer's subgroups in the order grown: sorted members,
            # member set, gens, and the OR of the ``below`` of every M < H of
            # index p met so far; ``holding`` indexes them by member
            keys: list[tuple[int, ...]] = []
            sets: list[set[int]] = []
            gens: list[tuple[int, ...]] = []
            below: list[int] = []
            holding = [0] * n
            for m in layer:
                inside, block = m.member_set, m.members
                # row t -> the coset tM, then t again: a tuple even for |M| = 1
                coset = operator.itemgetter(*block, self.identity)
                seen = set(block)
                over = (1 << len(keys)) - 1
                for s in m.gens:
                    over &= holding[s]
                for t in _set_bits(over):
                    seen |= sets[t]
                    below[t] |= m.below
                normalizing = None  # row t -> tS, S the seen part of N_G(M)
                candidates = itertools.chain.from_iterable(map(roots.__getitem__, block))
                for x in candidates if len(seen) < n else ():
                    if x in seen:
                        continue
                    row_x_inv = rows[inv[x]]  # x**-1 h x for each generator h
                    if inside.issuperset([rows[row_x_inv[h]][x] for h in m.gens]):
                        members, power = set(block), x
                        while power not in inside:
                            members.update(coset(rows[power]))
                            power = rows[power][x]
                        seen |= members
                        bit = 1 << len(keys)
                        for e in members:
                            holding[e] |= bit
                        keys.append(tuple(sorted(members)))
                        sets.append(members)
                        gens.append(m.gens + (x,))
                        below.append(m.below)
                        if len(found) + len(keys) > bound:
                            raise ClosureCapExceeded(len(found) + len(keys), bound,
                                                     "subgroups")
                    else:
                        if normalizing is None:
                            normalizing = operator.itemgetter(*seen, self.identity)
                        seen.update(normalizing(rows[x]))
                        seen.update(normalizing(row_x_inv))
                    if len(seen) == n:  # nothing left to grow or mark
                        break
            order = sorted(range(len(keys)), key=keys.__getitem__)
            layer = [Subgroup(self, keys[i], gens[i], below[i] | 1 << t)
                     for t, i in enumerate(order, len(found))]
            found.extend(layer)
        return found

    def normal_subgroups(self, cap: int = DEFAULT_SECTION_CAP,
                         subgroups: list["Subgroup"] | None = None) -> list["Subgroup"]:
        """All normal subgroups of a p-group, by order, then members: the
        members of the whole lattice that conjugation by each generator of G
        maps into themselves.  The lattice is ``subgroups`` when the caller
        holds it already, else ``all_subgroups(cap)`` builds it."""
        subs = self.all_subgroups(cap) if subgroups is None else subgroups
        maps = [self._conjugation(g) for g in dict.fromkeys(self.gens)]
        return [s for s in subs
                if s.member_set.issuperset([conj[x] for conj in maps for x in s.gens])]

    def quotient(self, n: "Subgroup") -> "FiniteGroup":
        """G / N on minimal coset representatives; N must be normal."""
        if n.parent is not self:
            raise ValueError("subgroup belongs to a different parent")
        if not n.is_normal():
            raise ValueError("subgroup is not normal")
        rep_of = [-1] * len(self)
        for i in range(len(self)):
            if rep_of[i] >= 0:
                continue
            coset = sorted(self.mul(i, m) for m in n.members)
            rep = coset[0]
            for x in coset:
                rep_of[x] = rep
        reps = sorted(set(rep_of))
        pos = {r: t for t, r in enumerate(reps)}
        def q_describe(rep: int) -> Any:
            return {"coset_rep": self.describe(rep)}

        gens = tuple(dict.fromkeys(rep_of[g] for g in self.gens)) or (rep_of[self.identity],)
        right = {pos[g]: [pos[rep_of[self.mul(r, g)]] for r in reps] for g in gens}
        return FiniteGroup(reps, right, pos[rep_of[self.identity]],
                           describe=q_describe, gens=tuple(right),
                           name=f"{self.name}/N{len(n.members)}")

    def sections(self, section_cap: int = DEFAULT_SECTION_CAP) -> Iterator[
            tuple["Subgroup", int, list["Subgroup"]]]:
        """The sections H/K as (H, kernels, lattice), one item per subgroup
        H of G, largest first.  Requires |G| <= section_cap.

        lattice is ``all_subgroups``, built once, and kernels has bit t set
        when K = lattice[t] is normal in H, so the sections of H are H/K
        for its set bits, smallest K first.  The K in H are the set bits of
        ``H.below``, and K is normal in H when it is normal in G (a member
        of ``normal_subgroups``), when |H:K| <= p (a maximal subgroup of a
        p-group is normal), or else when k**h is in K for every generator k
        of K and h of H.  G's kernels leave out K = 1: a scan probes G/1
        before it asks for a lattice.  No section is built as a group;
        everything runs on G's indices and Cayley table.
        """
        subs = self.all_subgroups(section_cap)
        normal = self.normal_subgroups(section_cap, subs)
        p, _ = self.p_group_base()
        rows, inv = self.full_table(), self.inverses()
        normal_ids = set(map(id, normal))
        g_normal = sum(1 << t for t, s in enumerate(subs) if id(s) in normal_ids)
        orders = [len(s) for s in subs]  # ascending

        def normal_in(h: Subgroup, k: Subgroup) -> bool:
            return k.member_set.issuperset([rows[rows[inv[y]][x]][y]
                                            for x in k.gens for y in h.gens])

        for h in sorted(subs, key=lambda s: (-len(s.members), s.members)):
            # the K in H that are G-normal or have |K| >= |H|/p, so |H:K| <= p
            kernels = h.below & (g_normal | -(1 << bisect.bisect_left(orders, len(h) // p)))
            if len(h) == len(self):  # those are all; K = 1 is probed already
                kernels ^= 1
            else:
                kernels |= sum(1 << t for t in _set_bits(h.below ^ kernels)
                               if normal_in(h, subs[t]))
            yield h, kernels, subs


@dataclass(frozen=True)
class Subgroup:
    """Sorted member indices inside a parent group, plus a generator set.

    ``subgroup`` keeps each seed that enlarged the subgroup, in turn.  The
    lattice methods of a p-group give a polycyclic sequence, M.gens + (x,)
    of the cyclic extension: each prefix gens[:j] generates order p**j.
    A member of ``all_subgroups`` also records in ``below`` the positions
    of its own subgroups in that list, as set bits; elsewhere it is 0."""

    parent: FiniteGroup
    members: tuple[int, ...]
    gens: tuple[int, ...]
    below: int = field(default=0, repr=False, compare=False)
    _member_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_member_set", frozenset(self.members))

    @property
    def member_set(self) -> frozenset[int]:
        return self._member_set

    def __len__(self) -> int:
        return len(self.members)

    def is_normal(self) -> bool:
        maps = map(self.parent._conjugation, dict.fromkeys(self.parent.gens))
        return all(self._member_set.issuperset(map(conj.__getitem__, self.members))
                   for conj in maps)

    def reduced_gens(self) -> tuple[int, ...]:
        if self.gens:
            return self.gens
        return self.parent.subgroup(self.members).gens


def _set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _gather(values: Sequence[int], idx: Sequence[int]) -> Sequence[int]:
    """values[i] for each i in idx, in one C-level call for two or more."""
    return operator.itemgetter(*idx)(values) if len(idx) > 1 else [values[i] for i in idx]


class _CarrierCodec:
    """Each element is its own code, multiplied with ``*``, keyed by ``key()``."""

    encode = decode = staticmethod(lambda x: x)
    right = staticmethod(lambda g: lambda x: x * g)
    key = staticmethod(lambda x: x.key())


def close(generators: Sequence[Any], cap: int = DEFAULT_CLOSURE_CAP, *,
          name: str = "") -> FiniteGroup:
    """Breadth-first closure of carrier elements under multiplication.

    Element order is deterministic: identity first, then each BFS layer
    sorted by canonical key.  Raises ClosureCapExceeded past the cap.

    The loop multiplies codes: a carrier's ``closure_codec(gens, cap)``
    (``MonomialCodec``: ``(perm, ranks)``, unless M passes the cap;
    ``AffineCodec``: ``V*q + t``, refused when the order of the pairs'
    extension passes the cap), codes that sort as their keys (``codec.key``
    is None), else the carriers themselves, which must then hash as their
    keys.  The group keeps the
    codes and decodes ``elements`` on first read, so a decider that reads
    only indices and the table decodes nothing.  The index of x*g is recorded
    for every x and generator g, and these right-multiplication permutations
    go to the group: its ``full_table`` multiplies no carrier.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    if any(type(g) is not type(gens[0]) for g in gens):
        raise ValueError("incompatible generators: mixed carriers")
    codec = (gens[0].closure_codec(gens, cap) if hasattr(gens[0], "closure_codec")
             else None) or _CarrierCodec
    steps = [codec.right(codec.encode(g)) for g in gens]
    codes = [codec.encode(gens[0].identity_like())]
    index, layer = {codes[0]: 0}, list(codes)
    right: list[list[int]] = [[] for _ in gens]  # right[t][x]: x * gens[t]
    while layer:
        products = [step(x) for x in layer for step in steps]
        layer = sorted({y for y in products if y not in index}, key=codec.key)
        for y in layer:
            index[y] = len(codes)
            codes.append(y)
            if len(codes) > cap:
                raise ClosureCapExceeded(len(codes), cap)
        for t, perm in enumerate(right):
            perm.extend(map(index.__getitem__, products[t::len(gens)]))
    gen_index = tuple(index[codec.encode(g)] for g in gens)
    group = FiniteGroup(codes, dict(zip(gen_index, right)), 0,
                        describe=lambda e: e.to_json(), gens=gen_index, name=name)
    group.codec = codec
    return group


def direct_product(*factors: FiniteGroup, cap: int = DEFAULT_CLOSURE_CAP,
                   name: str = "") -> FiniteGroup:
    """Componentwise product on flat index tuples, elements in lexicographic
    order; the generators are each factor's, in factor order.

    Index x of tuple e is the sum of e[t] * stride_t, so a generator h of
    factor t moves x to x + (e[t]*h - e[t]) * stride_t, read off h's
    permutation in f_t."""
    sizes = [len(f) for f in factors]
    order = math.prod(sizes)
    if order > cap:
        raise ClosureCapExceeded(order, cap)
    elements = list(itertools.product(*map(range, sizes)))
    strides = [math.prod(sizes[t + 1:]) for t in range(len(factors))]
    identity = sum(f.identity * stride for f, stride in zip(factors, strides))
    gens, right = [], {}
    for t, (f, stride) in enumerate(zip(factors, strides)):
        for h in f.gens:
            x = identity + (h - f.identity) * stride
            gens.append(x)
            if x not in right:
                shift = [(y - i) * stride for i, y in enumerate(f._right[h])]
                right[x] = [y + shift[e[t]] for y, e in enumerate(elements)]

    def describe(e: tuple[int, ...]) -> Any:
        return {"tuple": [f.describe(i) for f, i in zip(factors, e)]}

    return FiniteGroup(elements, right, identity, describe=describe,
                       gens=tuple(gens),
                       name=name or "x".join(f"({f.name})" for f in factors))


def direct_power(g: FiniteGroup, m: int, cap: int = DEFAULT_CLOSURE_CAP, *,
                 name: str = "") -> FiniteGroup:
    """The m-fold direct product of g with itself."""
    if m < 1:
        raise ValueError("power must be >= 1")
    return direct_product(*[g] * m, cap=cap, name=name or f"({g.name})^{m}")
