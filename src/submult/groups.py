"""Generic finite-group kernel on canonically indexed element tables.

A ``FiniteGroup`` owns a closed element list plus multiplication and
inverse oracles on indices.  Carriers are opaque: monomial matrices,
affine pairs, index tuples (direct products) or coset representatives
(quotients) all work, as long as elements expose ``__mul__``,
``identity_like``/explicit identity, a hashable ``key()`` and a JSON form.

Two multiplication paths share one row cache.  ``mul`` is the lazy path:
it fills a single entry with one carrier product.  ``full_table`` builds
the whole Cayley table from |gens| carrier products per element (one
right-multiplication permutation per generator) and then pure integer
lookups along a breadth-first spanning tree.

Whole-group queries (pair scans, ``sections``, ``lower_central_series``)
build the table first, and the subgroup lattice then runs on integer
indices over it: a subgroup grows one coset at a time from the subgroup
already built (Dimino), and a subgroup taken as a group multiplies through
its parent's indices.  No carrier is multiplied once the table exists.

Determinism contract: ``close`` orders elements by breadth-first layer and
then by canonical key, so element indices are reproducible across runs and
platforms; every witness in a report cites indices plus serialized
elements.  Groups are immutable once built and all queries are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

DEFAULT_CLOSURE_CAP = 4096
FULL_TABLE_LIMIT = 1500
ALL_PAIRS_COMMUTATOR_LIMIT = 65536


class ClosureCapExceeded(RuntimeError):
    """Raised when a closure grows past its cap; carries the partial size."""

    def __init__(self, partial_size: int, cap: int):
        super().__init__(
            f"closure exceeded cap {cap} (at least {partial_size} elements)")
        self.partial_size = partial_size
        self.cap = cap


def least_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2."""
    p = 2
    while p * p <= n and n % p:
        p += 1
    return p if n % p == 0 else n


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

    def __init__(self, elements: list, mul_raw: Callable[[Any, Any], Any],
                 identity: int, *, key: Callable[[Any], Any],
                 describe: Callable[[Any], Any], gens: tuple[int, ...],
                 name: str = ""):
        self.elements = list(elements)
        self._mul_raw = mul_raw
        self.identity = identity
        self._key = key
        self._describe = describe
        self.gens = tuple(gens)
        self.name = name
        self.index = {key(e): i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements in group table")
        n = len(self.elements)
        self._rows: list[list[int] | None] = [None] * n
        self._table_built = False  # set by full_table only, never by mul
        self._inv: list[int] = [-1] * n
        self._orders: list[int] = [0] * n
        self._pow_cache: dict[int, list[int]] = {}

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, element: Any) -> int:
        return self.index[self._key(element)]

    def describe(self, i: int) -> Any:
        return self._describe(self.elements[i])

    def mul(self, i: int, j: int) -> int:
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = [-1] * len(self.elements)
        v = row[j]
        if v < 0:
            v = row[j] = self.index[
                self._key(self._mul_raw(self.elements[i], self.elements[j]))]
        return v

    def inv(self, i: int) -> int:
        v = self._inv[i]
        if v < 0:
            e, t, prev = self.identity, i, i
            while t != e:
                prev, t = t, self.mul(t, i)
            v = self._inv[i] = prev if i != e else e
        return v

    def full_table(self) -> list[list[int]]:
        """Materialize every row; intended for whole-group pair scans.

        Only the |gens| right-multiplication permutations x -> x*g use
        carrier products.  A breadth-first spanning tree from the identity
        writes each element j as parent[j] * gens[via[j]], so by
        associativity i*j = (i*parent[j]) * gens[via[j]] and every row is
        filled by integer lookups in tree order (a Schreier vector, Holt,
        Eick and O'Brien, Handbook of Computational Group Theory, ch. 4).
        """
        n = len(self.elements)
        if n > FULL_TABLE_LIMIT:
            raise ValueError(
                f"refusing to materialize a {n}x{n} table (> {FULL_TABLE_LIMIT})")
        rows = self._rows
        if self._table_built:
            return rows  # type: ignore[return-value]
        elements, key, index, mul_raw = (self.elements, self._key, self.index,
                                         self._mul_raw)
        identity = self.identity
        right = {g: [index[key(mul_raw(x, elements[g]))] for x in elements]
                 for g in dict.fromkeys(self.gens)}
        # steps[t] = (j, parent[j], right[gens[via[j]]]) in BFS order
        steps: list[tuple[int, int, list[int]]] = []
        seen = [False] * n
        seen[identity] = True
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for perm in right.values():
                    y = perm[x]
                    if not seen[y]:
                        seen[y] = True
                        steps.append((y, x, perm))
                        nxt.append(y)
            frontier = nxt
        if len(steps) + 1 != n:
            raise ValueError(f"generators of {self.name or 'group'} reach only "
                             f"{len(steps) + 1} of {n} elements")
        for i in range(n):
            row = [0] * n
            row[identity] = i
            for j, parent, perm in steps:
                row[j] = perm[row[parent]]
            rows[i] = row
        self._table_built = True
        return rows  # type: ignore[return-value]

    def tabulate(self) -> None:
        """Build the Cayley table when the group is small enough for one
        (|G| <= FULL_TABLE_LIMIT): whole-group queries call this first, so
        the products they go on to ask for are integer lookups."""
        if len(self.elements) <= FULL_TABLE_LIMIT:
            self.full_table()

    def conjugate(self, i: int, g: int) -> int:
        """g**-1 * i * g."""
        return self.mul(self.mul(self.inv(g), i), g)

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x**-1 y**-1 x y."""
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))

    def engel_bracket(self, x: int, y: int, k: int) -> int:
        """Iterated commutator [x, y, y, ..., y] with k copies of y."""
        if k < 1:
            raise ValueError("k must be >= 1")
        t = self.commutator(x, y)
        for _ in range(k - 1):
            t = self.commutator(t, y)
        return t

    def power(self, i: int, m: int) -> int:
        if m < 0:
            return self.power(self.inv(i), -m)
        result, base = self.identity, i
        while m:
            if m & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            m >>= 1
        return result

    def power_map(self, m: int) -> list[int]:
        """x -> x**m for every element, cached."""
        cached = self._pow_cache.get(m)
        if cached is None:
            cached = self._pow_cache[m] = [self.power(i, m)
                                           for i in range(len(self.elements))]
        return cached

    def element_order(self, i: int) -> int:
        v = self._orders[i]
        if v == 0:
            e, t, k = self.identity, i, 1
            while t != e:
                t = self.mul(t, i)
                k += 1
            v = self._orders[i] = k
        return v

    def exponent(self) -> int:
        return math.lcm(*(self.element_order(i) for i in range(len(self.elements))))

    def p_group_base(self) -> tuple[int, int]:
        """(p, e) with |G| = p**e; raises for non-p-groups."""
        if len(self.elements) == 1:
            raise ValueError("trivial group has no defining prime")
        base = prime_power_base(len(self.elements))
        if base is None:
            raise ValueError(f"group of order {len(self.elements)} is not a p-group")
        return base

    # -- subgroup machinery -----------------------------------------------------

    def _adjoin(self, members: list[int], member_set: set[int],
                gens: list[int], g: int, limit: int | None = None) -> None:
        """Grow the closed subgroup ``members``, generated by ``gens``, to
        <members, g> in place, one right coset H*r at a time (Dimino; Butler,
        Fundamental Algorithms for Permutation Groups, 1991).

        The old subgroup H is a block: a new coset is found as a product r*s
        of a coset representative and a generator that lands outside H's
        cosets so far, and is then added whole as H*(r*s).  Each new element
        costs one product; H itself is never closed again.  With ``limit``
        the growth stops as soon as more than ``limit`` elements are in.
        """
        mul = self.mul
        block = list(members)
        gens.append(g)
        reps = [g]
        members.extend(mul(h, g) for h in block)
        member_set.update(members[-len(block):])
        for r in reps:
            for s in gens:
                t = mul(r, s)
                if t not in member_set:
                    coset = [mul(h, t) for h in block]
                    members.extend(coset)
                    member_set.update(coset)
                    reps.append(t)
                    if limit is not None and len(members) > limit:
                        return

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
        return Subgroup(self, tuple(range(len(self.elements))), self.gens)

    def normal_closure(self, seeds: Sequence[int],
                       ambient_gens: Sequence[int] | None = None) -> "Subgroup":
        """Smallest subgroup containing the seeds that is normalized by the
        ambient generators (defaults: the group's own generators)."""
        if ambient_gens is None:
            ambient_gens = self.gens
        sub = self.subgroup(seeds)
        while True:
            conjugates = (self.conjugate(k, g)
                          for k in sub.members for g in ambient_gens)
            new = [c for c in conjugates if c not in sub.member_set]
            if not new:
                return sub
            sub = self._grow(sub, new)

    def commutator_subgroup(self, a: "Subgroup", b: "Subgroup") -> "Subgroup":
        """[A, B], the subgroup generated by all commutators [x, y] with
        x in A, y in B.

        Computed as the normal closure, inside <A, B>, of the commutators
        of the reduced generator sets; for small |A| * |B| the definitional
        all-pairs generation is used directly.
        """
        if a.parent is not self or b.parent is not self:
            raise ValueError("subgroups belong to a different parent")
        if len(a.members) * len(b.members) <= ALL_PAIRS_COMMUTATOR_LIMIT:
            seeds = sorted({self.commutator(x, y)
                            for x in a.members for y in b.members})
            return self.subgroup(seeds)
        ambient = self.subgroup(tuple(a.gens) + tuple(b.gens))
        seeds = sorted({self.commutator(x, y) for x in a.gens for y in b.gens})
        return self.normal_closure(seeds, ambient_gens=ambient.gens)

    def derived_subgroup(self) -> "Subgroup":
        return self.commutator_subgroup(self.whole_subgroup(), self.whole_subgroup())

    def lower_central_series(self) -> list["Subgroup"]:
        """[G, [G,G], [[G,G],G], ...] down to the trivial subgroup."""
        self.tabulate()
        series = [self.whole_subgroup()]
        whole = series[0]
        while len(series[-1].members) > 1:
            nxt = self.commutator_subgroup(series[-1], whole)
            if nxt.members == series[-1].members:
                raise ValueError("lower central series stalled: group not nilpotent")
            series.append(nxt)
        return series

    def nilpotency_class(self) -> int:
        return len(self.lower_central_series()) - 1

    def center(self) -> "Subgroup":
        members = [z for z in range(len(self.elements))
                   if all(self.mul(z, g) == self.mul(g, z) for g in self.gens)]
        return Subgroup(self, tuple(members), ())

    def is_abelian(self) -> bool:
        return all(self.mul(a, b) == self.mul(b, a)
                   for a in self.gens for b in self.gens)

    def is_metabelian(self) -> bool:
        derived = self.derived_subgroup().as_group()
        return derived.is_abelian()

    # -- power structure ---------------------------------------------------------

    def order_dividing_set(self, k: int) -> tuple[int, ...]:
        """Elements of order dividing p**k (sorted indices)."""
        p, _ = self.p_group_base()
        q = p ** k
        return tuple(i for i in range(len(self.elements))
                     if q % self.element_order(i) == 0)

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
        n = len(self.elements)
        seen = [False] * n
        classes = []
        for start in range(n):
            if seen[start]:
                continue
            orbit = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in self.gens:
                        y = self.conjugate(x, g)
                        if y not in orbit:
                            orbit.add(y)
                            nxt.append(y)
                frontier = nxt
            cls = tuple(sorted(orbit))
            for x in cls:
                seen[x] = True
            classes.append(cls)
        return classes

    def normal_subgroups(self, cap: int = 1024) -> list["Subgroup"]:
        """All normal subgroups, as joins of subgroups generated by
        conjugacy classes (such generated subgroups are conjugation-stable,
        and every normal subgroup is the join of the classes it contains)."""
        if len(self.elements) > cap:
            raise ClosureCapExceeded(len(self.elements), cap)
        base: dict[tuple[int, ...], Subgroup] = {}
        for cls in self.conjugacy_classes():
            sub = self.subgroup(cls)
            base.setdefault(sub.members, sub)
        known = dict(base)
        trivial = self.trivial_subgroup()
        known.setdefault(trivial.members, trivial)
        # Every subgroup here is normal, so <a, b> = ab has order
        # |a||b|/|a & b|; a known subgroup of that order holding a and b is
        # the join, and then it is not computed.
        by_order: dict[int, list[frozenset[int]]] = {}
        for sub in known.values():
            by_order.setdefault(len(sub.members), []).append(sub.member_set)
        subs = list(known.values())
        for a in subs:  # subs grows while it is walked
            a_set = a.member_set
            for b in list(subs):
                b_set = b.member_set
                order = len(a_set) * len(b_set) // len(a_set & b_set)
                if any(a_set <= k and b_set <= k for k in by_order.get(order, ())):
                    continue
                join = self._grow(a, b.gens)
                known[join.members] = join
                by_order.setdefault(order, []).append(join.member_set)
                subs.append(join)
        return sorted(known.values(), key=lambda s: (len(s.members), s.members))

    def all_subgroups(self, cap: int = 256) -> list["Subgroup"]:
        """Every subgroup, grown from the trivial one by adjoining elements;
        each subgroup, in discovery order, is extended once.

        All elements of a right coset sub*g give the same <sub, g>, so only
        the least element of each coset outside sub is adjoined.  Lagrange
        saves the rest of the work:
          * when <sub, g> has prime index over sub, every element of it
            outside sub gives it again, so all of it is skipped;
          * <sub, g> lies in G and in every overgroup <sub, g'> already
            found that holds g; once its closure has more than |K|/q
            elements for such a K (q the least prime dividing |K|), it is
            K, since no proper subgroup of K is that large.
        """
        n = len(self.elements)
        if n > cap:
            raise ClosureCapExceeded(n, cap)
        mul = self.mul
        whole = self.whole_subgroup()
        trivial = self.trivial_subgroup()
        known: dict[tuple[int, ...], Subgroup] = {trivial.members: trivial}
        subs = [trivial]
        for sub in subs:  # subs grows while it is walked
            covered = set(sub.members)
            overgroups = [whole]
            for g in range(n):
                if g in covered:
                    continue
                covered.update(mul(h, g) for h in sub.members)
                within = min((k for k in overgroups if g in k), key=len)
                limit = len(within) // least_prime_factor(len(within))
                members, member_set = list(sub.members), set(sub.members)
                gens = list(sub.gens)
                self._adjoin(members, member_set, gens, g, limit)
                key = within.members if len(members) > limit else tuple(sorted(members))
                grown = known.get(key)
                if grown is None:
                    grown = known[key] = Subgroup(self, key, tuple(gens))
                    subs.append(grown)
                index = len(key) // len(sub)
                if least_prime_factor(index) == index:
                    covered.update(key)
                else:
                    overgroups.append(grown)
        return sorted(known.values(), key=lambda s: (len(s.members), s.members))

    def quotient(self, n: "Subgroup") -> "FiniteGroup":
        """G / N on minimal coset representatives; N must be normal."""
        if n.parent is not self:
            raise ValueError("subgroup belongs to a different parent")
        if not n.is_normal():
            raise ValueError("subgroup is not normal")
        rep_of = [-1] * len(self.elements)
        for i in range(len(self.elements)):
            if rep_of[i] >= 0:
                continue
            coset = sorted(self.mul(i, m) for m in n.members)
            rep = coset[0]
            for x in coset:
                rep_of[x] = rep
        reps = sorted(set(rep_of))
        describe = self._describe

        def q_describe(rep: int) -> Any:
            return {"coset_rep": describe(self.elements[rep])}

        group: FiniteGroup | None = None

        def q_mul(a: int, b: int) -> int:
            return rep_of[self.mul(a, b)]

        gens = tuple(dict.fromkeys(rep_of[g] for g in self.gens)) or (rep_of[self.identity],)
        group = FiniteGroup(reps, q_mul, reps.index(rep_of[self.identity]),
                            key=lambda r: r, describe=q_describe,
                            gens=tuple(reps.index(r) for r in gens),
                            name=f"{self.name}/N{len(n.members)}")
        return group

    def sections(self, section_cap: int = 256) -> Iterator[tuple["Subgroup", "Subgroup", "FiniteGroup"]]:
        """All sections H/K: H over all subgroups (largest first), K over the
        normal subgroups of H (smallest first).  Requires |G| <= section_cap.

        The whole group is the unique largest subgroup, so its quotients
        come first and are yielded before the lattice is enumerated: a scan
        that stops at G/K never pays for the lattice.  The lattice then runs
        on integer indices over G's Cayley table, and each H is a group on
        G's indices, so no carrier is multiplied after the table is built.
        """
        n = len(self.elements)
        if n > section_cap:
            raise ClosureCapExceeded(n, section_cap)
        self.tabulate()
        whole = self.whole_subgroup()
        for k in self.normal_subgroups():
            yield whole, k, self.quotient(k)
        subs = self.all_subgroups(section_cap)
        for h in sorted(subs, key=lambda s: (-len(s.members), s.members))[1:]:
            h_grp = h.as_group()
            for k in h_grp.normal_subgroups():
                yield h, k, h_grp.quotient(k)

    # -- integrity checks ----------------------------------------------------------

    def spot_check(self, rng, triples: int = 200) -> None:
        """Sampled associativity and Latin-square checks; raises on failure."""
        n = len(self.elements)
        for _ in range(triples):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise AssertionError(f"associativity fails at {(a, b, c)}")
        rows = [rng.randrange(n) for _ in range(min(n, 8))]
        for r in rows:
            seen = {self.mul(r, j) for j in range(n)}
            if len(seen) != n:
                raise AssertionError(f"row {r} is not a permutation")


@dataclass(frozen=True)
class Subgroup:
    """Sorted member indices inside a parent group, plus a generator set."""

    parent: FiniteGroup
    members: tuple[int, ...]
    gens: tuple[int, ...]
    _member_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_member_set", frozenset(self.members))

    @property
    def member_set(self) -> frozenset[int]:
        return self._member_set

    def __len__(self) -> int:
        return len(self.members)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self._member_set

    def is_normal(self) -> bool:
        return all(self.parent.conjugate(m, g) in self._member_set
                   for m in self.members for g in self.parent.gens)

    def reduced_gens(self) -> tuple[int, ...]:
        if self.gens:
            return self.gens
        return self.parent.subgroup(self.members).gens

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup whose elements are the
        parent's indices: it multiplies with ``parent.mul`` (integer lookups
        once the parent's table exists) and describes with the parent."""
        parent = self.parent
        gens = self.reduced_gens()
        pos = {i: t for t, i in enumerate(self.members)}
        gen_pos = tuple(dict.fromkeys(pos[g] for g in gens)) or (pos[parent.identity],)
        return FiniteGroup(list(self.members), parent.mul, pos[parent.identity],
                           key=lambda i: i, describe=parent.describe,
                           gens=gen_pos, name=f"{parent.name}|sub{len(self.members)}")


def close(generators: Sequence[Any], cap: int = DEFAULT_CLOSURE_CAP, *,
          name: str = "") -> FiniteGroup:
    """Breadth-first closure of carrier elements under multiplication.

    Element order is deterministic: identity first, then each BFS layer
    sorted by canonical key.  Raises ClosureCapExceeded past the cap.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    if any(type(g) is not type(gens[0]) for g in gens):
        raise ValueError("incompatible generators: mixed carriers")
    identity = gens[0].identity_like()
    elements = [identity]
    index = {identity.key(): 0}
    layer = [identity]
    while layer:
        found: dict[Any, Any] = {}
        for x in layer:
            for g in gens:
                y = x * g
                k = y.key()
                if k not in index and k not in found:
                    found[k] = y
        layer = [found[k] for k in sorted(found)]
        for y in layer:
            index[y.key()] = len(elements)
            elements.append(y)
            if len(elements) > cap:
                raise ClosureCapExceeded(len(elements), cap)
    return FiniteGroup(elements, lambda a, b: a * b, 0,
                       key=lambda e: e.key(), describe=lambda e: e.to_json(),
                       gens=tuple(index[g.key()] for g in gens), name=name)


def direct_product(g1: FiniteGroup, g2: FiniteGroup,
                   cap: int = 1 << 20, *, name: str = "") -> FiniteGroup:
    """Componentwise product on index pairs, elements in lexicographic order."""
    if len(g1) * len(g2) > cap:
        raise ClosureCapExceeded(len(g1) * len(g2), cap)
    elements = [(i, j) for i in range(len(g1)) for j in range(len(g2))]

    def mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (g1.mul(a[0], b[0]), g2.mul(a[1], b[1]))

    def describe(e: tuple[int, int]) -> Any:
        return {"pair": [g1.describe(e[0]), g2.describe(e[1])]}

    identity = elements.index((g1.identity, g2.identity))
    gens = tuple(elements.index((g, g2.identity)) for g in g1.gens) + \
        tuple(elements.index((g1.identity, h)) for h in g2.gens)
    return FiniteGroup(elements, mul, identity, key=lambda e: e,
                       describe=describe, gens=gens,
                       name=name or f"({g1.name})x({g2.name})")


def direct_power(g: FiniteGroup, m: int, cap: int = 1 << 20, *,
                 name: str = "") -> FiniteGroup:
    """m-fold componentwise power on flat index tuples."""
    if m < 1:
        raise ValueError("power must be >= 1")
    if len(g) ** m > cap:
        raise ClosureCapExceeded(len(g) ** m, cap)
    elements = list(itertools.product(range(len(g)), repeat=m))

    def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(g.mul(x, y) for x, y in zip(a, b))

    def describe(e: tuple[int, ...]) -> Any:
        return {"tuple": [g.describe(x) for x in e]}

    identity_elem = (g.identity,) * m
    gens = []
    for slot in range(m):
        for gen in g.gens:
            e = list(identity_elem)
            e[slot] = gen
            gens.append(elements.index(tuple(e)))
    return FiniteGroup(elements, mul, elements.index(identity_elem),
                       key=lambda e: e, describe=describe, gens=tuple(gens),
                       name=name or f"({g.name})^{m}")
