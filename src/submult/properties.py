"""Decision procedures for the spectral and power-structure properties.

Every decider takes a closed ``FiniteGroup``: closing generators, and
choosing the cap for that, is the caller's job (``has_property_s(close(gens))``),
so one closure, its rows and its Cayley table serve every question asked
of it.  Only ``has_property_s_hat_basic``, which builds its own
representations, and ``is_v_regular_bounded``, which builds direct powers,
take a cap.

Every check returns a ``PropertyReport``: a verdict (True, False, or
"holds-capped" when a cap prevented deciding an unbounded quantifier),
a replayable witness on failure, and work counters.  Witnesses cite
deterministic element indices plus serialized elements.  The pair
deciders share one scan over conjugacy-class representatives
(``_pair_report``) and differ only in their row functions; each
decider's docstring gives the shortcuts it takes and why they hold.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .cyclotomic import Spectrum
from .families import (all_characters, big_cycle, check_basic_order,
                       induced_rep_generators)
from .groups import (DEFAULT_CLOSURE_CAP, DEFAULT_SECTION_CAP, SUBGROUPS_PER_ORDER,
                     ClosureCapExceeded, FiniteGroup, Subgroup, _set_bits,
                     close, direct_power, is_prime, least_prime_factor)
from .monomial import (MonomialCodec, MonomialMatrix, diagonal_exponents,
                       in_row_span, key_mask, key_order,
                       rotation_difference_image)

HOLDS_CAPPED = "holds-capped"


@dataclass
class PropertyReport:
    """Outcome of a property check; witness present exactly on failure."""

    property: str
    holds: bool | str
    witness: dict | None = None
    counters: dict[str, int] = field(default_factory=dict)
    caps: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if (self.holds is False) != (self.witness is not None):
            raise ValueError("witness must be present exactly when holds is False")

    @property
    def passed(self) -> bool:
        return self.holds is True or self.holds == HOLDS_CAPPED

    def to_json(self) -> dict:
        return {"property": self.property, "holds": self.holds,
                "witness": self.witness, "counters": dict(self.counters),
                "caps": list(self.caps)}

    @classmethod
    def from_json(cls, data: dict) -> "PropertyReport":
        holds = data["holds"]
        return cls(property=data["property"],
                   holds=holds if isinstance(holds, bool) else str(holds),
                   witness=data.get("witness"),
                   counters=dict(data.get("counters", {})),
                   caps=list(data.get("caps", [])))


RowCheck = Callable[[int], int | None]


def _first_true(flags: Iterable) -> int | None:
    """Index of the first truthy flag, or None."""
    return next(compress(count(), flags), None)


def _pair_report(prop: str, g: FiniteGroup, first_failure: RowCheck,
                 details: Callable[[int, int], dict],
                 reps: Sequence[int] | None = None) -> PropertyReport:
    """Decide a pair predicate that is unchanged by simultaneous
    conjugation on every ordered pair of g, given as its row function:
    ``first_failure(x)`` is the least y whose pair (x, y) fails, or None.
    Reports True, or False with the least failing pair as witness,
    extended by ``details(i, j)``.

    Only the rows of class representatives r (least class members) are
    evaluated, in ascending order.  The first failure (r, y) found is the
    least failing pair: each x < r shares its class with a representative
    below r, whose row passed, so x's row passes too.  The counters are
    ``pairs_checked`` (n**2 on a pass, the ascending count up to the
    witness on a failure) and ``pairs_evaluated`` (the pairs of the
    evaluated rows, the failing row counted up to its witness).

    ``reps``, ascending, may leave out a representative whose row fails
    exactly when a lower representative's row does (by default none is
    left out): a row left out below the first failure passes, so the
    witness and ``pairs_checked`` are the same.

    The predicates of (S), p-abelianness, the Engel identity, order
    divisibility and regularity are unchanged by (x, y) -> (x**g, y**g):
    spectra and element orders are class functions, (xy)**g = x**g y**g,
    p-abelianness and the Engel identity are words in x and y, and
    D(<x**g, y**g>) = D(<x, y>)**g.  Row functions read whole table rows
    in comprehensions and ``map``/``compress`` chains, not one Python call
    per pair (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005).
    """
    n = len(g)
    if reps is None:
        reps = [cls[0] for cls in g.conjugacy_classes()]
    for t, r in enumerate(reps):
        y = first_failure(r)
        if y is not None:
            witness = {"left_index": r, "right_index": y,
                       "left": g.describe(r), "right": g.describe(y), **details(r, y)}
            return PropertyReport(prop, False, witness=witness, counters={
                "pairs_checked": r * n + y + 1, "pairs_evaluated": t * n + y + 1})
    return PropertyReport(prop, True, counters={
        "pairs_checked": n * n, "pairs_evaluated": len(reps) * n})


def _all_pairs_pass(g: FiniteGroup) -> dict[str, int]:
    """The counters of ``_pair_report`` for a predicate that every pair of
    g is known to pass, so none is evaluated.  Not a shortcut inside
    ``_pair_report``: order divisibility can fail on abelian groups."""
    return {"pairs_checked": len(g) ** 2, "pairs_evaluated": 0}


# -- property (S): submultiplicative spectra -------------------------------------

def _unscaled_reps(g: FiniteGroup, classes: Sequence[tuple[int, ...]],
                   keys: Sequence[tuple[tuple[int, int], ...]]) -> list[int]:
    """The class representatives r whose (S) rows need reading, ascending:
    those with rep(z*r) >= r for every scalar z = w*I other than I in g,
    rep(x) the least member of x's class; ``keys`` are the classes' cycle
    keys, and a scalar's is its n 1-cycles with one exponent.

    z multiplies every eigenvalue of z*r and of z*r*y by w, so the pair
    (z*r, y) fails (S) exactly when (r, y) does, and the row of rep(z*r),
    a conjugate of row z*r, fails exactly when row r does
    (``_pair_report``).  The products z*r are read off the scalars' rows."""
    reps = [cls[0] for cls in classes]
    scalars = [r for r, key in zip(reps, keys)
               if key[0] == key[-1] and key[0][0] == 1 and key[0][1]]
    if not scalars:
        return reps
    rep = [0] * len(g)
    for cls in classes:
        for x in cls:
            rep[x] = cls[0]
    moved = [g.row(z) for z in scalars]
    return [r for r in reps if all(rep[zr[r]] >= r for zr in moved)]


class _SpectralClosure:
    """A closed monomial group's rows with per-element spectra as
    int bitmasks over Z/L, L the lcm over the group's distinct cycle keys of
    l * order(c), l a cycle's length and c its entry product, which every
    eigenvalue's order divides (``key_order``): bit i of a mask is set when
    i/L is an eigenvalue.  Masks are built once per distinct cycle key and
    interned, one id per distinct spectrum: ``masks[sid[x]]`` is x's.

    A cycle key is read only off each conjugacy class's least member
    (``FiniteGroup.conjugacy_classes``), whose id the other members share:
    conjugating a monomial matrix by another relabels its cycles and keeps
    each cycle's length and entry product.  The least members ascend, so
    keys first appear in the order an all-elements pass meets them, and
    the ids and the key set are that pass's.  Keys come from the codes
    ``close`` kept (``MonomialCodec.cycle_key``), or else off each
    representative's matrix (``MonomialMatrix.cycle_data``), so no table
    of the entries' order M is built.

    The product set of spectra a and b is the OR of the rotations of mask
    b by the set bits of mask a, built once per (a, b), and the pair (x, y)
    passes exactly when ``masks[sid[x*y]] & ~product == 0``.  A row x is
    read as the set of keys ``sid[y]*U + sid[x*y]`` (U distinct spectra),
    gathered without a Python call per pair; only keys not yet known to
    pass with sid[x] are tested.  ``rows`` are the representatives whose
    rows need reading (``_unscaled_reps``).  No ``Spectrum`` is built unless
    a pair fails and a witness needs one."""

    def __init__(self, g: FiniteGroup):
        self.row = g.row
        classes = g.conjugacy_classes()
        if isinstance(g.codec, MonomialCodec):
            m, codes, cycle_key = g.codec.modulus, g.codes, g.codec.cycle_key
            keys = [(m, cycle_key(codes[cls[0]])) for cls in classes]
        else:
            keys = [_element(g, cls[0]).cycle_data() for cls in classes]
        distinct = dict.fromkeys(keys)
        self.modulus = math.lcm(*(key_order(*k) for k in distinct))
        masks = {k: key_mask(*k, self.modulus) for k in distinct}
        ids = {m: i for i, m in enumerate(dict.fromkeys(masks.values()))}
        self.masks = list(ids)
        self.sid = [0] * len(g)
        for cls, key in zip(classes, keys):
            sid = ids[masks[key]]
            for x in cls:
                self.sid[x] = sid
        self.rows = _unscaled_reps(g, classes, [key for _, key in keys])
        u = len(self.masks)
        self._left = [a * u for a in self.sid]
        self._good: list[set[int]] = [set() for _ in range(u)]
        self._prod: dict[tuple[int, int], int] = {}

    def product_mask(self, a: int, b: int) -> int:
        """Mask of the pairwise products of spectra a and b."""
        prod = self._prod.get((a, b))
        if prod is None:
            modulus, mask_a, mask_b, wide = self.modulus, self.masks[a], self.masks[b], 0
            while mask_a:
                low = mask_a & -mask_a
                wide |= mask_b << low.bit_length() - 1
                mask_a ^= low
            # fold the bits at modulus and above back to the bottom
            prod = self._prod[(a, b)] = (wide | wide >> modulus) & ((1 << modulus) - 1)
        return prod

    def _row_keys(self, x: int) -> Iterator[int]:
        return map(operator.add, self._left, map(self.sid.__getitem__, self.row(x)))

    def first_failure(self, x: int) -> int | None:
        """Least y whose pair (x, y) fails (S), or None."""
        a, u, masks = self.sid[x], len(self.masks), self.masks
        good = self._good[a]
        bad = set()
        for key in set(self._row_keys(x)) - good:
            b, ab = divmod(key, u)
            if masks[ab] & ~self.product_mask(a, b):
                bad.add(key)
            else:
                good.add(key)
        return _first_true(map(bad.__contains__, self._row_keys(x))) if bad else None

    def spectrum(self, x: int) -> Spectrum:
        return Spectrum.from_mask(self.masks[self.sid[x]], self.modulus)


def has_property_s(g: FiniteGroup) -> PropertyReport:
    """Every eigenvalue of A*B is a product of an eigenvalue of A and one
    of B, for every ordered pair in the monomial group g.

    Spectra compare as sets, and every ordered pair of the closure counts,
    never just the generators.  An abelian g passes without a spectrum
    computed: commuting matrices of finite order are simultaneously
    diagonalisable, so each eigenvalue of A*B is a product of eigenvalues
    of A and B on a common eigenvector.  ``FiniteGroup.p_abelian`` is not
    read: that p-abelian groups have s-hat is the paper's claim under test.
    Rows of scalar multiples of lower representatives are not read
    (``_unscaled_reps``), and not counted in ``pairs_evaluated``.
    """
    n = len(g)
    if g.is_abelian():
        return PropertyReport("s", True, counters={
            **_all_pairs_pass(g), "elements_checked": n})
    sc = _SpectralClosure(g)

    def details(i: int, j: int) -> dict:
        k = g.row(i)[j]
        missing = sc.masks[sc.sid[k]] & ~sc.product_mask(sc.sid[i], sc.sid[j])
        return {
            "product_index": k,
            # the least missing eigenvalue in the canonical (den, num) order
            "eigenvalue": Spectrum.from_mask(missing, sc.modulus).elems[0].to_json(),
            "left_spectrum": sc.spectrum(i).to_json(),
            "right_spectrum": sc.spectrum(j).to_json(),
            "product_spectrum": sc.spectrum(k).to_json(),
            "explanation": "eigenvalue of the product lies outside the set "
                           "of pairwise eigenvalue products"}

    report = _pair_report("s", g, sc.first_failure, details, sc.rows)
    report.counters["elements_checked"] = n
    return report


def _character_orbit(p: int, c: int, e: int, chi: tuple[int, ...]
                     ) -> set[tuple[int, ...]]:
    """The characters k * chi**(b**j) of the basic group's base, for units k
    of Z/p**e: chi's orbit under the b-action x_i -> x_i + x_(i+1)
    (x_(c+1) = 0), the conjugation a -> b**-1 a b, and under the Galois
    action x -> k*x.  The two commute, so the orbit is chi's b-cycle scaled
    by every unit."""
    m, cycle, x = p ** e, [], chi
    while x not in cycle:
        cycle.append(x)
        x = tuple((u + v) % m for u, v in zip(x, x[1:] + (0,)))
    return {tuple(k * v % m for v in y) for y in cycle for k in range(1, m) if k % p}


def has_property_s_hat_basic(p: int, c: int, e: int, *,
                             cap: int = DEFAULT_CLOSURE_CAP) -> PropertyReport:
    """Property (S) over the full induced-representation family of the
    basic split-extension group.

    Every irreducible representation of the family of degree above 1 is
    induced from a character of the abelian base, and degree-1
    representations are submultiplicative outright, so the enumeration is
    exhaustive.  Reducible induced images are checked too, which is sound:
    the property must hold on every subrepresentation.  A representation
    failing (S) rules the property out.  Each closure is an image of the
    group, so an order above cap is refused before any character is built.

    One closure settles a character's orbit (``_character_orbit``), whose
    members have isomorphic images and the same (S) verdict, so they share
    its counters: b-conjugate characters induce equivalent representations
    (Isaacs, Character Theory of Finite Groups, ch. 5), and k*chi induces
    the Galois conjugate sigma_k of chi's representation, entry by entry,
    whose eigenvalues sigma_k maps as it maps their products.  Twists by
    linear characters keep (S) but not the image: on B_3(2,1) character
    (1, 0) has an image of order 9 and (0, 0) one of order 3.  Orbits are
    built only from passing characters, so each failing character is
    closed itself and the least failing ``representation_index`` and its
    witness stay those of a closure per character.  ``reps_checked`` and
    ``pairs_checked`` count every character up to that one,
    ``reps_evaluated`` and ``pairs_evaluated`` only the closures built.
    """
    check_basic_order(p, c, e, cap)
    totals = {"pairs_checked": 0, "pairs_evaluated": 0}
    settled: dict[tuple[int, ...], int] = {}  # character -> its pairs_checked
    closures = 0
    for idx, chi in enumerate(all_characters(p, c, e)):
        if chi in settled:
            totals["pairs_checked"] += settled[chi]
            continue
        sub = has_property_s(close(induced_rep_generators(p, c, e, chi), cap))
        closures += 1
        for key in totals:
            totals[key] += sub.counters[key]
        if sub.holds is False:
            witness = dict(sub.witness or {})
            witness["representation_index"] = idx
            return PropertyReport("s-hat", False, witness=witness, counters={
                **totals, "reps_checked": idx + 1, "reps_evaluated": closures})
        settled.update(dict.fromkeys(_character_orbit(p, c, e, chi),
                                     sub.counters["pairs_checked"]))
    return PropertyReport("s-hat", True, counters={
        **totals, "reps_checked": p ** (e * c), "reps_evaluated": closures})


def has_property_s_hat_single(g: FiniteGroup) -> PropertyReport:
    """Evidence-grade check from one supplied matrix representation.

    An abelian group passes conclusively (all irreducible constituents
    of every subgroup have degree 1).  Otherwise a pass covers only the
    supplied representation and its subgroup restrictions, so the verdict
    is capped; a failure is conclusive either way.
    """
    base = has_property_s(g)
    if base.holds is False:
        return PropertyReport("s-hat", False, witness=base.witness,
                              counters=base.counters)
    if g.is_abelian():
        # conclusive: every irreducible subrepresentation of an abelian
        # closure has degree 1 and degree-1 spectra multiply exactly
        return PropertyReport("s-hat", True, counters=base.counters)
    return PropertyReport("s-hat", HOLDS_CAPPED, counters=base.counters,
                          caps=["only the supplied representation and its "
                                "pair restrictions were checked"])


# -- power structure ---------------------------------------------------------------

# (H, K, x -> x**(p**k)) -> the union of the cosets in the power set
PowerSet = Callable[[Subgroup, Subgroup, Sequence[int]], set[int]]


def _order_dividing(h: Subgroup, kernel: Subgroup, pk: Sequence[int]) -> set[int]:
    """The x in H with x**(p**k) in K: the cosets of H/K whose order
    divides p**k."""
    in_kernel = map(kernel.member_set.__contains__, map(pk.__getitem__, h.members))
    return set(compress(h.members, in_kernel))


def _power_image(h: Subgroup, kernel: Subgroup, pk: Sequence[int]) -> set[int]:
    """The p**k-th powers of H, those of the section H/1: p1 probes no
    section H/K with K != 1 (``_section_scan``)."""
    return set(map(pk.__getitem__, h.members))


def _power_failure(g: FiniteGroup, h: Subgroup, kernel: Subgroup,
                   power_set: PowerSet, lattice: set[tuple[int, ...]] | None = None
                   ) -> tuple[int, int] | None:
    """First (k, rep) at which the section H/K of g has a power set that
    differs from the subgroup it generates, else None.  With
    ``_order_dividing`` that subgroup is omega_k, with ``_power_image`` it
    is agemo_k.

    H/K is read through g's power map x -> x**(p**k) modulo K: the set is
    the union U of its cosets, and it is a subgroup of H/K exactly when U
    is a subgroup of g.  That is a lookup in ``lattice`` (the member tuples
    of every subgroup of g) when one is given, else a closure.  The levels
    stop at the first k with every x**(p**k) in K, the exponent of H/K,
    where the set is all of H/K or trivial.  rep is the least member of
    <U> outside U; its whole coset lies outside U, so it is that coset's
    least member.
    """
    if g.p_abelian:
        # x -> x**(p**k) is an endomorphism, so U is the image of H or the
        # preimage of K in H, a subgroup either way
        return None
    p, _ = g.p_group_base()
    inside = kernel.member_set
    k = 1
    while True:
        pk = g.power_map(p ** k)
        if inside.issuperset(map(pk.__getitem__, h.members)):
            return None
        union = power_set(h, kernel, pk)
        key = tuple(sorted(union))
        if lattice is None or key not in lattice:
            generated = g.subgroup(key).members
            if len(generated) > len(key):
                return k, next(m for m in generated if m not in union)
        k += 1


def _coset_rank(g: FiniteGroup, h: Subgroup, kernel: Subgroup, rep: int) -> int:
    """Index of the coset rep*K in H/K numbered as ``FiniteGroup.quotient``
    numbers it, by ascending least member: the number of cosets whose least
    member is below rep, itself the least member of its coset."""
    covered: set[int] = set()
    for x in h.members:
        if x >= rep:
            break
        if x not in covered:
            covered.update(map(g.row(x).__getitem__, kernel.members))
    return len(covered) // len(kernel)


def has_wp2(g: FiniteGroup) -> PropertyReport:
    """For each k, the set of elements of order dividing p**k already forms
    the subgroup it generates."""
    fail = _power_failure(g, g.whole_subgroup(), g.trivial_subgroup(),
                          _order_dividing)
    counters = {"elements_checked": len(g)}
    if fail is None:
        return PropertyReport("wp2", True, counters=counters)
    k, idx = fail
    witness = {"k": k, "element_index": idx, "element": g.describe(idx),
               "element_order": g.element_order(idx),
               "explanation": "generated subgroup contains an element of "
                              f"order exceeding p**{k}"}
    return PropertyReport("wp2", False, witness=witness, counters=counters)


def _section_scan(g: FiniteGroup, section_cap: int, prop: str,
                  power_set: PowerSet, only_h1: bool) -> PropertyReport:
    """Probe the sections H/K of g, counting each in ``sections_checked``:
    G/1 once, before any lattice, whatever |G| is; then, for each H that
    ``sections`` yields, the K bits of its mask: all of them for p2 on a
    group that is not p-abelian, bit 0 (H/1) alone for p1, none for a
    p-abelian group, whose sections all pass (``_power_failure``).  H/K
    fails p1 only if H/1 does: once H/1 passes, each level's p**k-th powers
    of H form a subgroup A, normal in H since conjugation permutes them, so
    the p**k-th powers of H/K form AK/K.

    Above the section cap, or once the lattice passes ``all_subgroups``'
    bound, the report is G/1's: a failure, or a verdict capped after it.
    """
    h, kernel = g.whole_subgroup(), g.trivial_subgroup()
    fail, checked = _power_failure(g, h, kernel, power_set), 1
    if fail is None and len(g) > section_cap:
        return _whole_group_only(prop, f"|G| = {len(g)} exceeds section cap "
                                       f"{section_cap}")
    probed = 0 if g.p_abelian else 1 if only_h1 else -1  # the K bits to probe
    members = None  # the member tuples of the lattice, for ``_power_failure``
    try:
        for h, kernels, lattice in g.sections(section_cap) if fail is None else ():
            for t in _set_bits(kernels & probed):
                members = members or {s.members for s in lattice}
                kernel = lattice[t]
                fail = _power_failure(g, h, kernel, power_set, members)
                if fail is not None:
                    kernels &= (2 << t) - 1  # the sections H/K up to this one
                    break
            checked += kernels.bit_count()
            if fail is not None:
                break
    except ClosureCapExceeded as exc:  # raised before the first H
        return _whole_group_only(
            prop, f"the subgroup lattice of G exceeds {exc.cap} subgroups "
                  f"({SUBGROUPS_PER_ORDER} x section cap {section_cap})")
    if fail is None:
        return PropertyReport(prop, True, counters={"sections_checked": checked})
    k, rep = fail
    if len(g) > section_cap:
        witness = {"k": k, "element_index": rep, "element": g.describe(rep),
                   "section": "the whole group",
                   "explanation": "the group itself is a failing section"}
    else:
        witness = {"k": k, "element_index": _coset_rank(g, h, kernel, rep),
                   "element": {"coset_rep": g.describe(rep)},
                   "subgroup_order": len(h), "kernel_order": len(kernel),
                   "subgroup_members": list(h.members),
                   "explanation": "section fails the power-structure "
                                  "set/subgroup equality"}
    return PropertyReport(prop, False, witness=witness,
                          counters={"sections_checked": checked})


def _whole_group_only(prop: str, cap: str) -> PropertyReport:
    """The report of a section scan capped after G/1 passed."""
    return PropertyReport(prop, HOLDS_CAPPED, counters={"sections_checked": 1},
                          caps=[f"{cap}; only the group itself was checked"])


def has_p2(g: FiniteGroup, *, section_cap: int = DEFAULT_SECTION_CAP) -> PropertyReport:
    """Every section satisfies the wp2 equality (order-dividing sets are
    subgroups); exhaustive below the section cap, capped above it."""
    return _section_scan(g, section_cap, "p2", _order_dividing, only_h1=False)


def has_p1(g: FiniteGroup, *, section_cap: int = DEFAULT_SECTION_CAP) -> PropertyReport:
    """Every section has its p**k-th power set equal to the subgroup those
    powers generate; only the sections H/1 need a probe (``_section_scan``)."""
    return _section_scan(g, section_cap, "p1", _power_image, only_h1=True)


# -- regularity ------------------------------------------------------------------

def _power_mismatches(g: FiniteGroup, pw: Sequence[int]
                      ) -> Callable[[int], Iterator[int]]:
    """x -> the y, ascending, with (xy)**p != x**p * y**p, pw the p-th power
    map: row x read through pw against row x**p read at the p-th powers.

    Both sides are C-level ``itemgetter`` gathers, the one at the p-th
    powers built once.  On the order-1 group a gather of one index returns
    the identity itself, not a 1-tuple, and the two sides compare equal."""
    at_powers = operator.itemgetter(*pw)

    def mismatches(x: int) -> Iterator[int]:
        lhs = operator.itemgetter(*g.row(x))(pw)
        rhs = at_powers(g.row(pw[x]))
        return compress(count(), map(operator.ne, lhs, rhs)) if lhs != rhs else iter(())

    return mismatches


def is_regular(g: FiniteGroup) -> PropertyReport:
    """For every ordered pair (x, y) there is z in the derived subgroup D of
    the pair-generated subgroup with (xy)**p = x**p * y**p * z**p.

    Each pair is first tested with z = 1, i.e. (xy)**p = x**p * y**p.  The
    identity lies in every D, so a pair passing that test is settled
    without D; commuting pairs and pairs (x, x) always pass it.  The test
    runs on the rows of x and x**p (``FiniteGroup.row``).  A pair failing
    it is tested next against the p-th powers of <c>, c = [x, y], which
    form the subgroup <c**p>, cached per c**p: <c> lies in D.  Only a pair
    that <c**p> does not settle builds D, the normal closure of c under x
    and y, and z**p then ranges over the p-th powers of D, cached per
    distinct D.

    A p-abelian g (``FiniteGroup.p_abelian``) passes every pair with z = 1,
    and no pair is evaluated.
    """
    p, _ = g.p_group_base()
    if g.p_abelian:
        return PropertyReport("regular", True, counters={
            **_all_pairs_pass(g), "pair_subgroups_analyzed": 0,
            "pairs_settled_by_commutator": 0})
    pw = g.power_map(p)
    mismatches = _power_mismatches(g, pw)
    cyclic_zp: dict[int, frozenset[int]] = {}
    zp_cache: dict[tuple[int, ...], frozenset[int]] = {}
    settled = 0

    def first_failure(x: int) -> int | None:
        nonlocal settled
        row_x, row_xp = g.row(x), g.row(pw[x])
        for y in mismatches(x):
            xy = row_x[y]
            target = g.mul(g.inv(row_xp[pw[y]]), pw[xy])  # the z**p needed
            c = g.mul(g.inv(g.mul(y, x)), xy)  # [x, y] = (yx)**-1 xy
            zp = cyclic_zp.get(pw[c])
            if zp is None:
                zp = cyclic_zp[pw[c]] = g.subgroup([pw[c]]).member_set
            if target in zp:
                settled += 1
                continue
            derived = g.normal_closure([c], (x, y)).members
            zp = zp_cache.get(derived)
            if zp is None:
                zp = zp_cache[derived] = frozenset(pw[z] for z in derived)
            if target not in zp:
                return y
        return None

    report = _pair_report("regular", g, first_failure, lambda i, j: {
        "prime": p,
        "explanation": "no element z of the derived subgroup of the "
                       "pair-generated subgroup satisfies (xy)^p = x^p y^p z^p"})
    report.counters["pair_subgroups_analyzed"] = len(zp_cache)
    report.counters["pairs_settled_by_commutator"] = settled
    return report


def is_v_regular_bounded(g: FiniteGroup, powers: int, *,
                         cap: int = DEFAULT_CLOSURE_CAP) -> PropertyReport:
    """Regularity of G, G^2, ..., G^powers.  Success is reported as capped
    evidence, since the genuine property quantifies over all finite direct
    powers, except on an abelian group: every power of it is abelian, hence
    regular, so G passing settles them all.  Each power inherits
    ``p_abelian`` from G."""
    if powers < 1:
        raise ValueError("powers must be >= 1")
    checked = []
    caps: list[str] = []
    totals = {"pairs_checked": 0, "pairs_evaluated": 0}
    for m in range(1, powers + 1):
        if len(g) ** m > cap:
            caps.append(f"power {m} would have order {len(g) ** m} > cap {cap}; "
                        "stopping early")
            break
        power_group = g if m == 1 else direct_power(g, m, cap)
        if m > 1:
            # (xy)**p = x**p y**p holds in G**m exactly when it holds in G,
            # coordinate by coordinate: no power map of G**m is built
            power_group.p_abelian = g.p_abelian
        rep = is_regular(power_group)
        for key in totals:
            totals[key] += rep.counters[key]
        if rep.holds is False:
            witness = dict(rep.witness or {})
            witness["power"] = m
            return PropertyReport("v-regular", False, witness=witness,
                                  counters={**totals, "powers_checked": m})
        checked.append(m)
        if g.is_abelian():
            return PropertyReport("v-regular", True,
                                  counters={**totals, "powers_checked": m})
    if not checked:
        raise ClosureCapExceeded(len(g), cap)
    caps.append(f"direct powers checked: {checked}; the full property "
                "quantifies over all finite powers")
    return PropertyReport("v-regular", HOLDS_CAPPED,
                          counters={**totals, "powers_checked": len(checked)},
                          caps=caps)


# -- elementwise pair identities ----------------------------------------------------

def is_p_abelian(g: FiniteGroup) -> PropertyReport:
    """(xy)**p = x**p y**p for all pairs.  An abelian g passes without a
    pair evaluated, since commuting pairs satisfy the identity, and so does
    any g whose generators settle it (``FiniteGroup.p_abelian``); the pair
    scan runs only to find the least failing pair."""
    p, _ = g.p_group_base()
    if g.is_abelian() or g.p_abelian:
        return PropertyReport("p-abelian", True, counters=_all_pairs_pass(g))
    mismatches = _power_mismatches(g, g.power_map(p))
    return _pair_report(
        "p-abelian", g, lambda x: next(mismatches(x), None),
        lambda i, j: {"prime": p, "explanation": "(xy)^p differs from x^p y^p"})


def is_engel(g: FiniteGroup, k: int) -> PropertyReport:
    """The k-fold iterated commutator [x, y, y, ..., y] is trivial for all
    pairs.  An abelian g passes without a pair evaluated: every commutator
    in it is trivial.  So does a g of nilpotency class c <= k, whose
    counters carry c as ``class``: [x, y, ..., y] lies in gamma_(k+1),
    which is trivial.  Only a g of class above k (``nilpotency_class``),
    or not nilpotent, reads the Cayley table and scans its pairs; a row's
    scan stops once its bracket levels are seen to cycle."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.is_abelian():
        return PropertyReport("engel", True, counters=_all_pairs_pass(g))
    try:
        klass = g.nilpotency_class() if k >= 2 else None
    except ValueError:  # the series stalls: g is not nilpotent
        klass = None
    if klass is not None and klass <= k:
        return PropertyReport("engel", True,
                              counters={**_all_pairs_pass(g), "class": klass})
    table, inv, n = g.full_table(), g.inverses(), len(g)

    def step(brackets: list[int]) -> list[int]:
        # one commutator with y per level: [t, y] for t = brackets[y]
        return [table[table[inv[t]][inv[y]]][table[t][y]]
                for y, t in enumerate(brackets)]

    @functools.lru_cache(maxsize=1)  # the witness reads the failing row again
    def level_k(x: int) -> list[int]:
        # brackets[y] = [x, y, ..., y].  A level is a function of the one
        # before, so once a level equals the one `period` levels back, the
        # levels repeat with that period.  Brent's search compares each
        # level with one saved level, moved on at powers of two; level k is
        # then at most `period` steps further on
        brackets = saved = [x] * n
        power = period = 1
        for depth in range(1, k + 1):
            brackets = step(brackets)
            if brackets == saved:
                for _ in range((k - depth) % period):
                    brackets = step(brackets)
                break
            if period == power:
                saved, power, period = brackets, 2 * power, 0
            period += 1
        return brackets

    return _pair_report(
        "engel", g,
        lambda x: _first_true(map(operator.ne, level_k(x), repeat(g.identity))),
        lambda i, j: {"depth": k, "bracket": g.describe(level_k(i)[j]),
                      "explanation": "iterated commutator does not vanish"})


def order_submultiplicativity(g: FiniteGroup) -> PropertyReport:
    """Whether |AB| divides max(|A|, |B|) for every pair: a consequence of
    property (S), which the caller decides."""
    orders = [g.element_order(i) for i in range(len(g))]
    return _pair_report(
        "order-divisibility", g,
        lambda x: _first_true(map(operator.mod,
                                  map(max, repeat(orders[x]), orders),
                                  map(orders.__getitem__, g.row(x)))),
        lambda i, j: {"orders": [orders[i], orders[j], orders[g.row(i)[j]]],
                      "explanation": "|AB| does not divide max(|A|, |B|)"})


# -- irreducibility and exponent-vector containment --------------------------------

def _element(g: FiniteGroup, i: int) -> MonomialMatrix:
    """Element i of the monomial group g, decoded alone."""
    return g.codes[i] if g.codec is None else g.codec.decode(g.codes[i])


def _degree(g: FiniteGroup) -> int:
    return g.codec.n if isinstance(g.codec, MonomialCodec) else _element(g, g.identity).n


def _mobius_totient(q: int) -> tuple[int, int]:
    """(mu(q), phi(q)) for q >= 1, by trial division."""
    mu, phi = 1, q
    while q > 1:
        p = least_prime_factor(q)
        mu, phi = -mu, phi // p * (p - 1)
        q //= p
        if q % p == 0:
            mu = 0
            while q % p == 0:
                q //= p
    return mu, phi


def _difference_orders(g: FiniteGroup) -> dict[int, int]:
    """q -> the number of terms of order q in sum_x |chi(x)|**2 =
    sum_x sum_(a, b) a / b, a and b the diagonal entries of x at its fixed
    points.  The entries are read as exponents over Z/M, M the lcm of the
    generators' entry denominators: off a ``MonomialCodec`` code's ranks, or
    else off each entry's reduced fraction num/den, with no M-entry table."""
    if isinstance(g.codec, MonomialCodec):
        m, exponent = g.codec.modulus, g.codec.exps.__getitem__
        elements = g.codes  # (perm, ranks), rank r for the exponent exps[r]
    else:  # the elements are the codes themselves: nothing to decode
        m = math.lcm(*(e.den for s in g.gens for e in g.elements[s].entries))
        def exponent(e) -> int:
            return e.num * (m // e.den)
        elements = ((el.perm, el.entries) for el in g.elements)
    fixed_of: dict[tuple[int, ...], list[int]] = {}
    terms, diffs = 0, []  # the terms a / a, and a - b for a / b and b / a
    for perm, values in elements:
        fixed = fixed_of.get(perm)
        if fixed is None:
            fixed = fixed_of[perm] = [j for j, i in enumerate(perm) if i == j]
        if fixed:
            at = [exponent(values[j]) for j in fixed]
            terms += len(at)
            diffs += [a - b for t, a in enumerate(at) for b in at[:t]]
    counts = {1: terms}
    for d, c in Counter(diffs).items():
        q = m // math.gcd(d, m)
        counts[q] = counts.get(q, 0) + 2 * c
    return counts


def is_irreducible(g: FiniteGroup) -> bool:
    """The character chi of the monomial group g has norm 1, decided in
    integers: no float, no fraction, no element decoded.

    sum_x |chi(x)|**2 = |G| * <chi, chi> is rational, so it equals its
    average over the Galois group of the cyclotomic field, where a root of
    unity of order q averages to mu(q)/phi(q): the Ramanujan sum
    c_q(1) = mu(q), the sum of the primitive q-th roots, over their number
    (Hardy and Wright, ch. 16).  Each q divides an element order, hence
    |G|, so trial division factors it at once.  Scaled by the lcm P of the
    phi(q), the norm is 1 exactly when sum count_q * mu(q) * P/phi(q) equals
    |G| * P (Isaacs, Character Theory of Finite Groups, ch. 2).  A degree-1
    group is irreducible and an abelian one of degree >= 2 reducible
    outright."""
    if _degree(g) == 1:
        return True
    if g.is_abelian():
        return False
    terms = [(count, *_mobius_totient(q)) for q, count in _difference_orders(g).items()]
    scale = math.lcm(*(phi for _, _, phi in terms))
    return sum(count * mu * (scale // phi) for count, mu, phi in terms) == len(g) * scale


def chi_containment(g: FiniteGroup, j: int | None = None) -> PropertyReport:
    """For an irreducible exponent-p monomial group of prime degree p that
    contains the standard cycle (up to diagonal similarity): the diagonal
    exponent vectors of the j-th lower central term lie in the image of
    the j-th power of (identity - rotation) over Z/p.

    ``j = None`` checks every level up to the nilpotency class.

    An element on the cycle's permutation with cycle key ((p, 0),) is the
    cycle conjugated by a diagonal E, which fixes diagonal matrices and
    keeps the others off the diagonal: so g's own lower central terms are
    read, not the conjugate's, and only their members are decoded."""
    p = _degree(g)
    if not is_prime(p):
        raise ValueError(f"degree {p} is not prime")
    cycle_perm, cycle_key = big_cycle(p, 1).perm, ((p, 0),)
    if isinstance(g.codec, MonomialCodec):
        found = any(code[0] == cycle_perm and g.codec.cycle_key(code) == cycle_key
                    for code in g.codes)
    else:
        found = any(el.perm == cycle_perm and el.cycle_data()[1] == cycle_key
                    for el in g.codes)
    if not found:
        raise ValueError("no element is diagonally similar to the standard cycle")
    if g.p_group_base()[0] != p:
        raise ValueError("closure is not a p-group for the matrix degree")
    if g.exponent() != p:
        raise ValueError(f"closure has exponent {g.exponent()}, expected {p}")
    if not is_irreducible(g):
        raise ValueError("closure is not irreducible")
    series = g.lower_central_series()
    klass = len(series) - 1
    levels = [j] if j is not None else list(range(1, klass + 1))
    elements_checked = 0
    for level in levels:
        if level < 0:
            raise ValueError("j must be nonnegative")
        if level == 0 or level > klass:
            continue
        basis = rotation_difference_image(p, min(level, p))
        for idx in series[level].members:
            el = _element(g, idx)
            if not el.is_diagonal():
                raise ValueError(
                    f"lower central term {level} contains a non-diagonal element")
            vec = diagonal_exponents(el, p, 1)
            elements_checked += 1
            if not in_row_span(basis, vec, p):
                witness = {"level": level, "element_index": idx,
                           "element": g.describe(idx),
                           "exponents": list(vec),
                           "basis": [list(r) for r in basis],
                           "explanation": "exponent vector escapes the "
                                          "rotation-difference image"}
                return PropertyReport("chi-containment", False, witness=witness,
                                      counters={"elements_checked": elements_checked})
    return PropertyReport("chi-containment", True,
                          counters={"elements_checked": elements_checked,
                                    "levels_checked": len(levels),
                                    "class": klass})
