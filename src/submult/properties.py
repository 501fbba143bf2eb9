"""Decision procedures for the spectral and power-structure properties.

Every decider takes a closed ``FiniteGroup``: closing generators, and
choosing the cap for that, is the caller's job (``has_property_s(close(gens))``),
so one closure and its Cayley table serve every question asked of it.
Only ``has_property_s_hat_basic``, which builds its own representations,
and ``is_v_regular_bounded``, which builds direct powers, take a cap.

Every check returns a ``PropertyReport``: a verdict (True, False, or
"holds-capped" when a cap prevented deciding an unbounded quantifier),
a replayable witness on failure, and work counters.  Witnesses cite
deterministic element indices plus serialized elements; pair scans are
serial and run in ascending index order, so a reported witness is the
lexicographically least failing pair.

Verdict conventions:
  * property (S) is checked on ordered pairs over the full closure, never
    just on generators;
  * spectra compare as sets (multiplicity ignored);
  * bounded direct-power regularity never reports an unqualified True,
    since the underlying quantifier ranges over all finite powers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .cyclotomic import ONE, Spectrum, is_prime
from .families import all_characters, big_cycle, induced_rep_generators
from .groups import (DEFAULT_CLOSURE_CAP, ClosureCapExceeded, FiniteGroup,
                     close, direct_power)
from .monomial import (MonomialMatrix, diagonal_exponents, in_row_span,
                       rotation_difference_image)

HOLDS_CAPPED = "holds-capped"
IRREDUCIBLE_TOLERANCE = 1e-6


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


def _scan_pairs(n: int, check: Callable[[int, int], bool]
                ) -> tuple[tuple[int, int] | None, int]:
    """Ascending scan of ordered pairs; returns the least failing pair and
    the number of pairs checked."""
    count = 0
    for i in range(n):
        for j in range(n):
            count += 1
            if not check(i, j):
                return (i, j), count
    return None, count


# -- property (S): submultiplicative spectra -------------------------------------

class _SpectralClosure:
    """A closed monomial group's Cayley table with interned per-element
    spectra."""

    def __init__(self, g: FiniteGroup):
        self.table = g.full_table()
        interned: dict[tuple, int] = {}
        self.unique: list[Spectrum] = []
        self.sid: list[int] = []
        for el in g.elements:
            s = el.spectrum()
            k = s.key()
            if k not in interned:
                interned[k] = len(self.unique)
                self.unique.append(s)
            self.sid.append(interned[k])
        self._prod: dict[tuple[int, int], Spectrum] = {}
        self._ok: dict[tuple[int, int, int], bool] = {}

    def product_spectrum(self, a: int, b: int) -> Spectrum:
        prod = self._prod.get((a, b))
        if prod is None:
            prod = self._prod[(a, b)] = self.unique[a].product(self.unique[b])
        return prod

    def pair_ok(self, i: int, j: int) -> bool:
        a, b, ab = self.sid[i], self.sid[j], self.sid[self.table[i][j]]
        key = (a, b, ab)
        v = self._ok.get(key)
        if v is None:
            v = self._ok[key] = self.unique[ab].issubset(self.product_spectrum(a, b))
        return v


def has_property_s(g: FiniteGroup) -> PropertyReport:
    """Every eigenvalue of A*B is a product of an eigenvalue of A and one
    of B, for every ordered pair in the monomial group g."""
    sc = _SpectralClosure(g)
    n = len(g)
    fail, count = _scan_pairs(n, sc.pair_ok)
    counters = {"pairs_checked": count, "elements_checked": n}
    if fail is None:
        return PropertyReport("s", True, counters=counters)
    i, j = fail
    k = sc.table[i][j]
    prod = sc.product_spectrum(sc.sid[i], sc.sid[j])
    offending = next(u for u in sc.unique[sc.sid[k]] if u not in prod)
    witness = {
        "left_index": i, "right_index": j,
        "left": g.describe(i), "right": g.describe(j),
        "product_index": k,
        "eigenvalue": offending.to_json(),
        "left_spectrum": sc.unique[sc.sid[i]].to_json(),
        "right_spectrum": sc.unique[sc.sid[j]].to_json(),
        "product_spectrum": sc.unique[sc.sid[k]].to_json(),
        "explanation": "eigenvalue of the product lies outside the set of "
                       "pairwise eigenvalue products",
    }
    return PropertyReport("s", False, witness=witness, counters=counters)


def has_property_s_hat_basic(p: int, c: int, e: int, *,
                             cap: int = DEFAULT_CLOSURE_CAP) -> PropertyReport:
    """Property (S) over the full induced-representation family of the
    basic split-extension group.

    Every irreducible representation of the family of degree above 1 is
    induced from a character of the abelian base, and degree-1
    representations are submultiplicative outright, so the enumeration is
    exhaustive.  Reducible induced images are checked too, which is sound:
    the property must hold on every subrepresentation.  A representation
    failing (S) rules the property out.
    """
    reps = [induced_rep_generators(p, c, e, chi)
            for chi in all_characters(p, c, e)]
    total_pairs = 0
    for idx, rep in enumerate(reps):
        sub = has_property_s(close(rep, cap))
        total_pairs += sub.counters.get("pairs_checked", 0)
        if sub.holds is False:
            witness = dict(sub.witness or {})
            witness["representation_index"] = idx
            return PropertyReport("s-hat", False, witness=witness,
                                  counters={"pairs_checked": total_pairs,
                                            "reps_checked": idx + 1})
    return PropertyReport("s-hat", True, counters={"pairs_checked": total_pairs,
                                                   "reps_checked": len(reps)})


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

def _exponent_levels(g: FiniteGroup) -> tuple[int, int]:
    p, _ = g.p_group_base()
    e = 0
    exp = g.exponent()
    while exp > 1:
        exp //= p
        e += 1
    return p, e


PowerSet = Callable[[FiniteGroup, int], tuple[int, ...]]


def _power_failure(g: FiniteGroup, power_set: PowerSet
                   ) -> tuple[int, int] | None:
    """First (k, witness_index) where ``power_set(g, k)`` differs from the
    subgroup it generates, else None.  With ``order_dividing_set`` that
    subgroup is omega_k, with ``power_image_set`` it is agemo_k."""
    if len(g) == 1:
        return None
    _, e = _exponent_levels(g)
    for k in range(1, e + 1):
        elements = power_set(g, k)
        inside = set(elements)
        extra = [m for m in g.subgroup(elements).members if m not in inside]
        if extra:
            return k, min(extra)
    return None


def has_wp2(g: FiniteGroup) -> PropertyReport:
    """For each k, the set of elements of order dividing p**k already forms
    the subgroup it generates."""
    g.tabulate()
    fail = _power_failure(g, FiniteGroup.order_dividing_set)
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
                  power_set: PowerSet) -> PropertyReport:
    """Run the power probe over every section H/K of g."""
    if len(g) > section_cap:
        g.tabulate()
        base_fail = _power_failure(g, power_set)
        if base_fail is not None:
            k, idx = base_fail
            witness = {"k": k, "element_index": idx, "element": g.describe(idx),
                       "section": "the whole group",
                       "explanation": "the group itself is a failing section"}
            return PropertyReport(prop, False, witness=witness,
                                  counters={"sections_checked": 1})
        return PropertyReport(
            prop, HOLDS_CAPPED, counters={"sections_checked": 1},
            caps=[f"|G| = {len(g)} exceeds section cap {section_cap}; only "
                  "the group itself was checked"])
    checked = 0
    for h, kernel, section in g.sections(section_cap):
        checked += 1
        fail = _power_failure(section, power_set)
        if fail is not None:
            k, idx = fail
            witness = {"k": k, "element_index": idx,
                       "element": section.describe(idx),
                       "subgroup_order": len(h), "kernel_order": len(kernel),
                       "subgroup_members": list(h.members),
                       "explanation": "section fails the power-structure "
                                      "set/subgroup equality"}
            return PropertyReport(prop, False, witness=witness,
                                  counters={"sections_checked": checked})
    return PropertyReport(prop, True, counters={"sections_checked": checked})


def has_p2(g: FiniteGroup, *, section_cap: int = 256) -> PropertyReport:
    """Every section satisfies the wp2 equality (order-dividing sets are
    subgroups); exhaustive below the section cap, capped above it."""
    return _section_scan(g, section_cap, "p2", FiniteGroup.order_dividing_set)


def has_p1(g: FiniteGroup, *, section_cap: int = 256) -> PropertyReport:
    """Every section has its p**k-th power set equal to the subgroup those
    powers generate."""
    return _section_scan(g, section_cap, "p1", FiniteGroup.power_image_set)


# -- regularity ------------------------------------------------------------------

def _pair_derived(table: list[list[int]], inv: list[int], identity: int,
                  x: int, y: int) -> tuple[int, ...]:
    """Derived subgroup of <x, y>, the normal closure of c = [x, y] there,
    found in one breadth-first search.

    It is the least set S holding the identity that is closed under
    m -> m*c and conjugation by x and by y.  N is such a set, so S <= N.
    Conjugation maps the finite S onto itself, so {w : S*w = S} is a
    subgroup holding c and normalized by x and y; it holds N, so N <= S.
    """
    c = table[table[inv[x]][inv[y]]][table[x][y]]
    row_xi, row_yi = table[inv[x]], table[inv[y]]
    seen = {identity}
    members = [identity]
    for m in members:  # members grows while it is walked
        for t in (table[m][c], table[row_xi[m]][x], table[row_yi[m]][y]):
            if t not in seen:
                seen.add(t)
                members.append(t)
    return tuple(sorted(members))


def is_regular(g: FiniteGroup) -> PropertyReport:
    """For every ordered pair (x, y) there is z in the derived subgroup of
    the pair-generated subgroup with (xy)**p = x**p * y**p * z**p.

    Commuting pairs reduce to (xy)**p = x**p * y**p since the derived
    subgroup is trivial.  For the rest, z**p ranges over the p-th powers
    of that derived subgroup, cached per distinct subgroup.
    """
    p, _ = g.p_group_base()
    n = len(g)
    table = g.full_table()
    identity = g.identity
    pw = g.power_map(p)
    inv = [g.inv(i) for i in range(n)]
    zp_cache: dict[tuple[int, ...], frozenset[int]] = {}
    best: tuple[int, int] | None = None
    pairs = 0

    def ordered_fails(a: int, b: int, zp: frozenset[int] | None) -> bool:
        ab_p = pw[table[a][b]]
        rhs = table[pw[a]][pw[b]]
        if zp is None:
            return ab_p != rhs
        return table[inv[rhs]][ab_p] not in zp

    for x in range(n):
        row_x = table[x]
        for y in range(x, n):
            commuting = row_x[y] == table[y][x]
            if commuting:
                zp = None
            else:
                derived = _pair_derived(table, inv, identity, x, y)
                zp = zp_cache.get(derived)
                if zp is None:
                    zp = zp_cache[derived] = frozenset(pw[z] for z in derived)
            for a, b in ((x, y),) if x == y else ((x, y), (y, x)):
                pairs += 1
                if ordered_fails(a, b, zp):
                    cand = (a, b)
                    if best is None or cand < best:
                        best = cand
    counters = {"pairs_checked": pairs,
                "pair_subgroups_analyzed": len(zp_cache)}
    if best is None:
        return PropertyReport("regular", True, counters=counters)
    x, y = best
    witness = {"left_index": x, "right_index": y,
               "left": g.describe(x), "right": g.describe(y),
               "prime": p,
               "explanation": "no element z of the derived subgroup of the "
                              "pair-generated subgroup satisfies "
                              "(xy)^p = x^p y^p z^p"}
    return PropertyReport("regular", False, witness=witness, counters=counters)


def is_v_regular_bounded(g: FiniteGroup, powers: int, *,
                         cap: int = DEFAULT_CLOSURE_CAP) -> PropertyReport:
    """Regularity of G, G^2, ..., G^powers.  Success is always reported as
    capped evidence: the genuine property quantifies over all finite
    direct powers."""
    checked = []
    caps: list[str] = []
    total_pairs = 0
    for m in range(1, powers + 1):
        if len(g) ** m > cap:
            caps.append(f"power {m} would have order {len(g) ** m} > cap {cap}; "
                        "stopping early")
            break
        power_group = g if m == 1 else direct_power(g, m, cap)
        rep = is_regular(power_group)
        total_pairs += rep.counters.get("pairs_checked", 0)
        if rep.holds is False:
            witness = dict(rep.witness or {})
            witness["power"] = m
            return PropertyReport("v-regular", False, witness=witness,
                                  counters={"pairs_checked": total_pairs,
                                            "powers_checked": m})
        checked.append(m)
    if not checked:
        raise ClosureCapExceeded(len(g), cap)
    caps.append(f"direct powers checked: {checked}; the full property "
                "quantifies over all finite powers")
    return PropertyReport("v-regular", HOLDS_CAPPED,
                          counters={"pairs_checked": total_pairs,
                                    "powers_checked": len(checked)},
                          caps=caps)


# -- elementwise pair identities ----------------------------------------------------

def is_p_abelian(g: FiniteGroup) -> PropertyReport:
    """(xy)**p = x**p y**p for all pairs."""
    p, _ = g.p_group_base()
    n = len(g)
    table = g.full_table()
    pw = g.power_map(p)

    fail, count = _scan_pairs(
        n, lambda i, j: pw[table[i][j]] == table[pw[i]][pw[j]])
    counters = {"pairs_checked": count}
    if fail is None:
        return PropertyReport("p-abelian", True, counters=counters)
    i, j = fail
    witness = {"left_index": i, "right_index": j, "prime": p,
               "left": g.describe(i), "right": g.describe(j),
               "explanation": "(xy)^p differs from x^p y^p"}
    return PropertyReport("p-abelian", False, witness=witness, counters=counters)


def is_engel(g: FiniteGroup, k: int) -> PropertyReport:
    """The k-fold iterated commutator [x, y, y, ..., y] is trivial for all
    pairs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(g)
    g.full_table()
    identity = g.identity

    fail, count = _scan_pairs(
        n, lambda i, j: g.engel_bracket(i, j, k) == identity)
    counters = {"pairs_checked": count}
    if fail is None:
        return PropertyReport("engel", True, counters=counters)
    i, j = fail
    witness = {"left_index": i, "right_index": j, "depth": k,
               "left": g.describe(i), "right": g.describe(j),
               "bracket": g.describe(g.engel_bracket(i, j, k)),
               "explanation": "iterated commutator does not vanish"}
    return PropertyReport("engel", False, witness=witness, counters=counters)


def order_submultiplicativity(g: FiniteGroup) -> PropertyReport:
    """On a monomial group with property (S), |AB| divides max(|A|, |B|)
    for all pairs.  If the group fails (S) nothing is asserted (vacuous
    pass)."""
    if has_property_s(g).holds is False:
        return PropertyReport(
            "order-divisibility", True,
            counters={"pairs_checked": 0},
            caps=["vacuous: the closure fails property s, so the "
                  "divisibility is not asserted"])
    table = g.full_table()
    n = len(g)
    orders = [g.element_order(i) for i in range(n)]

    def check(i: int, j: int) -> bool:
        return max(orders[i], orders[j]) % orders[table[i][j]] == 0

    fail, count = _scan_pairs(n, check)
    counters = {"pairs_checked": count}
    if fail is None:
        return PropertyReport("order-divisibility", True, counters=counters)
    i, j = fail
    witness = {"left_index": i, "right_index": j,
               "left": g.describe(i), "right": g.describe(j),
               "orders": [orders[i], orders[j], orders[table[i][j]]],
               "explanation": "|AB| does not divide max(|A|, |B|)"}
    return PropertyReport("order-divisibility", False, witness=witness,
                          counters=counters)


# -- exponent-vector containment for degree-p groups ----------------------------------

def character_norm(g: FiniteGroup) -> float:
    """Mean squared absolute character value over the monomial group g
    (float bridge); 1.0 characterizes irreducibility."""
    return sum(abs(el.trace()) ** 2 for el in g.elements) / len(g)


def is_irreducible(g: FiniteGroup) -> bool:
    return abs(character_norm(g) - 1.0) < IRREDUCIBLE_TOLERANCE


def _normalize_cycle_to_standard(g: FiniteGroup) -> FiniteGroup:
    """Return g conjugated (diagonally) so that the plain cycle is a group
    element; requires some element with the standard cycle permutation and
    entry product 1."""
    n = g.elements[0].n
    standard = big_cycle(n, 1)
    if standard.key() in g.index:
        return g
    cycle_perm = standard.perm
    for el in g.elements:
        if el.perm != cycle_perm:
            continue
        # diagonal similarity E with E^-1 el E = standard cycle:
        # e_{j+1} = e_j * entry_j, consistent since the entries multiply to 1
        diag = [ONE]
        for j in range(n - 1):
            diag.append(diag[-1] * el.entries[j])
        total = diag[-1] * el.entries[n - 1]
        if total != diag[0]:
            continue
        e_mat = MonomialMatrix.diagonal(diag)
        e_inv = e_mat.inverse()
        return close([e_inv * g.elements[i] * e_mat for i in g.gens], len(g))
    raise ValueError("no element is diagonally similar to the standard cycle")


def chi_containment(g: FiniteGroup, j: int | None = None) -> PropertyReport:
    """For an irreducible exponent-p monomial group of prime degree p that
    contains the standard cycle (up to diagonal similarity): the diagonal
    exponent vectors of the j-th lower central term lie in the image of
    the j-th power of (identity - rotation) over Z/p.

    ``j = None`` checks every level up to the nilpotency class.
    """
    p = g.elements[0].n
    if not is_prime(p):
        raise ValueError(f"degree {p} is not prime")
    std = _normalize_cycle_to_standard(g)
    if std.p_group_base()[0] != p:
        raise ValueError("closure is not a p-group for the matrix degree")
    if std.exponent() != p:
        raise ValueError(f"closure has exponent {std.exponent()}, expected {p}")
    if not is_irreducible(g):
        raise ValueError("closure is not irreducible")
    series = std.lower_central_series()
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
            el = std.elements[idx]
            if not el.is_diagonal():
                raise ValueError(
                    f"lower central term {level} contains a non-diagonal element")
            vec = diagonal_exponents(el, p, 1)
            elements_checked += 1
            if not in_row_span(basis, vec.coords, p):
                witness = {"level": level, "element_index": idx,
                           "element": std.describe(idx),
                           "exponents": list(vec.coords),
                           "basis": [list(r) for r in basis],
                           "explanation": "exponent vector escapes the "
                                          "rotation-difference image"}
                return PropertyReport("chi-containment", False, witness=witness,
                                      counters={"elements_checked": elements_checked})
    return PropertyReport("chi-containment", True,
                          counters={"elements_checked": elements_checked,
                                    "levels_checked": len(levels),
                                    "class": klass})
