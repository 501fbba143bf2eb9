"""Verification harness: a fixed corpus of groups and the suites T1..T9.

Each suite checks a family of facts the engine must reproduce at desk
scale and reports one pass/fail line per criterion.  The random seed from
the run configuration drives only the sampling suites (T1 and the sampled
pairs in T7); everything else is exhaustive.

T1 is the only user of numpy (its float eigensolver oracle), and it
imports numpy when it runs, so importing this module, and with it the
``check``, ``analyze``, ``construct`` and ``spectrum`` commands, never
loads numpy.  Without numpy installed, T1 raises ``OracleUnavailable``.
"""

from __future__ import annotations

import cmath
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from operator import itemgetter
from typing import Callable, Sequence

from .config import RunConfig
from .cyclotomic import ONE, CyclotomicUnit, Spectrum
from .families import (basic_group, big_cycle, cyclic_generator,
                       diagonal_abelian_generators, dihedral_generators,
                       heisenberg_generators, induced_rep_generators,
                       quaternion_generators, wreath_generators)
from .groups import FiniteGroup, close, direct_product, is_prime
from .monomial import MonomialMatrix, rotation_difference_image
from .properties import (PropertyReport, chi_containment, has_property_s,
                         has_property_s_hat_basic, has_wp2, is_engel,
                         is_irreducible, is_regular, is_v_regular_bounded,
                         order_submultiplicativity)


@dataclass
class CorpusEntry:
    name: str
    make_gens: Callable[[], list[MonomialMatrix]] | None
    make_group: Callable[[], FiniteGroup]
    _gens: list[MonomialMatrix] | None = field(default=None, repr=False)
    _group: FiniteGroup | None = field(default=None, repr=False)
    _s_report: PropertyReport | None = field(default=None, repr=False)

    @property
    def is_monomial(self) -> bool:
        return self.make_gens is not None

    def gens(self) -> list[MonomialMatrix]:
        if self._gens is None:
            assert self.make_gens is not None
            self._gens = self.make_gens()
        return self._gens

    def group(self) -> FiniteGroup:
        if self._group is None:
            self._group = self.make_group()
        return self._group

    def s_report(self) -> PropertyReport:
        if self._s_report is None:
            self._s_report = has_property_s(self.group())
        return self._s_report

    def degree(self) -> int:
        return self.gens()[0].n


def _monomial_entry(name: str, make_gens: Callable[[], list[MonomialMatrix]]
                    ) -> CorpusEntry:
    return CorpusEntry(name, make_gens, lambda: close(make_gens(), name=name))


@lru_cache(maxsize=1)
def corpus() -> dict[str, CorpusEntry]:
    """The named group corpus the implication suites range over."""
    entries = [
        _monomial_entry("cyclic5", lambda: cyclic_generator(5)),
        _monomial_entry("cyclic8", lambda: cyclic_generator(8)),
        _monomial_entry("cyclic9", lambda: cyclic_generator(9)),
        _monomial_entry("cyclic16", lambda: cyclic_generator(16)),
        _monomial_entry("klein4", lambda: diagonal_abelian_generators(
            2, [[1, 0], [0, 1]])),
        _monomial_entry("c4xc2", lambda: diagonal_abelian_generators(
            4, [[1, 0], [0, 2]])),
        _monomial_entry("c2cubed", lambda: diagonal_abelian_generators(
            2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
        _monomial_entry("c4xc4", lambda: diagonal_abelian_generators(
            4, [[1, 0], [0, 1]])),
        _monomial_entry("c3xc3", lambda: diagonal_abelian_generators(
            3, [[1, 2, 0], [0, 1, 2]])),
        _monomial_entry("bigcycle9", lambda: [big_cycle(3, 2)]),
        _monomial_entry("quaternion8", quaternion_generators),
        _monomial_entry("dihedral8", dihedral_generators),
        _monomial_entry("wreath2", lambda: wreath_generators(2)),
        _monomial_entry("heisenberg3", lambda: heisenberg_generators(3)),
        _monomial_entry("heisenberg5", lambda: heisenberg_generators(5)),
        _monomial_entry("wreath3", lambda: wreath_generators(3)),
        _monomial_entry("induced_b321", lambda: induced_rep_generators(
            3, 2, 1, (0, 1))),
        _monomial_entry("induced_b521", lambda: induced_rep_generators(
            5, 2, 1, (0, 1))),
        CorpusEntry("basic_b321", None, lambda: basic_group(3, 2, 1)),
        CorpusEntry("basic_b521", None, lambda: basic_group(5, 2, 1)),
        CorpusEntry("h3xc9", None, lambda: direct_product(
            close(heisenberg_generators(3)), close(cyclic_generator(9)),
            name="h3xc9")),
    ]
    return {entry.name: entry for entry in entries}


ABELIAN_2GROUPS_LE16 = ("cyclic8", "cyclic16", "klein4", "c4xc2",
                        "c2cubed", "c4xc4")


# -- suite plumbing ----------------------------------------------------------------

@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        detail = f" ({self.detail})" if self.detail else ""
        return f"  [{mark}] {self.name}{detail}"


@dataclass
class SuiteResult:
    suite: str
    title: str
    criteria: list[CriterionResult]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_json(self) -> dict:
        return {"suite": self.suite, "title": self.title,
                "passed": self.passed, "elapsed_seconds": round(self.elapsed, 3),
                "criteria": [{"name": c.name, "passed": c.passed,
                              "detail": c.detail} for c in self.criteria]}


class _Suite:
    def __init__(self) -> None:
        self.criteria: list[CriterionResult] = []

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.criteria.append(CriterionResult(name, bool(passed), detail))
        return bool(passed)


# -- T1: exact spectra against the floating eigensolver ------------------------------

def _random_monomial(rng: random.Random) -> tuple[MonomialMatrix, int]:
    n = rng.randint(1, 12)
    p = rng.choice([2, 3, 5])
    perm = list(range(n))
    rng.shuffle(perm)
    entries = []
    for _ in range(n):
        den = p ** rng.randint(0, 2)
        entries.append(CyclotomicUnit(rng.randrange(den), den))
    return MonomialMatrix(n, tuple(perm), tuple(entries)), p


def _nearest_fraction(x: float, max_den: int) -> tuple[int, int]:
    """The closest fraction to ``x`` with denominator at most ``max_den``,
    as (numerator, denominator) in lowest terms: the value of
    ``Fraction(x).limit_denominator(max_den)``, computed on the integers of
    ``x.as_integer_ratio()`` by the same continued-fraction walk, so that
    ties go the same way."""
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    exact_den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # the candidates are p1/q1 and (p0 + k p1)/(q0 + k q1), 1/(q1 (q0 + k q1))
    # apart, and x lies d/(q1 exact_den) from p1/q1
    if 2 * d * (q0 + k * q1) <= exact_den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _round_to_root_of_unity(value: complex, max_den: int
                            ) -> tuple[CyclotomicUnit, float]:
    # CyclotomicUnit reduces the numerator mod the denominator
    unit = CyclotomicUnit(*_nearest_fraction(cmath.phase(value) / (2 * cmath.pi),
                                             max_den))
    return unit, abs(value - unit.to_complex())


class OracleUnavailable(RuntimeError):
    """A suite's oracle needs an optional dependency that is not installed."""


def _sampled_spectra(seed: int) -> list[tuple[MonomialMatrix, int, list[complex]]]:
    """T1's 500 seeded random monomial matrices, each with its prime p and
    its float eigenvalues.

    The matrices are drawn in seed order and grouped by size, and each size
    goes through numpy's eigensolver once as a stacked array.  Raises
    ``ImportError`` without numpy."""
    import numpy as np
    rng = random.Random(seed)
    by_size: dict[int, list[tuple[MonomialMatrix, int]]] = {}
    for _ in range(500):
        m, p = _random_monomial(rng)
        by_size.setdefault(m.n, []).append((m, p))
    samples = []
    for batch in by_size.values():
        stacked = np.linalg.eigvals(np.array([m.to_dense() for m, _ in batch]))
        samples.extend((m, p, eigs) for (m, p), eigs in zip(batch, stacked.tolist()))
    return samples


def suite_t1(config: RunConfig) -> list[CriterionResult]:
    """Exact spectra of 500 seeded random monomial matrices equal the dense
    float eigensolver output after nearest-root-of-unity rounding."""
    try:
        samples = _sampled_spectra(config.seed)
    except ImportError as exc:
        raise OracleUnavailable(
            "suite T1 checks spectra against numpy's eigensolver and numpy "
            "is not installed: pip install 'submult[oracle]'") from exc
    suite = _Suite()
    mismatches = 0
    worst = 0.0
    for m, p, eigs in samples:
        exact = set(m.spectrum())
        rounded = set()
        for lam in eigs:
            unit, residual = _round_to_root_of_unity(lam, m.n * p * p)
            worst = max(worst, residual)
            rounded.add(unit)
        if rounded != exact:
            mismatches += 1
    suite.check("500 sampled spectra match the float eigensolver",
                mismatches == 0, f"mismatches={mismatches}, seed={config.seed}")
    suite.check("max rounding residual below 1e-8", worst < 1e-8,
                f"residual={worst:.3e}")
    return suite.criteria


# -- T2: the order-8 counterexamples and abelian 2-groups ----------------------------

def _witness_replays(report: PropertyReport) -> bool:
    """Re-evaluate a property-s witness from its serialized matrices."""
    w = report.witness or {}
    left = MonomialMatrix.from_json(w["left"])
    right = MonomialMatrix.from_json(w["right"])
    eigenvalue = CyclotomicUnit.from_json(w["eigenvalue"])
    prod = left.spectrum().product(right.spectrum())
    spectrum = (left * right).spectrum()
    return (eigenvalue in spectrum and eigenvalue not in prod
            and not spectrum.issubset(prod))


def suite_t2(config: RunConfig) -> list[CriterionResult]:
    """Nonabelian 2-groups of order 8 fail property (s) with replayable
    witnesses; the corpus abelian 2-groups of order <= 16 pass."""
    suite = _Suite()
    for name in ("quaternion8", "dihedral8"):
        report = corpus()[name].s_report()
        suite.check(f"{name} fails property s", report.holds is False)
        suite.check(f"{name} witness replays", report.holds is False
                    and _witness_replays(report))
    rotation = MonomialMatrix.diagonal([CyclotomicUnit(1, 4),
                                        CyclotomicUnit(3, 4)])
    swap = MonomialMatrix(2, (1, 0), (ONE, ONE))
    product_spec = rotation.spectrum().product(swap.spectrum())
    rs_spec = (rotation * swap).spectrum()
    suite.check("dihedral pair: sigma(rs) = {1,-1} outside sigma(r)sigma(s) = {i,-i}",
                rs_spec == Spectrum([ONE, CyclotomicUnit(1, 2)])
                and product_spec == Spectrum([CyclotomicUnit(1, 4),
                                              CyclotomicUnit(3, 4)])
                and not rs_spec.issubset(product_spec))
    for name in ABELIAN_2GROUPS_LE16:
        entry = corpus()[name]
        order = len(entry.group())
        report = entry.s_report()
        suite.check(f"{name} (abelian 2-group, order {order}) has property s",
                    order <= 16 and report.holds is True)
    return suite.criteria


# -- T3: exponent-p groups of degree p pass exhaustively ------------------------------

def suite_t3(config: RunConfig) -> list[CriterionResult]:
    """The order-27 and order-125 exponent-p monomial groups pass property
    (s) on every ordered pair."""
    suite = _Suite()
    for name, order in (("heisenberg3", 27), ("heisenberg5", 125)):
        entry = corpus()[name]
        report = entry.s_report()
        suite.check(f"{name} has property s", report.holds is True)
        suite.check(f"{name} scan is exhaustive ({order}^2 pairs)",
                    report.counters.get("pairs_checked") == order * order,
                    f"pairs={report.counters.get('pairs_checked')}")
    return suite.criteria


# -- T4: the wreath-product counterexample chain -------------------------------------

def suite_t4(config: RunConfig) -> list[CriterionResult]:
    """The degree-3 wreath product: order 81, class 3, exponent 9; fails
    wp2, regularity and property (s)."""
    suite = _Suite()
    entry = corpus()["wreath3"]
    g = entry.group()
    suite.check("order 81", len(g) == 81, f"order={len(g)}")
    suite.check("class 3", g.nilpotency_class() == 3)
    suite.check("exponent 9", g.exponent() == 9)
    suite.check("fails wp2", has_wp2(g).holds is False)
    suite.check("fails regularity", is_regular(g).holds is False)
    suite.check("fails property s", entry.s_report().holds is False)
    return suite.criteria


# -- T5: induced-representation family of the basic groups ---------------------------

def suite_t5(config: RunConfig) -> list[CriterionResult]:
    """For the basic split extensions at (p, c, e) = (3, 2, 1) and
    (5, 2, 1): every induced representation passes (s), the group satisfies
    the (p-1)-fold Engel identity, and the class is at most p - 1."""
    suite = _Suite()
    for p, name in ((3, "basic_b321"), (5, "basic_b521")):
        report = has_property_s_hat_basic(p, 2, 1)
        suite.check(f"all induced representations of B_{p}(2,1) pass s",
                    report.holds is True,
                    f"reps={report.counters.get('reps_checked')}")
        g = corpus()[name].group()
        suite.check(f"B_{p}(2,1) satisfies the {p - 1}-Engel identity",
                    is_engel(g, p - 1).holds is True)
        klass = g.nilpotency_class()
        suite.check(f"class of B_{p}(2,1) is at most {p - 1}",
                    klass <= p - 1, f"class={klass}")
    return suite.criteria


# -- T6: exponent-vector containment and the image filtration -------------------------

def suite_t6(config: RunConfig) -> list[CriterionResult]:
    """Diagonal exponent vectors of the lower central terms stay inside the
    rotation-difference images, whose dimensions step down by one."""
    suite = _Suite()
    for p, name in ((3, "heisenberg3"), (5, "heisenberg5")):
        report = chi_containment(corpus()[name].group())
        suite.check(f"{name}: containment at every level up to the class",
                    report.holds is True,
                    f"levels={report.counters.get('levels_checked')}")
        dims = [len(rotation_difference_image(p, j)) for j in range(p + 1)]
        suite.check(f"p={p}: image dimensions are p-j",
                    dims == [p - j for j in range(p)] + [0], f"dims={dims}")
    return suite.criteria


# -- T7: implications across the corpus ----------------------------------------------

def _tensor_generators(a: Sequence[MonomialMatrix], b: Sequence[MonomialMatrix]
                       ) -> list[MonomialMatrix]:
    ia = MonomialMatrix.identity(a[0].n)
    ib = MonomialMatrix.identity(b[0].n)
    return [g.tensor(ib) for g in a] + [ia.tensor(h) for h in b]


def suite_t7(config: RunConfig) -> list[CriterionResult]:
    """Corpus-wide implications: (s) forces wp2 and order divisibility;
    tensor products of (s)-passing pairs pass; sampled representations of
    direct products of s-hat-evidence groups pass."""
    suite = _Suite()
    entries = corpus()
    suite.check("corpus holds at least 12 groups", len(entries) >= 12,
                f"corpus={len(entries)}")
    monomial = [e for e in entries.values() if e.is_monomial]
    s_passers = [e for e in monomial if e.s_report().holds is True]
    suite.check("corpus has s-passing and s-failing members",
                0 < len(s_passers) < len(monomial),
                f"passers={len(s_passers)}/{len(monomial)}")
    for entry in monomial:
        if entry.s_report().holds is True:
            suite.check(f"s => wp2 for {entry.name}",
                        has_wp2(entry.group()).holds is True)
            divisibility = order_submultiplicativity(entry.group())
            suite.check(f"s => |AB| divides max(|A|,|B|) for {entry.name}",
                        divisibility.holds is True
                        and divisibility.counters.get("pairs_checked", 0) > 0)
    rng = random.Random(config.seed)
    eligible = [(a, b) for a in s_passers for b in s_passers
                if a.degree() * b.degree() <= 36
                and len(a.group()) * len(b.group()) <= 1024]
    sample = rng.sample(eligible, min(5, len(eligible)))
    for a, b in sample:
        gens = _tensor_generators(a.gens(), b.gens())
        report = has_property_s(close(gens))
        suite.check(f"tensor of {a.name} and {b.name} keeps property s",
                    report.holds is True,
                    f"order={report.counters.get('elements_checked')}")
    # the s-hat evidence of one supplied representation
    # (``has_property_s_hat_single``) passes exactly when (S) holds on it,
    # so its passers are ``s_passers`` and their pairs ``eligible``
    product_sample = rng.sample(eligible, min(3, len(eligible)))
    for a, b in product_sample:
        gens = _tensor_generators(a.gens(), b.gens())
        report = has_property_s(close(gens))
        suite.check(
            f"direct product {a.name} x {b.name}: sampled representation keeps s",
            report.holds is True)
    return suite.criteria


# -- T8: determinant-one equivalences at prime degree ---------------------------------

def suite_t8(config: RunConfig) -> list[CriterionResult]:
    """Irreducible determinant-1 corpus closures of prime degree p with
    property (s) have exponent exactly p."""
    suite = _Suite()
    covered = 0
    for entry in corpus().values():
        if not entry.is_monomial:
            continue
        degree = entry.degree()
        if not is_prime(degree):
            continue
        g = entry.group()
        if any(el.det() != ONE for el in g.elements):
            continue
        if not is_irreducible(g):
            continue
        if entry.s_report().holds is not True:
            continue
        covered += 1
        suite.check(f"{entry.name}: irreducible det-1 degree {degree} with s "
                    f"has exponent {degree}", g.exponent() == degree,
                    f"exponent={g.exponent()}")
    suite.check("at least two groups exercise the equivalence", covered >= 2,
                f"covered={covered}")
    return suite.criteria


# -- T9: regularity against a definitional oracle -------------------------------------

def regular_first_failure_by_definition(g: FiniteGroup
                                        ) -> tuple[int, int] | None:
    """Literal re-implementation of the regularity definition: returns the
    least failing ordered pair, else None.

    Kept deliberately independent of ``is_regular``: inverses come from
    row scans, pair subgroups are closed from <x> by multiplying with y,
    derived subgroups are the word closure of commutators computed
    inline, p-th powers are repeated multiplication, and z is scanned
    exhaustively.  No conjugacy classes, no z = 1 pre-test and no
    derived-subgroup search from ``properties`` are used.

    <x, y> is the union of the left cosets t<x> it meets, and it is closed
    under right multiplication by x and by y.  So it is grown from <x>:
    each member m gives t = m y, and a new t brings in its whole coset
    t<x>, read off row t at the powers of x.  The set this ends with holds
    e and is closed under right multiplication by both generators, so in a
    finite group it is <x, y>.  Its derived subgroup D is generated by the
    commutators [x^i, y^j]: they lie in D, and the subgroup they generate,
    [<x>, <y>], is normal in <x, y> with an abelian quotient, so it holds D.

    Pairs are grouped by two facts that use associativity and finiteness
    but nothing about the group at hand, so the grouping is sound on any
    finite group and not on a non-associative table.  <x^m> = <x> for m
    prime to the order of x, so <x, y> and D depend on <x> and y alone:
    they are built once per cyclic subgroup, when the walk meets its least
    generator x0.  And <x0, x0^i y^k x0^j> = <x0, y> for i, j >= 0 and k
    prime to the order of y, as y is a power of y^k, reached by multiplying
    with powers of x0: one closure serves the double cosets <x0> y^k <x0>
    (a y^k with k not prime to the order is closed on its own).  Once
    every y >= x0 has its set of z^p, each generator x of <x0> is tested
    against all of them at once, in both orientations (x, y) and (y, x),
    with no symmetry assumed.  When the walk meets x0, every ordered pair
    with a smaller first entry has been tested, from the cyclic subgroup of
    its first entry or, as (y, x), of its second; a generator tested early
    adds only true failures.

    The pair test reads the formula as written: some z^p in the set has
    a^p b^p z^p = (ab)^p, z = e first as a plain comparison (e^p = e is in
    every set), each other product read off the column of z^p.  It is not
    rewritten as (a^p b^p)^-1 (ab)^p lying in the set, which holds only
    where inverses and associativity do: on a loop's table the two differ.
    """
    n = len(g)
    if n == 1:
        return None
    table, e = g.full_table(), g.identity
    p = next(q for q in range(2, n + 1) if n % q == 0)
    inv = [row.index(e) for row in table]
    pth = [e] * n
    for _ in range(p):  # x -> x^p, by repeated multiplication
        pth = [table[r][x] for x, r in enumerate(pth)]
    columns: dict[int, list[int]] = {}  # p-th power z -> column z

    def column(z: int) -> list[int]:
        if z not in columns:
            columns[z] = list(map(itemgetter(z), table))
        return columns[z]

    def gather(at: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
        return itemgetter(*at) if len(at) > 1 else lambda s: (s[at[0]],)

    def word_closure(gens: tuple[int, ...]) -> tuple[int, ...]:
        members, walk = {e}, [e]
        for x in walk:  # walk grows while it is read
            row = table[x]
            for s in gens:
                if row[s] not in members:
                    members.add(row[s])
                    walk.append(row[s])
        return tuple(sorted(members))

    def least_failure(ys: Sequence[int], got: tuple, base: tuple,
                      zp_columns: list[list[int]]) -> int | None:
        left = [(y, b, t) for y, b, t in zip(ys, base, got) if b != t]
        for col in zp_columns:
            left = [(y, b, t) for y, b, t in left if col[b] != t]
        return left[0][0] if left else None  # ys ascend

    zp_sets: dict[tuple[int, ...], frozenset[int]] = {}  # <x, y> -> D^p
    interned: dict[frozenset[int], frozenset[int]] = {}  # one copy per D^p
    least: tuple[int, int] | None = None
    done = [False] * n
    for x0 in range(n):
        if least is not None and least[0] < x0:
            break
        if done[x0]:
            continue
        cyclic = [e]  # <x0>, as the powers e, x0, x0^2, ...
        while table[cyclic[-1]][x0] != e:
            cyclic.append(table[cyclic[-1]][x0])
        coset_of = gather(cyclic)  # row t -> left coset t<x0>
        known: dict[int, frozenset[int]] = {}
        classes: dict[frozenset[int], list[int]] = {}  # D^p -> ys
        for y in range(x0, n):
            if y not in known:
                # grow <x0, y> from <x0> one left coset t<x0> at a time
                members = set(cyclic)
                walk = list(cyclic)
                for m in walk:  # walk grows while it is read
                    t = table[m][y]
                    if t not in members:
                        coset = coset_of(table[t])
                        members.update(coset)
                        walk.extend(coset)
                powers = [y]  # y, y^2, ..., e
                while powers[-1] != e:
                    powers.append(table[powers[-1]][y])
                pair = tuple(sorted(members))
                zp = zp_sets.get(pair)
                if zp is None:
                    commutators = tuple(sorted(
                        {table[table[inv[a]][inv[b]]][table[a][b]]
                         for a in cyclic for b in powers}))
                    zp = frozenset(pth[z] for z in word_closure(commutators))
                    zp = zp_sets[pair] = interned.setdefault(zp, zp)
                # mark each y^k, gcd(k, ord y) = 1, with its double coset
                # <x0> y^k <x0>, reached by multiplying with x0 on both sides
                for k, yk in enumerate(powers, 1):
                    if yk in known or gcd(k, len(powers)) != 1:
                        continue
                    known[yk] = zp
                    coset = [yk]
                    for m in coset:  # coset grows while it is walked
                        for t in (table[x0][m], table[m][x0]):
                            if t not in known:
                                known[t] = zp
                                coset.append(t)
            classes.setdefault(known[y], []).append(y)
        tests = [(ys, gather(ys), gather(gather(ys)(pth)),
                  [column(z) for z in sorted(zp) if z != e])
                 for zp, ys in classes.items()]
        for m, x in enumerate(cyclic):
            if gcd(m, len(cyclic)) != 1:
                continue
            done[x] = True  # x generates <x0>
            row_p, col_p = table[pth[x]], column(pth[x])
            xy_p = itemgetter(*table[x])(pth)  # y -> (xy)^p
            yx_p = itemgetter(*map(itemgetter(x), table))(pth)  # y -> (yx)^p
            for ys, at_ys, at_pys, zp_columns in tests:
                y = least_failure(ys, at_ys(xy_p), at_pys(row_p), zp_columns)
                if y is not None and (least is None or (x, y) < least):
                    least = (x, y)
                y = least_failure(ys, at_ys(yx_p), at_pys(col_p), zp_columns)
                if y is not None and (least is None or (y, x) < least):
                    least = (y, x)
    return least


def suite_t9(config: RunConfig) -> list[CriterionResult]:
    """Regularity decisions agree with the definitional oracle on every
    corpus group of order <= 243, and the square of the order-27 basic
    group is regular (capped direct-power evidence)."""
    suite = _Suite()
    for entry in corpus().values():
        g = entry.group()
        if len(g) > 243:
            continue
        report = is_regular(g)
        oracle = regular_first_failure_by_definition(g)
        agrees = (report.holds is True) == (oracle is None)
        detail = f"order={len(g)}, holds={report.holds}"
        if oracle is not None and report.holds is False:
            w = report.witness or {}
            agrees = agrees and (w.get("left_index"), w.get("right_index")) == oracle
            detail += f", witness={oracle}"
        suite.check(f"oracle agreement for {entry.name}", agrees, detail)
    b321 = corpus()["basic_b321"].group()
    evidence = is_v_regular_bounded(b321, config.power_cap,
                                    cap=config.closure_cap)
    suite.check("square of B_3(2,1) (order 729) gives capped direct-power "
                "regularity evidence", evidence.holds == "holds-capped"
                and evidence.counters.get("powers_checked") == config.power_cap,
                f"holds={evidence.holds}")
    return suite.criteria


SUITES: dict[str, tuple[str, Callable[[RunConfig], list[CriterionResult]]]] = {
    "T1": ("spectrum oracle", suite_t1),
    "T2": ("order-8 counterexamples and abelian 2-groups", suite_t2),
    "T3": ("exponent-p groups pass exhaustively", suite_t3),
    "T4": ("wreath counterexample chain", suite_t4),
    "T5": ("basic-group induced representations", suite_t5),
    "T6": ("exponent-vector containment", suite_t6),
    "T7": ("corpus implications and tensor closure", suite_t7),
    "T8": ("determinant-one equivalences", suite_t8),
    "T9": ("regularity definitional oracle", suite_t9),
}


def run_suite(name: str, config: RunConfig | None = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    config = config or RunConfig()
    title, fn = SUITES[name]
    start = time.perf_counter()
    criteria = fn(config)
    return SuiteResult(name, title, criteria, time.perf_counter() - start)


def run_suites(names: Sequence[str] | None = None,
               config: RunConfig | None = None) -> list[SuiteResult]:
    picked = list(names) if names else sorted(SUITES)
    return [run_suite(name, config) for name in picked]
