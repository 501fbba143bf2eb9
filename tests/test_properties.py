"""Property deciders: verdicts, witnesses and their replays, and the
implications between them on the named examples."""

import functools
import inspect
import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, event, example, given
from hypothesis import strategies as st
from test_groups import (KERNEL_SETTINGS, LATTICE_GROUPS, WIDE_LATTICE_GROUPS,
                         engel_bracket, group_from_carriers, lattice_group,
                         monomial_groups, reference_all_subgroups,
                         reference_as_group, reference_normal_subgroups,
                         regularity_groups)

from submult import properties
from submult.cyclotomic import ONE, CyclotomicUnit, Spectrum
from submult.families import (all_characters, basic_group, big_cycle,
                              cyclic_generator, diagonal_abelian_generators,
                              dihedral_generators, heisenberg_generators,
                              induced_rep_generators, quaternion_generators,
                              wreath_generators)
from submult.groups import (DEFAULT_CLOSURE_CAP, FiniteGroup, Subgroup, close,
                            direct_power, direct_product, least_prime_factor,
                            prime_power_base)
from submult.monomial import MonomialCodec, MonomialMatrix
from submult.properties import (PropertyReport, chi_containment, has_p1, has_p2,
                                has_property_s, has_property_s_hat_basic,
                                has_property_s_hat_single, has_wp2, is_engel,
                                is_irreducible, is_p_abelian, is_regular,
                                is_v_regular_bounded,
                                order_submultiplicativity)
from submult.suites import (_tensor_generators, corpus,
                            regular_first_failure_by_definition)

W3 = CyclotomicUnit(1, 3)
I4 = CyclotomicUnit(1, 4)


class TestReportContract:
    def test_witness_iff_false(self):
        with pytest.raises(ValueError):
            PropertyReport("s", True, witness={"x": 1})
        with pytest.raises(ValueError):
            PropertyReport("s", False)

    def test_round_trip(self):
        report = has_property_s(close(quaternion_generators()))
        again = PropertyReport.from_json(report.to_json())
        assert again.to_json() == report.to_json()

    def test_capped_round_trip(self, h3):
        report = is_v_regular_bounded(h3, 2)
        assert report.holds == "holds-capped"
        assert PropertyReport.from_json(report.to_json()).holds == "holds-capped"


class TestPropertyS:
    def test_commuting_diagonals_pass(self):
        gens = diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]])
        assert has_property_s(close(gens)).holds is True

    def test_quaternion_fails_with_expected_pair(self):
        report = has_property_s(close(quaternion_generators()))
        assert report.holds is False
        # the stated failing pair: A = diag(i, -i), B = signed swap
        a = MonomialMatrix.diagonal([I4, I4.inverse()])
        b = MonomialMatrix(2, (1, 0), (ONE, CyclotomicUnit(1, 2)))
        prod = a.spectrum().product(b.spectrum())
        assert prod == Spectrum([ONE, CyclotomicUnit(1, 2)])
        assert (a * b).spectrum() == Spectrum([I4, I4.inverse()])
        assert not (a * b).spectrum().issubset(prod)

    def test_heisenberg_passes(self):
        assert has_property_s(close(heisenberg_generators(3))).holds is True

    def test_wreath_fails_with_ninth_root(self):
        report = has_property_s(close(wreath_generators(3)))
        assert report.holds is False
        assert CyclotomicUnit.from_json(report.witness["eigenvalue"]).den == 9
        # the stated pair: A = diag(w,1,1), B = the cycle
        a = MonomialMatrix.diagonal([W3, ONE, ONE])
        b = big_cycle(3, 1)
        assert CyclotomicUnit(1, 9) in (a * b).spectrum()
        assert CyclotomicUnit(1, 9) not in a.spectrum().product(b.spectrum())

    def test_witness_replays_bit_exact(self):
        for gens in (quaternion_generators(), dihedral_generators(),
                     wreath_generators(3)):
            report = has_property_s(close(gens))
            w = report.witness
            left = MonomialMatrix.from_json(w["left"])
            right = MonomialMatrix.from_json(w["right"])
            eigenvalue = CyclotomicUnit.from_json(w["eigenvalue"])
            spectrum = (left * right).spectrum()
            prod = left.spectrum().product(right.spectrum())
            assert eigenvalue in spectrum and eigenvalue not in prod
            assert spectrum.to_json() == w["product_spectrum"]

    @pytest.mark.parametrize("gens", [
        heisenberg_generators(5),
        _tensor_generators(heisenberg_generators(3), heisenberg_generators(3))],
        ids=["heisenberg5", "heisenberg3 x heisenberg3"])
    def test_masks_do_the_work(self, gens, monkeypatch):
        # a passing scan builds no spectrum product, tests no containment
        # and multiplies no root of unity: the bitmasks decide every pair
        def refuse(*args):
            raise AssertionError("spectrum arithmetic on a passing scan")

        g = close(gens)
        for owner, name in ((Spectrum, "product"), (Spectrum, "issubset"),
                            (CyclotomicUnit, "__mul__")):
            monkeypatch.setattr(owner, name, refuse)
        report = has_property_s(g)
        assert report.holds is True
        assert report.counters["pairs_evaluated"] > 0

    def test_witness_is_lexicographically_least(self):
        report = has_property_s(close(quaternion_generators()))
        g = close(quaternion_generators())
        i0, j0 = report.witness["left_index"], report.witness["right_index"]
        for i in range(len(g)):
            for j in range(len(g)):
                if (i, j) >= (i0, j0):
                    break
                a, b = g.elements[i], g.elements[j]
                assert (a * b).spectrum().issubset(
                    a.spectrum().product(b.spectrum()))


def assert_spectra_per_element(g):
    """``_SpectralClosure`` reads one cycle key per conjugacy class; its
    interned masks and ids must be those of every element's own
    ``MonomialMatrix.spectrum``, interned in element order, over the
    exponent of the group as modulus, which every eigenvalue's order
    divides."""
    sc = properties._SpectralClosure(g, *properties._cycle_key_masks(g))
    elements = g.elements
    assert sc.modulus == math.lcm(*(el.order() for el in elements))
    masks = [functools.reduce(operator.or_, (1 << u.num * (sc.modulus // u.den)
                                             for u in el.spectrum()))
             for el in elements]
    assert sc.masks == list(dict.fromkeys(masks))
    assert sc.sid == [sc.masks.index(mask) for mask in masks]


class TestPerClassSpectra:
    @pytest.mark.parametrize("name", [name for name, entry in corpus().items()
                                      if entry.is_monomial])
    def test_corpus(self, name):
        assert_spectra_per_element(corpus()[name].group())

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=64))
    def test_random_groups(self, g):
        assert_spectra_per_element(g)

    def test_generic_path(self):
        z = CyclotomicUnit(1, 5000)
        g = close([swap(z), MonomialMatrix.diagonal([CyclotomicUnit(1, 2), ONE])])
        assert not isinstance(g.codec, MonomialCodec)
        assert_spectra_per_element(g)

    def test_generic_path_modulus_stays_small(self):
        # entries of order 200000 in a group of exponent 4: no table or
        # mask of the entries' order is built, and (S) fails at the pair
        # the per-element spectra name
        z = CyclotomicUnit(1, 200000)
        g = close([swap(z), MonomialMatrix.diagonal([CyclotomicUnit(1, 2), ONE])])
        assert not isinstance(g.codec, MonomialCodec) and len(g) == 8
        assert properties._cycle_key_masks(g)[0] == 4
        assert_spectra_per_element(g)
        report = has_property_s(g)
        assert_matches_scan(report, reference_scan(len(g), reference_s(g)))
        left, right = (g.elements[report.witness[k]] for k in ("left_index", "right_index"))
        eigenvalue = CyclotomicUnit.from_json(report.witness["eigenvalue"])
        assert eigenvalue in (left * right).spectrum()
        assert eigenvalue not in left.spectrum().product(right.spectrum())

    def test_one_cycle_key_per_class(self, monkeypatch):
        keys = []
        original = MonomialCodec.cycle_key

        def recording(self, code):
            keys.append(code)
            return original(self, code)

        g = close(heisenberg_generators(5))
        monkeypatch.setattr(MonomialCodec, "cycle_key", recording)
        properties._cycle_key_masks(g)
        assert keys == [g.codes[c[0]] for c in g.conjugacy_classes()]
        assert len(keys) == 29


def coset_action_masks(g, modulus):
    """The class masks of (S), over Z/modulus, read from the coset action.

    A monomial carrier is the direct sum, over its orbits on basis lines,
    of Ind_H^G lam, H the stabiliser of a line j and lam(h) the entry h
    puts on line j (Isaacs, Character Theory of Finite Groups, ch. 5).  An
    x that cycles the left cosets of H in a cycle of length l from tH, with
    t**-1 x**l t = h, contributes the l-th roots of lam(h).  Matrices are
    read only for H and lam; cosets and h come from the Cayley table."""
    elements, inverses = g.elements, g.inverses()
    masks = [0] * len(g.conjugacy_classes())
    lines = set()
    for j in range(elements[0].n):
        if j in lines:
            continue
        lines |= {el.perm[j] for el in elements}
        lam = {h: el.entries[j] for h, el in enumerate(elements) if el.perm[j] == j}
        coset = {}  # element -> the least member of its left coset of H
        for t in range(len(g)):
            if t not in coset:
                coset.update(dict.fromkeys(map(g.row(t).__getitem__, lam), t))
        transversal = sorted(set(coset.values()))
        for k, cls in enumerate(g.conjugacy_classes()):
            x, walked = cls[0], set()
            for t in transversal:
                if t in walked:
                    continue
                y, l = g.row(x)[t], 1  # y = x**l t
                while coset[y] != t:
                    walked.add(coset[y])
                    y, l = g.row(x)[y], l + 1
                walked.add(t)
                root = lam[g.row(inverses[t])[y]]
                for u in range(l):
                    value = Fraction(root.num + u * root.den, root.den * l) * modulus
                    assert value.denominator == 1
                    masks[k] |= 1 << value.numerator % modulus
    return masks


def assert_coset_action_matches_cycle_keys(g):
    modulus, masks = properties._cycle_key_masks(g)
    assert coset_action_masks(g, modulus) == masks


class TestCosetActionSpectra:
    """The per-class masks of (S) have two sources, the cycle keys of the
    carrier and the coset action of the induced representations it sums;
    they must agree class by class over the cycle keys' modulus."""

    @pytest.mark.parametrize("name", [name for name, entry in corpus().items()
                                      if entry.is_monomial])
    def test_corpus(self, name):
        assert_coset_action_matches_cycle_keys(corpus()[name].group())

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=64))
    def test_random_groups(self, g):
        assert_coset_action_matches_cycle_keys(g)

    def test_scan_reads_no_cycle_key(self):
        # the pair scan takes its masks as given: only _cycle_key_masks
        # reads cycle keys or asks which codec the group has
        for reader in (properties._SpectralClosure, properties._unscaled_reps):
            source = inspect.getsource(reader)
            for name in ("cycle", "MonomialCodec", "_element"):
                assert name not in source, (reader.__name__, name)


class TestPropertySHat:
    def test_abelian_conclusive(self):
        report = has_property_s_hat_single(
            close(diagonal_abelian_generators(4, [[1, 0], [0, 1]])))
        assert report.holds is True

    def test_basic_family_conclusive(self):
        report = has_property_s_hat_basic(3, 2, 1)
        assert report.holds is True
        assert report.counters["reps_checked"] == 9

    def test_wreath_fails(self):
        report = has_property_s_hat_single(close(wreath_generators(3)))
        assert report.holds is False

    def test_nonabelian_pass_is_capped(self):
        report = has_property_s_hat_single(close(heisenberg_generators(3)))
        assert report.holds == "holds-capped"


# every basic group B_p(c, e) (c <= p) of order at most 5**4
BASIC_UP_TO_625 = [(p, c, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                   for c in range(1, p + 1) for e in range(1, 5)
                   if p ** (e * (c + 1)) <= 625]


def closure_per_character(p, c, e):
    """(character, (S) report) of each induced representation of B_p(c, e),
    one closure per character, in index order up to the first failure:
    the decider before its orbit cut."""
    reports = []
    for chi in all_characters(p, c, e):
        reports.append((chi, has_property_s(close(induced_rep_generators(p, c, e, chi)))))
        if reports[-1][1].holds is False:
            break
    return reports


class TestCharacterOrbits:
    """``has_property_s_hat_basic`` closes one character per orbit under
    the b-action and the Galois action, and reports what a closure per
    character reports."""

    @pytest.mark.parametrize("p, c, e", BASIC_UP_TO_625,
                             ids=lambda v: str(v))
    def test_matches_a_closure_per_character(self, p, c, e):
        reports = closure_per_character(p, c, e)
        report = has_property_s_hat_basic(p, c, e)
        idx, (_, last) = len(reports) - 1, reports[-1]
        assert report.holds is last.holds
        if last.holds is False:
            assert report.witness == {**last.witness, "representation_index": idx}
        assert report.counters["reps_checked"] == len(reports)
        assert report.counters["pairs_checked"] == sum(
            r.counters["pairs_checked"] for _, r in reports)
        assert report.counters["reps_evaluated"] <= len(reports)
        # each orbit member shares the verdict and work of every other
        by_character = dict(reports)
        for chi, r in reports:
            for other in properties._character_orbit(p, c, e, chi):
                if other in by_character:
                    assert (by_character[other].holds, by_character[other].counters) \
                        == (r.holds, r.counters), (chi, other)

    def test_closures_per_orbit(self, monkeypatch):
        closures = []
        monkeypatch.setattr(properties, "close",
                            lambda gens, cap: closures.append(gens) or close(gens, cap))
        report = has_property_s_hat_basic(5, 2, 1)
        assert report.holds is True and report.counters["reps_checked"] == 25
        assert len(closures) == report.counters["reps_evaluated"] == 3
        # pairs_evaluated counts the pairs of the closures built, no others
        assert report.counters["pairs_evaluated"] == sum(
            has_property_s(close(gens)).counters["pairs_evaluated"] for gens in closures)

    @pytest.mark.parametrize("p, c, e, passing", [
        (2, 2, 1, 1), (2, 2, 2, 1), (3, 3, 1, 1), (3, 2, 1, 3), (5, 2, 1, 3)])
    def test_orbits_only_of_passing_characters(self, p, c, e, passing, monkeypatch):
        built = []
        original = properties._character_orbit
        monkeypatch.setattr(properties, "_character_orbit",
                            lambda *args: built.append(args[-1]) or original(*args))
        report = has_property_s_hat_basic(p, c, e)
        assert len(built) == passing
        assert report.counters["reps_evaluated"] == passing + (report.holds is False)

    def test_orbits_of_b321(self):
        # (x1, x2) -> (x1 + x2, x2) and scaling by the units 1, 2 of Z/3:
        # three orbits, one closure each
        orbits = [properties._character_orbit(3, 2, 1, chi)
                  for chi in ((0, 0), (1, 0), (0, 1))]
        assert orbits == [{(0, 0)}, {(1, 0), (2, 0)},
                          {(x, y) for x in range(3) for y in (1, 2)}]
        # Galois conjugation scales by units only: 3 is no unit of Z/9
        orbit = properties._character_orbit(3, 2, 2, (0, 1))
        assert {y for _, y in orbit} == {1, 2, 4, 5, 7, 8}


def all_class_reps(g, classes, class_masks):
    """``_unscaled_reps`` with the scalar skip switched off."""
    return [cls[0] for cls in classes]


def assert_scalar_skip_keeps_the_scan(g):
    """(S) with the rows of scalar multiples skipped reports the verdict,
    witness and ``pairs_checked`` of the scan over every representative,
    and evaluates no more pairs."""
    report = has_property_s(g)
    with mock.patch.object(properties, "_unscaled_reps", all_class_reps):
        scanned = has_property_s(g)
    assert (report.holds, report.witness) == (scanned.holds, scanned.witness)
    assert report.counters["pairs_checked"] == scanned.counters["pairs_checked"]
    assert report.counters["pairs_evaluated"] <= scanned.counters["pairs_evaluated"]
    return report, scanned


class TestScalarRows:
    """Row z*r of a scalar z fails (S) at the same y as row r, so the (S)
    scan skips a representative r when some scalar z != 1 has rep(z*r) < r."""

    @pytest.mark.parametrize("name", [name for name, entry in corpus().items()
                                      if entry.is_monomial])
    def test_corpus(self, name):
        assert_scalar_skip_keeps_the_scan(corpus()[name].group())

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=64))
    def test_random_groups(self, g):
        assert_scalar_skip_keeps_the_scan(g)

    def test_tensor_product_skips_rows(self):
        entries = corpus()
        g = close(_tensor_generators(entries["c4xc2"].gens(),
                                     entries["heisenberg5"].gens()))
        report, scanned = assert_scalar_skip_keeps_the_scan(g)
        assert report.holds is True and len(g) == 1000
        # one row per orbit of the scalars on the 232 classes: the least
        # representative of each orbit is read, and 100 orbits remain
        assert len(g.conjugacy_classes()) == 232
        assert scanned.counters["pairs_evaluated"] == 232 * 1000
        assert report.counters["pairs_evaluated"] == 100 * 1000

    def test_a_class_closed_under_a_scalar_is_read(self, q8):
        # -1 * diag(i, -i) = diag(-i, i) is conjugate to diag(i, -i), so
        # its row is read; it holds the least failing pair
        sc = properties._SpectralClosure(q8, *properties._cycle_key_masks(q8))
        assert sc.rows == [0, 1, 2, 4]
        assert has_property_s(q8).witness["left_index"] == 1


class TestWp2:
    def test_cyclic(self):
        assert has_wp2(close(cyclic_generator(27))).holds is True

    def test_heisenberg(self, h3):
        assert has_wp2(h3).holds is True

    def test_wreath_fails_with_order_witness(self, w3):
        report = has_wp2(w3)
        assert report.holds is False
        assert report.witness["k"] == 1
        assert report.witness["element_order"] == 9


class TestSections:
    def test_abelian_p1_p2_exhaustive(self):
        for gens in (diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]]),
                     diagonal_abelian_generators(9, [[1, 0], [0, 1]]),
                     diagonal_abelian_generators(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                     diagonal_abelian_generators(4, [[1, 0], [0, 1]])):
            g = close(gens)
            assert len(g) <= 81
            assert has_p2(g).holds is True
            assert has_p1(g).holds is True

    def test_heisenberg_p2_exhaustive(self, h3):
        report = has_p2(h3)
        assert report.holds is True
        assert report.counters["sections_checked"] > 1

    def test_wreath_p2_fails_at_top(self, w3):
        report = has_p2(w3)
        assert report.holds is False
        assert report.counters["sections_checked"] == 1

    def test_capped_verdict_above_cap(self, h3):
        report = has_p2(h3, section_cap=16)
        assert report.holds == "holds-capped"
        assert any("section cap" in cap for cap in report.caps)

    def test_failing_group_detected_even_above_cap(self, w3, monkeypatch):
        # G/1 is probed once, before any lattice, whatever |G| is: above the
        # cap and below it the two witness shapes cite the same failure
        entered = []
        original = FiniteGroup.sections

        def spy(self, *args, **kwargs):
            entered.append(len(self))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FiniteGroup, "sections", spy)
        above, below = has_p2(w3, section_cap=16), has_p2(w3, section_cap=256)
        assert above.holds is False and below.holds is False
        assert above.witness["section"] == "the whole group"
        assert (below.witness["kernel_order"], below.witness["subgroup_order"]) == (1, 81)
        assert ([above.witness[key] for key in ("k", "element_index")]
                == [below.witness[key] for key in ("k", "element_index")])
        assert above.counters == below.counters == {"sections_checked": 1}
        assert entered == []


def literal_power_failure(q, prop):
    """First (k, index) at which the quotient group q's own p**k-level set
    (p2: elements of order dividing p**k; p1: the p**k-th powers) differs
    from the subgroup it generates in q, from q's element orders and
    ``q.subgroup``; None when every level passes."""
    if len(q) == 1:
        return None
    p, _ = q.p_group_base()
    orders = [q.element_order(i) for i in range(len(q))]
    level, q_k = 0, 1
    while q_k < max(orders):
        level, q_k = level + 1, q_k * p
        if prop == "p2":
            members = [i for i in range(len(q)) if q_k % orders[i] == 0]
        else:
            members = sorted(set(q.power_map(q_k)))
        inside = set(members)
        extra = [m for m in q.subgroup(members).members if m not in inside]
        if extra:
            return level, extra[0]
    return None


def reference_section_report(g, prop):
    """The p1 or p2 report built literally: every section H/K, in section
    order, is a group of its own, ``reference_as_group(g, H).quotient(K)``,
    probed with ``literal_power_failure``."""
    checked = 0
    subs = sorted(reference_all_subgroups(g), key=lambda kv: (-len(kv[0]), kv[0]))
    for h, h_gens in subs:
        h_grp = reference_as_group(g, h, h_gens)
        for k, k_gens in reference_normal_subgroups(h_grp):
            checked += 1
            section = h_grp.quotient(Subgroup(h_grp, k, k_gens))
            fail = literal_power_failure(section, prop)
            if fail is not None:
                level, idx = fail
                witness = {"k": level, "element_index": idx,
                           "element": section.describe(idx),
                           "subgroup_order": len(h), "kernel_order": len(k),
                           "subgroup_members": list(h),
                           "explanation": "section fails the power-structure "
                                          "set/subgroup equality"}
                return {"property": prop, "holds": False, "witness": witness,
                        "counters": {"sections_checked": checked}, "caps": []}
    return {"property": prop, "holds": True, "witness": None,
            "counters": {"sections_checked": checked}, "caps": []}


def block_product(left, right):
    """Closure of block-diagonal generators, as ``construct direct_product``
    builds a product of two monomial group files."""
    i_left, i_right = (MonomialMatrix.identity(gens[0].n) for gens in (left, right))
    return close([x.direct_sum(i_right) for x in left]
                 + [i_left.direct_sum(y) for y in right])


# 2-groups on which a p1 or p2 scan fails: below the first section G/1
# (the products), at a coset whose index in G/K is not its least member's
# index in G (m16: p2 fails on G/K with |K| = 2), or at level k = 2 (b222).
SECTION_FAILURES = {
    "q8xc4": lambda: block_product(quaternion_generators(), cyclic_generator(4)),
    "d8xc4": lambda: block_product(dihedral_generators(), cyclic_generator(4)),
    "w2xc4": lambda: block_product(wreath_generators(2), cyclic_generator(4)),
    "d8xc2": lambda: block_product(dihedral_generators(), cyclic_generator(2)),
    "m16": lambda: close([
        MonomialMatrix(3, (1, 0, 2), (ONE, ONE, CyclotomicUnit(3, 4))),
        MonomialMatrix(3, (1, 0, 2), (I4, CyclotomicUnit(3, 4),
                                      CyclotomicUnit(1, 2)))]),
    "b222": lambda: basic_group(2, 2, 2),
}


class TestSectionOracle:
    """has_p1 and has_p2 read every section off the group's own table and
    lattice; the oracle builds each section as a quotient group and probes
    it directly."""

    @pytest.mark.parametrize("prop", ["p1", "p2"])
    @pytest.mark.parametrize("name", LATTICE_GROUPS)
    def test_lattice_groups(self, name, prop):
        g = lattice_group(name)
        decide = has_p1 if prop == "p1" else has_p2
        assert decide(g).to_json() == reference_section_report(g, prop)

    @pytest.mark.parametrize("prop", ["p1", "p2"])
    @pytest.mark.parametrize("name", list(SECTION_FAILURES))
    def test_products(self, name, prop):
        g = SECTION_FAILURES[name]()
        decide = has_p1 if prop == "p1" else has_p2
        assert decide(g).to_json() == reference_section_report(g, prop)

    def test_failures_below_the_first_section(self):
        reports = [has_p1(SECTION_FAILURES["q8xc4"]()),
                   has_p2(SECTION_FAILURES["q8xc4"]())]
        assert all(r.holds is False and r.counters["sections_checked"] > 1
                   for r in reports)
        w = has_p2(SECTION_FAILURES["m16"]()).witness
        assert (w["kernel_order"], w["element_index"]) == (2, 3)
        assert has_p2(SECTION_FAILURES["b222"]()).witness["k"] == 2

    @pytest.mark.parametrize("name", LATTICE_GROUPS + tuple(SECTION_FAILURES))
    def test_p1_probes_only_trivial_kernels(self, name, monkeypatch):
        # the reports equal the oracle's (test_lattice_groups, test_products),
        # which probes every section
        g = (lattice_group(name) if name in LATTICE_GROUPS
             else SECTION_FAILURES[name]())
        kernels = []
        original = properties._power_failure

        def recording(g, h, kernel, *args, **kwargs):
            kernels.append(len(kernel))
            return original(g, h, kernel, *args, **kwargs)

        monkeypatch.setattr(properties, "_power_failure", recording)
        has_p1(g)
        assert kernels and set(kernels) == {1}

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=64))
    def test_random_groups(self, g):
        if prime_power_base(len(g)) is None and len(g) > 1:
            event("not a p-group")
            for decide in (has_p1, has_p2):
                with pytest.raises(ValueError, match="not a p-group"):
                    decide(g)
            return
        for prop, decide in (("p1", has_p1), ("p2", has_p2)):
            report = decide(g).to_json()
            event(f"{prop} holds: {report['holds']}")
            assert report == reference_section_report(g, prop)


def section_count(g):
    """G/1 and the set bits of every kernel mask ``FiniteGroup.sections``
    yields: the number of sections of g."""
    return 1 + sum(kernels.bit_count() for _, kernels, _ in g.sections())


class TestSectionCounts:
    """p1, and p2 on a p-abelian group, probe only some sections and count
    the rest from the lattice's containment masks; the count is that of
    the sections ``FiniteGroup.sections`` yields."""

    @pytest.mark.parametrize("prop", ["p1", "p2"])
    @pytest.mark.parametrize("name", LATTICE_GROUPS + WIDE_LATTICE_GROUPS)
    def test_counted_sections_are_the_walked_ones(self, name, prop):
        # p1 and p-abelian scans count the sections they do not probe
        g = lattice_group(name)
        report = (has_p1 if prop == "p1" else has_p2)(g)
        if report.holds is True:
            assert report.counters["sections_checked"] == section_count(g)

    @pytest.mark.parametrize("make, count", [
        (lambda: close([MonomialMatrix.identity(1)]), 1),
        (lambda: close(cyclic_generator(9)), 6),
    ], ids=["trivial", "c9"])
    def test_small_groups(self, make, count):
        # the trivial group has G/1 alone; C9 has 9/1, 9/3, 9/9, 3/1, 3/3, 1/1
        g = make()
        assert section_count(g) == count
        for decide in (has_p1, has_p2):
            report = decide(g)
            assert (report.holds, report.counters) == (True, {"sections_checked": count})


class TestRegularity:
    def test_abelian_regular(self):
        g = close(diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]]))
        assert is_regular(g).holds is True

    def test_heisenberg_regular(self, h3):
        assert is_regular(h3).holds is True

    def test_wreath_irregular_with_witness(self, w3):
        report = is_regular(w3)
        assert report.holds is False
        x = report.witness["left_index"]
        y = report.witness["right_index"]
        # replay: no z in the derived subgroup of <x, y> fixes the identity
        p = 3
        pair = w3.subgroup((x, y))
        derived = w3.commutator_subgroup(pair, pair)
        def power(z):
            return functools.reduce(w3.mul, [z] * p)

        lhs = power(w3.mul(x, y))
        base = w3.mul(power(x), power(y))
        assert all(w3.mul(base, power(z)) != lhs for z in derived.members)

    def test_quaternion_irregular(self, q8):
        assert is_regular(q8).holds is False

    def test_v_regular_abelian_three_powers(self):
        # every direct power of an abelian group is abelian, hence regular,
        # so G itself passing decides all of them
        g = close(diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]]))
        report = is_v_regular_bounded(g, 3)
        assert report.holds is True and not report.caps
        assert report.counters["powers_checked"] == 1

    def test_v_regular_heisenberg_square(self, h3):
        report = is_v_regular_bounded(h3, 2)
        assert report.holds == "holds-capped"
        assert report.counters["powers_checked"] == 2
        # the counters sum those of G and G^2
        parts = (is_regular(h3), is_regular(direct_power(h3, 2)))
        for key in ("pairs_checked", "pairs_evaluated"):
            assert report.counters[key] == sum(r.counters[key] for r in parts)

    def test_v_regular_square_inherits_p_abelian(self, monkeypatch):
        # G**2 is p-abelian exactly when G is: the square is built, but no
        # power map of it, and the counters are those of the two scans
        squares = []
        monkeypatch.setattr(properties, "direct_power",
                            lambda *args: squares.append(direct_power(*args)) or squares[-1])
        g = basic_group(3, 2, 1)
        report = is_v_regular_bounded(g, 2)
        assert report.holds == "holds-capped" and len(squares) == 1
        assert squares[0].p_abelian is True and not squares[0]._pow_cache
        parts = (is_regular(basic_group(3, 2, 1)),
                 is_regular(direct_power(basic_group(3, 2, 1), 2)))
        for key in ("pairs_checked", "pairs_evaluated"):
            assert report.counters[key] == sum(r.counters[key] for r in parts)

    def test_v_regular_wreath_fails_immediately(self, w3):
        report = is_v_regular_bounded(w3, 1)
        assert report.holds is False
        assert report.witness["power"] == 1

    def test_v_regular_respects_cap(self, h3):
        from submult.groups import ClosureCapExceeded
        with pytest.raises(ClosureCapExceeded):
            is_v_regular_bounded(h3, 2, cap=10)

    @pytest.mark.parametrize("powers", [0, -1])
    def test_v_regular_needs_a_power(self, powers):
        # no power checked is not a closure-cap failure
        with pytest.raises(ValueError, match="powers must be >= 1"):
            is_v_regular_bounded(basic_group(3, 2, 1), powers)


def reference_word_closure(table, identity, gens):
    members, frontier = {identity}, [identity]
    while frontier:
        grown = []
        for m in frontier:
            for s in gens:
                t = table[m][s]
                if t not in members:
                    members.add(t)
                    grown.append(t)
        frontier = grown
    return tuple(sorted(members))


def reference_derived(table, identity, members):
    """Word closure of every pairwise commutator of ``members``."""
    inv = [row.index(identity) for row in table]
    return reference_word_closure(
        table, identity, {table[table[inv[a]][inv[b]]][table[a][b]]
                          for a in members for b in members})


def reference_pair_derived(table, identity, x, y):
    """Derived subgroup of <x, y> from scratch: the word closure of every
    pairwise commutator of the word closure of (x, y)."""
    return reference_derived(
        table, identity, reference_word_closure(table, identity, (x, y)))


def reference_regular_failure(g):
    """Least ordered pair (x, y) with no z in the derived subgroup D of
    <x, y> giving (xy)**p = x**p y**p z**p, and the number of pairs up to
    it, one ordered pair at a time in ascending order (``reference_scan``);
    the p-th powers of D are memoized per pair subgroup."""
    n = len(g)
    table, e = g.full_table(), g.identity
    p = least_prime_factor(n) if n > 1 else 2

    def ppow(x):
        r = e
        for _ in range(p):
            r = table[r][x]
        return r

    pth = [ppow(x) for x in range(n)]
    zp_of = {}

    def check(x, y):
        pair = reference_word_closure(table, e, (x, y))
        if pair not in zp_of:
            zp_of[pair] = {pth[z] for z in reference_derived(table, e, pair)}
        target, base = pth[table[x][y]], table[pth[x]][pth[y]]
        return any(table[base][zp] == target for zp in zp_of[pair])
    return reference_scan(n, check)


@functools.cache
def corpus_regular_failure(name):
    """``reference_regular_failure`` of a corpus group, scanned once a
    session: two oracle tests read it per group."""
    return reference_regular_failure(corpus()[name].group())


class TestPairDerived:
    """The derived subgroup of <x, y> that is_regular builds: the normal
    closure of [x, y] under x and y."""

    @pytest.mark.parametrize("make", [
        lambda: close(quaternion_generators()),
        lambda: close(dihedral_generators()),
        lambda: close(heisenberg_generators(3)),
        lambda: close(wreath_generators(3)),
        lambda: basic_group(3, 2, 1)], ids=["q8", "d8", "h3", "w3", "b321"])
    def test_matches_word_closure_of_commutators(self, make):
        g = make()
        table = g.full_table()
        memo = {}
        for x in range(len(g)):
            for y in range(len(g)):
                pair = g.subgroup((x, y)).members
                if pair not in memo:
                    memo[pair] = reference_pair_derived(table, g.identity, x, y)
                got = g.normal_closure([g.commutator(x, y)], (x, y)).members
                assert got == memo[pair], (x, y)


def assert_regular_matches_oracle(g):
    """Verdict, least witness and pair count of is_regular against the
    by-definition oracle: n**2 pairs on a pass, the ascending count up to
    the witness on a failure."""
    report = is_regular(g)
    oracle = regular_first_failure_by_definition(g)
    n = len(g)
    assert_matches_scan(report, (oracle, n * n if oracle is None
                                 else oracle[0] * n + oracle[1] + 1))
    return report


# Non-abelian groups of order 8; a 2-group with one of them as a factor is
# non-abelian, hence irregular.
class TestRegularityShortcut:
    """is_regular settles a pair by z = 1, then by the p-th powers of
    <[x, y]>, and builds the pair's derived subgroup only when both fail."""

    @pytest.mark.parametrize("make, subgroups_built", [
        (lambda: basic_group(3, 3, 1), 1),
        (lambda: direct_product(close(quaternion_generators()),
                                close(cyclic_generator(4))), 1),
        (lambda: direct_product(close(dihedral_generators()),
                                close(cyclic_generator(2))), 1),
        (lambda: direct_product(close(heisenberg_generators(3)),
                                close(cyclic_generator(3))), 0),
        (lambda: close(diagonal_abelian_generators(3, [[0, 0]])), 0),
    ], ids=["b331", "q8xc4", "d8xc2", "h3xc3", "trivial"])
    def test_matches_oracle(self, make, subgroups_built):
        report = assert_regular_matches_oracle(make())
        assert report.counters["pair_subgroups_analyzed"] == subgroups_built

    @KERNEL_SETTINGS
    @given(regularity_groups())
    def test_random_p_groups_match_oracle(self, g):
        assume(len(g) == 1 or prime_power_base(len(g)) is not None)
        assert_regular_matches_oracle(g)

    def test_derived_subgroup_settles_what_z1_does_not(self):
        # B_3(2,2) is not 3-abelian, but its derived subgroup is cyclic of
        # order 9, so it is regular (p odd): every pair failing z = 1 must
        # be settled by some z**p from its pair's derived subgroup, and
        # here the p-th powers of <[x, y]> already settle each of them
        g = basic_group(3, 2, 2)
        derived = g.derived_subgroup().members
        assert len(derived) == 9
        assert max(g.element_order(z) for z in derived) == 9
        assert is_p_abelian(g).holds is False
        report = is_regular(g)
        assert report.holds is True
        assert report.counters["pair_subgroups_analyzed"] == 0
        assert report.counters["pairs_settled_by_commutator"] == 34992

    @pytest.mark.parametrize("make", [
        lambda: direct_power(basic_group(3, 2, 1), 2),
        lambda: basic_group(5, 2, 1)], ids=["b321^2", "b521"])
    def test_no_derived_subgroup_when_z1_settles(self, make, monkeypatch):
        def refuse(*args):
            raise AssertionError("derived subgroup built")

        monkeypatch.setattr(FiniteGroup, "normal_closure", refuse)
        report = is_regular(make())
        assert report.holds is True
        assert report.counters["pair_subgroups_analyzed"] == 0


def reference_scan(n, check):
    """Full ascending scan of all ordered pairs: the least failing pair and
    the number of pairs up to it."""
    count = 0
    for i in range(n):
        for j in range(n):
            count += 1
            if not check(i, j):
                return (i, j), count
    return None, count


def reference_s(g):
    """(S) on a pair, from g's table and its elements' spectra."""
    table = g.full_table()
    spectra = [el.spectrum() for el in g.elements]
    products = {}

    def check(i, j):
        key = (spectra[i], spectra[j])
        if key not in products:
            products[key] = spectra[i].product(spectra[j])
        return spectra[table[i][j]].issubset(products[key])
    return check


def reference_p_abelian(g):
    """(xy)**p = x**p y**p, by repeated multiplication in g's table."""
    table, e = g.full_table(), g.identity
    p = g.p_group_base()[0]

    def ppow(x):
        r = e
        for _ in range(p):
            r = table[r][x]
        return r
    return lambda i, j: ppow(table[i][j]) == table[ppow(i)][ppow(j)]


def reference_engel(g, k):
    """[x, y, ..., y] (k copies of y) is trivial, from g's table."""
    table, e = g.full_table(), g.identity
    inv = [row.index(e) for row in table]

    def check(x, y):
        for _ in range(k):
            x = table[table[inv[x]][inv[y]]][table[x][y]]
        return x == e
    return check


def assert_matches_scan(report, reference):
    fail, count = reference
    assert report.counters["pairs_checked"] == count
    if fail is None:
        assert report.holds is True
    else:
        assert report.holds is False
        w = report.witness
        assert (w["left_index"], w["right_index"]) == fail


def assert_p_group_scans_match(g):
    """p-abelianness, regularity and the k-Engel identity (k = 1..3) of a
    p-group against full ascending scans, and the Engel reports against
    those of the scan alone, the nilpotency-class test switched off."""
    n = len(g)
    assert_matches_scan(is_p_abelian(g),
                        reference_scan(n, reference_p_abelian(g)))
    assert_matches_scan(is_regular(g), reference_regular_failure(g))
    for k in (1, 2, 3):
        report = is_engel(g, k)
        assert_matches_scan(report, reference_scan(n, reference_engel(g, k)))
        # a class above every k tested leaves each verdict to the scan
        with mock.patch.object(FiniteGroup, "nilpotency_class",
                               lambda self: 4):
            scanned = is_engel(g, k)
        assert (report.holds, report.witness) == (scanned.holds, scanned.witness)
        assert report.counters["pairs_checked"] == scanned.counters["pairs_checked"]


class TestOrbitScan:
    """Pair deciders evaluate only the rows of conjugacy-class
    representatives, and report what a full ascending scan reports."""

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=64))
    def test_random_groups_match_full_scan(self, g):
        n = len(g)
        table = g.full_table()
        s_ref = reference_scan(n, reference_s(g))
        assert_matches_scan(has_property_s(g), s_ref)
        orders = [g.element_order(i) for i in range(n)]
        assert_matches_scan(
            order_submultiplicativity(g),
            reference_scan(n, lambda i, j: max(orders[i], orders[j])
                           % orders[table[i][j]] == 0))
        if n == 1 or prime_power_base(n) is not None:
            assert_p_group_scans_match(g)

    @KERNEL_SETTINGS
    @given(regularity_groups())
    def test_random_p_groups_match_full_scan(self, g):
        # regularity_groups yields irregular groups often; it also yields
        # non-monomial direct products, so (S) stays on the draw above
        assume(len(g) == 1 or prime_power_base(len(g)) is not None)
        assert_p_group_scans_match(g)

    def test_heisenberg5_evaluates_class_representatives(self, h5):
        assert len(h5.conjugacy_classes()) == 29
        report = has_property_s(h5)
        assert report.holds is True
        assert report.counters["pairs_checked"] == 125 * 125
        # the rows of the 4 scalars other than 1 repeat the identity's row
        assert report.counters["pairs_evaluated"] == 25 * 125

    @pytest.mark.parametrize("make", [
        lambda: close(diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]])),
        lambda: close(diagonal_abelian_generators(4, [[1, 0], [0, 2]])),
        lambda: close(cyclic_generator(8)),
        lambda: close(cyclic_generator(9))], ids=["c3xc3", "c4xc2", "c8", "c9"])
    def test_abelian_closures_need_no_spectra(self, make, monkeypatch):
        def refuse(*args):
            raise AssertionError("spectra computed")

        g = make()
        monkeypatch.setattr(properties, "_SpectralClosure", refuse)
        report = has_property_s(g)
        assert report.holds is True
        assert report.counters["pairs_checked"] == len(g) ** 2
        assert report.counters["pairs_evaluated"] == 0

    @pytest.mark.parametrize("make", [
        lambda: close(diagonal_abelian_generators(9, [[1, 0], [0, 1]])),
        lambda: close(diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]])),
        lambda: close(cyclic_generator(8))], ids=["c9xc9", "c3xc3", "c8"])
    def test_abelian_closures_evaluate_no_pair(self, make, monkeypatch):
        def refuse(*args):
            raise AssertionError("pair evaluated")

        g = make()
        monkeypatch.setattr(FiniteGroup, "full_table", refuse)
        monkeypatch.setattr(FiniteGroup, "power_map", refuse)
        for report in (is_p_abelian(g), is_engel(g, 1), is_engel(g, 2)):
            assert report.holds is True
            assert report.counters == {"pairs_checked": len(g) ** 2,
                                       "pairs_evaluated": 0}

    def test_abelian_non_p_group_still_rejected(self):
        with pytest.raises(ValueError, match="not a p-group"):
            is_p_abelian(close(cyclic_generator(6)))

    def test_witness_above_skipped_rows(self, w3):
        # wreath3 has a class of three non-central elements whose rows pass
        # (S), 3-abelianness (hence regularity) and the 2-Engel identity.
        # Listed right after the identity, two of them lie below the first
        # failing row but are not class representatives, so their rows are
        # never evaluated.
        n, e = len(w3), w3.identity
        engel2 = reference_engel(w3, 2)
        cls = next(c for c in w3.conjugacy_classes()
                   if len(c) == 3 and all(engel2(c[0], y) for y in range(n)))
        order = [e, *cls] + [i for i in range(n) if i != e and i not in cls]
        g = group_from_carriers([w3.elements[i] for i in order], 0,
                                tuple(order.index(i) for i in w3.gens))
        regular = is_regular(g)
        w = regular.witness
        assert (w["left_index"], w["right_index"]) == (4, 5)
        for report, reference in (
                (has_property_s(g), reference_scan(n, reference_s(g))),
                (is_p_abelian(g), reference_scan(n, reference_p_abelian(g))),
                (is_engel(g, 2), reference_scan(n, reference_engel(g, 2))),
                (regular, reference_regular_failure(g))):
            assert_matches_scan(report, reference)
            counters = report.counters
            assert counters["pairs_evaluated"] == counters["pairs_checked"] - 2 * n

    @pytest.mark.parametrize("make, pairs_checked", [
        (quaternion_generators, 11), (dihedral_generators, 11),
        (lambda: wreath_generators(3), 84)], ids=["q8", "d8", "w3"])
    def test_least_witness_unchanged(self, make, pairs_checked):
        # the least failing pair and its ascending count, as a scan of all
        # n**2 pairs reports them
        g = close(make())
        for report in (has_property_s(g), is_p_abelian(g), is_engel(g, 1),
                       is_regular(g)):
            assert report.holds is False
            w = report.witness
            assert (w["left_index"], w["right_index"]) == (1, 2)
            assert report.counters["pairs_checked"] == pairs_checked


class _TableOnly:
    """Just what the regularity oracle reads: a Cayley table with identity 0."""

    identity = 0

    def __init__(self, table):
        self.table = table

    def __len__(self):
        return len(self.table)

    def full_table(self):
        return self.table


# Cayley table of an order-8 loop: a Latin square with identity 0 that is
# not associative.  The regularity formula read off it holds at (1, 2) and
# fails at (2, 1), the least failure, which no group tried shows.
LOOP8 = [[0, 1, 2, 3, 4, 5, 6, 7], [1, 5, 6, 4, 0, 3, 7, 2],
         [2, 0, 4, 7, 6, 1, 3, 5], [3, 7, 5, 1, 2, 6, 4, 0],
         [4, 2, 0, 5, 3, 7, 1, 6], [5, 3, 7, 6, 1, 0, 2, 4],
         [6, 4, 3, 0, 7, 2, 5, 1], [7, 6, 1, 2, 5, 4, 0, 3]]


class TestRegularityOracle:
    """The T9 oracle walks unordered pairs and returns what a literal
    ordered-pair scan returns."""

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_corpus(self, name):
        g = corpus()[name].group()
        if len(g) > 243:
            pytest.skip("T9 checks corpus groups of order <= 243")
        assert (regular_first_failure_by_definition(g)
                == corpus_regular_failure(name)[0])

    @pytest.mark.parametrize("make", [
        lambda: direct_product(close(quaternion_generators()),
                               close(cyclic_generator(4))),
        lambda: direct_product(close(dihedral_generators()),
                               close(cyclic_generator(2))),
        lambda: basic_group(3, 3, 1),
        lambda: close(diagonal_abelian_generators(3, [[0, 0]])),
        # cyclic subgroups with many generators, each of which is tested
        # against the pair classes of the subgroup's least generator
        lambda: close(cyclic_generator(25)),
        lambda: close(cyclic_generator(27)),
        lambda: close(diagonal_abelian_generators(9, [[1, 0], [0, 1]])),
        lambda: direct_product(close(cyclic_generator(4)),
                               close(cyclic_generator(8))),
        lambda: direct_product(close(dihedral_generators()),
                               close(cyclic_generator(4)))],
        ids=["q8xc4", "d8xc2", "b331", "trivial", "c25", "c27", "c9xc9",
             "c4xc8", "d8xc4"])
    def test_more_groups(self, make):
        g = make()
        assert (regular_first_failure_by_definition(g)
                == reference_regular_failure(g)[0])

    @KERNEL_SETTINGS
    @given(regularity_groups())
    @example(close(quaternion_generators()))
    @example(close(wreath_generators(2)))
    def test_random_p_groups(self, g):
        # failing groups stay in: q8 and wreath2 fail at (1, 2)
        assume(len(g) == 1 or prime_power_base(len(g)) is not None)
        oracle = regular_first_failure_by_definition(g)
        event("irregular" if oracle else "regular")
        assert oracle == reference_regular_failure(g)[0]

    def test_both_orientations(self):
        # LOOP8 checks orientation handling only: the double-coset marking
        # assumes associativity, which a loop need not have
        loop = _TableOnly(LOOP8)
        assert reference_regular_failure(loop)[0] == (2, 1)
        assert regular_first_failure_by_definition(loop) == (2, 1)

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_reads_only_the_table(self, name):
        g = corpus()[name].group()
        if len(g) > 243:
            pytest.skip("T9 checks corpus groups of order <= 243")
        assert g.identity == 0  # _TableOnly's identity
        assert (regular_first_failure_by_definition(_TableOnly(g.full_table()))
                == corpus_regular_failure(name)[0])

    @pytest.mark.parametrize("make", [
        lambda: close(cyclic_generator(6)),
        lambda: close(cyclic_generator(12)),
        lambda: direct_product(close(quaternion_generators()),
                               close(cyclic_generator(3)))],
        ids=["c6", "c12", "q8xc3"])
    def test_composite_element_orders(self, make):
        # not p-groups: with composite element orders, gcd(k, ord y) = 1,
        # which picks the powers y^k marked per closure, differs from
        # "p does not divide k"
        g = make()
        assert (regular_first_failure_by_definition(g)
                == reference_regular_failure(g)[0])


class TestPairScansWithoutTable:
    """(S), p-abelianness, order divisibility and regularity read single
    rows (``FiniteGroup.row``), never the whole Cayley table, and report
    exactly what they report on a group whose table is built."""

    CASES = {
        "s-h5": (lambda: close(heisenberg_generators(5)), has_property_s),
        "s-h5xc4": (lambda: close(_tensor_generators(
            heisenberg_generators(5), cyclic_generator(4))), has_property_s),
        "s-h5xq8": (lambda: close(_tensor_generators(
            heisenberg_generators(5), quaternion_generators())), has_property_s),
        "p-abelian-h5": (lambda: close(heisenberg_generators(5)), is_p_abelian),
        "p-abelian-w3": (lambda: close(wreath_generators(3)), is_p_abelian),
        "order-divisibility-h5": (lambda: close(heisenberg_generators(5)),
                                  order_submultiplicativity),
        "regular-b321": (lambda: basic_group(3, 2, 1), is_regular),
        "v-regular-b321": (lambda: basic_group(3, 2, 1),
                           lambda g: is_v_regular_bounded(g, 2)),
    }

    @staticmethod
    def forbid_tables(monkeypatch):
        def no_table(self):
            raise AssertionError("a Cayley table was built")
        monkeypatch.setattr(FiniteGroup, "full_table", no_table)

    @pytest.mark.parametrize("case", CASES)
    def test_report_matches_a_tabled_twin(self, case, monkeypatch):
        make, decide = self.CASES[case]
        tabled = make()
        tabled.full_table()
        expected = decide(tabled)
        self.forbid_tables(monkeypatch)
        assert decide(make()) == expected

    def test_b321_square_gathers_few_rows(self, monkeypatch):
        # B_3(2,1)**2 is 3-abelian: its generators settle every pair, and
        # no row is gathered; the pair scan behind that test gathers few
        square = direct_power(basic_group(3, 2, 1), 2)
        self.forbid_tables(monkeypatch)
        assert is_regular(square).holds is True
        assert square._rows is None
        scanned = direct_power(basic_group(3, 2, 1), 2)
        monkeypatch.setattr(FiniteGroup, "p_abelian", False)
        assert is_regular(scanned).holds is True
        assert sum(row is not None for row in scanned._rows) < 200

    def test_regular_fails_without_the_table(self, monkeypatch):
        # wreath3 fails z = 1 at (1, 2), and D of that pair is a normal
        # closure read through the kernel's products, not the table
        self.forbid_tables(monkeypatch)
        w = is_regular(close(wreath_generators(3))).witness
        assert (w["left_index"], w["right_index"]) == (1, 2)

    @pytest.mark.parametrize("make, fail, pairs", [
        (lambda: basic_group(3, 2, 2), None, (531441, 76545)),
        (lambda: direct_power(close(dihedral_generators()), 4), (1, 2),
         (4099, 4099)),
        (lambda: direct_product(close(wreath_generators(3)),
                                close(cyclic_generator(27))), (27, 54),
         (59104, 59104))], ids=["b322", "d8^4", "w3xc27"])
    def test_large_groups_without_the_table(self, make, fail, pairs,
                                            monkeypatch):
        self.forbid_tables(monkeypatch)
        report = is_regular(make())
        assert report.holds is (fail is None)
        if fail is not None:
            w = report.witness
            assert (w["left_index"], w["right_index"]) == fail
        assert (report.counters["pairs_checked"],
                report.counters["pairs_evaluated"]) == pairs


class TestPAbelian:
    def test_abelian(self):
        g = close(diagonal_abelian_generators(4, [[1, 0], [0, 1]]))
        assert is_p_abelian(g).holds is True

    def test_heisenberg(self, h3):
        assert is_p_abelian(h3).holds is True

    def test_quaternion_fails(self, q8):
        assert is_p_abelian(q8).holds is False


def definitional_p_abelian(g):
    """Every ordered pair passes ``reference_p_abelian``."""
    check, n = reference_p_abelian(g), len(g)
    return all(check(i, j) for i in range(n) for j in range(n))


# p-groups on which the generator test settles (or not) the pair and
# section scans: h3xc9 is 3-abelian of exponent 9, so an exponent-p test
# would miss it; b322 is regular without being 3-abelian
FAST_PATH_GROUPS = {
    "h3xc9": lambda: direct_product(close(heisenberg_generators(3)),
                                    close(cyclic_generator(9))),
    "b322": lambda: basic_group(3, 2, 2),
    "b321": lambda: basic_group(3, 2, 1),
    "h5": lambda: close(heisenberg_generators(5)),
    "c9": lambda: close(cyclic_generator(9)),
    "w3": lambda: close(wreath_generators(3)),
    "q8": lambda: close(quaternion_generators()),
}
FAST_PATH_DECIDERS = (is_p_abelian, is_regular, has_wp2, has_p1, has_p2)


class TestPAbelianGenerators:
    """``FiniteGroup.p_abelian`` tests (x s)**p = x**p s**p on the
    generators s only.  Its oracles are the all-pairs definition and the
    pair and section scans that it lets p-abelian groups skip."""

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_corpus(self, name):
        g = corpus()[name].group()
        assert g.p_abelian is definitional_p_abelian(g)

    @KERNEL_SETTINGS
    @given(regularity_groups())
    def test_random_p_groups(self, g):
        assume(len(g) == 1 or prime_power_base(len(g)) is not None)
        event(f"p-abelian: {g.p_abelian}")
        assert g.p_abelian is definitional_p_abelian(g)

    def test_non_p_group_rejected(self):
        with pytest.raises(ValueError, match="not a p-group"):
            close(cyclic_generator(6)).p_abelian

    @pytest.mark.parametrize("name", FAST_PATH_GROUPS)
    def test_reports_match_the_scans(self, name, monkeypatch):
        # verdict, witness, pairs_checked and sections_checked are the
        # scans'; only pairs_evaluated may fall
        def compared(report):
            data = report.to_json()
            data["counters"].pop("pairs_evaluated", None)
            return data

        fast = [decide(FAST_PATH_GROUPS[name]()) for decide in FAST_PATH_DECIDERS]
        monkeypatch.setattr(FiniteGroup, "p_abelian", False)
        scanned = [decide(FAST_PATH_GROUPS[name]()) for decide in FAST_PATH_DECIDERS]
        assert [compared(r) for r in fast] == [compared(r) for r in scanned]

    @pytest.mark.parametrize("name", ["h3xc9", "b321", "h5"])
    def test_p_abelian_groups_evaluate_no_pair_and_probe_no_section(
            self, name, monkeypatch):
        g = FAST_PATH_GROUPS[name]()
        assert g.p_abelian is True

        def refuse(*args, **kwargs):
            raise AssertionError("pair or section probed")

        monkeypatch.setattr(FiniteGroup, "row", refuse)
        monkeypatch.setattr(FiniteGroup, "subgroup", refuse)
        for decide in (is_p_abelian, is_regular):
            report = decide(g)
            assert report.holds is True
            assert report.counters["pairs_checked"] == len(g) ** 2
            assert report.counters["pairs_evaluated"] == 0
        monkeypatch.undo()
        monkeypatch.setattr(FiniteGroup, "subgroup", refuse)
        for decide in (has_wp2, has_p1, has_p2):
            assert decide(g).holds is not False


def record_commutator_subgroups(monkeypatch):
    """The orders of the first arguments of every
    ``FiniteGroup.commutator_subgroup`` call from now on, in call order."""
    calls = []
    original = FiniteGroup.commutator_subgroup

    def recording(self, a, b):
        calls.append(len(a))
        return original(self, a, b)

    monkeypatch.setattr(FiniteGroup, "commutator_subgroup", recording)
    return calls


def S3():
    """The symmetric group on three points as permutation matrices."""
    return close([MonomialMatrix.from_perm((1, 0, 2)),
                  MonomialMatrix.from_perm((1, 2, 0))])


class TestEngel:
    def test_abelian_depth_one(self):
        g = close(diagonal_abelian_generators(3, [[1, 0], [0, 1]]))
        assert is_engel(g, 1).holds is True

    @pytest.mark.parametrize("make, k, klass", [
        (lambda: close(heisenberg_generators(5)), 2, 2),
        (lambda: close(heisenberg_generators(5)), 10 ** 9, 2),
        (lambda: close(wreath_generators(3)), 3, 3),
        (lambda: close(wreath_generators(3)), 10 ** 9, 3),
        (lambda: basic_group(3, 2, 1), 2, 2),
        (lambda: direct_product(close(quaternion_generators()),
                                close(cyclic_generator(4))), 2, 2)],
        ids=["h5", "h5-deep", "w3", "w3-deep", "b321", "q8xc4"])
    def test_class_settles_a_pass(self, make, k, klass, monkeypatch):
        # gamma_(k+1) = 1: no table is built and no pair evaluated
        def refuse(*args):
            raise AssertionError("pair scan ran")

        g = make()
        monkeypatch.setattr(FiniteGroup, "full_table", refuse)
        report = is_engel(g, k)
        assert report.holds is True
        assert report.counters == {"pairs_checked": len(g) ** 2,
                                   "pairs_evaluated": 0, "class": klass}

    @pytest.mark.parametrize("make, k, orders", [
        (lambda: close(heisenberg_generators(5)), 10 ** 9, [125, 5]),
        (lambda: S3(), 7, [6, 3])], ids=["h5", "s3"])
    def test_class_test_stops_early(self, make, k, orders, monkeypatch):
        # at the first trivial term, or where the series stalls (S3 at A3)
        g = make()
        calls = record_commutator_subgroups(monkeypatch)
        is_engel(g, k)
        assert calls == orders

    @pytest.mark.parametrize("make", [
        lambda: close(heisenberg_generators(5)), lambda: basic_group(3, 2, 1),
        lambda: close(wreath_generators(3))], ids=["h5", "b321", "w3"])
    def test_one_series_walk_per_group(self, make, monkeypatch):
        # the class, the series and the derived subgroup read the walk
        # that is_engel made: no commutator subgroup is built again
        g = make()
        calls = record_commutator_subgroups(monkeypatch)
        is_engel(g, 2)
        walked = list(calls)
        g.nilpotency_class()
        g.derived_subgroup()
        g.lower_central_series()
        assert walked and calls == walked

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_symmetric_group_matches_the_scan(self, k):
        # S3 is not nilpotent, so every depth falls back to the scan
        g = S3()
        report = is_engel(g, k)
        assert report.holds is False
        assert_matches_scan(report, reference_scan(6, reference_engel(g, k)))

    @pytest.mark.parametrize("k", [10 ** 6, 10 ** 6 + 1])
    @pytest.mark.parametrize("make", [
        S3, lambda: close([MonomialMatrix.from_perm((1, 2, 3, 4, 0)),
                           MonomialMatrix.from_perm((0, 4, 3, 2, 1))]),
        lambda: close([MonomialMatrix.from_perm((1, 2, 0, 3)),
                       MonomialMatrix.from_perm((1, 0, 3, 2))])],
        ids=["s3", "d10", "a4"])
    def test_deep_scan_reads_the_bracket_cycle(self, make, k):
        # not nilpotent, so the bracket levels never reach 1; in each row
        # they repeat by level 12 with a period dividing 12 (1 on S3; on
        # D10, [r^a, s] = r^(-2a) cycles with period 4; on A4, a 3-cycle
        # acts on the Klein four-group with period 3, a period Brent's
        # search does not meet as a power of two), so depth k acts as
        # depth 12 + k % 12
        g = make()
        small = 12 + k % 12
        report = is_engel(g, k)
        assert report.holds is False
        assert_matches_scan(report, reference_scan(len(g), reference_engel(g, small)))
        w = report.witness
        assert w["bracket"] == g.describe(
            engel_bracket(g, w["left_index"], w["right_index"], small))
        assert w["depth"] == k

    def test_basic_group(self):
        assert is_engel(basic_group(3, 2, 1), 2).holds is True

    def test_wreath_fails_depth_two(self, w3):
        # class 3 > 2: the scan runs, and the counters carry no class
        report = is_engel(w3, 2)
        assert report.holds is False
        assert "class" not in report.counters
        bracket = report.witness["bracket"]
        assert bracket != w3.describe(w3.identity)


class TestOrderDivisibility:
    def test_heisenberg(self):
        report = order_submultiplicativity(close(heisenberg_generators(3)))
        assert report.holds is True
        assert report.counters["pairs_checked"] == 729

    def test_abelian(self):
        report = order_submultiplicativity(close(cyclic_generator(8)))
        assert report.holds is True

    def test_dihedral_fails(self):
        # D8 fails (S), and the predicate is decided all the same: the
        # reflections 2 and 4 multiply to a rotation of order 4, which does
        # not divide max(2, 2)
        report = order_submultiplicativity(close(dihedral_generators()))
        assert report.holds is False
        assert (report.witness["left_index"], report.witness["right_index"]) == (2, 4)
        assert report.witness["orders"] == [2, 2, 4]
        assert report.caps == []


class TestChiContainment:
    def test_heisenberg_all_levels(self):
        report = chi_containment(close(heisenberg_generators(3)))
        assert report.holds is True
        assert report.counters["class"] == 2

    def test_single_level(self):
        report = chi_containment(close(heisenberg_generators(5)), 2)
        assert report.holds is True

    def test_level_zero_trivial(self):
        report = chi_containment(close(heisenberg_generators(3)), 0)
        assert report.holds is True

    def test_normalization_from_twisted_cycle(self):
        # generators whose cycle element is a big cycle with det 1, not
        # the plain cycle: diagonal similarity must recover it
        w = W3
        twisted = MonomialMatrix(3, (1, 2, 0), (w, w, w))
        diag = MonomialMatrix.diagonal([ONE, w, w * w])
        report = chi_containment(close([twisted, diag]))
        assert report.holds is True

    @pytest.mark.parametrize("make, elements_checked", [
        (lambda: close(heisenberg_generators(3)), 4),
        (lambda: close(heisenberg_generators(5)), 6),
        (lambda: close([MonomialMatrix(3, (1, 2, 0), (W3, W3, W3)),
                        MonomialMatrix.diagonal([ONE, W3, W3 * W3])]), 4),
        (lambda: hidden_cycle_group(9, DEFAULT_CLOSURE_CAP), 4),
        (lambda: hidden_cycle_group(99, 64), 4)],
        ids=["h3", "h5", "twisted-cycle", "hidden-cycle", "hidden-cycle-generic"])
    def test_builds_no_group(self, make, elements_checked, monkeypatch):
        # g's own lower central terms are read, not those of a conjugate
        # holding the standard cycle: nothing is closed
        g = make()
        built = []
        original_close, original_init = properties.close, FiniteGroup.__init__

        def closing(*args, **kwargs):
            built.append("close")
            return original_close(*args, **kwargs)

        def init(self, *args, **kwargs):
            built.append("FiniteGroup")
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(properties, "close", closing)
        monkeypatch.setattr(FiniteGroup, "__init__", init)
        report = chi_containment(g)
        assert built == []
        assert report.holds is True
        assert report.counters == {"elements_checked": elements_checked,
                                   "levels_checked": 2, "class": 2}

    def test_hidden_cycle_is_not_an_element(self):
        # the conjugate's cycle entries are 9th and 99th roots: no element
        # is the standard cycle itself, only diagonally similar to it
        for den, cap in ((9, DEFAULT_CLOSURE_CAP), (99, 64)):
            g = hidden_cycle_group(den, cap)
            assert big_cycle(3, 1) not in g.elements
            assert len(g) == 27 and g.exponent() == 3

    @pytest.mark.parametrize("den, cap", [(9, DEFAULT_CLOSURE_CAP), (99, 64)],
                             ids=["codes", "generic"])
    def test_rejects_cycles_of_entry_product_not_one(self, den, cap):
        # a cyclic group of order 9: every element on the cycle's
        # permutation has entry product w, so none is similar to the cycle
        z = CyclotomicUnit(1, den)
        g = close([MonomialMatrix(3, (1, 2, 0), (z, z.inverse() * W3, ONE))], cap)
        assert len(g) == 9
        with pytest.raises(ValueError, match="diagonally similar"):
            chi_containment(g)

    def test_rejects_wrong_exponent(self):
        with pytest.raises(ValueError):
            chi_containment(close(wreath_generators(3)))

    def test_rejects_reducible(self):
        # the cycle alone closes to an abelian degree-3 group: exponent 3
        # and cycle present, but reducible
        with pytest.raises(ValueError):
            chi_containment(close([big_cycle(3, 1)]))

    @pytest.mark.parametrize("make, elements_checked", [
        (lambda: close(heisenberg_generators(5)), 6),
        (lambda: close([MonomialMatrix(3, (1, 2, 0), (W3, W3, W3)),
                        MonomialMatrix.diagonal([ONE, W3, W3 * W3])]), 4)],
        ids=["h5", "twisted-cycle"])
    def test_decodes_only_what_it_reads(self, make, elements_checked,
                                        monkeypatch):
        # the standard cycle is found by its code, and only the members of
        # the lower central terms are decoded, one at a time
        decoded = []
        original = MonomialCodec.decode

        def recording(self, code):
            decoded.append(code)
            return original(self, code)

        def refuse(self):
            raise AssertionError("every element decoded")

        g = make()
        monkeypatch.setattr(MonomialCodec, "decode", recording)
        monkeypatch.setattr(FiniteGroup, "elements", property(refuse))
        report = chi_containment(g)
        assert report.holds is True
        assert report.counters["elements_checked"] == elements_checked
        assert len(decoded) < len(g)


def hidden_cycle_group(den, cap):
    """heisenberg3 conjugated by diag(1, z, z**2), z = exp(2*pi*i/den): it
    holds no standard cycle, only the cycle conjugated by that diagonal.
    Closed on the generic path when den passes the cap."""
    z = CyclotomicUnit(1, den)
    e = MonomialMatrix.diagonal([ONE, z, z * z])
    return close([e.inverse() * gen * e for gen in heisenberg_generators(3)], cap)


def float_character_norm(g):
    """Mean squared absolute character value over the monomial group g, in
    floating point: the oracle of the exact ``is_irreducible``."""
    return sum(abs(el.trace()) ** 2 for el in g.elements) / len(g)


def assert_irreducible_matches_float_norm(g):
    """The verdict, and the norm that the exact count gives, against the
    float norm."""
    norm = float_character_norm(g)
    assert is_irreducible(g) is (abs(norm - 1.0) < 1e-6)
    assert abs(properties._fixed_point_count(g) / len(g) - norm) < 1e-6


def swap(z):
    """The order-2 swap with entries z and 1/z."""
    return MonomialMatrix(2, (1, 0), (z, z.inverse()))


class TestIrreducibility:
    def test_degree_one(self):
        assert is_irreducible(close(cyclic_generator(9)))

    def test_heisenberg(self):
        assert is_irreducible(close(heisenberg_generators(3)))
        assert abs(float_character_norm(close(heisenberg_generators(3))) - 1.0) < 1e-9

    def test_diagonal_group_reducible(self):
        assert not is_irreducible(
            close(diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]])))

    def test_abelian_reducible_outright(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("character terms counted")

        monkeypatch.setattr(properties, "_fixed_point_count", refuse)
        assert not is_irreducible(close([big_cycle(3, 1)]))
        assert not is_irreducible(
            close(diagonal_abelian_generators(4, [[1, 0], [0, 2]])))
        assert is_irreducible(close(cyclic_generator(9)))  # degree 1

    @pytest.mark.parametrize("name", [name for name, entry in corpus().items()
                                      if entry.is_monomial])
    def test_corpus_matches_float_norm(self, name):
        assert_irreducible_matches_float_norm(corpus()[name].group())

    @pytest.mark.parametrize("p", [3, 5])
    def test_induced_reps_match_float_norm(self, p):
        verdicts = []
        for chi in all_characters(p, 2, 1):
            g = close(induced_rep_generators(p, 2, 1, chi))
            assert_irreducible_matches_float_norm(g)
            verdicts.append(is_irreducible(g))
        assert True in verdicts and False in verdicts

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=64))
    def test_random_groups_match_float_norm(self, g):
        event(f"irreducible: {is_irreducible(g)}")
        assert_irreducible_matches_float_norm(g)

    @pytest.mark.parametrize("extra, irreducible", [(False, True), (True, False)],
                             ids=["d8", "d8-plus-trivial"])
    def test_generic_path_matches_float_norm(self, extra, irreducible):
        # entries of order 5000, past the closure cap, so the group closes
        # on the matrices themselves: a dihedral group of order 8, alone in
        # degree 2 and with a trivial summand in degree 3
        z = CyclotomicUnit(1, 5000)
        gens = [swap(z), MonomialMatrix.diagonal([CyclotomicUnit(1, 2), ONE])]
        if extra:
            gens = [a.direct_sum(MonomialMatrix.identity(1)) for a in gens]
        g = close(gens)
        assert len(g) == 8 and not isinstance(g.codec, MonomialCodec)
        assert is_irreducible(g) is irreducible
        assert_irreducible_matches_float_norm(g)

    def test_exact_counts(self):
        # |G| * <chi, chi>: norm 1 for heisenberg3, norm 2 with a trivial
        # summand, norm 1 for the generic-path dihedral group of order 8
        h3 = heisenberg_generators(3)
        assert properties._fixed_point_count(close(h3)) == 27
        plus = close([a.direct_sum(MonomialMatrix.identity(1)) for a in h3])
        assert properties._fixed_point_count(plus) == 54
        z = CyclotomicUnit(1, 5000)
        d8 = close([swap(z), MonomialMatrix.diagonal([CyclotomicUnit(1, 2), ONE])])
        assert not isinstance(d8.codec, MonomialCodec)
        assert properties._fixed_point_count(d8) == 8

    def test_decodes_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an element was decoded")

        g = close(heisenberg_generators(5))
        monkeypatch.setattr(MonomialCodec, "decode", refuse)
        assert is_irreducible(g)
        # heisenberg3 plus a trivial summand: non-abelian and reducible
        plus = close([a.direct_sum(MonomialMatrix.identity(1))
                      for a in heisenberg_generators(3)])
        assert isinstance(plus.codec, MonomialCodec) and not plus.is_abelian()
        assert not is_irreducible(plus)


class TestDecidersTakeClosedGroups:
    @pytest.mark.parametrize("name", ["h3", "h5"])
    def test_deciders_close_nothing(self, name, request, monkeypatch):
        g = request.getfixturevalue(name)

        def refuse(*args, **kwargs):
            raise AssertionError("a decider closed generators")

        monkeypatch.setattr(properties, "close", refuse)
        assert has_property_s(g).holds is True
        assert has_property_s_hat_single(g).holds == "holds-capped"
        assert order_submultiplicativity(g).holds is True
        assert is_irreducible(g)
        assert abs(float_character_norm(g) - 1.0) < 1e-9
        assert chi_containment(g).holds is True


class TestImplicationChain:
    def test_regular_failure_forces_s_hat_failure(self, w3):
        # contrapositive on the wreath witness chain
        assert is_regular(w3).holds is False
        assert has_property_s_hat_single(close(wreath_generators(3))).holds is False

    def test_irregular_order8_groups_lack_s_hat(self, q8):
        for gens in (quaternion_generators(), dihedral_generators(),
                     wreath_generators(2)):
            assert is_regular(close(gens)).holds is False
            assert has_property_s_hat_single(close(gens)).holds is False

    def test_no_irreducible_degree2_2group_has_s(self):
        # a 2-group with submultiplicative spectra is abelian, and abelian
        # groups are reducible in degree 2: so every irreducible degree-2
        # 2-group in the corpus must fail the scan
        for gens in (quaternion_generators(), dihedral_generators(),
                     wreath_generators(2)):
            g = close(gens)
            assert g.p_group_base()[0] == 2
            if is_irreducible(close(gens)):
                assert has_property_s(close(gens)).holds is False

    def test_s_passers_satisfy_wp2(self, h3, h5):
        for gens, group in ((heisenberg_generators(3), h3),
                            (heisenberg_generators(5), h5)):
            assert has_property_s(close(gens)).holds is True
            assert has_wp2(group).holds is True

    def test_3groups_with_s_hat_evidence_are_metabelian(self, h3):
        for gens, group in ((heisenberg_generators(3), h3),
                            (cyclic_generator(9), close(cyclic_generator(9))),
                            (diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]]),
                             close(diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]])))):
            if has_property_s_hat_single(close(gens)).passed:
                assert group.is_metabelian()


class TestAbstractClaims:
    """The abstract's first three claims on the basic family, where
    ``has_property_s_hat_basic`` decides s-hat exhaustively: s-hat implies
    regular; a 2-group has s-hat exactly when it is abelian; for odd p,
    p-abelian implies s-hat.  The V-regularity claim needs an exact
    V-regularity decider.  s-hat fails only on B_2(2,1), B_2(2,2) and
    B_3(3,1); B_3(2,2) has s-hat, is regular and is not 3-abelian."""

    FAILING = {(2, 2, 1), (2, 2, 2), (3, 3, 1)}

    @pytest.mark.parametrize("p, c, e", [
        (2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 2, 1),
        (3, 3, 1), (3, 1, 2), (3, 2, 2), (5, 1, 1), (5, 2, 1)],
        ids=lambda v: str(v))
    def test_basic_groups(self, p, c, e):
        g = basic_group(p, c, e)
        s_hat = has_property_s_hat_basic(p, c, e).holds is True
        assert s_hat == ((p, c, e) not in self.FAILING)
        if s_hat:
            assert is_regular(g).holds is True
        if p == 2:
            assert s_hat == g.is_abelian()
        elif is_p_abelian(g).holds is True:
            assert s_hat
