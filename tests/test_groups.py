"""Finite-group kernel: closure determinism, series, quotients, products
and the power-structure subgroups."""

import functools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from submult.cyclotomic import ONE, CyclotomicUnit
from submult.families import (AffinePair, basic_group, big_cycle,
                              cyclic_generator, diagonal_abelian_generators,
                              dihedral_generators, heisenberg_generators,
                              quaternion_generators, wreath_generators)
from submult.groups import (ClosureCapExceeded, FiniteGroup, close,
                            direct_power, direct_product)
from submult.monomial import MonomialMatrix
from submult.properties import has_p1, has_p2


def brute_commutator_members(g, a_members, b_members):
    seeds = sorted({g.commutator(x, y) for x in a_members for y in b_members})
    return g.subgroup(seeds).members


class TestClosure:
    def test_identity_only(self):
        g = close([MonomialMatrix.identity(3)])
        assert len(g) == 1

    def test_induced_heisenberg_order(self, h3):
        # closure of the cycle and diag(1, w, w^2)
        w = CyclotomicUnit(1, 3)
        g = close([big_cycle(3, 1), MonomialMatrix.diagonal([ONE, w, w * w])])
        assert len(g) == 27
        assert len(h3) == 27

    def test_wreath_order(self, w3):
        assert len(w3) == 81

    def test_cap_exceeded_reports_partial(self):
        with pytest.raises(ClosureCapExceeded) as err:
            close(wreath_generators(3), cap=40)
        assert err.value.partial_size > 40 or err.value.partial_size == 41

    def test_deterministic_indexing(self):
        a = close(wreath_generators(3))
        b = close(wreath_generators(3))
        assert [e.key() for e in a.elements] == [e.key() for e in b.elements]
        assert a.gens == b.gens

    def test_identity_first_and_layer_sorted(self, h3):
        assert h3.elements[0].is_identity()
        assert h3.identity == 0

    def test_mixed_carriers_rejected(self):
        from submult.families import AffineContext
        with pytest.raises(ValueError):
            close([MonomialMatrix.identity(2),
                   AffineContext(3, 2, 1).extension_generator()])


class TestOrdersAndExponent:
    def test_cyclic_nine(self):
        g = close(cyclic_generator(9))
        assert g.exponent() == 9 and len(g) == 9

    def test_heisenberg_exponent(self, h3):
        assert h3.exponent() == 3

    def test_wreath_exponent(self, w3):
        assert w3.exponent() == 9

    def test_element_order_matches_matrix_order(self, h5):
        for i in (0, 1, 5, 17, 60):
            assert h5.element_order(i) == h5.elements[i].order()

    def test_p_group_base(self, w3, q8):
        assert w3.p_group_base() == (3, 4)
        assert q8.p_group_base() == (2, 3)
        g = close(cyclic_generator(6))
        with pytest.raises(ValueError):
            g.p_group_base()


class TestCommutators:
    def test_abelian_derived_trivial(self):
        g = close(diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]]))
        assert len(g.derived_subgroup()) == 1

    def test_heisenberg_derived(self, h3):
        assert len(h3.derived_subgroup()) == 3

    def test_wreath_derived(self, w3):
        assert len(w3.derived_subgroup()) == 9

    def test_derived_matches_all_pairs_oracle(self, h3, w3, q8):
        for g in (h3, w3, q8):
            whole = tuple(range(len(g)))
            assert g.derived_subgroup().members == \
                brute_commutator_members(g, whole, whole)

    def test_generator_commutator_path_matches_all_pairs(self, h3, w3, q8,
                                                         monkeypatch):
        # force the normal-closure-of-generator-commutators route and
        # compare it with the literal all-pairs definition
        from submult import groups as groups_mod
        monkeypatch.setattr(groups_mod, "ALL_PAIRS_COMMUTATOR_LIMIT", 0)
        for g in (h3, w3, q8):
            whole = tuple(range(len(g)))
            assert g.derived_subgroup().members == \
                brute_commutator_members(g, whole, whole)
            series = g.lower_central_series()
            sub = g.commutator_subgroup(series[1], g.whole_subgroup())
            assert sub.members == brute_commutator_members(
                g, series[1].members, whole)

    def test_commutator_subgroup_of_subgroups(self, w3):
        center = w3.center()
        whole = w3.whole_subgroup()
        sub = w3.commutator_subgroup(center, whole)
        assert len(sub) == 1


class TestSeries:
    def test_abelian_class_one(self):
        g = close(diagonal_abelian_generators(3, [[1, 0], [0, 1]]))
        assert g.nilpotency_class() == 1

    def test_basic_group_class(self):
        from submult.families import basic_group
        assert basic_group(3, 2, 1).nilpotency_class() == 2

    def test_wreath_class(self, w3):
        assert w3.nilpotency_class() == 3

    def test_terms_normal_and_quotients_central(self, h3, w3, q8):
        for g in (h3, w3, q8):
            series = g.lower_central_series()
            for i, term in enumerate(series):
                assert term.is_normal()
                if i + 1 < len(series):
                    # [G^(i), G] lands in G^(i+1): centrality of the quotient
                    nxt = set(series[i + 1].members)
                    for x in term.members:
                        for gen in g.gens:
                            assert g.commutator(x, gen) in nxt

    def test_series_orders_strictly_decrease(self, w3):
        orders = [len(t) for t in w3.lower_central_series()]
        assert orders == sorted(orders, reverse=True)
        assert len(set(orders)) == len(orders)
        assert orders[-1] == 1


class TestCenterAndFlags:
    def test_abelian_center_everything(self):
        g = close(diagonal_abelian_generators(4, [[1, 0], [0, 1]]))
        assert len(g.center()) == len(g)
        assert g.is_abelian() and g.is_metabelian()

    def test_heisenberg_center(self, h3):
        assert len(h3.center()) == 3
        assert not h3.is_abelian() and h3.is_metabelian()

    def test_wreath_metabelian(self, w3):
        derived = w3.derived_subgroup()
        assert len(derived) == 9
        assert derived.as_group().is_abelian()
        assert w3.is_metabelian()


class TestPowerStructure:
    def test_cyclic_p_squared(self):
        g = close(cyclic_generator(9))
        assert len(g.order_dividing_set(1)) == 3
        assert g.omega_subgroup(1).members == g.order_dividing_set(1)

    def test_heisenberg_delta_whole(self, h3):
        assert len(h3.order_dividing_set(1)) == 27
        assert len(h3.omega_subgroup(1)) == 27

    def test_wreath_gap(self, w3):
        assert len(w3.omega_subgroup(1)) == 81
        assert len(w3.order_dividing_set(1)) < 81

    def test_omega_agemo_normal(self, h3, w3, q8):
        for g in (h3, w3, q8):
            _, e = g.p_group_base()
            exponent = g.exponent()
            k = 1
            while g.p_group_base()[0] ** k <= exponent:
                assert g.omega_subgroup(k).is_normal()
                assert g.agemo_subgroup(k).is_normal()
                k += 1

    def test_rejects_non_p_group(self):
        g = close(cyclic_generator(6))
        with pytest.raises(ValueError):
            g.order_dividing_set(1)


class TestSubgroupsAndQuotients:
    def test_lagrange(self, w3):
        for sub in w3.all_subgroups(128):
            assert len(w3) % len(sub) == 0

    def test_subgroup_counts_cyclic9(self):
        g = close(cyclic_generator(9))
        assert len(g.all_subgroups()) == 3

    def test_subgroup_counts_q8(self, q8):
        # 1, the center, three cyclic order-4 subgroups, the whole group
        assert len(q8.all_subgroups()) == 6

    def test_subgroup_counts_known_lattices(self, h3):
        d8 = close(dihedral_generators())
        assert len(d8.all_subgroups()) == 10
        assert len(d8.normal_subgroups()) == 6
        c333 = close(diagonal_abelian_generators(
            3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert len(c333.all_subgroups()) == 28
        profile = {}
        for sub in h3.all_subgroups():
            profile[len(sub)] = profile.get(len(sub), 0) + 1
        assert profile == {1: 1, 3: 13, 9: 4, 27: 1}

    def test_quotient_by_whole(self, h3):
        q = h3.quotient(h3.whole_subgroup())
        assert len(q) == 1

    def test_heisenberg_central_quotient(self, h3):
        q = h3.quotient(h3.center())
        assert len(q) == 9
        assert q.is_abelian()
        assert q.exponent() == 3

    def test_quotient_projection_is_homomorphism(self, w3):
        n = w3.derived_subgroup()
        q = w3.quotient(n)
        rng = random.Random(19)
        rep_of = {}
        for i in range(len(w3)):
            coset = min(w3.mul(i, m) for m in n.members)
            rep_of[i] = q.index_of(coset)
        for _ in range(200):
            a, b = rng.randrange(len(w3)), rng.randrange(len(w3))
            assert rep_of[w3.mul(a, b)] == q.mul(rep_of[a], rep_of[b])

    def test_quotient_requires_normal(self, q8):
        sub = q8.subgroup((1,))
        if not sub.is_normal():
            with pytest.raises(ValueError):
                q8.quotient(sub)

    def test_normal_subgroup_enumeration(self, w3):
        normals = w3.normal_subgroups()
        assert len(normals) >= 5
        for sub in normals:
            assert sub.is_normal()
            assert len(w3.quotient(sub)) == len(w3) // len(sub)
        orders = {len(s) for s in normals}
        assert 1 in orders and 81 in orders

    def test_sections_start_with_whole_group(self, h3):
        first = next(iter(h3.sections()))
        h, k, section = first
        assert len(h) == 27 and len(k) == 1 and len(section) == 27


class TestProducts:
    def test_product_with_trivial(self, h3):
        trivial = close([MonomialMatrix.identity(1)])
        g = direct_product(h3, trivial)
        assert len(g) == len(h3)
        assert g.nilpotency_class() == h3.nilpotency_class()

    def test_square_order(self, h3):
        assert len(direct_power(h3, 2)) == 729

    def test_square_class(self, h3):
        assert direct_power(h3, 2).nilpotency_class() == h3.nilpotency_class()

    def test_cap(self, h3):
        with pytest.raises(ClosureCapExceeded):
            direct_power(h3, 3, cap=4096)

    def test_componentwise_orders(self, h3, q8):
        g = direct_product(h3, q8)
        assert len(g) == 27 * 8
        assert g.exponent() == 12


class TestEngelBracket:
    def test_abelian_first_bracket(self):
        g = close(diagonal_abelian_generators(3, [[1, 0], [0, 1]]))
        for x in range(len(g)):
            for y in range(len(g)):
                assert g.engel_bracket(x, y, 1) == g.identity

    def test_heisenberg_second_bracket_trivial(self, h3):
        assert all(h3.engel_bracket(x, y, 2) == h3.identity
                   for x in range(27) for y in range(27))

    def test_wreath_has_nontrivial_second_bracket(self, w3):
        assert any(w3.engel_bracket(x, y, 2) != w3.identity
                   for x in range(81) for y in range(81))


class TestIntegrity:
    def test_spot_checks(self, h3, w3, q8):
        rng = random.Random(20)
        for g in (h3, w3, q8):
            g.spot_check(rng, triples=1000)

    def test_full_table_is_latin_square(self, h3):
        table = h3.full_table()
        n = len(h3)
        for row in table:
            assert sorted(row) == list(range(n))
        for j in range(n):
            assert sorted(table[i][j] for i in range(n)) == list(range(n))

    def test_inverse_array(self, w3):
        for i in range(len(w3)):
            assert w3.mul(i, w3.inv(i)) == w3.identity


# -- the Cayley-table kernel against raw carrier products ---------------------------

def assert_table_matches_raw_products(g):
    """full_table() agrees with index(key(mul_raw(x, y))) on every pair."""
    table = g.full_table()
    n = len(g)
    assert len(table) == n
    for i, x in enumerate(g.elements):
        raw = [g.index_of(g._mul_raw(x, y)) for y in g.elements]
        assert table[i] == raw, f"row {i} differs from the raw products"


@st.composite
def monomial_groups(draw, max_order=200):
    """Closures of 1-3 random monomial matrices of degree <= 4 whose entries
    are roots of unity of order dividing 4 or 9."""
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from((4, 9)))
    matrix = st.builds(
        lambda perm, nums: MonomialMatrix(
            n, tuple(perm), tuple(CyclotomicUnit(a, m) for a in nums)),
        st.permutations(range(n)),
        st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    gens = draw(st.lists(matrix, min_size=1, max_size=3))
    try:
        return close(gens, cap=max_order)
    except ClosureCapExceeded:
        assume(False)


KERNEL_SETTINGS = settings(max_examples=25, deadline=None,
                           suppress_health_check=[HealthCheck.filter_too_much,
                                                  HealthCheck.too_slow])


class TestFullTableKernel:
    @KERNEL_SETTINGS
    @given(monomial_groups())
    def test_monomial_closures(self, g):
        assert_table_matches_raw_products(g)

    @KERNEL_SETTINGS
    @given(monomial_groups(), st.data())
    def test_quotients(self, g, data):
        normal = data.draw(st.sampled_from(
            (g.center(), g.derived_subgroup(), g.whole_subgroup())))
        assert_table_matches_raw_products(g.quotient(normal))

    @KERNEL_SETTINGS
    @given(monomial_groups(), st.data())
    def test_subgroups(self, g, data):
        seeds = data.draw(st.lists(st.integers(0, len(g) - 1), max_size=2))
        assert_table_matches_raw_products(g.subgroup(seeds).as_group())

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=40), monomial_groups(max_order=30))
    def test_direct_products(self, g1, g2):
        assert_table_matches_raw_products(direct_product(g1, g2))

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=24), st.integers(1, 2))
    def test_direct_powers(self, g, m):
        assert_table_matches_raw_products(direct_power(g, m))

    @pytest.mark.parametrize("pce", [(2, 1, 1), (2, 2, 1), (2, 1, 2),
                                     (3, 1, 1), (3, 2, 1), (3, 3, 1),
                                     (5, 2, 1)])
    def test_affine_basic_groups(self, pce):
        assert_table_matches_raw_products(basic_group(*pce))

    def test_non_generating_gens_raise(self, h3):
        g = FiniteGroup(h3.elements, lambda a, b: a * b, h3.identity,
                        key=lambda e: e.key(), describe=lambda e: e.to_json(),
                        gens=h3.gens[:1])
        with pytest.raises(ValueError, match="reach only 3 of 27"):
            g.full_table()

    def test_carrier_products_per_generator_only(self):
        g = close(heisenberg_generators(5))
        raw = g._mul_raw
        calls = [0]

        def counting(a, b):
            calls[0] += 1
            return raw(a, b)

        g._mul_raw = counting
        g.full_table()
        assert calls[0] == len(g.gens) * 125
        calls[0] = 0
        g.full_table()
        assert calls[0] == 0

    def test_rows_filled_by_mul_first(self):
        # lazy products fill rows but do not mark the table built: every
        # row but the last is complete and the last lacks one entry
        g = close(heisenberg_generators(3))
        n = len(g)
        for i in range(n):
            for j in range(n - 1 if i == n - 1 else n):
                g.mul(i, j)
        assert_table_matches_raw_products(g)


# -- the subgroup lattice against from-scratch references ---------------------------
#
# The references are the lattice algorithms the coset-by-coset closure
# replaced: every subgroup is closed again from the identity by breadth-first
# search over the lazy ``mul``, and a subgroup as a group multiplies carriers.

def reference_closure(g, gens):
    seen = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = g.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def reference_subgroup(g, seeds):
    """(members, greedy gens) of the subgroup generated by the seeds."""
    gens, members = [], (g.identity,)
    for s in seeds:
        if s not in members:
            gens.append(s)
            members = reference_closure(g, gens)
    return members, tuple(gens)


def reference_all_subgroups(g):
    known = {(g.identity,): ()}
    frontier = [(g.identity,)]
    for x in range(len(g)):
        members, gens = reference_subgroup(g, (x,))
        if members not in known:
            known[members] = gens
            frontier.append(members)
    while frontier:
        fresh = []
        for sub in frontier:
            for x in range(len(g)):
                if x in sub:
                    continue
                members, gens = reference_subgroup(g, known[sub] + (x,))
                if members not in known:
                    known[members] = gens
                    fresh.append(members)
        frontier = fresh
    return sorted(known.items(), key=lambda kv: (len(kv[0]), kv[0]))


def reference_normal_subgroups(g):
    known = {}
    for cls in g.conjugacy_classes():
        members, gens = reference_subgroup(g, cls)
        known.setdefault(members, gens)
    known.setdefault((g.identity,), ())
    frontier = list(known)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(known):
                members, gens = reference_subgroup(g, known[a] + known[b])
                if members not in known:
                    known[members] = gens
                    fresh.append(members)
        frontier = fresh
    return sorted(known.items(), key=lambda kv: (len(kv[0]), kv[0]))


def reference_as_group(g, members, gens):
    pos = {i: t for t, i in enumerate(members)}
    return FiniteGroup([g.elements[i] for i in members], g._mul_raw,
                       pos[g.identity], key=g._key, describe=g._describe,
                       gens=tuple(pos[x] for x in gens) or (pos[g.identity],))


def reference_sections(g):
    """(H members, K members, |H/K|) in section order."""
    subs = sorted(reference_all_subgroups(g), key=lambda kv: (-len(kv[0]), kv[0]))
    out = []
    for h, h_gens in subs:
        h_grp = reference_as_group(g, h, h_gens)
        for k, _ in reference_normal_subgroups(h_grp):
            out.append((h, k, len(h) // len(k)))
    return out


@functools.lru_cache(maxsize=None)
def lattice_group(name):
    if name == "q8":
        return close(quaternion_generators())
    if name == "d8":
        return close(dihedral_generators())
    if name == "h3":
        return close(heisenberg_generators(3))
    if name == "w3":
        return close(wreath_generators(3))
    if name == "b321":
        return basic_group(3, 2, 1)
    if name == "b521":
        return basic_group(5, 2, 1)
    if name == "c3^3":
        return close(diagonal_abelian_generators(
            3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    if name == "q8xc3":
        return direct_product(lattice_group("q8"), close(cyclic_generator(3)))
    raise KeyError(name)


LATTICE_GROUPS = ("q8", "d8", "h3", "w3", "b321", "c3^3")


class TestSubgroupLattice:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("h3", "w3", "q8", "b521", "q8xc3")), st.data())
    def test_subgroup_matches_reference(self, name, data):
        g = lattice_group(name)
        seeds = data.draw(st.lists(st.integers(0, len(g) - 1), max_size=5))
        sub = g.subgroup(seeds)
        assert (sub.members, sub.gens) == reference_subgroup(g, seeds)

    @pytest.mark.parametrize("name", LATTICE_GROUPS)
    def test_all_subgroups_match_reference(self, name):
        g = lattice_group(name)
        assert [(s.members, s.gens) for s in g.all_subgroups()] == \
            reference_all_subgroups(g)

    @pytest.mark.parametrize("name", LATTICE_GROUPS)
    def test_normal_subgroups_match_reference(self, name):
        g = lattice_group(name)
        assert [(s.members, s.gens) for s in g.normal_subgroups()] == \
            reference_normal_subgroups(g)

    @pytest.mark.parametrize("name", LATTICE_GROUPS)
    def test_sections_match_reference(self, name):
        g = lattice_group(name)
        got = [(h.members, k.members, len(section))
               for h, k, section in g.sections()]
        assert got == reference_sections(g)


class TestLatticeWork:
    """The lattice multiplies no carrier after the Cayley table exists."""

    @staticmethod
    def count_products(monkeypatch, cls):
        calls = [0]
        original = cls.__mul__

        def counting(a, b):
            calls[0] += 1
            return original(a, b)

        monkeypatch.setattr(cls, "__mul__", counting)
        return calls

    def test_p1_section_scan_products(self, monkeypatch):
        g = basic_group(5, 2, 1)
        calls = self.count_products(monkeypatch, AffinePair)
        assert has_p1(g).holds is True
        assert calls[0] == len(g.gens) * 125

    def test_lower_central_series_products(self, monkeypatch):
        g = close(heisenberg_generators(5))
        calls = self.count_products(monkeypatch, MonomialMatrix)
        assert [len(t) for t in g.lower_central_series()] == [125, 5, 1]
        assert calls[0] == len(g.gens) * 125 == 250

    def test_whole_group_failure_skips_the_lattice(self, monkeypatch):
        def no_lattice(self, cap=256):
            raise AssertionError("all_subgroups called")

        monkeypatch.setattr(FiniteGroup, "all_subgroups", no_lattice)
        report = has_p2(close(wreath_generators(3)))
        assert report.holds is False
        assert report.counters == {"sections_checked": 1}
