"""Finite-group kernel: closure determinism, series, quotients, products
and the power-structure subgroups."""

import functools
import gc
import math
import operator
import random
import weakref

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from submult.cyclotomic import ONE, CyclotomicUnit, Spectrum
from submult.families import (AffineCodec, AffineContext, AffinePair,
                              basic_group, big_cycle, cyclic_generator,
                              diagonal_abelian_generators,
                              dihedral_generators, heisenberg_generators,
                              quaternion_generators, wreath_generators)
from submult.groups import (DEFAULT_CLOSURE_CAP, ClosureCapExceeded,
                            FiniteGroup, Subgroup, _CarrierCodec, close,
                            direct_power, direct_product, is_prime,
                            least_prime_factor)
from submult.monomial import MonomialCodec, MonomialMatrix, _perm_cycles
from submult.properties import (_cycle_key_masks, _SpectralClosure, has_p1,
                                has_p2, has_property_s, is_p_abelian,
                                is_regular)
from submult.suites import corpus


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
        assert h3.elements[0] == MonomialMatrix.identity(3)
        assert h3.identity == 0

    def test_mixed_carriers_rejected(self):
        from submult.families import AffineContext
        with pytest.raises(ValueError):
            close([MonomialMatrix.identity(2),
                   AffineContext(3, 2, 1).extension_generator()])


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


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
        # the trivial group is a p-group for every p and reports the least
        assert close(diagonal_abelian_generators(3, [[0, 0]])).p_group_base() == (2, 0)


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

    def test_generator_commutator_path_matches_all_pairs(self, h3, w3, q8):
        # the normal closure of generator commutators against the literal
        # all-pairs definition
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

    def test_subgroup_without_recorded_gens(self):
        # a Subgroup built from members alone (as center() builds them) is
        # seeded from its reduced generators, not its empty gens
        g = basic_group(3, 2, 2)
        whole = g.whole_subgroup()
        bare = Subgroup(g, whole.members, ())
        sub = g.commutator_subgroup(bare, whole)
        assert len(sub) == 9
        assert sub.members == g.derived_subgroup().members


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

    @pytest.mark.parametrize("perms, derived", [
        ([(1, 2, 0, 3, 4), (0, 2, 3, 1, 4), (0, 1, 3, 4, 2)], 60),
        ([(1, 0, 2), (1, 2, 0)], 3)], ids=["a5", "s3"])
    def test_derived_subgroup_of_a_group_not_nilpotent(self, perms, derived):
        # A5 is perfect, so the walk stalls at G at once; S3 stalls at A3.
        # The derived subgroup is still [G, G] by its definition
        g = close([MonomialMatrix.from_perm(p) for p in perms])
        whole = g.whole_subgroup()
        expected = g.commutator_subgroup(whole, whole).members
        assert g.derived_subgroup().members == expected
        assert len(expected) == derived
        with pytest.raises(ValueError, match="stalled"):
            g.lower_central_series()
        with pytest.raises(ValueError, match="stalled"):
            g.nilpotency_class()

    def test_walked_series_keeps_no_reference_cycle(self):
        # a group is freed when its last reference goes, as before its
        # series was cached, not when the cyclic collector next runs
        enabled = gc.isenabled()
        gc.disable()
        try:
            g = basic_group(3, 2, 1)
            g.nilpotency_class()
            g.lower_central_series()
            g.derived_subgroup()
            ref = weakref.ref(g)
            del g
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

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
        assert reference_as_group(w3, derived.members, derived.gens).is_abelian()
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
            rep_of[i] = q.elements.index(coset)
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
        h, kernels, lattice = next(iter(h3.sections()))
        assert len(h) == 27
        # G's kernels are its normal subgroups but 1: a scan probes G/1
        # before it asks for the lattice
        assert [k.members for t, k in enumerate(lattice) if kernels >> t & 1] \
            == [s.members for s in h3.normal_subgroups()[1:]]


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

    @staticmethod
    def forbid_tables(monkeypatch):
        def no_table(self):
            raise AssertionError("a Cayley table was built")
        monkeypatch.setattr(FiniteGroup, "full_table", no_table)

    def test_direct_power_default_cap(self, monkeypatch):
        # 9**4 = 6561 elements: refused before any table is built
        c9 = close(cyclic_generator(9))
        self.forbid_tables(monkeypatch)
        with pytest.raises(ClosureCapExceeded) as err:
            direct_power(c9, 4)
        assert (err.value.partial_size, err.value.cap) == (9 ** 4, DEFAULT_CLOSURE_CAP)

    def test_direct_product_default_cap(self, monkeypatch):
        c81 = close(cyclic_generator(81))
        self.forbid_tables(monkeypatch)
        with pytest.raises(ClosureCapExceeded) as err:
            direct_product(c81, c81)
        assert (err.value.partial_size, err.value.cap) == (81 ** 2, DEFAULT_CLOSURE_CAP)

    def test_componentwise_orders(self, h3, q8):
        g = direct_product(h3, q8)
        assert len(g) == 27 * 8
        assert g.exponent() == 12


def engel_bracket(g, x, y, k):
    """Iterated commutator [x, y, y, ..., y] with k copies of y, walked
    level by level: the tests' reference for ``is_engel``'s witness."""
    if k < 1:
        raise ValueError("k must be >= 1")
    t = g.commutator(x, y)
    for _ in range(k - 1):
        t = g.commutator(t, y)
    return t


class TestEngelBracket:
    def test_abelian_first_bracket(self):
        g = close(diagonal_abelian_generators(3, [[1, 0], [0, 1]]))
        for x in range(len(g)):
            for y in range(len(g)):
                assert engel_bracket(g, x, y, 1) == g.identity

    def test_heisenberg_second_bracket_trivial(self, h3):
        assert all(engel_bracket(h3, x, y, 2) == h3.identity
                   for x in range(27) for y in range(27))

    def test_wreath_has_nontrivial_second_bracket(self, w3):
        assert any(engel_bracket(w3, x, y, 2) != w3.identity
                   for x in range(81) for y in range(81))


class TestIntegrity:
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

    @pytest.mark.parametrize("make", [
        lambda: close([MonomialMatrix.identity(2)]), lambda: close(cyclic_generator(2)),
        lambda: close(wreath_generators(3)), lambda: basic_group(3, 2, 1)],
        ids=["trivial", "c2", "wreath3", "b321"])
    def test_inverses_read_off_the_table(self, make):
        g = make()
        inv = g.inverses()
        assert len(inv) == len(g)
        for i, j in enumerate(inv):
            assert g.mul(i, j) == g.mul(j, i) == g.identity
            assert g.elements[i] * g.elements[j] == g.elements[g.identity]
        assert g.inverses() is inv


# -- the Cayley-table kernel against independent products ---------------------------

def assert_table_matches_raw_products(g, product):
    """full_table() agrees on every pair with ``product``, an independent
    multiplication of the group's elements."""
    table = g.full_table()
    n = len(g)
    pos = {e: i for i, e in enumerate(g.elements)}
    assert len(table) == len(pos) == n
    for i, x in enumerate(g.elements):
        raw = [pos[product(x, y)] for y in g.elements]
        assert table[i] == raw, f"row {i} differs from the raw products"


def componentwise(*factors):
    """The product of index tuples over the factors' own tables."""
    return lambda a, b: tuple(f.mul(x, y) for f, x, y in zip(factors, a, b))


def group_from_carriers(elements, identity, gens):
    """A FiniteGroup on carrier elements in the given order, its
    right-multiplication permutations computed by carrier products."""
    right = {g: [elements.index(x * elements[g]) for x in elements]
             for g in dict.fromkeys(gens)}
    return FiniteGroup(elements, right, identity,
                       describe=lambda e: e.to_json(), gens=tuple(gens))


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


ORDER8_NONABELIAN = (quaternion_generators, dihedral_generators,
                     lambda: wreath_generators(2))


@st.composite
def regularity_groups(draw):
    """A draw of ``monomial_groups(max_order=64)``, or a direct product of
    Q8, D8 or wreath2 with a cyclic or monomial 2-group of order 2-8, so
    that non-abelian orders 16-64, and with them irregular groups, are
    common."""
    if draw(st.booleans()):
        return draw(monomial_groups(max_order=64))
    left = close(draw(st.sampled_from(ORDER8_NONABELIAN))())
    right = draw(st.one_of(
        st.sampled_from((2, 4, 8)).map(lambda m: close(cyclic_generator(m))),
        monomial_groups(max_order=8)))
    assume(len(right) in (2, 4, 8))
    if draw(st.booleans()):
        left, right = right, left
    return direct_product(left, right)


KERNEL_SETTINGS = settings(max_examples=25, deadline=None,
                           suppress_health_check=[HealthCheck.filter_too_much,
                                                  HealthCheck.too_slow])


class TestFullTableKernel:
    @KERNEL_SETTINGS
    @given(monomial_groups())
    def test_monomial_closures(self, g):
        assert_table_matches_raw_products(g, operator.mul)

    @KERNEL_SETTINGS
    @given(monomial_groups(), st.data())
    def test_quotients(self, g, data):
        normal = data.draw(st.sampled_from(
            (g.center(), g.derived_subgroup(), g.whole_subgroup())))
        # a coset's representative is its least element
        assert_table_matches_raw_products(
            g.quotient(normal),
            lambda a, b: min(g.mul(g.mul(a, b), m) for m in normal.members))

    @KERNEL_SETTINGS
    @given(monomial_groups(), st.data())
    def test_subgroups(self, g, data):
        seeds = data.draw(st.lists(st.integers(0, len(g) - 1), max_size=2))
        sub = g.subgroup(seeds)
        assert_table_matches_raw_products(
            reference_as_group(g, sub.members, sub.gens), operator.mul)

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=40), monomial_groups(max_order=30))
    def test_direct_products(self, g1, g2):
        assert_table_matches_raw_products(direct_product(g1, g2),
                                          componentwise(g1, g2))

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=24), st.integers(1, 2))
    def test_direct_powers(self, g, m):
        power = direct_power(g, m)
        assert_table_matches_raw_products(power, componentwise(*[g] * m))
        product = direct_product(*[g] * m)
        assert power.elements == product.elements
        assert power.full_table() == product.full_table()
        assert (power.identity, power.gens) == (product.identity, product.gens)

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=12), monomial_groups(max_order=8),
           monomial_groups(max_order=8))
    def test_ternary_product_matches_nested(self, a, b, c):
        flat = direct_product(a, b, c)
        nested = direct_product(direct_product(a, b), c)
        assert_table_matches_raw_products(flat, componentwise(a, b, c))
        assert flat.full_table() == nested.full_table()
        assert (flat.identity, flat.gens) == (nested.identity, nested.gens)
        i, j, k = flat.elements[-1]
        assert flat.describe(len(flat) - 1) == {
            "tuple": [a.describe(i), b.describe(j), c.describe(k)]}

    @pytest.mark.parametrize("pce", [(2, 1, 1), (2, 2, 1), (2, 1, 2),
                                     (3, 1, 1), (3, 2, 1), (3, 3, 1),
                                     (5, 2, 1)])
    def test_affine_basic_groups(self, pce):
        assert_table_matches_raw_products(basic_group(*pce), operator.mul)

    def test_non_generating_gens_raise(self, h3):
        g = group_from_carriers(h3.elements, h3.identity, h3.gens[:1])
        with pytest.raises(ValueError, match="reach only 3 of 27"):
            g.full_table()

    def test_first_mul_builds_no_table(self, h5):
        # products read columns along the spanning tree; the table is built
        # only when full_table asks for it, and then once
        g = group_from_carriers(h5.elements, h5.identity, h5.gens)
        assert g.mul(3, 7) == h5.full_table()[3][7]
        assert g._table is None
        assert all(g.mul(i, j) == h5.full_table()[i][j]
                   for i in range(125) for j in range(125))
        assert g._table is None
        table = g.full_table()
        assert table == h5.full_table()
        assert g.full_table() is table

    @pytest.mark.parametrize("make", [
        lambda: [MonomialMatrix.identity(2)], lambda: cyclic_generator(1),
        lambda: cyclic_generator(2), lambda: [big_cycle(2, 1)]],
        ids=["identity", "c1", "c2", "swap"])
    def test_orders_one_and_two(self, make):
        # a one-index gather would return a scalar, not a row
        g = close(make())
        assert len(g) in (1, 2)
        assert_table_matches_raw_products(g, operator.mul)
        assert all(type(row) is list for row in g.full_table())

    def test_repeated_and_identity_generators(self):
        a, b = heisenberg_generators(3)
        one = a.identity_like()
        for gens in ([a, a, b], [a, b, a, b], [one, a, b], [a, one, b, one]):
            g = close(gens)
            assert len(g) == 27
            assert len(g.gens) == len(gens)
            assert_table_matches_raw_products(g, operator.mul)


# -- products along the spanning tree against the table's rows ----------------------

def row_power(rows, identity, x, m):
    """x**m by m products along row lookups; x**-1 is where row x holds
    the identity."""
    if m < 0:
        return row_power(rows, identity, rows[x].index(identity), -m)
    t = identity
    for _ in range(m):
        t = rows[t][x]
    return t


def conjugation_by(g, s):
    """x -> s**-1 x s for every element, read off the kernel's conjugation
    map x -> t x t**-1 with t = s**-1."""
    return list(g._conjugation(g.inv(s)))


def row_order(rows, identity, x):
    t, k = x, 1
    while t != identity:
        t, k = rows[t][x], k + 1
    return k


class TestTreeProducts:
    """mul, power maps, inverses, element orders, the exponent, the center
    and conjugation by the generators walk the spanning tree and build no
    Cayley table; each matches the same value read off full_table() rows."""

    @staticmethod
    def assert_match_rows(g):
        n, e = len(g), g.identity
        p = least_prime_factor(n) if n > 1 else 2
        exponents = (-1, 0, 1, 2, p, p * p, n + 1)
        products = [[g.mul(i, j) for j in range(n)] for i in range(n)]
        powers = {m: list(g.power_map(m)) for m in exponents}
        inverses = list(g.inverses())
        orders = [g.element_order(i) for i in range(n)]
        exponent, center = g.exponent(), g.center().members
        conjugation = {s: conjugation_by(g, s) for s in g.gens}
        assert g._table is None
        rows = g.full_table()
        assert products == rows
        for m, image in powers.items():
            assert image == [row_power(rows, e, x, m) for x in range(n)], m
        assert inverses == [row.index(e) for row in rows]
        assert orders == [row_order(rows, e, x) for x in range(n)]
        assert exponent == math.lcm(*orders)
        assert center == tuple(z for z in range(n)
                               if all(rows[z][y] == rows[y][z] for y in range(n)))
        for s, image in conjugation.items():
            s_inv = rows[s].index(e)
            assert image == [rows[rows[s_inv][x]][s] for x in range(n)]

    @KERNEL_SETTINGS
    @given(monomial_groups())
    def test_monomial_groups(self, g):
        self.assert_match_rows(g)

    @KERNEL_SETTINGS
    @given(regularity_groups())
    def test_regularity_groups(self, g):
        self.assert_match_rows(g)

    @KERNEL_SETTINGS
    @given(monomial_groups())
    def test_power_map_reads_the_exponent_modulo_the_order(self, g):
        # the exponents are asked in ascending order, so each negative one
        # before the map of its residue exists
        n = len(g)
        exponents = range(-2 * n, 2 * n + 1)
        maps = {m: list(g.power_map(m)) for m in exponents}
        assert maps[-1] == list(g.inverses())
        rows = g.full_table()
        for m in exponents:
            assert maps[m] == maps[m % n], m
            if m < 2 * n:  # x**(m+1) = x**m x
                assert maps[m + 1] == [rows[y][x] for x, y in enumerate(maps[m])], m

    @pytest.mark.parametrize("make", [
        lambda: close(cyclic_generator(6)), lambda: close(cyclic_generator(1)),
        lambda: direct_product(close(heisenberg_generators(3)),
                               close(quaternion_generators()))],
        ids=["c6", "c1", "h3xq8"])
    def test_named_groups(self, make):
        # C6 and H3 x Q8 are not p-groups: their orders have two prime parts
        self.assert_match_rows(make())


# -- the row store ----------------------------------------------------------------

def twin(g):
    """A fresh group on g's right-multiplication permutations: no row built."""
    return FiniteGroup(g.codes, g._right, g.identity, describe=g._describe,
                       gens=g.gens)


class TestRowStore:
    """``row`` gathers single rows on demand; ``full_table`` completes the
    same store, keeping what was gathered, into the table a fresh twin
    builds."""

    @KERNEL_SETTINGS
    @given(st.one_of(monomial_groups(), regularity_groups(),
                     st.sampled_from((1, 2)).map(
                         lambda m: close(cyclic_generator(m)))),
           st.data())
    def test_rows_match_a_twins_table(self, g, data):
        n = len(g)
        table = twin(g).full_table()
        indices = st.lists(st.integers(0, n - 1), min_size=1, max_size=6)
        before = data.draw(indices)
        gathered = [g.row(x) for x in before]
        assert gathered == [table[x] for x in before]
        assert g._table is None
        full = g.full_table()
        assert full == table
        assert all(type(row) is list for row in full)
        assert g.full_table() is full
        # the table keeps the rows gathered before, not copies
        assert all(full[x] is row for x, row in zip(before, gathered))
        after = data.draw(indices)
        assert [g.row(x) for x in after] == [table[x] for x in after]

    def test_row_gathers_only_its_tree_path(self, h5):
        g = twin(h5)
        x = len(g) - 1
        assert g.row(x) == h5.full_table()[x]
        path, y = {g.identity, x, *g.gens}, x
        while y != g.identity:
            y = g._parent[y][0]
            path.add(y)
        assert {i for i, row in enumerate(g._rows) if row is not None} == path

    @staticmethod
    def stored_maps(g):
        """The distinct sequences of |G| entries that g keeps: its
        attributes, the values of its dicts and the items of its lists."""
        n, found = len(g), {}
        for value in vars(g).values():
            inner = (value.values() if isinstance(value, dict)
                     else value if isinstance(value, list) else ())
            for seq in (value, *inner):
                if isinstance(seq, (list, tuple, range)) and len(seq) == n:
                    found[id(seq)] = seq
        return len(found)

    def test_products_keep_no_map_beside_the_table(self, w3):
        # products, subgroups, conjugation and the series read the table's
        # rows; the inverses are a map of their own, built once
        g = twin(w3)
        g.full_table()
        g.inverses()
        before = self.stored_maps(g)
        x, y = 5, len(g) - 1
        g.subgroup([x, y])
        g.normal_closure([x], (y,))
        assert g.mul(x, y) == g.full_table()[x][y]
        g.commutator(x, y)
        g.center()
        g.conjugacy_classes()
        g.lower_central_series()
        assert self.stored_maps(g) == before

    def test_regularity_keeps_at_most_one_row_per_element(self):
        g = basic_group(3, 2, 2)
        assert is_regular(g).holds is True
        rows = sum(row is not None for row in g._rows)
        assert rows <= len(g)
        # beside the rows: the codes, the store's own list, two generator
        # permutations, the inverses, three power maps and two tree lists
        assert self.stored_maps(g) - rows <= 10


# -- the subgroup lattice against from-scratch references ---------------------------
#
# The references are lattice algorithms that share nothing with the engine's
# coset-by-coset closure or cyclic extension: every subgroup is closed again
# from the identity by breadth-first search over ``mul``, lattices grow by
# adjoining every element, and a subgroup as a group multiplies carriers.
# Their gens are greedy, in seed order; the engine's lattice gens are not.

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
    """Every normal subgroup is a join of normal closures of single
    conjugacy classes, so each new one is joined with those alone."""
    closures = {}
    for cls in g.conjugacy_classes():
        members, gens = reference_subgroup(g, cls)
        closures.setdefault(members, gens)
    known = {(g.identity,): (), **closures}
    frontier = list(known)
    while frontier:
        fresh = []
        for a in frontier:
            inside = set(a)
            for b, b_gens in closures.items():
                if inside.issuperset(b):
                    continue
                members, gens = reference_subgroup(g, known[a] + b_gens)
                if members not in known:
                    known[members] = gens
                    fresh.append(members)
        frontier = fresh
    return sorted(known.items(), key=lambda kv: (len(kv[0]), kv[0]))


def reference_as_group(g, members, gens):
    pos = {i: t for t, i in enumerate(members)}
    return group_from_carriers([g.elements[i] for i in members], pos[g.identity],
                               tuple(pos[x] for x in gens) or (pos[g.identity],))


def expanded_sections(g):
    """(H members, K members, |H/K|) of every section of g: G/1, then each
    K bit of the masks ``FiniteGroup.sections`` yields."""
    out = [(g.whole_subgroup().members, g.trivial_subgroup().members, len(g))]
    for h, kernels, lattice in g.sections():
        out.extend((h.members, k.members, len(h) // len(k))
                   for t, k in enumerate(lattice) if kernels >> t & 1)
    return out


def reference_sections(g):
    """(H members, K members, |H/K|) in section order, on g's indices."""
    subs = sorted(reference_all_subgroups(g), key=lambda kv: (-len(kv[0]), kv[0]))
    out = []
    for h, h_gens in subs:
        h_grp = reference_as_group(g, h, h_gens)
        for k, _ in reference_normal_subgroups(h_grp):
            out.append((h, tuple(h[i] for i in k), len(h) // len(k)))
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
    if name.startswith("c") and "^" in name:  # C_p**r, e.g. "c3^3"
        p, r = map(int, name[1:].split("^"))
        return close(diagonal_abelian_generators(
            p, [[int(i == j) for j in range(r)] for i in range(r)]))
    if name == "q8xc3":
        return direct_product(lattice_group("q8"), close(cyclic_generator(3)))
    raise KeyError(name)


LATTICE_GROUPS = ("q8", "d8", "h3", "w3", "b321", "c3^3")
# elementary abelian groups with wide lattices, checked against the
# reference lattice too
WIDE_LATTICE_GROUPS = ("c2^5", "c3^4")


def gaussian_binomial(r, k, p):
    """The number of subgroups of order p**k in C_p**r."""
    count = 1
    for i in range(k):
        count = count * (p ** (r - i) - 1) // (p ** (i + 1) - 1)
    return count


def elementary_abelian_subgroups(r, p):
    return sum(gaussian_binomial(r, k, p) for k in range(r + 1))


def elementary_abelian_sections(r, p):
    """The pairs K <= H in C_p**r: every section of an abelian group."""
    return sum(gaussian_binomial(r, k, p) * elementary_abelian_subgroups(k, p)
               for k in range(r + 1))


class TestSubgroupLattice:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("h3", "w3", "q8", "b521", "q8xc3")), st.data())
    def test_subgroup_matches_reference(self, name, data):
        g = lattice_group(name)
        seeds = data.draw(st.lists(st.integers(0, len(g) - 1), max_size=5))
        sub = g.subgroup(seeds)
        assert (sub.members, sub.gens) == reference_subgroup(g, seeds)

    @staticmethod
    def assert_polycyclic(g, sub):
        """Each prefix gens[:j] generates a subgroup of order p**j, and all
        of gens generates the members."""
        p, _ = g.p_group_base()
        for j in range(len(sub.gens) + 1):
            assert len(g.subgroup(sub.gens[:j])) == p ** j
        assert g.subgroup(sub.gens).members == sub.members

    @pytest.mark.parametrize("name", LATTICE_GROUPS + WIDE_LATTICE_GROUPS)
    def test_all_subgroups_match_reference(self, name):
        g = lattice_group(name)
        subs = g.all_subgroups()
        assert [s.members for s in subs] == \
            [members for members, _ in reference_all_subgroups(g)]
        for sub in subs:
            self.assert_polycyclic(g, sub)

    @pytest.mark.parametrize("name", LATTICE_GROUPS + WIDE_LATTICE_GROUPS)
    def test_containment_masks_match_brute_force(self, name):
        # bit t of H.below is set exactly when subs[t] is a subset of H
        subs = lattice_group(name).all_subgroups()
        for h in subs:
            assert h.below == sum(1 << t for t, k in enumerate(subs)
                                  if k.member_set <= h.member_set)

    @pytest.mark.parametrize("name", LATTICE_GROUPS + WIDE_LATTICE_GROUPS)
    def test_normal_subgroups_match_reference(self, name):
        g = lattice_group(name)
        subs = g.normal_subgroups()
        assert [s.members for s in subs] == \
            [members for members, _ in reference_normal_subgroups(g)]
        for sub in subs:
            self.assert_polycyclic(g, sub)

    @pytest.mark.parametrize("name, count", [
        ("c2^5", 374), ("c2^6", 2825), ("c3^4", 212), ("c3^3", 28)])
    def test_elementary_abelian_counts(self, name, count):
        # the subgroups of C_p**r are the subspaces of F_p**r
        g = lattice_group(name)
        p, r = map(int, name[1:].split("^"))
        assert elementary_abelian_subgroups(r, p) == count
        subs = g.all_subgroups()
        assert len(subs) == count
        # every subgroup of an abelian group is normal
        assert g.normal_subgroups() == subs
        for decide in (has_p1, has_p2):
            report = decide(g)
            assert report.holds is True
            assert report.counters["sections_checked"] == \
                elementary_abelian_sections(r, p)

    def test_c2_7_exhaustive(self):
        # 29,212 subgroups and 2,379,348 sections, within the default caps
        g = lattice_group.__wrapped__("c2^7")
        assert len(g.all_subgroups()) == elementary_abelian_subgroups(7, 2) == 29212
        report = has_p2(g)
        assert (report.holds, report.caps) == (True, [])
        assert report.counters["sections_checked"] == \
            elementary_abelian_sections(7, 2) == 2379348

    def test_c2_8_lattice_capped(self):
        # 417,199 subgroups: the lattice stops past 128 * 256 of them, and
        # the scan reports the whole group checked, the rest capped
        g = lattice_group.__wrapped__("c2^8")
        assert elementary_abelian_subgroups(8, 2) == 417199
        with pytest.raises(ClosureCapExceeded, match="cap 32768 .*subgroups"):
            g.all_subgroups()
        report = has_p1(g)
        assert report.holds == "holds-capped"
        assert report.counters == {"sections_checked": 1}
        assert report.caps == ["the subgroup lattice of G exceeds 32768 "
                               "subgroups (128 x section cap 256); only the "
                               "group itself was checked"]

    @pytest.mark.parametrize("method", ["all_subgroups", "normal_subgroups"])
    def test_lattice_rejects_non_p_group(self, method):
        g = lattice_group("q8xc3")
        assert len(g) == 24
        with pytest.raises(ValueError, match="not a p-group"):
            getattr(g, method)()

    def test_lattice_does_not_adjoin(self, monkeypatch):
        g = basic_group(3, 2, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("_adjoin called")

        monkeypatch.setattr(FiniteGroup, "_adjoin", refuse)
        assert len(g.all_subgroups(1024)) == 247

    @pytest.mark.parametrize("name", LATTICE_GROUPS)
    def test_sections_match_reference(self, name):
        g = lattice_group(name)
        assert expanded_sections(g) == reference_sections(g)


class TestLatticeWork:
    """The lattice multiplies no carrier after the Cayley table exists, and
    the table of a closed group multiplies none either."""

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
        assert calls[0] == 0

    def test_lower_central_series_products(self, monkeypatch):
        g = close(heisenberg_generators(5))
        calls = self.count_products(monkeypatch, MonomialMatrix)
        assert [len(t) for t in g.lower_central_series()] == [125, 5, 1]
        assert calls[0] == 0

    def test_whole_group_failure_skips_the_lattice(self, monkeypatch):
        # both fail p2 at G/1, which sections yields before any lattice
        def no_lattice(*args, **kwargs):
            raise AssertionError("lattice built")

        for method in ("all_subgroups", "normal_subgroups"):
            monkeypatch.setattr(FiniteGroup, method, no_lattice)
        for g in (close(wreath_generators(3)),
                  direct_product(close(dihedral_generators()),
                                 close(cyclic_generator(2)))):
            report = has_p2(g)
            assert report.holds is False
            assert report.counters == {"sections_checked": 1}
            assert report.witness["kernel_order"] == 1

    @pytest.mark.parametrize("name", LATTICE_GROUPS)
    def test_one_lattice_per_section_pass(self, name, monkeypatch):
        calls = []
        original = FiniteGroup.all_subgroups

        def counting(self, cap):
            calls.append(cap)
            return original(self, cap)

        monkeypatch.setattr(FiniteGroup, "all_subgroups", counting)
        assert sum(1 for _ in lattice_group(name).sections()) > 1
        assert len(calls) == 1

    @pytest.mark.parametrize("name", LATTICE_GROUPS)
    def test_normal_subgroups_from_a_given_lattice(self, name):
        # the G-normal members of a lattice the caller holds are those of a
        # lattice built afresh on another closure of the same group
        g = lattice_group(name)
        fresh = lattice_group.__wrapped__(name)
        given_lattice = g.normal_subgroups(subgroups=g.all_subgroups())
        assert ([(s.members, s.gens) for s in given_lattice]
                == [(s.members, s.gens) for s in fresh.normal_subgroups()])

    @pytest.mark.parametrize("make", [
        lambda: basic_group(5, 2, 1),
        lambda: direct_product(close(dihedral_generators()),
                               close(cyclic_generator(4))),
    ], ids=["b521", "d8xc4"])
    def test_section_scan_builds_no_group(self, make, monkeypatch):
        g = make()

        def refuse(*args, **kwargs):
            raise AssertionError("section built as a group")

        monkeypatch.setattr(FiniteGroup, "quotient", refuse)
        monkeypatch.setattr(FiniteGroup, "__init__", refuse)
        for decide in (has_p1, has_p2):
            report = decide(g)
            assert report.counters["sections_checked"] >= 1


# -- integer codes against the generic closure path -------------------------------
#
# ``close`` runs monomial matrices on integer codes (MonomialCodec) and every
# other carrier on the carriers themselves.  Wrapping a matrix in a carrier
# without a codec forces the generic path on the same group.

class Wrapped:
    """A monomial matrix behind a carrier that offers no codec."""

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __mul__(self, other):
        return Wrapped(self.m * other.m)

    def identity_like(self):
        return Wrapped(self.m.identity_like())

    def key(self):
        return self.m.key()

    def to_json(self):
        return self.m.to_json()

    def __eq__(self, other):
        return isinstance(other, Wrapped) and self.m.key() == other.m.key()

    def __hash__(self):
        return hash(self.m.key())


def reference_spectrum(m):
    """Per cycle, the l-th roots of the cycle's entry product, multiplied
    out in CyclotomicUnit arithmetic."""
    values = []
    for cyc in _perm_cycles(m.perm):
        c = ONE
        for j in cyc:
            c = c * m.entries[j]
        values += [CyclotomicUnit(c.num + c.den * t, c.den * len(cyc))
                   for t in range(len(cyc))]
    return Spectrum(values)


def decode_mask(mask, modulus):
    """The values i/modulus for the set bits i of mask, read bit by bit."""
    return Spectrum(CyclotomicUnit(i, modulus) for i in range(modulus)
                    if mask >> i & 1)


def spectrum_mask(spectrum, modulus):
    """Bit num * modulus/den for each value num/den of the spectrum."""
    assert all(modulus % u.den == 0 for u in spectrum)
    return sum(1 << u.num * (modulus // u.den) for u in spectrum)


@st.composite
def monomial_generator_sets(draw):
    """1-3 monomial matrices of degree 1-3 (1x1 included), with entries
    over mixed denominators such as 3 and 9, sometimes with the identity
    or a repeated generator among them."""
    n = draw(st.integers(1, 3))
    dens = draw(st.sampled_from(((3, 9), (9,), (2, 4), (2, 3))))
    unit = st.builds(CyclotomicUnit, st.integers(0, 8), st.sampled_from(dens))
    matrix = st.builds(
        lambda perm, entries: MonomialMatrix(n, tuple(perm), tuple(entries)),
        st.permutations(range(n)), st.lists(unit, min_size=n, max_size=n))
    gens = draw(st.lists(matrix, min_size=1, max_size=3))
    extra = draw(st.sampled_from(("none", "identity", "repeat")))
    if extra == "identity":
        gens.insert(draw(st.integers(0, len(gens))), MonomialMatrix.identity(n))
    elif extra == "repeat":
        gens.append(draw(st.sampled_from(gens)))
    return gens


CODEC_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


class TestMonomialCodec:
    @staticmethod
    def assert_paths_agree(gens, cap=300):
        try:
            coded = close(gens, cap)
        except ClosureCapExceeded as exc:
            with pytest.raises(ClosureCapExceeded) as err:
                close([Wrapped(m) for m in gens], cap)
            assert err.value.partial_size == exc.partial_size
            return None
        generic = close([Wrapped(m) for m in gens], cap)
        assert isinstance(coded.codec, MonomialCodec)
        assert not isinstance(generic.codec, MonomialCodec)
        assert [w.m for w in generic.elements] == coded.elements
        assert [w.key() for w in generic.elements] == [m.key() for m in coded.elements]
        assert generic._right == coded._right
        assert generic.gens == coded.gens
        return coded

    @CODEC_SETTINGS
    @given(monomial_generator_sets())
    def test_integer_path_matches_generic_path(self, gens):
        self.assert_paths_agree(gens)

    @CODEC_SETTINGS
    @given(monomial_generator_sets())
    def test_interned_spectra(self, gens):
        g = self.assert_paths_agree(gens)
        assume(g is not None)
        sc = _SpectralClosure(g, *_cycle_key_masks(g))
        for i, el in enumerate(g.elements):
            mask = sc.masks[sc.sid[i]]
            assert 0 < mask < 1 << sc.modulus
            assert decode_mask(mask, sc.modulus) == el.spectrum() == reference_spectrum(el)
            assert sc.spectrum(i) == el.spectrum()
        assert len(set(sc.masks)) == len(sc.masks)

    @CODEC_SETTINGS
    @given(monomial_generator_sets())
    def test_product_masks(self, gens):
        g = self.assert_paths_agree(gens)
        assume(g is not None)
        sc = _SpectralClosure(g, *_cycle_key_masks(g))
        spectra = [decode_mask(m, sc.modulus) for m in sc.masks]
        for a, left in enumerate(spectra):
            for b, right in enumerate(spectra):
                assert sc.product_mask(a, b) == spectrum_mask(left.product(right),
                                                              sc.modulus)

    def test_canonical_order_is_not_exponent_order(self):
        # with M = 9, e = 3 is 1/3, which sorts before e = 1, which is 1/9
        one_by_one = [MonomialMatrix(1, (0,), (CyclotomicUnit(1, 9),)),
                      MonomialMatrix(1, (0,), (CyclotomicUnit(1, 3),))]
        g = self.assert_paths_agree(one_by_one)
        assert g.codec.modulus == 9
        assert [e.entries[0] for e in g.elements[:3]] == [
            ONE, CyclotomicUnit(1, 3), CyclotomicUnit(1, 9)]
        # codes hold ranks in that order: exps lists 0, 3, 1, ... by (num, den)
        assert g.codec.exps[:3] == [0, 3, 1]
        assert g.codes[1][1] == (1,) and g.codes[2][1] == (2,)

    def test_modulus_past_cap_takes_generic_path(self):
        # a swap with entries z and 1/z is a diagonal conjugate of the plain
        # swap, so with diag(-1, 1) it generates D8, of order 8 however large
        # the order M = 64 of z: past a cap of 16 no codec is built
        z = CyclotomicUnit(1, 64)
        gens = [MonomialMatrix(2, (1, 0), (z, z.inverse())),
                MonomialMatrix.diagonal([CyclotomicUnit(1, 2), ONE])]
        coded, generic = close(gens), close(gens, 16)
        assert isinstance(coded.codec, MonomialCodec) and generic.codec is _CarrierCodec
        assert generic.elements == coded.elements and len(coded) == 8
        assert generic._right == coded._right and generic.gens == coded.gens
        assert has_property_s(generic).to_json() == has_property_s(coded).to_json()

    def test_decoded_entries_share_units(self, w3):
        units = {id(u) for el in w3.elements for u in el.entries}
        assert len(units) <= w3.codec.modulus

    @pytest.mark.parametrize("wrap", [lambda m: m, Wrapped], ids=["coded", "generic"])
    def test_dimension_mismatch(self, wrap):
        with pytest.raises(ValueError, match="dimension mismatch"):
            close([wrap(MonomialMatrix.identity(2)), wrap(big_cycle(3, 1))])

    def test_group_built_without_close(self, h3, w3):
        # no codes kept: the spectra are interned from the elements
        for g in (h3, w3):
            bare = group_from_carriers(g.elements, g.identity, g.gens)
            assert bare.codec is None
            assert has_property_s(bare).to_json() == has_property_s(g).to_json()


def bfs_layers(g):
    """The slices of g's indices that form its breadth-first layers from
    the identity, read off the right-multiplication permutations."""
    depth, frontier = {g.identity: 0}, [g.identity]
    while frontier:
        new = {perm[x] for x in frontier for perm in g._right.values()} - depth.keys()
        depth.update(dict.fromkeys(new, depth[frontier[0]] + 1))
        frontier = list(new)
    bounds = [i for i in range(1, len(g)) if depth[i] != depth[i - 1]]
    assert sorted(depth.values()) == [depth[i] for i in range(len(g))]
    return [slice(a, b) for a, b in zip([0] + bounds, bounds + [len(g)])]


class TestCodesSortAsKeys:
    """Both integer codecs give codes whose natural order is the canonical
    element order, so ``close`` sorts each layer with no key function."""

    GROUPS = {
        "h3": lambda: close(heisenberg_generators(3)),
        "w3": lambda: close(wreath_generators(3)),
        "q8": lambda: close(quaternion_generators()),
        "mixed": lambda: close([MonomialMatrix(2, (1, 0), (CyclotomicUnit(1, 9),
                                                           CyclotomicUnit(2, 3))),
                                MonomialMatrix.diagonal([CyclotomicUnit(1, 3), ONE])]),
        "b221": lambda: basic_group(2, 2, 1),
        "b331": lambda: basic_group(3, 3, 1),
        "b322": lambda: basic_group(3, 2, 2),
    }

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_layers_increase_in_code_and_key(self, name):
        g = self.GROUPS[name]()
        assert type(g.codec) in (MonomialCodec, AffineCodec)
        assert g.codec.key is None
        layers = bfs_layers(g)
        assert len(layers) > 1
        for layer in layers:
            codes = g.codes[layer]
            keys = [e.key() for e in g.elements[layer]]
            assert all(a < b for a, b in zip(codes, codes[1:]))
            assert all(a < b for a, b in zip(keys, keys[1:]))


class TestAffineCodec:
    """``basic_group`` closes affine pairs on ``V*q + t`` codes; the same
    generators behind ``Wrapped`` take the generic path."""

    @pytest.mark.parametrize("pce", [(2, 1, 1), (3, 2, 1), (3, 3, 1), (5, 2, 1),
                                     (2, 2, 2), (3, 2, 2)])
    def test_integer_path_matches_generic_path(self, pce):
        coded = basic_group(*pce)
        ctx = AffineContext(*pce)
        generic = close([Wrapped(ctx.base_generator(1)),
                         Wrapped(ctx.extension_generator())])
        assert isinstance(coded.codec, AffineCodec)
        assert generic.codec is _CarrierCodec
        assert [w.key() for w in generic.elements] == [a.key() for a in coded.elements]
        assert generic.gens == coded.gens
        assert generic._right == coded._right
        assert generic.full_table() == coded.full_table()

    @pytest.mark.parametrize("pce", [(3, 2, 1), (2, 2, 2), (3, 2, 2)])
    def test_sub_closure_matches_generic_path(self, pce):
        ctx = AffineContext(*pce)
        for gens in ([ctx.base_generator(1)], [ctx.base_generator(ctx.c)],
                     [ctx.base_generator(1) * ctx.extension_generator()]):
            coded = close(gens)
            generic = close([Wrapped(a) for a in gens])
            assert isinstance(coded.codec, AffineCodec)
            assert len(coded) < ctx.modulus ** (ctx.c + 1)
            assert [w.key() for w in generic.elements] == [a.key() for a in coded.elements]
            assert generic.gens == coded.gens
            assert generic._right == coded._right

    @pytest.mark.parametrize("cap", [728, 100, 8])
    def test_full_order_past_cap_builds_no_table(self, cap, monkeypatch):
        # B_3(2,2) has order 729; the codec's tables would have 729 entries
        def no_table(codec, code):
            raise AssertionError("a table was built")

        monkeypatch.setattr(AffineCodec, "right", no_table)
        ctx = AffineContext(3, 2, 2)
        for gens in ([ctx.base_generator(1), ctx.extension_generator()],
                     [ctx.base_generator(1)]):  # a subgroup of order 9
            with pytest.raises(ClosureCapExceeded) as err:
                close(gens, cap)
            assert err.value.cap == cap < err.value.partial_size <= 729

    def test_pairs_from_different_extensions(self):
        with pytest.raises(ValueError, match="different extensions"):
            close([AffineContext(3, 1, 1).base_generator(1),
                   AffineContext(3, 2, 1).base_generator(1)])


class TestDecodeOnRead:
    """A group from ``close`` keeps its codes: a decider that reads indices
    and the table decodes nothing, a witness decodes the elements it
    describes, and ``elements`` decodes each element once."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"decode": 0, "describe": 0}
        decode, describe = MonomialCodec.decode, FiniteGroup.describe

        def counting_decode(codec, code):
            counts["decode"] += 1
            return decode(codec, code)

        def counting_describe(g, i):
            counts["describe"] += 1
            return describe(g, i)

        monkeypatch.setattr(MonomialCodec, "decode", counting_decode)
        monkeypatch.setattr(FiniteGroup, "describe", counting_describe)
        return counts

    @pytest.mark.parametrize("make", [lambda: heisenberg_generators(3),
                                      lambda: wreath_generators(3),
                                      quaternion_generators, dihedral_generators],
                             ids=["h3", "w3", "q8", "d8"])
    def test_deciders_decode_only_their_witness(self, make, counts):
        g = close(make())
        for decide, described in ((has_property_s, 2), (is_p_abelian, 2),
                                  (is_regular, 2), (has_p2, 1)):
            counts.update(decode=0, describe=0)
            report = decide(g)
            assert counts["decode"] == counts["describe"] == (
                0 if report.holds is True else described), decide.__name__

    def test_elements_decode_once(self, counts):
        g = close(wreath_generators(3))
        assert counts["decode"] == 0
        assert len(g.elements) == len(g) == counts["decode"]
        assert g.elements is g.elements
        assert counts["decode"] == len(g)
        assert [g.describe(i) for i in range(len(g))] == [e.to_json() for e in g.elements]


class TestMetabelian:
    """``is_metabelian`` tests on G's table that the generators of G'
    commute; the reference multiplies every pair of members of G'."""

    @staticmethod
    def assert_matches_reference(g):
        derived = g.derived_subgroup().members
        assert g.is_metabelian() == all(g.mul(a, b) == g.mul(b, a)
                                        for a in derived for b in derived)

    @pytest.mark.parametrize("name", LATTICE_GROUPS + ("b521", "q8xc3"))
    def test_lattice_groups(self, name):
        self.assert_matches_reference(lattice_group(name))

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_corpus_groups(self, name):
        self.assert_matches_reference(corpus()[name].group())

    def test_order_729(self):
        self.assert_matches_reference(basic_group(3, 2, 2))

    def test_symmetric_group_is_not_metabelian(self):
        # S4' = A4 is not abelian
        s4 = close([MonomialMatrix.from_perm([1, 0, 2, 3]), big_cycle(2, 2)])
        assert len(s4) == 24 and not s4.is_metabelian()
        self.assert_matches_reference(s4)
