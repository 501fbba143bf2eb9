"""Exact root-of-unity arithmetic: exhaustive invariants and set spectra."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submult.cyclotomic import ONE, CyclotomicUnit, Spectrum


def roots_of_unity(n):
    """All n-th roots of unity, one unit t/n for each t."""
    return Spectrum(CyclotomicUnit(t, n) for t in range(n))


def units_with_den_up_to(limit):
    out = []
    for den in range(1, limit + 1):
        out.extend(CyclotomicUnit(num, den) for num in range(den))
    return sorted(set(out), key=CyclotomicUnit.sort_key)


class TestNormalization:
    def test_gcd_reduction(self):
        assert CyclotomicUnit(5, 10) == CyclotomicUnit(1, 2)

    def test_identity_case(self):
        assert CyclotomicUnit(0, 7) == CyclotomicUnit(0, 1) == ONE

    def test_mod_one_normalization(self):
        assert CyclotomicUnit(-1, 3) == CyclotomicUnit(2, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicUnit(1, 0)
        with pytest.raises(ValueError):
            CyclotomicUnit(1, -3)

    def test_invariant_ranges(self):
        for u in units_with_den_up_to(30):
            assert 0 <= u.num < u.den or u == ONE
            if u != ONE:
                import math
                assert math.gcd(u.num, u.den) == 1


class TestProducts:
    def test_inverse_pair(self):
        assert CyclotomicUnit(1, 3) * CyclotomicUnit(2, 3) == ONE

    def test_i_times_i(self):
        assert CyclotomicUnit(1, 4) * CyclotomicUnit(1, 4) == CyclotomicUnit(1, 2)

    def test_fraction_addition(self):
        assert CyclotomicUnit(1, 3) * CyclotomicUnit(1, 2) == CyclotomicUnit(5, 6)

    def test_commutative_exhaustive(self):
        units = units_with_den_up_to(24)
        for a in units:
            for b in units:
                assert a * b == b * a

    def test_associative_exhaustive_small(self):
        units = units_with_den_up_to(8)
        for a in units:
            for b in units:
                for c in units:
                    assert (a * b) * c == a * (b * c)

    def test_identity_and_inverse_exhaustive(self):
        for a in units_with_den_up_to(64):
            assert a * ONE == a == ONE * a
            assert a * (a ** -1) == ONE
            assert a.inverse() == a ** -1


class TestPowersAndOrder:
    def test_pow_example(self):
        assert CyclotomicUnit(1, 9) ** 3 == CyclotomicUnit(1, 3)

    def test_order_example(self):
        assert CyclotomicUnit(2, 3).order == 3

    def test_minus_one_self_inverse(self):
        assert CyclotomicUnit(1, 2) ** -1 == CyclotomicUnit(1, 2)

    def test_order_is_least_period_exhaustive(self):
        for a in units_with_den_up_to(64):
            k, t = 1, a
            while t != ONE:
                t = t * a
                k += 1
            assert k == a.order
            assert a ** a.order == ONE


class TestSpectrum:
    def test_identity_product(self):
        gamma1 = Spectrum([CyclotomicUnit(1, 3), CyclotomicUnit(2, 3)])
        assert Spectrum([ONE]).product(gamma1) == gamma1

    def test_i_set_squared_collapses(self):
        # oracle: enumerate the four pairwise products and collapse
        pm_i = [CyclotomicUnit(1, 4), CyclotomicUnit(3, 4)]
        expected = Spectrum(a * b for a in pm_i for b in pm_i)
        assert expected == Spectrum([ONE, CyclotomicUnit(1, 2)])
        assert Spectrum(pm_i).product(Spectrum(pm_i)) == expected

    def test_prime_power_roots_absorb(self):
        gamma1 = roots_of_unity(3)
        assert gamma1.product(gamma1) == gamma1

    def test_product_commutative_and_monotone(self):
        rng = random.Random(7)
        pool = units_with_den_up_to(12)
        for _ in range(50):
            a = Spectrum(rng.sample(pool, rng.randint(1, 6)))
            b = Spectrum(rng.sample(pool, rng.randint(1, 6)))
            sub = Spectrum(list(a)[: max(1, len(a) - 1)])
            assert a.product(b) == b.product(a)
            assert set(sub.product(b).elems) <= set(a.product(b).elems)

    def test_canonical_ordering_fixes_equality(self):
        a = Spectrum([CyclotomicUnit(1, 2), ONE, CyclotomicUnit(1, 2)])
        b = Spectrum([ONE, CyclotomicUnit(1, 2)])
        assert a == b and hash(a) == hash(b)
        assert [u.sort_key() for u in a] == sorted(u.sort_key() for u in a)

    def test_json_round_trip(self):
        s = roots_of_unity(5)
        assert Spectrum(map(CyclotomicUnit.from_json, s.to_json())) == s


class SortedTupleSpectrum:
    """Reference spectrum: the sorted tuple of its distinct values, ordered
    by (den, num), with membership and containment by tuple scans."""

    def __init__(self, values):
        self.elems = tuple(sorted(set(values), key=lambda u: (u.den, u.num)))

    def __contains__(self, value):
        return any(value == u for u in self.elems)

    def issubset(self, other):
        return all(u in other for u in self.elems)

    def product(self, other):
        return SortedTupleSpectrum(a * b for a in self.elems for b in other.elems)

    def to_json(self):
        return [{"num": u.num, "den": u.den} for u in self.elems]

    def __repr__(self):
        return "Spectrum({" + ", ".join(f"{u.num}/{u.den}" for u in self.elems) + "})"


# small denominators, so that draws share values and products collide
units = st.builds(CyclotomicUnit, st.integers(-12, 12), st.integers(1, 12))


class TestSpectrumContract:
    """Spectrum keeps the sorted-tuple contract that witness JSON reads:
    ``elems[0]`` and the order ``to_json`` writes."""

    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(units, max_size=8), ys=st.lists(units, max_size=8),
           value=units, data=st.data())
    def test_matches_sorted_tuple_reference(self, xs, ys, value, data):
        a, b = Spectrum(xs), Spectrum(ys)
        ra, rb = SortedTupleSpectrum(xs), SortedTupleSpectrum(ys)
        assert a.elems == ra.elems
        assert a.to_json() == ra.to_json()
        assert repr(a) == repr(ra)
        for u in (value, *xs, *ys):
            assert (u in a) == (u in ra)
        sub = Spectrum(xs[:data.draw(st.integers(0, len(xs)))])
        for left, right in ((a, b), (b, a), (sub, a), (a, sub)):
            ref = SortedTupleSpectrum(left).issubset(SortedTupleSpectrum(right))
            assert left.issubset(right) == ref
        product = a.product(b)
        assert type(product) is Spectrum
        assert product.elems == ra.product(rb).elems
        assert (a == b) == (ra.elems == rb.elems)
        # the same values in any order and with duplicates: an equal spectrum
        again = Spectrum(data.draw(st.permutations(xs + ys + xs)))
        assert again == Spectrum(ys + xs)
        assert again.elems == SortedTupleSpectrum(xs + ys).elems
        assert Spectrum(data.draw(st.permutations(xs + xs))) == a
        assert hash(Spectrum(reversed(xs))) == hash(a)
        # equality is set equality
        assert a == frozenset(xs)


class TestRootFamilies:
    """The units t/n reduce to exactly the n distinct n-th roots."""

    def test_gamma_zero(self):
        assert roots_of_unity(3 ** 0) == Spectrum([ONE])

    def test_gamma_one(self):
        assert roots_of_unity(3) == Spectrum(
            [ONE, CyclotomicUnit(1, 3), CyclotomicUnit(2, 3)])

    def test_gamma_cardinality(self):
        assert len(roots_of_unity(5 ** 2)) == 25

    def test_orders_divide(self):
        assert all(125 % u.order == 0 for u in roots_of_unity(5 ** 3))

    def test_roots_of_unity_plain(self):
        assert len(roots_of_unity(12)) == 12


class TestFloatBridge:
    def test_examples(self):
        assert abs(ONE.to_complex() - 1) < 1e-12
        assert abs(CyclotomicUnit(1, 2).to_complex() + 1) < 1e-12
        assert abs(CyclotomicUnit(1, 4).to_complex() - 1j) < 1e-12

    def test_unit_modulus(self):
        for u in units_with_den_up_to(40):
            assert abs(abs(u.to_complex()) - 1) < 1e-12
