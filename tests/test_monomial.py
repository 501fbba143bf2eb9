"""Monomial matrices: algebra against dense float oracles, exact spectra,
the exponent map and the rotation-difference filtration."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submult.cyclotomic import ONE, CyclotomicUnit, Spectrum
from submult.families import big_cycle
from submult.monomial import (MonomialMatrix, _perm_cycles, diagonal_exponents,
                              in_row_span, rotation_difference_image)


def random_monomial(rng, n=None, dens=(1, 2, 3, 4, 6, 8, 9)):
    n = n or rng.randint(1, 12)
    perm = list(range(n))
    rng.shuffle(perm)
    entries = []
    for _ in range(n):
        den = rng.choice(dens)
        entries.append(CyclotomicUnit(rng.randrange(den), den))
    return MonomialMatrix(n, tuple(perm), tuple(entries))


@st.composite
def monomial_matrices(draw):
    """A monomial matrix of degree <= 6 whose entries are roots of unity of
    the orders ``random_monomial`` draws from."""
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(n)))
    entries = draw(st.lists(
        st.sampled_from((1, 2, 3, 4, 6, 8, 9)).flatmap(
            lambda d: st.builds(CyclotomicUnit, st.integers(0, d - 1), st.just(d))),
        min_size=n, max_size=n))
    return MonomialMatrix(n, tuple(perm), tuple(entries))


def is_identity(m):
    return m == MonomialMatrix.identity(m.n)


def matrix_power(m, k):
    """m**k by |k| products, through the inverse for k < 0."""
    base, out = (m if k >= 0 else m.inverse()), MonomialMatrix.identity(m.n)
    for _ in range(abs(k)):
        out = out * base
    return out


def naive_order(m):
    k, t = 1, m
    while not is_identity(t):
        t = t * m
        k += 1
    return k


class TestAlgebra:
    def test_inverse_random(self):
        rng = random.Random(1)
        for _ in range(100):
            a = random_monomial(rng)
            assert is_identity(a * a.inverse())
            assert is_identity(a.inverse() * a)

    def test_conjugation_shifts_diagonal(self):
        # the fixed column convention, pinned by the degree-3 example:
        # P^-1 diag(w,1,1) P = diag(1,1,w)
        p_mat = big_cycle(3, 1)
        w = CyclotomicUnit(1, 3)
        d = MonomialMatrix.diagonal([w, ONE, ONE])
        assert p_mat.inverse() * d * p_mat == MonomialMatrix.diagonal([ONE, ONE, w])

    def test_product_against_dense_oracle(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 9)
            a, b = random_monomial(rng, n), random_monomial(rng, n)
            exact = np.array((a * b).to_dense())
            dense = np.array(a.to_dense()) @ np.array(b.to_dense())
            assert np.max(np.abs(exact - dense)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MonomialMatrix.identity(2) * MonomialMatrix.identity(3)

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            MonomialMatrix(2, (0, 0), (ONE, ONE))


class TestOrder:
    def test_identity(self):
        assert MonomialMatrix.identity(4).order() == 1

    def test_big_cycle_order(self):
        assert big_cycle(3, 2).order() == 9

    def test_scalar_order(self):
        assert MonomialMatrix.diagonal([CyclotomicUnit(1, 9)]).order() == 9

    def test_cycle_shortcut_agrees_with_iteration(self):
        rng = random.Random(3)
        for _ in range(200):
            m = random_monomial(rng, rng.randint(1, 8))
            assert m.order() == naive_order(m)


class TestSpectrum:
    def test_plain_cycle(self):
        cube_roots = Spectrum(CyclotomicUnit(t, 3) for t in range(3))
        assert big_cycle(3, 1).spectrum() == cube_roots

    def test_signed_swap(self):
        m = MonomialMatrix(2, (1, 0), (ONE, CyclotomicUnit(1, 2)))
        assert m.spectrum() == Spectrum([CyclotomicUnit(1, 4), CyclotomicUnit(3, 4)])

    def test_against_float_eigensolver(self):
        from fractions import Fraction
        import cmath
        rng = random.Random(4)
        for _ in range(150):
            m = random_monomial(rng)
            eigs = np.linalg.eigvals(np.array(m.to_dense()))
            rounded = set()
            for lam in eigs:
                frac = Fraction(cmath.phase(lam) / (2 * cmath.pi)
                                ).limit_denominator(12 * 81) % 1
                unit = CyclotomicUnit(frac.numerator, frac.denominator)
                rounded.add(unit)
                assert abs(lam - unit.to_complex()) < 1e-8
            assert rounded == set(m.spectrum())

    def test_eigenvalue_count_with_multiplicity(self):
        rng = random.Random(5)
        for _ in range(50):
            m = random_monomial(rng)
            assert sum(len(c) for c in _perm_cycles(m.perm)) == m.n
            assert len(m.spectrum()) <= m.n

    def test_inverse_spectrum(self):
        rng = random.Random(6)
        for _ in range(50):
            m = random_monomial(rng)
            assert m.inverse().spectrum() == Spectrum(u.inverse() for u in m.spectrum())

    def test_permutation_similarity_invariance_exhaustive(self):
        rng = random.Random(7)
        for n in range(2, 7):
            m = random_monomial(rng, n)
            for perm in itertools.permutations(range(n)):
                p_mat = MonomialMatrix.from_perm(perm)
                assert (p_mat.inverse() * m * p_mat).spectrum() == m.spectrum()

    def test_eigenvalue_orders_divide_matrix_order(self):
        rng = random.Random(8)
        for _ in range(50):
            m = random_monomial(rng, rng.randint(1, 8))
            order = m.order()
            assert all(order % u.order == 0 for u in m.spectrum())

    @settings(max_examples=100, deadline=None)
    @given(monomial_matrices(), st.data())
    def test_spectrum_of_power(self, m, data):
        k = data.draw(st.integers(-m.order(), m.order()))
        assert matrix_power(m, k).spectrum() == Spectrum(u ** k for u in m.spectrum())


class TestDeterminant:
    def test_identity(self):
        assert MonomialMatrix.identity(5).det() == ONE

    def test_even_cycle(self):
        assert big_cycle(3, 1).det() == ONE

    def test_odd_swap(self):
        assert big_cycle(2, 1).det() == CyclotomicUnit(1, 2)

    def test_multiplicative(self):
        rng = random.Random(9)
        for _ in range(500):
            n = rng.randint(1, 7)
            a, b = random_monomial(rng, n), random_monomial(rng, n)
            assert (a * b).det() == a.det() * b.det()


class TestTensor:
    def test_identity_block(self):
        rng = random.Random(10)
        a = random_monomial(rng, 3)
        t = MonomialMatrix.identity(2).tensor(a)
        assert t.n == 6
        assert t.spectrum() == a.spectrum()

    def test_spectrum_multiplies(self):
        rng = random.Random(11)
        for _ in range(200):
            a = random_monomial(rng, rng.randint(1, 5))
            b = random_monomial(rng, rng.randint(1, 5))
            assert a.tensor(b).spectrum() == a.spectrum().product(b.spectrum())

    def test_dimension(self):
        rng = random.Random(12)
        a, b = random_monomial(rng, 3), random_monomial(rng, 4)
        assert a.tensor(b).n == 12

    def test_tensor_against_dense_kron(self):
        rng = random.Random(13)
        for _ in range(50):
            a, b = random_monomial(rng, 3), random_monomial(rng, 3)
            exact = np.array(a.tensor(b).to_dense())
            dense = np.kron(np.array(a.to_dense()), np.array(b.to_dense()))
            assert np.max(np.abs(exact - dense)) < 1e-10

    def test_direct_sum_spectrum_unions(self):
        rng = random.Random(14)
        a, b = random_monomial(rng, 3), random_monomial(rng, 4)
        assert a.direct_sum(b).spectrum() == Spectrum([*a.spectrum(), *b.spectrum()])


class TestExponentMap:
    def test_identity_maps_to_zero(self):
        assert diagonal_exponents(MonomialMatrix.identity(3), 3, 1) == (0, 0, 0)

    def test_display_example(self):
        w = CyclotomicUnit(1, 3)
        d = MonomialMatrix.diagonal([ONE, w, w * w])
        assert diagonal_exponents(d, 3, 1) == (0, 1, 2)

    def test_conjugation_rotates(self):
        rng = random.Random(15)
        p_mat = big_cycle(5, 1)
        for _ in range(100):
            d = MonomialMatrix.diagonal(
                [CyclotomicUnit(rng.randrange(5), 5) for _ in range(5)])
            lhs = diagonal_exponents(p_mat.inverse() * d * p_mat, 5, 1)
            coords = diagonal_exponents(d, 5, 1)
            assert lhs == coords[1:] + coords[:1]

    def test_homomorphism(self):
        rng = random.Random(16)
        for _ in range(100):
            d1 = MonomialMatrix.diagonal(
                [CyclotomicUnit(rng.randrange(9), 9) for _ in range(4)])
            d2 = MonomialMatrix.diagonal(
                [CyclotomicUnit(rng.randrange(9), 9) for _ in range(4)])
            sums = map(int.__add__, diagonal_exponents(d1, 3, 2),
                       diagonal_exponents(d2, 3, 2))
            assert diagonal_exponents(d1 * d2, 3, 2) == tuple(s % 9 for s in sums)

    def test_rejects_non_diagonal(self):
        with pytest.raises(ValueError):
            diagonal_exponents(big_cycle(3, 1), 3, 1)

    def test_rejects_bad_entry_order(self):
        d = MonomialMatrix.diagonal([CyclotomicUnit(1, 2)])
        with pytest.raises(ValueError):
            diagonal_exponents(d, 3, 1)


class TestRotationDifferenceImage:
    def test_full_space_at_zero(self):
        assert len(rotation_difference_image(3, 0)) == 3

    def test_vanishes_at_p(self):
        assert rotation_difference_image(3, 3) == ()

    def test_dimension_chain(self):
        dims = [len(rotation_difference_image(5, j)) for j in range(6)]
        assert dims == [5, 4, 3, 2, 1, 0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rotation_difference_image(3, 4)

    def test_membership(self):
        basis = rotation_difference_image(3, 1)
        # image of I - rotation is the zero-sum hyperplane
        assert in_row_span(basis, (1, 2, 0), 3)
        assert not in_row_span(basis, (1, 0, 0), 3)
        for row in basis:
            assert sum(row) % 3 == 0

    def test_images_nest(self):
        for p in (3, 5):
            for j in range(p):
                outer = rotation_difference_image(p, j)
                inner = rotation_difference_image(p, j + 1)
                for row in inner:
                    assert in_row_span(outer, row, p)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            m = random_monomial(rng)
            assert MonomialMatrix.from_json(m.to_json()) == m

    def test_file_shape(self):
        m = big_cycle(2, 1)
        assert m.to_json() == {"n": 2, "perm": [1, 0],
                               "entries": [{"num": 0, "den": 1},
                                           {"num": 0, "den": 1}]}
