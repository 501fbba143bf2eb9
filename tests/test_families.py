"""Family constructors: deterministic recipes, defining relations, induced
representations and group files."""

import json
import math

import pytest

from submult.cyclotomic import ONE, CyclotomicUnit, Spectrum
from submult.families import (AffineContext, GroupFamilySpec, all_characters,
                              basic_group, big_cycle, build_generators,
                              build_group, cyclic_generator,
                              dihedral_generators, group_file_payload,
                              heisenberg_generators, induced_rep_generators,
                              load_group_file, wreath_generators,
                              write_group_file)
from submult.groups import close, is_prime
from submult.monomial import MonomialMatrix
from submult.properties import is_irreducible


def binomial_diagonal(p, k, i, eta):
    """Diagonal p**k x p**k matrix with entry eta**binom(j, i) at position j
    (binom(j, i) = 0 for j < i): the cross-check for the diagonals of
    ``induced_rep_generators``.  For 1 <= i <= p - 2 and eta a p**k-th root
    the determinant is 1."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1 or i < 1:
        raise ValueError("k and i must be >= 1")
    n = p ** k
    if n % eta.order != 0:
        raise ValueError(f"eta has order {eta.order}, not a p**k-th root")
    return MonomialMatrix.diagonal([eta ** math.comb(j, i) for j in range(n)])


class TestBigCycle:
    def test_order(self):
        assert big_cycle(3, 1).order() == 3
        assert big_cycle(3, 2).order() == 9

    def test_spectrum_is_full_root_set(self):
        ninth_roots = Spectrum(CyclotomicUnit(t, 9) for t in range(9))
        assert big_cycle(3, 2).spectrum() == ninth_roots

    def test_det_of_swap(self):
        assert big_cycle(2, 1).det() == CyclotomicUnit(1, 2)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            big_cycle(4, 1)
        with pytest.raises(ValueError):
            big_cycle(3, 0)


class TestBinomialDiagonal:
    def test_level_one_display(self):
        w = CyclotomicUnit(1, 3)
        assert binomial_diagonal(3, 1, 1, w) == \
            MonomialMatrix.diagonal([ONE, w, w * w])

    def test_identity_scalar(self):
        assert binomial_diagonal(3, 1, 1, ONE) == MonomialMatrix.identity(3)

    def test_determinant_one_for_small_i(self):
        w5 = CyclotomicUnit(1, 5)
        for i in (1, 2, 3):
            assert binomial_diagonal(5, 1, i, w5).det() == ONE
        w25 = CyclotomicUnit(1, 25)
        for i in (1, 2, 3):
            assert binomial_diagonal(5, 2, i, w25).det() == ONE

    def test_rejects_non_root(self):
        with pytest.raises(ValueError):
            binomial_diagonal(3, 1, 1, CyclotomicUnit(1, 2))

    def test_multiplicative_in_eta(self):
        w = CyclotomicUnit(1, 9)
        lhs = binomial_diagonal(3, 2, 1, w) * binomial_diagonal(3, 2, 1, w * w)
        assert lhs == binomial_diagonal(3, 2, 1, w ** 3)


class TestHeisenbergFamily:
    def test_profile(self, h3):
        assert len(h3) == 27
        assert h3.exponent() == 3
        assert h3.nilpotency_class() == 2

    def test_irreducible(self):
        assert is_irreducible(close(heisenberg_generators(3)))
        assert is_irreducible(close(heisenberg_generators(5)))

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            heisenberg_generators(2)


class TestWreathFamily:
    def test_profile(self, w3):
        assert len(w3) == 81
        assert w3.nilpotency_class() == 3
        assert w3.exponent() == 9

    def test_p2_order(self):
        g = close(wreath_generators(2))
        assert len(g) == 8
        assert g.exponent() == 4


class TestBasicFamily:
    @pytest.mark.parametrize("p,c,e", [(3, 2, 1), (3, 2, 2), (5, 2, 1),
                                       (5, 3, 1), (5, 4, 1), (2, 1, 2)])
    def test_relations_and_order(self, p, c, e):
        ctx = AffineContext(p, c, e)
        b = ctx.extension_generator()
        for i in range(1, c + 1):
            a_i = ctx.base_generator(i)
            conj = b.inverse() * a_i * b
            expected = a_i if i == c else a_i * ctx.base_generator(i + 1)
            assert conj == expected
        if p ** (e * (c + 1)) <= 4096:
            g = basic_group(p, c, e)
            assert len(g) == p ** (e * (c + 1))

    def test_b321_profile(self):
        g = basic_group(3, 2, 1)
        assert len(g) == 27
        assert g.exponent() == 3
        assert g.nilpotency_class() == 2

    def test_b541_metabelian(self):
        g = basic_group(5, 4, 1)
        assert len(g) == 5 ** 5
        assert g.is_metabelian()

    def test_extension_generator_order(self):
        g = basic_group(3, 2, 2)
        b = g.elements.index(AffineContext(3, 2, 2).extension_generator())
        assert g.element_order(b) == 9

    @pytest.mark.parametrize("p,c,e", [(2, 1, 3), (2, 2, 4), (3, 2, 2), (3, 3, 2),
                                       (5, 5, 1), (7, 4, 1)])
    def test_m_power_undone_by_the_shift(self, p, c, e):
        # M = (I + L)**-1 with L the index-raising shift, so t steps of
        # v -> v + L v undo M**t, also past t = p**e, where M's powers repeat
        ctx = AffineContext(p, c, e)
        q = ctx.modulus
        vectors = [tuple(int(r == s) for r in range(c)) for s in range(c)]
        vectors.append(tuple((r + 1) % q for r in range(c)))
        for t in range(2 * q):
            for v in vectors:
                w = ctx.apply_m_power(t, v)
                for _ in range(t):
                    w = tuple((w[r] + (w[r - 1] if r else 0)) % q for r in range(c))
                assert w == v, (t, v)

    def test_rejects_oversized_shift(self):
        with pytest.raises(ValueError):
            AffineContext(3, 5, 1)


class TestInducedRepresentations:
    def test_matches_binomial_diagonal(self):
        gens = induced_rep_generators(3, 2, 1, (0, 1))
        assert gens[0] == binomial_diagonal(3, 1, 1, CyclotomicUnit(1, 3))
        assert gens[-1] == big_cycle(3, 1)

    def test_trivial_character(self):
        gens = induced_rep_generators(3, 2, 1, (0, 0))
        assert all(m == MonomialMatrix.identity(3) for m in gens[:-1])

    def test_faithful_character_irreducible(self):
        gens = induced_rep_generators(3, 2, 1, (1, 1))
        assert is_irreducible(close(gens))
        assert len(close(gens)) == 27

    def test_image_order_divides_group_order(self):
        for chi in all_characters(3, 2, 1):
            image = close(induced_rep_generators(3, 2, 1, chi))
            assert 27 % len(image) == 0

    def test_character_count(self):
        assert len(list(all_characters(3, 2, 1))) == 9
        assert len(list(all_characters(5, 2, 1))) == 25
        assert len(list(all_characters(3, 2, 2))) == 81


class TestSmallGroups:
    def test_quaternion_profile(self, q8):
        assert len(q8) == 8
        assert not q8.is_abelian()
        assert q8.exponent() == 4

    def test_dihedral_profile(self):
        g = close(dihedral_generators())
        assert len(g) == 8
        assert not g.is_abelian()

    def test_cyclic_as_one_by_one(self):
        gens = cyclic_generator(9)
        assert gens[0].n == 1
        assert gens[0].entries[0] == CyclotomicUnit(1, 9)


class TestSpecsAndFiles:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            GroupFamilySpec("nonsense", {})

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError):
            GroupFamilySpec("basic", {"p": 3})
        with pytest.raises(ValueError):
            GroupFamilySpec("heisenberg", {"p": 4})

    def test_payload_deterministic(self):
        spec = GroupFamilySpec("heisenberg", {"p": 3})
        assert json.dumps(group_file_payload(spec)) == \
            json.dumps(group_file_payload(spec))

    def test_write_load_round_trip(self, tmp_path):
        spec = GroupFamilySpec("basic", {"p": 3, "c": 2, "e": 1})
        path = tmp_path / "b321.json"
        write_group_file(spec, path)
        loaded = load_group_file(path)
        assert loaded == spec
        assert len(build_group(loaded)) == 27

    def test_tampered_file_rejected(self, tmp_path):
        spec = GroupFamilySpec("heisenberg", {"p": 3})
        path = tmp_path / "h3.json"
        write_group_file(spec, path)
        data = json.loads(path.read_text())
        data["generators"][0]["perm"] = [0, 1, 2]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_group_file(path)

    def test_direct_product_payload(self, tmp_path):
        factors = [GroupFamilySpec("heisenberg", {"p": 3}).to_json(),
                   GroupFamilySpec("cyclic", {"m": 9}).to_json()]
        spec = GroupFamilySpec("direct_product", {"factors": factors})
        gens = build_generators(spec)
        assert all(g.n == 4 for g in gens)
        assert len(close(gens)) == 27 * 9

    def test_diagonal_abelian_build(self):
        spec = GroupFamilySpec("diagonal_abelian",
                               {"m": 3, "vectors": [[1, 2, 0], [0, 1, 2]]})
        g = build_group(spec)
        assert len(g) == 9
        assert g.is_abelian()
