"""Property deciders: verdicts, witnesses and their replays, and the
implications between them on the named examples."""

import pytest

from submult import properties
from submult.cyclotomic import ONE, CyclotomicUnit, Spectrum
from submult.families import (basic_group, big_cycle, cyclic_generator,
                              diagonal_abelian_generators, dihedral_generators,
                              heisenberg_generators, quaternion_generators,
                              wreath_generators)
from submult.groups import close
from submult.monomial import MonomialMatrix
from submult.properties import (PropertyReport, _pair_derived, character_norm,
                                chi_containment, has_p1, has_p2,
                                has_property_s, has_property_s_hat_basic,
                                has_property_s_hat_single, has_wp2, is_engel,
                                is_irreducible, is_p_abelian, is_regular,
                                is_v_regular_bounded,
                                order_submultiplicativity)

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

    def test_capped_round_trip(self):
        report = is_v_regular_bounded(close(cyclic_generator(3)), 2)
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

    def test_failing_group_detected_even_above_cap(self, w3):
        report = has_p2(w3, section_cap=16)
        assert report.holds is False


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
        lhs = w3.power(w3.mul(x, y), p)
        base = w3.mul(w3.power(x, p), w3.power(y, p))
        assert all(w3.mul(base, w3.power(z, p)) != lhs for z in derived.members)

    def test_quaternion_irregular(self, q8):
        assert is_regular(q8).holds is False

    def test_v_regular_abelian_three_powers(self):
        g = close(diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]]))
        report = is_v_regular_bounded(g, 3)
        assert report.holds == "holds-capped"
        assert report.counters["powers_checked"] == 3

    def test_v_regular_heisenberg_square(self, h3):
        report = is_v_regular_bounded(h3, 2)
        assert report.holds == "holds-capped"
        assert report.counters["powers_checked"] == 2

    def test_v_regular_wreath_fails_immediately(self, w3):
        report = is_v_regular_bounded(w3, 1)
        assert report.holds is False
        assert report.witness["power"] == 1

    def test_v_regular_respects_cap(self, h3):
        from submult.groups import ClosureCapExceeded
        with pytest.raises(ClosureCapExceeded):
            is_v_regular_bounded(h3, 2, cap=10)


def reference_pair_derived(table, identity, x, y):
    """Derived subgroup of <x, y> from scratch: the word closure of every
    pairwise commutator of the word closure of (x, y)."""
    def word_closure(gens):
        members, frontier = {identity}, [identity]
        while frontier:
            frontier = [table[m][s] for m in frontier for s in gens]
            frontier = [m for m in dict.fromkeys(frontier) if m not in members]
            members.update(frontier)
        return tuple(sorted(members))

    inv = [row.index(identity) for row in table]
    pair = word_closure((x, y))
    return word_closure({table[table[inv[a]][inv[b]]][table[a][b]]
                         for a in pair for b in pair})


class TestPairDerived:
    @pytest.mark.parametrize("make", [
        lambda: close(quaternion_generators()),
        lambda: close(dihedral_generators()),
        lambda: close(heisenberg_generators(3)),
        lambda: close(wreath_generators(3)),
        lambda: basic_group(3, 2, 1)], ids=["q8", "d8", "h3", "w3", "b321"])
    def test_matches_word_closure_of_commutators(self, make):
        g = make()
        table = g.full_table()
        inv = [g.inv(i) for i in range(len(g))]
        memo = {}
        for x in range(len(g)):
            for y in range(len(g)):
                pair = g.subgroup((x, y)).members
                if pair not in memo:
                    memo[pair] = reference_pair_derived(table, g.identity, x, y)
                got = _pair_derived(table, inv, g.identity, x, y)
                assert got == memo[pair], (x, y)


class TestPAbelian:
    def test_abelian(self):
        g = close(diagonal_abelian_generators(4, [[1, 0], [0, 1]]))
        assert is_p_abelian(g).holds is True

    def test_heisenberg(self, h3):
        assert is_p_abelian(h3).holds is True

    def test_quaternion_fails(self, q8):
        assert is_p_abelian(q8).holds is False


class TestEngel:
    def test_abelian_depth_one(self):
        g = close(diagonal_abelian_generators(3, [[1, 0], [0, 1]]))
        assert is_engel(g, 1).holds is True

    def test_basic_group(self):
        assert is_engel(basic_group(3, 2, 1), 2).holds is True

    def test_wreath_fails_depth_two(self, w3):
        report = is_engel(w3, 2)
        assert report.holds is False
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

    def test_vacuous_on_s_failure(self):
        report = order_submultiplicativity(close(quaternion_generators()))
        assert report.holds is True
        assert report.counters["pairs_checked"] == 0
        assert any("vacuous" in cap for cap in report.caps)


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

    def test_rejects_wrong_exponent(self):
        with pytest.raises(ValueError):
            chi_containment(close(wreath_generators(3)))

    def test_rejects_reducible(self):
        # the cycle alone closes to an abelian degree-3 group: exponent 3
        # and cycle present, but reducible
        with pytest.raises(ValueError):
            chi_containment(close([big_cycle(3, 1)]))


class TestIrreducibility:
    def test_degree_one(self):
        assert is_irreducible(close(cyclic_generator(9)))

    def test_heisenberg(self):
        assert is_irreducible(close(heisenberg_generators(3)))
        assert abs(character_norm(close(heisenberg_generators(3))) - 1.0) < 1e-9

    def test_diagonal_group_reducible(self):
        assert not is_irreducible(
            close(diagonal_abelian_generators(3, [[1, 2, 0], [0, 1, 2]])))


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
        assert abs(character_norm(g) - 1.0) < 1e-9
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
