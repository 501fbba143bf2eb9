"""T1's rounding of float eigenvalues to roots of unity, the work T7 asks
of the (S) scan, and T8's determinant test."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submult import properties, suites
from submult.config import RunConfig
from submult.cyclotomic import ONE, CyclotomicUnit
from submult.suites import (_nearest_fraction, _round_to_root_of_unity,
                            _sampled_spectra, corpus, suite_t7)

# m / 2**j in [-0.5, 0.5], exact in a float for j <= 52
DYADIC = st.integers(1, 52).flatmap(
    lambda j: st.integers(-2 ** (j - 1), 2 ** (j - 1)).map(lambda m: m / 2 ** j))


def fraction_rounding(value, max_den):
    """The nearest root of unity by way of ``Fraction.limit_denominator``."""
    frac = Fraction(cmath.phase(value) / (2 * cmath.pi)).limit_denominator(max_den) % 1
    unit = CyclotomicUnit(frac.numerator, frac.denominator)
    return unit, abs(value - unit.to_complex())


class TestNearestFraction:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.floats(-0.5, 0.5), DYADIC), st.integers(1, 10 ** 4))
    @example(0.5, 1)
    @example(-0.5, 1)
    @example(0.1, 10 ** 4)
    def test_matches_limit_denominator(self, x, max_den):
        assert (_nearest_fraction(x, max_den)
                == Fraction(x).limit_denominator(max_den).as_integer_ratio())

    @pytest.mark.parametrize("k", range(14))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_dyadic_ties(self, k, sign):
        # 2**-(k+1) lies halfway between 0 and 1/2**k, the two candidates
        # at max_den = 2**k; limit_denominator keeps the convergent
        x = sign * 2.0 ** -(k + 1)
        assert (_nearest_fraction(x, 2 ** k)
                == Fraction(x).limit_denominator(2 ** k).as_integer_ratio())


def test_seed0_units_and_residuals():
    """Every eigenvalue T1 rounds at seed 0 gets the unit and residual of
    the ``Fraction`` rounding, and the worst residual is the recorded one."""
    pytest.importorskip("numpy")
    count, worst = 0, 0.0
    for m, p, eigs in _sampled_spectra(0):
        for lam in eigs:
            got = _round_to_root_of_unity(lam, m.n * p * p)
            assert got == fraction_rounding(lam, m.n * p * p)
            count += 1
            worst = max(worst, got[1])
    assert count == 3409
    assert f"{worst:.3e}" == "4.173e-15"


def test_t7_scans_s_once_per_group(monkeypatch):
    """T7 scans (S) once per monomial corpus group, through the entry's
    cached report, and once per sampled tensor product; order divisibility,
    asked only of groups known to have (S), scans none."""
    calls, scan = [], properties.has_property_s

    def counted(g):
        calls.append(len(g))
        return scan(g)

    for module in (suites, properties):
        monkeypatch.setattr(module, "has_property_s", counted)
    corpus.cache_clear()
    criteria = suite_t7(RunConfig())
    assert all(c.passed for c in criteria)
    tensors = [c for c in criteria if c.name.startswith(("tensor of", "direct product"))]
    assert len(tensors) == 8
    monomial = [e for e in corpus().values() if e.is_monomial]
    assert len(calls) == len(monomial) + len(tensors)


@pytest.mark.parametrize("name", [name for name, entry in corpus().items()
                                  if entry.is_monomial])
def test_determinant_one_on_generators(name):
    """The determinant is a homomorphism, so T8's test of its generators
    answers as a test of every element."""
    entry = corpus()[name]
    assert (all(m.det() == ONE for m in entry.gens())
            == all(el.det() == ONE for el in entry.group().elements))
