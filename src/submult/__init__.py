"""Exact engine for finite monomial matrix p-groups over roots of unity.

Core pieces: exact cyclotomic arithmetic (``cyclotomic``), monomial
matrices with per-cycle spectra (``monomial``), a generic finite-group
kernel (``groups``), reproducible family constructors (``families``),
property deciders with replayable witnesses (``properties``), and the
verification harness behind the CLI (``suites``, ``cli``).
"""

from .config import RunConfig
from .cyclotomic import ONE, CyclotomicUnit, Spectrum
from .families import (GroupFamilySpec, basic_group, big_cycle,
                       heisenberg_generators, induced_rep_generators,
                       wreath_generators)
from .groups import (ClosureCapExceeded, FiniteGroup, Subgroup, close,
                     direct_power, direct_product)
from .monomial import MonomialMatrix
from .properties import (PropertyReport, chi_containment, has_p1, has_p2,
                         has_property_s, has_property_s_hat_basic,
                         has_property_s_hat_single, has_wp2, is_engel,
                         is_irreducible, is_p_abelian, is_regular,
                         is_v_regular_bounded, order_submultiplicativity)

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "ONE", "CyclotomicUnit", "Spectrum", "GroupFamilySpec",
    "basic_group", "big_cycle", "heisenberg_generators",
    "induced_rep_generators", "wreath_generators", "ClosureCapExceeded",
    "FiniteGroup", "Subgroup", "close", "direct_power", "direct_product",
    "MonomialMatrix", "PropertyReport", "chi_containment",
    "has_p1", "has_p2", "has_property_s", "has_property_s_hat_basic",
    "has_property_s_hat_single", "has_wp2", "is_engel", "is_irreducible",
    "is_p_abelian", "is_regular", "is_v_regular_bounded",
    "order_submultiplicativity", "__version__",
]
