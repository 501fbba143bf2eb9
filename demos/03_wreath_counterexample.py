"""The wreath-product counterexample chain.

The wreath product of two cyclic groups of order 3 is the smallest member
of the corpus that breaks everything at once: the order-dividing sets are
not subgroups (no wp2), the group is irregular, and its natural degree-3
representation loses spectral submultiplicativity.
"""

from submult import close, has_property_s, has_wp2, is_regular
from submult.families import wreath_generators

g = close(wreath_generators(3), name="wreath3")
print("order          :", len(g))
print("exponent       :", g.exponent())
print("class          :", g.nilpotency_class())
print("lower central  :", [len(t) for t in g.lower_central_series()])

wp2 = has_wp2(g)
print("\nwp2            :", wp2.holds)
print("wp2 witness    : element of order", wp2.witness["element_order"],
      "inside the subgroup generated by the order-3 elements")

regular = is_regular(g)
print("\nregular        :", regular.holds)
print("witness pair   :", regular.witness["left_index"],
      regular.witness["right_index"])

spectral = has_property_s(g)
print("\nproperty (s)   :", spectral.holds)
print("eigenvalue     :", spectral.witness["eigenvalue"], "(a ninth root)")
