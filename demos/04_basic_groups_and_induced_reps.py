"""Split-extension groups and their induced monomial representations.

The basic group at (p, c, e) is the extension of c copies of the cyclic
group of order p**e by an automorphism that multiplies each base
generator into the next one.  Its irreducible representations of degree
above 1 are induced from characters of the base: the extending generator
maps to the full cycle and each base generator to an explicit diagonal.
"""

from submult import (basic_group, close, has_property_s_hat_basic,
                     induced_rep_generators, is_irreducible)
from submult.families import all_characters

g = basic_group(3, 2, 1)
print("order    :", len(g))
print("exponent :", g.exponent())
print("class    :", g.nilpotency_class())

print("\ninduced representation for the character (0, 1):")
for mat in induced_rep_generators(3, 2, 1, (0, 1)):
    print("  ", mat.to_json())

print("\nimage sizes over all 9 characters:")
for chi in all_characters(3, 2, 1):
    gens = induced_rep_generators(3, 2, 1, chi)
    image = close(gens)
    print(f"  chi={chi}: image order {len(image):3d}, "
          f"irreducible={is_irreducible(image)}")

report = has_property_s_hat_basic(3, 2, 1)
print("\nevery induced representation is spectrally submultiplicative:",
      report.holds, report.counters)
