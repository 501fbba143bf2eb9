"""Power structure, sections, and bounded direct-power regularity.

For a p-group the engine tracks four objects per level k: the set of
elements of order dividing p**k, the subgroup it generates, the set of
p**k-th powers, and the subgroup those generate.  Regularity asks for a
z in the derived subgroup of each pair with (xy)^p = x^p y^p z^p; the
direct-power variant reports bounded evidence only, never a bare yes.
"""

from submult import (basic_group, close, has_p2, is_regular,
                     is_v_regular_bounded)
from submult.families import heisenberg_generators, wreath_generators

h3 = close(heisenberg_generators(3), name="heisenberg3")
w3 = close(wreath_generators(3), name="wreath3")

for name, g in (("heisenberg3", h3), ("wreath3", w3)):
    print(f"{name}: order {len(g)}, exponent {g.exponent()}")
    k = 1
    while 3 ** k <= g.exponent():
        print(f"  level {k}: |order-dividing set| = "
              f"{len(g.order_dividing_set(k))}, "
              f"|generated subgroup| = {len(g.omega_subgroup(k))}, "
              f"|power set| = {len(g.power_image_set(k))}, "
              f"|generated| = {len(g.agemo_subgroup(k))}")
        k += 1

print("\nsection scan (all H/K with H a subgroup, K normal in H):")
print("  heisenberg3 p2:", has_p2(h3).holds,
      has_p2(h3).counters, "(3-abelian: passes by the law)")
print("  wreath3     p2:", has_p2(w3).holds, "(fails at the top section)")

print("\nregularity:")
print("  heisenberg3:", is_regular(h3).holds)
print("  wreath3    :", is_regular(w3).holds)

b321 = basic_group(3, 2, 1)
evidence = is_v_regular_bounded(b321, 2)
print("\ndirect powers of the order-27 split extension:")
print("  verdict :", evidence.holds)
print("  caps    :", evidence.caps[0])
