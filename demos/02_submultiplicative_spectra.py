"""Which matrix groups have submultiplicative spectra?

A matrix group has property (s) when every eigenvalue of a product A*B is
a product of an eigenvalue of A and one of B.  The generators are closed
into a group first; the scan interns the spectra and checks every ordered
pair, and a failure comes back as a replayable witness.
"""

import json

from submult import MonomialMatrix, close, has_property_s, heisenberg_generators
from submult.families import quaternion_generators, wreath_generators

# Exponent-3 group of order 27: passes over all 27^2 ordered pairs.
report = has_property_s(close(heisenberg_generators(3)))
print("heisenberg-type group:", report.holds, report.counters)

# The quaternion group of order 8 fails.
report = has_property_s(close(quaternion_generators()))
print("\nquaternion group     :", report.holds)
witness = report.witness
print("witness eigenvalue   :", witness["eigenvalue"])

# Replay the witness from its serialized matrices alone.
left = MonomialMatrix.from_json(witness["left"])
right = MonomialMatrix.from_json(witness["right"])
print("sigma(A)             :", left.spectrum())
print("sigma(B)             :", right.spectrum())
print("sigma(AB)            :", (left * right).spectrum())
print("sigma(A)sigma(B)     :", left.spectrum().product(right.spectrum()))

# The wreath product of two cyclic 3-groups fails too: a ninth root of
# unity appears in a product of two matrices whose spectra only hold
# third roots.
report = has_property_s(close(wreath_generators(3)))
print("\nwreath product       :", report.holds)
print("witness:", json.dumps(report.witness["eigenvalue"]))
