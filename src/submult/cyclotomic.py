"""Exact arithmetic for roots of unity and finite spectra.

A root of unity is stored as a reduced fraction num/den in Q/Z and means
exp(2*pi*i*num/den).  Multiplication is fraction addition mod 1, so the
whole unit-circle group is exact; floating point appears only in
``to_complex``, the bridge used by the numerical test oracles.

Fractions (rather than exponents against a fixed modulus) are used because
eigenvalues of an l-cycle over p**k-th roots of unity live among
(l * p**k)-th roots: no single ambient modulus is convenient.  Within one
closure the lcm M of the generators' denominators serves: ``MonomialCodec``
closes on ranked exponents mod M and interns spectra by cycle length and sum.
Property (S) then fixes one modulus L for the whole closure, the lcm of
its cycle keys' orders, which is the group's exponent, and carries each
spectrum as an int bitmask over Z/L (bit i set when i/L is an
eigenvalue): containment is ``a & ~b == 0`` and the product set is an OR
of rotations.  ``Spectrum.from_mask`` turns a mask back into a spectrum,
for witnesses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable


def json_int(value: object, name: str) -> int:
    """The one reader of an integer from a file: a JSON integer, as given.
    A bool, a float (3.0 included), a string or anything else is refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def json_object(value: object, keys: Iterable[str], what: str) -> None:
    """Refuse all but a JSON object with exactly the keys the tool writes."""
    if not isinstance(value, dict) or value.keys() != set(keys):
        got = f"the keys {list(value)}" if isinstance(value, dict) else type(value).__name__
        raise ValueError(f"{what}: needs exactly the keys {list(keys)}, got {got}")


@dataclass(frozen=True)
class CyclotomicUnit:
    """exp(2*pi*i*num/den), normalized so 0 <= num < den and gcd(num, den) = 1.

    The identity is exactly (0, 1), and the multiplicative order of the
    value equals ``den``.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError(f"denominator must be positive, got {self.den}")
        num = self.num % self.den
        g = math.gcd(num, self.den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", self.den // g)

    @property
    def order(self) -> int:
        return self.den

    def __mul__(self, other: "CyclotomicUnit") -> "CyclotomicUnit":
        return CyclotomicUnit(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    def __pow__(self, k: int) -> "CyclotomicUnit":
        return CyclotomicUnit(self.num * k, self.den)

    def inverse(self) -> "CyclotomicUnit":
        return CyclotomicUnit(-self.num, self.den)

    def sort_key(self) -> tuple[int, int]:
        return (self.den, self.num)

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.num / self.den)

    def to_json(self) -> dict:
        return {"num": self.num, "den": self.den}

    @classmethod
    def from_json(cls, data: dict) -> "CyclotomicUnit":
        json_object(data, ("num", "den"), "malformed root of unity")
        return cls(json_int(data["num"], "num"), json_int(data["den"], "den"))

    def __repr__(self) -> str:
        return f"CyclotomicUnit({self.num}, {self.den})"


ONE = CyclotomicUnit(0, 1)


class Spectrum(frozenset):
    """Finite set of roots of unity, listed by ``elems`` in the canonical
    (den, num) order that output uses.  Membership, ``issubset``, equality
    and hashing are the frozenset's: equality is set equality, so a
    Spectrum equals any frozenset holding the same values."""

    __slots__ = ()

    @property
    def elems(self) -> tuple[CyclotomicUnit, ...]:
        return tuple(sorted(self, key=CyclotomicUnit.sort_key))

    def product(self, other: "Spectrum") -> "Spectrum":
        """All pairwise products, collapsed to a set."""
        return Spectrum(a * b for a in self for b in other)

    def to_json(self) -> list[dict]:
        return [u.to_json() for u in self.elems]

    @classmethod
    def from_mask(cls, mask: int, modulus: int) -> "Spectrum":
        """The values i/modulus for the set bits i of mask."""
        return cls(CyclotomicUnit(i, modulus)
                   for i in range(mask.bit_length()) if mask >> i & 1)

    def __repr__(self) -> str:
        inner = ", ".join(f"{u.num}/{u.den}" for u in self.elems)
        return f"Spectrum({{{inner}}})"

