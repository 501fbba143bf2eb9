"""Monomial matrices over roots of unity, with exact spectra.

Convention (fixed once, column-major): a monomial matrix M of dimension n
is stored as a permutation ``perm`` and an entry list ``entries`` such that
M[perm[j], j] = entries[j] and all other positions are zero.  Equivalently
M maps the basis vector e_j to entries[j] * e_{perm[j]}.

Eigenvalues are computed per permutation cycle, never through a
characteristic polynomial: a cycle of length l whose entries multiply to
the root of unity a/b contributes the l exact solutions of x**l = a/b,
i.e. the reduced fractions (a + b*t) / (b*l).  No floats enter this path;
``to_dense`` exists only so numerical oracles can cross-check it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .cyclotomic import ONE, CyclotomicUnit, Spectrum, json_int, json_object


def _perm_cycles(perm: tuple[int, ...]) -> list[list[int]]:
    """Cycles of j -> perm[j], each starting at its least member, in that order."""
    seen: set[int] = set()
    out = []
    for start in range(len(perm)):
        if start not in seen:
            cyc = [start]
            while (j := perm[cyc[-1]]) != start:
                cyc.append(j)
            seen.update(cyc)
            out.append(cyc)
    return out


@dataclass(frozen=True)
class MonomialMatrix:
    n: int
    perm: tuple[int, ...]
    entries: tuple[CyclotomicUnit, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", tuple(self.perm))
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.perm) != self.n or len(self.entries) != self.n:
            raise ValueError("perm and entries must have length n")
        if sorted(self.perm) != list(range(self.n)):
            raise ValueError("perm is not a bijection on 0..n-1")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        return cls(n, tuple(range(n)), (ONE,) * n)

    @classmethod
    def diagonal(cls, values: list[CyclotomicUnit] | tuple[CyclotomicUnit, ...]) -> "MonomialMatrix":
        values = tuple(values)
        return cls(len(values), tuple(range(len(values))), values)

    @classmethod
    def from_perm(cls, perm: list[int] | tuple[int, ...]) -> "MonomialMatrix":
        perm = tuple(perm)
        return cls(len(perm), perm, (ONE,) * len(perm))

    # -- predicates ----------------------------------------------------------

    def is_diagonal(self) -> bool:
        return self.perm == tuple(range(self.n))

    # -- group structure -----------------------------------------------------

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        perm = tuple(self.perm[other.perm[j]] for j in range(self.n))
        entries = tuple(self.entries[other.perm[j]] * other.entries[j]
                        for j in range(self.n))
        return MonomialMatrix(self.n, perm, entries)

    def inverse(self) -> "MonomialMatrix":
        iperm = [0] * self.n
        for j, r in enumerate(self.perm):
            iperm[r] = j
        entries = tuple(self.entries[iperm[i]].inverse() for i in range(self.n))
        return MonomialMatrix(self.n, tuple(iperm), entries)

    def identity_like(self) -> "MonomialMatrix":
        return MonomialMatrix.identity(self.n)

    @staticmethod
    def closure_codec(gens: Sequence["MonomialMatrix"], cap: int) -> "MonomialCodec | None":
        """None when M passes the cap: the codec's tables have M entries, and
        a swap with entries z and 1/z has order 2 for every root z."""
        m = math.lcm(*(e.den for g in gens for e in g.entries))
        return MonomialCodec(gens) if m <= cap else None

    # -- cycle data ----------------------------------------------------------

    def cycle_data(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """M, the lcm of the entry denominators, and the cycle key over it."""
        m = math.lcm(*(e.den for e in self.entries))
        exps = [e.num * (m // e.den) for e in self.entries]
        return m, _cycle_key(_perm_cycles(self.perm), exps, m)

    def order(self) -> int:
        """Least k >= 1 with self**k = identity: the lcm over cycles of
        l * order(c), since an l-cycle with entry product c has B**l = c*I."""
        return key_order(*self.cycle_data())

    def spectrum(self) -> Spectrum:
        m, cycle_key = self.cycle_data()
        return Spectrum(CyclotomicUnit(s + m * t, m * l)
                        for l, s in cycle_key for t in range(l))

    def det(self) -> CyclotomicUnit:
        """Each l-cycle gives its sign (-1)**(l - 1) times its entry product."""
        m, cycle_key = self.cycle_data()
        return CyclotomicUnit(sum(2 * s + (l - 1) * m for l, s in cycle_key), 2 * m)

    def trace(self) -> complex:
        """Float bridge; exact code never calls this."""
        return sum((self.entries[j].to_complex()
                    for j in range(self.n) if self.perm[j] == j), 0j)

    # -- combination ---------------------------------------------------------

    def tensor(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """Kronecker product; row/column (i1, i2) is packed as i1 * other.n + i2."""
        m = other.n
        n = self.n * m
        perm = [0] * n
        entries: list[CyclotomicUnit] = [ONE] * n
        for j1 in range(self.n):
            for j2 in range(m):
                col = j1 * m + j2
                perm[col] = self.perm[j1] * m + other.perm[j2]
                entries[col] = self.entries[j1] * other.entries[j2]
        return MonomialMatrix(n, tuple(perm), tuple(entries))

    def direct_sum(self, other: "MonomialMatrix") -> "MonomialMatrix":
        perm = self.perm + tuple(r + self.n for r in other.perm)
        return MonomialMatrix(self.n + other.n, perm, self.entries + other.entries)

    # -- canonical form and serialization -------------------------------------

    def key(self) -> tuple:
        return (self.n, self.perm, tuple((e.num, e.den) for e in self.entries))

    def to_dense(self) -> list[list[complex]]:
        out = [[0j] * self.n for _ in range(self.n)]
        for j in range(self.n):
            out[self.perm[j]][j] = self.entries[j].to_complex()
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "perm": list(self.perm),
                "entries": [e.to_json() for e in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "MonomialMatrix":
        json_object(data, ("n", "perm", "entries"), "malformed matrix")
        try:
            return cls(json_int(data["n"], "n"),
                       tuple(json_int(x, f"perm[{j}]") for j, x in enumerate(data["perm"])),
                       tuple(CyclotomicUnit.from_json(e) for e in data["entries"]))
        except TypeError as exc:
            raise ValueError(f"malformed matrix: perm and entries must be lists ({exc})") from exc


def _cycle_key(cycles: list[list[int]], exps: Sequence[int], m: int
               ) -> tuple[tuple[int, int], ...]:
    """The sorted (length, exponent sum mod m) of the cycles."""
    return tuple(sorted((len(c), sum(map(exps.__getitem__, c)) % m) for c in cycles))


class MonomialCodec:
    """Integer codes for the monomial matrices that ``gens`` generate: their
    entries are M-th roots of unity, M the lcm of the generators' entry
    denominators.  A matrix is ``(perm, ranks)``, entry j
    exp(2*pi*i*exps[ranks[j]]/M), ``exps`` the exponents 0..M-1 ordered by
    the reduced (num, den) of e/M, so codes sort as ``MonomialMatrix.key()``
    (``key`` is None).  An l-cycle with exponent sum s has eigenvalues
    (s + M*t) / (M*l), so ``cycle_key``, the sorted (l, s mod M), fixes the
    spectrum."""

    key = None

    def __init__(self, gens: Sequence[MonomialMatrix]):
        n = self.n = gens[0].n
        if any(g.n != n for g in gens):
            raise ValueError(f"dimension mismatch: {sorted({g.n for g in gens})}")
        m = self.modulus = math.lcm(*(e.den for g in gens for e in g.entries))
        exps = self.exps = sorted(range(m), key=lambda e: (e // (g := math.gcd(e, m)), m // g))
        rank = self._rank = sorted(range(m), key=exps.__getitem__)  # exponent -> rank
        # a -> the table rank r -> rank of exps[r] + exps[a], built once per a
        self._shift = functools.cache(lambda a: [rank[(e + exps[a]) % m] for e in exps])
        self._cycles: dict[tuple[int, ...], list[list[int]]] = {}

    def encode(self, g: MonomialMatrix) -> tuple:
        m, rank = self.modulus, self._rank
        return g.perm, tuple(rank[e.num * (m // e.den)] for e in g.entries)

    def right(self, code: tuple) -> Callable[[tuple], tuple]:
        """x -> x*g on codes, g given by its code."""
        perm, ranks = code
        # a one-index itemgetter returns a scalar, a one-entry slice a tuple
        gather = operator.itemgetter(*perm) if self.n > 1 else operator.itemgetter(slice(1))
        if not any(ranks):  # all entries 1 (rank 0): a permutation matrix
            return lambda x: (gather(x[0]), gather(x[1]))
        shifts, getitem = [self._shift(a) for a in ranks], operator.getitem
        if perm == tuple(range(self.n)):  # a diagonal matrix
            return lambda x: (x[0], tuple(map(getitem, shifts, x[1])))
        return lambda x: (gather(x[0]), tuple(map(getitem, shifts, gather(x[1]))))

    @functools.cached_property
    def _units(self) -> list[CyclotomicUnit]:  # rank -> unit, shared by decoded entries
        return [CyclotomicUnit(e, self.modulus) for e in self.exps]

    def decode(self, code: tuple) -> MonomialMatrix:
        return MonomialMatrix(self.n, code[0], tuple(map(self._units.__getitem__, code[1])))

    def cycle_key(self, code: tuple) -> tuple[tuple[int, int], ...]:
        perm, ranks = code
        cycles = self._cycles.get(perm) or self._cycles.setdefault(perm, _perm_cycles(perm))
        return _cycle_key(cycles, list(map(self.exps.__getitem__, ranks)), self.modulus)


def key_order(m: int, cycle_key: tuple[tuple[int, int], ...]) -> int:
    """The order of a matrix with this cycle key over Z/m, the lcm over its
    cycles of l * order(s/m) (``MonomialMatrix.order``); every eigenvalue's
    order divides it."""
    return math.lcm(*(l * (m // math.gcd(s, m)) for l, s in cycle_key))


def key_mask(m: int, cycle_key: tuple[tuple[int, int], ...], modulus: int) -> int:
    """The spectrum of a cycle key over Z/m as a bitmask over Z/modulus: bit
    i for the value i/modulus.  modulus must be a multiple of
    ``key_order(m, cycle_key)``, so each eigenvalue (s + m*t) / (m*l) is
    some i/modulus."""
    mask = 0
    for l, s in cycle_key:
        for t in range(l):
            mask |= 1 << (s + m * t) * modulus // (m * l)
    return mask


def diagonal_exponents(d: MonomialMatrix, p: int, k: int) -> tuple[int, ...]:
    """Write a diagonal matrix as diag(w**l_j) for w = exp(2*pi*i/p**k) and
    return (l_0, ..., l_{n-1}), each l_j in [0, p**k).

    This is a homomorphism from diagonal matrices under multiplication to
    exponent vectors under addition.
    """
    if not d.is_diagonal():
        raise ValueError("matrix is not diagonal")
    modulus = p ** k
    coords = []
    for e in d.entries:
        if modulus % e.den != 0:
            raise ValueError(
                f"entry order {e.den} does not divide {p}**{k}")
        coords.append(e.num * (modulus // e.den))
    return tuple(coords)


# -- linear algebra over Z/p for the rotation-difference filtration ----------

def _rref_mod_p(rows: list[list[int]], p: int) -> list[tuple[int, ...]]:
    """Row-reduce over the field Z/p; returns the nonzero rows, pivots 1,
    pivot columns cleared, in pivot-column order."""
    rows = [[x % p for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    reduced: list[list[int]] = []
    pivot_cols: list[int] = []
    for row in rows:
        row = row[:]
        for prow, pcol in zip(reduced, pivot_cols):
            factor = row[pcol]
            if factor:
                row = [(a - factor * b) % p for a, b in zip(row, prow)]
        pcol = next((c for c in range(ncols) if row[c]), None)
        if pcol is None:
            continue
        inv = pow(row[pcol], -1, p)
        row = [(a * inv) % p for a in row]
        # clear the new pivot column in earlier rows
        for idx, prow in enumerate(reduced):
            factor = prow[pcol]
            if factor:
                reduced[idx] = [(a - factor * b) % p for a, b in zip(prow, row)]
        reduced.append(row)
        pivot_cols.append(pcol)
    order = sorted(range(len(reduced)), key=lambda i: pivot_cols[i])
    return [tuple(reduced[i]) for i in order]


def rotation_matrix(p: int) -> list[list[int]]:
    """Matrix of the left rotation (k_1, ..., k_p) -> (k_2, ..., k_p, k_1)."""
    return [[1 if c == (r + 1) % p else 0 for c in range(p)] for r in range(p)]


def rotation_difference_image(p: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Row-reduced basis over Z/p of the image of (I - rotation)**j.

    The dimension is p - j for 0 <= j <= p - 1, and the image is zero for
    j = p since (I - rotation)**p vanishes mod p.
    """
    if not 0 <= j <= p:
        raise ValueError(f"j must lie in 0..{p}, got {j}")
    if j == 0:
        return tuple(tuple(1 if c == r else 0 for c in range(p)) for r in range(p))
    rot = rotation_matrix(p)
    diff = [[(int(r == c) - rot[r][c]) % p for c in range(p)] for r in range(p)]
    power = [[int(r == c) for c in range(p)] for r in range(p)]
    for _ in range(j):
        power = [[sum(power[r][t] * diff[t][c] for t in range(p)) % p
                  for c in range(p)] for r in range(p)]
    columns = [[power[r][c] for r in range(p)] for c in range(p)]
    return tuple(_rref_mod_p(columns, p))


def in_row_span(basis: tuple[tuple[int, ...], ...], vec: tuple[int, ...], p: int) -> bool:
    """Membership of vec in the row space of an rref basis over Z/p."""
    residual = [x % p for x in vec]
    for row in basis:
        pcol = next(c for c in range(len(row)) if row[c])
        factor = residual[pcol]
        if factor:
            residual = [(a - factor * b) % p for a, b in zip(residual, row)]
    return not any(residual)
