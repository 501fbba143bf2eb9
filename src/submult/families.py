"""Reproducible builders for the matrix and group families the engine studies.

Every constructor is deterministic: the same parameters produce identical
serialized generators.  Groups are persisted by recipe plus generators
(see ``write_group_file``/``load_group_file``), never by full tables.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .cyclotomic import ONE, CyclotomicUnit, json_int, json_object
from .groups import (DEFAULT_CLOSURE_CAP, ClosureCapExceeded, FiniteGroup,
                     close, is_prime)
from .monomial import MonomialMatrix


# -- monomial matrix families --------------------------------------------------

def big_cycle(p: int, k: int) -> MonomialMatrix:
    """The p**k x p**k cyclic permutation matrix (order p**k, entries all 1)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = p ** k
    return MonomialMatrix.from_perm([(j + 1) % n for j in range(n)])


def heisenberg_generators(p: int) -> list[MonomialMatrix]:
    """Generators of the degree-p irreducible monomial group of order p**3,
    exponent p and class 2 (p odd): the p-cycle and diag(1, w, ..., w**(p-1))."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    omega = CyclotomicUnit(1, p)
    return [big_cycle(p, 1),
            MonomialMatrix.diagonal([omega ** j for j in range(p)])]


def wreath_generators(p: int) -> list[MonomialMatrix]:
    """Generators of the wreath product of two cyclic groups of order p as
    a degree-p monomial group (order p**(p+1), class p, exponent p**2)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    omega = CyclotomicUnit(1, p)
    return [big_cycle(p, 1),
            MonomialMatrix.diagonal([omega] + [ONE] * (p - 1))]


def quaternion_generators() -> list[MonomialMatrix]:
    """Quaternion group of order 8: diag(i, -i) and the signed swap."""
    i_unit = CyclotomicUnit(1, 4)
    return [MonomialMatrix.diagonal([i_unit, i_unit.inverse()]),
            MonomialMatrix(2, (1, 0), (ONE, CyclotomicUnit(1, 2)))]


def dihedral_generators() -> list[MonomialMatrix]:
    """Dihedral group of order 8: diag(i, -i) and the plain swap."""
    i_unit = CyclotomicUnit(1, 4)
    return [MonomialMatrix.diagonal([i_unit, i_unit.inverse()]),
            MonomialMatrix(2, (1, 0), (ONE, ONE))]


def diagonal_abelian_generators(m: int, vectors: Sequence[Sequence[int]]
                                ) -> list[MonomialMatrix]:
    """Diagonal matrices diag(w**v_0, ..., w**v_{n-1}) for w = exp(2*pi*i/m)."""
    if m < 1 or not vectors:
        raise ValueError("need a positive modulus and at least one vector")
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise ValueError("all exponent vectors must have the same length")
    omega = CyclotomicUnit(1, m)
    return [MonomialMatrix.diagonal([omega ** c for c in vec])
            for vec in vectors]


def cyclic_generator(m: int) -> list[MonomialMatrix]:
    """The cyclic group of order m as the 1 x 1 matrix (exp(2*pi*i/m))."""
    if m < 1:
        raise ValueError("order must be positive")
    return [MonomialMatrix.diagonal([CyclotomicUnit(1, m)])]


# -- affine carrier for the split-extension family ------------------------------

class AffineContext:
    """Shared data for affine pairs (v, t) in Z_{p**e}**c x Z_{p**e} with
    multiplication (v, t) * (w, s) = (v + M**t w, t + s).

    M is the inverse of (I + L), L the index-raising shift, which realizes
    conjugation of the i-th base generator by the extending generator as
    "multiply in the next base generator".  Associativity of the product
    needs M**(p**e) = I.  As L**c = 0, (I + L)**k is the sum over u < c of
    C(k, u) L**u, and C(p**e, u) is divisible by p**e for every 0 < u < c
    exactly when c <= p (Kummer); the constructor requires it.
    """

    def __init__(self, p: int, c: int, e: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if c < 1 or e < 1:
            raise ValueError("c and e must be >= 1")
        if c > p:
            raise ValueError(
                f"shift automorphism order exceeds p**e; need c <= p (c={c}, p={p})")
        self.p, self.c, self.e = p, c, e
        q = self.modulus = p ** e
        # M**t = (I + L)**((q - t) mod q): its coefficient of L**u, u < c
        self._binomials = [[math.comb((q - t) % q, u) % q for u in range(c)]
                           for t in range(q)]

    def apply_m_power(self, t: int, vec: tuple[int, ...]) -> tuple[int, ...]:
        """M**t vec, whose coordinate r sums C(k, u) vec[r - u] over u <= r."""
        coeffs, mod = self._binomials[t % self.modulus], self.modulus
        return tuple(sum(map(operator.mul, coeffs, vec[r::-1])) % mod
                     for r in range(self.c))

    def pair(self, vec: Sequence[int], t: int) -> "AffinePair":
        return AffinePair(self, tuple(x % self.modulus for x in vec),
                          t % self.modulus)

    def base_generator(self, i: int) -> "AffinePair":
        """The i-th base generator (1-indexed)."""
        vec = tuple(1 if s == i - 1 else 0 for s in range(self.c))
        return self.pair(vec, 0)

    def extension_generator(self) -> "AffinePair":
        return self.pair((0,) * self.c, 1)


class AffinePair:
    """Element (v, t) of the split extension; immutable and hashable."""

    __slots__ = ("ctx", "vec", "t")

    def __init__(self, ctx: AffineContext, vec: tuple[int, ...], t: int):
        self.ctx = ctx
        self.vec = vec
        self.t = t

    def __mul__(self, other: "AffinePair") -> "AffinePair":
        ctx = self.ctx
        moved = ctx.apply_m_power(self.t, other.vec)
        vec = tuple((a + b) % ctx.modulus for a, b in zip(self.vec, moved))
        return AffinePair(ctx, vec, (self.t + other.t) % ctx.modulus)

    def inverse(self) -> "AffinePair":
        ctx = self.ctx
        neg_t = (-self.t) % ctx.modulus
        moved = ctx.apply_m_power(neg_t, self.vec)
        return AffinePair(ctx, tuple((-x) % ctx.modulus for x in moved), neg_t)

    def identity_like(self) -> "AffinePair":
        return AffinePair(self.ctx, (0,) * self.ctx.c, 0)

    closure_codec = staticmethod(lambda gens, cap: AffineCodec(gens, cap))

    def key(self) -> tuple:
        return ("affine", self.ctx.modulus, self.vec, self.t)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AffinePair) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def to_json(self) -> dict:
        return {"v": list(self.vec), "t": self.t}


class AffineCodec:
    """Integer codes ``V*q + t`` for the affine pairs (v, t) that ``gens``
    generate, q = p**e and V the base-q number with digits v, first
    coordinate most significant.  So codes compare as ``AffinePair.key()``
    and sort with no key (``key`` is None).  ``right`` tabulates x*g for all
    q**(c+1) codes, which is the order of B_p(c, e): past close's cap the
    codec refuses, before any table is built."""

    key = None

    def __init__(self, gens: Sequence[AffinePair], cap: int):
        ctx = self.ctx = gens[0].ctx
        if any((g.ctx.c, g.ctx.modulus) != (ctx.c, ctx.modulus) for g in gens):
            raise ValueError("affine pairs from different extensions")
        check_basic_order(ctx.p, ctx.c, ctx.e, cap)  # the tables' size

    def encode(self, g: AffinePair) -> int:
        q, c = self.ctx.modulus, self.ctx.c
        return sum(x * q ** (c - i) for i, x in enumerate(g.vec)) + g.t

    def decode(self, code: int) -> AffinePair:
        q, c = self.ctx.modulus, self.ctx.c
        return AffinePair(self.ctx, tuple(code // q ** (c - i) % q for i in range(c)), code % q)

    def right(self, code: int) -> Callable[[int], int]:
        """x -> x*g on codes, g given by its code: (v, t) * (w, s) is
        (v + M**t w, t + s), tabulated digit by digit for every t."""
        ctx, q = self.ctx, self.ctx.modulus
        g = self.decode(code)
        digits = range(q)
        moved = []  # moved[t][V]: the vector code of v + M**t w
        for t in digits:
            vecs = [0]  # over the digits so far
            for w in ctx.apply_m_power(t, g.vec):
                vecs = [hi * q + (x + w) % q for hi in vecs for x in digits]
            moved.append(vecs)
        ts = [(t + g.t) % q for t in digits]
        return [v * q + s for vs in zip(*moved) for v, s in zip(vs, ts)].__getitem__


def check_basic_order(p: int, c: int, e: int, cap: int) -> None:
    """Raise ClosureCapExceeded when B_p(c, e), of order p**(e(c+1)), exceeds
    cap.  For p >= 2 an exponent of the cap's bit length already does, so
    the exponent is clipped there and no huge power is formed."""
    order = p ** min(e * (c + 1), cap.bit_length())
    if order > cap:
        raise ClosureCapExceeded(order, cap)


def basic_group(p: int, c: int, e: int,
                cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Split extension of (C_{p**e})**c by an order-p**e automorphism acting
    as a_i -> a_i * a_{i+1} (last base generator fixed); order p**(e(c+1)).

    An order above cap is refused before any work.  The conjugation matrix
    is validated against those relations and the order after closure.
    """
    check_basic_order(p, c, e, cap)
    ctx = AffineContext(p, c, e)
    a1 = ctx.base_generator(1)
    b = ctx.extension_generator()
    for i in range(1, c + 1):
        a_i = ctx.base_generator(i)
        conj = b.inverse() * a_i * b
        expected = a_i if i == c else a_i * ctx.base_generator(i + 1)
        if conj != expected:
            raise AssertionError(f"conjugation relation fails at generator {i}")
    group = close([a1, b], cap, name=f"B_{p}({c},{e})")
    expected_order = p ** (e * (c + 1))
    if len(group) != expected_order:
        raise AssertionError(
            f"closure has order {len(group)}, expected {expected_order}")
    return group


def all_characters(p: int, c: int, e: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples (x_1, ..., x_c) over Z_{p**e}: one per character of
    the abelian base, in lexicographic order."""
    yield from itertools.product(range(p ** e), repeat=c)


def induced_rep_generators(p: int, c: int, e: int,
                           character: Sequence[int]) -> list[MonomialMatrix]:
    """Degree-p**e monomial generators of the representation of the basic
    group induced from a base character.

    The character sends the i-th base generator to w**x_i, w the primitive
    p**e-th root.  The extending generator maps to the full cycle; the i-th
    base generator maps to the diagonal whose j-th entry is the character
    value on the j-fold conjugate, which expands over later base generators
    with binomial coefficients.  Returns [image of a_1, ..., a_c, image of b];
    the defining relations are re-verified on the images.
    """
    if len(character) != c:
        raise ValueError(f"character must list {c} exponents")
    m = p ** e
    omega = CyclotomicUnit(1, m)
    x = [v % m for v in character]
    images = []
    for i in range(1, c + 1):
        diag = []
        for j in range(m):
            exp = sum(math.comb(j, u) * x[i - 1 + u] for u in range(c - i + 1))
            diag.append(omega ** exp)
        images.append(MonomialMatrix.diagonal(diag))
    psi_b = big_cycle(p, e)
    b_inv = psi_b.inverse()
    for i in range(c):
        conj = b_inv * images[i] * psi_b
        expected = images[i] if i == c - 1 else images[i] * images[i + 1]
        if conj != expected:
            raise AssertionError(f"induced image breaks relation at generator {i + 1}")
    return images + [psi_b]


# -- declarative family specs and group files -----------------------------------

@dataclass(frozen=True)
class Family:
    """A recipe family: the parameters its recipes need, the checks on
    them beyond presence, and its monomial generators, or None for the
    affine carrier of ``basic``.  Both callables take the params dict."""

    params: tuple[str, ...]
    check: Callable[[dict], None] = lambda ps: None
    generators: Callable[[dict], list[MonomialMatrix]] | None = None


def _check_prime(params: dict, key: str = "p") -> None:
    # recipes take p <= DEFAULT_CLOSURE_CAP, a fixed limit checked before
    # is_prime so that its trial division stays bounded
    p = params[key]
    if p > DEFAULT_CLOSURE_CAP:
        raise ValueError(f"recipes take {key} <= {DEFAULT_CLOSURE_CAP}, got {p}")
    if not is_prime(p):
        raise ValueError(f"{key} must be prime, got {p}")


def _check_factors(params: dict) -> None:
    factors = params["factors"]
    if not isinstance(factors, list) or len(factors) < 2:
        raise ValueError("direct_product needs a list of at least two "
                         f"factors, got {factors!r}")


def _check_basic(params: dict, min_c: int = 1) -> None:
    """The basic group's parameters; induced_rep also allows c = 0."""
    _check_prime(params)
    p, c, e = params["p"], params["c"], params["e"]
    if c < min_c or e < 1:
        raise ValueError(f"need c >= {min_c} and e >= 1 (c={c}, e={e})")
    # the builders loop over all p**e exponents; as p >= 2, an e of the
    # cap's bit length already exceeds it, so a huge e never reaches p**e
    if e >= DEFAULT_CLOSURE_CAP.bit_length() or p ** e > DEFAULT_CLOSURE_CAP:
        raise ValueError(f"recipes take p**e <= {DEFAULT_CLOSURE_CAP}, "
                         f"got p={p}, e={e}")
    if c > p:
        raise ValueError(f"need c <= p for an order-p**e extension (c={c}, p={p})")


def _product_generators(params: dict) -> list[MonomialMatrix]:
    factor_specs = [GroupFamilySpec.from_json(f) for f in params["factors"]]
    if any(f.carrier != "monomial" for f in factor_specs):
        raise ValueError("direct_product files support monomial factors only")
    blocks = [build_generators(f) for f in factor_specs]
    dims = [g[0].n for g in blocks]
    gens = []
    for t, block in enumerate(blocks):
        for mat in block:
            parts = [MonomialMatrix.identity(dims[s]) if s != t else mat
                     for s in range(len(blocks))]
            combined = parts[0]
            for part in parts[1:]:
                combined = combined.direct_sum(part)
            gens.append(combined)
    return gens


def _read_ints(value: object, name: str, depth: int) -> None:
    """JSON integers nested ``depth`` lists deep, each read by json_int."""
    if depth == 0:
        json_int(value, name)
        return
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list, got {value!r}")
    for i, v in enumerate(value):
        _read_ints(v, f"{name}[{i}]", depth - 1)


# recipe parameter -> how many lists deep its integers are; they are read
# before the family's check, and the builders take them as given
INT_PARAMS = {"m": 0, "p": 0, "c": 0, "e": 0, "character": 1, "vectors": 2}


# The builders are named inside lambdas, so each call reads the module's
# current binding (and a wrapper put there sees the call).
FAMILY_TABLE = {
    "cyclic": Family(("m",), generators=lambda ps: cyclic_generator(ps["m"])),
    "heisenberg": Family(("p",), _check_prime, lambda ps: heisenberg_generators(ps["p"])),
    "wreath_cp_cp": Family(("p",), _check_prime, lambda ps: wreath_generators(ps["p"])),
    "basic": Family(("p", "c", "e"), _check_basic),
    "quaternion8": Family((), generators=lambda ps: quaternion_generators()),
    "dihedral8": Family((), generators=lambda ps: dihedral_generators()),
    "diagonal_abelian": Family(("m", "vectors"), generators=lambda ps:
                               diagonal_abelian_generators(ps["m"], ps["vectors"])),
    "direct_product": Family(("factors",), _check_factors, lambda ps: _product_generators(ps)),
    "induced_rep": Family(("p", "c", "e", "character"), lambda ps: _check_basic(ps, min_c=0),
                          lambda ps: induced_rep_generators(
                              ps["p"], ps["c"], ps["e"], ps["character"])),
}
FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class GroupFamilySpec:
    """Recipe (family name + parameters) for reproducible construction."""

    family: str
    params: dict

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {FAMILIES}")
        family = FAMILY_TABLE[self.family]
        json_object(self.params, family.params, f"{self.family} params")
        for key in family.params:
            if key in INT_PARAMS:
                _read_ints(self.params[key], key, INT_PARAMS[key])
        family.check(self.params)

    @property
    def carrier(self) -> str:
        return "monomial" if FAMILY_TABLE[self.family].generators else "affine"

    @functools.cached_property
    def generators(self) -> list[MonomialMatrix]:
        """The monomial generators (``build_generators``), built once per spec."""
        return build_generators(self)

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params}

    @classmethod
    def from_json(cls, data: Any) -> "GroupFamilySpec":
        json_object(data, ("family", "params"), "malformed group recipe")
        return cls(data["family"], data["params"])


def build_generators(spec: GroupFamilySpec) -> list[MonomialMatrix]:
    """Monomial generators for a spec (all families except ``basic``)."""
    generators = FAMILY_TABLE[spec.family].generators
    if generators is None:
        raise ValueError(f"family {spec.family} has no monomial generators")
    return generators(spec.params)


def build_group(spec: GroupFamilySpec,
                cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Closure of a spec into a FiniteGroup (any family)."""
    if spec.carrier == "affine":
        ps = spec.params
        return basic_group(ps["p"], ps["c"], ps["e"], cap)
    return close(spec.generators, cap, name=spec.family)


def group_file_payload(spec: GroupFamilySpec) -> dict:
    if spec.carrier == "affine":
        # a_1 = (e_1, 0) and b = (0, 1), with no AffineContext built
        c = spec.params["c"]
        gens = [{"v": [1] + [0] * (c - 1), "t": 0}, {"v": [0] * c, "t": 1}]
    else:
        gens = [g.to_json() for g in spec.generators]
    return {"family": spec.family, "params": spec.params,
            "carrier": spec.carrier, "generators": gens}


def write_group_file(spec: GroupFamilySpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(group_file_payload(spec), indent=2) + "\n",
                          encoding="utf-8")


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; a document nested too deeply to parse is a
    ValueError, like any other malformed input."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from exc


def group_file_spec(data: Any, source: str | Path) -> GroupFamilySpec:
    """The recipe of a parsed group file, once the file is confirmed to
    hold exactly the keys ``group_file_payload`` writes, and the recipe's
    carrier and generators, compared by ``repr``: a float, a bool or a
    reordered key is not the stored value the tool writes."""
    spec = GroupFamilySpec.from_json({key: data[key] for key in ("family", "params")
                                      if key in data} if isinstance(data, dict) else data)
    try:
        expected = group_file_payload(spec)
    except (LookupError, TypeError) as exc:
        raise ValueError(f"malformed group recipe: bad {spec.family} parameters "
                         f"({type(exc).__name__}: {exc})") from exc
    except RecursionError as exc:
        raise ValueError(f"{source}: group recipe nested too deeply to build") from exc
    json_object(data, expected, f"{source}: malformed group file")
    for key in ("carrier", "generators"):
        if repr(data[key]) != repr(expected[key]):
            raise ValueError(f"{source}: the recipe does not match its stored {key}")
    return spec


def load_group_file(path: str | Path) -> GroupFamilySpec:
    """Load a recipe and confirm the stored carrier and generators match it."""
    return group_file_spec(read_json(path), path)
