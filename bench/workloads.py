"""Workloads of the submult benchmark: seeded request streams, the group
files they need, and the answer every request must give.

Nothing here imports ``submult``: the parent process (``run.py``) reads
the workload names before any clock starts, and the checks below replay
witnesses with their own exact arithmetic instead of the program's.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verify", "spectral_checks", "power_checks")
SUITES = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9")
SPECTRAL_PROPERTIES = ("s", "s-hat", "p-abelian", "engel", "irreducible",
                       "chi-containment")
POWER_COMMANDS = ("wp2", "p1", "p2", "regular", "v-regular", "analyze")
EXPECTED_FILE = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Group:
    """A group file recipe: ``submult construct`` arguments plus factor files."""

    gid: str
    args: tuple[str, ...]
    factors: tuple["Group", ...] = ()


@dataclass(frozen=True)
class Request:
    """One ``submult check <command>`` (or ``submult analyze``) call."""

    command: str
    group: Group

    @property
    def key(self) -> str:
        return f"{self.command}|{self.group.gid}"


def _group(gid: str, *args: object) -> Group:
    return Group(gid, tuple(str(a) for a in args))


def cyclic(m: int) -> Group:
    return _group(f"cyclic:m={m}", "cyclic", "--m", m)


def basic(p: int, c: int, e: int) -> Group:
    return _group(f"basic:p={p},c={c},e={e}", "basic", "--p", p, "--c", c, "--e", e)


def induced(p: int, x1: int, x2: int) -> Group:
    return _group(f"induced_rep:p={p},c=2,e=1,character={x1},{x2}", "induced_rep",
                  "--p", p, "--c", 2, "--e", 1, "--character", f"{x1},{x2}")


def product(a: Group, b: Group) -> Group:
    return Group(f"direct_product:{a.gid}*{b.gid}", ("direct_product",), (a, b))


def diagonal(m: int, vectors: list[list[int]]) -> Group:
    rows = [",".join(map(str, v)) for v in vectors]
    args: list[object] = ["diagonal_abelian", "--m", m]
    for row in rows:
        args += ["--vector", row]
    return _group(f"diagonal_abelian:m={m},vectors={';'.join(rows)}", *args)


H3 = _group("heisenberg:p=3", "heisenberg", "--p", 3)
H5 = _group("heisenberg:p=5", "heisenberg", "--p", 5)
W2 = _group("wreath:p=2", "wreath_cp_cp", "--p", 2)
W3 = _group("wreath:p=3", "wreath_cp_cp", "--p", 3)
Q8 = _group("quaternion8", "quaternion8")
D8 = _group("dihedral8", "dihedral8")
B321, B521, B331, B322 = basic(3, 2, 1), basic(5, 2, 1), basic(3, 3, 1), basic(3, 2, 2)

# Seeded choices.  Every member of a pool costs about the same, so a round
# costs about the same whatever the seed draws: the induced representations
# keep x2 != 0 (x2 = 0 gives an abelian image four to a hundred times
# cheaper), and the products with C2 and with C4 (order 16 and 32) are
# separate pools.
IR3 = tuple(induced(3, a, b) for a in range(3) for b in range(1, 3))
IR5 = tuple(induced(5, a, b) for a in range(5) for b in range(1, 5))
PRODUCTS_16, PRODUCTS_32 = (tuple(product(g, cyclic(m)) for g in (Q8, D8, W2))
                            for m in (2, 4))
SMALL_PRODUCTS = PRODUCTS_16 + PRODUCTS_32
PRODUCTS_81 = tuple(product(g, cyclic(3)) for g in
                    (H3,) + tuple(induced(3, a, b) for a in range(3) for b in (1, 2)))
S_HAT_BASIC = (basic(2, 1, 1), basic(2, 2, 1), basic(2, 1, 2), basic(2, 2, 2),
               basic(3, 1, 1), B321, basic(3, 3, 1), basic(5, 1, 1))
# Diagonal shapes (modulus p, degree, rank): rank-r vectors over F_p give
# a group of order exactly p**r.
DIAGONAL_SHAPES = ((5, 3, 2), (3, 5, 4))
DIAGONAL_POOL = 6

# Paper-level facts asserted by suites T2..T9; recorded answers must agree.
PAPER_FACTS = {
    "s|quaternion8": (1, "T2"), "s|dihedral8": (1, "T2"),
    "s|wreath:p=3": (1, "T4"), "wp2|wreath:p=3": (1, "T4"),
    "regular|wreath:p=3": (1, "T4"), "analyze|wreath:p=3": (0, "T4"),
    "s|heisenberg:p=3": (0, "T3"), "s|heisenberg:p=5": (0, "T3"),
    "s-hat|basic:p=3,c=2,e=1": (0, "T5"),
    "v-regular|basic:p=3,c=2,e=1": (2, "T9"),
    **{f"s|{g.gid}": (0, "T5") for g in IR3 + IR5},
}
WREATH3_STRUCTURE = {"order": 81, "class": 3, "exponent": 9}

# Diagonal groups are drawn freshly per seed, so their answers come from a
# rule instead of the recorded table: an abelian group of degree >= 2 has
# property s and is p-abelian, Engel and reducible, and holds no cycle, so
# chi-containment cannot be set up.
DIAGONAL_RULE = {"s": 0, "s-hat": 0, "p-abelian": 0, "engel": 0,
                 "irreducible": 1, "chi-containment": 2}


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _random_diagonal(rng: random.Random, p: int, degree: int, rank: int) -> Group:
    while True:
        vectors = [[rng.randrange(p) for _ in range(degree)] for _ in range(rank)]
        if _rank_mod_p(vectors, p) == rank:
            return diagonal(p, vectors)


class Stream:
    """Seeded closed-loop request stream of a check workload.

    A round asks every property of every group slot once, in a seeded
    order; the seed picks which pool member fills each slot.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in ("spectral_checks", "power_checks"):
            raise ValueError(f"{workload} is not a check workload")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.diagonals = [[_random_diagonal(self.rng, *shape)
                           for _ in range(DIAGONAL_POOL)]
                          for shape in DIAGONAL_SHAPES]

    def groups(self) -> list[Group]:
        """Every group a round can draw, factors before products."""
        if self.workload == "spectral_checks":
            slots = ((H3, H5, W2, W3, Q8, D8) + IR3 + IR5 + SMALL_PRODUCTS
                     + PRODUCTS_81 + S_HAT_BASIC + tuple(sum(self.diagonals, [])))
        else:
            slots = (B321, B521, B331, B322, W3) + SMALL_PRODUCTS + PRODUCTS_81
        out: dict[str, Group] = {}
        for g in slots:
            for f in g.factors:
                out.setdefault(f.gid, f)
            out.setdefault(g.gid, g)
        return list(out.values())

    def next_round(self) -> list[Request]:
        rng = self.rng
        if self.workload == "spectral_checks":
            slots = [H3, H5, W2, W3, Q8, D8, rng.choice(IR3), rng.choice(IR5),
                     rng.choice(PRODUCTS_16), rng.choice(PRODUCTS_32),
                     rng.choice(PRODUCTS_81)]
            slots += [rng.choice(pool) for pool in self.diagonals]
            reqs = [Request(p, g) for g in slots for p in SPECTRAL_PROPERTIES]
            reqs += [Request("s-hat", g) for g in S_HAT_BASIC]
        else:
            slots = [B321, B521, B331, W3, rng.choice(PRODUCTS_16),
                     rng.choice(PRODUCTS_32), rng.choice(PRODUCTS_81)]
            reqs = [Request(c, g) for g in slots for c in POWER_COMMANDS]
            # regularity of the order-729 B_3(2,2) takes seconds: see NOTES.md
            reqs += [Request(c, B322) for c in ("wp2", "p1", "p2", "analyze")]
        rng.shuffle(reqs)
        return reqs


def universe() -> list[Request]:
    """Every request whose answer is recorded in expected.json."""
    spectral = ((H3, H5, W2, W3, Q8, D8) + IR3 + IR5 + SMALL_PRODUCTS
                + PRODUCTS_81)
    reqs = [Request(p, g) for g in spectral for p in SPECTRAL_PROPERTIES]
    reqs += [Request("s-hat", g) for g in S_HAT_BASIC]
    power = (B321, B521, B331, W3) + SMALL_PRODUCTS + PRODUCTS_81
    reqs += [Request(c, g) for g in power for c in POWER_COMMANDS]
    reqs += [Request(c, B322) for c in ("wp2", "p1", "p2", "analyze")]
    return list({r.key: r for r in reqs}.values())


# -- answers ------------------------------------------------------------------

def witness_signature(payload: dict) -> dict | None:
    """The integer fields (indices, levels, powers) of a report's witness."""
    witness = (payload.get("report") or {}).get("witness")
    if not isinstance(witness, dict):
        return None
    return {k: v for k, v in sorted(witness.items())
            if isinstance(v, int) and not isinstance(v, bool)}


def answer(request: Request, code: int, payload: dict) -> dict:
    """What a response says, in the form expected.json stores."""
    out: dict = {"exit": code}
    if request.command == "analyze":
        out["structure"] = {k: payload.get(k) for k in ("order", "class", "exponent")}
    else:
        out["witness"] = witness_signature(payload)
    return out


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))["answers"]


def expected_answer(request: Request, table: dict) -> dict:
    if request.group.gid.startswith("diagonal_abelian:"):
        code = DIAGONAL_RULE[request.command]
        # the irreducibility verdict's witness carries no integer fields
        return {"exit": code, "witness": {} if code == 1 else None}
    entry = table[request.key]
    return {k: v for k, v in entry.items() if k != "source"}


def check_response(request: Request, code: int, payload: dict,
                   table: dict) -> str | None:
    """None when the response is right, else what is wrong with it."""
    got = answer(request, code, payload)
    want = expected_answer(request, table)
    if got != want:
        return f"{request.key}: got {got}, expected {want}"
    witness = (payload.get("report") or {}).get("witness") or {}
    if "eigenvalue" in witness and not replay_s_witness(witness):
        return f"{request.key}: property-s witness does not replay"
    return None


# -- independent replay of property-s witnesses ---------------------------------

def _unit(data: dict) -> Fraction:
    return Fraction(int(data["num"]), int(data["den"])) % 1


def _spectrum(perm: list[int], entries: list[Fraction]) -> set[Fraction]:
    """Eigenvalues of a monomial matrix (e_j -> entries[j] e_perm[j]) as
    fractions of a turn: a cycle of length l with entry sum c gives the
    solutions (c + t) / l of l*x = c mod 1."""
    seen = [False] * len(perm)
    out: set[Fraction] = set()
    for start in range(len(perm)):
        if seen[start]:
            continue
        total, length, j = Fraction(0), 0, start
        while not seen[j]:
            seen[j] = True
            total += entries[j]
            length += 1
            j = perm[j]
        out.update((total + t) / length % 1 for t in range(length))
    return out


def replay_s_witness(witness: dict) -> bool:
    """The witness eigenvalue lies in spectrum(L*R) and outside
    spectrum(L) * spectrum(R), recomputed from the serialized matrices."""
    left, right = witness["left"], witness["right"]
    lp, rp = left["perm"], right["perm"]
    le = [_unit(e) for e in left["entries"]]
    re = [_unit(e) for e in right["entries"]]
    if len(lp) != len(rp):
        return False
    perm = [lp[rp[j]] for j in range(len(rp))]
    entries = [(le[rp[j]] + re[j]) % 1 for j in range(len(rp))]
    eigenvalue = _unit(witness["eigenvalue"])
    products = {(a + b) % 1 for a in _spectrum(lp, le) for b in _spectrum(rp, re)}
    return eigenvalue in _spectrum(perm, entries) and eigenvalue not in products
