"""Case generators for the four benchmark workloads.

A workload is a *round*: a fixed, ordered list of positions, each naming a
CLI command and an input class (a cost band, a factor count, a matrix size).
Every run executes whole rounds, so every run sees the same command mix and
the same cost profile; the workload seed only decides which member of each
position's universe fills round ``r``.

Each position has a finite universe of ``MEMBERS[workload]`` members.  A
member is generated from the string ``"<workload>/<position>/<member>"``
alone, so its scenario file is the same bytes whichever seed selects it, and
``perfbench/golden`` can hold the exact report fields of every case that any
seed can produce.  A seed permutes each position's members; round ``r`` takes
the ``r``-th member of that permutation, so a run repeats no case until it
has used every member.

Generators use only ``random.Random`` and, for ``joint-pairs``, numpy.  They
mirror the distributions of ``hcspec.fuzzing`` without importing the
program, so program changes cannot change the inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("dense-product", "symbolic-sums", "nfactor-verdicts", "joint-pairs")

# Universe size of a position unless it names its own.  A 20 s run at the
# commit that recorded the golden store uses 2 (dense), ~12 (symbolic), ~8
# (nfactor) and ~15 (joint) rounds; the margin lets faster programs run longer
# before members repeat.
MEMBERS = {
    "dense-product": 24,
    "symbolic-sums": 64,
    "nfactor-verdicts": 64,
    "joint-pairs": 48,
}

ORACLE_CUTOFF = 100


@dataclass(frozen=True)
class Case:
    """One CLI command on one generated scenario."""

    key: str  # "<workload>/<position>/<member>[/<sub-case>]"
    command: str
    scenario: dict
    flags: tuple[str, ...] = ()
    # Independent expectations the benchmark checks besides the golden fields.
    expect: dict = field(default_factory=dict, compare=False)

    def scenario_bytes(self) -> bytes:
        return (json.dumps(self.scenario, sort_keys=True) + "\n").encode("utf-8")

    def scenario_sha(self) -> str:
        return hashlib.sha256(self.scenario_bytes()).hexdigest()[:16]


def _doc(kind: str, payload: dict) -> dict:
    return {"version": "1", "kind": kind, "payload": payload}


# ---------------------------------------------------------------------------
# dense-product


def product_dims(left: list[int], right: list[int]) -> list[int]:
    dims = [0] * (len(left) + len(right) - 1)
    for j, a in enumerate(left):
        for k, b in enumerate(right):
            dims[j + k] += a * b
    return dims


def eig_work(dims: list[int]) -> float:
    """Cost proxy of a ``tensor`` case in millions: the n^3 of every degree
    and of every dilation between adjacent degrees of the product."""
    cubes = sum(n**3 for n in dims) + sum((a + b) ** 3 for a, b in zip(dims, dims[1:]))
    return cubes / 1e6


# The largest pair: product degree dims up to 358.
LARGEST_PAIR = ([6, 14, 10], [8, 16, 9])

# Tensor bands on eig_work (millions) and positions per round.  Each position
# draws one fixed shape from its band; the positions of T2 and T5 share one
# shape per band.  Those two clusters of near-equal cases hold p50 and p90, so
# a percentile never falls into a gap between bands, where timing noise would
# move it from one band to the next.
_DENSE_BANDS = {
    "T1": (0.5, 2.0, 6),
    "T2": (2.0, 8.0, 10),
    "T3": (6.0, 15.0, 5),
    "T4": (15.0, 35.0, 5),
    "T5": (40.0, 60.0, 6),
    "T6": (130.0, 200.0, 2),
}
_SHARED_SHAPE = ("T2", "T5")


def _dense_positions() -> list[tuple[str, str, int]]:
    members = MEMBERS["dense-product"]
    positions = []
    for command in ("identities", "hodge", "spectrum"):
        positions += [(command, "C", members)] * 5
    for band, (_, _, count) in _DENSE_BANDS.items():
        positions += [("tensor", band, members)] * count
    positions.append(("tensor", "T7", members))
    return positions


def _random_dims(rnd: random.Random) -> list[int]:
    return [rnd.randint(2, 16) for _ in range(rnd.choice((2, 3)))]


def _dense_shape(command: str, band: str, rnd: random.Random):
    """Degree dims of a complex, or of a tensor pair within ``band``."""
    if command != "tensor":
        return [rnd.randint(2, 16) for _ in range(rnd.randint(2, 4))]
    if band == "T7":
        return tuple(list(d) for d in LARGEST_PAIR)
    lo, hi, _ = _DENSE_BANDS[band]
    while True:
        left, right = _random_dims(rnd), _random_dims(rnd)
        if lo <= eig_work(product_dims(left, right)) < hi:
            return left, right


def _dense_case(key: str, command: str, shape, rnd: random.Random) -> Case:
    if command != "tensor":
        spec = {"random": {"dims": shape, "seed": rnd.randrange(2**31)}}
        return Case(key, command, _doc("finite-complex", spec), expect={"dims": shape})
    left, right = shape
    payload = {
        "left": {"random": {"dims": left, "seed": rnd.randrange(2**31)}},
        "right": {"random": {"dims": right, "seed": rnd.randrange(2**31)}},
    }
    return Case(
        key,
        "tensor",
        _doc("finite-pair", payload),
        expect={"product_dims": product_dims(left, right)},
    )


# ---------------------------------------------------------------------------
# symbolic-sums: mirrors hcspec.fuzzing.random_spectral_set


def _rational(rnd: random.Random, max_numerator: int = 10) -> Fraction:
    return Fraction(rnd.randrange(0, max_numerator + 1), rnd.choice((1, 1, 2, 3)))


def _step(rnd: random.Random) -> Fraction:
    return Fraction(rnd.randrange(1, 7), rnd.choice((1, 1, 2)))


def _mult(rnd: random.Random, infinite_chance: float = 0.25):
    return "inf" if rnd.random() < infinite_chance else rnd.randint(1, 3)


def _atom(rnd: random.Random) -> dict:
    if rnd.random() < 0.5:
        return {"kind": "point", "value": str(_rational(rnd)), "mult": _mult(rnd)}
    return {"kind": "ap", "base": str(_rational(rnd)), "step": str(_step(rnd)), "mult": _mult(rnd)}


def _spectral_set(rnd: random.Random, max_atoms: int = 3) -> dict:
    return {"atoms": [_atom(rnd) for _ in range(rnd.randint(0, max_atoms))]}


def values_below(atoms: dict, cutoff: int) -> int:
    """Upper bound on the values the oracle enumerates below ``cutoff``."""
    total = 0
    for atom in atoms["atoms"]:
        if atom["kind"] == "point":
            total += Fraction(atom["value"]) < cutoff
        else:
            base, step = Fraction(atom["base"]), Fraction(atom["step"])
            if base < cutoff:
                total += math.ceil((cutoff - base) / step)
    return total


# Bands on the oracle's pair count (values of a) x (values of b) below 100,
# and positions per round.  Pairs from 1,500 to 8,000 are left out because
# their cost overlaps the p90 cluster; pairs above 20,000 because their cost
# varies 4x within any band, which no 20 s run averages away.
_ORACLE_BANDS = {
    "S1": (0, 200, 8),
    "S2": (200, 1_500, 8),
    "S3": (8_000, 20_000, 2),
}

# Coprime progression pairs with step products 99, 1,591 and 9,991: positions
# per round and steps.  The ten P2 positions (steps 9 and 11) and the
# five P3 positions (steps 37 and 43) are clusters of near-equal cases that
# hold p50 and p90.  P4 is fixed because a random pair near 10^4 costs from
# 0.5 to 1 s, which would move throughput by seed.  Members vary the bases.
_COPRIME = {"P2": (10, (9, 11)), "P3": (5, (37, 43)), "P4": (1, (97, 103))}


def _symbolic_positions() -> list[tuple[str, str, int]]:
    members = MEMBERS["symbolic-sums"]
    positions = []
    for band, (_, _, count) in _ORACLE_BANDS.items():
        positions += [("symbolic", band, members)] * count
    for operation in ("union", "essential"):
        positions += [("symbolic", operation, members)] * 5
    for band, (count, _) in _COPRIME.items():
        positions += [("symbolic", band, members)] * count
    return positions


def _symbolic_case(key: str, band: str, rnd: random.Random) -> Case:
    if band in ("union", "essential"):
        payload = {"operation": band, "a": _spectral_set(rnd), "b": _spectral_set(rnd)}
        return Case(key, "symbolic", _doc("spectral-model", payload))
    if band in _COPRIME:
        _, (p, q) = _COPRIME[band]
        # Multiplicity 1 throughout: an infinite one halves the cost.
        a = {"atoms": [{"kind": "ap", "base": str(rnd.randint(0, 3)), "step": str(p), "mult": 1}]}
        b = {"atoms": [{"kind": "ap", "base": str(rnd.randint(0, 3)), "step": str(q), "mult": 1}]}
        payload = {"operation": "minkowski", "a": a, "b": b}
        cutoff = p * q + rnd.randint(0, 10)
        return Case(key, "symbolic", _doc("spectral-model", payload), ("--oracle-cutoff", str(cutoff)))
    lo, hi, _ = _ORACLE_BANDS[band]
    while True:
        a, b = _spectral_set(rnd), _spectral_set(rnd)
        if lo <= values_below(a, ORACLE_CUTOFF) * values_below(b, ORACLE_CUTOFF) < hi:
            break
    payload = {"operation": "minkowski", "a": a, "b": b}
    return Case(
        key, "symbolic", _doc("spectral-model", payload), ("--oracle-cutoff", str(ORACLE_CUTOFF))
    )


# ---------------------------------------------------------------------------
# nfactor-verdicts: mirrors hcspec.fuzzing.random_factor_model

BUILTINS = ("abstract-compact-factor", "infinite-bergman-factor", "gaussian-weight-line")

# Factor counts of the dbar-n tuples in one round, weighted toward small n.
_TUPLE_SIZES = (2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 7)


def _factor_model(rnd: random.Random, name: str) -> dict:
    positive = []
    for _ in range(rnd.randint(1, 2)):
        value = str(Fraction(rnd.randrange(1, 11), rnd.choice((1, 1, 2))))
        mult = _mult(rnd, 0.2)
        if rnd.random() < 0.5:
            positive.append({"kind": "point", "value": value, "mult": mult})
        else:
            positive.append({"kind": "ap", "base": value, "step": str(_step(rnd)), "mult": mult})

    def with_kernel() -> tuple[list[dict], object]:
        roll = rnd.random()
        if roll < 0.4:
            return positive, 0
        kernel = rnd.randint(1, 3) if roll < 0.8 else "inf"
        return [*positive, {"kind": "point", "value": "0", "mult": kernel}], kernel

    functions, bergman = with_kernel()
    forms, _ = with_kernel()
    entry = lambda atoms: {"spectrum": {"atoms": atoms}, "essential": None}  # noqa: E731
    return {
        "name": name,
        "complex_dimension": 1,
        "closed_range": True,
        "bergman_dim": bergman,
        "box_spectrum": {
            "0,0": entry(functions),
            "0,1": entry(forms),
            "1,0": entry(functions),
            "1,1": entry(forms),
        },
    }


def _nfactor_positions() -> list[tuple[str, str, int]]:
    # One fixed tuple each for n = 4 to 7: the all-q cost of a random tuple
    # varies 5x at these n, and these cases hold p90, so a seed-chosen one
    # would move p90 by more than any bound.  Seeds still choose every n = 2
    # and n = 3 tuple and every pair.
    members = MEMBERS["nfactor-verdicts"]
    positions = [("dbar-n", f"n{n}", members if n < 4 else 1) for n in _TUPLE_SIZES]
    positions += [("dbar", "random", members), ("dbar", "builtin", members)]
    # Four more n = 2 tuples put p50 inside the dense band of 4-6 ms cases
    # rather than at its upper edge, where timing noise moved it by 40%.
    return positions + [("dbar-n", "n2", members)] * 4


def _nfactor_cases(key: str, command: str, cls: str, rnd: random.Random) -> list[Case]:
    """A tuple at every q, or a pair at every (p, q): one case each."""
    if command == "dbar-n":
        n = int(cls[1:])
        factors = [_factor_model(rnd, f"f{j}") for j in range(n)]
        return [
            Case(f"{key}/q{q}", "dbar-n", _doc("dbar-factors", {"factors": factors, "q": q}))
            for q in range(n + 1)
        ]
    if cls == "random":
        factors = [_factor_model(rnd, f"f{j}") for j in range(2)]
    else:
        factors = [{"builtin": rnd.choice(BUILTINS)} for _ in range(2)]
    return [
        Case(f"{key}/p{p}q{q}", "dbar", _doc("dbar-factors", {"factors": factors, "p": p, "q": q}))
        for p in range(3)
        for q in range(3)
    ]


# ---------------------------------------------------------------------------
# joint-pairs

_JOINT_SIZES = (4, 6, 8, 10, 12, 14, 16)


def _joint_positions() -> list[tuple[str, str, int]]:
    members = MEMBERS["joint-pairs"]
    return [("joint", f"{kind}{n}", members) for n in _JOINT_SIZES for kind in ("psd", "normal")]


def _joint_case(key: str, cls: str, rnd: random.Random) -> Case:
    """A commuting normal pair ``U diag(lam) U*``, ``U diag(mu) U*``.

    ``lam`` repeats each of a few values, so clustering must split its
    eigenspaces by ``mu``.  PSD pairs use nonnegative integers; the others
    use Gaussian integers, which makes ``T`` non-Hermitian.
    """
    import numpy as np

    psd = cls.startswith("psd")
    n = int(cls[3:] if psd else cls[6:])
    distinct = max(2, n // 3)
    rng = np.random.default_rng(rnd.randrange(2**32))
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    unitary, _ = np.linalg.qr(gauss)

    def draw(count: int, lo: int, hi: int) -> list[complex]:
        if psd:
            return [complex(rnd.randint(0, hi), 0) for _ in range(count)]
        return [complex(rnd.randint(lo, hi), rnd.randint(lo, hi)) for _ in range(count)]

    heads = draw(distinct, -3, 4)
    lam = [heads[i % distinct] for i in range(n)]
    mu = draw(n, -2, 3)
    t = unitary @ np.diag(lam) @ unitary.conj().T
    s = unitary @ np.diag(mu) @ unitary.conj().T
    as_json = lambda m: [[[float(z.real), float(z.imag)] for z in row] for row in m]  # noqa: E731
    pairs = [[[a.real, a.imag], [b.real, b.imag]] for a, b in zip(lam, mu)]
    return Case(
        key,
        "joint",
        _doc("finite-pair", {"t": as_json(t), "s": as_json(s)}),
        expect={"joint_points": pairs, "psd": psd},
    )


# ---------------------------------------------------------------------------
# Rounds

_POSITIONS = {
    "dense-product": _dense_positions,
    "symbolic-sums": _symbolic_positions,
    "nfactor-verdicts": _nfactor_positions,
    "joint-pairs": _joint_positions,
}


def positions(workload: str) -> list[tuple[str, str, int]]:
    """(command, input class, universe size) per position, in round order."""
    return _POSITIONS[workload]()


def member_cases(workload: str, position: int, member: int) -> list[Case]:
    """Every case of one member of one position; a pure function of its key."""
    command, cls, _ = positions(workload)[position]
    key = f"{workload}/{position}/{member}"
    rnd = random.Random(key)
    if workload == "dense-product":
        # The shape belongs to the position, so every seed runs the same
        # sizes; members differ in their matrices only.
        owner = cls if cls in _SHARED_SHAPE else position
        shape = _dense_shape(command, cls, random.Random(f"{workload}/{owner}/shape"))
        return [_dense_case(key, command, shape, rnd)]
    if workload == "symbolic-sums":
        return [_symbolic_case(key, cls, rnd)]
    if workload == "nfactor-verdicts":
        return _nfactor_cases(key, command, cls, rnd)
    return [_joint_case(key, cls, rnd)]


def round_cases(workload: str, seed: int, round_index: int) -> list[Case]:
    """The cases of round ``round_index`` of the run with ``seed``, in order."""
    cases: list[Case] = []
    for position, (_, _, members) in enumerate(positions(workload)):
        order = list(range(members))
        random.Random(f"{seed}/{workload}/{position}").shuffle(order)
        cases += member_cases(workload, position, order[round_index % members])
    return cases


def universe(workload: str):
    """Every case any seed can produce, as (position, member, cases)."""
    for position, (_, _, members) in enumerate(positions(workload)):
        for member in range(members):
            yield position, member, member_cases(workload, position, member)
