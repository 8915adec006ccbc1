"""Seeded inputs and independently computed expected answers.

Nothing here imports arrconn: the parameters, the connection files and
every expected answer come from stdlib ``random``, ``fractions`` and
``cmath`` alone, so the checker shares no code with the program it
checks.  Parameters are drawn the way ``tests/conftest.py`` draws them.

Each workload is a list of ops laid out in stratified blocks: every block
holds a fixed count of each op class, evenly spread in a seeded order, so
any run that completes whole blocks sees exactly the class mix stated
below, and any other run nearly that mix.
"""

from __future__ import annotations

import cmath
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("exact-sweep", "cli-cold", "holonomy")

# Op classes per block, as (label, count).  The counts put op_p50_ms and
# op_p90_ms inside one class each, not on a boundary between classes:
#   cli-cold  p50 in recover-4 (ranks 40-70%), p90 in check-5 (75-100%)
#   holonomy  p50 in the A_2 class (0-65%), p90 in A_4 (80-100%)
EXACT_BLOCK = (("good", 3), ("corrupt", 1))
CLI_BLOCK = (
    ("recover-3", 2),
    ("recover-corrupt-3", 2),
    ("check-3", 3),
    ("recover-corrupt-4", 1),
    ("recover-4", 6),
    ("check-4", 1),
    ("check-5", 5),
)
HOLONOMY_BLOCK = (("2", 12), ("reducible", 2), ("3", 2), ("4", 4))

# distinct inputs generated per workload; a timed run cycles through them.
# Each splits into whole blocks per timed interpreter (four of them, see
# run.py), so that the interpreters of a run start on block boundaries.
LIST_LENGTH = {"exact-sweep": 160, "cli-cold": 240, "holonomy": 160}

HOLONOMY_TOL = 1e-8
DET_TOL = 1e-6


# -- parameter draws (mirroring tests/conftest.py) --------------------------------

def _subset_sums(values, min_size):
    for size in range(min_size, len(values) + 1):
        for idx in combinations(range(len(values)), size):
            yield sum(values[i] for i in idx)


def draw_nonzero_subsets(rng: random.Random, count: int) -> tuple:
    """Rationals p/q, |p| <= 9, q <= 9, with every subset sum of size >= 2
    nonzero."""
    while True:
        vec = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(count))
        if all(total != 0 for total in _subset_sums(vec, 2)):
            return vec


def draw_noninteger_subsets(rng: random.Random, count: int, span: int = 6) -> tuple:
    """Every nonempty subset sum and the weight at infinity non-integral."""
    while True:
        vec = tuple(
            Fraction(rng.randint(-span, span), rng.choice([7, 9, 11, 13]))
            for _ in range(count)
        )
        if any(total.denominator == 1 for total in _subset_sums(vec, 1)):
            continue
        if (2 - sum(vec)).denominator == 1:
            continue
        return vec


def draw_reducible(rng: random.Random, n: int) -> tuple:
    """One zero entry, the rest in (0, 1) with non-integral subset sums:
    the degenerate set of acceptance criterion 08."""
    while True:
        a = [Fraction(rng.randint(1, 12), 13) for _ in range(n)] + [Fraction(0)]
        rng.shuffle(a)
        nonzero = [x for x in a if x]
        if all(total.denominator != 1 for total in _subset_sums(nonzero, 1)) and (
            (2 - sum(a)).denominator != 1
        ):
            return tuple(a)


# -- braid arrangement bookkeeping ------------------------------------------------

def braid_pairs(n: int):
    """Pairs (i, j), 1 <= i < j <= n+1, in the program's hyperplane order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]


def hyperplane_id(pair) -> str:
    return f"H_{pair[0]}_{pair[1]}"


def block_of_ids(ids) -> frozenset:
    """Block of {1..n+1} whose pairs are exactly the given hyperplanes."""
    block = set()
    for hid in ids:
        _, i, j = hid.split("_")
        block.update((int(i), int(j)))
    return frozenset(block)


def jordan_pochhammer(a) -> dict:
    """Reduced Jordan-Pochhammer residues, pair -> n x n list of Fractions.

    At H_{i,j} with j <= n: a_j, -a_j in row i and -a_i, a_i in row j (at
    columns i, j).  At H_{i,n+1}: column i is a_i, its diagonal entry
    a_i + a_{n+1}.
    """
    n = len(a) - 1
    out = {}
    for i, j in braid_pairs(n):
        grid = [[Fraction(0)] * n for _ in range(n)]
        if j <= n:
            grid[i - 1][i - 1] = a[j - 1]
            grid[i - 1][j - 1] = -a[j - 1]
            grid[j - 1][i - 1] = -a[i - 1]
            grid[j - 1][j - 1] = a[i - 1]
        else:
            for k in range(n):
                grid[k][i - 1] = a[i - 1]
            grid[i - 1][i - 1] = a[i - 1] + a[n]
        out[(i, j)] = grid
    return out


def _trace(grid) -> Fraction:
    return sum(grid[k][k] for k in range(len(grid)))


def _matmul(x, y):
    return [[sum(r[k] * y[k][c] for k in range(len(y))) for c in range(len(y[0]))] for r in x]


def _add(x, y):
    return [[p + q for p, q in zip(rx, ry)] for rx, ry in zip(x, y)]


def _codim2_flats(n: int):
    """Codimension-two flats of the braid arrangement as pair sets: the
    pairs inside a 3-block, or two disjoint pairs."""
    m = n + 1
    for triple in combinations(range(1, m + 1), 3):
        yield list(combinations(triple, 2))
    pairs = list(combinations(range(1, m + 1), 2))
    for p, q in combinations(pairs, 2):
        if not set(p) & set(q):
            yield [p, q]


def is_flat(residues: dict, n: int) -> bool:
    """[A_L, A_H] = 0 for every codimension-two flat L and H above it."""
    for pairs in _codim2_flats(n):
        a_l = residues[pairs[0]]
        for p in pairs[1:]:
            a_l = _add(a_l, residues[p])
        for p in pairs:
            a_h = residues[p]
            if _matmul(a_l, a_h) != _matmul(a_h, a_l):
                return False
    return True


def weight_table(traces: dict, n: int) -> dict:
    """Weight of each irreducible flat, keyed by its block S (|S| >= 2):
    the traces over the pairs inside S, divided by |S| - 1."""
    table = {}
    for size in range(2, n + 2):
        for block in combinations(range(1, n + 2), size):
            total = sum(traces[p] for p in combinations(block, 2))
            table[frozenset(block)] = total / (size - 1)
    return table


def constraints_vanish(traces: dict, n: int) -> bool:
    """Deletion-restriction trace identity at every hyperplane H0 = H_{i,j}:
    sum(traces)/n equals (traces of pairs disjoint from {i,j} plus half the
    3-block trace sums through {i,j}) / (n - 1)."""
    m = n + 1
    lhs = sum(traces.values()) / n
    for i, j in traces:
        rest = [k for k in range(1, m + 1) if k not in (i, j)]
        transversal = sum(traces[p] for p in combinations(rest, 2))
        deep = sum(
            (traces[(i, j)] + traces[tuple(sorted((i, k)))] + traces[tuple(sorted((j, k)))]) / 2
            for k in rest
        )
        if (transversal + deep) / (n - 1) != lhs:
            return False
    return True


def signature_closed_form(a) -> tuple:
    """Deligne-Mostow inertia (p, q, kernel) of the invariant form: over
    a_1..a_{n+1} and 2 - sum(a), integers count toward the kernel and
    p = -1 + sum of fractional parts, q = -1 + sum of (1 - fractional part)."""
    seq = list(a) + [2 - sum(a)]
    kernel = sum(1 for x in seq if x.denominator == 1)
    fracs = [x - (x.numerator // x.denominator) for x in seq if x.denominator != 1]
    p = sum(fracs) - 1
    q = sum(1 - f for f in fracs) - 1
    return int(p), int(q), kernel


# -- ops ----------------------------------------------------------------------------

@dataclass
class Op:
    """One verdict request and the answer the benchmark expects for it."""

    kind: str
    n: int
    a: tuple
    expect: dict = field(default_factory=dict)
    corrupt: tuple = None  # pair whose residue is scaled by 2
    argv: list = None  # CLI arguments, for cli-cold


def _block_order(rng: random.Random, block, length: int):
    """Op labels, one block at a time.  Within a block the ops of each
    class are evenly spaced from a seeded phase, so every stretch of a
    block holds about the block's mix: a timed run that stops partway
    through a block still runs the stated mix, and its ops_per_s does not
    swing with how many cheap ops happened to come first.  Phases and
    parameter draws share ``rng`` in a fixed interleaving, so a shorter
    list is a prefix of a longer one."""
    produced = 0
    while produced < length:
        keyed = []
        for label, count in block:
            phase = rng.random()
            keyed += [((i + phase) / count, label) for i in range(count)]
        chunk = [label for _, label in sorted(keyed)]
        for label in chunk[: length - produced]:
            yield label
        produced += len(chunk)


def _exact_expectations(a, corrupt) -> dict:
    n = len(a) - 1
    residues = jordan_pochhammer(a)
    if corrupt is not None:
        residues[corrupt] = [[2 * x for x in row] for row in residues[corrupt]]
    traces = {p: _trace(g) for p, g in residues.items()}
    table = weight_table(traces, n)
    return {
        "residues": residues,
        "torsion_free": True,
        "flat": True if corrupt is None else is_flat(residues, n),
        "weights": table,
        "weights_ok": all(table.values()),
        "constraints_zero": True if corrupt is None else constraints_vanish(traces, n),
        "recovered": tuple(a) if corrupt is None else None,
    }


def exact_sweep_ops(seed: int, length: int) -> list:
    rng = random.Random(seed)
    n = 5
    ops = []
    for label in _block_order(rng, EXACT_BLOCK, length):
        a = draw_nonzero_subsets(rng, n + 1)
        corrupt = rng.choice(braid_pairs(n)) if label == "corrupt" else None
        ops.append(Op(label, n, a, _exact_expectations(a, corrupt), corrupt))
    return ops


def cli_cold_ops(seed: int, length: int, workdir: str) -> list:
    """Connection files are written under ``workdir``; one file per op."""
    rng = random.Random(seed)
    ops = []
    for k, label in enumerate(_block_order(rng, CLI_BLOCK, length)):
        command, *rest = label.split("-")
        n = int(rest[-1])
        corrupt = rng.choice(braid_pairs(n)) if "corrupt" in rest else None
        a = draw_nonzero_subsets(rng, n + 1)
        residues = jordan_pochhammer(a)
        if corrupt is not None:
            residues[corrupt] = [[2 * x for x in row] for row in residues[corrupt]]
        path = os.path.join(workdir, f"conn{k:04d}.json")
        write_connection(path, n, residues)
        traces = {p: _trace(g) for p, g in residues.items()}
        expect = {"exit": 0}
        if command == "check":
            expect["weights"] = weight_table(traces, n)
        elif corrupt is None:
            expect["recovered"] = a
        else:
            expect["exit"] = 1
        ops.append(Op(label, n, a, expect, corrupt, [command, path, "--json"]))
    return ops


def holonomy_ops(seed: int, length: int) -> list:
    rng = random.Random(seed)
    ops = []
    reducible_n = 2
    for label in _block_order(rng, HOLONOMY_BLOCK, length):
        if label == "reducible":
            n = reducible_n
            reducible_n = 5 - reducible_n  # alternate A_2 and A_3
            a = draw_reducible(rng, n)
        else:
            n = int(label)
            a = draw_noninteger_subsets(rng, n + 1, span=6)
        dets = {
            hyperplane_id(p): cmath.exp(2j * cmath.pi * float(a[p[0] - 1] + a[p[1] - 1]))
            for p in braid_pairs(n)
        }
        expect = {
            "signature": signature_closed_form(a),
            "dets": dets,
            "irreducible": label != "reducible",
        }
        ops.append(Op(label, n, a, expect))
    return ops


def generate(workload: str, seed: int, workdir: str = None, length: int = None) -> list:
    length = LIST_LENGTH[workload] if length is None else length
    if workload == "exact-sweep":
        return exact_sweep_ops(seed, length)
    if workload == "cli-cold":
        return cli_cold_ops(seed, length, workdir)
    if workload == "holonomy":
        return holonomy_ops(seed, length)
    raise ValueError(f"unknown workload {workload!r}")


def write_connection(path: str, n: int, residues: dict):
    obj = {
        "builtin": "A_n",
        "n": n,
        "residues": {
            hyperplane_id(p): [[[str(x), "0"] for x in row] for row in grid]
            for p, grid in residues.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
