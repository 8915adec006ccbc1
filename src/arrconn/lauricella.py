"""The braid arrangement and its distinguished connection family.

Builders for the essential braid arrangement and the (reduced)
Jordan-Pochhammer residue matrices, the flat/partition correspondence,
and recovery of the defining parameters from an arbitrary flat
torsion-free connection on the arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .arrangement import (
    Arrangement,
    Flat,
    _UnionFind,
    _braid_rows,
    _primitive_key,
    flat_from_indices,
    pair_of_id,
)
from .connection import (
    StandardConnection,
    check_flat,
    check_torsion_free,
    weights,
)
from .errors import InputError
from .numkernel import ExactMatrix, GaussianRational, GR_ZERO, cleared, gaussian_ratio, vec


def build_An(n: int) -> Arrangement:
    """Essential braid arrangement in C^n: z_i = z_j and z_i = 0."""
    return Arrangement._from_rows(n, *_braid_rows(n))


def reduced_residues(a, arrangement: Optional[Arrangement] = None) -> StandardConnection:
    """The reduced Jordan-Pochhammer connection on the braid arrangement.

    Residue at H_{i,j} with j <= n: a_j and a_i on the diagonal at (i,i)
    and (j,j), -a_j and -a_i off it.  Residue at H_{i,n+1}: column i filled
    with a_i except the diagonal entry a_i + a_{n+1}.  So each is v (x) dh
    with v = a_j e_i - a_i e_j, where e_{n+1} = -(1, ..., 1); it is written
    as numerators over the parameters' common denominator.
    """
    params = vec(a)
    if len(params) < 2:
        raise InputError("parameter vector needs length n+1 >= 2")
    n = len(params) - 1
    arr = arrangement if arrangement is not None else build_An(n)
    *parts, d = cleared(params)
    numerators = ([], [])
    for hid in arr._ids:
        i, j = pair_of_id(hid)
        form = [(k == i - 1) - (k == j - 1) for k in range(n)]  # z_i - z_j, with z_{n+1} = 0
        for p, out in zip(parts, numerators):
            v = [p[j - 1] * (k == i - 1) - p[i - 1] * ((k == j - 1) - (j > n)) for k in range(n)]
            out += [x * f for x in v for f in form]
    return StandardConnection._from_numerators(arr, *numerators, d)


def full_residues(a) -> dict:
    """Unreduced (n+1)x(n+1) Jordan-Pochhammer matrices, keyed by (i, j)."""
    params = vec(a)
    m = len(params)
    if m < 2:
        raise InputError("parameter vector needs length n+1 >= 2")
    out = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            grid = [[GR_ZERO] * m for _ in range(m)]
            grid[i - 1][i - 1] = params[j - 1]
            grid[i - 1][j - 1] = -params[j - 1]
            grid[j - 1][i - 1] = -params[i - 1]
            grid[j - 1][j - 1] = params[i - 1]
            out[(i, j)] = ExactMatrix(grid)
    return out


# -- flats <-> partitions -------------------------------------------------------

Partition = tuple  # tuple of tuples, blocks sorted by least element


def _canonical_partition(blocks) -> Partition:
    blocks = [tuple(sorted(b)) for b in blocks]
    blocks.sort(key=lambda b: b[0])
    return tuple(blocks)


def _check_braid(arr: Arrangement) -> int:
    """The dimension n, when the ids are those of ``build_An(n)`` and each
    form is a nonzero multiple of the builder's: its primitive key is the
    builder's row, which is its own key."""
    ids, rows = _braid_rows(arr.dimension)
    fr, fi = arr._integer_forms
    keys = [_primitive_key(re, im) for re, im in zip(fr.tolist(), fi.tolist())]
    if arr._ids != tuple(ids) or keys != [(*re, *im) for re, im, _ in rows]:
        raise InputError("arrangement is not the braid arrangement A_n, up to scaling of its forms")
    return arr.dimension


def flat_to_partition(arr: Arrangement, flat: Flat) -> Partition:
    """Partition of {1..n+1} generated by i ~ j when the flat lies in H_{i,j}."""
    n = _check_braid(arr)
    uf = _UnionFind(n + 2)  # 1-based
    for idx in flat.containing:
        uf.union(*pair_of_id(arr._ids[idx]))
    groups = {}
    for x in range(1, n + 2):
        groups.setdefault(uf.find(x), []).append(x)
    return _canonical_partition(groups.values())


def partition_to_flat(arr: Arrangement, partition) -> Flat:
    """Inverse correspondence: intersect all H_{i,j} with i, j in one block."""
    n = _check_braid(arr)
    blocks = _canonical_partition(partition)
    seen = sorted(x for b in blocks for x in b)
    if seen != list(range(1, n + 2)):
        raise InputError("blocks must partition {1..n+1}")
    wanted = {f"H_{i}_{j}" for block in blocks for i, j in combinations(block, 2)}
    indices = [k for k, hid in enumerate(arr._ids) if hid in wanted]
    return flat_from_indices(arr, indices)


def partition_is_irreducible(partition) -> bool:
    """At most one block of size two or more."""
    return sum(1 for b in partition if len(b) >= 2) <= 1


# -- parameter recovery ----------------------------------------------------------

@dataclass(frozen=True)
class RecoveryResult:
    ok: bool
    parameters: Optional[tuple]  # GaussianRational a_1..a_{n+1}
    failure: Optional[str]
    ambiguous: bool
    traces: dict  # (i, j) -> GaussianRational


def recover_parameters(
    conn: StandardConnection, verify_input: bool = True, cap: Optional[int] = None
) -> RecoveryResult:
    """Recover the unique parameter vector from a flat torsion-free
    connection with nonzero weights on the braid arrangement.

    Traces b_{i,j} determine candidate parameters via
    a_i = (b_{i,j} + b_{i,k} - b_{j,k}) / 2 with j, k the two smallest other
    indices.  For n >= 3 every 4-subset must satisfy
    b_ij + b_kl = b_ik + b_jl = b_il + b_jk; these equalities cut out the
    pair sums a_i + a_j exactly (both spaces have dimension n + 1), and for
    n = 2 every trace table is a pair sum, so the candidates reproduce
    every b_{i,j} and the pair equations need no separate check.  Full
    residue equality with the candidates' connection is then verified
    exactly.  For n = 1 the split of the single trace is not determined
    and the result is flagged ambiguous.  ``cap`` is the lattice cap of
    the input checks.
    """
    arr = conn.arrangement
    n = _check_braid(arr)
    view = conn.integer
    ratios = [gaussian_ratio(re, im, view.denominator) for re, im in view.traces().tolist()]
    traces = {pair_of_id(hid): t for hid, t in zip(arr._ids, ratios)}

    if n == 1:
        return RecoveryResult(False, None, "n = 1: only a_1 + a_2 is determined", True, traces)

    if verify_input:
        if not check_torsion_free(conn).ok:
            return RecoveryResult(False, None, "input is not torsion free", False, traces)
        if not check_flat(conn, cap=cap).ok:
            return RecoveryResult(False, None, "input is not flat", False, traces)
        if not weights(conn, cap=cap).ok:
            return RecoveryResult(False, None, "input has zero weights", False, traces)

    def b(i, j):
        return traces[(i, j)] if i < j else traces[(j, i)]

    for i, j, k, l in combinations(range(1, n + 2), 4):  # none for n = 2
        first = b(i, j) + b(k, l)
        if first != b(i, k) + b(j, l) or first != b(i, l) + b(j, k):
            failure = f"traces not of Lauricella form (compatibility fails on {{{i},{j},{k},{l}}})"
            return RecoveryResult(False, None, failure, False, traces)
    half = GaussianRational(Fraction(1, 2))
    others = [[x for x in range(1, n + 2) if x != i][:2] for i in range(1, n + 2)]
    params = tuple(half * (b(i, j) + b(i, k) - b(j, k)) for i, (j, k) in enumerate(others, 1))
    want = reduced_residues(params, arrangement=arr).integer
    p, q = view.denominator, want.denominator
    if p != q or (view.re != want.re).any() or (view.im != want.im).any():  # both forms are canonical
        # A_k = B_k iff q N_k = p M_k, compared in Python ints, which cannot overflow
        pairs = ((view.re, want.re), (view.im, want.im))
        bad = sum((x.astype(object) * q != y.astype(object) * p).any(axis=(1, 2)) for x, y in pairs)
        hid = arr._ids[bad.argmax()]
        return RecoveryResult(False, None, f"non-Lauricella residues at {hid}", False, traces)
    return RecoveryResult(True, params, None, False, traces)
