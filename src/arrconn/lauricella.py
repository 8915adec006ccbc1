"""The braid arrangement and its distinguished connection family.

Builders for the essential braid arrangement and the (reduced)
Jordan-Pochhammer residue matrices, the flat/partition correspondence,
and recovery of the defining parameters from an arbitrary flat
torsion-free connection on the arrangement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Optional

import numpy as np

from .arrangement import (
    Arrangement,
    Flat,
    _braid_rows,
    _components,
    flat_from_indices,
    pair_of_id,
)
from .connection import (
    StandardConnection,
    _weight_sums,
    check_flat,
    check_torsion_free,
)
from .errors import InputError
from .numkernel import ExactMatrix, GR_ZERO, cleared, gaussian_ratio, vec


def build_An(n: int) -> Arrangement:
    """Essential braid arrangement in C^n: z_i = z_j and z_i = 0."""
    return Arrangement._from_rows(n, *_braid_rows(n))


@functools.cache
def _lauricella_template(n: int) -> tuple:
    """The Lauricella constants of A_n, read-only: the row of each pair, (i, j) -> k in
    ``_braid_rows(n)`` order; int8 C (m, n, n + 1) and F (m, n), A_k = (C_k a) (x) F_k;
    the rows of the pairs ij, kl, ik, jl, il, jk of each 4-subset, and of ij,
    ik, jk for each i, j < k its two smallest others (none for n = 1)."""
    points = range(1, n + 2)
    row_of = {pair: k for k, pair in enumerate(combinations(points, 2))}
    m, (i, j) = len(row_of), (np.array(list(row_of)) - 1).T  # the pairs, 0-based
    C, F = np.zeros((m, n + 1, n + 1), dtype=np.int8), np.zeros((m, n + 1), dtype=np.int8)
    C[range(m), i, j] = F[range(m), i] = 1
    C[range(m), j, i] = F[range(m), j] = -1
    C, F = C[:, :n] - C[:, n:], F[:, :n]  # e_{n+1} = -(1, ..., 1) and z_{n+1} = 0
    row = {**row_of, **{(j, i): k for (i, j), k in row_of.items()}}
    quads = [[row[i, j], row[k, l], row[i, k], row[j, l], row[i, l], row[j, k]] for i, j, k, l in combinations(points, 4)]
    others = [[x for x in points if x != i][:2] for i in points] if n > 1 else []
    solve = [[row[i, j], row[i, k], row[j, k]] for i, (j, k) in zip(points, others)]
    arrays = [C, F] + [np.array(r, dtype=np.intp).reshape(-1, w).T for r, w in ((quads, 6), (solve, 3))]
    for array in arrays:
        array.flags.writeable = False
    return (MappingProxyType(row_of), *arrays)


def _numerators(C: np.ndarray, F: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(m, n, n, 2): the (C_k p) (x) F_k of a template for both columns (real
    and imaginary parts) of the (n + 1, 2) array p, on p's dtype."""
    return (C @ p)[:, :, None, :] * F[:, None, :, None]


def reduced_residues(a, arrangement: Optional[Arrangement] = None) -> StandardConnection:
    """The reduced Jordan-Pochhammer connection on the braid arrangement.

    Residue at H_{i,j} with j <= n: a_j and a_i on the diagonal at (i,i)
    and (j,j), -a_j and -a_i off it.  Residue at H_{i,n+1}: column i filled
    with a_i except the diagonal entry a_i + a_{n+1}.  So each is v (x) dh
    with v = a_j e_i - a_i e_j, where e_{n+1} = -(1, ..., 1); it is written
    as numerators over the parameters' common denominator, from the template
    of n, in int64 when |C_k p| <= 2 max |p| < 2^63 and in Python ints else.
    """
    params = vec(a)
    if len(params) < 2:
        raise InputError("parameter vector needs length n+1 >= 2")
    n = len(params) - 1
    arr = arrangement if arrangement is not None else build_An(n)
    if arr.dimension != n:
        raise InputError(f"expected n+1 = {arr.dimension + 1} parameters, got {n + 1}")
    row_of, C, F, _, _ = _lauricella_template(n)
    rows = [row_of.get(pair_of_id(hid)) for hid in arr._ids]
    if None in rows:
        raise InputError(f"hyperplane ids must be H_i_j with 1 <= i < j <= {n + 1}")
    re, im, d = cleared(params)
    dtype = np.int64 if max(map(abs, re + im)) < 2**62 else object
    numerators = _numerators(C, F, np.array([re, im], dtype=dtype).T)[rows]
    re, im = (numerators[..., part].ravel().tolist() for part in (0, 1))
    return StandardConnection._from_numerators(arr, re, im, d)


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


def flat_to_partition(arr: Arrangement, flat: Flat) -> Partition:
    """Partition of {1..n+1} generated by i ~ j when the flat lies in H_{i,j}."""
    n = arr._braid_dimension
    return _components(range(1, n + 2), [pair_of_id(arr._ids[k]) for k in flat.containing])


def partition_to_flat(arr: Arrangement, partition) -> Flat:
    """Inverse correspondence: intersect all H_{i,j} with i, j in one block."""
    n = arr._braid_dimension
    blocks = [sorted(block) for block in partition]
    if not all(blocks) or sorted(x for b in blocks for x in b) != list(range(1, n + 2)):
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
    the input checks.  The rest runs on the trace numerators t and the
    template of n: a_i = q_i / 2d, q_i = t_ij + t_ik - t_jk, and A_k = N_k / d
    is the candidates' residue iff 2 N_k = (C_k q) (x) F_k.
    """
    arr = conn.arrangement
    n = arr._braid_dimension
    (row_of, C, F, quads, solve), view = _lauricella_template(n), conn.integer
    t = view.traces()
    traces = dict(zip(row_of, (gaussian_ratio(re, im, view.denominator) for re, im in t.tolist())))

    if n == 1:
        return RecoveryResult(False, None, "n = 1: only a_1 + a_2 is determined", True, traces)

    if verify_input:
        if not check_torsion_free(conn).ok:
            return RecoveryResult(False, None, "input is not torsion free", False, traces)
        if not check_flat(conn, cap=cap).ok:
            return RecoveryResult(False, None, "input is not flat", False, traces)
        if not _weight_sums(conn, cap)[1].any(axis=1).all():
            return RecoveryResult(False, None, "input has zero weights", False, traces)

    ij, kl, ik, jl, il, jk = (t[r] for r in quads)  # none for n = 2
    bad = ((ij + kl != ik + jl) | (ij + kl != il + jk)).any(axis=1)
    if bad.any():
        i, j, k, l = list(combinations(range(1, n + 2), 4))[bad.argmax()]
        failure = f"traces not of Lauricella form (compatibility fails on {{{i},{j},{k},{l}}})"
        return RecoveryResult(False, None, failure, False, traces)
    q = t[solve[0]] + t[solve[1]] - t[solve[2]]
    params = tuple(gaussian_ratio(re, im, 2 * view.denominator) for re, im in q.tolist())
    bad = (2 * np.stack([view.re, view.im], axis=-1) != _numerators(C, F, q)).any(axis=(1, 2, 3))
    if bad.any():
        return RecoveryResult(False, None, f"non-Lauricella residues at {arr._ids[bad.argmax()]}", False, traces)
    return RecoveryResult(True, params, None, False, traces)
