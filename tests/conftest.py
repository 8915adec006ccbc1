"""Shared helpers for the test suite: seeded rational sampling, the
exact commutator of two matrices over Q(i), the transport data of scalar
Fuchsian systems, and the Jordan-Pochhammer residue grids built entry by
entry."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings

from arrconn.numkernel import GR_ZERO, ExactMatrix, GaussianRational, step_plan

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline (shared CPUs vary in speed).
settings.register_profile("arrconn", derandomize=True, deadline=None, database=None)
settings.load_profile("arrconn")


def commutator(a, b):
    """[a, b] = ab - ba of two ExactMatrix values."""
    return (a @ b) - (b @ a)


def scalar_lanes(a, poles, sweeps):
    """``ode_transport``'s arguments but tol for the 1 x 1 system dX/dtau =
    sum_k a_k / (tau - p_k) X on the arcs tau = exp(i theta s), s in [0, 1],
    one lane per sweep theta: the ``step_plan`` of h_k(c) = -p_k and
    h_k(o) = 1, and A_k = a_k as the rank factorization U = (a_1 ... a_m),
    V = (1 ... 1)^T."""
    a, poles = np.asarray(a, dtype=complex), np.asarray(poles, dtype=complex)
    sweeps = np.asarray(sweeps, dtype=float)

    def rhs(ts):
        tau = np.exp(1j * sweeps[:, None] * ts)
        slope = (a / (tau[..., None] - poles)).sum(axis=-1) * 1j * sweeps[:, None] * tau
        return slope[..., None, None]

    hc = np.tile(-poles, (len(sweeps), 1))
    factors = (a[None, :], np.ones((len(a), 1), dtype=complex), np.arange(len(a)))
    return rhs, step_plan(hc, np.ones_like(hc), sweeps), factors


def jordan_pochhammer(params) -> dict:
    """The reduced Jordan-Pochhammer residues of a_1..a_{n+1} on the braid
    arrangement, keyed by hyperplane id, built one Q(i) entry at a time:
    at H_{i,j} with j <= n, a_j and a_i on the diagonal at (i,i) and (j,j),
    -a_j and -a_i off it; at H_{i,n+1}, column i filled with a_i except the
    diagonal entry a_i + a_{n+1}."""
    a = [GaussianRational.coerce(x) for x in params]
    n = len(a) - 1
    residues = {}
    for i, j in combinations(range(1, n + 2), 2):
        grid = [[GR_ZERO] * n for _ in range(n)]
        if j <= n:
            grid[i - 1][i - 1] = a[j - 1]
            grid[i - 1][j - 1] = -a[j - 1]
            grid[j - 1][i - 1] = -a[i - 1]
            grid[j - 1][j - 1] = a[i - 1]
        else:
            for k in range(n):
                grid[k][i - 1] = a[i - 1]
            grid[i - 1][i - 1] = a[i - 1] + a[n]
        residues[f"H_{i}_{j}"] = ExactMatrix(grid)
    return residues


def random_rational(rng, lo=-9, hi=9, max_den=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_rational_vector(rng, count, lo=-9, hi=9, max_den=9):
    return tuple(random_rational(rng, lo, hi, max_den) for _ in range(count))


def subset_sums(values, min_size=2):
    for size in range(min_size, len(values) + 1):
        for idx in combinations(range(len(values)), size):
            yield idx, sum(values[i] for i in idx)


def nonzero_subset_sums(values) -> bool:
    return all(total != 0 for _, total in subset_sums(values))


def random_params_nonzero_subsets(rng, count, avoid_one=False):
    """Rational vector whose subset sums (size >= 2) are all nonzero;
    optionally also keeps the full sum away from 1."""
    while True:
        vec = random_rational_vector(rng, count)
        if not nonzero_subset_sums(vec):
            continue
        if avoid_one and sum(vec) == 1:
            continue
        return vec


def noninteger_subset_sums(values) -> bool:
    """Every nonempty subset sum is non-integral (includes singletons)."""
    for size in range(1, len(values) + 1):
        for idx in combinations(range(len(values)), size):
            if sum(values[i] for i in idx).denominator == 1:
                return False
    return True


def random_params_noninteger_subsets(rng, count, include_infinity=True, span=19):
    """Rational vector with every subset sum non-integral, and (optionally)
    the derived weight at infinity non-integral too.  ``span`` bounds the
    numerators; keep it small when the vector feeds numerical holonomy,
    where large weights give badly conditioned transport matrices."""
    while True:
        vec = tuple(
            Fraction(rng.randint(-span, span), rng.choice([7, 9, 11, 13]))
            for _ in range(count)
        )
        if not noninteger_subset_sums(vec):
            continue
        if include_infinity and (2 - sum(vec)).denominator == 1:
            continue
        return vec


@pytest.fixture
def rng():
    return random.Random(20240811)
