"""Shared helpers for the test suite: seeded rational sampling and the
exact commutator of two matrices over Q(i)."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline (shared CPUs vary in speed).
settings.register_profile("arrconn", derandomize=True, deadline=None, database=None)
settings.load_profile("arrconn")


def commutator(a, b):
    """[a, b] = ab - ba of two ExactMatrix values."""
    return (a @ b) - (b @ a)


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
