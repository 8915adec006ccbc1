"""Greedy bases and matroid circuits read from one echelon form.

The greedy loops below re-eliminate one vector at a time; they are kept
here as oracles for the single-echelon versions in ``src/``.  Also: the
essential-and-irreducible predicate and the braid-arrangement check.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import arrconn.arrangement as arrangement_module
import arrconn.numkernel as numkernel_module
from arrconn.arrangement import Arrangement, Hyperplane, _matroid_components
from arrconn.connection import StandardConnection, check_weight_constraints, euler_field
from arrconn.errors import InputError, PreconditionError
from arrconn.lauricella import build_An, flat_to_partition, reduced_residues
from arrconn.numkernel import (
    GR_ONE,
    GR_ZERO,
    ExactMatrix,
    GaussianRational,
    cleared,
    coordinates_in_basis,
    independent_subset,
    row_echelon,
    solve_exact,
)
from conftest import random_params_nonzero_subsets
from test_arrangement import _PARTS, boolean, small_arrangements


def matroid_components(forms):
    parts = [cleared(f) for f in forms]
    shape = (len(parts), len(forms[0]) if forms else 0)
    return _matroid_components(
        *(np.array([p[k] for p in parts], dtype=object).reshape(shape) for k in (0, 1))
    )[0]


# -- oracles: one elimination per vector -----------------------------------------

def greedy_components(forms):
    m = len(forms)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    basis_idx = []
    for i, f in enumerate(forms):
        if not basis_idx:
            basis_idx.append(i)
            continue
        coords = coordinates_in_basis([forms[j] for j in basis_idx], f)
        if coords is None:
            basis_idx.append(i)
        else:
            for j, c in zip(basis_idx, coords):
                if c:
                    parent[find(i)] = find(j)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def greedy_independent(vectors):
    chosen, rows, rank = [], [], 0
    for idx, v in enumerate(vectors):
        trial = rows + [v]
        _, pivots = row_echelon(trial)
        if len(pivots) > rank:
            rank, rows = len(pivots), trial
            chosen.append(idx)
    return chosen


def inverse_by_columns(columns):
    n = len(columns)
    basis = ExactMatrix.from_columns(columns)
    e = ExactMatrix.identity(n).entries
    return ExactMatrix.from_columns([solve_exact(basis, e[j]) for j in range(n)])


# -- strategies --------------------------------------------------------------------

_ENTRY = st.builds(GaussianRational, st.sampled_from(_PARTS), st.sampled_from((0, 0, 1, -1)))


@st.composite
def vector_lists(draw):
    """(n, vectors) over Q(i) with zero, repeated and complex vectors."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[_ENTRY] * n), max_size=6))
    pool.append(tuple([GR_ZERO] * n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=9))
    return n, [pool[k] for k in picks]


# -- the single-echelon versions agree with the greedy loops ---------------------------

class TestAgainstGreedyLoops:
    @given(small_arrangements())
    def test_components_on_arrangements(self, arr):
        forms = [h.form for h in arr.hyperplanes]
        assert matroid_components(forms) == greedy_components(forms)
        for flat in arr.lattice().flats:
            sub = [forms[i] for i in flat.containing]
            assert matroid_components(sub) == greedy_components(sub)

    @given(vector_lists())
    def test_components_on_vector_lists(self, drawn):
        _, vectors = drawn
        assert matroid_components(vectors) == greedy_components(vectors)

    @given(vector_lists())
    def test_independent_subset(self, drawn):
        _, vectors = drawn
        assert independent_subset(vectors) == greedy_independent(vectors)

    @given(small_arrangements())
    def test_independent_normals_on_arrangements(self, arr):
        for flat in arr.lattice().flats:
            forms = [arr.form(i) for i in flat.containing]
            assert independent_subset(forms) == greedy_independent(forms)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_euler_field_matrix(self, n):
        rng = random.Random(40 + n)
        for _ in range(3):
            a = random_params_nonzero_subsets(rng, n + 1, avoid_one=True)
            field = euler_field(reduced_residues(a))
            columns = list(field.center_basis)
            diag = [GR_ONE] * len(columns)
            for factor in field.factors:
                columns += factor.perp_basis
                diag += [GR_ONE / factor.angle] * len(factor.perp_basis)
            scaled = ExactMatrix.from_columns(
                [tuple(d * x for x in col) for d, col in zip(diag, columns)]
            )
            assert field.matrix == scaled @ inverse_by_columns(columns)
            # one irreducible block with weight sum(a): e = identity / (1 - sum(a))
            assert field.matrix == ExactMatrix.identity(n).scale(GR_ONE / GaussianRational(1 - sum(a)))


def test_one_echelon_form_per_component_call(monkeypatch):
    calls = []
    core = numkernel_module._echelon_core

    def counting(rows):
        calls.append(len(rows))
        return core(rows)

    monkeypatch.setattr(numkernel_module, "_echelon_core", counting)
    monkeypatch.setattr(arrangement_module, "_echelon_core", counting)
    forms = [h.form for h in build_An(4).hyperplanes]
    blocks = matroid_components(forms)
    assert blocks == [list(range(len(forms)))]
    assert len(calls) == 1


# -- one essential-and-irreducible predicate -------------------------------------------

def _padded_braid(n):
    """A_n in C^{n+1}: the same forms with a zero last coordinate (not essential)."""
    return Arrangement(
        n + 1, [Hyperplane(h.id, h.form + (GR_ZERO,)) for h in build_An(n).hyperplanes]
    )


class TestEssentialIrreducible:
    def test_empty_and_boolean_are_not(self):
        assert Arrangement(2, []).essential_irreducible is False
        assert boolean(3).essential_irreducible is False

    def test_non_essential_braid_is_not(self):
        assert _padded_braid(2).essential_irreducible is False

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_braid_is(self, n):
        assert build_An(n).essential_irreducible is True

    def test_weight_constraints_refuse_before_the_lattice(self):
        arr = _padded_braid(2)
        zero = ExactMatrix.zeros(3, 3)
        conn = StandardConnection(arr, {h.id: zero for h in arr.hyperplanes})
        with pytest.raises(PreconditionError, match="essential irreducible"):
            check_weight_constraints(conn, cap=0)


# -- the braid check compares forms without building an arrangement ------------------

class TestCheckBraid:
    def test_accepts_the_builder_output(self):
        arr = build_An(3)
        assert arr._braid_dimension == 3
        assert flat_to_partition(arr, arr.lattice().flats[0]) == ((1,), (2,), (3,), (4,))

    def test_refuses_a_permuted_braid_arrangement(self):
        planes = build_An(3).hyperplanes
        with pytest.raises(InputError):
            Arrangement(3, planes[::-1])._braid_dimension

    def test_accepts_a_rescaled_braid_arrangement(self):
        # a form is compared up to a nonzero factor over Q(i): the same hyperplane
        for factor in (GaussianRational(2), GaussianRational(F(1, 3), 1), GaussianRational(0, -5)):
            planes = list(build_An(3).hyperplanes)
            planes[2] = Hyperplane(planes[2].id, tuple(factor * c for c in planes[2].form))
            assert Arrangement(3, planes)._braid_dimension == 3

    def test_refuses_another_form(self):
        planes = list(build_An(3).hyperplanes)  # z_1 - 2 z_2 in place of z_1 - z_2
        planes[0] = Hyperplane(planes[0].id, tuple(GaussianRational(k) * c for k, c in zip((1, 2, 1), planes[0].form)))
        with pytest.raises(InputError):
            Arrangement(3, planes)._braid_dimension

    def test_kept_on_the_arrangement_and_a_refusal_is_not(self):
        arr = build_An(3)
        assert "_braid_dimension" not in vars(arr)
        flat_to_partition(arr, arr.lattice().flats[-1])
        assert vars(arr)["_braid_dimension"] == 3
        permuted = Arrangement(3, arr.hyperplanes[::-1])
        for _ in range(2):
            with pytest.raises(InputError):
                permuted._braid_dimension
        assert "_braid_dimension" not in vars(permuted)

    def test_refuses_renamed_ids(self):
        planes = list(build_An(2).hyperplanes)
        planes[0] = Hyperplane("H_9_9", planes[0].form)
        with pytest.raises(InputError):
            Arrangement(2, planes)._braid_dimension
