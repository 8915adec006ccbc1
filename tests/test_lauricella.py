from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrconn.arrangement import ambient_flat, flat_from_indices
from arrconn.connection import StandardConnection, connection_to_json
from arrconn.errors import InputError
from arrconn.lauricella import (
    build_An,
    flat_to_partition,
    full_residues,
    partition_is_irreducible,
    partition_to_flat,
    recover_parameters,
    reduced_residues,
)
from arrconn.numkernel import (
    ExactMatrix,
    GaussianRational,
    coordinates_in_basis,
    vec,
)
from conftest import commutator, random_params_nonzero_subsets, random_rational_vector

F = Fraction
G = GaussianRational


class TestBuilder:
    def test_counts(self):
        assert len(build_An(1)) == 1
        assert len(build_An(2)) == 3
        assert len(build_An(3)) == 6

    def test_forms(self):
        arr = build_An(2)
        forms = {h.id: h.form for h in arr.hyperplanes}
        assert forms["H_1_2"] == vec([1, -1])
        assert forms["H_1_3"] == vec([1, 0])
        assert forms["H_2_3"] == vec([0, 1])


class TestParameterContract:
    """A parameter vector is any iterable of ints, Fractions or Gaussian
    rationals of length n + 1 >= 2."""

    @pytest.mark.parametrize("kind", [int, F, G])
    @pytest.mark.parametrize("container", [list, tuple, iter], ids=["list", "tuple", "generator"])
    def test_same_connection_for_any_iterable(self, kind, container):
        values = (1, -2, 3, 5)
        want = connection_to_json(reduced_residues(tuple(G(x) for x in values)))
        assert connection_to_json(reduced_residues(container([kind(x) for x in values]))) == want

    @pytest.mark.parametrize("build", [reduced_residues, full_residues])
    def test_float_entry_is_refused(self, build):
        with pytest.raises(TypeError):
            build([F(1, 2), 0.5, F(1, 3)])

    @pytest.mark.parametrize("build", [reduced_residues, full_residues])
    @pytest.mark.parametrize("params", [[F(1, 2)], []], ids=["length-1", "empty"])
    def test_short_vector_is_refused(self, build, params):
        with pytest.raises(InputError, match=r"^parameter vector needs length n\+1 >= 2$"):
            build(params)

    def test_recovered_parameters_are_the_input(self):
        a = (F(1, 10), F(-2, 7), G(F(3, 10), 1), F(1, 5))
        want = tuple(G.coerce(x) for x in a)
        result = recover_parameters(reduced_residues(a))
        assert tuple(result.parameters) == want
        assert [result.parameters[i] for i in range(len(a))] == list(want)


class TestReducedResidues:
    def test_plane_matrices(self):
        a1, a2, a3 = F(1, 7), F(2, 7), F(3, 7)
        conn = reduced_residues([a1, a2, a3])
        assert conn.residue("H_1_2") == ExactMatrix([[a2, -a2], [-a1, a1]])
        assert conn.residue("H_1_3") == ExactMatrix([[a1 + a3, 0], [a1, 0]])
        assert conn.residue("H_2_3") == ExactMatrix([[0, a2], [0, a2 + a3]])

    def test_line_is_scalar(self):
        conn = reduced_residues([F(1, 3), F(1, 5)])
        assert conn.residue("H_1_2") == ExactMatrix([[F(1, 3) + F(1, 5)]])

    def test_traces_are_pair_sums(self, rng):
        a = random_rational_vector(rng, 5)
        conn = reduced_residues(a)
        from arrconn.arrangement import pair_of_id

        for h in conn.arrangement.hyperplanes:
            i, j = pair_of_id(h.id)
            assert conn.residue(h.id).trace() == G(a[i - 1] + a[j - 1])

    def test_linearity(self, rng):
        a = random_rational_vector(rng, 4)
        b = random_rational_vector(rng, 4)
        lam = F(3, 7)
        combined = reduced_residues([x + lam * y for x, y in zip(a, b)])
        left = reduced_residues(a)
        right = reduced_residues(b)
        for h in combined.arrangement.hyperplanes:
            assert combined.residue(h.id) == left.residue(h.id) + right.residue(
                h.id
            ).scale(G(lam))


class TestFullResidues:
    def test_pattern(self):
        mats = full_residues([F(1), F(2), F(3)])
        m = mats[(1, 2)]
        assert m.entries[0][0] == G(2) and m.entries[0][1] == G(-2)
        assert m.entries[1][0] == G(-1) and m.entries[1][1] == G(1)
        assert m.rows == 3

    def test_zero_parameters(self):
        mats = full_residues([F(0)] * 3)
        assert all(m.is_zero() for m in mats.values())

    def test_infinitesimal_braid_relations(self):
        mats = full_residues([F(1), F(2), F(3)])
        for (i, j, k) in combinations(range(1, 4), 3):
            lhs = commutator(mats[(i, j)], mats[(i, k)] + mats[(j, k)])
            assert lhs.is_zero()

    def test_disjoint_pairs_commute(self):
        mats = full_residues([F(1), F(2), F(3), F(4)])
        assert commutator(mats[(1, 2)], mats[(3, 4)]).is_zero()

    def test_restriction_to_sum_zero_hyperplane_gives_reduced(self, rng):
        # express the (n+1)-dim matrices in the coordinates of the
        # hyperplane {sum a_i z_i = 0} and compare with the reduced builder
        a = random_params_nonzero_subsets(rng, 4)
        a0 = sum(a)
        n = 3
        mats = full_residues(a)
        reduced = reduced_residues(a)
        # paper frame: partial_i = e_i - (a_i / a0) * sum_k e_k
        basis = []
        for i in range(n):
            b = [G(-F(a[i], 1) / a0)] * (n + 1)
            b[i] = b[i] + G(1)
            basis.append(vec(b))
        from arrconn.arrangement import pair_of_id

        for h in reduced.arrangement.hyperplanes:
            i, j = pair_of_id(h.id)
            full = mats[(i, j)]
            cols = []
            for b in basis:
                image = full.apply(b)
                coords = coordinates_in_basis(basis, image)
                assert coords is not None
                cols.append(coords)
            assert ExactMatrix.from_columns(cols) == reduced.residue(h.id)


class TestPartitionBijection:
    def test_ambient_is_singletons(self):
        arr = build_An(3)
        assert flat_to_partition(arr, ambient_flat(arr)) == ((1,), (2,), (3,), (4,))

    def test_origin_is_single_block(self):
        arr = build_An(2)
        origin = flat_from_indices(arr, [0, 1, 2])
        assert flat_to_partition(arr, origin) == ((1, 2, 3),)

    def test_reducible_flat(self):
        arr = build_An(3)
        flat = flat_from_indices(arr, [arr.index_of("H_1_2"), arr.index_of("H_3_4")])
        part = flat_to_partition(arr, flat)
        assert part == ((1, 2), (3, 4))
        assert not partition_is_irreducible(part)

    def test_involution_on_flats(self):
        arr = build_An(3)
        for flat in arr.lattice().flats:
            part = flat_to_partition(arr, flat)
            assert partition_to_flat(arr, part) == flat

    def test_partition_irreducibility_matches_matroid(self):
        from arrconn.arrangement import is_irreducible_flat

        arr = build_An(3)
        for flat in arr.lattice().flats:
            part = flat_to_partition(arr, flat)
            has_block = any(len(b) >= 2 for b in part)
            expected = has_block and partition_is_irreducible(part)
            assert is_irreducible_flat(arr, flat) == expected

    def test_rejects_incomplete_partition(self):
        arr = build_An(2)
        with pytest.raises(InputError):
            partition_to_flat(arr, [(1, 2)])

    def test_rejects_foreign_arrangement(self):
        from arrconn.arrangement import Arrangement, Hyperplane

        arr = Arrangement(2, [Hyperplane("x", vec([1, 0]))])
        with pytest.raises(InputError):
            flat_to_partition(arr, ambient_flat(arr))


class TestRecovery:
    def test_round_trip(self, rng):
        for n in (2, 3):
            a = random_params_nonzero_subsets(rng, n + 1)
            result = recover_parameters(reduced_residues(a))
            assert result.ok
            assert tuple(result.parameters) == tuple(G(x) for x in a)

    def test_plane_trace_solution(self):
        # traces 3/10, 4/10, 5/10 force a_1 = (3+4-5)/20 = 1/10
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        result = recover_parameters(conn)
        assert result.ok
        assert result.parameters[0] == G(F(1, 10))
        assert result.traces[(1, 2)] == G(F(3, 10))

    def test_compat_violation_rejected(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10), F(4, 10)])
        residues = dict(conn.residues)
        residues["H_1_2"] = residues["H_1_2"].scale(G(2))
        bad = StandardConnection(conn.arrangement, residues)
        result = recover_parameters(bad, verify_input=False)
        assert not result.ok
        assert "compatibility" in result.failure

    def test_matching_traces_but_wrong_matrices(self):
        # keep all traces but break the rank-one structure; recovery must
        # reject at the matrix-comparison stage when verification is skipped
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        residues = dict(conn.residues)
        m = [list(row) for row in residues["H_1_2"].entries]
        m[0][0] = m[0][0] + G(1)
        m[1][1] = m[1][1] - G(1)
        residues["H_1_2"] = ExactMatrix(m)
        bad = StandardConnection(conn.arrangement, residues)
        result = recover_parameters(bad, verify_input=False)
        assert not result.ok
        assert "non-Lauricella" in result.failure

    @pytest.mark.parametrize("shift", [G(1), G(F(1, 7))], ids=["same-denominator", "new-denominator"])
    def test_names_the_non_lauricella_residue(self, shift):
        # traces kept, so recovery reaches the comparison; a shift by 1/7 also
        # changes the common denominator of the stored form
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10), F(4, 10)])
        residues = dict(conn.residues)
        m = [list(row) for row in residues["H_2_3"].entries]
        m[0][0], m[1][1] = m[0][0] + shift, m[1][1] - shift
        residues["H_2_3"] = ExactMatrix(m)
        bad = StandardConnection(conn.arrangement, residues)
        assert (bad.integer.denominator == conn.integer.denominator) == (shift == 1)
        result = recover_parameters(bad, verify_input=False)
        assert result.failure == "non-Lauricella residues at H_2_3"

    def test_unverified_non_flat_input_caught_by_default(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10), F(4, 10)])
        residues = dict(conn.residues)
        residues["H_1_2"] = residues["H_1_2"].scale(G(2))
        bad = StandardConnection(conn.arrangement, residues)
        result = recover_parameters(bad)
        assert not result.ok
        assert result.failure == "input is not flat"

    def test_line_ambiguity(self):
        conn = reduced_residues([F(1, 3), F(1, 5)])
        result = recover_parameters(conn)
        assert not result.ok and result.ambiguous
        assert result.traces[(1, 2)] == G(F(1, 3) + F(1, 5))

    def test_trace_table_injective(self, rng):
        seen = {}
        for _ in range(25):
            a = random_rational_vector(rng, 4)
            traces = tuple(
                sorted(
                    (k, v)
                    for k, v in recover_parameters(
                        reduced_residues(a), verify_input=False
                    ).traces.items()
                )
            )
            if traces in seen:
                assert seen[traces] == tuple(a)
            seen[traces] = tuple(a)


gaussian = st.builds(
    lambda p, q, r, t: G(F(p, q), F(r, t)),
    st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9),
)


@st.composite
def pair_tables(draw):
    """Values b_ij on the pairs of N = 3..7 points: pair sums a_i + a_j
    over Q(i), the same with one pair perturbed, or drawn freely."""
    count = draw(st.integers(3, 7))
    pairs = list(combinations(range(1, count + 1), 2))
    kind = draw(st.sampled_from(["sums", "perturbed", "free"]))
    if kind == "free":
        return kind, count, {pair: draw(gaussian) for pair in pairs}
    a = draw(st.lists(gaussian, min_size=count, max_size=count))
    table = {(i, j): a[i - 1] + a[j - 1] for i, j in pairs}
    if kind == "perturbed":
        pair = draw(st.sampled_from(pairs))
        table[pair] = table[pair] + draw(gaussian.filter(bool))
    return kind, count, table


@given(pair_tables())
def test_four_subset_equalities_force_pair_sums(case):
    # recover_parameters checks only the 4-subset equalities before it
    # solves a_i = (b_ij + b_ik - b_jk) / 2, j, k the two smallest other
    # points: wherever they hold, the solution reproduces every b_ij
    kind, count, table = case
    points = range(1, count + 1)

    def b(i, j):
        return table[(i, j) if i < j else (j, i)]

    holds = all(
        b(i, j) + b(k, l) == b(i, k) + b(j, l) == b(i, l) + b(j, k)
        for i, j, k, l in combinations(points, 4)
    )
    if kind == "perturbed" and count >= 4:
        assert not holds
    if not holds:
        return
    a = []
    for i in points:
        j, k = [x for x in points if x != i][:2]
        a.append(G(F(1, 2)) * (b(i, j) + b(i, k) - b(j, k)))
    assert all(a[i - 1] + a[j - 1] == t for (i, j), t in table.items())
