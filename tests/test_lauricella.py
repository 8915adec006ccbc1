from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrconn.arrangement import Arrangement, Hyperplane, ambient_flat, flat_from_indices, pair_of_id
from arrconn.connection import (
    StandardConnection,
    check_flat,
    check_torsion_free,
    connection_to_json,
    weights,
)
from arrconn.errors import InputError
from arrconn.lauricella import (
    RecoveryResult,
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
    cleared,
    coordinates_in_basis,
    gaussian_ratio,
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

    @pytest.mark.parametrize("params", [[F(1, 3), F(1, 5)], [1, 2, 3, 4]], ids=["short", "long"])
    def test_count_must_fit_the_arrangement(self, params):
        with pytest.raises(InputError, match=rf"^expected n\+1 = 3 parameters, got {len(params)}$"):
            reduced_residues(params, arrangement=build_An(2))

    @pytest.mark.parametrize("hid", ["H_1_4", "H_2_1", "H_2_2"])
    def test_ids_outside_the_braid_pairs_are_refused(self, hid):
        arr = Arrangement(2, [Hyperplane(hid, vec([1, 0]))])
        with pytest.raises(InputError, match=r"^hyperplane ids must be H_i_j with 1 <= i < j <= 3$"):
            reduced_residues([1, 2, 3], arrangement=arr)

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

    def test_rejects_an_empty_block(self):
        arr = build_An(2)
        with pytest.raises(InputError, match=r"^blocks must partition \{1..n\+1\}$"):
            partition_to_flat(arr, [(3, 1, 2), ()])
        assert partition_to_flat(arr, [(3, 1, 2)]) == flat_from_indices(arr, [0, 1, 2])

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


# -- the Fraction paths that the integer template replaced, kept as oracles ------------

_braid = cache(build_An)  # one arrangement, and one lattice, per n across examples
_EDGES = (2**61, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**63 + 1)  # |C_k p| <= 2 max |p|


def loop_reduced_residues(a, arr) -> StandardConnection:
    """The reduced residues on ``arr`` built one entry at a time, as
    ``reduced_residues`` did before the per-n template."""
    *parts, d = cleared(vec(a))
    n = arr.dimension
    numerators = ([], [])
    for hid in arr._ids:
        i, j = pair_of_id(hid)
        form = [(k == i - 1) - (k == j - 1) for k in range(n)]  # z_i - z_j, with z_{n+1} = 0
        for p, out in zip(parts, numerators):
            v = [p[j - 1] * (k == i - 1) - p[i - 1] * ((k == j - 1) - (j > n)) for k in range(n)]
            out += [x * f for x in v for f in form]
    return StandardConnection._from_numerators(arr, *numerators, d)


def fraction_recover_parameters(conn, verify_input=True, cap=None) -> RecoveryResult:
    """Recovery on Gaussian-rational traces, as ``recover_parameters`` ran
    before the integer path: the 4-subset loop, a_i = 1/2 (b_ij + b_ik -
    b_jk), the weight table's verdict, and a candidate connection from
    ``loop_reduced_residues`` compared with the input."""
    arr = conn.arrangement
    n = arr._braid_dimension
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

    for i, j, k, l in combinations(range(1, n + 2), 4):
        first = b(i, j) + b(k, l)
        if first != b(i, k) + b(j, l) or first != b(i, l) + b(j, k):
            failure = f"traces not of Lauricella form (compatibility fails on {{{i},{j},{k},{l}}})"
            return RecoveryResult(False, None, failure, False, traces)
    half = G(F(1, 2))
    others = [[x for x in range(1, n + 2) if x != i][:2] for i in range(1, n + 2)]
    params = tuple(half * (b(i, j) + b(i, k) - b(j, k)) for i, (j, k) in enumerate(others, 1))
    want = loop_reduced_residues(params, arr).integer
    p, q = view.denominator, want.denominator
    pairs = ((view.re, want.re), (view.im, want.im))
    bad = sum((x.astype(object) * q != y.astype(object) * p).any(axis=(1, 2)) for x, y in pairs)
    if bad.any():
        return RecoveryResult(False, None, f"non-Lauricella residues at {arr._ids[bad.argmax()]}", False, traces)
    return RecoveryResult(True, params, None, False, traces)


def _form(conn) -> tuple:
    view = conn.integer
    return view.denominator, view.re.dtype, view.im.dtype, view.re.shape, view.re.tolist(), view.im.tolist()


_small = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
_large = st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**30))
_edge = st.sampled_from(_EDGES).flatmap(lambda x: st.sampled_from((x, -x)))


@st.composite
def parameter_vectors(draw):
    """a_1..a_{n+1} for A_1-A_5: real or complex, small, or mixed with large
    ones and integers at the int64 edges of the template's arithmetic."""
    n = draw(st.integers(1, 5))
    part = draw(st.sampled_from((_small, st.one_of(_small, _large, _edge))))
    im = draw(st.sampled_from((st.just(0), part)))
    return draw(st.lists(st.builds(G, part, im), min_size=n + 1, max_size=n + 1))


@st.composite
def recovery_cases(draw):
    """A Lauricella connection on a shared A_n, verified as it is, with
    a_2 = -a_1 (a zero weight) or with one residue doubled, or unverified
    with one trace shifted or one off-diagonal entry changed, which keeps
    every trace."""
    params = draw(parameter_vectors())
    kind = draw(st.sampled_from(("plain", "zero-weight", "doubled", "shifted", "off-diagonal")))
    if kind == "zero-weight":
        params[1] = -params[0]
    conn = reduced_residues(params, arrangement=_braid(len(params) - 1))
    n = conn.dimension
    verify = kind in ("plain", "zero-weight", "doubled")
    if kind in ("plain", "zero-weight") or n == 1:
        return conn, verify
    hid = draw(st.sampled_from(conn.arrangement._ids))
    m = [list(row) for row in conn.residue(hid).entries]
    if kind == "doubled":
        m = [[2 * x for x in row] for row in m]
    else:
        r = c = draw(st.integers(0, n - 1))
        if kind == "off-diagonal":
            c = (r + draw(st.integers(1, n - 1))) % n
        m[r][c] = m[r][c] + draw(st.builds(G, _small.filter(bool), _small))
    return StandardConnection(conn.arrangement, {**conn.residues, hid: ExactMatrix(m)}), verify


class TestFractionOracles:
    @settings(max_examples=150)
    @given(recovery_cases())
    def test_recovery_matches_the_fraction_path(self, case):
        conn, verify = case
        got = recover_parameters(conn, verify_input=verify)
        assert got == fraction_recover_parameters(conn, verify_input=verify)
        assert repr(got) == repr(fraction_recover_parameters(conn, verify_input=verify))

    @settings(max_examples=150)
    @given(parameter_vectors(), st.randoms(use_true_random=False))
    def test_builder_matches_the_entry_loop(self, params, rnd):
        arr = _braid(len(params) - 1)
        planes = list(arr.hyperplanes)
        rnd.shuffle(planes)
        for target in (arr, Arrangement(arr.dimension, planes)):
            assert _form(reduced_residues(params, arrangement=target)) == _form(loop_reduced_residues(params, target))

    @pytest.mark.parametrize("edge", _EDGES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_builder_at_the_int64_edge(self, edge, sign):
        # a_i + a_{n+1} is the largest numerator the template forms
        for n in (1, 3):
            params = [sign * edge] * (n + 1)
            assert _form(reduced_residues(params)) == _form(loop_reduced_residues(params, build_An(n)))
