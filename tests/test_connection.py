from fractions import Fraction

import numpy as np
import pytest

from arrconn.arrangement import (
    Arrangement,
    Hyperplane,
    ambient_flat,
    flat_from_indices,
    irreducible_decomposition,
)
from arrconn.connection import (
    StandardConnection,
    check_flat,
    check_torsion_free,
    check_weight_constraints,
    connection_from_json,
    connection_to_json,
    decomposition_at_flat,
    euler_field,
    hyperplane_normal,
    induced_connection,
    localization_connection,
    non_resonance_report,
    non_resonant,
    normal_data,
    quotient_connection,
    residue_at_flat,
    weight_at_flat,
    weights,
)
from arrconn.errors import InputError, NormalDataError, PreconditionError, WeightZeroError
from arrconn.lauricella import build_An, reduced_residues
from arrconn.numkernel import ExactMatrix, GaussianRational, vec
from conftest import random_params_nonzero_subsets, random_rational

F = Fraction


def boolean_connection(weights_pair=(F(1, 3), F(2, 5))):
    a, b = weights_pair
    arr = Arrangement(2, [Hyperplane("z1", vec([1, 0])), Hyperplane("z2", vec([0, 1]))])
    residues = {
        "z1": ExactMatrix([[a, 0], [0, 0]]),
        "z2": ExactMatrix([[0, 0], [0, b]]),
    }
    return StandardConnection(arr, residues)


class TestTorsionFree:
    def test_zero_residues(self):
        arr = build_An(2)
        zero = ExactMatrix.zeros(2, 2)
        conn = StandardConnection(arr, {h.id: zero for h in arr.hyperplanes})
        assert check_torsion_free(conn).ok

    def test_lauricella_any_parameters(self, rng):
        for _ in range(5):
            a = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
            assert check_torsion_free(reduced_residues(a)).ok

    def test_wrong_attachment_detected(self):
        # the z1 = z2 residue attached to {z1 = 0} does not kill that line
        arr = build_An(2)
        good = reduced_residues([F(1), F(2), F(3)])
        residues = dict(good.residues)
        residues["H_1_3"], residues["H_1_2"] = residues["H_1_2"], residues["H_1_3"]
        conn = StandardConnection(arr, residues)
        report = check_torsion_free(conn)
        assert not report.ok
        assert "H_1_3" in report.violators

    def test_residues_read_only(self):
        conn = reduced_residues([F(1), F(2), F(3)])
        with pytest.raises(TypeError):
            conn.residues["H_1_2"] = ExactMatrix.zeros(2, 2)

    def test_float_residue_refused(self):
        arr = build_An(1)
        with pytest.raises(InputError, match="exact"):
            StandardConnection(arr, {"H_1_2": np.array([[0.5]])})


class TestFlatness:
    def test_single_hyperplane_vacuous(self):
        arr = Arrangement(2, [Hyperplane("h", vec([1, 0]))])
        conn = StandardConnection(arr, {"h": ExactMatrix([[1, 0], [0, 0]])})
        assert check_flat(conn).ok

    def test_lauricella_flat(self, rng):
        for _ in range(5):
            a = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            assert check_flat(reduced_residues(a)).ok

    def test_perturbation_names_flat(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10), F(4, 10)])
        residues = dict(conn.residues)
        grid = [list(row) for row in residues["H_1_2"].entries]
        grid[0][2] = grid[0][2] + GaussianRational(1)
        residues["H_1_2"] = ExactMatrix(grid)
        bad = StandardConnection(conn.arrangement, residues)
        report = check_flat(bad)
        assert not report.ok
        flat, hid = report.violations[0]
        assert flat.codim == 2


class TestResiduesAndWeights:
    def test_ambient_residue_zero(self):
        conn = reduced_residues([F(1), F(2), F(3)])
        assert residue_at_flat(conn, ambient_flat(conn.arrangement)).is_zero()

    def test_braid_origin_is_scalar(self):
        a = [F(1, 10), F(2, 10), F(3, 10)]
        conn = reduced_residues(a)
        origin = flat_from_indices(conn.arrangement, [0, 1, 2])
        total = residue_at_flat(conn, origin)
        scalar = GaussianRational(sum(a))
        assert total == ExactMatrix.identity(2).scale(scalar)

    def test_reducible_flat_residue_is_pair_sum(self):
        conn = reduced_residues([F(1), F(2), F(3), F(5)])
        arr = conn.arrangement
        flat = flat_from_indices(arr, [arr.index_of("H_1_2"), arr.index_of("H_3_4")])
        expected = conn.residue("H_1_2") + conn.residue("H_3_4")
        assert residue_at_flat(conn, flat) == expected

    def test_zero_weights_verdict(self):
        arr = build_An(2)
        zero = ExactMatrix.zeros(2, 2)
        conn = StandardConnection(arr, {h.id: zero for h in arr.hyperplanes})
        report = weights(conn)
        assert not report.ok
        assert len(report.zero_flats) == len(report.table)

    def test_weight_zero_at_line(self):
        conn = reduced_residues([F(1), F(-1), F(3)])
        report = weights(conn)
        zero_ids = [
            [conn.arrangement.hyperplanes[i].id for i in f.containing]
            for f in report.zero_flats
        ]
        assert ["H_1_2"] in zero_ids

    def test_lauricella_weights_are_subset_sums(self, rng):
        from arrconn.lauricella import flat_to_partition

        a = random_params_nonzero_subsets(rng, 4)
        conn = reduced_residues(a)
        report = weights(conn)
        assert report.ok
        for flat, w in report.table.items():
            blocks = [b for b in flat_to_partition(conn.arrangement, flat) if len(b) >= 2]
            assert len(blocks) == 1
            assert w == GaussianRational(sum(a[i - 1] for i in blocks[0]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_weight_at_flat_is_trace_of_residue_sum(self, rng, n):
        arr = build_An(n)
        lauricella = reduced_residues(random_params_nonzero_subsets(rng, n + 1), arr)

        def entry():
            return GaussianRational(random_rational(rng), random_rational(rng))

        generic = StandardConnection(
            arr,
            {h.id: ExactMatrix([[entry() for _ in range(n)] for _ in range(n)]) for h in arr.hyperplanes},
        )
        for conn in (lauricella, generic):
            for flat in arr.lattice().flats:
                if not flat.codim:
                    with pytest.raises(ZeroDivisionError):
                        residue_at_flat(conn, flat).trace() / GaussianRational(flat.codim)
                    with pytest.raises(PreconditionError, match=r"^the ambient flat has no weight: its codimension is 0$"):
                        weight_at_flat(conn, flat)
                    continue
                expected = residue_at_flat(conn, flat).trace() / GaussianRational(flat.codim)
                assert weight_at_flat(conn, flat) == expected


class TestNormalData:
    def test_braid_normals(self):
        a1, a2, a3 = F(1, 10), F(2, 10), F(3, 10)
        conn = reduced_residues([a1, a2, a3])
        assert hyperplane_normal(conn, "H_1_2") == vec([a2, -a1])
        assert hyperplane_normal(conn, "H_1_3") == vec([a1 + a3, a1])

    def test_nilpotent_refused(self):
        arr = Arrangement(2, [Hyperplane("h", vec([0, 1]))])
        conn = StandardConnection(arr, {"h": ExactMatrix([[0, 1], [0, 0]])})
        with pytest.raises(NormalDataError, match="nilpotent"):
            hyperplane_normal(conn, "h")

    def test_rank_two_refused(self):
        arr = Arrangement(2, [Hyperplane("h", vec([0, 1]))])
        conn = StandardConnection(arr, {"h": ExactMatrix([[1, 0], [0, 1]])})
        with pytest.raises(NormalDataError):
            hyperplane_normal(conn, "h")

    @pytest.mark.parametrize(
        "call",
        [
            lambda conn, flat: hyperplane_normal(conn, "h"),
            lambda conn, flat: normal_data(conn),
            lambda conn, flat: euler_field(conn),
            lambda conn, flat: decomposition_at_flat(conn, flat),
            lambda conn, flat: quotient_connection(conn, flat),
        ],
        ids=["hyperplane_normal", "normal_data", "euler_field", "decomposition_at_flat", "quotient_connection"],
    )
    def test_residue_zero_on_the_first_column_is_not_zero(self, call):
        # the residue's column at the form's first nonzero coordinate is
        # zero, the residue is not
        arr = Arrangement(2, [Hyperplane("h", vec([1, 0]))])
        conn = StandardConnection(arr, {"h": ExactMatrix([[0, 1], [0, 0]])})
        flat = flat_from_indices(arr, [0])
        message = r"^residue at h: residue is not dh \(x\) n_H \(rank != 1 or kernel != H\)$"
        with pytest.raises(NormalDataError, match=message):
            call(conn, flat)
        zero = StandardConnection(arr, {"h": ExactMatrix([[0, 0], [0, 0]])})
        with pytest.raises(NormalDataError, match=r"^residue at h: residue is zero$"):
            call(zero, flat)

    def test_perp_spans(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        frame = normal_data(conn)
        origin = flat_from_indices(conn.arrangement, [0, 1, 2])
        assert len(frame.perp_basis[origin]) == 2


class TestDecomposition:
    def test_hyperplane_case(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        flat = flat_from_indices(conn.arrangement, [0])
        report = decomposition_at_flat(conn, flat)
        assert report.ok, report.items

    def test_braid_reducible_flat(self, rng):
        a = random_params_nonzero_subsets(rng, 4)
        conn = reduced_residues(a)
        arr = conn.arrangement
        flat = flat_from_indices(arr, [arr.index_of("H_1_2"), arr.index_of("H_3_4")])
        report = decomposition_at_flat(conn, flat)
        assert report.ok, report.items
        assert len(report.components) == 2

    def test_braid_origin(self):
        a = [F(1, 10), F(2, 10), F(3, 10)]
        conn = reduced_residues(a)
        origin = flat_from_indices(conn.arrangement, [0, 1, 2])
        report = decomposition_at_flat(conn, origin)
        assert report.ok
        # A_L must act as multiplication by a_0 on the 2-dim perp
        assert residue_at_flat(conn, origin) == ExactMatrix.identity(2).scale(
            GaussianRational(sum(a))
        )


class TestEulerField:
    def test_empty_arrangement(self):
        arr = Arrangement(2, [])
        conn = StandardConnection(arr, {})
        field = euler_field(conn)
        assert field.matrix == ExactMatrix.identity(2)
        assert field.verified

    def test_braid_plane(self):
        a = [F(1, 10), F(2, 10), F(3, 10)]
        conn = reduced_residues(a)
        field = euler_field(conn)
        coeff = GaussianRational(1) / GaussianRational(1 - sum(a))
        assert field.matrix == ExactMatrix.identity(2).scale(coeff)
        assert field.verified

    def test_boolean_plane(self):
        conn = boolean_connection((F(1, 3), F(2, 5)))
        field = euler_field(conn)
        expected = ExactMatrix(
            [[F(3, 2), 0], [0, F(5, 3)]]
        )  # 1/(1-1/3), 1/(1-2/5)
        assert field.matrix == expected

    def test_angle_zero_refused(self):
        conn = reduced_residues([F(1, 2), F(1, 4), F(1, 4)])  # a_0 = 1
        with pytest.raises(WeightZeroError):
            euler_field(conn)


class TestDerivedConnections:
    def test_localization(self):
        conn = reduced_residues([F(1), F(2), F(3), F(5)])
        arr = conn.arrangement
        flat = flat_from_indices(arr, [arr.index_of("H_1_2"), arr.index_of("H_1_3")])
        loc = localization_connection(conn, flat)
        assert sorted(loc.arrangement.ids()) == ["H_1_2", "H_1_3", "H_2_3"]
        assert check_flat(loc).ok and check_torsion_free(loc).ok

    def test_quotient_at_hyperplane_is_one_dim(self):
        a = [F(1, 10), F(2, 10), F(3, 10)]
        conn = reduced_residues(a)
        flat = flat_from_indices(conn.arrangement, [0])  # H_1_2
        q = quotient_connection(conn, flat)
        assert q.connection.dimension == 1
        assert q.connection.residue("H_1_2") == ExactMatrix([[a[0] + a[1]]])

    def test_quotient_at_center_is_identity_in_standard_basis(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        arr = conn.arrangement
        origin = flat_from_indices(arr, [0, 1, 2])
        std = [vec([1, 0]), vec([0, 1])]
        q = quotient_connection(conn, origin, basis=std)
        for h in arr.hyperplanes:
            assert q.connection.residue(h.id) == conn.residue(h.id)

    def test_quotient_at_the_ambient_flat_is_refused(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        message = r"^the ambient flat has no quotient connection: its codimension is 0$"
        with pytest.raises(PreconditionError, match=message):
            quotient_connection(conn, ambient_flat(conn.arrangement))

    def test_quotient_preserves_traces_and_criteria(self, rng):
        a = random_params_nonzero_subsets(rng, 4)
        conn = reduced_residues(a)
        arr = conn.arrangement
        flat = flat_from_indices(arr, [arr.index_of("H_1_2"), arr.index_of("H_1_3")])
        q = quotient_connection(conn, flat)
        for h in q.connection.arrangement.hyperplanes:
            assert q.connection.residue(h.id).trace() == conn.residue(h.id).trace()
        assert check_flat(q.connection).ok and check_torsion_free(q.connection).ok

    def test_induced_zero_residue_refused(self):
        arr = build_An(2)
        residues = dict(reduced_residues([F(1), F(2), F(3)]).residues)
        residues["H_1_2"] = ExactMatrix.zeros(2, 2)
        conn = StandardConnection(arr, residues)
        with pytest.raises(PreconditionError):
            induced_connection(conn, "H_1_2")

    def test_induced_on_a_line_is_a_point(self):
        arr = Arrangement(1, [Hyperplane("h", vec([1]))])
        conn = StandardConnection(arr, {"h": ExactMatrix([[F(1, 3)]])})
        with pytest.raises(PreconditionError, match="restriction to a point"):
            induced_connection(conn, "h")

    def test_induced_boolean(self):
        conn = boolean_connection((F(1, 3), F(2, 5)))
        ind = induced_connection(conn, "z1")
        assert ind.connection.dimension == 1
        assert ind.connection.residue("z2") == ExactMatrix([[F(2, 5)]])

    def test_induced_transversal_weight(self, rng):
        # weights at transversal traces equal the source hyperplane weight
        a = random_params_nonzero_subsets(rng, 4)
        conn = reduced_residues(a)
        ind = induced_connection(conn, "H_3_4")
        # H_1_2 meets H_3_4 transversally: induced weight = a_1 + a_2
        assert ind.connection.residue("H_1_2").trace() == GaussianRational(a[0] + a[1])

    def test_induced_weights_are_original_weights(self, rng):
        a = random_params_nonzero_subsets(rng, 4)
        conn = reduced_residues(a)
        original = {w for w in weights(conn).table.values()}
        ind = induced_connection(conn, "H_1_2")
        induced_w = set(weights(ind.connection).table.values())
        assert induced_w <= original

    def test_check_flat_localizes(self, rng):
        a = random_params_nonzero_subsets(rng, 4)
        conn = reduced_residues(a)
        arr = conn.arrangement
        for flat in arr.lattice().flats:
            if flat.codim < 2:
                continue
            loc = localization_connection(conn, flat)
            assert check_flat(loc).ok


class TestWeightConstraints:
    def test_braid_plane_both_sides_equal(self):
        a = [F(1, 10), F(2, 10), F(3, 10)]
        conn = reduced_residues(a)
        report = check_weight_constraints(conn)
        row = next(r for r in report.rows if r.h0 == "H_1_2")
        assert row.restriction_essential_irreducible
        total = GaussianRational(sum(a))
        assert row.lhs == total and row.rhs == total

    def test_braid_space_residual_zero(self, rng):
        a = random_params_nonzero_subsets(rng, 4)
        conn = reduced_residues(a)
        report = check_weight_constraints(conn)
        assert report.any_valid and report.all_zero

    def test_non_flat_input_reports_nonzero_residual(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10), F(4, 10)])
        residues = dict(conn.residues)
        residues["H_1_2"] = residues["H_1_2"].scale(GaussianRational(3))
        bad = StandardConnection(conn.arrangement, residues)
        report = check_weight_constraints(bad)
        assert any(r.residual for r in report.rows if r.restriction_essential_irreducible)

    @pytest.mark.parametrize(
        "arr",
        [
            Arrangement(2, [Hyperplane("z1", vec([1, 0])), Hyperplane("z2", vec([0, 1]))]),
            Arrangement(
                3,
                [
                    Hyperplane("z1-z2", vec([1, -1, 0])),
                    Hyperplane("z2-z3", vec([0, 1, -1])),
                    Hyperplane("z1-z3", vec([1, 0, -1])),
                ],
            ),
        ],
        ids=["reducible", "non-essential"],
    )
    def test_precondition_holds_with_cache(self, arr):
        n = arr.dimension
        conn = StandardConnection(arr, {h.id: ExactMatrix.identity(n) for h in arr.hyperplanes})
        with pytest.raises(PreconditionError):
            check_weight_constraints(conn)
        irreducible_decomposition(arr)
        arr.essential_irreducible_restrictions
        with pytest.raises(PreconditionError):
            check_weight_constraints(conn)

    def test_restriction_verdicts_built_once(self, monkeypatch):
        import arrconn.arrangement as arrmod

        calls = []
        original = arrmod._matroid_components

        def counting(re, im):
            calls.append(len(re))
            return original(re, im)

        # one matroid per restriction, and one for the arrangement's own essential_irreducible
        monkeypatch.setattr(arrmod, "_matroid_components", counting)
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10), F(4, 10), F(5, 10)])
        check_weight_constraints(conn)
        assert len(calls) == len(conn.arrangement) + 1 == 11
        check_weight_constraints(conn)
        assert len(calls) == 11


class TestNonResonance:
    def test_rank_one_criterion_matches_weight(self, rng):
        for _ in range(20):
            a = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3)]
            conn = reduced_residues(a)
            report = non_resonance_report(conn)
            for h in conn.arrangement.hyperplanes:
                w = conn.residue(h.id).trace()
                expected = not (w.is_integer() and w)
                assert report[h.id] == expected, (h.id, w)

    def test_integer_difference_detected(self):
        import numpy as np

        assert not non_resonant(np.diag([0.0, 2.0]))
        assert non_resonant(np.diag([0.25, 0.75]))


class TestJsonRoundTrip:
    def test_exact_round_trip(self, rng):
        a = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        conn = reduced_residues(a)
        again = connection_from_json(connection_to_json(conn))
        for h in conn.arrangement.hyperplanes:
            assert again.residue(h.id) == conn.residue(h.id)
