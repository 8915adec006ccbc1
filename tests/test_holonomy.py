import dataclasses
import gc
import importlib
import warnings
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrconn.arrangement import Arrangement, Hyperplane, flat_from_indices
from arrconn.connection import StandardConnection
from arrconn.errors import ArrConnError, InputError, PreconditionError
from arrconn.holonomy import (
    Arc,
    central_loop_spectrum_check,
    connection_form,
    generator_loops,
    holonomy,
    invariant_forms,
    irreducibility,
    holonomy_report,
    make_loop,
    residue_limit_check,
    transport_pieces,
)
from arrconn.lauricella import build_An, reduced_residues
from arrconn.numkernel import (
    ExactMatrix,
    PoleProximityError,
    chain_product,
    hermitian_signature,
    ode_transport,
    rank_kernel,
    vec,
)

F = Fraction


def one_dim(a):
    arr = Arrangement(1, [Hyperplane("H", vec([1]))])
    return StandardConnection(arr, {"H": ExactMatrix([[a]])})


def reverse_loop(loop):
    pieces = []
    for piece in reversed(loop.pieces):
        pieces.append(
            Arc(piece.center, piece.offset * np.exp(1j * piece.sweep), -piece.sweep)
        )
    return make_loop_from(loop, pieces)


def make_loop_from(loop, pieces):
    from arrconn.holonomy import LoopPath

    return LoopPath(tuple(pieces), pieces[0].first, loop.clearance)


class TestConnectionForm:
    def test_zero_direction(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        out = connection_form(conn, [1.0, 2.0], [0.0, 0.0])
        assert np.allclose(out, 0)

    def test_one_dim_value(self):
        conn = one_dim(F(1, 4))
        out = connection_form(conn, [2.0], [1.0])
        assert abs(out[0, 0] - 0.125) < 1e-15

    def test_braid_plane_entry(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        out = connection_form(conn, [1.0, 2.0], [1.0, 0.0])
        # (1,1) entry: 0.4/1 from z1, 0 from z2, 0.2/(1-2) * 1 from z1-z2
        assert abs(out[0, 0] - 0.2) < 1e-14

    def test_pole_named(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        with pytest.raises(PoleProximityError, match="H_1_2"):
            connection_form(conn, [1.0, 1.0], [1.0, 0.0])

    def test_stack_matches_points(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        rng = np.random.default_rng(3)
        z, v = rng.standard_normal((2, 5, 2)) + 1j * rng.standard_normal((2, 5, 2))
        out = connection_form(conn, z, v)
        assert out.shape == (5, 2, 2)
        # a BLAS matrix product may round differently from the vector one
        for k in range(5):
            assert np.allclose(out[k], connection_form(conn, z[k], v[k]), rtol=1e-14, atol=1e-15)

    def test_pole_in_stack_named(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        z = np.array([[1.0, 2.0], [0.0, 3.0], [2.0, 1.0]])  # the second lies on H_1_3: z1 = 0
        with pytest.raises(PoleProximityError, match="H_1_3"):
            connection_form(conn, z, np.ones((3, 2)))


class TestGeneratorLoops:
    def test_single_hyperplane(self):
        arr = Arrangement(1, [Hyperplane("H", vec([1]))])
        gen = generator_loops(arr, seed=0)
        assert len(gen.meridians) == 1
        assert gen.meridians[0].loop.clearance > 0

    def test_braid_plane(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        gen = generator_loops(conn.arrangement, seed=0)
        assert len(gen.meridians) == 3
        assert gen.central.clearance > 0

    def test_deterministic(self):
        arr = reduced_residues([F(1), F(2), F(3)]).arrangement
        g1 = generator_loops(arr, seed=5)
        g2 = generator_loops(arr, seed=5)
        assert np.array_equal(g1.basepoint, g2.basepoint)

    def test_degenerate_basepoint_refused(self, monkeypatch):
        import arrconn.holonomy as hol

        # 1e-9 off H_1_2 (z_1 = z_2) on every draw
        point = np.array([0.3 + 1e-9, 0.3], dtype=complex)
        monkeypatch.setattr(hol, "_draw_basepoint", lambda arr, seed: point)
        with pytest.raises(PreconditionError, match="clearance"):
            generator_loops(reduced_residues([F(1), F(2), F(3)]).arrangement)

    def test_loops_are_closed(self):
        arr = reduced_residues([F(1), F(2), F(3)]).arrangement
        gen = generator_loops(arr, seed=1)
        for m in gen.meridians:
            prev = m.loop.basepoint
            for piece in m.loop.pieces:
                assert np.linalg.norm(piece.first - prev) < 1e-12
                prev = piece.last
            assert np.linalg.norm(prev - m.loop.basepoint) < 1e-12


class TestHolonomy:
    def test_quarter_weight_circle(self):
        conn = one_dim(F(1, 4))
        loop = make_loop(
            conn.arrangement,
            np.array([1.0 + 0j]),
            (Arc(np.array([0j]), np.array([1.0 + 0j]), 2 * np.pi),),
        )
        t, err = holonomy(conn, loop, tol=1e-10)
        assert abs(t[0, 0] - 1j) < 1e-8

    def test_loop_through_hyperplane_names_it(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        p = np.array([1.0 + 0j, 1.0 + 0j])  # on H_1_2: z1 = z2
        loop = make_loop(conn.arrangement, p, (Arc(np.zeros(2, dtype=complex), p, 2 * np.pi),))
        with pytest.raises(PoleProximityError, match="H_1_2"):
            holonomy(conn, loop)

    def test_null_homotopic_loop(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        gen = generator_loops(conn.arrangement, seed=0)
        loop = gen.meridians[0].loop
        back = reverse_loop(loop)
        t1, _ = holonomy(conn, loop, tol=1e-10)
        t2, _ = holonomy(conn, back, tol=1e-10)
        assert np.linalg.norm(t2 @ t1 - np.eye(2)) < 1e-8

    def test_meridian_radii_conjugate(self):
        # meridians with different circle radii are homotopic; spectra agree
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        arr = conn.arrangement
        gen = generator_loops(arr, seed=0)
        m = gen.meridians[0]
        t1, e1 = holonomy(conn, m.loop, tol=1e-10)
        # rebuild the same meridian with a smaller circle
        w, t_star = m.direction, m.t_star
        p = gen.basepoint
        radius = m.safe_distance / 7.0
        t_approach = t_star * (1.0 - radius / abs(t_star))
        half = t_approach / 2.0
        z_star = p + t_star * w
        z_half = p + half * w
        pieces = (
            Arc(z_half, -half * w, -np.pi),
            Arc(z_star, (p + t_approach * w) - z_star, 2 * np.pi),
            Arc(z_half, half * w, np.pi),
        )
        small = make_loop(arr, p, pieces)
        t2, e2 = holonomy(conn, small, tol=1e-10)
        s1 = np.sort_complex(np.linalg.eigvals(t1))
        s2 = np.sort_complex(np.linalg.eigvals(t2))
        assert np.linalg.norm(s1 - s2) < 1e-6
        # and the transports agree to the accumulated error bound
        assert np.linalg.norm(t1 - t2) < max(10 * (e1 + e2), 1e-8)

    def test_meridian_determinants(self):
        a = [F(1, 10), F(2, 10), F(3, 10)]
        conn = reduced_residues(a)
        gen = generator_loops(conn.arrangement, seed=0)
        for m, w in zip(gen.meridians, (F(3, 10), F(2, 5), F(1, 2))):
            t, _ = holonomy(conn, m.loop, tol=1e-9)
            assert abs(np.linalg.det(t) - np.exp(2j * np.pi * float(w))) < 1e-6


class TestBatchedTransport:
    @pytest.mark.parametrize("a", [[F(1, 10), F(2, 10), F(3, 10)], [F(1, 10), F(2, 10), F(3, 10), F(1, 7)]])
    def test_report_matches_per_loop_holonomy(self, a):
        conn = reduced_residues(a)
        report = holonomy_report(conn, tol=1e-8)
        gen = generator_loops(conn.arrangement, seed=0)
        singles = [holonomy(conn, m.loop, tol=1e-8) for m in gen.meridians]
        singles.append(holonomy(conn, gen.central, tol=1e-8))
        batched = list(zip(report.matrices, report.errors)) + [(report.central_matrix, report.central_error)]
        assert len(batched) == len(singles) == len(conn.arrangement) + 1
        for (t, err), (alone, alone_err) in zip(batched, singles):
            assert np.linalg.norm(t - alone) <= 1e-12 * max(1.0, np.linalg.norm(alone))
            assert abs(err - alone_err) <= 1e-9 * alone_err

    @pytest.mark.parametrize("a", [[F(1, 10), F(2, 10), F(3, 10)], [F(1, 10), F(2, 10), F(3, 10), F(1, 7)]])
    def test_report_is_one_call_over_pieces(self, a, monkeypatch):
        # every piece of every loop is one lane of a single transport call;
        # a loop's matrix is the chain product of its piece matrices, each
        # the piece's one-lane transport, and its bound is carried through
        import arrconn.holonomy as hol

        conn = reduced_residues(a)
        calls = []

        def counting(rhs, plan, *rest):
            calls.append(len(plan.ts))
            return ode_transport(rhs, plan, *rest)

        monkeypatch.setattr(hol, "ode_transport", counting)
        report = holonomy_report(conn, tol=1e-8)
        gen = generator_loops(conn.arrangement, seed=0)
        loops = [m.loop for m in gen.meridians] + [gen.central]
        assert calls == [sum(len(loop.pieces) for loop in loops)]
        matrices = list(report.matrices) + [report.central_matrix]
        errors = list(report.errors) + [report.central_error]
        for loop, t, err in zip(loops, matrices, errors):
            alone = [transport_pieces(conn, [piece], 1e-8) for piece in loop.pieces]
            mats, errs = (np.concatenate(part) for part in zip(*alone))
            k = len(loop.pieces)
            (product,), (bound,) = chain_product(mats, errs, np.zeros(k, dtype=int), np.arange(k), 1)
            assert np.linalg.norm(t - product) <= 1e-13 * max(1.0, np.linalg.norm(product))
            assert abs(err - bound) <= 1e-9 * bound

    def test_residue_limit_radii_in_one_call(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        radii = [0.2, 0.1, 0.05]
        batched = residue_limit_check(conn, "H_1_2", radii).errors
        alone = [residue_limit_check(conn, "H_1_2", [r]).errors[0] for r in radii]
        assert np.allclose(batched, alone, rtol=1e-12, atol=0.0)

    def test_empty_list_of_loops(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        assert holonomy(conn, [], tol=1e-8) == []


class TestCentralLoops:
    def test_braid_origin_scalar(self):
        a = [F(1, 10), F(2, 10), F(3, 10)]
        conn = reduced_residues(a)
        origin = flat_from_indices(conn.arrangement, [0, 1, 2])
        report = central_loop_spectrum_check(conn, origin, tol=1e-6)
        assert report.ok, report
        expect = np.exp(2j * np.pi * 0.6)
        assert np.allclose(sorted(report.predicted, key=abs), [expect, expect])

    def test_single_hyperplane_flat(self):
        a = [F(1, 10), F(2, 10), F(3, 10)]
        conn = reduced_residues(a)
        flat = flat_from_indices(conn.arrangement, [0])
        report = central_loop_spectrum_check(conn, flat, tol=1e-6)
        assert report.ok
        assert any(abs(ev - 1) < 1e-12 for ev in report.predicted)

    def test_zero_residues_all_ones(self):
        arr = Arrangement(2, [Hyperplane("h", vec([1, 0]))])
        conn = StandardConnection(arr, {"h": ExactMatrix.zeros(2, 2)})
        flat = flat_from_indices(arr, [0])
        report = central_loop_spectrum_check(conn, flat, tol=1e-8)
        assert report.ok
        assert np.allclose(report.predicted, 1.0)

    def test_zero_residue_inside_the_flat(self):
        # the H_1_2 residue is zero, so it has no normal vector
        conn = reduced_residues([F(0), F(0), F(3, 10)])
        origin = flat_from_indices(conn.arrangement, [0, 1, 2])
        report = central_loop_spectrum_check(conn, origin, tol=1e-6)
        assert report.ok, report
        assert np.allclose(report.predicted, np.exp(2j * np.pi * 0.3))

    @pytest.mark.parametrize("indices", [[0], [0, 1]])
    def test_nilpotent_residue(self, indices):
        # the z1 residue is nilpotent: its normal vector would lie inside z1
        arr = Arrangement(
            2, [Hyperplane("z1", vec([1, 0])), Hyperplane("z2", vec([0, 1]))]
        )
        conn = StandardConnection(
            arr,
            {"z1": ExactMatrix([[0, 0], [1, 0]]), "z2": ExactMatrix([[0, 0], [0, F(1, 3)]])},
        )
        report = central_loop_spectrum_check(conn, flat_from_indices(arr, indices), tol=1e-6)
        assert report.ok, report


class TestResidueLimit:
    def test_one_dim_exact_at_all_radii(self):
        conn = one_dim(F(1, 4))
        report = residue_limit_check(conn, "H", [0.5, 0.25, 0.125])
        assert all(e < 1e-7 for e in report.errors)

    def test_boolean_product_exact(self):
        arr = Arrangement(
            2, [Hyperplane("z1", vec([1, 0])), Hyperplane("z2", vec([0, 1]))]
        )
        conn = StandardConnection(
            arr,
            {
                "z1": ExactMatrix([[F(1, 3), 0], [0, 0]]),
                "z2": ExactMatrix([[0, 0], [0, F(1, 5)]]),
            },
        )
        report = residue_limit_check(conn, "z1", [0.4, 0.2])
        assert all(e < 1e-7 for e in report.errors)

    def test_braid_plane_decreasing(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        report = residue_limit_check(conn, "H_1_2", [0.2, 0.1, 0.05])
        assert report.strictly_decreasing, report.errors


class TestOverflow:
    # a residue diag(v, 0) on z1 = 0: from v = 100 on the transport overflows
    # (a bound of inf at 100, matrices of inf or nan above)
    @pytest.mark.parametrize("v", [100, 1000, 10**200], ids=["100", "1e3", "1e200"])
    @pytest.mark.parametrize(
        "check",
        [
            lambda conn: holonomy_report(conn),
            lambda conn: central_loop_spectrum_check(conn, flat_from_indices(conn.arrangement, [0])),
            lambda conn: residue_limit_check(conn, "a", [0.5, 0.25]),
        ],
        ids=["report", "central-spectrum", "residue-limit"],
    )
    def test_non_finite_transport_is_refused(self, v, check):
        arr = Arrangement(2, [Hyperplane("a", vec([1, 0]))])
        conn = StandardConnection(arr, {"a": ExactMatrix([[v, 0], [0, 0]])})
        with pytest.raises(ArrConnError, match="transport overflowed"):
            check(conn)


class TestInvariantForms:
    def test_identity_generator_full_space(self):
        forms = invariant_forms([np.eye(2)])
        assert len(forms) == 4

    def test_distinct_unitary_diagonal(self):
        t = np.diag([np.exp(0.3j), np.exp(1.1j)])
        forms = invariant_forms([t])
        assert len(forms) == 2
        for f in forms:
            off = abs(f.matrix[0, 1])
            assert off < 1e-9

    def test_braid_plane_form_is_definite(self):
        conn = reduced_residues([F(1, 10), F(1, 10), F(1, 10)])
        rep = holonomy_report(conn, tol=1e-8)
        assert len(rep.invariant_form_basis) == 1
        sig = hermitian_signature(rep.invariant_form_basis[0], tol=1e-6)
        assert sig.as_tuple() in ((0, 2, 0), (2, 0, 0))

    def test_unitarity_transfer(self):
        conn = reduced_residues([F(1, 10), F(1, 10), F(1, 10)])
        rep = holonomy_report(conn, tol=1e-8)
        form = rep.invariant_form_basis[0].matrix
        for t in rep.matrices:
            dev = np.linalg.norm(t.conj().T @ form @ t - form)
            assert dev / np.linalg.norm(form) < 1e-7


class TestIrreducibility:
    def test_scalar_generators_reducible(self):
        verdict = irreducibility([np.eye(2) * 2.0])
        assert verdict.irreducible is False
        assert verdict.invariant_subspace.shape[1] == 1

    def test_degenerate_parameter_invariant_line(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(0)])
        rep = holonomy_report(conn, tol=1e-8)
        verdict = rep.irreducibility
        assert verdict.irreducible is False
        line = verdict.invariant_subspace
        assert line.shape[1] == 1
        direction = line[:, 0] / line[0, 0]
        assert np.allclose(direction, [1.0, 1.0], atol=1e-6)

    def test_generic_braid_plane_irreducible(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        rep = holonomy_report(conn, tol=1e-8)
        assert rep.irreducibility.irreducible is True

    def test_non_invertible_rejected(self):
        with pytest.raises(PreconditionError):
            irreducibility([np.zeros((2, 2))])

    @pytest.mark.parametrize(
        "a",
        [
            (F(1, 10), F(2, 10), F(0)),
            (F(1, 10), F(2, 10), F(3, 10), F(0)),
            (F(5, 13), F(0), F(3, 13), F(7, 13)),
        ],
        ids=["A_2-degenerate", "A_3-last-zero", "A_3-second-zero"],
    )
    def test_witness_is_proper_invariant_subspace(self, a):
        rep = holonomy_report(reduced_residues(list(a)), tol=1e-8)
        assert rep.irreducibility.irreducible is False
        self.assert_invariant_witness(
            rep.irreducibility.invariant_subspace, list(rep.matrices) + [rep.central_matrix]
        )

    def test_scalar_witness_is_proper_invariant_subspace(self):
        gens = [np.eye(3) * 2.0, np.eye(3) * 1j]
        verdict = irreducibility(gens)
        assert verdict.irreducible is False
        self.assert_invariant_witness(verdict.invariant_subspace, gens)

    @staticmethod
    def assert_invariant_witness(w, gens):
        n = w.shape[0]
        assert 0 < w.shape[1] < n
        assert np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1])) <= 1e-12
        q, _ = np.linalg.qr(w)
        outside = np.eye(n) - q @ q.conj().T
        for t in gens:
            assert np.linalg.norm(outside @ t @ q, 2) <= 1e-8


MALFORMED = {
    "mixed-sizes": [np.eye(2), np.eye(3)],
    "not-square": [np.ones((2, 3))],
    "non-finite": [np.nan * np.eye(2)],
}


class TestMalformedGenerators:
    # refused with one PreconditionError, not a raw numpy error or warning
    @pytest.mark.parametrize("analysis", [invariant_forms, irreducibility])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_refused_as_precondition(self, analysis, case):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="finite square matrices of one size"):
                analysis(MALFORMED[case])


class TestReportAssembly:
    def test_loops_selection(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        rep = holonomy_report(conn, tol=1e-8, loops="central")
        assert not rep.matrices and rep.central_matrix is not None
        rep2 = holonomy_report(conn, tol=1e-8, loops="meridians")
        assert len(rep2.matrices) == 3 and rep2.central_matrix is None

    def test_signature_only_for_one_dim_space(self):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        rep = holonomy_report(conn, tol=1e-8)
        assert rep.signature is not None
        trivial = one_dim(F(0))
        rep0 = holonomy_report(trivial, tol=1e-8)
        assert rep0.signature is not None  # 1-dim space for the 1-dim identity rep

    # below 1e-15 the A_2 report loses its invariant form (1e-16) or the
    # transport runs for minutes (1e-25)
    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.inf, np.nan, 1e-16, 1e-25])
    def test_bad_tolerance_is_input_error(self, tol):
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        with pytest.raises(InputError, match="tolerance"):
            holonomy_report(conn, tol=tol)

    @pytest.mark.parametrize("tol", [0.1, 0.5])
    def test_tolerance_of_useless_analysis_is_input_error(self, tol):
        # the analysis runs at 10 tol, where no word's unit residual can
        # exceed the threshold, so the span closure would keep no word
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        with pytest.raises(InputError, match="below 0.1"):
            holonomy_report(conn, tol=tol)

    def test_numeric_view_built_once(self, monkeypatch):
        calls = []
        original = StandardConnection.__dict__["numeric"].func

        def counting(conn):
            calls.append(conn)
            return original(conn)

        prop = cached_property(counting)
        prop.__set_name__(StandardConnection, "numeric")
        monkeypatch.setattr(StandardConnection, "numeric", prop)
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10), F(4, 10)])
        holonomy_report(conn, tol=1e-8)
        assert calls == [conn]
        assert "residues" not in conn.__dict__


def reference_holonomy(conn, loop):
    """Transport around the loop by scipy's DOP853 at tight tolerances, with
    the right-hand side built from the exact residues and forms."""
    from scipy.integrate import solve_ivp

    n = conn.dimension
    arr = conn.arrangement
    terms = [(arr.complex_forms[i], conn.residue(h.id).to_complex()) for i, h in enumerate(arr.hyperplanes)]
    x = np.eye(n, dtype=complex)
    for piece in loop.pieces:
        def f(s, y, piece=piece):
            e = np.exp(1j * piece.sweep * s)
            z = piece.center + e * piece.offset
            v = 1j * piece.sweep * e * piece.offset
            a = sum(((h @ v) / (h @ z)) * r for h, r in terms)
            return (a @ y.reshape(n, n)).ravel()

        sol = solve_ivp(f, (0.0, 1.0), x.ravel(), method="DOP853", rtol=1e-13, atol=1e-15)
        assert sol.success
        x = sol.y[:, -1].reshape(n, n)
    return x


class TestAgainstReference:
    @pytest.mark.parametrize(
        "a",
        [
            (F(1, 10), F(1, 5), F(3, 10)),
            (F(1, 7), F(2, 9), F(-3, 11), F(4, 13)),
            (F(1, 10), F(1, 5), F(3, 10), F(1, 7), F(2, 9)),
            (F(12, 13), F(0), F(12, 13)),
        ],
        ids=["A_2", "A_3", "A_4", "A_2-defect"],
    )
    def test_reported_error_bounds_true_error(self, a):
        conn = reduced_residues(list(a))
        gen = generator_loops(conn.arrangement, seed=0)
        for loop in [m.loop for m in gen.meridians] + [gen.central]:
            t, err = holonomy(conn, loop, tol=1e-8)
            assert np.linalg.norm(t - reference_holonomy(conn, loop)) <= err

    # On this reducible A_2, chaining the pieces of a loop through one
    # integration and summing its local estimates understated the true
    # H_1_3 error (1.14e-7 against 1.04e-7), which was also above the
    # nullspace threshold 10 * tol, so no invariant form was found where
    # the closed form has one of signature (1, 0, 1).
    DEFECT = (F(12, 13), F(0), F(12, 13))

    def test_defect_meridian_error_bounded(self):
        conn = reduced_residues(list(self.DEFECT))
        gen = generator_loops(conn.arrangement, seed=0)
        data = next(m for m in gen.meridians if m.hyperplane_id == "H_1_3")
        t, err = holonomy(conn, data.loop, tol=1e-8)
        assert np.linalg.norm(t - reference_holonomy(conn, data.loop)) <= err

    def test_defect_single_invariant_form(self):
        report = holonomy_report(reduced_residues(list(self.DEFECT)), tol=1e-8)
        assert len(report.invariant_form_basis) == 1
        assert report.signature.as_tuple() == (1, 0, 1)


class TestExactLowerBounds:
    """Two lower bounds on each meridian's transport error, from exact facts
    about its residue A_H: if A_H has rank one and a non-integer trace, it
    is non-resonant, T_H - I has rank one, and Weyl's inequality gives
    sigma_2(T - I) <= |T - T_H|_2; and det T_H = exp(2 pi i tr A_H), with
    |det T - det T_H| <= n e (|T|_2 + e)^(n - 1) for e >= |T - T_H|_2."""

    @settings(max_examples=15)
    @given(st.integers(2, 4).flatmap(
        lambda n: st.lists(st.fractions(-1, 1, max_denominator=13), min_size=n + 1, max_size=n + 1)
    ))
    def test_reported_errors_cover_them(self, a):
        conn = reduced_residues(a)
        report = holonomy_report(conn, tol=1e-8)
        n, d = conn.dimension, conn.integer.denominator
        traces = conn.integer.traces().tolist()
        for hid, t, err in zip(report.generator_ids, report.matrices, report.errors):
            re, im = traces[conn.arrangement.index_of(hid)]
            if rank_kernel(conn.residue(hid))[0] == 1 and (im or re % d):
                assert np.linalg.svd(t - np.eye(n), compute_uv=False)[1] <= err
            trace = complex(F(re, d), F(im, d))
            gap = abs(np.linalg.det(t) - np.exp(2j * np.pi * trace))
            assert gap <= n * err * (np.linalg.norm(t, 2) + err) ** (n - 1)


class TestTracerContract:
    def test_one_call_per_report_and_a_fixed_rhs_count(self, monkeypatch):
        # the benchmark's tracer wraps ode_transport at every module that
        # names it, and counts the calls of the callable it receives first
        import arrconn.numkernel as nk

        original = nk.ode_transport
        evals = []

        def traced(rhs, *args, **kwargs):
            evals.append(0)

            def counted(ts):
                evals[-1] += 1
                return rhs(ts)

            return original(counted, *args, **kwargs)

        for name in ("numkernel", "arrangement", "connection", "lauricella", "pkcriteria", "holonomy", "cli"):
            module = importlib.import_module(f"arrconn.{name}")
            if getattr(module, "ode_transport", None) is original:
                monkeypatch.setattr(module, "ode_transport", traced)
        conn = reduced_residues([F(1, 10), F(2, 10), F(3, 10)])
        for _ in range(2):
            holonomy_report(conn, tol=1e-8)
        assert len(evals) == 2 and evals[0] == evals[1] > 0


def leaves(x):
    """The arrays and plain values of a report, loop set or step plan, in
    field order."""
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from leaves(getattr(x, f.name))
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from leaves(y)
    elif isinstance(x, dict):
        for key in sorted(x):
            yield key
            yield from leaves(x[key])
    else:
        yield x


def bits(x):
    """Every leaf of x to the bit: arrays by dtype, shape and bytes, the
    rest by type and repr (exact for floats)."""
    return [
        (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else (type(v).__name__, repr(v))
        for v in leaves(x)
    ]


def counting(monkeypatch, module, name, calls):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(name) or real(*a))


class TestKeptLoops:
    """The generator loops and their step plans are built once per
    arrangement and seed, and kept on the arrangement."""

    A2 = [F(1, 10), F(2, 10), F(3, 10)]
    SHARED = {}  # one arrangement per n, reused by every example

    def test_report_arrays_are_read_only(self):
        conn = reduced_residues(self.A2)
        first = holonomy_report(conn, tol=1e-8)
        with pytest.raises(ValueError):
            first.basepoint[0] += 0.5
        assert bits(holonomy_report(conn, tol=1e-8)) == bits(first)
        for loops in ("meridians", "central"):
            holonomy_report(conn, tol=1e-8, loops=loops)
        gen = generator_loops(conn.arrangement, seed=0)
        assert sorted(gen.plans) == ["all", "central", "meridians"]
        arrays = [v for v in leaves(gen) if isinstance(v, np.ndarray)]
        assert len(arrays) > 40 and not any(a.flags.writeable for a in arrays)
        # each plan keeps its chain layout: the step order and the lane slots
        layouts = [a for plan in gen.plans.values() for a in (plan.layout.order, plan.layout.slot)]
        assert len(layouts) == 6 and all(any(a is b for b in arrays) for a in layouts)

    def test_second_report_builds_no_geometry(self, monkeypatch):
        import arrconn.holonomy as hol
        import arrconn.numkernel as nk

        arr = build_An(3)
        holonomy_report(reduced_residues([F(1, 10), F(2, 10), F(3, 10), F(1, 7)], arr), tol=1e-8)
        calls, evals = [], []
        for module, name in [(hol, "_draw_basepoint"), (hol, "meridian"), (hol, "loop_clearance"), (nk, "_arc_steps")]:
            counting(monkeypatch, module, name, calls)

        def traced(rhs, *args):
            calls.append("ode_transport")
            return nk.ode_transport(lambda ts: evals.append(ts.shape) or rhs(ts), *args)

        monkeypatch.setattr(hol, "ode_transport", traced)
        holonomy_report(reduced_residues([F(2, 9), F(-1, 5), F(3, 11), F(1, 4)], arr), tol=1e-8)
        assert calls == ["ode_transport"] and len(evals) == 1
        calls.clear()
        holonomy_report(reduced_residues([F(2, 9), F(-1, 5), F(3, 11), F(1, 4)], arr), tol=1e-8, seed=1)
        assert calls.count("meridian") == len(arr) and calls.count("_arc_steps") == 1
        assert calls.count("_draw_basepoint") >= 1 and calls.count("loop_clearance") > len(arr)

    def test_refusal_is_not_kept(self, monkeypatch):
        import arrconn.holonomy as hol

        arr, real = build_An(2), hol._draw_basepoint
        point = np.array([0.3 + 1e-9, 0.3], dtype=complex)  # 1e-9 off H_1_2 on every draw
        monkeypatch.setattr(hol, "_draw_basepoint", lambda arr, seed: point)
        with pytest.raises(PreconditionError, match="clearance"):
            generator_loops(arr)
        monkeypatch.setattr(hol, "_draw_basepoint", real)
        assert bits(generator_loops(arr)) == bits(generator_loops(build_An(2)))

    def test_kept_layouts_serve_only_their_plans(self):
        # reports on kept arrangements, interleaved with reports on fresh
        # ones whose arrays are freed in between, give what fresh ones give
        a = {2: self.A2, 3: [F(2, 9), F(-1, 5), F(3, 11), F(1, 4)], 4: [F(1, 7), F(2, 9), F(-1, 5), F(3, 11), F(1, 4)]}
        kept = {n: build_An(n) for n in a}
        for n in (2, 3, 4, 2, 4, 3):
            for loops in ("all", "meridians"):
                first = bits(holonomy_report(reduced_residues(a[n], kept[n]), tol=1e-8, loops=loops))
                gc.collect()
                fresh = bits(holonomy_report(reduced_residues(a[n], build_An(n)), tol=1e-8, loops=loops))
                gc.collect()
                again = bits(holonomy_report(reduced_residues(a[n], kept[n]), tol=1e-8, loops=loops))
                assert first == fresh == again

    @settings(max_examples=8)
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.lists(st.fractions(-1, 1, max_denominator=13), min_size=n + 1, max_size=n + 1)
        ),
        st.permutations([(seed, loops) for seed in (0, 1) for loops in ("all", "meridians", "central")]),
    )
    def test_kept_loops_give_what_fresh_ones_give(self, a, order):
        n = len(a) - 1
        arr = self.SHARED.setdefault(n, build_An(n))
        for seed, loops in order:
            kept = holonomy_report(reduced_residues(a, arr), tol=1e-8, loops=loops, seed=seed)
            fresh = holonomy_report(reduced_residues(a), tol=1e-8, loops=loops, seed=seed)
            assert bits(kept) == bits(fresh)
