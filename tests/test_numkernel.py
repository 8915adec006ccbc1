import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from arrconn.numkernel import (
    ExactMatrix,
    GaussianRational,
    HermForm,
    PoleProximityError,
    hermitian_signature,
    matrix_exp,
    ode_transport,
    parse_fraction,
    rank_kernel,
    row_echelon,
    solve_exact,
    vec,
)

from conftest import commutator, random_rational, transport_one


G = GaussianRational


class TestGaussianRational:
    def test_arithmetic(self):
        a = G(Fraction(1, 2), Fraction(1, 3))
        b = G(Fraction(2), Fraction(-1))
        assert a + b == G(Fraction(5, 2), Fraction(-2, 3))
        assert a * b == G(Fraction(4, 3), Fraction(1, 6))
        assert (a / b) * b == a
        assert -a + a == G(0)

    def test_parse_and_repr(self):
        assert parse_fraction("3/4") == Fraction(3, 4)
        assert parse_fraction("-2") == Fraction(-2)
        assert parse_fraction("0.25") == Fraction(1, 4)

    def test_conjugate_and_predicates(self):
        a = G(1, 2)
        assert a.conjugate() == G(1, -2)
        assert not a.is_real()
        assert G(3).is_integer()
        assert not G(Fraction(1, 2)).is_integer()
        assert complex(a) == 1 + 2j

    def test_hash_consistency(self):
        assert hash(G(Fraction(2, 4))) == hash(G(Fraction(1, 2)))
        assert len({G(1), G(1, 0), G(Fraction(2, 2))}) == 1

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            G(1) / G(0)


class TestExactLinearAlgebra:
    def test_rank_kernel_identity(self):
        rank, basis = rank_kernel(ExactMatrix.identity(2))
        assert rank == 2 and basis == []

    def test_rank_kernel_difference_form(self):
        rank, basis = rank_kernel([vec([1, -1])])
        assert rank == 1
        assert basis == [vec([1, 1])]

    def test_rank_kernel_braid_residue(self):
        # residue with parameters (1, 2): ((2, -2), (-1, 1))
        m = ExactMatrix([[2, -2], [-1, 1]])
        rank, basis = rank_kernel(m)
        assert rank == 1
        assert basis == [vec([1, 1])]

    def test_kernel_annihilated_exactly(self, rng):
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = ExactMatrix(
                [[random_rational(rng) for _ in range(cols)] for _ in range(rows)]
            )
            rank, basis = rank_kernel(m)
            assert rank + len(basis) == cols
            for v in basis:
                assert all(not e for e in m.apply(v))

    def test_solve_round_trip(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            m = ExactMatrix([[random_rational(rng) for _ in range(n)] for _ in range(n)])
            x = vec([random_rational(rng) for _ in range(n)])
            b = m.apply(x)
            sol = solve_exact(m, b)
            assert sol is not None
            assert m.apply(sol) == b

    @pytest.mark.parametrize(
        "rows, rhs",
        [([[1, 2], [2, 4]], [1, 3]), ([[0, 0], [1, 1]], [1, 2]), ([[1, 0, 1], [1, 0, 1]], [0, 1])],
    )
    def test_solve_inconsistent_is_none(self, rows, rhs):
        assert solve_exact(ExactMatrix(rows), vec(rhs)) is None

    def test_solve_singular_consistent(self):
        m = ExactMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 0]])
        b = vec([3, 6, 0])
        sol = solve_exact(m, b)
        assert sol == vec([3, 0, 0])
        assert m.apply(sol) == b

    def test_row_echelon_pivots(self):
        rref, pivots = row_echelon([vec([0, 1]), vec([0, 2])])
        assert pivots == [1]

    def test_commutator_zero_for_commuting(self):
        a = ExactMatrix([[1, 0], [0, 2]])
        b = ExactMatrix([[3, 0], [0, 4]])
        assert commutator(a, b).is_zero()


class TestHermitianSignature:
    def test_definite(self):
        sig = hermitian_signature(np.diag([1.0, 1.0]))
        assert sig.as_tuple() == (2, 0, 0)

    def test_mixed_with_kernel(self):
        sig = hermitian_signature(np.diag([1.0, -1.0, 0.0]), tol=1e-9)
        assert sig.as_tuple() == (1, 1, 1)

    def test_congruence_invariance(self, rng):
        np_rng = np.random.default_rng(7)
        for _ in range(10):
            n = rng.randint(2, 5)
            d = np_rng.standard_normal(n)
            h = np.diag(d).astype(complex)
            q, _ = np.linalg.qr(
                np_rng.standard_normal((n, n)) + 1j * np_rng.standard_normal((n, n))
            )
            before = hermitian_signature(h, tol=1e-8)
            after = hermitian_signature(q.conj().T @ h @ q, tol=1e-8)
            assert before.as_tuple() == after.as_tuple()

    def test_ambiguous_band_flagged(self):
        sig = hermitian_signature(np.diag([1.0, 5e-8]), tol=1e-8)
        assert sig.ambiguous

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermForm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_scalar_quarter_turn(self):
        out = matrix_exp(np.diag([2j * np.pi * 0.25]))
        assert abs(out[0, 0] - 1j) < 1e-14

    def test_nilpotent(self):
        out = matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_scipy_is_imported_on_first_use_only(self):
        import arrconn

        src = os.path.dirname(os.path.dirname(os.path.abspath(arrconn.__file__)))
        code = "import sys, arrconn.holonomy, arrconn.cli; print('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_inverse_product(self, rng):
        np_rng = np.random.default_rng(11)
        for _ in range(10):
            n = rng.randint(1, 5)
            a = np_rng.standard_normal((n, n)) + 1j * np_rng.standard_normal((n, n))
            a *= 10.0 / max(np.linalg.norm(a), 1.0)
            prod = matrix_exp(a) @ matrix_exp(-a)
            assert np.linalg.norm(prod - np.eye(n)) < 1e-10


class TestOdeTransport:
    def test_zero_rhs(self):
        x0 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        x1, err = transport_one(lambda ts: np.zeros((len(ts), 2, 2), dtype=complex), x0, tol=1e-10)
        assert np.array_equal(x1, x0)
        assert err == 0.0

    def test_scalar_circle(self):
        # pullback of (1/4) dz/z along the unit circle is constant pi i / 2
        rhs = lambda ts: np.full((len(ts), 1, 1), 0.5j * np.pi)
        x1, err = transport_one(rhs, np.eye(1, dtype=complex), tol=1e-10)
        assert abs(x1[0, 0] - 1j) < 1e-8

    def test_transport_then_reverse(self):
        def make(sign):
            def rhs(ts):
                z = 2.0 + np.exp(2j * np.pi * (sign * ts))
                v = sign * 2j * np.pi * np.exp(2j * np.pi * (sign * ts))
                out = np.zeros((len(ts), 2, 2), dtype=complex)
                out[:, 0, 0] = 0.3 * v / z
                out[:, 0, 1] = 0.1
                out[:, 1, 1] = -0.2 * v / z
                return out

            return rhs

        x1, e1 = transport_one(make(1.0), np.eye(2, dtype=complex), tol=1e-10)
        back = lambda ts: -make(1.0)(1.0 - ts)
        x2, e2 = transport_one(back, x1, tol=1e-10)
        assert np.linalg.norm(x2 - np.eye(2)) < 1e-8

    def test_pole_abort(self):
        # essential singularity mid-interval: the solution blows up and the
        # step size underflows
        def rhs(ts):
            return (1.0 / (ts - 0.5) ** 2).astype(complex).reshape(-1, 1, 1)

        with pytest.raises(PoleProximityError):
            transport_one(rhs, np.eye(1, dtype=complex), tol=1e-10)

    def test_pole_abort_warns_nothing(self):
        # the overflow near the blow-up is handled by shrinking the step;
        # only the abort reaches the caller
        def rhs(ts):
            return (1.0 / (ts - 0.5) ** 2).astype(complex).reshape(-1, 1, 1)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleProximityError):
                transport_one(rhs, np.eye(1, dtype=complex), tol=1e-10)

    def test_error_estimate_scales(self):
        rhs = lambda ts: np.full((len(ts), 1, 1), 2j * np.pi)
        _, loose = transport_one(rhs, np.eye(1, dtype=complex), tol=1e-6)
        _, tight = transport_one(rhs, np.eye(1, dtype=complex), tol=1e-12)
        assert tight <= loose + 1e-12

    def test_lanes_match_single_runs(self):
        # three lanes with their own systems, starting values and tolerances
        # take the steps each would take alone, and the steps of the
        # one-matrix loop the lanes replaced
        def make(c, d):
            def rhs(ts):
                z = 2.0 + np.exp(2j * np.pi * ts)
                out = np.zeros((len(ts), 2, 2), dtype=complex)
                out[:, 0, 0] = c * 2j * np.pi * np.exp(2j * np.pi * ts) / z
                out[:, 0, 1] = d
                out[:, 1, 0] = d * ts
                out[:, 1, 1] = -c / z
                return out

            return rhs

        systems = [make(0.3, 0.1), make(-1.7, 2.0), make(0.0, 0.0)]
        starts = [np.eye(2, dtype=complex), np.array([[1, 2j], [0, 1]]), np.array([[0, 1], [1, 0]], dtype=complex)]
        tols = [1e-10, 1e-6, 1e-8]
        attempts = np.zeros(3, dtype=int)

        def stacked(ts):
            assert ((0.0 <= ts) & (ts <= 1.0)).all()  # a finished lane idles at t = 1
            attempts[:] += ts[:, 0] < ts[:, -1]
            return np.stack([rhs(row) for rhs, row in zip(systems, ts)])

        x1, errs = ode_transport(stacked, np.stack(starts), tols)
        assert x1.shape == (3, 2, 2) and errs.shape == (3,)
        for lane, (rhs, x0, tol) in enumerate(zip(systems, starts, tols)):
            alone, err = transport_one(rhs, x0, tol)
            assert np.linalg.norm(x1[lane] - alone) <= 1e-13 * np.linalg.norm(alone)
            assert abs(errs[lane] - err) <= 1e-9 * err
            ref, ref_err, ref_attempts = serial_transport(rhs, x0, tol)
            assert attempts[lane] == ref_attempts
            assert np.linalg.norm(x1[lane] - ref) <= 1e-13 * np.linalg.norm(ref)
            assert abs(errs[lane] - ref_err) <= 1e-9 * ref_err

    def test_finished_lanes_leave_without_moving_the_others(self):
        # two lanes done after the same few steps, a short one and a long
        # one: each takes the steps of its one-lane run and of the
        # one-matrix loop, before and after the others finish
        def zero(ts):
            return np.zeros((len(ts), 2, 2), dtype=complex)

        def rotation(ts):
            out = np.zeros((len(ts), 2, 2), dtype=complex)
            out[:, 0, 1] = 0.5j * np.pi
            out[:, 1, 0] = 0.5j * np.pi
            return out

        def oscillator(ts):
            out = np.zeros((len(ts), 2, 2), dtype=complex)
            out[:, 0, 1] = 1.0
            out[:, 1, 0] = -(30.0 * np.pi) ** 2 * (1.0 + 0.5 * np.sin(7.0 * ts))
            return out

        systems = [oscillator, zero, rotation, zero]
        starts = [np.eye(2, dtype=complex), np.array([[1, 2j], [0, 1]]), np.eye(2, dtype=complex), 3 * np.eye(2, dtype=complex)]
        tols = [1e-10, 1e-8, 1e-9, 1e-6]

        attempts = np.zeros(4, dtype=int)

        def stacked(ts):
            attempts[:] += ts[:, 0] < ts[:, -1]
            return np.stack([rhs(row) for rhs, row in zip(systems, ts)])

        x1, errs = ode_transport(stacked, np.stack(starts), tols)
        assert attempts[1] == attempts[3] < 5 < attempts[2] and 10 * attempts[2] < attempts[0]
        for lane, (rhs, x0, tol) in enumerate(zip(systems, starts, tols)):
            alone_attempts = []

            def alone_rhs(ts, rhs=rhs):
                alone_attempts.append(ts[0] < ts[-1])
                return rhs(ts)

            alone, err = transport_one(alone_rhs, x0, tol)
            assert attempts[lane] == sum(alone_attempts)
            assert np.array_equal(x1[lane], alone) and errs[lane] == err
            ref, ref_err, ref_attempts = serial_transport(rhs, x0, tol)
            assert attempts[lane] == ref_attempts
            # the lanes take norms and step factors in another order than
            # the one-matrix loop: a few units of rounding of the solution
            # per step, in the solution and in the error sum alike
            rounding = 4 * np.finfo(float).eps * ref_attempts * np.linalg.norm(ref)
            assert np.linalg.norm(x1[lane] - ref) <= rounding
            assert abs(errs[lane] - ref_err) <= rounding

    def test_one_lane_below_min_step_aborts_the_stack_silently(self):
        def stacked(ts):
            out = np.full(ts.shape + (1, 1), 0.5j * np.pi)
            out[1, :, 0, 0] = 1.0 / (ts[1] - 0.5) ** 2
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleProximityError):
                ode_transport(stacked, np.ones((2, 1, 1), dtype=complex), 1e-10)


def serial_transport(rhs, x0, tol):
    """The one-matrix Dormand-Prince loop that the lanes of ``ode_transport``
    replaced, kept as its reference; returns (X(1), err_est, attempts)."""
    from arrconn.numkernel import MIN_STEP, _DP_A, _DP_C, _DP_E, _DP_NODE

    x = np.array(x0, dtype=complex)
    n = x.shape[0]
    t, h, err_total, attempts = 0.0, 0.05, 0.0, 0
    k = np.empty((7, n * n), dtype=complex)
    k[0] = (rhs(np.zeros(1))[0] @ x).ravel()
    while t < 1.0:
        h = min(h, 1.0 - t)
        if h < MIN_STEP:
            raise PoleProximityError("path too close to singular locus")
        attempts += 1
        a = rhs(t + h * _DP_C)
        xf = x.ravel()
        for stage in range(1, 7):
            y = xf + (h * _DP_A[stage, :stage]) @ k[:stage]
            k[stage] = (a[_DP_NODE[stage]] @ y.reshape(n, n)).ravel()
        x5 = y.reshape(n, n)
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.linalg.norm((h * _DP_E) @ k)
            scale = max(np.linalg.norm(x), np.linalg.norm(x5), 1.0)
        if not (np.isfinite(err) and np.isfinite(scale)):
            h *= 0.1
            continue
        rel = err / scale
        if rel <= tol:
            t += h
            x = x5
            k[0] = k[6]
            err_total += err
            h *= 5.0 if rel == 0.0 else min(5.0, max(0.2, 0.9 * (tol / rel) ** 0.2))
        else:
            h *= max(0.1, 0.9 * (tol / rel) ** 0.2)
    return x, err_total, attempts
