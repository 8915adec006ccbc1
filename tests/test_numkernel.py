import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrconn.numkernel import (
    ExactMatrix,
    GaussianRational,
    HermForm,
    PoleProximityError,
    hermitian_signature,
    matrix_exp,
    chain_layout,
    chain_product,
    ode_transport,
    parse_fraction,
    rank_kernel,
    row_echelon,
    solve_exact,
    vec,
)

from conftest import commutator, random_rational, scalar_lanes


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

    def test_holonomy_run_never_imports_scipy(self, tmp_path):
        # the README's holonomy example, from writing the file to the report
        import arrconn

        src = os.path.dirname(os.path.dirname(os.path.abspath(arrconn.__file__)))
        path = str(tmp_path / "conn.json")
        code = (
            "import sys\n"
            "from arrconn.cli import main\n"
            f"assert main(['lauricella', '--n', '2', '--a', '1/10,2/10,3/10', '--out', {path!r}]) == 0\n"
            f"assert main(['holonomy', {path!r}, '--json', '--tol', '1e-8']) == 0\n"
            "print('scipy' in sys.modules, file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert '"invariant_form_dim": 1' in out.stdout
        assert out.stderr.strip() == "False"

    def test_inverse_product(self, rng):
        np_rng = np.random.default_rng(11)
        for _ in range(10):
            n = rng.randint(1, 5)
            a = np_rng.standard_normal((n, n)) + 1j * np_rng.standard_normal((n, n))
            a *= 10.0 / max(np.linalg.norm(a), 1.0)
            prod = matrix_exp(a) @ matrix_exp(-a)
            assert np.linalg.norm(prod - np.eye(n)) < 1e-10


class TestOdeTransport:
    # two poles, one inside the unit circle: around the whole circle the
    # transport is exp(2 pi i a_1) exactly
    A, POLES = [0.3, -0.7], [0.5, 1.8 + 0.4j]

    def test_zero_rhs(self):
        # no residue: every step sum is the identity, exactly
        _, plan, _ = scalar_lanes([0.0], [0.5], [2 * np.pi, -1.0])
        factors = (np.zeros((2, 0), dtype=complex), np.zeros((0, 2), dtype=complex), np.zeros(0, dtype=int))
        x1, err = ode_transport(lambda ts: np.zeros(ts.shape + (2, 2), dtype=complex), plan, factors, 1e-10)
        assert np.array_equal(x1, np.broadcast_to(np.eye(2), (2, 2, 2)))
        assert (err <= 1e-13).all()  # rounding terms only

    def test_scalar_circle(self):
        # (1/4) dtau/tau around the unit circle
        x1, err = ode_transport(*scalar_lanes([0.25], [0.0], [2 * np.pi]), tol=1e-10)
        assert abs(x1[0, 0, 0] - 1j) <= err[0] <= 1e-12

    def test_transport_then_reverse(self):
        x1, err = ode_transport(*scalar_lanes(self.A, self.POLES, [2 * np.pi, -2 * np.pi]), tol=1e-10)
        exact = np.exp(0.6j * np.pi)
        assert abs(x1[0, 0, 0] - exact) <= err[0] and abs(x1[1, 0, 0] - 1 / exact) <= err[1]
        assert abs(x1[1, 0, 0] * x1[0, 0, 0] - 1) <= err[0] + err[1] * (1 + err[0])

    def test_pole_abort(self):
        # the unit circle runs into the pole at -1, so its steps stop making progress
        with pytest.raises(PoleProximityError, match="too close"):
            ode_transport(*scalar_lanes([0.25], [-1.0], [2 * np.pi]), tol=1e-10)

    def test_pole_abort_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleProximityError):
                ode_transport(*scalar_lanes([0.25], [-1.0], [2 * np.pi]), tol=1e-10)

    def test_error_estimate_scales(self):
        # a tighter tolerance gives a smaller bound, and both bounds cover
        # the true error
        lanes = scalar_lanes(self.A, self.POLES, [2 * np.pi])
        bounds = []
        for tol in (1e-6, 1e-12):
            x1, err = ode_transport(*lanes, tol=tol)
            assert abs(x1[0, 0, 0] - np.exp(0.6j * np.pi)) <= err[0]
            bounds.append(err[0])
        assert bounds[1] < bounds[0]

    def test_lanes_match_single_runs(self):
        # each lane of a stack gives what it gives alone: it takes the same
        # steps, and each step stops on its own bound
        a, poles = self.A + [1.1j], self.POLES + [-0.2 - 1.1j]
        sweeps = [2 * np.pi, -np.pi, 0.3, 4 * np.pi]
        x1, errs = ode_transport(*scalar_lanes(a, poles, sweeps), tol=1e-9)
        assert x1.shape == (4, 1, 1) and errs.shape == (4,)
        for lane, sweep in enumerate(sweeps):
            alone, err = ode_transport(*scalar_lanes(a, poles, [sweep]), tol=1e-9)
            assert abs(x1[lane, 0, 0] - alone[0, 0, 0]) <= 1e-13 * abs(alone[0, 0, 0])
            assert abs(errs[lane] - err[0]) <= 1e-9 * err[0]

    def test_finished_lanes_leave_without_moving_the_others(self):
        # lanes of no step, one step, and many (three turns past a pole
        # 0.05 off the circle): the rhs rows after a lane's last start are
        # padding, and every lane gives what it gives alone
        a, poles = [0.3, 0.45], [0.5, -1.05]
        sweeps = [0.0, 0.01, 2 * np.pi, 0.0, 6 * np.pi]
        rhs, *data = scalar_lanes(a, poles, sweeps)
        seen = []
        x1, errs = ode_transport(lambda ts: seen.append(ts.copy()) or rhs(ts), *data, tol=1e-9)
        (ts,) = seen
        counts = (ts < 1.0).sum(axis=1)
        assert counts[0] == counts[3] == 0 and counts[1] == 1 and 10 < counts[2] < counts[4]
        assert (np.diff(ts, axis=1) >= 0).all()
        assert all((row[count:] == 1.0).all() for row, count in zip(ts, counts))
        for lane in (0, 3):
            assert x1[lane, 0, 0] == 1.0 and errs[lane] == 0.0
        for lane, sweep in enumerate(sweeps):
            alone, err = ode_transport(*scalar_lanes(a, poles, [sweep]), tol=1e-9)
            assert abs(x1[lane, 0, 0] - alone[0, 0, 0]) <= 1e-13 * abs(alone[0, 0, 0])
            assert abs(errs[lane] - err[0]) <= 1e-9 * err[0]

    def test_one_lane_into_a_pole_aborts_the_stack_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleProximityError):
                ode_transport(*scalar_lanes([0.25], [-1.0], [np.pi / 2, 2 * np.pi]), tol=1e-10)

    def test_overflow_is_not_read_as_a_disagreement(self):
        # at a = 1e200 the gap between rhs and the lanes' data is finite but
        # its norm overflows; the non-finite result is left to the caller
        x1, err = ode_transport(*scalar_lanes([1e200], [0.0], [2 * np.pi]), tol=1e-9)
        assert not np.isfinite(err).any()

    def test_rhs_that_disagrees_with_the_lanes_is_refused(self):
        rhs, *data = scalar_lanes(self.A, self.POLES, [2 * np.pi])
        with pytest.raises(ValueError, match="disagrees"):
            ode_transport(lambda ts: 2 * rhs(ts), *data, tol=1e-9)


def depth_sorted_chain_product(mats, errs, chain, depth, count):
    """``chain_product`` as first written: the factors sorted by depth, and
    each depth's chains gathered from and scattered back to the products."""
    eps = np.finfo(float).eps
    order = np.argsort(depth, kind="stable")
    mats, chain = np.ascontiguousarray(mats[order]), chain[order]
    n = mats.shape[1]
    bounds = np.searchsorted(depth[order], np.arange(depth.max(initial=-1) + 2))
    spans = list(zip(bounds[:-1], bounds[1:]))
    eye = np.eye(n, dtype=complex)
    out = np.broadcast_to(eye, (count, n, n)).copy()
    prefix = np.empty_like(mats)
    for lo, hi in spans:
        prefix[lo:hi] = out[chain[lo:hi]]
        out[chain[lo:hi]] = mats[lo:hi] @ prefix[lo:hi]
    suffix = np.broadcast_to(eye, (count, n, n)).copy()
    after = np.empty_like(mats)
    for lo, hi in reversed(spans):
        after[lo:hi] = suffix[chain[lo:hi]]
        suffix[chain[lo:hi]] = after[lo:hi] @ mats[lo:hi]
    p_norm, a_norm, s_norm = (norm2_bound(x) for x in (prefix, after, mats))
    step_err = errs[order] + n * np.sqrt(n) * eps * s_norm
    err, running = np.zeros(count), np.zeros(count)
    for lo, hi in spans:
        at = chain[lo:hi]
        term = step_err[lo:hi] * (p_norm[lo:hi] + running[at])
        err[at] += a_norm[lo:hi] * term
        running[at] = s_norm[lo:hi] * running[at] + term
    return out, err


def norm2_bound(x):
    gram = np.abs(np.conj(x.transpose(0, 2, 1)) @ x)
    return np.sqrt(gram.sum(axis=2).max(axis=1))


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestChainProduct:
    def test_bound_covers_perturbed_factors(self):
        # chains of 3, 1 and 5 factors, each factor perturbed by a known
        # Frobenius norm; the factors are given out of depth order
        rng = np.random.default_rng(5)
        chain = np.array([2, 0, 2, 1, 0, 2, 2, 0, 2])
        depth = np.array([0, 0, 1, 0, 1, 2, 3, 2, 4])
        exact = np.eye(3) + 0.6 * (rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3)))
        noise = rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3))
        errs = 10.0 ** rng.uniform(-9, -6, 9)
        noisy = exact + noise * (errs / np.linalg.norm(noise, axis=(1, 2)))[:, None, None]
        products, bounds = chain_product(noisy, errs, chain, depth, 4)
        assert np.array_equal(products[3], np.eye(3)) and bounds[3] == 0.0
        for k in range(3):
            want = np.eye(3)
            for i in sorted(np.flatnonzero(chain == k), key=lambda i: depth[i]):
                want = exact[i] @ want
            assert np.linalg.norm(products[k] - want) <= bounds[k] <= 1e-4 * np.linalg.norm(want)

    @settings(max_examples=60)
    @given(
        st.integers(1, 4),
        st.lists(st.integers(0, 6), min_size=1, max_size=7),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_depth_sorted_products(self, n, lengths, seed):
        # unequal and tied lengths, unused chains (length 0), one-factor
        # chains, and the factors given in a shuffled order
        rng = np.random.default_rng(seed)
        chain = np.repeat(np.arange(len(lengths)), lengths)
        depth = np.concatenate([np.arange(k) for k in lengths]).astype(int)
        shuffle = rng.permutation(len(chain))
        chain, depth = chain[shuffle], depth[shuffle]
        mats = np.eye(n) + 0.7 * (rng.standard_normal((len(chain), n, n)) + 1j * rng.standard_normal((len(chain), n, n)))
        errs = 10.0 ** rng.uniform(-12, -6, len(chain))
        want = depth_sorted_chain_product(mats, errs, chain, depth, len(lengths))
        for layout in (None, chain_layout(chain, depth, len(lengths))):
            got = chain_product(mats, errs, chain, depth, len(lengths), layout)
            assert all(same_bits(x, y) for x, y in zip(got, want))
        unused = np.flatnonzero(np.array(lengths) == 0)
        assert (want[0][unused] == np.eye(n)).all() and (want[1][unused] == 0).all()

    def test_plan_layout_matches_depth_sorted_products(self):
        # the layout a step plan keeps, over lanes of no step, one step and
        # many, on the plan's own step order
        rng = np.random.default_rng(11)
        _, plan, _ = scalar_lanes([0.3, 0.45], [0.5, -1.05], [0.0, 0.01, 2 * np.pi, 0.0, 6 * np.pi, 2 * np.pi])
        steps, lanes = len(plan.lane), len(plan.ts)
        assert not plan.layout.order.flags.writeable and not plan.layout.slot.flags.writeable
        mats = np.eye(2) + 0.3 * (rng.standard_normal((steps, 2, 2)) + 1j * rng.standard_normal((steps, 2, 2)))
        errs = 10.0 ** rng.uniform(-12, -6, steps)
        want = depth_sorted_chain_product(mats, errs, plan.lane, plan.depth, lanes)
        got = chain_product(mats, errs, plan.lane, plan.depth, lanes, plan.layout)
        assert all(same_bits(x, y) for x, y in zip(got, want))
        order, spans, slot = chain_layout(plan.lane, plan.depth, lanes)
        assert (plan.layout.order == order).all() and plan.layout.spans == spans and (plan.layout.slot == slot).all()
