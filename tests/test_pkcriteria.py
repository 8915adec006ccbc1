import math
from fractions import Fraction

import pytest

from arrconn.errors import InputError, PreconditionError
from arrconn.lauricella import reduced_residues
from arrconn.pkcriteria import (
    alpha0_from_angles,
    frac,
    fs_volumes,
    local_integrability,
    pk_exists,
    region_geometry,
    signature_formula,
    subset_diagnostics,
)

F = Fraction


def sample_yes_instance(rng, n):
    """Angles satisfying all three conditions, drawn from both definite
    regions and integer translates."""
    if rng.random() < 0.5:
        # near the top corner of the unit cube
        eps = [F(rng.randint(1, 99), 100 * 2 * (n + 1)) for _ in range(n + 1)]
        return tuple(1 - e for e in eps)
    # small fractional parts over integer offsets, at most one zero offset
    base = [rng.randint(1, 2) for _ in range(n + 1)]
    base[rng.randrange(n + 1)] = rng.choice([0, 1, 2])
    fracs = [F(rng.randint(1, 50), 100 * (n + 2)) for _ in range(n + 1)]
    return tuple(b + f for b, f in zip(base, fracs))


class TestFrac:
    def test_values(self):
        assert frac(0.3) == pytest.approx(0.3)
        assert frac(-0.7) == pytest.approx(0.3)
        assert frac(2) == 0
        assert frac(F(-7, 10)) == F(3, 10)


class TestPkExists:
    def test_yes_instance(self):
        report = pk_exists((F(9, 10), F(9, 10), F(9, 10)))
        assert report.verdict and report.failed_condition is None
        assert report.cone_angles[(1, 2)] == F(4, 5)

    def test_signature_failure(self):
        report = pk_exists((F(6, 10), F(6, 10), F(6, 10)))
        assert not report.verdict
        assert report.failed_condition == "signature"

    def test_integer_angle_failure(self):
        report = pk_exists((F(1), F(1, 2), F(7, 10)))
        assert not report.verdict
        assert report.failed_condition == "non-integer"
        assert report.witness == (1,)

    def test_positivity_failure_order(self):
        # all angles non-integer, but the first pair sums below 1
        report = pk_exists((F(1, 10), F(1, 10), F(19, 10)))
        assert report.failed_condition == "positivity"
        assert report.witness == (1, 2)

    def test_tolerance_ambiguity_flag(self):
        report = pk_exists((1.0 + 1e-12, 0.9, 0.9), tol=1e-9)
        assert not report.verdict
        assert report.failed_condition == "non-integer"
        assert report.ambiguous == (1,)

    def test_exact_inputs_bypass_tolerance(self):
        close = F(1) + F(1, 10**12)
        report = pk_exists((close, F(9, 10), F(9, 10)), tol=1e-9)
        assert report.failed_condition != "non-integer"
        assert not report.ambiguous


class TestAngleContract:
    """An angle or parameter vector is any iterable of length n + 1 >= 2."""

    CRITERIA = [pk_exists, subset_diagnostics, signature_formula, region_geometry, alpha0_from_angles]

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_same_answer_for_any_iterable(self, criterion):
        values = (F(9, 10), F(4, 5), F(7, 10))
        want = criterion(values)
        assert criterion(list(values)) == want
        assert criterion(x for x in values) == want

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_short_vector_is_refused(self, criterion):
        with pytest.raises(InputError, match=r"^angle vector needs length n\+1 >= 2$"):
            criterion([F(1, 2)])


class TestSubsetDiagnostics:
    def test_full_subset_row(self):
        rows = subset_diagnostics((F(9, 10), F(9, 10), F(9, 10)))
        top = next(r for r in rows if r.subset == (1, 2, 3))
        assert top.total == F(27, 10)
        assert top.positivity_ok and top.non_integer_ok

    def test_pairs_mirror_positivity(self):
        alpha = (F(9, 10), F(9, 10), F(3, 10))
        rows = subset_diagnostics(alpha)
        report = pk_exists(alpha)
        pair_ok = all(r.positivity_ok for r in rows if len(r.subset) == 2)
        assert pair_ok == (report.failed_condition != "positivity")

    def test_yes_instances_pass_all_rows(self, rng):
        for _ in range(100):
            n = rng.choice([2, 3, 4])
            alpha = sample_yes_instance(rng, n)
            assert pk_exists(alpha).verdict, alpha
            for row in subset_diagnostics(alpha):
                assert row.positivity_ok and row.non_integer_ok, (alpha, row)


class TestSignatureFormula:
    def test_small_negative_weights(self):
        result = signature_formula((F(1, 10), F(1, 10), F(1, 10)))
        assert (result.p, result.q, result.kernel_dim) == (0, 2, 0)
        assert result.region == "T-"

    def test_positive_side(self):
        result = signature_formula((F(9, 10), F(9, 10), F(9, 10)))
        assert (result.p, result.q, result.kernel_dim) == (2, 0, 0)
        assert result.region == "T+"

    def test_integer_weight_degenerate(self):
        result = signature_formula((F(1), F(3, 10), F(2, 5)))
        assert result.kernel_dim == 1
        assert result.region == "degenerate"

    def test_counts_always_consistent(self, rng):
        for _ in range(300):
            n = rng.choice([2, 3, 4])
            a = tuple(F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n + 1))
            result = signature_formula(a)
            assert result.p + result.q + result.kernel_dim == n
            assert result.p >= 0 and result.q >= 0

    def test_integer_periodicity(self, rng):
        for _ in range(100):
            n = rng.choice([2, 3])
            a = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n + 1))
            shift = tuple(rng.randint(-3, 3) for _ in range(n + 1))
            shifted = tuple(x + s for x, s in zip(a, shift))
            assert signature_formula(a) == signature_formula(shifted)

    def test_float_inputs(self):
        result = signature_formula((0.1, 0.1, 0.1))
        assert (result.p, result.q, result.kernel_dim) == (0, 2, 0)


class TestRegionGeometry:
    def test_examples(self):
        assert region_geometry((F(1, 10), F(1, 10), F(1, 10))) == "T-"
        assert region_geometry((F(9, 10), F(9, 10), F(9, 10))) == "T+"
        assert region_geometry((F(1, 2), F(1, 2), F(1, 2))) == "hole"

    def test_boundary_detection(self):
        assert region_geometry((F(1, 2), F(1, 4), F(1, 4))) == "boundary"  # s = 1
        assert region_geometry((F(0), F(1, 10), F(1, 10))) == "boundary"  # face
        assert region_geometry((0.3, 0.35, 0.35 + 1e-14)) == "boundary"

    def test_matches_signature_region(self, rng):
        for _ in range(200):
            n = rng.choice([2, 3])
            a = tuple(F(rng.randint(-20, 20), rng.randint(1, 11)) for _ in range(n + 1))
            region = region_geometry(a)
            sig = signature_formula(a)
            if region in ("T-", "T+"):
                assert sig.region == region


class TestIntegrability:
    def test_zero_weights(self):
        from arrconn.arrangement import Arrangement, Hyperplane
        from arrconn.connection import StandardConnection
        from arrconn.numkernel import ExactMatrix, vec

        arr = Arrangement(2, [Hyperplane("h", vec([1, 0]))])
        conn = StandardConnection(arr, {"h": ExactMatrix.zeros(2, 2)})
        assert local_integrability(conn).ok

    def test_braid_plane_violation_at_origin(self):
        report = local_integrability(reduced_residues([F(2, 5)] * 3))
        assert not report.ok
        assert report.witnesses[0].codim == 2  # the origin, weight 6/5

    def test_braid_plane_integrable(self):
        assert local_integrability(reduced_residues([F(1, 5)] * 3)).ok

    def test_complex_weights_refused(self):
        from arrconn.numkernel import GaussianRational

        conn = reduced_residues([GaussianRational(1, 1), GaussianRational(2), GaussianRational(3)])
        with pytest.raises(PreconditionError):
            local_integrability(conn)


class TestVolumes:
    def test_unit_angle_round_sphere(self):
        vol_fs, vol_sphere = fs_volumes(1, 2)
        assert vol_fs == math.pi
        assert vol_sphere == 2 * math.pi**2

    def test_gauss_bonnet_consistency(self):
        alpha = (F(9, 10), F(9, 10), F(9, 10))
        vol_fs, _ = fs_volumes(alpha0_from_angles(alpha), 2)
        assert abs(vol_fs - math.pi * float(sum(alpha) - 2)) < 1e-12

    def test_three_dim_value(self):
        vol_fs, _ = fs_volumes(0.5, 3)
        assert abs(vol_fs - 0.25 * math.pi**2 / 2) < 1e-15

    def test_nonpositive_angle_refused(self):
        with pytest.raises(PreconditionError, match="infinite distance"):
            fs_volumes(0, 2)

    @pytest.mark.parametrize(
        "alpha0, n",
        [(F(1, 2), 172), (F(80), 700), (F(5 * 10**30), 10), (F(350), 3000), (F(1, 10**4300), 1)],
        ids=["factorial-past-double", "pi-power-past-double", "intermediate-overflow", "large-n", "tiny-alpha0"],
    )
    def test_volumes_where_a_double_product_overflows(self, alpha0, n):
        # alpha0^k / (n-1)! exactly, then the powers of pi through their logs
        def volume(k, factor):
            ratio = alpha0**k / math.factorial(n - 1)
            return factor * math.exp(math.log(ratio.numerator) - math.log(ratio.denominator) + k * math.log(math.pi))

        vol_fs, vol_sphere = fs_volumes(alpha0, n)
        assert math.isclose(vol_fs, volume(n - 1, 1.0), rel_tol=1e-9)
        assert math.isclose(vol_sphere, volume(n, 2.0), rel_tol=1e-9)

    # alpha0^2 is past the double range; alpha0^2 is a double but vol_fs is
    # not; vol_fs is a double but vol_sphere is not
    @pytest.mark.parametrize("alpha0", [F(10**200), F(10**154), F(10**150)], ids=["power", "product", "sphere"])
    def test_volume_outside_the_double_range_refused(self, alpha0):
        with pytest.raises(InputError, match="outside the double range"):
            fs_volumes(alpha0, 3)


class TestCriteriaEquivalence:
    def test_yes_implies_definite_form(self, rng):
        for n in (2, 3, 4):
            for _ in range(1000):
                if rng.random() < 0.5:
                    alpha = sample_yes_instance(rng, n)
                else:
                    alpha = tuple(
                        F(rng.randint(-15, 25), rng.randint(1, 10)) for _ in range(n + 1)
                    )
                if not pk_exists(alpha).verdict:
                    continue
                sig = signature_formula(tuple(1 - x for x in alpha))
                assert sig.kernel_dim == 0
                assert sig.region in ("T-", "T+")

    def test_hereditary(self, rng):
        from itertools import combinations

        for _ in range(50):
            n = rng.choice([2, 3, 4])
            alpha = sample_yes_instance(rng, n)
            assert pk_exists(alpha).verdict
            for size in range(2, n + 1):
                for subset in combinations(range(n + 1), size):
                    sub = tuple(alpha[i] for i in subset)
                    assert pk_exists(sub).verdict, (alpha, subset)
