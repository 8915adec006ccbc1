"""The integer view of a connection and the flatness check built on it.

``fraction_check_flat`` is the Fraction commutator loop that decided
flatness before the integer view existed; it stays here as the oracle.
"""

from fractions import Fraction
from functools import cache, cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arrconn.arrangement import Arrangement, Hyperplane, pair_of_id
from arrconn.connection import (
    FlatnessReport,
    StandardConnection,
    WeightConstraintRow,
    check_flat,
    check_weight_constraints,
    residue_at_flat,
    weight_at_flat,
    weights,
)
from arrconn.lauricella import build_An, recover_parameters, reduced_residues
from arrconn.numkernel import GR_ZERO, ExactMatrix, GaussianRational
from conftest import commutator, random_params_nonzero_subsets, random_rational
from test_arrangement import small_arrangements

F = Fraction

# numerators and denominators past 2**63, so no fixed-width integer could hold them
_BIG = (F(2**64 + 1, 3**41), F(-(3**43), 2**65 + 3))
_SMALL = (0, 0, 0, 1, -1, F(1, 2), F(-2, 3), F(5, 7))
_PARAMS = (0, 1, -1, F(1, 2), F(-2, 3), F(5, 7), F(3, 11), F(-1, 13))

_braid = cache(build_An)  # one arrangement, and one lattice, per n across examples


def fraction_check_flat(conn, cap=None) -> FlatnessReport:
    """[A_L, A_H] = 0 by Fraction commutators, one (L, H) pair at a time."""
    arr = conn.arrangement
    violations = []
    for flat in arr.lattice(cap=cap).of_codim(2):
        a_l = residue_at_flat(conn, flat)
        for i in flat.containing:
            hid = arr.hyperplanes[i].id
            if not commutator(a_l, conn.residue(hid)).is_zero():
                violations.append((flat, hid))
    return FlatnessReport(not violations, tuple(violations))


def _gauss(parts):
    return st.builds(GaussianRational, st.sampled_from(parts), st.sampled_from(parts))


def _matrix(draw, n, entry):
    return ExactMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@st.composite
def qi_connections(draw):
    """Random Q(i) residues on small non-generic arrangements: zero, random
    complex, real or purely imaginary (a real residue against an imaginary
    one has a purely imaginary commutator), or a multiple of one shared
    matrix (so some flats commute and some do not)."""
    arr = draw(small_arrangements())
    n = arr.dimension
    parts = _SMALL + _BIG if draw(st.booleans()) else _SMALL
    entry = _gauss(parts)
    shared = _matrix(draw, n, entry)
    residues = {}
    for h in arr.hyperplanes:
        kind = draw(st.sampled_from(("zero", "random", "real", "imaginary", "shared")))
        if kind == "zero":
            residues[h.id] = ExactMatrix.zeros(n, n)
        elif kind == "random":
            residues[h.id] = _matrix(draw, n, entry)
        elif kind == "real":
            residues[h.id] = _matrix(draw, n, st.builds(GaussianRational, st.sampled_from(parts)))
        elif kind == "imaginary":
            residues[h.id] = _matrix(draw, n, st.builds(GaussianRational, st.just(0), st.sampled_from(parts)))
        else:
            residues[h.id] = shared.scale(draw(entry))
    return StandardConnection(arr, residues)


@st.composite
def lauricella_connections(draw):
    """Lauricella residues on A_2-A_5 with complex parameters of mixed
    denominators (flat), optionally with one residue scaled by 2."""
    n = draw(st.integers(2, 5))
    parts = _PARAMS + _BIG if draw(st.booleans()) else _PARAMS
    params = draw(st.lists(_gauss(parts), min_size=n + 1, max_size=n + 1))
    conn = reduced_residues(params, arrangement=_braid(n))
    arr = conn.arrangement
    k = draw(st.none() | st.integers(0, len(arr) - 1))
    if k is None:
        return conn
    bad = arr.hyperplanes[k].id
    return StandardConnection(
        arr, {hid: m.scale(2) if hid == bad else m for hid, m in conn.residues.items()}
    )


class TestFlatnessOracle:
    @given(qi_connections())
    def test_random_qi_residues(self, conn):
        assert check_flat(conn) == fraction_check_flat(conn)

    @settings(max_examples=40)
    @given(lauricella_connections())
    def test_lauricella(self, conn):
        assert check_flat(conn) == fraction_check_flat(conn)

    def test_big_entries(self):
        a = [F(2**64 + 1, 3**41), F(-(3**43), 2**65 + 3), GaussianRational(F(1, 7), F(2**70, 5**29)), F(2, 9)]
        conn = reduced_residues(a, arrangement=_braid(3))
        view = conn.integer
        assert view.denominator > 2**63
        assert max(abs(x) for x in view.re.ravel()) > 2**63
        assert check_flat(conn) == fraction_check_flat(conn)
        assert check_flat(conn).ok
        arr = conn.arrangement
        bad = arr.hyperplanes[2].id
        scaled = StandardConnection(
            arr, {hid: m.scale(2) if hid == bad else m for hid, m in conn.residues.items()}
        )
        report = check_flat(scaled)
        assert report == fraction_check_flat(scaled)
        assert not report.ok

    @pytest.mark.parametrize(
        "arr",
        [
            Arrangement(1, [Hyperplane("h0", (GaussianRational(2),))]),
            Arrangement(3, [Hyperplane("h0", (GaussianRational(1), GaussianRational(0, 1), GR_ZERO))]),
            Arrangement(2, []),
        ],
        ids=["dimension-1", "one-hyperplane", "empty"],
    )
    def test_no_codim_two_flats(self, arr):
        n = arr.dimension
        entry = GaussianRational(F(1, 3), F(-2, 5))
        conn = StandardConnection(
            arr, {h.id: ExactMatrix([[entry] * n for _ in range(n)]) for h in arr.hyperplanes}
        )
        assert not arr.lattice().of_codim(2)
        assert check_flat(conn) == fraction_check_flat(conn) == FlatnessReport(True, ())


def _generic(rng, arr):
    n = arr.dimension

    def entry():
        return GaussianRational(random_rational(rng), random_rational(rng))

    return StandardConnection(
        arr,
        {h.id: ExactMatrix([[entry() for _ in range(n)] for _ in range(n)]) for h in arr.hyperplanes},
    )


def _rows_from_matrix_traces(conn):
    """Weight-constraint rows computed from ExactMatrix traces."""
    arr = conn.arrangement
    n = arr.dimension
    lhs = sum((conn.residue(h.id).trace() for h in arr.hyperplanes), GR_ZERO) / GaussianRational(n)
    rows = []
    for i0, h0 in enumerate(arr.hyperplanes):
        if i0 not in arr.essential_irreducible_restrictions:
            rows.append(WeightConstraintRow(h0.id, lhs, GR_ZERO, GR_ZERO, False))
            continue
        total = GR_ZERO
        for flat in arr.lattice().of_codim(2):
            if i0 not in flat.containing:
                continue
            if len(flat.containing) == 2:
                other = next(i for i in flat.containing if i != i0)
                total = total + conn.residue(arr.hyperplanes[other].id).trace()
            else:
                total = total + residue_at_flat(conn, flat).trace() / GaussianRational(2)
        rhs = total / GaussianRational(n - 1)
        rows.append(WeightConstraintRow(h0.id, lhs, rhs, lhs - rhs, True))
    return tuple(rows)


class TestIntegerView:
    def test_built_once_per_connection(self, monkeypatch):
        built = []
        original = StandardConnection.__dict__["integer"].func

        def counting(conn):
            built.append(conn)
            return original(conn)

        prop = cached_property(counting)
        prop.__set_name__(StandardConnection, "integer")
        monkeypatch.setattr(StandardConnection, "integer", prop)
        conn = reduced_residues([F(1, 7), F(2, 9), F(-3, 11), F(4, 13)], arrangement=_braid(3))
        check_flat(conn)
        weights(conn)
        check_weight_constraints(conn)
        recover_parameters(conn)
        weight_at_flat(conn, conn.arrangement.lattice().flats[-1])
        assert built == [conn]
        other = StandardConnection(conn.arrangement, dict(conn.residues))
        check_flat(other)
        assert built == [conn, other]

    def test_arrays_read_only(self):
        view = reduced_residues([F(1, 3), F(1, 5), F(1, 7)]).integer
        for array in (view.re, view.im):
            with pytest.raises(ValueError):
                array[0, 0, 0] = 1

    def test_matches_numeric(self, rng):
        for conn in (reduced_residues([F(1, 3), F(-2, 5), F(3, 7), F(1, 11)]), _generic(rng, build_An(3))):
            view = conn.integer
            d = view.denominator
            as_complex = np.array(
                [
                    complex(float(F(r, d)), float(F(i, d)))
                    for r, i in zip(view.re.ravel(), view.im.ravel())
                ]
            ).reshape(conn.numeric[1].shape)
            np.testing.assert_array_equal(as_complex, conn.numeric[1])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_traces_match_residue_traces(self, rng, n):
        arr = _braid(n)
        lauricella = reduced_residues(random_params_nonzero_subsets(rng, n + 1), arr)
        bad = arr.hyperplanes[-1].id
        scaled = StandardConnection(
            arr, {hid: m.scale(2) if hid == bad else m for hid, m in lauricella.residues.items()}
        )
        for conn in (lauricella, scaled, _generic(rng, arr)):
            for flat in arr.lattice().flats[1:]:
                expected = residue_at_flat(conn, flat).trace() / GaussianRational(flat.codim)
                assert weight_at_flat(conn, flat) == expected
            assert recover_parameters(conn, verify_input=False).traces == {
                pair_of_id(h.id): conn.residue(h.id).trace() for h in arr.hyperplanes
            }
            rows = check_weight_constraints(conn).rows
            assert rows == _rows_from_matrix_traces(conn)
            assert repr(rows) == repr(_rows_from_matrix_traces(conn))
