"""The stored integer form of a connection, the checks built on it, and the
``residues`` and ``numeric`` views built from it.

``fraction_check_flat`` is the Fraction commutator loop that decided
flatness before the integer view existed; it stays here as the oracle.
``test_integer_core.fraction_check_torsion_free`` is the torsion oracle.
"""

import json
import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import arrconn.arrangement as arrangement_module
import arrconn.connection as connection_module
import arrconn.lauricella as lauricella_module
from arrconn.arrangement import Arrangement, Hyperplane, pair_of_id
from arrconn.connection import (
    FlatnessReport,
    StandardConnection,
    WeightConstraintRow,
    check_flat,
    check_torsion_free,
    check_weight_constraints,
    connection_to_json,
    load_connection,
    residue_at_flat,
    weight_at_flat,
    weights,
)
from arrconn.lauricella import _lauricella_template, build_An, flat_to_partition, recover_parameters, reduced_residues
from arrconn.numkernel import GR_ZERO, ExactMatrix, GaussianRational
from conftest import commutator, jordan_pochhammer, random_params_nonzero_subsets, random_rational
from test_arrangement import small_arrangements
from test_integer_core import fraction_check_torsion_free

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


_CALLS = {
    "check_flat": check_flat,
    "weights": weights,
    "check_weight_constraints": check_weight_constraints,
    "recover_parameters": recover_parameters,
    "partitions": lambda conn: [flat_to_partition(conn.arrangement, f) for f in conn.arrangement.lattice().of_codim(2)],
}


@st.composite
def interleaved_calls(draw):
    """Parameters on A_3-A_5, optionally one residue index to double, and
    calls of the checks that read the lattice's kept data, in a drawn order."""
    n = draw(st.integers(3, 5))
    params = draw(st.lists(_gauss(_PARAMS), min_size=n + 1, max_size=n + 1))
    doubled = draw(st.none() | st.integers(0, n * (n + 1) // 2 - 1))
    return n, params, doubled, draw(st.lists(st.sampled_from(sorted(_CALLS)), min_size=1, max_size=6))


class TestKeptData:
    """What the checks read from the lattice, and the braid check, is kept on
    the lattice or the arrangement: read-only, built once, equal to a fresh build."""

    def test_read_only(self):
        lattice = build_An(3).lattice()
        rows, *arrays = _lauricella_template(3)
        for array in (lattice.codim2_incidence, lattice.irreducible_incidence, *arrays):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1
        with pytest.raises(TypeError):
            lattice.of_codim(2)[0] = lattice.flats[0]
        with pytest.raises(TypeError):
            rows[(1, 2)] = 1

    def test_second_calls_build_no_incidence(self, monkeypatch):
        built = []
        original = arrangement_module._incidence

        def counting(flats, m):
            built.append(len(flats))
            return original(flats, m)

        monkeypatch.setattr(arrangement_module, "_incidence", counting)
        arr = build_An(4)
        for a in ([F(1, 7), F(2, 9), F(-3, 11), F(4, 13), F(1, 3)], [F(1, 5)] * 5):
            conn = reduced_residues(a, arrangement=arr)
            for _ in range(2):
                check_flat(conn)
                weights(conn)
                check_weight_constraints(conn)
                recover_parameters(conn)
            assert built == [len(arr.lattice().of_codim(2)), len(arr.lattice().irreducible)]

    def test_recovery_calls_no_builder_and_no_weight_table(self, monkeypatch):
        conn = reduced_residues([F(1, 7), F(2, 9), F(-3, 11), F(4, 13), F(1, 3)], arrangement=_braid(4))
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(lauricella_module, "reduced_residues", counting("reduced_residues", reduced_residues))
        monkeypatch.setattr(connection_module, "weights", counting("weights", weights))
        made = counting("_from_numerators", StandardConnection._from_numerators)
        monkeypatch.setattr(StandardConnection, "_from_numerators", staticmethod(made))
        assert recover_parameters(conn).ok
        assert calls == []

    @settings(max_examples=40)
    @given(interleaved_calls())
    def test_shared_arrangement_matches_a_fresh_one(self, drawn):
        n, params, doubled, calls = drawn

        def connection(arr):
            conn = reduced_residues(params, arrangement=arr)
            if doubled is None:
                return conn
            bad = arr._ids[doubled]
            return StandardConnection(arr, {hid: m.scale(2) if hid == bad else m for hid, m in conn.residues.items()})

        shared = connection(_braid(n))
        for name in calls:
            assert _CALLS[name](shared) == _CALLS[name](connection(build_An(n)))
        kept, fresh = shared.arrangement.lattice(), build_An(n).lattice()
        for c in range(n + 1):
            assert kept.of_codim(c) == tuple(f for f in fresh.flats if f.codim == c)
        m = len(shared.arrangement)
        assert np.array_equal(kept.codim2_incidence, arrangement_module._incidence(fresh.of_codim(2), m))
        assert np.array_equal(kept.irreducible_incidence, arrangement_module._incidence(fresh.irreducible, m))


class TestIntegerView:
    def test_built_once_per_connection(self, monkeypatch):
        built = []
        original = StandardConnection._from_numerators

        def making(arrangement, re, im, d):
            conn = original(arrangement, re, im, d)
            built.append(conn.integer)
            return conn

        monkeypatch.setattr(StandardConnection, "_from_numerators", staticmethod(making))
        conn = reduced_residues([F(1, 7), F(2, 9), F(-3, 11), F(4, 13)], arrangement=_braid(3))
        assert built == [conn.integer]
        check_flat(conn)
        weights(conn)
        check_weight_constraints(conn)
        weight_at_flat(conn, conn.arrangement.lattice().flats[-1])
        assert built == [conn.integer]
        recover_parameters(conn)  # builds no connection
        assert len(built) == 1 and built[0] is conn.integer
        other = StandardConnection(conn.arrangement, dict(conn.residues))
        check_flat(other)
        assert len(built) == 2 and built[1] is other.integer

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

    def test_trace_numerators_are_python_ints(self):
        fits = reduced_residues([F(1, 3), F(-2, 5), F(3, 7), F(1, 11)], arrangement=_braid(3))
        past = reduced_residues([*_BIG, F(1, 7), F(2, 9)], arrangement=_braid(3))
        assert (fits.integer.re.dtype, past.integer.re.dtype) == (np.int64, object)
        for conn in (fits, past):
            values = [
                *weights(conn).table.values(),
                *(x for row in check_weight_constraints(conn).rows for x in (row.lhs, row.rhs, row.residual)),
                *recover_parameters(conn).traces.values(),
                weight_at_flat(conn, conn.arrangement.lattice().flats[-1]),
            ]
            assert all(type(x.numerator) is int for w in values for x in (w.re, w.im))


# -- the int64 bound -----------------------------------------------------------------

_EDGE = 2**62


def _bound_holds(conn) -> bool:
    """4 n m M^2 < 2^62 and 4 F max(M, 1) < 2^62, from the residues and
    forms as Fractions: M the largest |re| or |im| numerator over the
    residues' common denominator, F the largest |re| or |im| of a form
    times its own common denominator."""
    arr = conn.arrangement
    n, m = arr.dimension, len(arr)
    entries = [e for h in arr.hyperplanes for row in conn.residue(h.id).entries for e in row]
    d = math.lcm(*(x.denominator for e in entries for x in (e.re, e.im)))
    big = max((abs(x * d) for e in entries for x in (e.re, e.im)), default=0)
    form_big = max((abs(x) for h in arr.hyperplanes for c in _form_numerators(h) for x in (c.re, c.im)), default=0)
    return 4 * n * m * big**2 < _EDGE and 4 * form_big * max(big, 1) < _EDGE


def _form_numerators(h) -> list:
    """The form of h times the lcm of its entries' denominators."""
    mu = math.lcm(*(x.denominator for c in h.form for x in (c.re, c.im)))
    return [c * GaussianRational(mu) for c in h.form]


def _largest_part(matrices) -> int:
    return max((abs(x) for a in matrices for row in a.entries for e in row for x in (e.re, e.im)), default=0)


def _at_edge(arr, residues, side, step, k=0):
    """The connection with Gaussian-integer ``residues`` scaled (side
    "flat") so that 4 n m M^2 is the last value under 2^62 (step 0) or the
    first past it (step 1), or with the form of hyperplane k scaled (side
    "torsion") so that 4 F max(M, 1) does the same.  Residues that are
    rank one through a form stay so, as scaling a form keeps its kernel."""
    n, m = arr.dimension, len(arr)
    big = _largest_part(residues.values())
    if side == "flat":
        top = math.isqrt((_EDGE - 1) // (4 * n * m))  # the largest M under the bound
        residues = {hid: a.scale(top // big + step) for hid, a in residues.items()}
    else:
        h = arr.hyperplanes[k]
        form_big = max(abs(x) for c in _form_numerators(h) for x in (c.re, c.im))
        top = (_EDGE - 1) // (4 * max(big, 1))  # the largest F under the bound
        scale = GaussianRational(top // form_big + step)
        scaled = Hyperplane(h.id, tuple(c * scale for c in _form_numerators(h)))
        arr = Arrangement(n, [scaled if i == k else g for i, g in enumerate(arr.hyperplanes)])
    return StandardConnection(arr, residues)


@st.composite
def bound_edge_connections(draw):
    """(connection, side, step) with Gaussian-integer residues on A_2-A_4 or
    a random Q(i) arrangement: zero, scalar, rank one through the form (torsion
    free), random, or a multiple of one shared matrix; optionally real.
    ``side`` "far" leaves the entries small; "flat" and "torsion" put the
    connection at the edge of the bound with ``_at_edge``."""
    arr = draw(st.one_of(st.integers(2, 4).map(_braid), small_arrangements().filter(len)))
    n = arr.dimension
    real = draw(st.booleans())
    ints = st.integers(-3, 3)
    entry = st.builds(GaussianRational, ints, st.just(0) if real else ints)
    shared = _matrix(draw, n, entry)
    residues = {}
    for h in arr.hyperplanes:
        kind = draw(st.sampled_from(("zero", "scalar", "rank-one", "random", "shared")))
        if kind == "zero":
            residues[h.id] = ExactMatrix.zeros(n, n)
        elif kind == "scalar":
            residues[h.id] = ExactMatrix.identity(n).scale(draw(entry))
        elif kind == "rank-one":
            v = [draw(entry) for _ in range(n)]
            residues[h.id] = ExactMatrix([[x * f for f in _form_numerators(h)] for x in v])
        elif kind == "random":
            residues[h.id] = _matrix(draw, n, entry)
        else:
            residues[h.id] = shared.scale(draw(entry))
    side = draw(st.sampled_from(("far", "flat", "torsion")))
    step = draw(st.integers(0, 1))
    if side == "far" or (side == "flat" and not _largest_part(residues.values())):
        return StandardConnection(arr, residues), "far", step
    k = draw(st.integers(0, len(arr) - 1))
    return _at_edge(arr, residues, side, step, k), side, step


class TestInt64Bound:
    @settings(max_examples=150)
    @given(bound_edge_connections())
    def test_checks_match_oracles_across_the_bound(self, drawn):
        conn, side, step = drawn
        view = conn.integer
        fits = _bound_holds(conn)
        assert view.re.dtype == view.im.dtype == (np.int64 if fits else object)
        if side != "far":
            assert fits == (step == 0)
        assert check_flat(conn) == fraction_check_flat(conn)
        assert check_torsion_free(conn).violators == fraction_check_torsion_free(conn)

    @pytest.mark.parametrize("doubled", [False, True], ids=["flat", "one-doubled"])
    @pytest.mark.parametrize("side", ["flat", "torsion"])
    @pytest.mark.parametrize("step", [0, 1], ids=["under", "over"])
    def test_lauricella_at_the_edge(self, side, step, doubled):
        conn = reduced_residues([F(1, 7), F(-2, 9), F(3, 11), F(-4, 13), F(5, 8)], arrangement=_braid(4))
        d = conn.integer.denominator
        arr = conn.arrangement
        bad = arr.hyperplanes[3].id
        residues = {hid: a.scale(2 * d if doubled and hid == bad else d) for hid, a in conn.residues.items()}
        edge = _at_edge(arr, residues, side, step, k=5)
        assert edge.integer.re.dtype == (np.int64 if step == 0 else object)
        assert _bound_holds(edge) == (step == 0)
        flat = check_flat(edge)
        assert flat == fraction_check_flat(edge) and flat.ok == (not doubled)
        torsion = check_torsion_free(edge)
        assert torsion.violators == fraction_check_torsion_free(edge) and torsion.ok

    def test_exact_sweep_shape_takes_int64_and_one_product(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(a.dtype)
            return commutators(a, b)

        commutators = connection_module._commutators
        monkeypatch.setattr(connection_module, "_commutators", counting)
        real = reduced_residues([F(1, 7), F(-2, 9), F(3, 11), F(-4, 13), F(5, 8), F(1, 3)], arrangement=_braid(5))
        assert real.integer.re.dtype == np.int64 and not real.integer.im.any()
        assert check_flat(real).ok
        assert calls == [np.int64]
        arr = real.arrangement
        first = arr.hyperplanes[0].id
        imaginary = StandardConnection(
            arr, {hid: a.scale(GaussianRational(1, 1)) if hid == first else a for hid, a in real.residues.items()}
        )
        calls.clear()
        assert imaginary.integer.im.any()
        assert check_flat(imaginary) == fraction_check_flat(imaginary)
        assert calls == [np.int64] * 4


# -- the stored form ---------------------------------------------------------------

def _canonical(conn) -> tuple:
    """(d, re, im) from the residue entries as Fractions: d the lcm of their
    denominators, re and im the numerators over d, in hyperplane order."""
    entries = [e for h in conn.arrangement.hyperplanes for row in conn.residue(h.id).entries for e in row]
    d = math.lcm(*(x.denominator for e in entries for x in (e.re, e.im)))
    return d, [int(e.re * d) for e in entries], [int(e.im * d) for e in entries]


def _form(conn) -> tuple:
    view = conn.integer
    return view.denominator, view.re.dtype, view.re.ravel().tolist(), view.im.ravel().tolist()


@st.composite
def stored_form_connections(draw):
    """Random Q(i) residues on A_2-A_4 or a random Q(i) arrangement: zero,
    scalar, rank one through the form, or random, with entries from small
    rationals and, optionally, numerators and denominators past 2^63."""
    arr = draw(st.one_of(st.integers(2, 4).map(_braid), small_arrangements()))
    n = arr.dimension
    parts = _SMALL + _BIG if draw(st.booleans()) else _SMALL
    entry = _gauss(parts)
    residues = {}
    for h in arr.hyperplanes:
        kind = draw(st.sampled_from(("zero", "scalar", "rank-one", "random")))
        if kind == "zero":
            residues[h.id] = ExactMatrix.zeros(n, n)
        elif kind == "scalar":
            residues[h.id] = ExactMatrix.identity(n).scale(draw(entry))
        elif kind == "rank-one":
            v = [draw(entry) for _ in range(n)]
            residues[h.id] = ExactMatrix([[x * f for f in h.form] for x in v])
        else:
            residues[h.id] = _matrix(draw, n, entry)
    return StandardConnection(arr, residues)


@st.composite
def lauricella_parameters(draw):
    """a_1..a_{n+1} for A_1-A_5: complex, with small and optionally huge parts."""
    n = draw(st.integers(1, 5))
    parts = _PARAMS + _BIG if draw(st.booleans()) else _PARAMS
    return draw(st.lists(_gauss(parts), min_size=n + 1, max_size=n + 1))


class TestStoredForm:
    @given(stored_form_connections())
    def test_constructor_round_trips(self, conn):
        d, _, re, im = _form(conn)
        assert (d, re, im) == _canonical(conn)
        assert _form(StandardConnection(conn.arrangement, conn.residues)) == _form(conn)
        assert conn.integer.re.dtype == (np.int64 if _bound_holds(conn) else object)

    @settings(max_examples=60)
    @given(lauricella_parameters())
    def test_reduced_residues_match_grids(self, params):
        arr = _braid(len(params) - 1)
        conn = reduced_residues(params, arrangement=arr)
        assert _form(conn) == _form(StandardConnection(arr, jordan_pochhammer(params)))

    def test_cancelling_denominators(self):
        conn = reduced_residues([F(1, 2), F(1, 2)])
        assert _form(conn) == (1, np.int64, [1], [0])

    @settings(max_examples=60)
    @given(st.one_of(qi_connections(), lauricella_connections()))
    def test_weights_match_trace_oracle(self, conn):
        arr = conn.arrangement
        expected = {
            flat: residue_at_flat(conn, flat).trace() / GaussianRational(flat.codim)
            for flat in arr.lattice().irreducible
        }
        assert weights(conn).table == expected
        if arr.dimension >= 2 and arr.essential_irreducible:
            rows = check_weight_constraints(conn).rows
            assert repr(rows) == repr(_rows_from_matrix_traces(conn))

    def test_checks_build_no_residues_view(self, tmp_path):
        a = [F(1, 7), F(2, 9), F(-3, 11), F(4, 13), F(5, 8), F(1, 3)]
        path = tmp_path / "a4.json"
        path.write_text(json.dumps(connection_to_json(reduced_residues(a[:5]))))
        for conn in (reduced_residues(a), load_connection(path)):
            check_torsion_free(conn)
            check_flat(conn)
            weights(conn)
            check_weight_constraints(conn)
            assert recover_parameters(conn).ok
            assert "residues" not in conn.__dict__

    def test_numeric_view_is_correctly_rounded(self):
        # (2^53 + 1) / 3 is exact in Python ints, but a float64 division of
        # the rounded numerator 2^53 gives a different double
        big = GaussianRational(F(2**53 + 1, 3), F(-(2**60) - 7, 3))
        arr = _braid(2)
        conn = StandardConnection(
            arr, {h.id: ExactMatrix([[big, F(1, 3)], [0, big * k]]) for k, h in enumerate(arr.hyperplanes)}
        )
        assert conn.integer.re.dtype == object and conn.integer.denominator == 3
        exact = np.array(
            [[complex(e) for row in conn.residue(h.id).entries for e in row] for h in arr.hyperplanes],
            dtype=complex,
        )
        assert conn.numeric[1].tobytes() == exact.tobytes()
