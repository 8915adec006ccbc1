"""The exact path on Gaussian integers against the Fraction code it replaced.

``fraction_row_echelon`` is the Gauss-Jordan elimination over Q(i) in
``GaussianRational`` arithmetic, ``normalized_form`` the proportionality
key that scaled a form so its first nonzero entry is 1, and the other
oracles are the lattice build, torsion check and induced connection
written on top of them.  The integer versions in ``src/`` must agree with
them value for value.
"""

import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrconn.arrangement as arrangement_module
import arrconn.numkernel as numkernel_module
from arrconn.arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    _primitive_key,
    _restricted,
    _trace_classes,
    _trace_keys,
    ambient_flat,
    build_lattice,
    arrangement_to_json,
    deletion_restriction,
    flat_from_indices,
    load_arrangement,
    restriction,
)
from arrconn.connection import (
    StandardConnection,
    check_flat,
    check_torsion_free,
    check_weight_constraints,
    induced_connection,
    residue_at_flat,
    weights,
)
from arrconn.errors import InputError, PreconditionError
from arrconn.lauricella import build_An, recover_parameters, reduced_residues
from arrconn.numkernel import (
    GR_ONE,
    GR_ZERO,
    ExactMatrix,
    GaussianRational,
    _echelon_core,
    cleared,
    coordinates_in_basis,
    gaussian_ratio,
    rank_kernel,
    row_echelon,
    span_rank,
    vec,
    vec_dot,
)
from test_arrangement import small_arrangements

G = GaussianRational


# -- oracles: the Fraction code --------------------------------------------------------

def fraction_row_echelon(rows):
    work = [list(row) for row in rows]
    n_rows = len(work)
    n_cols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = GR_ONE / work[r][c]
        work[r] = [inv * e for e in work[r]]
        for i in range(n_rows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return [tuple(row) for row in work], pivots


def fraction_kernel(rows):
    n_cols = len(rows[0])
    rref, pivots = fraction_row_echelon(rows)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [GR_ZERO] * n_cols
        v[fc] = GR_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis


def normalized_form(form):
    for c in form:
        if c:
            inv = GR_ONE / c
            return tuple(inv * e for e in form)
    raise ValueError("zero form")


def fraction_traces(arr, flat):
    """(id, form, sources) of each class of proportional traces."""
    merged = {}
    for i, h in enumerate(arr.hyperplanes):
        if i in flat.containing:
            continue
        form = tuple(vec_dot(h.form, b) for b in flat.kernel_basis)
        key = normalized_form(form)
        first, first_form, sources = merged.get(key, (h.id, form, ()))
        merged[key] = (first, first_form, sources + (i,))
    return list(merged.values())


def ratio_restriction(arr, flat):
    """(id, form) of each hyperplane of the restriction to a flat, the
    form built entry by entry with ``gaussian_ratio`` from the class
    representative's integer trace: t_j = T_j / (d mu_j)."""
    tr, ti, (classes,) = _trace_classes(arr, [flat])
    out = []
    for sources in classes:
        i, d = sources[0], arr._denominators[sources[0]]
        trace = zip(tr[i, 0].tolist(), ti[i, 0].tolist(), flat.rows)
        form = tuple(gaussian_ratio(a, b, d * mu) for a, b, (_, _, mu) in trace)
        out.append((arr.ids()[i], form))
    return out


def fraction_lattice(arr):
    """(codim, containing, kernel_basis) of every flat, in lattice order."""
    start = ambient_flat(arr)
    flats = {(): start.kernel_basis}
    frontier = [((), start.kernel_basis)]
    while frontier:
        new = []
        for containing, basis in frontier:
            flat = SimpleNamespace(containing=containing, kernel_basis=basis)
            for _, form, sources in fraction_traces(arr, flat):
                key = tuple(sorted(containing + sources))
                if key in flats:
                    continue
                flats[key] = tuple(
                    tuple(
                        sum((c * b[k] for c, b in zip(coeff, basis)), GR_ZERO)
                        for k in range(arr.dimension)
                    )
                    for coeff in fraction_kernel([form])
                )
                new.append((key, flats[key]))
        frontier = new
    return sorted(
        ((arr.dimension - len(b), key, b) for key, b in flats.items()), key=lambda f: f[:2]
    )


def fraction_check_torsion_free(conn):
    arr = conn.arrangement
    return tuple(
        h.id
        for h in arr.hyperplanes
        if any(any(conn.residue(h.id).apply(b)) for b in rank_kernel([h.form])[1])
    )


def fraction_induced_connection(conn, h0):
    """(basis, trace_map, hyperplanes, residues), codimension-two flats
    re-solved with ``flat_from_indices``; "zero" or "not flat" when the
    induced connection is refused."""
    arr = conn.arrangement
    i0 = arr.index_of(h0)
    if conn.residue(h0).is_zero():
        return "zero"
    basis = tuple(rank_kernel([arr.form(i0)])[1])
    dr = deletion_restriction(arr, h0)
    residues = {}
    for trace in dr.restricted.hyperplanes:
        flat2 = flat_from_indices(arr, [i0, arr.index_of(trace.id)])
        a_full = residue_at_flat(conn, flat2)
        coords = [coordinates_in_basis(basis, a_full.apply(b)) for b in basis]
        if None in coords:
            return "not flat"
        residues[trace.id] = ExactMatrix.from_columns(coords)
    planes = [(h.id, h.form) for h in dr.restricted.hyperplanes]
    return basis, dr.projection, planes, residues


# -- strategies ------------------------------------------------------------------------

_SMALL = st.builds(
    G, st.sampled_from((-2, -1, 0, 0, 1, 3, Fraction(1, 2), Fraction(-5, 3))),
    st.sampled_from((0, 0, 1, -1, Fraction(2, 7))),
)
_HUGE = st.builds(
    lambda num, sign, den: Fraction(sign * num, den),
    st.integers(2**63 + 1, 2**70),
    st.sampled_from((1, -1)),
    st.integers(1, 2**66),
)
_BIG = st.builds(G, _HUGE, st.one_of(st.just(0), _HUGE))


@st.composite
def qi_matrices(draw):
    """Row lists over Q(i): complex entries, half the examples with
    numerators past 2**63, some zero rows and some dependent rows."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(_SMALL, _BIG) if draw(st.booleans()) else _SMALL
    rows = [tuple(draw(entry) for _ in range(n_cols)) for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
        lam = draw(_SMALL)
        rows.append(tuple(lam * x + y for x, y in zip(rows[a], rows[b])))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (GR_ZERO,) * n_cols)
    return rows


# -- one elimination core ---------------------------------------------------------------

class TestEchelonCore:
    @given(qi_matrices())
    def test_row_echelon_matches_fraction_oracle(self, rows):
        rref, pivots = row_echelon(rows)
        expected, expected_pivots = fraction_row_echelon(rows)
        assert pivots == expected_pivots
        assert repr(rref) == repr(expected)
        assert span_rank(rows) == len(pivots)
        assert rank_kernel(rows) == (len(pivots), fraction_kernel(rows))

    @given(qi_matrices())
    def test_core_rows_are_multiples_of_the_rref(self, rows):
        core, pivots = _echelon_core([cleared(row)[:2] for row in rows])
        expected, expected_pivots = fraction_row_echelon(rows)
        assert pivots == expected_pivots
        for (re, im), c, want in zip(core, pivots, expected):
            entries = [G(a, b) for a, b in zip(re, im)]
            assert tuple(e / entries[c] for e in entries) == want

    def test_entries_stay_within_hadamard_bound(self):
        # Every entry of the core is a minor of its input, so its norm is
        # at most the product of the rows' squared lengths.  Row i is a
        # multiple of (2+i)^(i+1): that Gaussian prime has no rational
        # integer factor, so the content of a row cannot remove it.
        rng = random.Random(11)
        n = 8
        rows = []
        for i in range(n):
            re = [rng.randint(-3, 3) for _ in range(n + 2)]
            im = [rng.randint(-3, 3) for _ in range(n + 2)]
            for _ in range(i + 1):
                re, im = [2 * a - b for a, b in zip(re, im)], [a + 2 * b for a, b in zip(re, im)]
            rows.append((re, im))
        bound = 1
        for re, im in rows:
            bound *= max(1, sum(a * a + b * b for a, b in zip(re, im)))
        core, pivots = _echelon_core(rows)
        assert len(pivots) == n
        assert all(a * a + b * b <= bound for re, im in core for a, b in zip(re, im))

    def test_rows_past_int64(self):
        big = 2**64 + 13
        rows = [
            (G(big, 1), G(Fraction(1, big), 0), G(0, big)),
            (G(2 * big, 2), G(Fraction(2, big), 0), G(0, 2 * big)),
            (G(1), G(0, 1), G(Fraction(big, 3))),
        ]
        assert row_echelon(rows) == fraction_row_echelon(rows)
        assert row_echelon(rows)[1] == [0, 1]

    def test_fraction_entries_are_accepted(self):
        rows = [(Fraction(1, 2), G(1)), (G(0, 1), 3)]
        assert row_echelon(rows) == fraction_row_echelon([tuple(map(G.coerce, r)) for r in rows])


# -- primitive trace keys ----------------------------------------------------------------------

def _key(form):
    return _primitive_key(*cleared(form)[:2])


class TestPrimitiveKeys:
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.one_of(_SMALL, _BIG)] * n)),
           st.one_of(_SMALL, _BIG), st.booleans())
    def test_keys_agree_with_normalized_forms(self, u, lam, scale):
        if not any(u):
            u = (GR_ONE,) + u[1:]
        v = tuple(lam * x for x in u) if scale and lam else tuple(x + GR_ONE for x in u)
        if not any(v):
            return
        assert (_key(u) == _key(v)) == (normalized_form(u) == normalized_form(v))
        assert _key(u) == _key(tuple(G(0, -3) * x for x in u))

    @given(small_arrangements())
    def test_trace_classes_match_normalized_forms(self, arr):
        for flat in arr.lattice().flats:
            if not flat.dim:  # a point lies in every hyperplane: no traces
                assert fraction_traces(arr, flat) == []
                continue
            restricted, traces = _restricted(arr, flat)
            got = [(h.id, h.form, sources) for h, (hid, sources) in zip(restricted.hyperplanes, traces, strict=True)]
            assert [hid for hid, _ in traces] == restricted.ids()
            assert got == fraction_traces(arr, flat)

    @given(small_arrangements())
    def test_lattice_matches_fraction_build(self, arr):
        flats = [(f.codim, f.containing, f.kernel_basis) for f in arr.lattice().flats]
        assert repr(flats) == repr(fraction_lattice(arr))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_braid_lattice_matches_fraction_build(self, n):
        arr = build_An(n)
        flats = [(f.codim, f.containing, f.kernel_basis) for f in arr.lattice().flats]
        assert repr(flats) == repr(fraction_lattice(arr))

    def test_proportional_forms_refused_with_complex_scale(self):
        form = (G(Fraction(1, 3), 2), G(0), G(-1, Fraction(1, 2)))
        other = tuple(G(Fraction(-7, 5), 3) * x for x in form)
        with pytest.raises(InputError, match="a and b are proportional"):
            Arrangement(3, [Hyperplane("a", form), Hyperplane("b", other)])


# -- the int64 bound of the lattice's trace batches --------------------------------------------

def python_traces(arr, bases):
    """``_integer_traces`` entry by entry, on Python ints."""
    fr, fi = (part.tolist() for part in arr._integer_forms)
    shape = (len(arr), len(bases), len(bases[0]))
    re, im = np.empty(shape, dtype=object), np.empty(shape, dtype=object)
    for h, (ar, ai) in enumerate(zip(fr, fi)):
        for f, rows in enumerate(bases):
            for j, (br, bi, _) in enumerate(rows):
                re[h, f, j] = sum(a * b - c * d for a, c, b, d in zip(ar, ai, br, bi))
                im[h, f, j] = sum(a * d + c * b for a, c, b, d in zip(ar, ai, br, bi))
    return re, im


def _edge(n, step, other=1):
    """The largest |entry| E of a form (or vector) such that, with every
    vector (or form) entry at most ``other``, 2 t^2 < 2^63 for t = 2 n E
    other (step 0), or the smallest past it (step 1)."""
    return (2**31 - 1) // (2 * n * other) + step


def _largest_form_part(arr) -> int:
    return max(abs(x) for part in arr._integer_forms for x in part.ravel().tolist())


_KEY_PARTS = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40), st.integers(-(2**70), 2**70))


class TestTraceBound:
    @settings(max_examples=60)
    @given(small_arrangements(), st.integers(0, 1), st.booleans())
    def test_int64_and_python_int_lattices_agree(self, arr, step, imaginary):
        # a form (E, 1) or (E, i) puts the first level, traces on the
        # ambient's unit rows, at the edge of the bound; deeper levels,
        # with larger row entries, may fall past it
        n = arr.dimension
        edge = _edge(n, step)
        form = vec([edge, G(0, 1) if imaginary else 1] + [0] * (n - 2))
        edged = Arrangement(n, [*arr.hyperplanes, Hyperplane("edge", form)])
        assert _largest_form_part(edged) == edge
        dtypes, real = [], arrangement_module._integer_traces

        def recording(a, bases):
            out = real(a, bases)
            dtypes.append(out[0].dtype)
            return out

        with mock.patch.object(arrangement_module, "_integer_traces", recording):
            fast = build_lattice(edged)
        with mock.patch.object(arrangement_module, "_integer_traces", python_traces):
            slow = build_lattice(edged)
        assert dtypes[0] == (np.int64 if step == 0 else object)
        assert [(f.containing, f.rows, f.codim) for f in fast.flats] == [(f.containing, f.rows, f.codim) for f in slow.flats]
        assert fast.blocks == slow.blocks

    @settings(max_examples=60)
    @given(small_arrangements().filter(len), st.integers(0, 1), st.booleans())
    def test_traces_on_rows_at_the_edge(self, arr, step, imaginary):
        # rows (E, 1) or (E, i) against the arrangement's own forms
        n = arr.dimension
        big = _edge(n, step, _largest_form_part(arr))
        row = ([big] + [0 if imaginary else 1] + [0] * (n - 2), [0, 1 if imaginary else 0] + [0] * (n - 2), 1)
        re, im = python_traces(arr, [(row,)])
        traces = list(zip(re[:, 0].tolist(), im[:, 0].tolist()))
        inside = tuple(i for i, (a, b) in enumerate(traces) if not (any(a) or any(b)))
        tr, ti, (classes,) = _trace_classes(arr, [Flat(containing=inside, rows=(row,), codim=n - 1)])
        assert tr.dtype == (np.int64 if step == 0 else object)
        assert tr.tolist() == re.tolist() and ti.tolist() == im.tolist()
        merged = {}
        for i, (a, b) in enumerate(traces):
            if i not in inside:
                merged.setdefault(_primitive_key(a, b), []).append(i)
        assert classes == [tuple(sources) for sources in merged.values()]

    @given(st.integers(1, 4).flatmap(lambda k: st.lists(st.tuples(*[_KEY_PARTS] * (2 * k)), min_size=1, max_size=6)))
    def test_batch_keys_are_primitive_keys(self, vectors):
        # one array for the batch: int64 when every part is small, else Python ints
        k = len(vectors[0]) // 2
        parts = np.array(vectors, dtype=object)
        small = all(abs(x) < 2**20 for v in vectors for x in v)
        re, im = (parts[:, :k], parts[:, k:]) if not small else (parts[:, :k].astype(np.int64), parts[:, k:].astype(np.int64))
        keys = _trace_keys(re, im).tolist()
        for v, key in zip(vectors, keys):
            expected = _primitive_key(list(v[:k]), list(v[k:])) if any(v) else (0,) * (2 * k)
            assert tuple(key) == expected


# -- the stored form of an arrangement -------------------------------------------------------

@st.composite
def qi_arrangements(draw):
    """Arrangements over Q(i) in C^1-C^4: entries with denominators and
    complex parts, in half the examples numerators and denominators past
    2**63; up to two forms are combinations of two others, so the lattice
    has deeper flats; zero and proportional forms are dropped."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(_SMALL, _BIG) if draw(st.booleans()) else _SMALL
    forms = [tuple(draw(entry) for _ in range(n)) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        a, b, lam = draw(st.sampled_from(forms)), draw(st.sampled_from(forms)), draw(_SMALL)
        forms.append(tuple(lam * x + y for x, y in zip(a, b)))
    keys, planes = set(), []
    for form in forms:
        if any(form) and normalized_form(form) not in keys:
            keys.add(normalized_form(form))
            planes.append(Hyperplane(f"h{len(planes)}", form))
    return Arrangement(n, planes)


def stored(arr):
    return arr._ids, [forms.tolist() for forms in arr._integer_forms], arr._denominators


def assert_canonical(arr):
    """Each stored row (re, im, d) has d > 0 and gcd(d, re..., im...) = 1."""
    for re, im, d in zip(*stored(arr)[1], arr._denominators):
        assert d > 0 and math.gcd(d, *re, *im) == 1


class TestStoredForm:
    """An arrangement stores its ids and one canonical Gaussian-integer row
    per form; ``hyperplanes`` and ``complex_forms`` are views of them."""

    @given(qi_arrangements())
    def test_round_trip_through_the_view(self, arr):
        assert_canonical(arr)
        assert [cleared(h.form) for h in arr.hyperplanes] == list(zip(*stored(arr)[1], arr._denominators))
        again = Arrangement(arr.dimension, arr.hyperplanes)
        assert stored(again) == stored(arr)
        assert again.hyperplanes == arr.hyperplanes
        assert [arr.form(i) for i in range(len(arr))] == [h.form for h in arr.hyperplanes]

    @given(qi_arrangements())
    def test_complex_forms_round_each_exact_entry(self, arr):
        want = np.array([[complex(c) for c in h.form] for h in arr.hyperplanes], dtype=complex)
        assert arr.complex_forms.tobytes() == want.reshape(len(arr), arr.dimension).tobytes()
        assert arr.complex_forms.shape == (len(arr), arr.dimension)
        assert not arr.complex_forms.flags.writeable

    @given(qi_arrangements())
    def test_restrictions_match_gaussian_ratio_build(self, arr):
        for flat in arr.lattice().flats:
            if flat.dim:
                restricted = restriction(arr, flat)
                assert_canonical(restricted)
                assert [(h.id, h.form) for h in restricted.hyperplanes] == ratio_restriction(arr, flat)

    @staticmethod
    def _loaded(tmp_path, source):
        """A_5, or a file in C^3 with complex entries and an entry past 2^64."""
        if source == "A_5":
            return build_An(5)
        forms = [(1, 0, G(0, 1)), (0, G(Fraction(1, 3), 1), 1), (1, 1, 0), (1, G(2, -1), G(Fraction(-5, 7))), (2**64 + 1, 0, 1)]
        path = tmp_path / "forms.json"
        planes = [Hyperplane(f"h{k}", vec(f)) for k, f in enumerate(forms)]
        path.write_text(json.dumps(arrangement_to_json(Arrangement(3, planes))))
        return load_arrangement(path)

    @pytest.mark.parametrize("source", ["A_5", "file"])
    def test_restriction_verdicts_build_no_arrangement(self, tmp_path, source):
        arr = self._loaded(tmp_path, source)
        with mock.patch.object(Arrangement, "_from_rows", wraps=Arrangement._from_rows) as built:
            verdicts = arr.essential_irreducible_restrictions
            assert built.call_count == 0
            built_one_by_one = {i0 for i0, flat in enumerate(arr.hyperplane_flats) if restriction(arr, flat).essential_irreducible}
            assert built.call_count == len(arr)  # the wrap sees every restriction built
        assert verdicts == built_one_by_one

    @pytest.mark.parametrize("source", ["A_5", "file"])
    def test_restriction_verdicts_build_no_view(self, tmp_path, source):
        arr = self._loaded(tmp_path, source)
        for flat in arr.hyperplane_flats:
            r = _restricted(arr, flat)[0]
            r.essential_irreducible
            r.lattice()
            assert "hyperplanes" not in vars(r)
        assert "hyperplanes" not in vars(arr)


# -- restrictions, torsion and induced connections --------------------------------------------

def _residue_kinds(arr, pick):
    """Rank-one residues v (x) dh (torsion-free), random matrices
    (violations) or scalar ones (flat through every flat)."""
    n = arr.dimension
    out = {}
    for k, h in enumerate(arr.hyperplanes):
        kind, c = pick[k % len(pick)]
        if kind == 0:
            v = [c * G(j + 1, k) for j in range(n)]
            out[h.id] = ExactMatrix([[x * f for f in h.form] for x in v])
        elif kind == 1:
            out[h.id] = ExactMatrix([[c * G(i - j, i * j) for j in range(n)] for i in range(n)])
        else:
            out[h.id] = ExactMatrix.identity(n).scale(c)
    return out


_PICKS = st.lists(st.tuples(st.integers(0, 2), st.one_of(_SMALL, _BIG)), min_size=1, max_size=4)


class TestRestrictionsTorsionInduced:
    @given(small_arrangements())
    def test_essential_irreducible_restrictions_match_deletion_restriction(self, arr):
        old = {
            i0
            for i0, h in enumerate(arr.hyperplanes)
            if deletion_restriction(arr, h.id).restricted.essential_irreducible
        }
        assert arr.essential_irreducible_restrictions == old

    def test_restriction_verdicts_leave_out_a_boolean_restriction(self):
        # essential and irreducible in C^3; on z = 0, x + z and y + z trace x and y
        forms = {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1], "x+z": [1, 0, 1], "y+z": [0, 1, 1]}
        arr = Arrangement(3, [Hyperplane(hid, vec(f)) for hid, f in forms.items()])
        assert arr.essential_irreducible
        assert arr.essential_irreducible_restrictions == {0, 1, 3, 4}
        for i0, flat in enumerate(arr.hyperplane_flats):
            assert (i0 in arr.essential_irreducible_restrictions) == restriction(arr, flat).essential_irreducible
        assert len(restriction(arr, arr.hyperplane_flats[2])) == 2

    def test_restriction_verdicts_refuse_a_line(self):
        with pytest.raises(PreconditionError, match="^restriction to a point undefined$"):
            build_An(1).essential_irreducible_restrictions

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_braid_restrictions(self, n):
        arr = build_An(n)
        assert arr.essential_irreducible_restrictions == frozenset(range(len(arr)))

    @given(small_arrangements(), _PICKS)
    def test_torsion_free_matches_fraction_oracle(self, arr, pick):
        conn = StandardConnection(arr, _residue_kinds(arr, pick))
        report = check_torsion_free(conn)
        assert report.violators == fraction_check_torsion_free(conn)
        assert report.ok == (not report.violators)

    @given(small_arrangements(), _PICKS)
    def test_induced_connection_matches_fraction_oracle(self, arr, pick):
        conn = StandardConnection(arr, _residue_kinds(arr, [(2, c) for _, c in pick]))
        for h in arr.hyperplanes:
            self._compare(conn, h.id)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_induced_lauricella(self, n):
        conn = reduced_residues([Fraction(1, 10 + i) for i in range(n + 1)])
        for h in conn.arrangement.hyperplanes:
            self._compare(conn, h.id)

    def test_torsion_free_builds_no_kernel(self):
        conn = reduced_residues([Fraction(1, 10 + i) for i in range(5)])
        assert check_torsion_free(conn).ok
        assert "hyperplane_flats" not in vars(conn.arrangement)

    def test_induced_connection_solves_no_kernel(self, monkeypatch):
        conn = reduced_residues([Fraction(1, 10 + i) for i in range(5)])
        calls = []
        original = numkernel_module.kernel_of_echelon
        monkeypatch.setattr(
            "arrconn.arrangement.kernel_of_echelon", lambda *a: calls.append(a) or original(*a)
        )
        induced_connection(conn, "H_1_2")
        assert calls == []

    def test_exact_checks_solve_no_kernel(self, monkeypatch):
        conn = reduced_residues([Fraction(1, 10 + i) for i in range(6)])  # A_5
        calls = []
        original = numkernel_module.rank_kernel
        for module in ("numkernel", "connection"):
            monkeypatch.setattr(
                f"arrconn.{module}.rank_kernel", lambda m: calls.append(m) or original(m)
            )
        kernel = numkernel_module.kernel_of_echelon
        monkeypatch.setattr("arrconn.arrangement.kernel_of_echelon", lambda *a: calls.append(a) or kernel(*a))
        check_torsion_free(conn)
        check_flat(conn)
        weights(conn)
        check_weight_constraints(conn)
        recover_parameters(conn)
        assert calls == []

    @staticmethod
    def _compare(conn, h0):
        expected = fraction_induced_connection(conn, h0)
        try:
            got = induced_connection(conn, h0)
        except PreconditionError as exc:
            assert expected == ("zero" if "is zero" in str(exc) else "not flat")
            return
        basis, projection, planes, residues = expected
        assert got.basis == basis
        assert got.trace_map == projection
        induced = got.connection
        assert [(h.id, h.form) for h in induced.arrangement.hyperplanes] == planes
        assert dict(induced.residues) == residues
