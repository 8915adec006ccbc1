import contextlib
import io
import json
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrconn.arrangement import (
    _blocks,
    Arrangement,
    Flat,
    Hyperplane,
    ambient_flat,
    arrangement_from_json,
    arrangement_to_json,
    braid_hyperplanes,
    deletion_restriction,
    flat_from_basis,
    flat_from_indices,
    irreducible_components,
    irreducible_decomposition,
    irreducible_flats,
    is_irreducible_flat,
    localization,
    restriction,
)
from arrconn.cli import main
from arrconn.errors import InputError, LatticeCapError, PreconditionError
from arrconn.numkernel import GaussianRational, rank_kernel, span_rank, vec, vec_dot


def boolean(n):
    planes = []
    for i in range(n):
        form = [0] * n
        form[i] = 1
        planes.append(Hyperplane(f"z{i+1}", vec(form)))
    return Arrangement(n, planes)


def braid(n):
    return Arrangement(n, braid_hyperplanes(n))


def bell(n):
    # partition-count triangle, used as the independent lattice oracle
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


class TestConstruction:
    def test_rejects_zero_form(self):
        with pytest.raises(InputError):
            Hyperplane("bad", vec([0, 0]))

    def test_rejects_proportional_forms(self):
        with pytest.raises(InputError):
            Arrangement(2, [Hyperplane("a", vec([1, 1])), Hyperplane("b", vec([2, 2]))])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InputError):
            Arrangement(2, [Hyperplane("a", vec([1, 0])), Hyperplane("a", vec([0, 1]))])


class TestLattice:
    def test_boolean_plane(self):
        lat = boolean(2).lattice()
        assert len(lat) == 4

    def test_braid_counts_match_partition_numbers(self):
        for n in (2, 3):
            assert len(braid(n).lattice()) == bell(n + 1)

    def test_flat_keys_are_closed(self):
        arr = braid(3)
        for flat in arr.lattice().flats:
            again = flat_from_indices(arr, flat.containing)
            assert again.containing == flat.containing

    def test_cap(self):
        arr = braid(6)  # 21 hyperplanes
        with pytest.raises(LatticeCapError) as err:
            arr.lattice()
        assert "2^21" in str(err.value)

    def test_cap_checked_on_cached_lattice(self):
        arr = braid(5)  # 15 hyperplanes, 203 flats
        assert len(arr.lattice()) == 203
        with pytest.raises(LatticeCapError):
            arr.lattice(cap=3)
        assert len(arr.lattice(cap=15)) == 203

    def test_irreducible_flats_cached_on_lattice(self):
        arr = braid(3)
        flats = irreducible_flats(arr)
        assert flats is arr.lattice().irreducible
        assert flats == tuple(f for f in arr.lattice().flats if is_irreducible_flat(arr, f))


_PARTS = (-2, -1, 0, 0, 0, 1, 2, Fraction(1, 2))


@st.composite
def small_arrangements(draw, dims=(2, 4), max_size=7):
    """Non-generic arrangements over Q(i): dimension in ``dims`` (2-4), at
    most ``max_size`` (7) hyperplanes with small complex coefficients,
    proportional forms dropped."""
    n = draw(st.integers(*dims))
    entry = st.builds(GaussianRational, st.sampled_from(_PARTS), st.sampled_from((0, 0, 1, -1)))
    forms = []
    for form in draw(st.lists(st.tuples(*[entry] * n), max_size=max_size)):
        if any(form) and all(span_rank([f, form]) == 2 for f in forms):
            forms.append(form)
    return Arrangement(n, [Hyperplane(f"h{k}", f) for k, f in enumerate(forms)])


def direct_sum(*parts):
    """The arrangement of the parts' forms in disjoint coordinate blocks."""
    n, planes, offset = sum(p.dimension for p in parts), [], 0
    for k, part in enumerate(parts):
        for h in part.hyperplanes:
            form = [0] * offset + list(h.form) + [0] * (n - offset - part.dimension)
            planes.append(Hyperplane(f"p{k}{h.id}", vec(form)))
        offset += part.dimension
    return Arrangement(n, planes)


reducible_arrangements = st.one_of(
    st.sampled_from([
        boolean(3),
        direct_sum(braid(2), Arrangement(1, [])),  # a padded braid: not essential
        direct_sum(braid(2), Arrangement(2, [Hyperplane("w", vec([1, 0]))])),
        direct_sum(braid(2), braid(2)),
    ]),
    st.builds(direct_sum, small_arrangements((1, 3), 4), small_arrangements((1, 3), 4)),
    small_arrangements(),
)


def lattice_report(arr) -> dict:
    """``arrconn lattice --json`` on the arrangement, written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arr.json"
        path.write_text(json.dumps(arrangement_to_json(arr)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["lattice", str(path), "--json"]) == 0
    return json.loads(out.getvalue())


class TestLatticeOracle:
    @given(small_arrangements())
    def test_flats_are_closures_of_subsets(self, arr):
        lat = arr.lattice()
        closures = {
            flat_from_indices(arr, subset).containing
            for size in range(len(arr) + 1)
            for subset in combinations(range(len(arr)), size)
        }
        assert {f.containing for f in lat.flats} == closures
        for f in lat.flats:
            assert all(not vec_dot(arr.form(i), b) for i in f.containing for b in f.kernel_basis)
            assert flat_from_basis(arr, f.kernel_basis).containing == f.containing
            assert f.codim == arr.dimension - len(f.kernel_basis)

    @given(small_arrangements())
    def test_hyperplane_flats_are_the_codim_one_flats(self, arr):
        codim1 = arr.lattice().of_codim(1)
        assert len(arr.hyperplane_flats) == len(codim1) == len(arr)
        for i, (flat, lattice_flat) in enumerate(zip(arr.hyperplane_flats, codim1)):
            assert flat.containing == lattice_flat.containing == (i,)
            assert (flat.codim, flat.dim) == (1, arr.dimension - 1)
            assert flat.kernel_basis == flat_from_indices(arr, [i]).kernel_basis
            assert flat.kernel_basis == lattice_flat.kernel_basis


class TestComponentBlocks:
    @given(reducible_arrangements)
    def test_blocks_are_the_closed_components(self, arr):
        report = lattice_report(arr)
        center = flat_from_indices(arr, range(len(arr)))
        assert (report["rank"], report["essential"]) == (center.codim, center.codim == arr.dimension)
        flats = arr.lattice().flats
        assert len(report["flats"]) == len(flats)
        for flat, entry in zip(flats, report["flats"]):
            blocks = _blocks(arr, flat.containing)[0]
            assert sorted(i for block in blocks for i in block) == list(flat.containing)
            assert blocks == sorted(blocks) and all(list(b) == sorted(b) for b in blocks)
            assert all(flat_from_indices(arr, block).containing == block for block in blocks)
            assert is_irreducible_flat(arr, flat) == (len(blocks) == 1)
            components = irreducible_components(arr, flat)
            assert [c.containing for c in components] == blocks
            assert entry["hyperplanes"] == [arr.hyperplanes[i].id for i in flat.containing]
            assert entry["components"] == [[arr.hyperplanes[i].id for i in c.containing] for c in components]
            assert entry["irreducible"] == (len(components) == 1)


class TestRestrictionCache:
    @given(small_arrangements())
    def test_cache_returns_fresh_verdicts(self, arr):
        fresh = set()
        for i0, h0 in enumerate(arr.hyperplanes):
            restricted = deletion_restriction(arr, h0.id).restricted
            center = flat_from_indices(restricted, range(len(restricted)))
            essential = center.codim == restricted.dimension
            if len(restricted) and essential and len(irreducible_decomposition(restricted)) == 1:
                fresh.add(i0)
        assert arr.essential_irreducible_restrictions == fresh
        if len(arr):
            blocks = irreducible_decomposition(arr)
            blocks[0].append(len(arr))
            blocks.append([len(arr) + 1])
            copy = Arrangement(arr.dimension, arr.hyperplanes)
            assert irreducible_decomposition(arr) == irreducible_decomposition(copy)


class TestLocalizationRestriction:
    def test_localize_ambient_is_empty(self):
        arr = braid(2)
        assert len(localization(arr, ambient_flat(arr))) == 0

    def test_localize_braid_reducible_flat(self):
        arr = braid(3)
        flat = flat_from_indices(arr, [arr.index_of("H_1_2"), arr.index_of("H_3_4")])
        loc = localization(arr, flat)
        assert sorted(loc.ids()) == ["H_1_2", "H_3_4"]

    def test_localize_braid_triple_point(self):
        arr = braid(3)
        # z1 = z2 = z3 corresponds to the partition {1,2,3}{4}
        flat = flat_from_indices(arr, [arr.index_of("H_1_2"), arr.index_of("H_1_3")])
        loc = localization(arr, flat)
        assert sorted(loc.ids()) == ["H_1_2", "H_1_3", "H_2_3"]

    def test_restriction_of_braid_is_braid(self):
        for n in (2, 3):
            arr = braid(n)
            for h in arr.hyperplanes:
                flat = flat_from_indices(arr, [arr.index_of(h.id)])
                res = restriction(arr, flat)
                expected = len(braid(n - 1)) if n > 1 else 0
                assert len(res) == expected

    def test_restriction_boolean(self):
        arr = boolean(2)
        flat = flat_from_indices(arr, [0])
        res = restriction(arr, flat)
        assert len(res) == 1

    def test_restriction_merges_proportional_traces(self):
        arr = Arrangement(
            3,
            [
                Hyperplane("h", vec([0, 0, 1])),
                Hyperplane("a", vec([1, 0, 1])),
                Hyperplane("b", vec([1, 0, -1])),
            ],
        )
        flat = flat_from_indices(arr, [0])
        res = restriction(arr, flat)
        assert len(res) == 1  # both trace to {x = 0} on h

    def test_restriction_to_point_refused(self):
        arr = boolean(2)
        origin = flat_from_indices(arr, [0, 1])
        with pytest.raises(PreconditionError):
            restriction(arr, origin)

    def test_flat_leaving_a_listed_hyperplane_refused(self):
        # the line z1 = z2 lies in H_1_2 but not in H_1_3 (z1 = 0)
        arr = braid(2)
        flat = Flat((0, 1), (vec([1, 1]),), 1)
        for op in (localization, restriction):
            with pytest.raises(PreconditionError, match="does not belong"):
                op(arr, flat)

    def test_flat_missing_a_hyperplane_refused(self):
        # the line z1 = z2 lies in H_1_2, which the containing set leaves out
        arr = braid(2)
        flat = Flat((), (vec([1, 1]),), 1)
        for op in (localization, restriction):
            with pytest.raises(PreconditionError, match="not closed"):
                op(arr, flat)

    def test_restriction_tower(self):
        # restricting twice agrees with restricting to the deeper flat
        arr = braid(3)
        h0 = "H_1_2"
        flat0 = flat_from_indices(arr, [arr.index_of(h0)])
        res1 = restriction(arr, flat0)
        inner = flat_from_indices(res1, [0])
        res2 = restriction(res1, inner)
        # the deeper flat of the original arrangement with the same hyperplanes
        deep = flat_from_indices(
            arr, [arr.index_of(h0), arr.index_of(res1.hyperplanes[0].id)]
        )
        direct = restriction(arr, deep)
        assert len(res2) == len(direct)
        assert len(res2.lattice()) == len(direct.lattice())


class TestCenterRank:
    def test_empty(self):
        arr = Arrangement(2, [])
        center = flat_from_indices(arr, range(len(arr)))
        rank, essential = center.codim, center.codim == arr.dimension
        assert center.codim == 0 and rank == 0 and not essential

    def test_braid_essential(self):
        for n in (2, 3):
            arr = braid(n)
            center = flat_from_indices(arr, range(len(arr)))
            rank, essential = center.codim, center.codim == arr.dimension
            assert rank == n and essential

    def test_unreduced_braid_not_essential(self):
        planes = [
            Hyperplane("12", vec([1, -1, 0])),
            Hyperplane("13", vec([1, 0, -1])),
            Hyperplane("23", vec([0, 1, -1])),
        ]
        arr = Arrangement(3, planes)
        center = flat_from_indices(arr, range(len(arr)))
        rank, essential = center.codim, center.codim == arr.dimension
        assert rank == 2 and not essential
        assert center.kernel_basis == (vec([1, 1, 1]),)


class TestIrreducibility:
    def test_boolean_splits_into_singletons(self):
        blocks = irreducible_decomposition(boolean(3))
        assert blocks == [[0], [1], [2]]

    def test_braid_is_irreducible(self):
        for n in (2, 3, 4):
            assert len(irreducible_decomposition(braid(n))) == 1

    def test_mixed_example(self):
        arr = Arrangement(
            3,
            [
                Hyperplane("z1", vec([1, 0, 0])),
                Hyperplane("z2", vec([0, 1, 0])),
                Hyperplane("z1-z2", vec([1, -1, 0])),
                Hyperplane("z3", vec([0, 0, 1])),
            ],
        )
        blocks = irreducible_decomposition(arr)
        assert blocks == [[0, 1, 2], [3]]

    def test_components_of_hyperplane(self):
        arr = braid(2)
        flat = flat_from_indices(arr, [0])
        assert irreducible_components(arr, flat) == [flat]

    def test_components_of_reducible_flat(self):
        arr = braid(3)
        i, j = arr.index_of("H_1_2"), arr.index_of("H_3_4")
        flat = flat_from_indices(arr, [i, j])
        comps = irreducible_components(arr, flat)
        assert [c.containing for c in comps] == [(i,), (j,)]

    def test_origin_of_braid_is_irreducible(self):
        arr = braid(3)
        origin = flat_from_indices(arr, range(len(arr)))
        assert irreducible_components(arr, origin) == [origin]
        assert is_irreducible_flat(arr, origin)

    def test_components_intersect_to_flat(self):
        arr = braid(3)
        for flat in arr.lattice().flats:
            comps = irreducible_components(arr, flat)
            joined = sorted({i for c in comps for i in c.containing})
            assert flat_from_indices(arr, joined) == flat
            for comp in comps:
                assert is_irreducible_flat(arr, comp)


class TestDeletionRestriction:
    def test_braid_line_not_separator(self):
        arr = braid(2)
        dr = deletion_restriction(arr, "H_1_2")
        # the two deleted lines both trace the origin of H_1_2: one point
        assert len(dr.restricted) == 1
        assert sorted(dr.projection.values()) == ["H_1_3", "H_1_3"]
        assert not dr.separator

    def test_boolean_separator(self):
        arr = boolean(2)
        dr = deletion_restriction(arr, "z1")
        assert len(dr.restricted) == 1
        assert dr.separator

    def test_single_hyperplane(self):
        arr = Arrangement(2, [Hyperplane("h", vec([1, 0]))])
        dr = deletion_restriction(arr, "h")
        assert len(dr.deleted) == 0
        assert len(dr.restricted) == 0
        assert dr.separator

    def test_line_restricts_to_a_point(self):
        arr = Arrangement(1, [Hyperplane("h", vec([1]))])
        with pytest.raises(PreconditionError, match="restriction to a point"):
            deletion_restriction(arr, "h")

    def test_projection_covers_deleted(self):
        arr = braid(3)
        dr = deletion_restriction(arr, "H_1_2")
        assert sorted(dr.projection) == sorted(h.id for h in dr.deleted.hyperplanes)
        trace_ids = {h.id for h in dr.restricted.hyperplanes}
        assert set(dr.projection.values()) == trace_ids

    @given(small_arrangements())
    def test_separator_matches_kernel_oracle(self, arr):
        for i0, h0 in enumerate(arr.hyperplanes):
            others = [h.form for h in arr.hyperplanes if h is not h0]
            center = rank_kernel(others)[1] if others else ambient_flat(arr).kernel_basis
            outside = any(vec_dot(h0.form, b) for b in center)
            assert deletion_restriction(arr, h0.id).separator == outside

    def test_separator_solves_no_kernel(self, monkeypatch):
        arr = braid(4)
        calls = []
        monkeypatch.setattr(
            "arrconn.arrangement.rank_kernel", lambda m: calls.append(m) or rank_kernel(m)
        )
        for h in arr.hyperplanes:
            assert not deletion_restriction(arr, h.id).separator
        assert calls == []

    def test_deleted_braid_stays_essential(self):
        # essential irreducible arrangements keep full rank after deletion
        for n in (2, 3, 4):
            arr = braid(n)
            for h in arr.hyperplanes:
                dr = deletion_restriction(arr, h.id)
                center = flat_from_indices(dr.deleted, range(len(dr.deleted)))
                essential = center.codim == dr.deleted.dimension
                assert essential, f"deleting {h.id} from the braid arrangement lost rank"


class TestJson:
    def test_round_trip(self):
        arr = Arrangement(
            2,
            [
                Hyperplane("a", vec([1, Fraction(1, 2)])),
                Hyperplane("b", (vec([1, 0])[0], vec([Fraction(-2, 3)])[0])),
            ],
        )
        again = arrangement_from_json(arrangement_to_json(arr))
        assert [h.form for h in again.hyperplanes] == [h.form for h in arr.hyperplanes]

    def test_builtin_braid(self):
        arr = arrangement_from_json({"builtin": "A_n", "n": 2})
        assert arr.ids() == ["H_1_2", "H_1_3", "H_2_3"]

    def test_bare_numerator_means_integer(self):
        arr = arrangement_from_json(
            {"dimension": 1, "hyperplanes": [{"id": "h", "form": [["3", "0"]]}]}
        )
        assert arr.hyperplanes[0].form == vec([3])

    def test_malformed_rational(self):
        with pytest.raises(InputError):
            arrangement_from_json(
                {"dimension": 1, "hyperplanes": [{"id": "h", "form": [["x/y", "0"]]}]}
            )

    def test_unknown_builtin(self):
        with pytest.raises(InputError):
            arrangement_from_json({"builtin": "B_n", "n": 2})
