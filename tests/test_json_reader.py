"""The JSON entry reader: integer pairs read straight from "p" and "p/q"
strings, everything else through ``parse_fraction``.  Both loaders must
store what a ``Fraction``-based reader stores, or raise the same error;
the call counts of the cold front end are pinned here too."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrconn.arrangement as arrmod
import arrconn.numkernel as nummod
from arrconn.arrangement import Arrangement, Hyperplane, arrangement_from_json, load_arrangement
from arrconn.cli import main
from arrconn.connection import StandardConnection, connection_from_json, load_connection
from arrconn.errors import InputError
from arrconn.lauricella import build_An
from arrconn.numkernel import ExactMatrix, GaussianRational, parse_fraction
from test_golden import VARIANTS, connection_file, explicit_file, random_arrangement_file


# -- the Fraction-based oracle: each part a Fraction, each entry a GaussianRational --

def oracle_entry(entry) -> GaussianRational:
    re, im = entry if isinstance(entry, list) and len(entry) == 2 else (entry, 0)
    for part in (re, im):
        if type(part) is not str and type(part) is not int:
            raise InputError(f"cannot parse coefficient {part!r}")
    return GaussianRational(*(parse_fraction(p) if type(p) is str else p for p in (re, im)))


def oracle_connection(obj) -> StandardConnection:
    """What the loaders stored when every entry went through a Fraction:
    the same checks in the same order, forms and residues cleared by the
    Fraction-based constructors."""
    hyperplanes = []
    for item in obj["hyperplanes"]:
        try:
            form = tuple(oracle_entry(e) for e in item["form"])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad hyperplane entry: {exc}") from None
        hyperplanes.append(Hyperplane(item["id"], form))
    arr = Arrangement(obj["dimension"], hyperplanes)
    residues = {}
    for hid, grid in obj["residues"].items():
        try:
            residues[hid] = ExactMatrix([[oracle_entry(e) for e in row] for row in grid])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad residue for {hid}: {exc}") from None
    return StandardConnection(arr, residues)


def stored(load, obj):
    """The stored forms and residues of a load, or the text of its InputError."""
    try:
        conn = load(obj)
    except InputError as exc:
        return "error", str(exc)
    arr, view = conn.arrangement, conn.integer
    forms = [part.tolist() for part in arr._integer_forms], arr._denominators
    return forms, (view.denominator, view.re.dtype, view.re.tolist(), view.im.tolist())


# -- the grammar of entries ----------------------------------------------------------

SIGN = st.sampled_from(["", "-", "+"])
SPACE = st.sampled_from(["", " ", "\t"])
DIGITS = st.one_of(
    st.text("0123456789", min_size=1, max_size=5),
    st.sampled_from(["007", "1_000", "1" * 4300, "2" * 4301, "0" * 4300 + "3", "١", "٢", ""]),
)
TAIL = st.one_of(
    st.just(""),
    st.builds(lambda s, d: f"/{s}{d}", SIGN, DIGITS),
    st.builds(lambda d: f".{d}", DIGITS),
    st.builds(
        lambda m, s, e: f"{m}e{s}{e}",
        st.sampled_from(["", ".5", ".25"]),
        SIGN,
        st.sampled_from(["0", "3", "4300", "4301", "0004300", "1_0"]),
    ),
)
TEXT = st.one_of(
    st.builds(lambda a, s, d, t, b: a + s + d + t + b, SPACE, SIGN, DIGITS, TAIL, SPACE),
    st.sampled_from(["1/0", "-3/0", "2/-4", "2/+3", "١/٢", "2/4", "-0", "0/7", "1/2/3", "/2", "1/", "-", "abc"]),
)
PART = st.one_of(TEXT, st.integers(-(10**30), 10**30), st.booleans(), st.floats(allow_nan=False), st.none())
ENTRY = st.one_of(PART, st.lists(PART, min_size=2, max_size=2), st.lists(st.integers(0, 3), min_size=0, max_size=3))


def connection_object(form, grid):
    """A connection in C^2 with three hyperplanes, the third of the given
    form, and the given residue grid at every hyperplane."""
    planes = [("h1", [1, 0]), ("h2", [0, "1"]), ("h3", form)]
    return {
        "dimension": 2,
        "hyperplanes": [{"id": hid, "form": f} for hid, f in planes],
        "residues": {hid: grid for hid, _ in planes},
    }


class TestAgainstFractionOracle:
    @settings(max_examples=300)
    @given(st.lists(ENTRY, min_size=2, max_size=2), st.lists(st.lists(ENTRY, min_size=2, max_size=2), min_size=2, max_size=2))
    def test_loaders_store_what_fractions_store(self, form, grid):
        obj = connection_object(form, grid)
        assert stored(connection_from_json, obj) == stored(oracle_connection, obj)

    @settings(max_examples=200)
    @given(TEXT, TEXT)
    def test_strings_as_form_and_residue_entries(self, a, b):
        obj = connection_object([a, [b, "1/3"]], [[a, "0"], ["1/2", [a, b]]])
        assert stored(connection_from_json, obj) == stored(oracle_connection, obj)

    @pytest.mark.parametrize(
        "text",
        ["/0", "1/-2", "1/+3", "+3", " 3", "3 ", "1_0", "0.5", "2.5e4300", "1e4301", "-1E-4301", "١/٢",
         "1" * 4300, "1" * 4301, "-" + "1" * 4300, "1/" + "2" * 4300, "1/" + "2" * 4301, "007/0020", "0/0"],
    )
    def test_edge_strings(self, text):
        obj = connection_object([text, 1], [[text, 0], [0, [1, text]]])
        assert stored(connection_from_json, obj) == stored(oracle_connection, obj)


def doubled(obj):
    """Every "p/q" string of a JSON value written as "2p/2q"."""
    if isinstance(obj, dict):
        return {k: doubled(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [doubled(v) for v in obj]
    if isinstance(obj, str) and "/" in obj:
        p, q = obj.split("/")
        return f"{2 * int(p)}/{2 * int(q)}"
    return obj


class TestUnreducedEntries:
    def test_two_quarters_store_one_half(self):
        halves = connection_object(["1/2", "-1/2"], [["1/2", "0"], [["0", "-3/2"], "1"]])
        quarters = connection_object(["2/4", "-2/4"], [["2/4", "0"], [["0", "-6/4"], "1"]])
        assert stored(connection_from_json, quarters) == stored(connection_from_json, halves)
        arr = connection_from_json(quarters).arrangement
        assert arr._integer_forms[0][2].tolist() == [1, -1] and arr._denominators[2] == 2  # not over 4

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_doubled_golden_files_store_the_same(self, tmp_path, variant):
        obj = json.loads(connection_file(tmp_path, 4, variant).read_text())
        assert stored(connection_from_json, doubled(obj)) == stored(connection_from_json, obj)

    def test_doubled_forms_store_the_same(self, tmp_path):
        for path in (explicit_file(tmp_path, True), random_arrangement_file(tmp_path)):
            obj = json.loads(path.read_text())
            plain, unreduced = arrangement_from_json(obj), arrangement_from_json(doubled(obj))
            assert [p.tolist() for p in unreduced._integer_forms] == [p.tolist() for p in plain._integer_forms]
            assert unreduced._denominators == plain._denominators


# -- call counts ------------------------------------------------------------------------

def counting(monkeypatch, module, name, calls):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))


class TestCallCounts:
    def test_golden_and_lauricella_files_load_without_fractions(self, tmp_path, monkeypatch, capsys):
        paths = [connection_file(tmp_path, n, v) for n in (2, 5) for v in VARIANTS]
        paths += [explicit_file(tmp_path, True), tmp_path / "a4.json"]
        assert main(["lauricella", "--n", "4", "--a", "1/11,1/12,1/13,1/14,1/15", "--out", str(paths[-1])]) == 0
        capsys.readouterr()
        calls = []
        for module in (nummod, arrmod):
            counting(monkeypatch, module, "parse_fraction", calls)
        for path in paths:
            load_connection(path)
        load_arrangement(random_arrangement_file(tmp_path))
        assert calls == []
        connection_from_json(connection_object(["2.5", 1], [[0, 0], [0, 0]]))
        assert calls == [("2.5",)]  # the guard sees the fallback

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_one_echelon_form_per_irreducible_restriction(self, n, monkeypatch):
        arr, calls = build_An(n), []
        counting(monkeypatch, arrmod, "_matroid_components", calls)
        assert len(arr.essential_irreducible_restrictions) == len(arr)
        assert len(calls) == len(arr)

    def test_every_block_of_a_reducible_arrangement_is_retested(self, monkeypatch):
        # A_2 x A_2 in C^4: the forms of A_2 on the first two and on the last two coordinates
        zero = (GaussianRational(0),) * 2
        planes = [Hyperplane(f"{h.id}{s}", form) for s in "ab" for h in build_An(2).hyperplanes
                  for form in [h.form + zero if s == "a" else zero + h.form]]
        arr, calls = Arrangement(4, planes), []
        counting(monkeypatch, arrmod, "_blocks", calls)
        assert arrmod.irreducible_decomposition(arr) == [[0, 1, 2], [3, 4, 5]]
        assert [list(indices) for _, indices in calls] == [[0, 1, 2, 3, 4, 5], [0, 1, 2], [3, 4, 5]]
        assert arr.essential_irreducible is False and arr._decomposition[1] == 4
