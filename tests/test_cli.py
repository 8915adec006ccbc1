import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrconn.arrangement as arrmod
import arrconn.numkernel as nummod
from arrconn.cli import _parse_fraction_list, main
from arrconn.errors import InputError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"builtin": "A_n", "n": 2}))
    return str(path)


@pytest.fixture
def lauricella_file(tmp_path, capsys):
    path = tmp_path / "conn.json"
    code = main(["lauricella", "--n", "2", "--a", "1/10,2/10,3/10", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


class TestLattice:
    def test_braid_plane_flats(self, capsys, a2_file):
        code, out, _ = run(capsys, "lattice", a2_file, "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["flat_count"] == 5
        assert obj["essential"] is True

    def test_empty_arrangement(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dimension": 2, "hyperplanes": []}))
        code, out, _ = run(capsys, "lattice", str(path), "--json")
        assert code == 0
        assert json.loads(out)["flat_count"] == 1

    @pytest.mark.parametrize(
        "obj, commands",
        [
            (
                {"dimension": 1, "hyperplanes": [{"id": "h", "form": [["1/0", "0"]]}]},
                ("lattice",),
            ),
            (
                {"builtin": "A_n", "n": 2, "residues": {
                    "H_1_2": [["1/0", "0"], ["0", "0"]], "H_1_3": [["0", "0"], ["0", "0"]], "H_2_3": [["0", "0"], ["0", "0"]],
                }},
                ("check", "recover", "holonomy"),
            ),
            (
                {"builtin": "A_n", "n": 2, "residues": {
                    "H_1_2": [["1", "0"], ["0"]], "H_1_3": [["0", "0"], ["0", "0"]], "H_2_3": [["0", "0"], ["0", "0"]],
                }},
                ("check", "recover", "holonomy"),
            ),
            (
                {"builtin": "A_n", "n": 2, "residues": [[["1", "0"], ["0", "0"]]]},
                ("check", "recover", "holonomy"),
            ),
            # a string is not read one character per coefficient
            (
                {"dimension": 2, "hyperplanes": [{"id": "x", "form": "10"}, {"id": "y", "form": "01"}],
                 "residues": {"x": ["10", "00"], "y": ["00", "01"]}},
                ("lattice", "check", "recover", "holonomy"),
            ),
            (
                {"dimension": 2, "hyperplanes": [{"id": "x", "form": [1, 0]}, {"id": "y", "form": [0, 1]}],
                 "residues": {"x": ["10", "00"], "y": [[0, 0], [0, 1]]}},
                ("check", "recover", "holonomy"),
            ),
            # a JSON bool is not the integer 1 or 0
            (
                {"dimension": 2, "hyperplanes": [{"id": "x", "form": [True, 0]}, {"id": "y", "form": [0, 1]}]},
                ("lattice",),
            ),
            (
                {"dimension": 2, "hyperplanes": [{"id": "x", "form": [1, 0]}, {"id": "y", "form": [0, 1]}],
                 "residues": {"x": [[True, 0], [0, 0]], "y": [[0, 0], [0, False]]}},
                ("check", "recover", "holonomy"),
            ),
            # a JSON float is refused inside a [re, im] pair as it is bare
            (
                {"dimension": 2, "hyperplanes": [{"id": "x", "form": [[0.1, 0], [1, 0]]}, {"id": "y", "form": [0, 1]}]},
                ("lattice",),
            ),
            (
                {"dimension": 2, "hyperplanes": [{"id": "x", "form": [1, 0]}, {"id": "y", "form": [0, 1]}],
                 "residues": {"x": [[["1", "0"], ["0", 1e-7]], [0, 0]], "y": [[0, 0], [0, 1]]}},
                ("check", "recover", "holonomy"),
            ),
        ],
        ids=[
            "form-zero-denominator",
            "residue-zero-denominator",
            "residue-ragged-row",
            "residues-list",
            "form-string",
            "residue-row-string",
            "form-bool",
            "residue-bool",
            "form-pair-float",
            "residue-pair-float",
        ],
    )
    def test_malformed_rational_exits_2(self, capsys, tmp_path, obj, commands):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        for command in commands:
            code, _, err = run(capsys, command, str(path))
            assert code == 2
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "entry, message",
        [
            (1, "must be an object, got 1"),
            ("h", "must be an object, got 'h'"),
            ({"form": [1, 0]}, "missing field 'id'"),
            ({"id": "h"}, "missing field 'form'"),
        ],
        ids=["int", "string", "no-id", "no-form"],
    )
    def test_malformed_hyperplane_entry_says_what_is_wrong(self, capsys, tmp_path, entry, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 2, "hyperplanes": [entry]}))
        assert run(capsys, "lattice", str(path)) == (2, "", f"error: bad hyperplane entry: {message}\n")

    @pytest.mark.parametrize(
        "obj",
        [
            {"dimension": "abc", "hyperplanes": []},
            {"dimension": 2, "hyperplanes": 5},
            {"dimension": 2.7, "hyperplanes": []},
            {"dimension": "5/2", "hyperplanes": []},
            {"dimension": True, "hyperplanes": []},
            {"builtin": "A_n", "n": 2.5},
            {"builtin": "A_n", "n": True},
            {"dimension": 1, "hyperplanes": [{"id": None, "form": [1]}]},
            {"dimension": 1, "hyperplanes": [{"id": [1], "form": [1]}]},
            {"dimension": 1, "hyperplanes": [{"id": 1, "form": [1]}]},
            {"dimension": 1, "hyperplanes": [{"id": True, "form": [1]}]},
        ],
        ids=[
            "dimension-not-integer",
            "hyperplanes-not-list",
            "dimension-float",
            "dimension-fraction-string",
            "dimension-bool",
            "n-float",
            "n-bool",
            "id-null",
            "id-list",
            "id-number",
            "id-bool",
        ],
    )
    def test_bad_field_exits_2(self, capsys, tmp_path, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "lattice", str(path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "lattice", str(path))
        assert code == 2
        assert "line" in err

    def test_cap_exits_3(self, capsys, tmp_path):
        path = tmp_path / "a6.json"
        path.write_text(json.dumps({"builtin": "A_n", "n": 6}))
        code, _, err = run(capsys, "lattice", str(path))
        assert code == 3

    def test_cap_override_env(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "a3.json"
        path.write_text(json.dumps({"builtin": "A_n", "n": 3}))
        monkeypatch.setenv("ARRCONN_CAP", "2")
        code, _, _ = run(capsys, "lattice", str(path))
        assert code == 3

    def test_lattice_solves_no_kernel(self, capsys, tmp_path, monkeypatch):
        # components and the center come from the lattice's own flats
        path = tmp_path / "a5.json"
        path.write_text(json.dumps({"builtin": "A_n", "n": 5}))
        calls = []
        for module, name in [(arrmod, "kernel_of_echelon"), (nummod, "rank_kernel"), (arrmod, "flat_from_indices")]:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        code, out, _ = run(capsys, "lattice", str(path), "--json")
        assert code == 0 and json.loads(out)["flat_count"] == 203
        assert calls == []

    def test_determinism(self, capsys, a2_file):
        _, out1, _ = run(capsys, "lattice", a2_file, "--json")
        _, out2, _ = run(capsys, "lattice", a2_file, "--json")
        assert out1 == out2

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # the reader closes its end after one line, as `| head -1` does; the
        # ~300 kB report is far past what the pipe buffers, so writes fail
        import arrconn

        path = tmp_path / "a6.json"
        path.write_text(json.dumps({"builtin": "A_n", "n": 6}))
        src = os.path.dirname(os.path.dirname(os.path.abspath(arrconn.__file__)))
        argv = [sys.executable, "-m", "arrconn.cli", "lattice", str(path), "--cap", "40", "--json"]
        proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestCheck:
    def test_lauricella_passes(self, capsys, lauricella_file):
        code, out, _ = run(capsys, "check", lauricella_file, "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["first_failure"] is None

    def test_zero_residues_fail_weights(self, capsys, tmp_path):
        zero = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
        obj = {
            "builtin": "A_n",
            "n": 2,
            "residues": {"H_1_2": zero, "H_1_3": zero, "H_2_3": zero},
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 1
        assert json.loads(out)["first_failure"] == "nonzero_weights"

    def test_perturbed_names_commutator(self, capsys, lauricella_file, tmp_path):
        obj = json.loads(open(lauricella_file).read())
        obj["residues"]["H_1_2"][0][0] = ["5", "0"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "commutator" in out or "FAIL" in out


class TestRoundTrips:
    def test_emitted_file_recovers(self, capsys, lauricella_file):
        code, out, _ = run(capsys, "recover", lauricella_file, "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert obj["parameters"] == [["1/10", "0"], ["1/5", "0"], ["3/10", "0"]]

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_recover_honours_cap(self, capsys, tmp_path, monkeypatch, via):
        path = str(tmp_path / "a3.json")  # 6 hyperplanes
        assert main(["lauricella", "--n", "3", "--a", "1/10,2/10,3/10,1/5", "--out", path]) == 0
        if via == "env":
            monkeypatch.setenv("ARRCONN_CAP", "5")
        code, _, err = run(capsys, "recover", path, *(["--cap", "5"] if via == "flag" else []))
        assert code == 3
        assert "cap 5" in err

    @pytest.mark.parametrize("change", ["renamed-id", "other-arrangement"])
    def test_recover_refuses_a_non_braid_file_with_exit_2(self, capsys, lauricella_file, tmp_path, change):
        obj = json.loads(open(lauricella_file).read())
        first = obj["hyperplanes"][0]  # H_1_2, the form z_1 - z_2
        if change == "renamed-id":
            first["id"] = "H_9_9"
            obj["residues"]["H_9_9"] = obj["residues"].pop("H_1_2")
        else:
            first["form"] = [["1", "0"], ["-2", "0"]]
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "recover", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "braid" in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "c.json"
        code, stdout, err = run(
            capsys, "lauricella", "--n", "2", "--a", "1/10,1/5,3/10", "--out", str(out)
        )
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_emitted_json_reparses_exactly(self, capsys, lauricella_file):
        from arrconn.connection import connection_to_json, load_connection

        conn = load_connection(lauricella_file)
        assert json.loads(open(lauricella_file).read()) == connection_to_json(conn)


class TestNumericCommands:
    def test_pk_exists_yes(self, capsys):
        code, out, _ = run(capsys, "pk-exists", "--alpha", "0.9,0.9,0.9", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "yes"

    def test_pk_exists_no(self, capsys):
        code, out, _ = run(capsys, "pk-exists", "--alpha", "0.6,0.6,0.6", "--json")
        assert code == 1
        assert json.loads(out)["failed_condition"] == "signature"

    def test_signature(self, capsys):
        code, out, _ = run(capsys, "signature", "--a", "0.1,0.1,0.1", "--json")
        assert code == 0
        obj = json.loads(out)
        assert (obj["p"], obj["q"], obj["kernel_dim"]) == (0, 2, 0)

    def test_volume(self, capsys):
        import math

        code, out, _ = run(capsys, "volume", "--alpha", "0.9,0.9,0.9", "--json")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["vol_fs"] - 0.7 * math.pi) < 1e-12

    @pytest.mark.parametrize(
        "argv",
        [
            ("pk-exists", "--alpha", "1/2"),
            ("signature", "--a", "1/2"),
            ("volume", "--alpha", "1/2"),
            ("volume", "--alpha0", "1/2", "--n", "0"),
        ],
        ids=["pk-exists", "signature", "volume-alpha", "volume-n-0"],
    )
    def test_short_angle_vector_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("lauricella", "--n", "0", "--a", "1"), "parameter vector needs length n+1 >= 2"),
            (("pk-exists", "--alpha", "1"), "angle vector needs length n+1 >= 2"),
            (("signature", "--a", "1"), "angle vector needs length n+1 >= 2"),
        ],
        ids=["lauricella", "pk-exists", "signature"],
    )
    def test_length_one_vector_names_the_rule(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("pk-exists", "--alpha", "1/0,1/2"),
            ("signature", "--a", "1/0,1/2"),
            ("lauricella", "--n", "2", "--a", "1/0,1/2,1/3"),
            ("volume", "--alpha0", "1/0", "--n", "2"),
            ("volume", "--alpha0", "abc", "--n", "2"),
        ],
        ids=["pk-exists-1/0", "signature-1/0", "lauricella-1/0", "volume-alpha0-1/0", "volume-alpha0-abc"],
    )
    def test_bad_rational_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [("pk-exists", "--alpha", "0.9,0.9,0.9"), ("signature", "--a", "0.1,0.1,0.1")]
    )
    def test_tol_refused(self, capsys, argv):
        # the parameters are exact rationals, so no tolerance could apply
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_volume_needs_arguments(self, capsys):
        code, _, err = run(capsys, "volume")
        assert code == 2

    def test_holonomy_report(self, capsys, lauricella_file):
        code, out, _ = run(
            capsys, "holonomy", lauricella_file, "--json", "--tol", "1e-8"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["irreducible"] is True
        assert obj["invariant_form_dim"] == 1
        assert {obj["signature"]["p"], obj["signature"]["q"]} == {0, 2}

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_holonomy_bad_tol_exits_2(self, capsys, lauricella_file, tol):
        code, _, err = run(capsys, "holonomy", lauricella_file, "--tol", tol)
        assert code == 2
        assert "tolerance" in err

    # a tolerance must lie in [1e-15, 0.1): below double precision the
    # transport loses the invariant form (1e-16) or runs for minutes (1e-25)
    @pytest.mark.parametrize(
        "tol, code",
        [("0.1", 2), ("0.5", 2), ("0.05", 0), ("1e-15", 0), ("1e-16", 2), ("1e-25", 2), ("1e-40", 2)],
    )
    def test_holonomy_tolerance_below_tenth(self, capsys, lauricella_file, tol, code):
        got, _, err = run(capsys, "holonomy", lauricella_file, "--tol", tol)
        assert got == code
        if code:
            assert err.startswith("error:") and err.count("\n") == 1

    def test_holonomy_pole_proximity_is_one_line(self, capsys, lauricella_file, monkeypatch):
        # a walk that reports a lane stopped short of a pole, as one that
        # runs into a pole does, aborts the transport
        steps = nummod._arc_steps
        monkeypatch.setattr(nummod, "_arc_steps", lambda *args: (*steps(*args)[:4], True))
        code, _, err = run(capsys, "holonomy", lauricella_file)
        assert code == 1
        assert err == "error: path too close to singular locus\n"

    def test_holonomy_central_loop_error_has_its_own_line(self, capsys, lauricella_file):
        # with no meridian transported, the error is the central loop's
        code, out, _ = run(capsys, "holonomy", lauricella_file, "--loops", "central")
        _, js, _ = run(capsys, "holonomy", lauricella_file, "--loops", "central", "--json")
        err = json.loads(js)["central"]["err"]
        assert code == 0 and json.loads(js)["generators"] == []
        assert out.splitlines()[1:3] == ["meridians transported: 0", f"central loop transported (err {err:.3e})"]

    @pytest.mark.parametrize("v", ["100", "1e3", "1e200"])
    def test_holonomy_overflow_is_one_line(self, capsys, tmp_path, v):
        # the residue diag(v, 0): a bound of inf at v = 100, an SVD that did
        # not converge at 1e3, and an overflowing rhs check at 1e200
        path = tmp_path / "large.json"
        obj = {"dimension": 2, "hyperplanes": [{"id": "a", "form": [1, 0]}], "residues": {"a": [[v, 0], [0, 0]]}}
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "holonomy", str(path))
        assert (code, out) == (1, "")
        assert err == "error: transport overflowed: a holonomy matrix or its error bound is not finite\n"

    @pytest.mark.parametrize(
        "form, residue, message",
        [
            ([1, 0], [["1e400", 0], [0, 0]], "a residue entry is outside the double range"),
            (["1e400", 1], [[1, 0], [0, 0]], "a form entry is outside the double range"),
        ],
        ids=["residue", "form"],
    )
    def test_entry_past_the_double_range_exits_2(self, capsys, tmp_path, form, residue, message):
        # the exact checks read such an entry; the numeric view cannot hold it
        path = tmp_path / "huge.json"
        obj = {"dimension": 2, "hyperplanes": [{"id": "a", "form": form}], "residues": {"a": residue}}
        path.write_text(json.dumps(obj))
        assert run(capsys, "holonomy", str(path)) == (2, "", f"error: {message}\n")
        if form == [1, 0]:
            code, out, _ = run(capsys, "check", str(path))
            assert code == 0 and out.endswith("all checks passed\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("volume", "--alpha0", "1e200", "--n", "3"), "the volumes for n = 3 are outside the double range"),
            (("volume", "--alpha0", "1e400", "--n", "1"), "the volumes for n = 1 are outside the double range"),
            (("volume", "--alpha", "1e400,1/2,1/3"), "the volumes for n = 2 are outside the double range"),
            (("volume", "--alpha0", "1e-400", "--n", "1"), "the volumes for n = 1 are outside the double range"),
            (("volume", "--alpha", "1,1e-400"), "the volumes for n = 1 are outside the double range"),
            (("volume", "--alpha0", "1e-200", "--n", "3"), "the volumes for n = 3 are outside the double range"),
            (("pk-exists", "--alpha", "1e400,1/2,1/3"), "a cone angle is outside the double range"),
            (("lauricella", "--n", "1", "--a", "1e4300,1"), "an exact value has more than 4300 digits"),
            (("lauricella", "--n", "1", "--a", "5e4299,5e4299", "--json"), "an exact value has more than 4300 digits"),
            (("pk-exists", "--alpha", "8/5,8/5,8/5,1e-4300"), "an exact value has more than 4300 digits"),
            (("pk-exists", "--alpha", "8/5,8/5,8/5,1e-4300", "--json"), "an exact value has more than 4300 digits"),
        ],
        ids=["volume-alpha0", "volume-alpha0-n-1", "volume-alpha", "volume-tiny-alpha0", "volume-tiny-alpha",
             "volume-tiny-volumes", "pk-exists-angle",
             "lauricella-entry", "lauricella-sum", "pk-exists-witness", "pk-exists-witness-json"],
    )
    def test_unprintable_value_exits_2(self, capsys, argv, message):
        # a value to print is outside the double range, or has more digits
        # than str writes and the JSON reader reads (10**4300 has 4301): an
        # entry, a residue's a_1 + a_2, or the denominator of the fractional
        # sum that witnesses the signature condition
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_volumes_past_the_factorial_limit(self, capsys):
        # (171)! is not a double, but the volumes, about 1e-276, are
        code, out, _ = run(capsys, "volume", "--alpha0", "1/2", "--n", "172", "--json")
        obj = json.loads(out)
        assert code == 0 and 0 < obj["vol_fs"] < obj["vol_sphere"] < 1e-270

    def test_exact_signature_of_a_large_entry(self, capsys):
        assert run(capsys, "signature", "--a", "1e400,1/2,1/3") == (
            0, "signature (p,q) = (0,1), kernel 1, region degenerate\n", ""
        )

    def test_holonomy_determinism(self, capsys, lauricella_file):
        args = ("holonomy", lauricella_file, "--json", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestRepeatedCalls:
    def test_one_parser_same_output(self, capsys, lauricella_file):
        # main() reuses one parser per process: repeated calls, argparse
        # errors among them, print the same bytes and exit the same way
        import arrconn.cli

        calls = [
            ("check", lauricella_file, "--json"),
            ("signature", "--a", "1/10,1/5,3/10"),
            ("check", lauricella_file, "--bogus"),
            ("lauricella", "--n", "2"),
            ("volume",),
        ]

        def outcomes():
            got = []
            for argv in calls:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                got.append((code, captured.out, captured.err))
            return got

        first = outcomes()
        assert [code for code, _, _ in first] == [0, 0, 2, 2, 2]
        assert first[2][2].endswith("arrconn: error: unrecognized arguments: --bogus\n")
        assert first[3][2].startswith("usage: arrconn lauricella")
        assert outcomes() == first
        assert arrconn.cli.build_parser() is arrconn.cli.build_parser()


    def test_checks_on_fresh_files_keep_no_memory(self, capsys, tmp_path):
        # each fresh arrangement's lattice, and what is kept on it, dies with
        # the call; a module-level cache keyed by call would grow here
        paths = []
        for k in range(36):
            path = tmp_path / f"a{k}.json"
            main(["lauricella", "--n", str(3 + k % 3), "--a", ",".join(f"1/{10 + k + i}" for i in range(4 + k % 3)),
                  "--out", str(path)])
            paths.append(str(path))

        def check(batch):
            for path in batch:
                assert main(["check", path, "--json"]) == 0
            capsys.readouterr()

        check(paths[:6])  # warm-up: what is built once per process or per n
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            check(paths[6:])
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024, grown


class TestSizeBound:
    # a dimension or builtin n above MAX_DIMENSION is refused as the file
    # is read, before any hyperplane is built
    @pytest.mark.parametrize(
        "obj",
        [
            {"builtin": "A_n", "n": 1e308},
            {"builtin": "A_n", "n": "1e9"},
            {"builtin": "A_n", "n": "1e99999999"},
            {"builtin": "A_n", "n": "130/2"},
            {"builtin": "A_n", "n": arrmod.MAX_DIMENSION + 1},
            {"dimension": 1e30, "hyperplanes": []},
            {"dimension": 1000000000, "hyperplanes": []},
        ],
        ids=["n-1e308", "n-1e9-string", "n-huge-exponent-string", "n-fraction-string", "n-one-over", "dimension-1e30", "dimension-1e9"],
    )
    @pytest.mark.parametrize("command", ["lattice", "check", "holonomy"])
    def test_oversized_exits_2_at_once(self, capsys, tmp_path, monkeypatch, obj, command):
        def refuse(n):
            raise AssertionError("braid arrangement built")

        monkeypatch.setattr(arrmod, "_braid_rows", refuse)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj if command == "lattice" else {**obj, "residues": {}}))
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        field = "n" if "builtin" in obj else "dimension"
        assert err == f"error: field {field!r} must be at most {arrmod.MAX_DIMENSION}\n"

    @pytest.mark.parametrize("a", ["1/10", "abc"], ids=["parameters", "bad-parameters"])
    def test_lauricella_n_above_the_bound_exits_2_at_once(self, capsys, monkeypatch, a):
        # refused before --a is read or the braid arrangement is built
        import arrconn.lauricella as laumod

        def refuse(n):
            raise AssertionError("braid arrangement built")

        monkeypatch.setattr(laumod, "build_An", refuse)
        n = arrmod.MAX_DIMENSION + 1
        start = time.perf_counter()
        code, out, err = run(capsys, "lauricella", "--n", str(n), "--a", ",".join([a] * (n + 1)))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"error: --n must be at most {arrmod.MAX_DIMENSION}, got {n}\n")

    def test_largest_builtin_is_read(self):
        n = arrmod.MAX_DIMENSION
        arr = arrmod.arrangement_from_json({"builtin": "A_n", "n": str(n)})
        assert (arr.dimension, len(arr)) == (n, n * (n + 1) // 2)

    @pytest.mark.parametrize(
        "text",
        [b'{"builtin": "A_n", "n": ' + b"1" * 5000 + b"}", b'\xff\xfe{"builtin": "A_n", "n": 2}'],
        ids=["int-past-4300-digits", "not-utf-8"],
    )
    def test_unreadable_number_or_text_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        code, _, err = run(capsys, "lattice", str(path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


class TestExponentBound:
    # Fraction("1e99999999") builds 10**99999999; a decimal exponent past
    # the 4300-digit limit of the JSON reader is refused before that
    _A2 = {"builtin": "A_n", "n": 2}
    _ZERO = [["0", "0"], ["0", "0"]]

    @pytest.mark.parametrize(
        "obj, argv",
        [
            (
                {**_A2, "residues": {"H_1_2": [["1e99999999", "0"], ["0", "0"]], "H_1_3": _ZERO, "H_2_3": _ZERO}},
                ("check",),
            ),
            ({"dimension": 2, "hyperplanes": [{"id": "h", "form": ["1", "-1E-99999999"]}]}, ("lattice",)),
            (None, ("signature", "--a", "1/2,1e99999999,1/3")),
        ],
        ids=["residue-entry", "form-entry", "signature-a"],
    )
    def test_huge_exponent_exits_2_at_once(self, capsys, tmp_path, obj, argv):
        if obj is not None:
            path = tmp_path / "exp.json"
            path.write_text(json.dumps(obj))
            argv = (argv[0], str(path))
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exponent" in err

    def test_exponent_at_the_limit_is_read(self):
        assert _parse_fraction_list("1e4300, 3E-4300,2.5e+0_1") == (
            Fraction(10**4300), Fraction(3, 10**4300), Fraction(25),
        )
        with pytest.raises(InputError):
            _parse_fraction_list("1e4301")


class TestCapValues:
    # a negative cap is a malformed value (exit 2), not a resource limit
    # (exit 3); a cap of 0 is a valid, exceeded limit
    @pytest.mark.parametrize("command", ["lattice", "check", "recover"])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_negative_cap_exits_2(self, capsys, lauricella_file, monkeypatch, command, via):
        if via == "env":
            monkeypatch.setenv("ARRCONN_CAP", "-4")
        code, out, err = run(capsys, command, lauricella_file, *(["--cap", "-1"] if via == "flag" else []))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        name, value = ("--cap", "-1") if via == "flag" else ("ARRCONN_CAP", "-4")
        assert f"{name} must be a non-negative integer, got {value}" in err

    @pytest.mark.parametrize("command", ["lattice", "check", "recover"])
    def test_zero_cap_exits_3(self, capsys, lauricella_file, command):
        code, _, err = run(capsys, command, lauricella_file, "--cap", "0")
        assert code == 3
        assert "cap 0" in err


# numeric CLI arguments: rationals, and decimals with exponents up to the
# 4300 that the parser admits
_rational = st.builds(lambda p, q: f"{p}/{q}", st.integers(-(10**6), 10**6), st.integers(1, 10**6))
_decimal = st.builds(
    lambda m, digits, e: f"{m}.{digits}e{e}", st.integers(-999, 999), st.integers(0, 999), st.integers(-4300, 4300)
)
# positive values below the double range, down to the exponent the parser admits
_tiny = st.builds(lambda m, e: f"{m}e-{e}", st.integers(1, 999), st.integers(330, 4300))
_value = st.one_of(_rational, _decimal, _tiny)


def _vector(size=st.integers(1, 8)):
    return size.flatmap(lambda k: st.lists(_value, min_size=k, max_size=k)).map(",".join)


_argv = st.one_of(
    st.tuples(st.just("volume"), _vector().map("--alpha={}".format)),
    st.tuples(st.just("volume"), _value.map("--alpha0={}".format), st.integers(-2, 500).map("--n={}".format)),
    st.tuples(st.just("pk-exists"), _vector().map("--alpha={}".format)),
    st.tuples(st.just("signature"), _vector().map("--a={}".format)),
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.just("lauricella"),
            st.just(f"--n={n}"),
            st.one_of(_vector(st.just(n + 1)), _vector()).map("--a={}".format),
        )
    ),
)


class TestArgumentFuzz:
    @settings(max_examples=300)
    @given(argv=_argv, as_json=st.booleans())
    def test_numeric_arguments_exit_cleanly(self, argv, as_json):
        # every exit is 0, 1 or 2, never a traceback; exit 2 is one error line
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, *(["--json"] if as_json else [])])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    @settings(max_examples=200)
    @given(alpha0=st.one_of(_tiny, _value.filter(lambda v: Fraction(v) > 0)), n=st.integers(1, 500), angles=st.booleans())
    def test_positive_alpha0_is_never_printed_as_zero(self, alpha0, n, angles):
        # --alpha=1,x has n = 1 and alpha0 = x; a value or volume that
        # rounds to zero exits 2 with one line, as one past the top does
        argv = ["volume", f"--alpha=1,{alpha0}"] if angles else ["volume", f"--alpha0={alpha0}", f"--n={n}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--json"])
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            obj = json.loads(out.getvalue())
            assert code == 0 and obj["alpha0"] > 0 and obj["vol_fs"] > 0 and obj["vol_sphere"] > 0


# structural fuzz of the JSON loaders: a valid A_2 connection document,
# forms written out or builtin, with one to three nodes deleted or swapped
# for a JSON value of another kind
_swap = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.one_of(st.text(max_size=6), st.sampled_from(["", "1/0", "-1/2", "1e400", "H_1_2", "A_n"])),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["id", "form", "n", "builtin"]), st.integers(-2, 2), max_size=2),
)


def _documents():
    from arrconn.connection import connection_to_json
    from arrconn.lauricella import reduced_residues

    explicit = connection_to_json(reduced_residues([Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)]))
    builtin = {"builtin": "A_n", "n": 2, "residues": explicit["residues"]}
    return [explicit, builtin]


def _nodes(value, path=()):
    """The path of every node below the root, parents first."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


class TestDocumentFuzz:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=200)
    @given(data=st.data(), which=st.integers(0, 1), steps=st.integers(1, 3))
    def test_mutated_documents_exit_cleanly(self, workdir, data, which, steps):
        # every exit is 0, 1, 2 or 3, never a traceback; exit 2 is one error line.
        # holonomy reads the same document, then transports and analyses it
        doc = _documents()[which]
        for _ in range(steps):
            nodes = list(_nodes(doc))
            if not nodes:
                break
            *parents, key = data.draw(st.sampled_from(nodes))
            parent = doc
            for step in parents:
                parent = parent[step]
            if data.draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = data.draw(_swap)
        path = workdir / "doc.json"
        path.write_text(json.dumps(doc))
        for command in ("lattice", "check", "recover", "holonomy"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            assert code in (0, 1, 2, 3), (command, doc)
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (command, doc)
