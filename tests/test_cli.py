import json
import time

import pytest

import arrconn.arrangement as arrmod
import arrconn.numkernel as nummod
from arrconn.cli import main


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
        ],
        ids=["form-zero-denominator", "residue-zero-denominator", "residue-ragged-row", "residues-list"],
    )
    def test_malformed_rational_exits_2(self, capsys, tmp_path, obj, commands):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        for command in commands:
            code, _, err = run(capsys, command, str(path))
            assert code == 2
            assert err.startswith("error:") and err.count("\n") == 1

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
        ],
        ids=[
            "dimension-not-integer",
            "hyperplanes-not-list",
            "dimension-float",
            "dimension-fraction-string",
            "dimension-bool",
            "n-float",
            "n-bool",
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
        for module, name in [(arrmod, "rank_kernel"), (nummod, "rank_kernel"), (arrmod, "flat_from_indices")]:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        code, out, _ = run(capsys, "lattice", str(path), "--json")
        assert code == 0 and json.loads(out)["flat_count"] == 203
        assert calls == []

    def test_determinism(self, capsys, a2_file):
        _, out1, _ = run(capsys, "lattice", a2_file, "--json")
        _, out2, _ = run(capsys, "lattice", a2_file, "--json")
        assert out1 == out2


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
        # a minimum step above the first step size fails the first step
        monkeypatch.setattr("arrconn.numkernel.MIN_STEP", 1.0)
        code, _, err = run(capsys, "holonomy", lauricella_file)
        assert code == 1
        assert err == "error: path too close to singular locus\n"

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
            raise AssertionError("braid_hyperplanes called")

        monkeypatch.setattr(arrmod, "braid_hyperplanes", refuse)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj if command == "lattice" else {**obj, "residues": {}}))
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        field = "n" if "builtin" in obj else "dimension"
        assert err == f"error: field {field!r} must be at most {arrmod.MAX_DIMENSION}\n"

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
