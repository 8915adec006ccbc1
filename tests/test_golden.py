"""Byte-identity of the exact CLI commands.

``lattice``, ``check`` and ``recover``, plain and ``--json``, run in
process on A_2-A_5 Lauricella connection files: plain parameters, one
residue doubled (not flat, so ``check`` and ``recover`` fail), complex
parameters, and parameters whose numerators and denominators pass 2^63.
Forms are also read from JSON: A_3 with its forms written out, the same
file with one form scaled by 1/3 + i (the same arrangement, so every
command prints what it prints for the unscaled file), and ``lattice`` on
a seeded essential irreducible arrangement with complex entries past
2^63.  ``lattice`` and ``check`` also run on two reducible arrangements
with written-out forms: A_2 + A_1 in a basis that mixes the blocks, and a
block of four generic planes with a coloop.  ``check`` runs on
x, y, z, x + z, y + z in C^3, whose restriction to z is Boolean, so one
weight constraint is listed as not valid.
The sha256 of every command's stdout, stderr and exit code, in order, is
compared with a recorded digest per file, so any change to what these
commands print shows here.  ``holonomy`` is left out: its floating-point
output may differ between BLAS builds.  After an intended change of
output, each failing case reports the digest to record.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction as F

import pytest

from arrconn.cli import main
from arrconn.lauricella import build_An
from arrconn.numkernel import ExactMatrix, GaussianRational
from conftest import jordan_pochhammer

VARIANTS = ("plain", "doubled", "complex", "big")

DIGESTS = {
    "A_2-plain": "54bd67ea0dcdc45f35d4798f255e4e2b5fe2c83add710cd691c765312a44091f",
    "A_2-doubled": "442261b5ba27165126d14e7e0674541f08679476ed56f59b7dae84a000f6ec0b",
    "A_2-complex": "cf49b5023d825becc42dc359bf18fcab9942290aa8e2df72cd82d6fbbe32f624",
    "A_2-big": "e2eb3e07debf7eedb80a16a610d17c874b1c1e24ba395509a820536826cdd73a",
    "A_3-plain": "b0672ab81b73df5fd326992d457361d91cd918603ef96cb840f51133d40bc6d6",
    "A_3-doubled": "6705f013e153834ff225f86ea938fc3498f29f0e4c2a9a2545939c0554dd2509",
    "A_3-complex": "4d680cb442bb8876bcf149a77960287c5ae7d549f49b41ddde684259d6edc0f8",
    "A_3-big": "acf09f14d3fba87a6cf9c41f9de63a253761e1e054bf0b5f819e2d04fb7f5b5c",
    "A_4-plain": "3c48ac31de463181a1d40e3c8973b3b8252c7740594e0a4d62e50712e565e1aa",
    "A_4-doubled": "cc6a459668ee462111e52dfa9431350d43074dffe9ef2af8a291c791109de1ce",
    "A_4-complex": "c6daa232941fd6f244b9d5c88868c74cf78fd9694734e8f317c681e36ad7804a",
    "A_4-big": "fee3a408636a681d2a72a8c0b9d0cc9530e8644f72e4bb077858ce10d5d2581a",
    "A_5-plain": "6b57052b8072fbb86962b0242b91d719db574e4bccd985d596d616246c4b1fb2",
    "A_5-doubled": "58eadcd286ec20a69bc2111e0209534f131d7fb1b59acc2fb9a2958811fd795d",
    "A_5-complex": "71627928ec005b920aa8f3b128ad4832c1bf3ebf52c1e0fc16feacd47f001997",
    "A_5-big": "299ae06021293e5edb81c286b7381344eca1024fbbc63cf2997af76f98cf0c4b",
    "A_3-explicit": "b0672ab81b73df5fd326992d457361d91cd918603ef96cb840f51133d40bc6d6",
    "A_3-explicit-scaled": "b0672ab81b73df5fd326992d457361d91cd918603ef96cb840f51133d40bc6d6",
    "random-Qi": "f04d1d56e07fd19b8f7e4f230beea05f7ecb518952c8d703b371ad78725d5f25",
    "A2+A1": "19082e258849ce5cfec2bda9d53e5a78e9e587e01253effa183b9cf3efcb411d",
    "coloop": "1481a45482d1c181f7dadd729e8a1dd48699397a8207eea9e67dc0b324a9f896",
    "boolean-restriction": "7fe4b3a87f6f907acd2c8f3a02bfee456e8dd1d1eecb5080afa49c1cf2d58618",
}

COMMANDS = ("lattice", "check", "recover")


def parameters(n: int, variant: str) -> list:
    if variant == "complex":
        return [GaussianRational(F(1, 10 + i), F((-1) ** i, 7 + i)) for i in range(n + 1)]
    if variant == "big":
        return [F(2**64 + 1 + i, 3**41) if i % 2 else F(-(3**43) - i, 2**65 + 3) for i in range(n + 1)]
    return [F(1, 10 + i) for i in range(n + 1)]


def _entry(value) -> list:
    return [str(value.re), str(value.im)]


def connection_file(directory, n: int, variant: str):
    residues = jordan_pochhammer(parameters(n, variant))
    if variant == "doubled":
        residues["H_1_2"] = residues["H_1_2"].scale(2)
    obj = {
        "builtin": "A_n",
        "n": n,
        "residues": {hid: [[_entry(e) for e in row] for row in m.entries] for hid, m in residues.items()},
    }
    path = directory / f"A_{n}-{variant}.json"
    path.write_text(json.dumps(obj))
    return path


def explicit_file(directory, scaled: bool):
    """The plain A_3 Lauricella file with its forms written out; when
    ``scaled``, the form of H_1_3 is multiplied by 1/3 + i."""
    planes = build_An(3).hyperplanes
    factor = GaussianRational(F(1, 3), 1)
    residues = jordan_pochhammer(parameters(3, "plain"))
    obj = {
        "dimension": 3,
        "hyperplanes": [
            {"id": h.id, "form": [_entry(c * factor if scaled and h.id == "H_1_3" else c) for c in h.form]}
            for h in planes
        ],
        "residues": {hid: [[_entry(e) for e in row] for row in m.entries] for hid, m in residues.items()},
    }
    path = directory / f"A_3-explicit{'-scaled' if scaled else ''}.json"
    path.write_text(json.dumps(obj))
    return path


def random_arrangement_file(directory):
    """A seeded arrangement in C^3 over Q(i) with numerators and
    denominators past 2^63: four random forms, a fifth in the span of the
    first two and a sixth in the span of the third and fourth, so the
    lattice has two triple lines; it is essential and irreducible."""
    rng = random.Random(2718)

    def entry():
        return GaussianRational(F(rng.randint(-(2**70), 2**70), rng.randint(1, 2**66)), F(rng.randint(-9, 9), rng.randint(1, 7)))

    forms = [[entry() for _ in range(3)] for _ in range(4)]
    for a, b in ((0, 1), (2, 3)):
        lam = entry()
        forms.append([x + lam * y for x, y in zip(forms[a], forms[b])])
    obj = {"dimension": 3, "hyperplanes": [{"id": f"h{k}", "form": [_entry(c) for c in f]} for k, f in enumerate(forms)]}
    path = directory / "random-Qi.json"
    path.write_text(json.dumps(obj))
    return path


def reducible_file(directory, name: str):
    """A connection file on a reducible arrangement, forms written out.

    ``A2+A1``: A_2 in (x1, x2) with its Lauricella residues and A_1 in x3
    with residue (1/5 + i/7) E_33, a flat torsion-free direct sum, taken to
    the coordinates y of x = P y for a unimodular P that mixes the blocks:
    each form f becomes f P and each residue A becomes P^-1 A P.

    ``coloop``: in C^4, the four generic planes x1, x2, x3, x1 + x2 + x3
    (one block) and the coloop x1 + i x2 + 2/3 x4, with residue n (x) f at
    the form f for a fixed n: torsion free, not flat."""
    if name == "A2+A1":
        P = ExactMatrix([[1, 2, 0], [0, 1, 1], [1, 2, 1]])
        inverse = ExactMatrix([[-1, -2, 2], [1, 1, -1], [-1, 0, 1]])
        assert P @ inverse == ExactMatrix.identity(3)
        block = jordan_pochhammer(parameters(2, "plain"))
        residues = {hid: ExactMatrix([[*row, 0] for row in m.entries] + [[0, 0, 0]]) for hid, m in block.items()}
        residues["z"] = ExactMatrix([[0, 0, 0], [0, 0, 0], [0, 0, GaussianRational(F(1, 5), F(1, 7))]])
        forms = {h.id: h.form + (0,) for h in build_An(2).hyperplanes}
        forms["z"] = (0, 0, 1)
        forms = {hid: (ExactMatrix([f]) @ P).entries[0] for hid, f in forms.items()}
        residues = {hid: inverse @ m @ P for hid, m in residues.items()}
    else:
        i = GaussianRational(0, 1)
        forms = {"g1": (1, 0, 0, 0), "g2": (0, 1, 0, 0), "g3": (0, 0, 1, 0), "g4": (1, 1, 1, 0), "c": (1, i, 0, F(2, 3))}
        normals = {"g1": (1, 0, 2, 0), "g2": (0, 3, 0, 1), "g3": (1, 1, 1, 0), "g4": (0, 0, 1, 1), "c": (0, 0, 0, 1)}
        residues = {hid: ExactMatrix([[a * b for b in forms[hid]] for a in normals[hid]]) for hid in forms}
    obj = {
        "dimension": len(next(iter(forms.values()))),
        "hyperplanes": [{"id": hid, "form": [_entry(GaussianRational.coerce(c)) for c in f]} for hid, f in forms.items()],
        "residues": {hid: [[_entry(e) for e in row] for row in m.entries] for hid, m in residues.items()},
    }
    path = directory / f"{name}.json"
    path.write_text(json.dumps(obj))
    return path


def boolean_restriction_file(directory):
    """A connection file on x, y, z, x + z, y + z in C^3, essential and
    irreducible, whose restriction to z is Boolean, so ``check --json``
    lists z's weight constraint as not valid; the residue at each form f
    is n (x) f for a fixed n (torsion free), with complex and fractional
    entries, and the valid rows' residuals are not zero."""
    i = GaussianRational(0, 1)
    forms = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1), "x+z": (1, 0, 1), "y+z": (0, 1, 1)}
    normals = {"x": (1, 0, F(1, 3)), "y": (0, 2, 1), "z": (1, 1, i), "x+z": (F(1, 2), 0, 1), "y+z": (0, 1, 3)}
    residues = {hid: ExactMatrix([[a * b for b in forms[hid]] for a in normals[hid]]) for hid in forms}
    obj = {
        "dimension": 3,
        "hyperplanes": [{"id": hid, "form": [_entry(GaussianRational.coerce(c)) for c in f]} for hid, f in forms.items()],
        "residues": {hid: [[_entry(GaussianRational.coerce(e)) for e in row] for row in m.entries] for hid, m in residues.items()},
    }
    path = directory / "boolean-restriction.json"
    path.write_text(json.dumps(obj))
    return path


def output_digest(path, commands=COMMANDS) -> str:
    digest = hashlib.sha256()
    for command in commands:
        for extra in ((), ("--json",)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path), *extra])
            for part in (out.getvalue(), err.getvalue(), str(code)):
                digest.update(part.encode() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_output_matches_recorded_digest(tmp_path, n, variant):
    name = f"A_{n}-{variant}"
    got = output_digest(connection_file(tmp_path, n, variant))
    assert got == DIGESTS[name], f"{name}: {got}"


@pytest.mark.parametrize("scaled", [False, True], ids=["explicit", "explicit-scaled"])
def test_explicit_forms_match_recorded_digest(tmp_path, scaled):
    name = f"A_3-explicit{'-scaled' if scaled else ''}"
    got = output_digest(explicit_file(tmp_path, scaled))
    assert got == DIGESTS[name], f"{name}: {got}"


def test_scaled_forms_recover_as_the_braid_forms(tmp_path):
    # recover compares each form with the braid builder's up to a nonzero
    # factor over Q(i), so scaling H_1_3 by 1/3 + i changes nothing
    plain, scaled = (explicit_file(tmp_path, flag) for flag in (False, True))
    assert output_digest(scaled, ("recover",)) == output_digest(plain, ("recover",))


def test_random_arrangement_matches_recorded_digest(tmp_path):
    got = output_digest(random_arrangement_file(tmp_path), commands=("lattice",))
    assert got == DIGESTS["random-Qi"], f"random-Qi: {got}"


@pytest.mark.parametrize("name", ["A2+A1", "coloop"])
def test_reducible_arrangements_match_recorded_digest(tmp_path, name):
    got = output_digest(reducible_file(tmp_path, name), commands=("lattice", "check"))
    assert got == DIGESTS[name], f"{name}: {got}"


def test_boolean_restriction_matches_recorded_digest(tmp_path):
    got = output_digest(boolean_restriction_file(tmp_path), commands=("check",))
    assert got == DIGESTS["boolean-restriction"], f"boolean-restriction: {got}"
