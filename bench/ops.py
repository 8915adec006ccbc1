"""Run one op of each workload and compare its output with the expected
answer from ``workloads``.

``run_op`` is the timed part: it calls the program through module
attributes looked up at call time, so a traced run sees every call.
``check`` runs after the clock stops and returns a list of mismatches.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from fractions import Fraction
from types import SimpleNamespace

from workloads import HOLONOMY_TOL, DET_TOL, block_of_ids, hyperplane_id

# modules a user of each workload imports
IMPORTS = {
    "exact-sweep": ("arrconn.lauricella", "arrconn.connection"),
    "cli-cold": ("arrconn.cli",),
    "holonomy": ("arrconn.lauricella", "arrconn.holonomy", "arrconn.pkcriteria"),
}


def import_program(workload: str) -> SimpleNamespace:
    for name in IMPORTS[workload]:
        importlib.import_module(name)
    import arrconn

    return SimpleNamespace(**{
        name: getattr(arrconn, name)
        for name in ("arrangement", "lauricella", "connection", "cli", "holonomy", "pkcriteria")
        if hasattr(arrconn, name)
    })


def prepare(workload: str, mods) -> dict:
    """Program-side preparation that counts toward ``setup_s``."""
    if workload == "exact-sweep":
        arr = mods.lauricella.build_An(5)
        arr.lattice()
        mods.arrangement.irreducible_flats(arr)
        return {"arr": arr}
    if workload == "holonomy":
        return {"arrs": {n: mods.lauricella.build_An(n) for n in (2, 3, 4)}}
    return {}


def run_op(workload: str, mods, state: dict, op):
    if workload == "exact-sweep":
        lau, con = mods.lauricella, mods.connection
        conn = lau.reduced_residues(op.a, arrangement=state["arr"])
        if op.corrupt is not None:
            bad = hyperplane_id(op.corrupt)
            conn = con.StandardConnection(
                conn.arrangement,
                {hid: m.scale(2) if hid == bad else m for hid, m in conn.residues.items()},
            )
        return (
            conn,
            con.check_torsion_free(conn),
            con.check_flat(conn),
            con.weights(conn),
            con.check_weight_constraints(conn),
            lau.recover_parameters(conn),
        )
    if workload == "cli-cold":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods.cli.main(op.argv)
        return code, out.getvalue()
    if workload == "holonomy":
        conn = mods.lauricella.reduced_residues(op.a, arrangement=state["arrs"][op.n])
        report = mods.holonomy.holonomy_report(conn, tol=HOLONOMY_TOL)
        return report, mods.pkcriteria.signature_formula(op.a)
    raise ValueError(f"unknown workload {workload!r}")


def _gauss(value) -> tuple:
    return value.re, value.im


def _mismatch(errors: list, what: str, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def check(workload: str, op, output) -> list:
    errors = []
    if workload == "exact-sweep":
        _check_exact(op, output, errors)
    elif workload == "cli-cold":
        _check_cli(op, output, errors)
    else:
        _check_holonomy(op, output, errors)
    return errors


def _check_exact(op, output, errors):
    conn, torsion, flat, weights, constraints, recovery = output
    want = op.expect
    arr = conn.arrangement
    residues = {
        tuple(int(x) for x in hid.split("_")[1:]): [[_gauss(x) for x in row] for row in m.entries]
        for hid, m in conn.residues.items()
    }
    expected = {p: [[(x, 0) for x in row] for row in grid] for p, grid in want["residues"].items()}
    if residues != expected:
        errors.append("residues differ from the Jordan-Pochhammer matrices")
    _mismatch(errors, "torsion_free", torsion.ok, want["torsion_free"])
    _mismatch(errors, "flat", flat.ok, want["flat"])
    _mismatch(errors, "weights.ok", weights.ok, want["weights_ok"])
    table = {
        block_of_ids(arr.hyperplanes[i].id for i in f.containing): _gauss(w)
        for f, w in weights.table.items()
    }
    _mismatch(errors, "weights", table, {b: (w, 0) for b, w in want["weights"].items()})
    _mismatch(errors, "constraints.any_valid", constraints.any_valid, True)
    _mismatch(errors, "constraints.all_zero", constraints.all_zero, want["constraints_zero"])
    _mismatch(errors, "recovery.ok", recovery.ok, want["recovered"] is not None)
    if recovery.ok:
        got = tuple(_gauss(x) for x in recovery.parameters)
        _mismatch(errors, "recovered", got, tuple((x, 0) for x in want["recovered"]))


def _fraction_pair(entry) -> tuple:
    return Fraction(entry[0]), Fraction(entry[1])


def _check_cli(op, output, errors):
    code, text = output
    want = op.expect
    _mismatch(errors, "exit code", code, want["exit"])
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        errors.append(f"stdout is not JSON: {exc}")
        return
    if "weights" in want:
        passed = dict.fromkeys(("torsion_free", "flat", "nonzero_weights", "linear_constraints"), True)
        _mismatch(errors, "checks", obj["checks"], passed)
        table = {block_of_ids(row["hyperplanes"]): _fraction_pair(row["weight"]) for row in obj["weights"]}
        _mismatch(errors, "weights", table, {b: (w, 0) for b, w in want["weights"].items()})
    elif "recovered" in want:
        _mismatch(errors, "ok", obj["ok"], True)
        got = tuple(_fraction_pair(x) for x in obj["parameters"] or ())
        _mismatch(errors, "recovered", got, tuple((x, 0) for x in want["recovered"]))
    else:
        _mismatch(errors, "ok", obj["ok"], False)
        _mismatch(errors, "parameters", obj["parameters"], None)


def _check_holonomy(op, output, errors):
    report, formula = output
    want = op.expect
    p, q, kernel = want["signature"]
    _mismatch(errors, "signature_formula", (formula.p, formula.q, formula.kernel_dim), (p, q, kernel))
    got = report.signature.as_tuple() if report.signature is not None else None
    if got not in ((p, q, kernel), (q, p, kernel)) and not _ambiguous_miss(report.signature, (p, q, kernel)):
        errors.append(f"numeric signature {got} is not {(p, q, kernel)} up to sign")
    dets = dict(zip(report.generator_ids, report.determinants))
    _mismatch(errors, "meridians", sorted(dets), sorted(want["dets"]))
    for hid, expected in want["dets"].items():
        if hid in dets and not abs(dets[hid] - expected) < DET_TOL:
            errors.append(f"det T_{hid} = {dets[hid]:.9g}, expected {expected:.9g}")
    verdict = report.irreducibility.irreducible
    if verdict is not None:
        _mismatch(errors, "irreducible", verdict, want["irreducible"])


def _ambiguous_miss(signature, want) -> bool:
    """The numeric signature misses the closed form, but only by eigenvalues
    the program flagged as inside its tolerance band: each of those may
    belong to the kernel or to its sign's count, and some such assignment
    gives the closed form up to overall sign."""
    if signature is None or signature.as_tuple() in (want, (want[1], want[0], want[2])):
        return False
    plus = sum(1 for ev in signature.ambiguous if ev > 0)
    minus = len(signature.ambiguous) - plus
    p, q, _ = want
    return any(
        abs(signature.p - pp) <= plus and abs(signature.q - qq) <= minus
        for pp, qq in ((p, q), (q, p))
    )


def undecided(workload: str, op, output) -> bool:
    """A verdict the program reports as numerically ambiguous: an
    irreducibility verdict of None, or a signature that misses the closed
    form only through flagged eigenvalues.  Counted apart from right and
    wrong answers, as the program's specification asks such verdicts to be
    reported, not decided silently."""
    if workload != "holonomy":
        return False
    report = output[0]
    return report.irreducibility.irreducible is None or _ambiguous_miss(
        report.signature, op.expect["signature"]
    )
