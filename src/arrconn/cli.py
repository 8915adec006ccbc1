"""Command-line front end.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input
error, 3 resource cap exceeded.  The ARRCONN_CAP environment variable
overrides the lattice cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import arrangement as arrmod
from . import connection as connmod
from . import holonomy as holmod
from . import lauricella as laumod
from . import pkcriteria as pkmod
from .errors import ArrConnError, InputError, LatticeCapError


def _parse_fraction_list(text: str):
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(",") if tok.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational list {text!r}: {exc}") from None


def _complex_json(z: complex):
    return [float(z.real), float(z.imag)]


def _matrix_json(m: np.ndarray):
    return [[_complex_json(z) for z in row] for row in np.asarray(m)]


def _flat_json(arr, flat):
    return {
        "codim": flat.codim,
        "dim": flat.dim,
        "hyperplanes": [arr.hyperplanes[i].id for i in flat.containing],
    }


def _emit(obj, as_json: bool, human_lines):
    if as_json:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _default_cap(args) -> int:
    cap, source = getattr(args, "cap", None), "--cap"
    if cap is None:
        env = os.environ.get("ARRCONN_CAP")
        if not env:
            return arrmod.DEFAULT_LATTICE_CAP
        try:
            cap, source = int(env), "ARRCONN_CAP"
        except ValueError:
            raise InputError(f"ARRCONN_CAP must be an integer, got {env!r}") from None
    if cap < 0:
        raise InputError(f"{source} must be a non-negative integer, got {cap}")
    return cap


def cmd_lattice(args) -> int:
    """The lattice report.  Each flat's components are the matroid blocks
    of its containing set, so no component flat is built; the rank and
    essentiality are read from the last flat, the one of greatest codim,
    which is the center, and its blocks are the decomposition."""
    arr = arrmod.load_arrangement(args.file)
    lattice = arr.lattice(cap=_default_cap(args))
    center = lattice.flats[-1]
    rank, essential = center.codim, center.codim == arr.dimension
    flats = []
    for flat in lattice.flats:
        entry = _flat_json(arr, flat)
        blocks = arrmod._blocks(arr, flat.containing)[0]
        entry["irreducible"] = len(blocks) == 1
        entry["components"] = [[arr.hyperplanes[i].id for i in b] for b in blocks]
        flats.append(entry)
    obj = {
        "dimension": arr.dimension,
        "hyperplane_count": len(arr),
        "flat_count": len(lattice),
        "rank": rank,
        "essential": essential,
        "decomposition": flats[-1]["components"],
        "flats": flats,
    }
    lines = [
        f"dimension {arr.dimension}, {len(arr)} hyperplanes, {len(lattice)} flats",
        f"rank {rank}, essential: {essential}",
        "irreducible blocks: "
        + ("; ".join(",".join(ids) for ids in obj["decomposition"]) or "(none)"),
        "flats (codim | hyperplanes | irreducible):",
    ]
    for entry in flats:
        ids = ",".join(entry["hyperplanes"]) or "(ambient)"
        lines.append(f"  {entry['codim']} | {ids} | {entry['irreducible']}")
    _emit(obj, args.json, lines)
    return 0


def cmd_check(args) -> int:
    conn = connmod.load_connection(args.file)
    cap = _default_cap(args)
    torsion = connmod.check_torsion_free(conn)
    flatness = connmod.check_flat(conn, cap=cap)
    weight_report = connmod.weights(conn, cap=cap)
    arr = conn.arrangement
    weight_rows = [
        {
            "hyperplanes": [arr.hyperplanes[i].id for i in flat.containing],
            "codim": flat.codim,
            "weight": arrmod._entry_to_json(w),
        }
        for flat, w in weight_report.table.items()
    ]
    constraint_rows = []
    constraints_ok = True
    try:
        constraints = connmod.check_weight_constraints(conn, cap=cap)
        for row in constraints.rows:
            constraint_rows.append(
                {
                    "h0": row.h0,
                    "valid": row.restriction_essential_irreducible,
                    "residual": arrmod._entry_to_json(row.residual),
                }
            )
        constraints_ok = constraints.all_zero if constraints.any_valid else True
    except ArrConnError as exc:
        constraint_rows.append({"skipped": str(exc)})
    checks = {
        "torsion_free": torsion.ok,
        "flat": flatness.ok,
        "nonzero_weights": weight_report.ok,
        "linear_constraints": constraints_ok,
    }
    first_failure = next((k for k, v in checks.items() if not v), None)
    obj = {
        "checks": checks,
        "first_failure": first_failure,
        "torsion_violators": list(torsion.violators),
        "flatness_violations": [
            {"hyperplane": hid, **_flat_json(arr, flat)}
            for flat, hid in flatness.violations
        ],
        "zero_weight_flats": [_flat_json(arr, f) for f in weight_report.zero_flats],
        "weights": weight_rows,
        "linear_constraints": constraint_rows,
    }
    lines = [f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks.items()]
    if first_failure:
        lines.append(f"first failure: {first_failure}")
        if first_failure == "flat" and flatness.violations:
            flat, hid = flatness.violations[0]
            ids = ",".join(arr.hyperplanes[i].id for i in flat.containing)
            lines.append(f"  commutator violation at flat [{ids}] with {hid}")
    else:
        lines.append("all checks passed")
    _emit(obj, args.json, lines)
    return 0 if first_failure is None else 1


def cmd_lauricella(args) -> int:
    a = _parse_fraction_list(args.a)
    if len(a) != args.n + 1:
        raise InputError(f"expected n+1 = {args.n + 1} parameters, got {len(a)}")
    conn = laumod.reduced_residues(a)
    obj = connmod.connection_to_json(conn)
    text = json.dumps(obj, sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(str(exc)) from None
        if not args.json:
            print(f"wrote connection for n={args.n} to {args.out}")
        else:
            print(text)
    else:
        print(text)
    return 0


def cmd_recover(args) -> int:
    conn = connmod.load_connection(args.file)
    result = laumod.recover_parameters(conn, cap=_default_cap(args))
    obj = {
        "ok": result.ok,
        "ambiguous": result.ambiguous,
        "failure": result.failure,
        "parameters": [ arrmod._entry_to_json(x) for x in result.parameters ] if result.parameters else None,
        "traces": {f"{i},{j}": arrmod._entry_to_json(t) for (i, j), t in sorted(result.traces.items())},
    }
    if result.ok:
        lines = ["recovered parameters: " + ", ".join(repr(x) for x in result.parameters)]
    else:
        lines = [f"recovery failed: {result.failure}"]
    _emit(obj, args.json, lines)
    return 0 if result.ok else 1


def cmd_pk_exists(args) -> int:
    alpha = _parse_fraction_list(args.alpha)
    report = pkmod.pk_exists(alpha)
    obj = {
        "verdict": "yes" if report.verdict else "no",
        "failed_condition": report.failed_condition,
        "witness": [str(w) for w in report.witness] if report.witness else None,
        "cone_angles": {
            f"{i},{j}": float(b) for (i, j), b in sorted(report.cone_angles.items())
        },
        "ambiguous": list(report.ambiguous),
    }
    lines = [f"verdict: {obj['verdict']}"]
    if report.failed_condition:
        lines.append(f"failed condition: {report.failed_condition} (witness {report.witness})")
    lines.append(
        "cone angles / 2pi: "
        + ", ".join(f"({i},{j})={float(b):.6g}" for (i, j), b in sorted(report.cone_angles.items()))
    )
    _emit(obj, args.json, lines)
    return 0 if report.verdict else 1


def cmd_signature(args) -> int:
    a = _parse_fraction_list(args.a)
    result = pkmod.signature_formula(a)
    obj = {
        "p": result.p,
        "q": result.q,
        "kernel_dim": result.kernel_dim,
        "region": result.region,
    }
    _emit(obj, args.json, [f"signature (p,q) = ({result.p},{result.q}), kernel {result.kernel_dim}, region {result.region}"])
    return 0


def cmd_volume(args) -> int:
    if args.alpha:
        alpha = _parse_fraction_list(args.alpha)
        n = len(alpha) - 1
        alpha0 = pkmod.alpha0_from_angles(alpha)
    else:
        if args.alpha0 is None or args.n is None:
            raise InputError("need either --alpha or both --alpha0 and --n")
        parsed = _parse_fraction_list(args.alpha0)
        if len(parsed) != 1:
            raise InputError(f"--alpha0 must be one rational, got {args.alpha0!r}")
        (alpha0,) = parsed
        n = args.n
        if n < 1:
            raise InputError(f"--n must be >= 1, got {n}")
    vol_fs, vol_sphere = pkmod.fs_volumes(alpha0, n)
    obj = {
        "alpha0": float(alpha0),
        "n": n,
        "vol_fs": vol_fs,
        "vol_sphere": vol_sphere,
    }
    _emit(
        obj,
        args.json,
        [f"alpha0 = {float(alpha0):.12g} (n = {n})", f"vol_FS = {vol_fs:.12g}", f"vol_sphere = {vol_sphere:.12g}"],
    )
    return 0


def cmd_holonomy(args) -> int:
    conn = connmod.load_connection(args.file)
    report = holmod.holonomy_report(conn, tol=args.tol, loops=args.loops, seed=args.seed)
    obj = {
        "basepoint": [_complex_json(z) for z in report.basepoint],
        "generators": [
            {
                "id": hid,
                "matrix": _matrix_json(mat),
                "err": err,
                "det": _complex_json(det),
            }
            for hid, mat, err, det in zip(
                report.generator_ids, report.matrices, report.errors, report.determinants
            )
        ],
        "central": (
            {"matrix": _matrix_json(report.central_matrix), "err": report.central_error}
            if report.central_matrix is not None
            else None
        ),
        "invariant_form_dim": len(report.invariant_form_basis),
        "invariant_forms": [_matrix_json(f.matrix) for f in report.invariant_form_basis],
        "signature": (
            {
                "p": report.signature.p,
                "q": report.signature.q,
                "kernel_dim": report.signature.kernel_dim,
            }
            if report.signature
            else None
        ),
        "irreducible": report.irreducibility.irreducible,
        "span_dim": report.irreducibility.span_dim,
        "invariant_subspace": (
            _matrix_json(report.irreducibility.invariant_subspace)
            if report.irreducibility.invariant_subspace is not None
            else None
        ),
        "max_err": report.max_err,
    }
    lines = [
        f"basepoint: {np.array2string(report.basepoint.real, precision=4)}",
        f"meridians transported: {len(report.matrices)} (max err {report.max_err:.3e})",
        f"invariant form space dimension: {len(report.invariant_form_basis)}",
    ]
    if report.signature:
        lines.append(
            f"signature (p,q) = ({report.signature.p},{report.signature.q}), "
            f"kernel {report.signature.kernel_dim} (up to overall sign)"
        )
    verdict = report.irreducibility.irreducible
    lines.append(
        "irreducible: " + ("ambiguous" if verdict is None else str(verdict))
    )
    _emit(obj, args.json, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not
    change it, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="arrconn",
        description="Flat logarithmic connections on hyperplane-arrangement complements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="intersection lattice report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("check", help="torsion-free / flat / weight checks")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lauricella", help="emit the braid-arrangement connection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True, help="comma-separated rationals, length n+1")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lauricella)

    p = sub.add_parser("recover", help="recover parameters from a connection file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("pk-exists", help="cone-metric existence criteria")
    p.add_argument("--alpha", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pk_exists)

    p = sub.add_parser("signature", help="signature of the invariant form")
    p.add_argument("--a", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("volume", help="total volumes from the angle data")
    p.add_argument("--alpha", help="angle vector (derives alpha0 and n)")
    p.add_argument("--alpha0", help="angle along a generic line")
    p.add_argument("--n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("holonomy", help="numerical holonomy report")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--loops", choices=["meridians", "central", "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_holonomy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LatticeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArrConnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
