"""Closed-form existence and signature criteria for cone angles on the
braid arrangement, plus integrability and total-volume formulas.

All predicates accept exact rationals (fractions.Fraction), in which case
tolerances are bypassed, or floats, in which case the non-integrality
tolerance applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .connection import StandardConnection, weights
from .errors import InputError, PreconditionError

DEFAULT_TOL = 1e-9
BOUNDARY_EPS = 1e-12


def _entries(values) -> tuple:
    """The entries of an angle or parameter vector, of length n+1 >= 2."""
    entries = tuple(values)
    if len(entries) < 2:
        raise InputError("angle vector needs length n+1 >= 2")
    return entries


def frac(x):
    """Fractional part x - floor(x) in [0, 1); frac(-0.7) = 0.3."""
    return x - math.floor(x)


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _integrality(x, tol: float):
    """(is_integer, is_ambiguous) under the tolerance regime of x's type."""
    if _is_exact(x):
        return Fraction(x).denominator == 1, False
    dist = abs(x - round(x))
    if dist == 0.0:
        return True, False
    if dist <= tol:
        return True, True
    return False, False


def _snapped_frac(x, tol: float):
    """Fractional part, with float values within tol of an integer snapped
    to 0 (exact inputs are never snapped)."""
    if _is_exact(x):
        return frac(x)
    f = frac(x)
    if f <= tol or f >= 1 - tol:
        return 0.0
    return f


@dataclass(frozen=True)
class ExistenceReport:
    verdict: bool
    failed_condition: Optional[str]  # None | non-integer | positivity | signature
    witness: Optional[tuple]
    cone_angles: dict  # (i, j) -> alpha_i + alpha_j - 1
    ambiguous: tuple  # 1-based indices whose integrality is tolerance-limited


def pk_exists(alpha, tol: float = DEFAULT_TOL) -> ExistenceReport:
    """The three angle conditions, reported in the order they are checked:
    every alpha non-integer, every pairwise sum > 1, and the fractional sum
    below 1 or above n."""
    a = _entries(alpha)
    n = len(a) - 1
    cone_angles = {
        (i + 1, j + 1): a[i] + a[j] - 1 for i, j in combinations(range(n + 1), 2)
    }
    ambiguous = []
    failed = None
    witness = None
    for i, x in enumerate(a):
        is_int, is_amb = _integrality(x, tol)
        if is_amb:
            ambiguous.append(i + 1)
        if is_int and failed is None:
            failed = "non-integer"
            witness = (i + 1,)
    if failed is None:
        for (i, j), beta in cone_angles.items():
            if not beta > 0:
                failed = "positivity"
                witness = (i, j)
                break
    if failed is None:
        s = sum(_snapped_frac(x, tol) for x in a)
        if not (s < 1 or s > n):
            failed = "signature"
            witness = (s,)
    return ExistenceReport(failed is None, failed, witness, cone_angles, tuple(ambiguous))


@dataclass(frozen=True)
class SubsetRow:
    subset: tuple  # 1-based indices
    total: object
    positivity_ok: bool  # sum > |I| - 1
    non_integer_ok: bool


def subset_diagnostics(alpha, tol: float = DEFAULT_TOL):
    """Per-subset sums with the two hereditary conditions, |I| >= 2."""
    a = _entries(alpha)
    rows = []
    for size in range(2, len(a) + 1):
        for subset in combinations(range(len(a)), size):
            total = sum(a[i] for i in subset)
            is_int, _ = _integrality(total, tol)
            rows.append(
                SubsetRow(
                    tuple(i + 1 for i in subset),
                    total,
                    total > size - 1,
                    not is_int,
                )
            )
    return rows


@dataclass(frozen=True)
class SignatureResult:
    p: int
    q: int
    kernel_dim: int
    region: str  # T- | T+ | indefinite | degenerate


def signature_formula(a, tol: float = DEFAULT_TOL) -> SignatureResult:
    """Inertia of the invariant Hermitian form of the parameter vector a.

    The weight at infinity 2 - sum(a) joins the sequence; integer entries
    feed the kernel, and p = -1 + sum of fractional parts over the extended
    sequence (q likewise for 1 - a).
    """
    entries = _entries(a)
    n = len(entries) - 1
    a_inf = 2 - sum(entries)
    seq = list(entries) + [a_inf]
    kernel = 0
    p_sum = 0
    q_sum = 0
    for x in seq:
        is_int, _ = _integrality(x, tol)
        if is_int:
            kernel += 1
            continue
        f = _snapped_frac(x, tol)
        p_sum += f
        q_sum += 1 - f
    if kernel == n + 2:
        # every entry integral: the monodromy is trivial and the natural
        # form vanishes identically; the kernel is the whole space
        return SignatureResult(0, 0, n, "degenerate")
    p = int(round(p_sum)) - 1
    q = int(round(q_sum)) - 1
    if p + q + kernel != n:
        raise ArithmeticError(
            f"inertia counts are inconsistent (p={p}, q={q}, kernel={kernel}, n={n})"
        )
    if kernel > 0:
        region = "degenerate"
    elif q == n:
        region = "T-"
    elif p == n:
        region = "T+"
    else:
        region = "indefinite"
    return SignatureResult(p, q, kernel, region)


def region_geometry(a, eps: float = BOUNDARY_EPS) -> str:
    """Locate the fractional part of a relative to the two definite
    simplices: "T-" (s < 1), "T+" (s > n, a translate), the octahedral
    "hole" between them, or "boundary" within eps of any defining equality."""
    entries = _entries(a)
    n = len(entries) - 1
    fracs = [frac(x) for x in entries]
    on_face = any(
        (f == 0 if _is_exact(x) else (f <= eps or f >= 1 - eps))
        for f, x in zip(fracs, entries)
    )
    s = sum(fracs)
    if _is_exact(s):
        on_cut = s == 1 or s == n
    else:
        on_cut = abs(s - 1) <= eps or abs(s - n) <= eps
    if on_face or on_cut:
        return "boundary"
    if s < 1:
        return "T-"
    if s > n:
        return "T+"
    return "hole"


@dataclass(frozen=True)
class IntegrabilityReport:
    ok: bool
    witnesses: tuple  # flats with weight >= 1


def local_integrability(conn: StandardConnection) -> IntegrabilityReport:
    """Weight below 1 at every irreducible flat; equivalently the volume
    density prod |h|^(-2 a_H) is locally integrable."""
    report = weights(conn)
    witnesses = []
    for flat, w in report.table.items():
        if not w.is_real():
            raise PreconditionError("local integrability needs real weights")
        if not w.re < 1:
            witnesses.append(flat)
    return IntegrabilityReport(not witnesses, tuple(witnesses))


def alpha0_from_angles(alpha):
    """Angle along a generic line through the origin: sum(alpha) - n."""
    a = _entries(alpha)
    return sum(a) - (len(a) - 1)


def fs_volumes(alpha0, n: int):
    """Total volumes of the singular Fubini-Study metric and of the unit
    sphere of the cone: alpha0^(n-1) Vol(CP^(n-1)) and alpha0^n Vol(S^(2n-1)),
    the second being the first times 2 pi alpha0.  The first is a product
    of doubles while every factor is one, else formed in log space; a
    volume outside the double range is an InputError."""
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    if alpha0 <= 0:
        raise PreconditionError("origin at infinite distance (alpha0 <= 0)")
    try:
        try:  # pi^(n-1) overflows from n = 622, before (n-1)! is built
            vol_fs = float(alpha0) ** (n - 1) * (math.pi ** (n - 1) / math.factorial(n - 1))
        except OverflowError:
            x = Fraction(alpha0)
            log_x = math.log(x.numerator) - math.log(x.denominator)
            vol_fs = math.exp((n - 1) * (log_x + math.log(math.pi)) - math.lgamma(n))
        volumes = (vol_fs, vol_fs * float(alpha0) * 2.0 * math.pi)
        if math.inf in volumes:
            raise OverflowError
    except OverflowError:
        raise InputError(f"the volumes for n = {n} are outside the double range") from None
    return volumes
