"""Shared linear-algebra kernels.

Exact side: Gaussian rationals (the field Q(i)), exact vectors and matrices,
and rank and kernel computations on one fraction-free elimination over the
Gaussian integers.  Every algebraic criterion in the package is decided over
Q(i), so equality tests never involve tolerances.

Floating side: complex double matrices, Hermitian signature, matrix
exponential, and the Taylor-series transport of Fuchsian systems along
arcs, with its error bounds, used for holonomy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArrConnError, InputError

_FRAC_ZERO = Fraction(0)

MAX_EXPONENT = 4300  # the digit limit of Python's int parsing, so of the JSON reader


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent ("2.5e-3") above
    MAX_EXPONENT in magnitude: Fraction builds 10**k for the exponent k,
    which takes seconds from k = 10**7 on."""
    text = text.strip()
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT):
        raise InputError(f"decimal exponent of {text!r} is above {MAX_EXPONENT} in magnitude")
    return Fraction(text)


class GaussianRational:
    """An element of Q(i), stored as two exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} to a Gaussian rational")

    @staticmethod
    def _make(re: Fraction, im: Fraction) -> "GaussianRational":
        # internal constructor; caller guarantees Fraction components
        obj = GaussianRational.__new__(GaussianRational)
        obj.re = re
        obj.im = im
        return obj

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        if not (other.re or other.im):
            return self
        if not (self.re or self.im):
            return other
        return GaussianRational._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        if not (other.re or other.im):
            return self
        return GaussianRational._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            if not (self.re and other.re):
                return GR_ZERO
            return GaussianRational._make(self.re * other.re, _FRAC_ZERO)
        return GaussianRational._make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.re and not other.im:
            raise ZeroDivisionError("division by zero in Q(i)")
        if not self.im and not other.im:
            return GaussianRational(self.re / other.re)
        norm = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates and conversions -----------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    def is_integer(self) -> bool:
        return not self.im and self.re.denominator == 1

    def __eq__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _as_gauss(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)

ExactVector = tuple  # tuple of GaussianRational


# -- exact vectors -----------------------------------------------------------

def vec(values) -> ExactVector:
    return tuple(GaussianRational.coerce(v) for v in values)


def vec_dot(u: ExactVector, v: ExactVector) -> GaussianRational:
    """Bilinear pairing (no conjugation); applies a linear form to a
    vector.  The lattice and the exact checks use the integer views, so
    only small inputs come here, such as normal vectors and quotient
    forms, and no zero entries are skipped."""
    total = GR_ZERO
    for a, b in zip(u, v):
        total = total + a * b
    return total


class ExactMatrix:
    """Dense matrix over Q(i); small sizes, exact arithmetic throughout."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        grid = tuple(tuple(GaussianRational.coerce(e) for e in row) for row in entries)
        self.entries = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0
        if any(len(row) != self.cols for row in grid):
            raise ValueError("ragged matrix")

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix([[GR_ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(
            [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_columns(columns) -> "ExactMatrix":
        cols = [tuple(c) for c in columns]
        n = len(cols[0])
        return ExactMatrix([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def column(self, j: int) -> ExactVector:
        return tuple(row[j] for row in self.entries)

    def apply(self, v: ExactVector) -> ExactVector:
        return tuple(vec_dot(row, v) for row in self.entries)

    def __add__(self, other):
        return ExactMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        return ExactMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def scale(self, c) -> "ExactMatrix":
        c = GaussianRational.coerce(c)
        return ExactMatrix([[c * a for a in row] for row in self.entries])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        columns = list(zip(*other.entries))
        return ExactMatrix([[vec_dot(row, col) for col in columns] for row in self.entries])

    def trace(self) -> GaussianRational:
        total = GR_ZERO
        for i in range(min(self.rows, self.cols)):
            total = total + self.entries[i][i]
        return total

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def to_complex(self) -> np.ndarray:
        return np.array(
            [[complex(e) for e in row] for row in self.entries], dtype=complex
        )

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.entries)
        return f"ExactMatrix[{body}]"


# -- exact elimination -------------------------------------------------------

def cleared(vector):
    """A vector over Q(i) as a Gaussian-integer vector over one positive
    integer: (re, im, d), with re and im int lists and d the lcm of the
    entries' denominators, so that the vector is (re + i im) / d and
    gcd(d, re..., im...) = 1.  Entries may also be ints or Fractions."""
    vector = [GaussianRational.coerce(e) for e in vector]
    return cleared_pairs([((e.re.numerator, e.re.denominator), (e.im.numerator, e.im.denominator)) for e in vector])


def cleared_pairs(entries):
    """``cleared`` of entries given as integer pairs ((a, b), (c, e)) for
    a/b + i c/e, b, e > 0, not necessarily reduced: each numerator times
    d // den, then the common factors of d and the numerators divided out."""
    d = math.lcm(*(den for entry in entries for _, den in entry))
    re, im = ([a * (d // b) for a, b in (entry[k] for entry in entries)] for k in (0, 1))
    return lowest_terms(re, im, d)


def lowest_terms(re, im, d) -> tuple:
    """(re + i im) / d, for int lists re and im and a positive int d, as
    (re, im, d) with gcd(d, re..., im...) divided out; the input itself
    when that gcd is 1."""
    g = math.gcd(d, *re, *im)
    if g == 1:
        return re, im, d
    return [a // g for a in re], [b // g for b in im], d // g


def gaussian_ratio(re: int, im: int, d: int) -> GaussianRational:
    """(re + i im) / d for ints re, im and a positive int d."""
    return GaussianRational._make(Fraction(re, d), Fraction(im, d)) if re or im else GR_ZERO


def _over(re, im, d):
    """The Gaussian-integer vector (re + i im) / d, for a nonzero Gaussian
    integer d = (dr, di) that divides every entry."""
    if d == (1, 0):
        return re, im
    dr, di = d
    norm = dr * dr + di * di
    return (
        [(a * dr + b * di) // norm for a, b in zip(re, im)],
        [(b * dr - a * di) // norm for a, b in zip(re, im)],
    )


def _echelon_core(rows):
    """Fraction-free Gauss-Jordan elimination over Z[i] (Bareiss).

    Rows are Gaussian-integer vectors, (re, im) pairs of int sequences
    (the first two parts of ``cleared`` of rows over Q(i)); the input is
    not modified.  Bareiss's step replaces each other row x by
    (p*x - x[c]*y) / q, with p the pivot in column c of row y and q the
    previous pivot (1 at the first); the division is exact, as every entry
    is then a minor of the input, within Hadamard's bound.  A row with
    x[c] = 0 would only be scaled by p / q, so it is left as it was and
    remembers the pivot of its last step; its next step divides by that
    pivot instead, and a row turning pivot is first brought up to date.
    Returns (rows, pivot_columns): one (re, im) pair per pivot, a nonzero
    multiple of that row of the reduced echelon form.
    """
    work = list(rows)
    n_rows = len(work)
    n_cols = len(work[0][0]) if work else 0
    last = [(1, 0)] * n_rows  # the pivot of each row's last step
    q = (1, 0)
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if work[i][0][c] or work[i][1][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        last[r], last[pivot_row] = last[pivot_row], last[r]
        yr, yi = work[r]
        if last[r] != q:
            qr, qi = q
            yr, yi = _over(
                [qr * a - qi * b for a, b in zip(yr, yi)],
                [qr * b + qi * a for a, b in zip(yr, yi)],
                last[r],
            )
            work[r] = (yr, yi)
        pr, pi = yr[c], yi[c]
        for i in range(n_rows):
            xr, xi = work[i]
            fr, fi = xr[c], xi[c]
            if i == r or not (fr or fi):
                continue
            work[i] = _over(
                [pr * a - pi * b - fr * u + fi * v for a, b, u, v in zip(xr, xi, yr, yi)],
                [pr * b + pi * a - fr * v - fi * u for a, b, u, v in zip(xr, xi, yr, yi)],
                last[i],
            )
            last[i] = (pr, pi)
        q = last[r] = (pr, pi)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return work[:r], pivots


def row_echelon(rows):
    """Reduced row echelon form over Q(i): the rows of ``_echelon_core``
    divided by their pivot entries, then the zero rows.

    Returns (rref_rows, pivot_columns); input is not modified.
    """
    rows = list(rows)
    n_cols = len(rows[0]) if rows else 0
    core, pivots = _echelon_core([cleared(row)[:2] for row in rows])
    out = []
    for (xr, xi), c in zip(core, pivots):
        pr, pi = xr[c], xi[c]
        norm = pr * pr + pi * pi
        out.append(tuple(gaussian_ratio(a * pr + b * pi, b * pr - a * pi, norm) for a, b in zip(xr, xi)))
    out += [(GR_ZERO,) * n_cols] * (len(rows) - len(out))
    return out, pivots


def rank_kernel(matrix):
    """Rank and an exact kernel basis of a matrix over Q(i).

    Accepts an ExactMatrix or a sequence of row vectors.  The returned
    basis vectors are annihilated exactly; rank + len(basis) = cols.
    """
    rows = matrix.entries if isinstance(matrix, ExactMatrix) else [tuple(r) for r in matrix]
    if not rows:
        raise ValueError("rank_kernel of a matrix with no rows; use the identity basis")
    core, pivots = _echelon_core([cleared(row)[:2] for row in rows])
    return len(pivots), kernel_of_echelon(core, pivots, len(rows[0]))


def kernel_of_echelon(core, pivots, n_cols: int) -> list:
    """The kernel basis over Q(i) of rows in the form ``_echelon_core``
    returns: for each free column f, the vector with 1 at f, 0 at the other
    free columns, and -x[f] / x[c] at the pivot column c of each row x."""
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivot_set):
        v = [GR_ZERO] * n_cols
        v[fc] = GR_ONE
        for (xr, xi), c in zip(core, pivots):
            pr, pi, a, b = xr[c], xi[c], xr[fc], xi[fc]
            v[c] = gaussian_ratio(-(a * pr + b * pi), a * pi - b * pr, pr * pr + pi * pi)
        basis.append(tuple(v))
    return basis


def span_rank(vectors) -> int:
    return len(_echelon_core([cleared(v)[:2] for v in vectors])[1])


def independent_subset(vectors):
    """Indices of the greedy maximal independent subset: the pivot columns
    of one reduced echelon form of the vectors taken as columns."""
    return _echelon_core([cleared(row)[:2] for row in zip(*vectors)])[1]


def solve_exact(matrix: ExactMatrix, rhs: ExactVector):
    """One exact solution of matrix @ x = rhs, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(matrix.entries, rhs)]
    rref, pivots = row_echelon(aug)
    n = matrix.cols
    x = [GR_ZERO] * n
    for r, pc in enumerate(pivots):
        if pc == n:
            return None
        x[pc] = rref[r][n]
    return tuple(x)


def coordinates_in_basis(basis, v: ExactVector):
    """Coordinates of v in the span of basis vectors, or None if outside."""
    return solve_exact(ExactMatrix.from_columns(basis), v)


def same_span(basis_a, basis_b) -> bool:
    basis_a, basis_b = list(basis_a), list(basis_b)
    ra = span_rank(basis_a)
    rb = span_rank(basis_b)
    return ra == rb == span_rank(basis_a + basis_b)


# -- floating kernels --------------------------------------------------------

HERMITIAN_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class HermForm:
    """A conjugate-symmetric complex matrix (checked at construction)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Hermitian form must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite entries in Hermitian form")
        dev = np.linalg.norm(m - m.conj().T)
        scale = max(np.linalg.norm(m), 1.0)
        if dev > HERMITIAN_CHECK_TOL * scale:
            raise ValueError(f"matrix is not conjugate-symmetric (deviation {dev:.2e})")
        object.__setattr__(self, "matrix", (m + m.conj().T) / 2.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Signature:
    p: int
    q: int
    kernel_dim: int
    ambiguous: tuple = ()

    def as_tuple(self):
        return (self.p, self.q, self.kernel_dim)


def hermitian_signature(form, tol: float = 1e-8) -> Signature:
    """Inertia (p, q, kernel) of a Hermitian form by eigenvalue counts.

    Eigenvalues with |lambda| inside the band (tol/10, 10*tol) are reported
    in the ``ambiguous`` field; counting still uses the hard threshold tol.
    """
    matrix = form.matrix if isinstance(form, HermForm) else HermForm(form).matrix
    eigs = np.linalg.eigvalsh(matrix)
    p = int(np.sum(eigs > tol))
    q = int(np.sum(eigs < -tol))
    kernel = len(eigs) - p - q
    ambiguous = tuple(
        float(ev) for ev in eigs if tol / 10.0 < abs(ev) < tol * 10.0
    )
    return Signature(p, q, kernel, ambiguous)


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling and squaring, via scipy).

    scipy is imported here, on first use, as the rest of the package never
    needs it."""
    import scipy.linalg

    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp needs a square matrix")
    return scipy.linalg.expm(a)


class PoleProximityError(ArrConnError):
    """Raised when a transport path runs into a hyperplane, or a path point
    lies on one; the CLI reports it as a failed computation (exit 1)."""


# A step adds Taylor terms until its truncation bound is at most
# TRUNCATION_SHARE * tol / K, K the step count of its lane: far enough below
# tol that rounding, not truncation, sets the error, at the cost of a few
# terms, as the bound falls geometrically.  A series still above that at
# MAX_TERMS keeps its larger bound.
TRUNCATION_SHARE = 1e-4
MAX_TERMS = 1000
_EPS = np.finfo(float).eps
# series entries (rows x steps x columns) per batch of steps: on A_7 the
# products of a larger batch fell out of cache and ran several times slower
_CHUNK = 1 << 16


class StepPlan(namedtuple("StepPlan", "lane depth ts ratio w spread count stuck layout")):
    """The steps of ``ode_transport`` on a stack of arcs, read-only, with
    the ``chain_layout`` in which their sums are multiplied; made once by
    ``step_plan`` and kept for every connection on the arcs."""

    __slots__ = ()


ChainLayout = namedtuple("ChainLayout", "order spans slot")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def step_plan(hc, ho, sweep) -> StepPlan:
    """The steps of ``ode_transport`` on a stack of L arcs; they depend on
    the arcs alone, so one plan serves every connection on them.

    Lane l is the arc z(s) = c + exp(i theta s) o, s in [0, 1]: hc and ho,
    shape (L, m), hold h_k(c) and h_k(o), and sweep, shape (L,), theta.
    With tau = exp(i theta s) it lies on the line c + tau o, with poles
    tau_k = -h_k(c) / h_k(o) (none where h_k(o) = 0).  A lane steps from
    tau0 by u, of angle at most half the distance to the nearest pole, so
    the series at tau0 converges on the step; d_k = tau0 - tau_k.  In the
    plan, all read-only, step i is step depth[i] of lane[i], of count[i]
    steps; ts is the argument of ``rhs``; ratio = u / (i theta tau0); w =
    u / d_k, shape (steps, m); spread = |w| (|h_k(c)| + |h_k(o)|) /
    |h_k(z)|; stuck, whether a lane runs into a pole; layout, the
    ``chain_layout`` of the steps in their lanes, which ``chain_product``
    takes the step sums in.
    """
    hc, ho = np.asarray(hc, dtype=complex), np.asarray(ho, dtype=complex)
    sweep = np.asarray(sweep, dtype=float)
    lane, depth, phi, angle, stuck = _arc_steps(hc, ho, sweep)
    ts = np.ones((len(hc), depth.max(initial=-1) + 1))
    ts[lane, depth] = phi / np.abs(sweep[lane])
    turn = 1j * np.sign(sweep[lane])
    tau0 = np.exp(turn * phi)
    u = tau0 * np.expm1(turn * angle)
    hz = hc[lane] + tau0[:, None] * ho[lane]
    w = u[:, None] * ho[lane] / hz
    spread = np.abs(w) * (np.abs(hc[lane]) + np.abs(ho[lane])) / np.abs(hz)
    layout = chain_layout(lane, depth, len(hc))
    arrays = (lane, depth, ts, u / (1j * sweep[lane] * tau0), w, spread, np.bincount(lane, minlength=len(hc))[lane])
    for a in arrays + (layout.order, layout.slot):
        a.flags.writeable = False
    return StepPlan(*arrays, bool(stuck or not np.isfinite(w).all()), layout)


def chain_layout(chain, depth, count) -> ChainLayout:
    """The order in which ``chain_product`` takes the factors of ``count``
    chains, factor i being factor depth[i] of chain chain[i].

    The chains go by factor count, longest first (ties by index), and the
    factors by depth and then in that chain order, so that the chains with
    a factor at depth d are the first k_d.  order permutes the factors
    into this order; spans holds (lo, hi, k_d) for each depth, the
    reordered factors lo:hi being those of the first k_d chains; slot[c]
    is the place of chain c.
    """
    lengths = np.bincount(chain, minlength=count)
    slot = np.empty(count, dtype=int)
    slot[np.argsort(-lengths, kind="stable")] = np.arange(count)
    order = np.lexsort((slot[chain], depth))
    levels = np.bincount(depth)
    hi = np.cumsum(levels)
    return ChainLayout(order, tuple(zip((hi - levels).tolist(), hi.tolist(), levels.tolist())), slot)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # an overflowing bound stays inf
def ode_transport(rhs, plan, factors, tol=1e-10):
    """Fundamental solutions of a Fuchsian system along a stack of L arcs, by
    Taylor series on each arc's complex line; returns (X(1), err).

    plan is the ``step_plan`` of the arcs, for the connection sum_k A_k
    dh_k / h_k, which on the line of a lane is dX/dtau = sum_k A_k / (tau -
    tau_k) X; factors is (U, V, owner), an exact rank factorization of the
    residues: A_k is U[:, owner == k] @ V[owner == k], with U of shape (n,
    R), V of shape (R, n) and owner of shape (R,).  At a step start, with
    Y_0 = I and q_k = 0, the Taylor coefficients of X(tau0 + u) follow q_k
    <- (V_k Y_j - q_k) / d_k and Y_{j+1} = sum_k U_k q_k / (j + 1), for
    every step of every lane in one batch.  A step stops adding terms once
    the truncation bound of the residual argument,

        f(|u|) |u|^(N+1) / (N+1) sum_k |U_k|_2 |q_k|_F / (1 - |u| / r_k),

    with r_k = |d_k|, alpha_k = |A_k|_2 and f(t) = prod_k (1 - t / r_k)
    ^ -alpha_k, is at most TRUNCATION_SHARE tol over its lane's step count;
    a rounding term is added.  Each step stops on its own bound, so a
    lane's result does not depend on the other lanes of its stack.  A
    lane's X(1) and err, shape (L,), are the ``chain_product`` of its step
    sums and their bounds, in the plan's layout: err bounds the Frobenius
    norm of its error.

    rhs(ts) takes the step starts as times s of shape (L, k), row l holding
    lane l's starts in order and then 1.0, and returns dX/ds there, shape
    (L, k, n, n).  It is called once, before any series term, so its own
    checks (a pole test, say) come first; every step's first coefficient
    must then match it, or ValueError is raised.  PoleProximityError is
    raised when an arc runs into a pole, so that its steps stop making
    progress.
    """
    u_mat, v_mat, owner = factors
    lane, w = plan.lane, plan.w
    (lanes, _), (steps, m), (n, rows) = plan.ts.shape, w.shape, u_mat.shape
    slope = rhs(plan.ts)[lane, plan.depth]
    if plan.stuck:
        raise PoleProximityError("path too close to singular locus")
    residues = np.zeros((m, n, n), dtype=complex)
    np.add.at(residues, owner, u_mat.T[:, :, None] * v_mat[:, None, :])
    # u Y_1 = sum_k A_k u / d_k = u / (i theta tau0) dX/ds, to rounding;
    # the pole terms lose digits as (|h_k(c)| + |h_k(o)|) / |h_k(z)|
    gap = slope * plan.ratio[:, None, None] - (w @ residues.reshape(m, n * n)).reshape(-1, n, n)
    alpha = np.linalg.norm(residues, 2, axis=(1, 2)) if m else np.zeros(0)
    aw = np.abs(w)
    allowed = 1e-6 * np.sqrt(n) * (plan.spread @ alpha)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # in units of allowed, so that the norm of a finite gap does not
        # overflow; a gap that did overflow is left to the caller
        excess = np.linalg.norm(gap / allowed[:, None, None], axis=(1, 2))
    if (excess[np.isfinite(gap).all(axis=(1, 2))] > 1).any():
        raise ValueError("rhs disagrees with the Fuchsian data of its lanes")
    f = np.exp(-np.log1p(-aw) @ alpha)
    u_cols = np.linalg.norm(u_mat, axis=0)
    weight = f * u_cols[:, None] / (1.0 - aw.T[owner])  # (R, steps)
    target = TRUNCATION_SHARE * tol / plan.count
    sums, trunc, terms, z_norms = (np.empty((steps, n, n), dtype=complex), np.empty(steps), np.empty(steps), np.empty(steps))
    size = max(1, _CHUNK // max(1, rows * n))
    for lo in range(0, steps, size):
        part = slice(lo, lo + size)
        sums[part], trunc[part], terms[part], z_norms[part] = _taylor_sums(
            u_mat, v_mat, u_cols, w[part].T[owner], weight[:, part], target[part]
        )
    # each coefficient is formed with relative error about (n + R + 3) eps,
    # carried to the sum by at most f; adding N + 1 terms loses (N + 1) eps |S|_F
    rounding = 2 * _EPS * ((n + rows + 3) * f * z_norms + (terms + 1) * (np.sqrt(n) + z_norms))
    return chain_product(sums, trunc + rounding, lane, plan.depth, lanes, plan.layout)


def _taylor_sums(u_mat, v_mat, u_cols, w_rows, weight, target):
    """The Taylor sums S = sum_j u^j Y_j of a batch of steps, each to the
    first N whose truncation bound is at most its target (or MAX_TERMS).

    w_rows, shape (R, B), holds u / d_k at each row of V; weight, shape
    (R, B), the bound's factor f |U_r| / (1 - |u| / r_k) for each row.
    The coefficients run on stacks laid out (row, step, column), so that
    each product with U or V is one 2-D product over all steps; while
    every step is live they are scaled by one scalar, and the norm terms
    of all iterations are added up after the loop, in order.  Summing the
    bound over rows instead of over hyperplanes can only raise it.
    Returns (S, bound, N, a bound on sum_(j >= 1) |u^j Y_j|_F).
    """
    n, rows = u_mat.shape
    steps = w_rows.shape[1]
    g = v_mat[:, None, :] * w_rows[:, :, None]  # the scaled coefficients u^(j+1) q^(j), here j = 0
    # spread along the columns: a product of contiguous arrays is several
    # times faster than one that broadcasts the last axis, to the same bits
    w_rows = np.repeat(w_rows[:, :, None], n, axis=2)
    z = np.empty((n, steps, n), dtype=complex)
    vz = np.empty_like(g)
    z_flat, g_flat, vz_flat = z.reshape(n, steps * n), g.reshape(rows, steps * n), vz.reshape(rows, steps * n)
    g_real, g_norms = g.view(np.float64), np.empty((rows, steps))
    total = np.zeros_like(z)
    total[np.arange(n), :, np.arange(n)] = 1.0
    live = np.ones(steps, dtype=bool)
    trunc, terms, z_rows, full = np.zeros(steps), np.zeros(steps), [np.zeros(steps)], 0
    scale = np.empty((steps, n), dtype=complex)  # each step's factor, spread along the columns like w_rows
    for j in range(MAX_TERMS + 1):
        np.sqrt(np.einsum("ijk,ijk->ij", g_real, g_real, out=g_norms), out=g_norms)
        bound = np.add.reduce(weight * g_norms, axis=0) / (j + 1)
        np.copyto(trunc, bound, where=live)  # the bound of the sum up to u^j Y_j
        live &= bound > target
        alive = np.count_nonzero(live)
        if j == MAX_TERMS or not alive:
            break
        np.matmul(u_mat, g_flat, out=z_flat)
        if alive == steps:
            full += 1
            z *= 1 / (j + 1)  # u^(j+1) Y_(j+1)
            z_rows.append((u_cols @ g_norms) / (j + 1))
        else:
            terms += live
            scale[:] = (live / (j + 1))[:, None]
            z *= scale  # zero once a step is done
            z_rows.append(live * (u_cols @ g_norms) / (j + 1))
        total += z
        np.matmul(v_mat, z_flat, out=vz_flat)
        np.subtract(vz, g, out=g)
        g *= w_rows
    # accumulate adds the rows in order; a sum over a single step would add pairwise
    z_norms = np.add.accumulate(z_rows, axis=0)[-1]
    return total.transpose(1, 0, 2), trunc, terms + full, z_norms


@np.errstate(over="ignore", invalid="ignore")
def chain_product(mats, errs, chain, depth, count, layout=None):
    """The products of ``count`` chains of matrices, each with an error
    bound; returns (products, bounds), shapes (count, n, n) and (count,).

    Matrix i, shape (n, n), with a bound errs[i] on the Frobenius norm of
    its error, is factor depth[i] of chain chain[i]; depths run 0, 1, ...
    along a chain, and a chain's product has its last factor on the left.
    The products are taken by depth for all chains at once, in the
    ``chain_layout`` of the factors (layout, if given, else built here):
    the chains with a factor at a depth are a leading block there, so each
    level is one product of contiguous slices.  A chain's bound is the sum
    over its factors of |S_K ... S_(i+1)|_2 e_i |S_(i-1) ... S_1|_2, from
    the telescoped difference of the products, with the exact prefix norm
    bounded by the computed one plus the running bound e <- |S|_2 e + e_S
    (|M|_2 + e) on its error.  e_i includes the rounding of the product
    with the factor, and the 2-norms are bounded through the Gram
    matrices.
    """
    order, spans, slot = chain_layout(chain, depth, count) if layout is None else layout
    n = mats.shape[1]
    eye = np.eye(n, dtype=complex)
    # the factors in layout order, and before and after each the product of
    # the chain's earlier and of its later factors
    stack = np.empty((3, len(order), n, n), dtype=complex)
    stack[0], stack[1:] = mats[order], eye
    mats, prefix, after = stack
    out = np.broadcast_to(eye, (count, n, n)).copy()
    going = [k for _, _, k in spans[1:]] + [0]
    for (lo, hi, k), k_next in zip(spans, going):
        # the first k_next chains go on to the next depth, the others end here
        np.matmul(mats[lo:lo + k_next], prefix[lo:lo + k_next], out=prefix[hi:hi + k_next])
        if k_next < k:
            np.matmul(mats[lo + k_next:hi], prefix[lo + k_next:hi], out=out[k_next:k])
    for d in range(len(spans) - 1, 0, -1):
        (lo, hi, k), up = spans[d], spans[d - 1][0]
        np.matmul(after[lo:hi], mats[lo:hi], out=after[up:up + k])
    s_norm, p_norm, a_norm = _norm2_bound(stack.reshape(-1, n, n)).reshape(3, -1)
    step_err = errs[order] + n * np.sqrt(n) * _EPS * s_norm
    err, running = np.zeros(count), np.zeros(count)
    for lo, hi, k in spans:
        now = running[:k]
        term = step_err[lo:hi] * (p_norm[lo:hi] + now)
        err[:k] += a_norm[lo:hi] * term
        now *= s_norm[lo:hi]
        now += term
    return out[slot], err[slot]


def _arc_steps(hc, ho, sweep):
    """The steps of every lane, in order of depth and then lane: arrays
    (lane, depth, phi, angle) of each step's lane, index along the lane,
    start angle and angle, and whether some lane stopped making progress.
    A step covers at most half the distance from its start exp(i phi) to
    the nearest pole, or the rest of the sweep."""
    poles = np.divide(-hc, ho, out=np.full_like(hc, np.inf), where=ho != 0)
    total, turn = np.abs(sweep), np.sign(sweep)
    phi = np.zeros(len(sweep))
    live = np.flatnonzero(total > 0)
    steps, stuck = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0), np.zeros(0))], False
    while live.size and not stuck:
        start = phi[live]
        r = np.abs(np.exp(1j * turn[live] * start)[:, None] - poles[live]).min(axis=1, initial=np.inf)
        rest = total[live] - start
        last = r / 2 >= rest
        angle = np.where(last, rest, r / 2)
        steps.append((live, np.full(live.size, len(steps) - 1), start, angle))
        phi[live] = start + angle
        stuck = (~last & (phi[live] == start)).any()
        live = live[~last]
    return (*(np.concatenate(part) for part in zip(*steps)), stuck)


def _norm2_bound(x):
    """An upper bound on the 2-norm of each matrix of a (B, n, n) stack: the
    square root of the largest absolute row sum of its Gram matrix."""
    gram = np.abs(np.conj(x.transpose(0, 2, 1)) @ x)
    return np.sqrt(gram.sum(axis=2).max(axis=1))
