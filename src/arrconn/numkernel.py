"""Shared linear-algebra kernels.

Exact side: Gaussian rationals (the field Q(i)), exact vectors and matrices,
and rank and kernel computations on one fraction-free elimination over the
Gaussian integers.  Every algebraic criterion in the package is decided over
Q(i), so equality tests never involve tolerances.

Floating side: complex double matrices, Hermitian signature, matrix
exponential and the adaptive Runge-Kutta transport used for holonomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArrConnError

_FRAC_ZERO = Fraction(0)


class GaussianRational:
    """An element of Q(i), stored as two exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse a rational string like "3/4", "-2" or "0.25"."""
        return GaussianRational(Fraction(text.strip()))

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        if isinstance(value, str):
            return GaussianRational.parse(value)
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


def vec_complex(u: ExactVector) -> np.ndarray:
    return np.array([complex(a) for a in u], dtype=complex)


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

def common_denominator(vector) -> int:
    """The lcm of the denominators of a vector of GaussianRationals."""
    return math.lcm(*(x.denominator for e in vector for x in (e.re, e.im)))


def cleared(vector, d=None):
    """A vector over Q(i) times d, by default its common denominator, as a
    pair of int lists (real parts, imaginary parts).  Entries may also be
    ints or Fractions."""
    vector = [GaussianRational.coerce(e) for e in vector]
    if d is None:
        d = common_denominator(vector)
    if d == 1:
        return [e.re.numerator for e in vector], [e.im.numerator for e in vector]
    return (
        [e.re.numerator * (d // e.re.denominator) for e in vector],
        [e.im.numerator * (d // e.im.denominator) for e in vector],
    )


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
    (``cleared`` makes them from rows over Q(i)); the input is not
    modified.  Bareiss's step replaces each other row x by
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
    core, pivots = _echelon_core([cleared(row) for row in rows])
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
    n_cols = len(rows[0])
    rref, pivots = row_echelon(rows)
    rank = len(pivots)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [GR_ZERO] * n_cols
        v[fc] = GR_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return rank, basis


def span_rank(vectors) -> int:
    return len(_echelon_core([cleared(v) for v in vectors])[1])


def independent_subset(vectors):
    """Indices of the greedy maximal independent subset: the pivot columns
    of one reduced echelon form of the vectors taken as columns."""
    return _echelon_core([cleared(row) for row in zip(*vectors)])[1]


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
    """Raised when the adaptive step size underflows near a singularity,
    or a path point lies on a hyperplane; the CLI reports it as a failed
    computation (exit 1)."""


# Dormand-Prince 5(4) tableau.  Row s of _DP_A weights the slopes of the
# stages before s; its last row is b5, so the last stage is evaluated at the
# fifth-order solution and its slope is the next step's first (FSAL).
# _DP_C holds the nodes of stages 1-6: stages 5 and 6 share the node 1.
_DP_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = np.array(
    [
        [0.0] * 7,
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    ]
)
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_A[6] - _DP_B4  # b5 - b4: x5 - x4 = h * _DP_E @ slopes
_DP_AE = np.vstack([_DP_A, _DP_E])  # the stage rows, then the error row
_DP_NODE = (None, 0, 1, 2, 3, 4, 4)  # the node each stage is evaluated at

MIN_STEP = 1e-13


def ode_transport(rhs, x0: np.ndarray, tol=1e-10):
    """Integrate linear systems dX/dt = A(t) X over t in [0, 1] by
    Dormand-Prince 5(4), for a stack of L independent lanes at once.

    x0 has shape (L, n, n) and tol is one value or one per lane.  rhs(ts)
    takes times of shape (L, k) and returns the finite complex matrices
    A(ts), shape (L, k, n, n); the caller guarantees pole avoidance.  It
    is called once at t = 0 and then once per iteration, at the five new
    nodes of every live lane's step; a finished lane's row holds its end
    time, 1.  Each lane keeps its own t, step size, accept/reject decision
    and error sum, and the step controller decides them for all lanes in
    one set of array operations, so a lane takes exactly the steps it
    would take alone.  A lane that reaches t = 1 is written out and leaves
    the stage arrays.  Each stage is one stacked product of the tableau
    row with the slopes, and the last slope of an accepted step is the
    first of the next.  Returns (X(1), err_est), where err_est, shape
    (L,), accumulates the local error estimates of each lane's accepted
    steps.  Aborts with PoleProximityError if the step size of any lane
    falls below MIN_STEP.
    """
    x0 = np.array(x0, dtype=complex)
    if x0.ndim != 3 or x0.shape[1] != x0.shape[2]:
        raise ValueError("initial value must be a stack of square matrices")
    lanes, n = x0.shape[:2]
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (lanes,))
    size = n * n
    x1 = np.empty_like(x0)
    err_out = np.zeros(lanes)
    nodes = np.zeros((lanes, 5))  # every lane's stage nodes; a finished lane's end time
    # the state of the live lanes, rows in the order of ``live``
    live = np.arange(lanes)
    x = x0.reshape(lanes, size)
    t = np.zeros(lanes)
    h = np.full(lanes, 0.05)
    err_sum = np.zeros(lanes)
    k = np.empty((lanes, 7, size), dtype=complex)
    k[:, 0] = (rhs(np.zeros((lanes, 1)))[:, 0] @ x0).reshape(lanes, size)
    norm_x = _norms(x)
    while live.size:
        h = np.minimum(h, 1.0 - t)
        if (h < MIN_STEP).any():
            raise PoleProximityError("path too close to singular locus")
        nodes[live] = t[:, None] + h[:, None] * _DP_C
        a = rhs(nodes)
        if live.size < lanes:
            a = a[live]
        ha = h[:, None, None] * _DP_AE
        for stage in range(1, 7):
            y = x[:, None] + ha[:, stage:stage + 1, :stage] @ k[:, :stage]
            k[:, stage] = (a[:, _DP_NODE[stage]] @ y.reshape(-1, n, n)).reshape(-1, size)
        y = y[:, 0]  # the input of the last stage: the fifth-order solution
        # near a blow-up these norms overflow; an overflowing norm shrinks
        # the step like any non-finite value, so the warnings are noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            err = _norms((ha[:, 7:] @ k)[:, 0])  # each lane's |x5 - x4|
            norm_y = _norms(y)
            scale = np.maximum(np.maximum(norm_x, norm_y), 1.0)
            rel = err / scale
            factor = 0.9 * (tol / rel) ** 0.2  # inf for a zero error
        finite = np.isfinite(err) & np.isfinite(scale)
        accept = finite & (rel <= tol)
        t = np.where(accept, t + h, t)
        grow = np.minimum(np.maximum(factor, 0.2), 5.0)
        h = h * np.where(accept, grow, np.where(finite, np.maximum(factor, 0.1), 0.1))
        np.copyto(x, y, where=accept[:, None])
        np.copyto(k[:, 0], k[:, 6], where=accept[:, None])
        norm_x = np.where(accept, norm_y, norm_x)
        err_sum = np.where(accept, err_sum + err, err_sum)
        done = t >= 1.0
        if done.any():
            out = live[done]
            x1[out] = x[done].reshape(-1, n, n)
            err_out[out] = err_sum[done]
            nodes[out] = t[done][:, None]
            keep = ~done
            live, x, k, t, h, err_sum, norm_x, tol = (
                v[keep] for v in (live, x, k, t, h, err_sum, norm_x, tol)
            )
    return x1, err_out


def _norms(v):
    """The 2-norm of each row of a complex (m, size) array, one row at a
    time, so a lane's step decisions do not depend on the other lanes in
    its stack."""
    w = v.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", w, w))
