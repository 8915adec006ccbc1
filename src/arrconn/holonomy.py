"""Numerical parallel transport on the arrangement complement.

Meridian and central loops with exact clearance, transport of fundamental
solutions by Taylor series on the complex line of each loop piece, with
error bounds, residue-limit diagnostics, invariant Hermitian forms of the
generated group, and the Burnside irreducibility test.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .arrangement import Arrangement, Flat, irreducible_components
from .connection import StandardConnection, localization_connection, weight_at_flat
from .errors import ArrConnError, InputError, PreconditionError
from .numkernel import (
    HermForm,
    PoleProximityError,
    Signature,
    _echelon_core,
    chain_product,
    hermitian_signature,
    matrix_exp,
    ode_transport,
    step_plan,
)

CLOSURE_TOL = 1e-12
MIN_TOL = 1e-15  # the smallest transport tolerance double precision can meet
POLE_TOL = 1e-14


@dataclass(frozen=True)
class Arc:
    """z(s) = center + exp(i * sweep * s) * offset for s in [0, 1]."""

    center: np.ndarray
    offset: np.ndarray
    sweep: float

    @property
    def first(self):
        return self.center + self.offset

    @property
    def last(self):
        return self.center + np.exp(1j * self.sweep) * self.offset


@dataclass(frozen=True)
class LoopPath:
    pieces: tuple
    basepoint: np.ndarray
    clearance: float

    def __post_init__(self):
        prev = self.basepoint
        for piece in self.pieces:
            if np.linalg.norm(piece.first - prev) > CLOSURE_TOL:
                raise ArrConnError("loop pieces are not contiguous")
            prev = piece.last
        if np.linalg.norm(prev - self.basepoint) > CLOSURE_TOL:
            raise ArrConnError("loop is not closed")


def _point_clearance(forms: np.ndarray, norms: np.ndarray, z: np.ndarray) -> float:
    if forms.size == 0:
        return np.inf
    return float(np.min(np.abs(forms @ z) / norms))


def loop_clearance(arr: Arrangement, pieces) -> float:
    """Minimum distance from the loop to any hyperplane, exact on each piece.

    On a piece, h(z(s)) = h(center) + exp(i sweep s) h(offset).  On the
    whole circle its modulus is least, ||h(center)| - |h(offset)||, where
    exp(i sweep s) h(offset) points against h(center); if the sweep does
    not reach that angle, the least value is at an end of the piece.  One
    product gives every form at the center and offset of every piece.
    """
    forms = arr.complex_forms
    if forms.size == 0 or not pieces:
        return np.inf
    h = forms @ np.array([[piece.center, piece.offset] for piece in pieces]).reshape(-1, arr.dimension).T
    hc, ho = h[:, 0::2], h[:, 1::2]  # (forms, pieces)
    sweep = np.array([piece.sweep for piece in pieces])
    ends = np.minimum(np.abs(hc + ho), np.abs(hc + np.exp(1j * sweep) * ho))
    reached = np.mod(np.sign(sweep) * (np.angle(-hc) - np.angle(ho)), 2 * np.pi) <= np.abs(sweep)
    least = np.where(reached, np.abs(np.abs(hc) - np.abs(ho)), ends)
    return float(np.min(least / np.linalg.norm(forms, axis=1)[:, None]))


def make_loop(arr: Arrangement, basepoint: np.ndarray, pieces) -> LoopPath:
    return LoopPath(tuple(pieces), np.asarray(basepoint, dtype=complex),
                    loop_clearance(arr, pieces))


# -- connection form -----------------------------------------------------------

def connection_form(conn: StandardConnection, z, v) -> np.ndarray:
    """Sum of A_H h(v)/h(z), the right-hand side of every transport.

    z and v are one point and direction, shape (n,), giving an (n, n)
    matrix, or stacks of k of them, shape (k, n), giving (k, n, n).
    Raises near a pole, naming the hyperplane of the first point that
    touches one.
    """
    forms, residues = conn.numeric
    n = conn.dimension
    z = np.asarray(z, dtype=complex)
    points = z.shape[:-1]
    # one 2-D product over all points; a stacked product would be one
    # small product per leading index
    hz = z.reshape(-1, n) @ forms.T
    small = np.abs(hz) < POLE_TOL
    if small.any():
        hid = conn.arrangement._ids[int(np.argmax(small.ravel())) % len(forms)]
        raise PoleProximityError(f"path touches hyperplane {hid}")
    c = (np.asarray(v, dtype=complex).reshape(-1, n) @ forms.T) / hz
    return (c @ residues).reshape(points + (n, n))


# -- loop construction -----------------------------------------------------------

@dataclass(frozen=True)
class MeridianData:
    hyperplane_id: str
    loop: LoopPath
    direction: np.ndarray  # line direction w with h(w) = 1
    t_star: complex  # parameter of the crossing with H
    safe_distance: float  # distance in the t-plane to other crossings


@dataclass(frozen=True)
class GeneratorSet:
    basepoint: np.ndarray
    meridians: tuple  # MeridianData, one per hyperplane in order
    central: LoopPath  # scaling loop around the origin
    plans: dict = field(default_factory=dict, compare=False, repr=False)  # StepPlan per loop selection


def _draw_basepoint(arr: Arrangement, seed: int) -> np.ndarray:
    """A deterministic real point with coordinates in (-1, 1) on a grid of
    1/1000, farther than 0.05 |p| from every hyperplane."""
    rng = random.Random(seed)
    forms = arr.complex_forms
    norms = np.linalg.norm(forms, axis=1) if forms.size else np.array([])
    for _ in range(1000):
        z = np.array([rng.randint(-999, 999) / 1000 for _ in range(arr.dimension)], dtype=complex)
        r = np.linalg.norm(z)
        if r == 0:
            continue
        if _point_clearance(forms, norms, z) > 0.05 * r:
            return z
    raise ArrConnError("no generic basepoint found in 1000 draws")


def _line_singularities(arr: Arrangement, p: np.ndarray, w: np.ndarray, skip: int) -> np.ndarray:
    """Crossing parameters of the line p + t w with the other hyperplanes."""
    forms = arr.complex_forms
    hw = forms @ w
    crossing = np.abs(hw) >= POLE_TOL * np.linalg.norm(forms, axis=1)  # else parallel
    crossing[skip] = False
    return -(forms[crossing] @ p) / hw[crossing]


def meridian(arr: Arrangement, basepoint: np.ndarray, hyperplane_id: str) -> MeridianData:
    """Approach arc toward the hyperplane, a full anticlockwise circle
    around the crossing, and the reversed approach back.

    The approach is a half circle in the line parameter over the chord from
    the basepoint to the approach point: with a real basepoint every other
    crossing sits on the real parameter axis, so a straight chord would hit
    them.  The circle radius is one third of the clear distance around the
    crossing.
    """
    k = arr.index_of(hyperplane_id)
    h = arr.complex_forms[k]
    w = h.conjugate() / (np.abs(h) ** 2).sum()  # h(w) = 1
    p = np.asarray(basepoint, dtype=complex)
    t_star = -(h @ p)
    if abs(t_star) < POLE_TOL:
        raise PreconditionError("basepoint lies on the hyperplane")
    others = _line_singularities(arr, p, w, k)
    d_min = np.min(np.abs(others - t_star), initial=np.inf)
    safe = min(abs(t_star), d_min)
    radius = safe / 3.0
    t_approach = t_star * (1.0 - radius / abs(t_star))
    half = t_approach / 2.0
    z_star = p + t_star * w
    z_approach = p + t_approach * w
    z_half = p + half * w
    pieces = (
        Arc(z_half, -half * w, -np.pi),
        Arc(z_star, z_approach - z_star, 2.0 * np.pi),
        Arc(z_half, half * w, np.pi),
    )
    return MeridianData(hyperplane_id, make_loop(arr, p, pieces), w, complex(t_star), float(safe))


def generator_loops(arr: Arrangement, seed: int = 0) -> GeneratorSet:
    """One meridian per hyperplane plus the central scaling loop, from a
    deterministic generic rational basepoint.

    Seeds whose loops come out with degenerate clearance are skipped
    deterministically; if every one of 50 basepoints gives degenerate
    loops, PreconditionError names the worst clearance of the last.  A set
    is kept on the arrangement per seed, arrays read-only; a refusal is not.
    """
    kept = vars(arr).setdefault("_generator_loops", {})
    if seed in kept:
        return kept[seed]
    if not len(arr):
        raise PreconditionError("generator loops need a nonempty arrangement")
    for attempt in range(50):
        p = _draw_basepoint(arr, seed + 7919 * attempt)
        meridians = tuple(meridian(arr, p, hid) for hid in arr._ids)
        central = make_loop(
            arr, p, (Arc(np.zeros(arr.dimension, dtype=complex), p, 2.0 * np.pi),)
        )
        loops = [m.loop for m in meridians] + [central]
        worst = min(loop.clearance for loop in loops)
        if worst > 1e-6 * np.linalg.norm(p):
            ends = [x for loop in loops for piece in loop.pieces for x in (piece.center, piece.offset)]
            for a in [p, *(m.direction for m in meridians), *ends]:  # p is each loop's basepoint too
                a.flags.writeable = False
            kept[seed] = GeneratorSet(p, meridians, central)
            return kept[seed]
    raise PreconditionError(
        f"no basepoint with non-degenerate generator loops in 50 draws "
        f"(worst loop clearance {worst:.3g}, need > 1e-6 |p|)"
    )


# -- transport -------------------------------------------------------------------

def residue_factors(conn: StandardConnection) -> tuple:
    """(U, V, owner), with A_k = U[:, owner == k] @ V[owner == k] for every
    residue, exactly over Q(i): the rows of V at k are the nonzero rows of
    the reduced row echelon form of A_k, from one echelon of its
    Gaussian-integer rows, and the columns of U at k are the pivot columns
    of A_k.  A rank-one residue costs one row and one column."""
    n, view = conn.dimension, conn.integer
    residues = conn.numeric[1].reshape(-1, n, n)
    columns, rows, owner = [], [], []
    for k, grid in enumerate(zip(view.re.tolist(), view.im.tolist())):
        core, pivots = _echelon_core(list(zip(*grid)))
        for (xr, xi), c in zip(core, pivots):
            pr, pi = xr[c], xi[c]
            norm = pr * pr + pi * pi
            rows.append([complex((a * pr + b * pi) / norm, (b * pr - a * pi) / norm) for a, b in zip(xr, xi)])
            columns.append(residues[k][:, c])
            owner.append(k)
    u = np.array(columns, dtype=complex).reshape(-1, n).T
    v = np.array(rows, dtype=complex).reshape(-1, n)
    return u, v, np.array(owner, dtype=int)


def piece_plan(arr: Arrangement, pieces):
    """The ``step_plan`` of the pieces' arcs on the hyperplanes of arr."""
    forms = arr.complex_forms
    center, offset = (np.array([getattr(piece, k) for piece in pieces]) @ forms.T for k in ("center", "offset"))
    return step_plan(center, offset, [piece.sweep for piece in pieces])


def transport_pieces(conn: StandardConnection, pieces, tol: float = 1e-8, plan=None):
    """The transport of each piece from the identity, as the lanes of one
    ``ode_transport`` call: a Taylor-series walk on the piece's complex
    line, with the residues in the exact rank factorization of
    ``residue_factors``, and plan, if given, their kept ``piece_plan``.
    Returns (matrices, bounds), shapes (P, n, n) and (P,); each bound covers
    the Frobenius norm of its matrix's error, and the truncation of each
    piece stays below TRUNCATION_SHARE tol."""
    n = conn.dimension
    if not pieces:
        return np.zeros((0, n, n), dtype=complex), np.zeros(0)
    center = np.array([piece.center for piece in pieces])
    offset = np.array([piece.offset for piece in pieces])
    sweep = np.array([piece.sweep for piece in pieces])
    turn = 1j * sweep[:, None]

    def rhs(ts):
        e = np.exp(turn * ts)[..., None]
        return connection_form(conn, center[:, None] + e * offset[:, None], turn[..., None] * e * offset[:, None])

    plan = piece_plan(conn.arrangement, pieces) if plan is None else plan
    return ode_transport(rhs, plan, residue_factors(conn), tol)


def holonomy(conn: StandardConnection, loops, tol: float = 1e-8, plan=None):
    """Fundamental-solution transport around a loop; returns (T, err).

    Given a list of loops, returns a list of (T, err).  Every piece of
    every loop is one lane of a single ``transport_pieces`` call, started
    from the identity, with plan; tol bounds the series truncation, and
    the cost hardly depends on it.  A loop's T is the ``chain_product`` of
    its piece matrices, the last piece on the left, and err bounds the
    Frobenius norm of the error of T: the sum over pieces P of |the
    later pieces|_2 e_P |the earlier pieces|_2.
    """
    single = isinstance(loops, LoopPath)
    loops = [loops] if single else list(loops)
    mats, errs = transport_pieces(conn, [piece for loop in loops for piece in loop.pieces], tol, plan)
    sizes = np.array([len(loop.pieces) for loop in loops], dtype=int)
    chain = np.repeat(np.arange(len(loops)), sizes)
    depth = np.arange(len(chain)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    products, bounds = chain_product(mats, errs, chain, depth, len(loops))
    if not (np.isfinite(products).all() and np.isfinite(bounds).all()):
        raise ArrConnError("transport overflowed: a holonomy matrix or its error bound is not finite")
    out = [(t, float(err)) for t, err in zip(products, bounds)]
    return out[0] if single else out


# -- spectrum checks ---------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumReport:
    ok: bool
    predicted: tuple
    computed: tuple
    max_mismatch: float
    transport_err: float


def _match_multisets(predicted, computed):
    predicted = list(predicted)
    computed = list(computed)
    worst = 0.0
    for target in predicted:
        best_i = min(range(len(computed)), key=lambda i: abs(computed[i] - target))
        worst = max(worst, abs(computed[best_i] - target))
        computed.pop(best_i)
    return worst


def central_loop_spectrum_check(
    conn: StandardConnection, flat: Flat, tol: float = 1e-6, seed: int = 0
) -> SpectrumReport:
    """Transport of the localization at the flat around the central loop
    e^{i theta} p of a basepoint p; the spectrum must match exp(2 pi i a_j)
    with the normal multiplicities and 1 on the flat directions.

    Every hyperplane of the localization contains the flat, so the
    connection form on this loop is i A_L whatever part of p lies in the
    flat: the loop needs no splitting of p and no normal frame.
    """
    loc = localization_connection(conn, flat)
    arr = loc.arrangement
    p = _draw_basepoint(arr, seed)
    loop = make_loop(arr, p, (Arc(np.zeros_like(p), p, 2.0 * np.pi),))
    t, err = holonomy(loc, loop, tol=min(1e-9, tol * 1e-2))
    computed = sorted(np.linalg.eigvals(t), key=lambda z: (z.real, z.imag))
    predicted = [1.0 + 0.0j] * flat.dim
    for comp in irreducible_components(conn.arrangement, flat):
        predicted.extend([np.exp(2j * np.pi * complex(weight_at_flat(conn, comp)))] * comp.codim)
    predicted = sorted(predicted, key=lambda z: (z.real, z.imag))
    worst = _match_multisets(predicted, computed)
    return SpectrumReport(
        worst <= tol,
        tuple(predicted),
        tuple(computed),
        float(worst),
        err,
    )


@dataclass(frozen=True)
class ResidueLimitReport:
    hyperplane_id: str
    radii: tuple
    errors: tuple
    strictly_decreasing: bool


def residue_limit_check(
    conn: StandardConnection, hyperplane_id: str, radii, tol: float = 1e-9, seed: int = 0
) -> ResidueLimitReport:
    """Compare circle holonomy at shrinking radii against the exponential
    of the residue; radii are fractions (< 1) of the safe distance around
    the crossing."""
    arr = conn.arrangement
    p = _draw_basepoint(arr, seed)
    data = meridian(arr, p, hyperplane_id)
    w = data.direction
    t_star = data.t_star
    z_star = p + t_star * w
    limit = matrix_exp(2j * np.pi * conn.numeric_residue(hyperplane_id))
    if not all(0 < r < 1 for r in radii):
        raise PreconditionError("radii must be fractions of the safe distance in (0, 1)")
    loops = []
    for r in radii:
        offset = (r * data.safe_distance) * w * (t_star / abs(t_star))
        loops.append(make_loop(arr, z_star + offset, (Arc(z_star, offset, 2.0 * np.pi),)))
    errors = [float(np.linalg.norm(t_mat - limit)) for t_mat, _ in holonomy(conn, loops, tol=tol)]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    return ResidueLimitReport(hyperplane_id, tuple(radii), tuple(errors), decreasing)


# -- invariant forms ---------------------------------------------------------------

@functools.cache
def _hermitian_basis(n: int) -> np.ndarray:
    """(n^2, n^2) matrix whose columns are the row-major vecs of a real
    basis of the Hermitian n x n matrices: E_ii, then E_ij + E_ji and
    i(E_ij - E_ji) for i < j.  Built once per n, read-only."""
    basis = np.zeros((n * n, n * n), dtype=complex)
    diag = np.arange(n)
    basis[diag * (n + 1), diag] = 1.0
    i, j = np.triu_indices(n, 1)
    k = n + 2 * np.arange(i.size)
    basis[i * n + j, k] = basis[j * n + i, k] = 1.0
    basis[i * n + j, k + 1] = 1.0j
    basis[j * n + i, k + 1] = -1.0j
    basis.flags.writeable = False
    return basis


def _generator_stack(generators) -> np.ndarray:
    """The generators as one complex array of shape (G, n, n).
    PreconditionError unless there is at least one and they are finite
    square matrices of one size n >= 1."""
    gens = list(generators)
    if not gens:
        raise PreconditionError("need at least one generator")
    try:
        stack = np.array(gens, dtype=complex)
    except (TypeError, ValueError):  # mixed shapes, or entries that are not numbers
        stack = None
    if stack is None or stack.ndim != 3 or not 0 < stack.shape[1] == stack.shape[2] or not np.isfinite(stack).all():
        raise PreconditionError("generators must be finite square matrices of one size, at least 1 x 1")
    return stack


def invariant_forms(generators, tol: float = 1e-8):
    """Real basis of the space of Hermitian X with T* X T = X for all
    generators, via the nullspace of the stacked real linear system.

    On row-major vecs, X -> T* X T is kron(T*, T^T), so each generator's
    constraint block is scale (kron(T*, T^T) B - B) over the Hermitian
    basis B, split into real and imaginary rows; scale = 1/max(1, |T|^2)
    keeps large transport matrices from drowning the tolerance.  The
    Kronecker products of all generators are one broadcast product on
    their stack, their images of B one stacked product and their 2-norms
    one batched SVD.  A form is B times a null vector, reshaped to n x n.
    Generators that are not finite square matrices of one size are a
    PreconditionError."""
    gens = _generator_stack(generators)
    n = gens.shape[1]
    basis = _hermitian_basis(n)
    _, s, vt = np.linalg.svd(_constraint_matrix(gens, basis), full_matrices=False)
    null_dim = int(np.sum(s <= tol * max(s[0], 1.0)))
    forms = []
    for k in range(null_dim):
        mat = (basis @ vt[-(k + 1)]).reshape(n, n)
        mat = (mat + mat.conj().T) / 2.0
        mat /= np.linalg.norm(mat)
        diag = np.real(np.diag(mat))
        lead = diag[np.argmax(np.abs(diag))] if np.abs(diag).max() > 1e-12 else 1.0
        if lead < 0:
            mat = -mat
        forms.append(HermForm(mat))
    return forms


def _constraint_matrix(gens, basis):
    count, n, _ = gens.shape
    left, right = gens.conj().transpose(0, 2, 1), gens.transpose(0, 2, 1)
    kron = (left[:, :, None, :, None] * right[:, None, :, None, :]).reshape(count, n * n, n * n)
    # squared one by one: a scalar's ** 2 is pow, which can differ in the
    # last bit from the product an array's ** 2 takes
    scale = np.array([1.0 / max(1.0, s ** 2) for s in np.linalg.svd(gens, compute_uv=False).max(axis=1)])
    image = scale[:, None, None] * (kron @ basis - basis)
    return np.stack([image.real, image.imag], axis=1).reshape(-1, n * n)


# -- irreducibility -----------------------------------------------------------------

@dataclass(frozen=True)
class IrreducibilityVerdict:
    irreducible: Optional[bool]  # None means numerically ambiguous
    span_dim: int
    full_dim: int
    invariant_subspace: Optional[np.ndarray]  # columns span it, when reducible
    words_used: int


def _span_closure(start, gens, tol, max_len):
    """Breadth-first walk over the words g_k ... g_1 start with k <= max_len
    that keeps each word whose normalized vector leaves the span of the kept
    ones by more than tol, and extends only the kept words: a word in that
    span has every extension in the span of the kept words' extensions.

    The residual is two classical Gram-Schmidt passes against the kept
    orthonormal rows; gens is a stack, so a kept word's extensions are one
    stacked product.  The walk stops once the span is the whole space.
    Returns (kept, ortho, words): the kept normalized vectors and their
    orthonormalization, as rows, and the number of words tried.
    """
    size = start.size
    ortho = np.empty((size, size), dtype=complex)
    kept, level, words = [], [start], 0
    for length in range(max_len + 1):
        grown = []
        for word in level:
            words += 1
            v = word.ravel() / max(_frobenius(word), 1e-300)
            q = ortho[:len(kept)]
            w = v - (q @ v.conj()).conj() @ q
            w = w - (q @ w.conj()).conj() @ q
            res = _frobenius(w)
            if res > tol:
                ortho[len(kept)] = w / res
                kept.append(v)
                if len(kept) == size:
                    return np.array(kept), ortho, words
                grown.append(v.reshape(start.shape))
        if length == max_len or not grown:
            break
        level = [y for x in grown for y in gens @ x]
    return np.array(kept), ortho[:len(kept)], words


def _frobenius(x):
    """The Frobenius norm of a complex array, as ``np.linalg.norm(x)``
    computes it, without its argument handling."""
    x = x.ravel()
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def irreducibility(generators, tol: float = 1e-8) -> IrreducibilityVerdict:
    """Burnside test: the words of bounded length span the full matrix
    algebra exactly when the representation is irreducible.

    One breadth-first closure from the identity over the generators and
    their inverses, to word length 4n, keeps the words that enlarge the
    span and stops at full span; words_used counts the words it tried.
    The verdict comes from the singular values of the kept, normalized
    words; a rank decision inside the factor-10 band around tol is
    ambiguous.  On a reducible verdict the same closure, run from each
    eigenvector of each generator to length n, spans an invariant
    subspace; the smallest one found is the witness, as orthonormal
    columns.  The generators are checked and inverted as one stack: they
    must be finite square matrices of one size, each with |det| at least
    1e-12, or PreconditionError is raised.
    """
    gens = _generator_stack(generators)
    n = gens.shape[1]
    if (np.abs(np.linalg.det(gens)) < 1e-12).any():
        raise PreconditionError("generators must be invertible")
    gens_inv = np.concatenate([gens, np.linalg.inv(gens)])
    full = n * n
    kept, _, words = _span_closure(np.eye(n, dtype=complex), gens_inv, tol, 4 * n)
    sv = np.linalg.svd(kept, compute_uv=False)
    smax = sv[0]
    strict = int(np.sum(sv > 10.0 * tol * smax))
    loose = int(np.sum(sv > 0.1 * tol * smax))
    dim = int(np.sum(sv > tol * smax))
    if strict >= full:
        return IrreducibilityVerdict(True, dim, full, None, words)
    if loose >= full > strict:
        return IrreducibilityVerdict(None, dim, full, None, words)
    witness, best = None, n
    for g in gens:
        _, vectors = np.linalg.eig(g)
        for k in range(n):
            _, span, _ = _span_closure(vectors[:, k], gens_inv, tol, n)
            if len(span) < best:
                best, witness = len(span), span.T
    return IrreducibilityVerdict(False, dim, full, witness, words)


# -- report assembly ----------------------------------------------------------------

@dataclass(frozen=True)
class HolonomyReport:
    basepoint: np.ndarray
    generator_ids: tuple
    matrices: tuple
    errors: tuple
    determinants: tuple
    central_matrix: Optional[np.ndarray]
    central_error: Optional[float]
    invariant_form_basis: tuple  # HermForm elements
    signature: Optional[Signature]  # only when the form space is 1-dim
    irreducibility: IrreducibilityVerdict
    max_err: float


def holonomy_report(
    conn: StandardConnection,
    tol: float = 1e-8,
    loops: str = "all",
    seed: int = 0,
    signature_tol: float = 1e-6,
) -> HolonomyReport:
    """Transport all requested loops and assemble the invariant-form and
    irreducibility analysis in the basepoint frame.  tol must lie in
    [MIN_TOL, 0.1); anything else is an InputError."""
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be positive and finite, got {tol!r}")
    if tol >= 0.1:
        # the analysis runs at 10 tol, and no unit residual exceeds 1
        raise InputError(f"tolerance must be below 0.1, got {tol!r}")
    if tol < MIN_TOL:
        raise InputError(f"tolerance must be at least {MIN_TOL:g}, got {tol!r}")
    if loops not in ("meridians", "central", "all"):
        raise PreconditionError(f"unknown loops selection {loops!r}")
    gen = generator_loops(conn.arrangement, seed=seed)
    meridians = gen.meridians if loops in ("meridians", "all") else ()
    central = [gen.central] if loops in ("central", "all") else []
    selected = [data.loop for data in meridians] + central
    if loops not in gen.plans:
        gen.plans[loops] = piece_plan(conn.arrangement, [piece for loop in selected for piece in loop.pieces])
    transported = holonomy(conn, selected, tol=tol, plan=gen.plans[loops])
    ids = [data.hyperplane_id for data in meridians]
    matrices = [t for t, _ in transported[:len(ids)]]
    errors = [err for _, err in transported[:len(ids)]]
    central_matrix, central_error = transported[-1] if central else (None, None)
    analysis = np.array(matrices if matrices else [central_matrix])
    forms = invariant_forms(analysis, tol=tol * 10)
    signature = (
        hermitian_signature(forms[0], tol=signature_tol) if len(forms) == 1 else None
    )
    verdict = irreducibility(analysis, tol=tol * 10)
    max_err = max(errors + ([central_error] if central_error is not None else []), default=0.0)
    return HolonomyReport(
        gen.basepoint,
        tuple(ids),
        tuple(matrices),
        tuple(errors),
        tuple(complex(d) for d in np.linalg.det(analysis[:len(matrices)])),
        central_matrix,
        central_error,
        tuple(forms),
        signature,
        verdict,
        float(max_err),
    )
