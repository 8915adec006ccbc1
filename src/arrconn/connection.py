"""Standard logarithmic connections given by one residue matrix per hyperplane.

Residues are exact; every criterion (torsion freeness, flatness, weights,
normal frames, direct-sum decompositions, Euler fields) is decided over
Q(i), as are the derived constructions: localization, quotient and induced
connections, and the linear weight constraints they impose.  A connection
stores its residues once, as ``integer``: Gaussian-integer numerators over
one common denominator, on which the exact checks run.  ``residues`` (exact
matrices) and ``numeric`` (complex arrays) are read-only views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Optional

import numpy as np

from .arrangement import (
    Arrangement,
    Flat,
    ambient_flat,
    arrangement_from_json,
    arrangement_to_json,
    _entry_to_json,
    _read_entry,
    _read_json,
    _restricted,
    flat_from_indices,
    irreducible_decomposition,
    irreducible_flats,
    localization,
)
from .errors import (
    InputError,
    NormalDataError,
    PreconditionError,
    WeightZeroError,
)
from .numkernel import (
    ExactMatrix,
    ExactVector,
    GaussianRational,
    GR_ONE,
    GR_ZERO,
    cleared,
    cleared_pairs,
    coordinates_in_basis,
    gaussian_ratio,
    independent_subset,
    lowest_terms,
    rank_kernel,
    row_echelon,
    same_span,
    span_rank,
    vec_dot,
)


@dataclass(frozen=True)
class IntegerView:
    """The stored form of a connection: A_k = (re[k] + i im[k]) / d in
    hyperplane order, d the lcm of the entries' denominators, so gcd(d, re...,
    im...) = 1.  The (m, n, n) arrays are read-only.  They are int64 when a
    bound proves that no product ``check_flat`` or ``check_torsion_free``
    forms, and no trace sum of the weights and constraints, can overflow:
    with M the largest |re| or |im| and F the largest |entry| of the cleared
    forms, 4 n m M^2 < 2^62 and 4 F max(M, 1) < 2^62.  Otherwise they hold
    Python ints (dtype object), which cannot overflow."""

    denominator: int
    re: np.ndarray
    im: np.ndarray

    def traces(self) -> np.ndarray:
        """(m, 2): the numerators of tr A_k, real then imaginary part."""
        return np.stack([self.re.trace(axis1=1, axis2=2), self.im.trace(axis1=1, axis2=2)], axis=1)


def _residue_sum(view: IntegerView, rows) -> ExactMatrix:
    """The sum of the stored residues at ``rows``, over Q(i)."""
    re, im = (part[list(rows)].sum(axis=0).tolist() for part in (view.re, view.im))
    return ExactMatrix([[gaussian_ratio(a, b, view.denominator) for a, b in zip(*r)] for r in zip(re, im)])


def _check_ids(arrangement: Arrangement, ids) -> None:
    missing = [hid for hid in arrangement._ids if hid not in ids]
    if missing:
        raise InputError(f"missing residues for {missing}")
    extra = set(ids) - set(arrangement._ids)
    if extra:
        raise InputError(f"residues for unknown hyperplanes {sorted(extra)}")


class StandardConnection:
    """Arrangement plus one exact residue per hyperplane, stored once, as the
    ``IntegerView`` ``integer``; ``residues`` and ``numeric`` are views of it."""

    def __init__(self, arrangement: Arrangement, residues: dict):
        n = arrangement.dimension
        _check_ids(arrangement, residues)
        for hid, m in residues.items():
            if not isinstance(m, ExactMatrix) or m.rows != n or m.cols != n:
                raise InputError(f"residue at {hid} must be an exact {n}x{n} matrix")
        entries = [e for hid in arrangement._ids for row in residues[hid].entries for e in row]
        stored = self._from_numerators(arrangement, *cleared(entries))
        self.arrangement, self.integer = stored.arrangement, stored.integer

    @classmethod
    def _from_numerators(cls, arrangement: Arrangement, re: list, im: list, d: int) -> "StandardConnection":
        """The connection with residues (re + i im) / d, for int lists of the
        n x n grids in hyperplane order.  Every stored form is made here: common
        factors of d and the numerators are divided out, and the bound picks the dtype."""
        re, im, d = lowest_terms(re, im, d)
        n, m = arrangement.dimension, len(arrangement)
        big = max(map(abs, re + im), default=0)
        fits = 4 * n * m * big**2 < 2**62 and 4 * arrangement._form_big * max(big, 1) < 2**62
        re, im = (np.array(part, dtype=np.int64 if fits else object).reshape(m, n, n) for part in (re, im))
        re.flags.writeable = im.flags.writeable = False
        conn = cls.__new__(cls)
        conn.arrangement, conn.integer = arrangement, IntegerView(d, re, im)
        return conn

    @property
    def dimension(self) -> int:
        return self.arrangement.dimension

    @cached_property
    def residues(self) -> MappingProxyType:
        """Hyperplane id -> ``ExactMatrix``, built on first use, read-only."""
        ids = self.arrangement._ids
        return MappingProxyType({hid: _residue_sum(self.integer, [k]) for k, hid in enumerate(ids)})

    def residue(self, hyperplane_id: str):
        return self.residues[hyperplane_id]

    @cached_property
    def numeric(self):
        """Complex forms (m, n) and residues (m, n*n), read-only; Python int true
        division rounds correctly, so each entry is ``complex`` of the exact one.
        An entry past the double range is an InputError."""
        arr, view, d = self.arrangement, self.integer, self.integer.denominator
        try:
            entries = [complex(a / d, b / d) for a, b in zip(view.re.ravel().tolist(), view.im.ravel().tolist())]
        except OverflowError:
            raise InputError("a residue entry is outside the double range") from None
        residues = np.array(entries, dtype=complex).reshape(len(arr), arr.dimension**2)
        residues.flags.writeable = False
        return arr.complex_forms, residues

    def numeric_residue(self, hyperplane_id: str) -> np.ndarray:
        """One residue as an n x n view into ``numeric``."""
        n = self.dimension
        return self.numeric[1][self.arrangement.index_of(hyperplane_id)].reshape(n, n)


# -- basic criteria -----------------------------------------------------------

@dataclass(frozen=True)
class TorsionFreeReport:
    ok: bool
    violators: tuple


def check_torsion_free(conn: StandardConnection) -> TorsionFreeReport:
    """H inside ker A_H for every hyperplane, decided exactly on the integer
    view, with no kernel basis: with f the cleared form of H and p its
    first nonzero coordinate, ker f is spanned by f_p e_j - f_j e_p, so
    N = d A_H kills H iff f_p N = N[:, p] f^T.  Every hyperplane is tested
    in one batch of elementwise Gaussian-integer products, on the view's
    dtype."""
    arr = conn.arrangement
    view = conn.integer
    fr, fi = (np.asarray(forms, dtype=view.re.dtype) for forms in arr._integer_forms)
    rows = np.arange(len(arr))
    p = ((fr != 0) | (fi != 0)).argmax(axis=1)
    pr, pi = fr[rows, p][:, None, None], fi[rows, p][:, None, None]
    cr, ci = view.re[rows, :, p][:, :, None], view.im[rows, :, p][:, :, None]
    fr, fi = fr[:, None, :], fi[:, None, :]
    re = pr * view.re - pi * view.im - (cr * fr - ci * fi)
    im = pr * view.im + pi * view.re - (cr * fi + ci * fr)
    bad = (re != 0).any(axis=(1, 2)) | (im != 0).any(axis=(1, 2))
    violators = tuple(hid for hid, b in zip(arr._ids, bad) if b)
    return TorsionFreeReport(not violators, violators)


@dataclass(frozen=True)
class FlatnessReport:
    ok: bool
    violations: tuple  # pairs (Flat, hyperplane id)


def residue_at_flat(conn: StandardConnection, flat: Flat) -> ExactMatrix:
    """Sum of the residues over the hyperplanes containing the flat."""
    return _residue_sum(conn.integer, flat.containing)


def weight_at_flat(conn: StandardConnection, flat: Flat) -> GaussianRational:
    """The weight of a flat, tr ``residue_at_flat`` / codim: the sum of the
    stored trace numerators of the hyperplanes containing it over d codim."""
    if not flat.codim:
        raise PreconditionError("the ambient flat has no weight: its codimension is 0")
    view = conn.integer
    re, im = view.traces()[list(flat.containing)].sum(axis=0).tolist()
    return gaussian_ratio(re, im, view.denominator * flat.codim)


def _commutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def check_flat(conn: StandardConnection, cap: Optional[int] = None) -> FlatnessReport:
    """[A_L, A_H] = 0 for every codimension-two flat L and every H above it.

    Decided on the integer view: with N = d A, [N_L, N_H] = d^2 [A_L, A_H],
    so every (L, H) pair is stacked and tested with one batched set of
    Gaussian-integer products; when every imaginary part is zero, only the
    real one.  The N_L are one product of the lattice's 0/1 flat-by-hyperplane
    incidence matrix with the stacked N_H.  Violations are listed flat by
    flat in lattice order, hyperplanes in ``containing`` order."""
    arr = conn.arrangement
    lattice = arr.lattice(cap=cap)
    flats = lattice.of_codim(2)
    if not flats:
        return FlatnessReport(True, ())
    view = conn.integer
    incidence = lattice.codim2_incidence
    which, above = np.nonzero(incidence)  # the flat and the hyperplane of each pair

    def pair_stacks(part):
        flat_sums = (incidence @ part.reshape(len(part), -1)).reshape(len(flats), *part.shape[1:])
        return flat_sums[which], part[above]

    l_re, h_re = pair_stacks(view.re)
    re = _commutators(l_re, h_re)
    if view.im.any():
        l_im, h_im = pair_stacks(view.im)
        re = re - _commutators(l_im, h_im)
        nonzero = (re != 0) | (_commutators(l_re, h_im) + _commutators(l_im, h_re) != 0)
    else:
        nonzero = re != 0
    bad = np.flatnonzero(nonzero.any(axis=(1, 2)))
    violations = tuple((flats[which[p]], arr._ids[above[p]]) for p in bad)
    return FlatnessReport(not violations, violations)


# -- weights ------------------------------------------------------------------

@dataclass(frozen=True)
class WeightReport:
    table: dict  # Flat -> GaussianRational
    ok: bool
    zero_flats: tuple


def _weight_sums(conn: StandardConnection, cap: Optional[int] = None) -> tuple:
    """The irreducible flats, in lattice order, and the (re, im) numerators of
    their weights over d codim: one product of the lattice's incidence matrix
    with the stored trace numerators.  A weight is zero iff its row is."""
    lattice = conn.arrangement.lattice(cap=cap)
    return lattice.irreducible, lattice.irreducible_incidence @ conn.integer.traces()


def weights(conn: StandardConnection, cap: Optional[int] = None) -> WeightReport:
    """Weight of every irreducible flat, in lattice order, from
    ``_weight_sums``; the verdict lists zero weights."""
    flats, sums = _weight_sums(conn, cap)
    d = conn.integer.denominator
    table = {f: gaussian_ratio(re, im, d * f.codim) for f, (re, im) in zip(flats, sums.tolist())}
    zero = tuple(flat for flat, w in table.items() if not w)
    return WeightReport(table, not zero, zero)


# -- normal frames ------------------------------------------------------------

@dataclass(frozen=True)
class NormalFrame:
    normals: dict  # hyperplane id -> ExactVector
    perp_basis: dict  # irreducible Flat -> tuple of ExactVector


def hyperplane_normal(conn: StandardConnection, hyperplane_id: str) -> ExactVector:
    """The vector n_H with A_H = (column n_H) x (row dh); errors if A_H is
    not a semi-simple rank-one matrix killing H."""
    form = conn.arrangement.form(conn.arrangement.index_of(hyperplane_id))
    a = conn.residue(hyperplane_id)
    if a.is_zero():
        raise NormalDataError(hyperplane_id, "residue is zero")
    j0 = next(j for j, c in enumerate(form) if c)
    normal = tuple(e / form[j0] for e in a.column(j0))
    for j, c in enumerate(form):
        if a.column(j) != tuple(c * x for x in normal):
            raise NormalDataError(hyperplane_id, "residue is not dh (x) n_H (rank != 1 or kernel != H)")
    if not vec_dot(form, normal):
        raise NormalDataError(hyperplane_id, "nilpotent residue: n_H lies inside H")
    return normal


def normal_data(conn: StandardConnection, cap: Optional[int] = None) -> NormalFrame:
    """Normal vectors of all hyperplanes and the spans L-perp of every
    irreducible flat (greedy independent normals, hyperplane order)."""
    ids = conn.arrangement._ids
    normals = [hyperplane_normal(conn, hid) for hid in ids]
    perp = {flat: _perp_basis(normals, flat) for flat in irreducible_flats(conn.arrangement, cap=cap)}
    return NormalFrame(dict(zip(ids, normals)), perp)


def flat_perp_basis(conn: StandardConnection, flat: Flat) -> tuple:
    """Greedy basis of span{n_H : H contains the flat} (any flat, not only
    irreducible ones)."""
    ids = conn.arrangement._ids
    return _perp_basis({i: hyperplane_normal(conn, ids[i]) for i in flat.containing}, flat)


def _perp_basis(normals, flat: Flat) -> tuple:
    """The greedy independent subset, in hyperplane order, of the normals
    (indexed by hyperplane) of the hyperplanes containing the flat."""
    vectors = [normals[i] for i in flat.containing]
    return tuple(vectors[k] for k in independent_subset(vectors))


# -- direct sum decomposition at a flat ----------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    flat: Flat
    components: tuple
    items: dict  # check name -> bool
    ok: bool


def decomposition_at_flat(conn: StandardConnection, flat: Flat) -> DecompositionReport:
    """Exact verification of the direct-sum structure at a flat:
    V = L + L-perp, ker A_L = L, L-perp splits into component perps on which
    A_L acts by the component weights, and each component is L plus the
    other perps.
    """
    arr = conn.arrangement
    n = arr.dimension
    from .arrangement import irreducible_components

    components = tuple(irreducible_components(arr, flat))
    perp_parts = [flat_perp_basis(conn, comp) for comp in components]
    perp_all = [v for part in perp_parts for v in part]
    a_l = residue_at_flat(conn, flat)

    items = {}
    stacked = list(flat.kernel_basis) + perp_all
    items["direct_sum"] = len(stacked) == n and span_rank(stacked) == n
    items["kernel"] = same_span(rank_kernel(a_l)[1], flat.kernel_basis)
    items["perp_splits"] = span_rank(perp_all) == len(perp_all)
    scalar_ok = True
    for comp, part in zip(components, perp_parts):
        a_comp = weight_at_flat(conn, comp)
        for v in part:
            if a_l.apply(v) != tuple(a_comp * x for x in v):
                scalar_ok = False
    items["scalar_action"] = scalar_ok
    comp_ok = True
    for i, comp in enumerate(components):
        others = [v for j, part in enumerate(perp_parts) if j != i for v in part]
        if not same_span(list(flat.kernel_basis) + others, comp.kernel_basis):
            comp_ok = False
    items["component_splits"] = comp_ok
    return DecompositionReport(flat, components, items, all(items.values()))


# -- Euler field ---------------------------------------------------------------

@dataclass(frozen=True)
class EulerFactor:
    flat: Flat  # center of an irreducible block
    hyperplane_ids: tuple
    weight: GaussianRational  # a_i
    angle: GaussianRational  # 1 - a_i
    perp_basis: tuple
    verified: bool  # sum of block residues acts as a_i on the perp


@dataclass(frozen=True)
class EulerField:
    matrix: ExactMatrix  # e(x) = matrix @ x
    factors: tuple
    center_basis: tuple
    verified: bool


def euler_field(conn: StandardConnection) -> EulerField:
    """The linear vector field with covariant derivative equal to the
    identity, in the basis adapted to the irreducible decomposition."""
    arr = conn.arrangement
    n = arr.dimension
    if not len(arr):
        return EulerField(ExactMatrix.identity(n), (), ambient_flat(arr).kernel_basis, True)
    blocks = irreducible_decomposition(arr)
    center = flat_from_indices(arr, range(len(arr)))
    factors = []
    columns = list(center.kernel_basis)
    diag = [GR_ONE] * len(columns)
    for block in blocks:
        t_i = flat_from_indices(arr, block)
        a_i = weight_at_flat(conn, t_i)
        alpha_i = GR_ONE - a_i
        if not alpha_i:
            raise WeightZeroError(
                f"Euler field undefined: angle 1 - a = 0 at the component of "
                f"{[arr._ids[i] for i in block]}"
            )
        perp = flat_perp_basis(conn, t_i)
        block_sum = residue_at_flat(conn, t_i)
        verified = all(
            block_sum.apply(v) == tuple(a_i * x for x in v) for v in perp
        )
        factors.append(
            EulerFactor(
                t_i,
                tuple(arr._ids[i] for i in block),
                a_i,
                alpha_i,
                perp,
                verified,
            )
        )
        columns.extend(perp)
        diag.extend([GR_ONE / alpha_i] * len(perp))
    # [basis | I] reduces to [I | basis^-1] exactly when the basis is invertible
    rref, pivots = row_echelon(
        [row + e for row, e in zip(zip(*columns), ExactMatrix.identity(n).entries)]
    )
    if len(columns) != n or pivots != list(range(n)):
        raise WeightZeroError("adapted basis is degenerate; nonzero weights fail")
    inverse = ExactMatrix([row[n:] for row in rref])
    scaled = ExactMatrix.from_columns(
        [tuple(diag[j] * x for x in col) for j, col in enumerate(columns)]
    )
    matrix = scaled @ inverse
    return EulerField(matrix, tuple(factors), center.kernel_basis, all(f.verified for f in factors))


# -- localization / quotient / induced ----------------------------------------

def localization_connection(conn: StandardConnection, flat: Flat) -> StandardConnection:
    """Same residues, arrangement replaced by the hyperplanes containing
    the flat: the rows of the stored form at ``flat.containing``."""
    sub = localization(conn.arrangement, flat)
    view, rows = conn.integer, list(flat.containing)
    re, im = (part[rows].ravel().tolist() for part in (view.re, view.im))
    return StandardConnection._from_numerators(sub, re, im, view.denominator)


@dataclass(frozen=True)
class QuotientConnection:
    connection: StandardConnection
    flat: Flat
    basis: tuple  # basis of L-perp used, as ambient vectors


def _residue_in_basis(a: ExactMatrix, basis):
    """Matrix of a restricted to the span of basis, in its coordinates;
    None when a does not preserve that span."""
    cols = []
    for b in basis:
        coords = coordinates_in_basis(basis, a.apply(b))
        if coords is None:
            return None
        cols.append(coords)
    return ExactMatrix.from_columns(cols)


def quotient_connection(
    conn: StandardConnection, flat: Flat, basis=None
) -> QuotientConnection:
    """Connection induced on V/L, realized on L-perp in an explicit basis.

    The residues are the restrictions of the A_H (H containing L) to
    L-perp, written in the chosen basis; traces are preserved.
    """
    if not flat.codim:
        raise PreconditionError("the ambient flat has no quotient connection: its codimension is 0")
    arr = conn.arrangement
    default = flat_perp_basis(conn, flat)
    if basis is None:
        basis = default
    else:
        basis = tuple(tuple(v) for v in basis)
        if len(basis) != len(default) or not same_span(basis, default):
            raise PreconditionError("supplied basis does not span L-perp")
    if len(basis) != flat.codim:
        raise WeightZeroError(
            "L-perp has wrong dimension; nonzero-weight assumptions fail at this flat"
        )
    stacked = list(flat.kernel_basis) + list(basis)
    if span_rank(stacked) != arr.dimension:
        raise WeightZeroError("V = L + L-perp fails; nonzero-weight assumptions are violated")
    planes = []
    residues = {}
    from .arrangement import Hyperplane

    for i in flat.containing:
        h = arr.hyperplanes[i]
        qform = tuple(vec_dot(h.form, b) for b in basis)
        planes.append(Hyperplane(h.id, qform))
        residues[h.id] = _residue_in_basis(conn.residue(h.id), basis)
        if residues[h.id] is None:
            raise PreconditionError(
                f"residue at {h.id} does not preserve L-perp; check flatness first"
            )
    quotient = StandardConnection(Arrangement(flat.codim, planes), residues)
    return QuotientConnection(quotient, flat, tuple(basis))


@dataclass(frozen=True)
class InducedConnection:
    connection: StandardConnection
    hyperplane_id: str
    basis: tuple  # kernel basis of H0 used as the coordinate frame
    trace_map: dict  # source hyperplane id -> trace id


def induced_connection(conn: StandardConnection, h0: str) -> InducedConnection:
    """Connection induced on a hyperplane H0 of the arrangement.

    The residue at a trace H'' is the restriction to H0 of the full residue
    of the codimension-two flat H'' (sum over all hyperplanes through it),
    written in the kernel-basis coordinates of H0's flat in
    ``arr.hyperplane_flats``; in C^1 that flat is a point, and is refused.
    """
    arr = conn.arrangement
    i0 = arr.index_of(h0)
    if conn.residue(h0).is_zero():
        raise PreconditionError(
            f"residue at {h0} is zero: the tangent bundle of H0 is not parallel"
        )
    flat = arr.hyperplane_flats[i0]
    restricted, traces = _restricted(arr, flat)
    residues = {}
    for hid, sources in traces:
        # the codimension-two flat H0 ∩ H_s contains exactly H0 and the
        # sources of the trace of H_s
        residues[hid] = _residue_in_basis(_residue_sum(conn.integer, [i0, *sources]), flat.kernel_basis)
        if residues[hid] is None:
            raise PreconditionError(
                f"residue of the flat {hid} does not preserve {h0}; "
                "the input connection is not flat"
            )
    induced = StandardConnection(restricted, residues)
    projection = {arr._ids[i]: hid for hid, sources in traces for i in sources}
    return InducedConnection(induced, h0, flat.kernel_basis, projection)


# -- linear weight constraints -------------------------------------------------

@dataclass(frozen=True)
class WeightConstraintRow:
    h0: str
    lhs: GaussianRational
    rhs: GaussianRational
    residual: GaussianRational
    restriction_essential_irreducible: bool


@dataclass(frozen=True)
class WeightConstraintReport:
    rows: tuple
    any_valid: bool
    all_zero: bool


def check_weight_constraints(conn: StandardConnection, cap: Optional[int] = None) -> WeightConstraintReport:
    """Evaluate the deletion-restriction trace identity for every H0 whose
    induced arrangement is essential and irreducible; the residual must be
    exactly zero for flat torsion-free input.

    Which H0 qualify depends on the arrangement alone and is read from
    ``Arrangement.essential_irreducible_restrictions``, decided once per
    arrangement; each call does only the residue-trace work, on products of
    the lattice's codimension-two incidence matrix with the trace numerators."""
    arr = conn.arrangement
    n = arr.dimension
    if n < 2:
        raise PreconditionError("weight constraints need dimension >= 2")
    if not arr.essential_irreducible:
        raise PreconditionError("weight constraints assume an essential irreducible arrangement")
    traces, d = conn.integer.traces(), conn.integer.denominator
    incidence = arr.lattice(cap=cap).codim2_incidence
    # rhs = (sum of tr A_H, H transversal to H0, + sum of tr A_L / 2, L deeper on H0) / (n - 1);
    # over 2 (n - 1), L counts tr A_L and H0 ∩ H counts 2 tr A_H = 2 (tr A_L - tr A_H0)
    sums = incidence @ traces
    pairs = (incidence.sum(axis=1) == 2)[:, None]
    rhs = incidence.T @ np.where(pairs, 2 * sums, sums) - 2 * (incidence.T @ pairs) * traces
    # lhs = (sum of tr A_H) / n, so lhs - rhs is (2 (n - 1) sum - n rhs) over 2 n (n - 1) d
    total = traces.sum(axis=0)
    lhs = gaussian_ratio(*total.tolist(), d * n)
    residuals = 2 * (n - 1) * total - n * rhs
    valid = [i0 in arr.essential_irreducible_restrictions for i0 in range(len(arr))]
    rows = tuple(
        WeightConstraintRow(h0, lhs, gaussian_ratio(*r, 2 * (n - 1) * d), gaussian_ratio(*s, 2 * n * (n - 1) * d), True)
        if ok else WeightConstraintRow(h0, lhs, GR_ZERO, GR_ZERO, False)
        for h0, ok, r, s in zip(arr._ids, valid, rhs.tolist(), residuals.tolist())
    )
    return WeightConstraintReport(rows, any(valid), any(valid) and not residuals[valid].any())


# -- non-resonance --------------------------------------------------------------

def non_resonant(matrix, tol: float = 1e-9) -> bool:
    """No two eigenvalues differ by a nonzero integer (numerical check)."""
    m = matrix.to_complex() if isinstance(matrix, ExactMatrix) else np.asarray(matrix, dtype=complex)
    eigs = np.linalg.eigvals(m)
    for i in range(len(eigs)):
        for j in range(len(eigs)):
            if i == j:
                continue
            d = eigs[i] - eigs[j]
            k = round(d.real)
            if k != 0 and abs(d.imag) < tol and abs(d.real - k) < tol:
                return False
    return True


def non_resonance_report(conn: StandardConnection, tol: float = 1e-9) -> dict:
    return {hid: non_resonant(conn.numeric_residue(hid), tol) for hid in conn.arrangement._ids}


# -- JSON ------------------------------------------------------------------------

def connection_from_json(obj) -> StandardConnection:
    if not isinstance(obj, dict) or "residues" not in obj:
        raise InputError("connection JSON must be an object with a 'residues' field")
    arr_obj = {k: v for k, v in obj.items() if k != "residues"}
    arr = arrangement_from_json(arr_obj)
    n = arr.dimension
    if not isinstance(obj["residues"], dict):
        raise InputError("'residues' must be an object mapping hyperplane ids to matrices")
    grids = {}
    for hid, grid in obj["residues"].items():
        try:
            if not (isinstance(grid, list) and all(isinstance(row, list) for row in grid)):
                raise TypeError(f"must be a list of rows, each a list, got {grid!r}")
            rows = [[_read_entry(e) for e in row] for row in grid]
            cols = len(rows[0]) if rows else 0
            if any(len(row) != cols for row in rows):
                raise ValueError("ragged matrix")
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad residue for {hid}: {exc}") from None
        if len(rows) != n or cols != n:
            raise InputError(f"residue for {hid} is {len(rows)}x{cols}, expected {n}x{n}")
        grids[str(hid)] = rows
    _check_ids(arr, grids)
    entries = [e for hid in arr._ids for row in grids[hid] for e in row]
    return StandardConnection._from_numerators(arr, *cleared_pairs(entries))


def connection_to_json(conn: StandardConnection) -> dict:
    obj = arrangement_to_json(conn.arrangement)
    obj["residues"] = {
        hid: [[_entry_to_json(e) for e in row] for row in conn.residue(hid).entries]
        for hid in conn.arrangement._ids
    }
    return obj


def load_connection(path) -> StandardConnection:
    return connection_from_json(_read_json(path))
