"""Central hyperplane arrangements over Q(i).

Intersection lattice, localization and restriction, irreducibility via
linear-matroid connectivity, deletion-restriction triples, and the JSON
file format (including the built-in braid arrangement generator).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InputError, LatticeCapError, PreconditionError
from .numkernel import (
    ExactVector,
    GaussianRational,
    GR_ONE,
    GR_ZERO,
    _echelon_core,
    cleared,
    common_denominator,
    gaussian_ratio,
    rank_kernel,
    vec,
    vec_complex,
)

DEFAULT_LATTICE_CAP = 20
# the largest dimension, and builtin n, that a file may give; a larger one
# is refused as it is read, before any hyperplane or array is built
MAX_DIMENSION = 64


@dataclass(frozen=True)
class Hyperplane:
    id: str
    form: ExactVector

    def __post_init__(self):
        if not any(self.form):
            raise InputError(f"hyperplane {self.id} has a zero form")


def _primitive_key(re, im) -> tuple:
    """Proportionality key of a nonzero Gaussian-integer vector (re + i im):
    the vector times the conjugate of its first nonzero entry, divided by
    the integer gcd of all real and imaginary parts, as one tuple (real
    parts, then imaginary parts).  It is the unique vector of the line
    with coprime integer parts and a positive real first entry, so two
    vectors are proportional over Q(i) iff their keys are equal."""
    for ur, ui in zip(re, im):
        if ur or ui:
            break
    else:
        raise InputError("zero form")
    if ui:
        re, im = (
            [ur * a + ui * b for a, b in zip(re, im)],
            [ur * b - ui * a for a, b in zip(re, im)],
        )
        g = math.gcd(*re, *im)
    else:  # a real multiplier only fixes the sign
        g = math.gcd(*re, *im) if ur > 0 else -math.gcd(*re, *im)
    if g == 1:
        return (*re, *im)
    return tuple([a // g for a in re] + [b // g for b in im])


class Arrangement:
    """A finite list of linear hyperplanes through the origin of C^n."""

    def __init__(self, dimension: int, hyperplanes):
        if dimension < 1:
            raise InputError("dimension must be >= 1")
        self.dimension = dimension
        self.hyperplanes = tuple(hyperplanes)
        ids = [h.id for h in self.hyperplanes]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate hyperplane ids")
        # each form h_i times its common denominator d_i, and the d_i
        parts, self._denominators = _cleared_basis([h.form for h in self.hyperplanes])
        seen = {}
        for h, part in zip(self.hyperplanes, parts):
            if len(h.form) != dimension:
                raise InputError(f"form of {h.id} has wrong length")
            key = _primitive_key(*part)
            if key in seen:
                raise InputError(f"hyperplanes {seen[key]} and {h.id} are proportional")
            seen[key] = h.id
        # the cleared forms as Gaussian-integer rows: (re, im) object
        # arrays of shape (m, n)
        self._integer_forms = tuple(
            np.array([p[k] for p in parts], dtype=object).reshape(len(parts), dimension)
            for k in (0, 1)
        )
        self._index = {h.id: i for i, h in enumerate(self.hyperplanes)}
        self._lattice: Optional[Lattice] = None

    def __len__(self):
        return len(self.hyperplanes)

    def index_of(self, hyperplane_id: str) -> int:
        try:
            return self._index[hyperplane_id]
        except KeyError:
            raise InputError(f"unknown hyperplane id {hyperplane_id!r}") from None

    def form(self, i: int) -> ExactVector:
        return self.hyperplanes[i].form

    def ids(self):
        return [h.id for h in self.hyperplanes]

    def lattice(self, cap: Optional[int] = None) -> "Lattice":
        """The intersection lattice, built once; the cap (a hyperplane
        count) is checked on every call, so a cached lattice is never
        returned past it."""
        cap = DEFAULT_LATTICE_CAP if cap is None else cap
        if len(self) > cap:
            raise LatticeCapError(len(self), cap)
        if self._lattice is None:
            self._lattice = build_lattice(self)
        return self._lattice

    @cached_property
    def hyperplane_flats(self) -> tuple:
        """The flats covering the ambient flat, built once: no two forms are
        proportional, so one per hyperplane H, in order, with kernel basis
        e_j - (f_j / f_p) e_p (j != p; f the form of H, f_p its first nonzero)."""
        return tuple(_covering_flats(self, [ambient_flat(self)], {}))

    @cached_property
    def complex_forms(self) -> np.ndarray:
        """The hyperplane forms as the rows of a complex (m, n) matrix,
        built once per arrangement; read-only."""
        forms = np.array([vec_complex(h.form) for h in self.hyperplanes], dtype=complex)
        forms = forms.reshape(len(self), self.dimension)
        forms.flags.writeable = False
        return forms

    @cached_property
    def essential_irreducible(self) -> bool:
        """Nonempty, essential and irreducible, decided once per arrangement."""
        if not len(self):
            return False
        blocks, rank = self._decomposition
        return rank == self.dimension and len(blocks) == 1

    @cached_property
    def essential_irreducible_restrictions(self) -> frozenset:
        """Indices i0 whose restriction A^{H_i0} is nonempty, essential and
        irreducible, decided once per arrangement (no cap enters)."""
        flats = enumerate(self.hyperplane_flats)
        return frozenset(i0 for i0, flat in flats if _restricted(self, flat)[1].essential_irreducible)

    @cached_property
    def _decomposition(self) -> tuple:
        """The certified finest decomposition as index blocks, and the
        rank, computed once; ``irreducible_decomposition`` hands out
        copies of the blocks.

        Rank additivity across the blocks is checked exactly and every
        block is re-tested for connectivity; a failed check is an
        internal error, not a report.
        """
        if not len(self):
            raise PreconditionError("irreducible decomposition of an empty arrangement")
        blocks, total = _blocks(self, range(len(self)))
        block_ranks = 0
        for block in blocks:
            sub_blocks, rank = _blocks(self, block)
            if len(sub_blocks) != 1:
                raise AssertionError("matroid decomposition produced a reducible block")
            block_ranks += rank
        if block_ranks != total:
            raise AssertionError("matroid decomposition failed rank additivity")
        return tuple(blocks), total


@dataclass(frozen=True)
class Flat:
    """An intersection-lattice element.

    ``containing`` is the closed, sorted set of indices of hyperplanes that
    contain the subspace; it is the canonical key.  ``kernel_basis`` spans
    the subspace.
    """

    containing: tuple
    kernel_basis: tuple
    codim: int

    def __eq__(self, other):
        return isinstance(other, Flat) and self.containing == other.containing

    def __hash__(self):
        return hash(self.containing)

    @property
    def dim(self) -> int:
        return len(self.kernel_basis)


def ambient_flat(arr: Arrangement) -> Flat:
    basis = tuple(
        tuple(GR_ONE if i == j else GR_ZERO for j in range(arr.dimension))
        for i in range(arr.dimension)
    )
    return Flat(containing=(), kernel_basis=basis, codim=0)


def _integer_traces(arr: Arrangement, parts):
    """The trace of every hyperplane on the span of Gaussian-integer
    vectors ((re, im) pairs, such as the cleared vectors of a flat's
    kernel_basis), in hyperplane order, as one (re, im) pair of int lists:
    the rows of the product F B^T of the integer forms and the vectors.
    A trace is zero iff the hyperplane contains the span; rescaling the
    vectors leaves alone which traces are proportional."""
    fr, fi = arr._integer_forms
    n, k = arr.dimension, len(parts)
    br = np.array([p[0] for p in parts], dtype=object).reshape(k, n).T
    bi = np.array([p[1] for p in parts], dtype=object).reshape(k, n).T
    return list(zip((fr @ br - fi @ bi).tolist(), (fr @ bi + fi @ br).tolist()))


def flat_from_basis(arr: Arrangement, basis) -> Flat:
    """Canonical flat with the given (possibly empty) kernel basis."""
    basis = tuple(vec(b) for b in basis)
    traces = _integer_traces(arr, [cleared(b) for b in basis])
    containing = tuple(i for i, (re, im) in enumerate(traces) if not (any(re) or any(im)))
    return Flat(containing=containing, kernel_basis=basis, codim=arr.dimension - len(basis))


def flat_from_indices(arr: Arrangement, indices) -> Flat:
    """Flat spanned by intersecting the given hyperplanes (closure taken)."""
    indices = sorted(set(indices))
    if not indices:
        return ambient_flat(arr)
    rows = [arr.form(i) for i in indices]
    _, basis = rank_kernel(rows)
    return flat_from_basis(arr, basis)


class Lattice:
    """All intersections of members of an arrangement, canonicalized."""

    def __init__(self, arr: Arrangement, flats):
        self.arrangement = arr
        self.flats = sorted(flats, key=lambda f: (f.codim, f.containing))

    def __len__(self):
        return len(self.flats)

    def of_codim(self, c: int):
        return [f for f in self.flats if f.codim == c]

    @cached_property
    def irreducible(self) -> tuple:
        """The irreducible flats in lattice order, tested once per lattice."""
        return tuple(f for f in self.flats if is_irreducible_flat(self.arrangement, f))


def build_lattice(arr: Arrangement) -> Lattice:
    """Breadth-first search from the ambient flat, one level of covering
    flats (``_covering_flats``) at a time."""
    start = ambient_flat(arr)
    flats = {start.containing: start}
    frontier = [start]
    while frontier:
        frontier = _covering_flats(arr, frontier, flats)
    return Lattice(arr, flats.values())


def _covering_flats(arr: Arrangement, frontier, seen: dict) -> list:
    """The flats covering those of the frontier that are not yet in
    ``seen`` (a dict from containing sets to flats, updated), in order of
    the frontier and then of the first member of each class.

    The flats covering F are the classes of proportional traces on F of
    the hyperplanes not containing it (``_trace_classes``); a class's flat
    contains F's hyperplanes and the class's sources.  Only a flat not
    seen before gets a kernel basis: the kernel of the trace of the
    class's first member, in F's kernel_basis frame, mapped back to C^n
    (``_trace_kernel``).
    """
    new = []
    bases = [_cleared_basis(flat.kernel_basis) for flat in frontier]
    # one product for the whole level, sliced flat by flat
    rows = _integer_traces(arr, [p for parts, _ in bases for p in parts])
    hi = 0
    for flat, (parts, mus) in zip(frontier, bases):
        lo, hi = hi, hi + len(parts)
        traces = [(re[lo:hi], im[lo:hi]) for re, im in rows]
        for sources in _trace_classes(traces, flat.containing):
            key = tuple(sorted(flat.containing + sources))
            if key in seen:
                continue
            basis = _trace_kernel(traces[sources[0]], flat.kernel_basis, parts, mus)
            seen[key] = Flat(key, basis, arr.dimension - len(basis))
            new.append(seen[key])
    return new


def _cleared_basis(basis):
    """The vectors b_j of a basis over Q(i) as Gaussian-integer vectors
    B_j = mu_j b_j, (re, im) pairs, and the common denominators mu_j."""
    mus = [common_denominator(b) for b in basis]
    return [cleared(b, mu) for b, mu in zip(basis, mus)], mus


def _trace_kernel(trace, basis, parts, mus) -> tuple:
    """Exact kernel, inside span(basis), of the trace t of a hyperplane,
    given its integer trace T on the cleared vectors B_j = mu_j b_j.

    With p the first index where t is nonzero, the kernel is spanned by
    b_j - (t_j / t_p) b_p for j != p, in order of j.  T_j = d mu_j t_j (d
    the form's common denominator), so that vector is
    (N B_j - T_j conj(T_p) B_p) / (N mu_j) with N = |T_p|^2; a b_j on
    which t vanishes is kept as it is.
    """
    tr, ti = trace
    p = next(j for j, (a, b) in enumerate(zip(tr, ti)) if a or b)
    pr, pi = tr[p], ti[p]
    norm = pr * pr + pi * pi
    yr, yi = parts[p]
    out = []
    for j, (vector, (xr, xi), mu) in enumerate(zip(basis, parts, mus)):
        if j == p:
            continue
        if not (tr[j] or ti[j]):
            out.append(vector)
            continue
        cr, ci = tr[j] * pr + ti[j] * pi, ti[j] * pr - tr[j] * pi
        d = norm * mu
        out.append(
            tuple(
                gaussian_ratio(norm * a - cr * u + ci * v, norm * b - cr * v - ci * u, d)
                for a, b, u, v in zip(xr, xi, yr, yi)
            )
        )
    return tuple(out)


def localization(arr: Arrangement, flat: Flat) -> Arrangement:
    """Sub-arrangement of the hyperplanes containing the flat (same ambient)."""
    _require_flat(arr, flat)
    return Arrangement(arr.dimension, [arr.hyperplanes[i] for i in flat.containing])


@dataclass(frozen=True)
class Trace:
    """A hyperplane of a restricted arrangement with its source fibre
    (the indices of the hyperplanes it is the trace of)."""

    id: str
    form: ExactVector
    sources: tuple


def _trace_classes(traces, containing):
    """Source tuples of the classes of proportional integer traces of the
    hyperplanes outside ``containing``, in order of their first member;
    traces are compared by their primitive keys."""
    inside = set(containing)
    merged = {}
    for i, trace in enumerate(traces):
        if i not in inside:
            merged.setdefault(_primitive_key(*trace), []).append(i)
    return [tuple(sources) for sources in merged.values()]


def _traces_on(arr: Arrangement, flat: Flat):
    """Traces on the flat of the hyperplanes not containing it, merged
    into one class when proportional, in order of their first member;
    coordinates are taken in the flat's kernel_basis frame, and only a
    class's first member gets its exact form, t_j = T_j / (d mu_j) from
    its integer trace T (see ``_trace_kernel``).  Each class is a
    hyperplane of the restriction and, as a flat of the arrangement, one
    of the flats covering this one."""
    parts, mus = _cleared_basis(flat.kernel_basis)
    traces = _integer_traces(arr, parts)
    out = []
    for sources in _trace_classes(traces, flat.containing):
        i = sources[0]
        d = arr._denominators[i]
        form = tuple(gaussian_ratio(a, b, d * mu) for a, b, mu in zip(*traces[i], mus))
        out.append(Trace(arr.hyperplanes[i].id, form, sources))
    return out


def restriction(arr: Arrangement, flat: Flat) -> Arrangement:
    """Induced arrangement on a flat, in its kernel_basis coordinates."""
    _require_flat(arr, flat)
    return _restricted(arr, flat)[1]


def _restricted(arr: Arrangement, flat: Flat):
    """The traces on a flat of the arrangement (``_traces_on``) and the
    restriction they make; a flat that is a point is refused."""
    if flat.dim == 0:
        raise PreconditionError("restriction to a point undefined")
    traces = _traces_on(arr, flat)
    return traces, Arrangement(flat.dim, [Hyperplane(t.id, t.form) for t in traces])


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _matroid_components(re, im):
    """Connected components and rank of the linear matroid of
    Gaussian-integer vectors, the rows of re + i im for two object arrays
    of shape (m, n) (``Arrangement._integer_forms`` holds the cleared
    forms so).

    Greedy basis plus fundamental circuits, read from one echelon form of
    the vectors taken as columns: the pivot columns are the greedy basis,
    and a non-pivot column holds the coordinates of its vector in that
    basis, so the vectors nonzero in one row share a circuit with that
    row's pivot and join its connectivity class.  Scaling a vector leaves
    its matroid alone, so each form may be replaced by its cleared
    multiple.
    """
    m = len(re)
    uf = _UnionFind(m)
    rows, pivots = _echelon_core(list(zip(re.T.tolist(), im.T.tolist())))
    for (re, im), p in zip(rows, pivots):
        for i in range(m):
            if re[i] or im[i]:
                uf.union(p, i)
    groups = {}  # filled in index order, so ordered by smallest member
    for i in range(m):
        groups.setdefault(uf.find(i), []).append(i)
    return list(groups.values()), len(pivots)


def irreducible_decomposition(arr: Arrangement):
    """The unique finest u-plus decomposition, as hyperplane-index blocks:
    a fresh list of lists copied from the arrangement's certified cache."""
    return [list(block) for block in arr._decomposition[0]]


def _blocks(arr: Arrangement, indices):
    """The matroid blocks (``_matroid_components``) of the hyperplanes
    with the given increasing indices, as sorted index tuples ordered by
    their smallest member, and the rank of their forms; no indices, no
    blocks.  On a flat's containing set the blocks are the irreducible
    components of its localization, and each is closed: a hyperplane
    through a block's center contains the flat, and its form lies in the
    span of that block only, as the blocks' spans are independent."""
    indices = list(indices)
    fr, fi = arr._integer_forms
    groups, rank = _matroid_components(fr[indices], fi[indices])
    return [tuple([indices[i] for i in group]) for group in groups], rank


def irreducible_components(arr: Arrangement, flat: Flat):
    """Centers of the irreducible components of the localization at the
    flat: one flat per block of its containing set (``_blocks``), which is
    that flat's containing set, ordered by smallest hyperplane index."""
    _require_flat(arr, flat)
    return [flat_from_indices(arr, block) for block in _blocks(arr, flat.containing)[0]]


def is_irreducible_flat(arr: Arrangement, flat: Flat) -> bool:
    """A flat is irreducible when its containing set is one matroid block;
    the ambient flat (no hyperplanes, no blocks) is not."""
    return len(_blocks(arr, flat.containing)[0]) == 1


def irreducible_flats(arr: Arrangement, cap: Optional[int] = None) -> tuple:
    return arr.lattice(cap=cap).irreducible


@dataclass(frozen=True)
class DeletionRestriction:
    deleted: Arrangement
    restricted: Arrangement
    projection: dict
    separator: bool


def deletion_restriction(arr: Arrangement, h0: str) -> DeletionRestriction:
    """Deletion-restriction triple at the hyperplane with id h0.

    The restriction is to h0's flat in ``arr.hyperplane_flats`` (so C^1 is
    refused as a point).  ``projection`` maps each surviving hyperplane id
    to the id of its trace on h0 (merged traces share one id).  h0 is a
    separator when the center of the deleted arrangement is not inside h0,
    that is, when its form is outside the span of the other forms: a
    coloop of the matroid of the forms.  No form is zero, so a coloop is
    exactly a one-element block of the cached irreducible decomposition.
    """
    i0 = arr.index_of(h0)
    keep = [h for i, h in enumerate(arr.hyperplanes) if i != i0]
    deleted = Arrangement(arr.dimension, keep)
    traces, restricted = _restricted(arr, arr.hyperplane_flats[i0])
    projection = {arr.hyperplanes[i].id: t.id for t in traces for i in t.sources}
    separator = (i0,) in arr._decomposition[0]
    return DeletionRestriction(deleted, restricted, projection, separator)


def _require_flat(arr: Arrangement, flat: Flat):
    """Refuse a flat unless its containing set is exactly the hyperplanes
    its kernel basis lies in: one closure decides both failures."""
    closed = flat_from_basis(arr, flat.kernel_basis).containing
    if not set(flat.containing) <= set(closed):
        raise PreconditionError("flat does not belong to this arrangement")
    if closed != flat.containing:
        raise PreconditionError("flat containing set is not closed for this arrangement")


# -- braid arrangement forms (used by the file format and by lauricella) ------

def braid_hyperplanes(n: int):
    """Hyperplanes of the essential braid arrangement in C^n.

    Pairs (i, j) with 1 <= i < j <= n+1 in lexicographic order; the form is
    z_i - z_j for j <= n and z_i for j = n+1.  Ids are "H_i_j".
    """
    if n < 1:
        raise InputError("braid arrangement needs n >= 1")
    planes = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            form = [GR_ZERO] * n
            form[i - 1] = GR_ONE
            if j <= n:
                form[j - 1] = -GR_ONE
            planes.append(Hyperplane(f"H_{i}_{j}", tuple(form)))
    return planes


def pair_of_id(hyperplane_id: str):
    """Inverse of the "H_i_j" naming used by the braid builder."""
    parts = hyperplane_id.split("_")
    if len(parts) != 3 or parts[0] != "H":
        raise InputError(f"not a braid hyperplane id: {hyperplane_id!r}")
    return int(parts[1]), int(parts[2])


# -- JSON file format ---------------------------------------------------------

def _parse_entry(entry) -> GaussianRational:
    if isinstance(entry, str):
        return GaussianRational.parse(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        re, im = (Fraction(str(part).strip()) for part in entry)
        return GaussianRational(re, im)
    if isinstance(entry, int):
        return GaussianRational(entry)
    raise InputError(f"cannot parse coefficient {entry!r}")


def _entry_to_json(value: GaussianRational):
    return [str(value.re), str(value.im)]


def _integer_field(obj: dict, name: str) -> int:
    """A field holding an integer up to MAX_DIMENSION, or a number or
    string without a fractional part; a bool, a fraction, a larger value
    or anything else is refused."""
    if name not in obj:
        raise InputError(f"missing field {name!r}")
    value = obj[name]
    try:  # float() reads "1e99999999" as inf, where Fraction builds the integer
        if float(value) > MAX_DIMENSION:
            value = MAX_DIMENSION + 1
    except (TypeError, ValueError, OverflowError):
        pass  # a "p/q" string, or an int past the float range
    try:
        number = Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        number = None
    if isinstance(value, bool) or number is None or number.denominator != 1:
        raise InputError(f"field {name!r} must be an integer, got {value!r}")
    if number > MAX_DIMENSION:
        raise InputError(f"field {name!r} must be at most {MAX_DIMENSION}")
    return int(number)


def arrangement_from_json(obj) -> Arrangement:
    if not isinstance(obj, dict):
        raise InputError("arrangement JSON must be an object")
    if "builtin" in obj:
        if obj["builtin"] != "A_n":
            raise InputError(f"unknown builtin {obj['builtin']!r}")
        n = _integer_field(obj, "n")
        return Arrangement(n, braid_hyperplanes(n))
    dimension = _integer_field(obj, "dimension")
    if "hyperplanes" not in obj:
        raise InputError("missing field 'hyperplanes'")
    raw = obj["hyperplanes"]
    if not isinstance(raw, list):
        raise InputError(f"field 'hyperplanes' must be a list, got {raw!r}")
    planes = []
    for item in raw:
        try:
            form = vec(_parse_entry(e) for e in item["form"])
            planes.append(Hyperplane(str(item["id"]), form))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad hyperplane entry: {exc}") from None
    return Arrangement(dimension, planes)


def arrangement_to_json(arr: Arrangement) -> dict:
    return {
        "dimension": arr.dimension,
        "hyperplanes": [
            {"id": h.id, "form": [_entry_to_json(c) for c in h.form]}
            for h in arr.hyperplanes
        ],
    }


def _read_json(path):
    """The JSON value in a file; unreadable or unparsable files are input errors."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (OSError, ValueError) as exc:  # e.g. bad UTF-8, an int past 4300 digits
        raise InputError(str(exc)) from None


def load_arrangement(path) -> Arrangement:
    return arrangement_from_json(_read_json(path))
