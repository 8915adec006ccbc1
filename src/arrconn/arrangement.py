"""Central hyperplane arrangements over Q(i).

An arrangement stores its ids and one Gaussian-integer row per form;
the Q(i) hyperplanes and the complex forms are views built from them on
first use.  Intersection lattice, localization and restriction,
irreducibility via linear-matroid connectivity, deletion-restriction
triples, and the JSON file format (including the built-in braid
arrangement generator).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Optional

import numpy as np

from .errors import InputError, LatticeCapError, PreconditionError
from .numkernel import (
    ExactVector,
    GaussianRational,
    _echelon_core,
    cleared,
    cleared_pairs,
    gaussian_ratio,
    kernel_of_echelon,
    lowest_terms,
    MAX_EXPONENT,
    parse_fraction,
)

DEFAULT_LATTICE_CAP = 20
# the largest dimension, and builtin n, that a file may give; a larger one
# is refused as it is read, before any hyperplane or array is built
MAX_DIMENSION = 64
# the most flats of a lattice level whose traces and keys are one batch of
# arrays; a larger level is split, which bounds the build's memory (A_8's
# largest level has 7,770 flats) at no cost in speed
LEVEL_BATCH = 1024


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
    """A finite list of linear hyperplanes through the origin of C^n.

    Stored once: the ids, and each form h_i as the Gaussian-integer row
    (re, im, d_i) that ``cleared`` gives, h_i = (re + i im) / d_i with
    gcd(d_i, re..., im...) = 1, held as ``_integer_forms`` (the (re, im)
    object arrays of shape (m, n)) and ``_denominators``.  ``hyperplanes``,
    ``form(i)`` and ``complex_forms`` are read-only views, built on first
    use.
    """

    def __init__(self, dimension: int, hyperplanes):
        hyperplanes = tuple(hyperplanes)
        rows = [cleared(h.form) for h in hyperplanes]
        vars(self).update(vars(self._from_rows(dimension, [h.id for h in hyperplanes], rows)))

    @classmethod
    def _from_rows(cls, dimension: int, ids, rows) -> "Arrangement":
        """The arrangement of the given ids and canonical rows (re, im, d);
        every arrangement is made here, and the input checks are made
        here, in this order."""
        if dimension < 1:
            raise InputError("dimension must be >= 1")
        ids = tuple(ids)
        if len(set(ids)) != len(ids):
            raise InputError("duplicate hyperplane ids")
        seen = {}
        for hid, (re, im, _) in zip(ids, rows):
            if len(re) != dimension:
                raise InputError(f"form of {hid} has wrong length")
            key = _primitive_key(re, im)
            if key in seen:
                raise InputError(f"hyperplanes {seen[key]} and {hid} are proportional")
            seen[key] = hid
        arr = cls.__new__(cls)
        arr.dimension, arr._ids, arr._lattice = dimension, ids, None
        arr._integer_forms = tuple(np.array([r[k] for r in rows], object).reshape(-1, dimension) for k in (0, 1))
        arr._denominators = tuple(d for _, _, d in rows)
        arr._form_big = _largest(np.stack(arr._integer_forms))  # the largest |re| or |im| of a form
        return arr

    def __len__(self):
        return len(self._ids)

    def index_of(self, hyperplane_id: str) -> int:
        try:
            return self._ids.index(hyperplane_id)
        except ValueError:
            raise InputError(f"unknown hyperplane id {hyperplane_id!r}") from None

    @cached_property
    def hyperplanes(self) -> tuple:
        """The hyperplanes as ``Hyperplane(id, form)``, forms over Q(i)."""
        fr, fi = self._integer_forms
        rows = zip(self._ids, fr.tolist(), fi.tolist(), self._denominators)
        return tuple(Hyperplane(hid, tuple(gaussian_ratio(a, b, d) for a, b in zip(re, im))) for hid, re, im, d in rows)

    def form(self, i: int) -> ExactVector:
        return self.hyperplanes[i].form

    def ids(self):
        return list(self._ids)

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
        return tuple(_covering_flats(self, [ambient_flat(self)], {}, {}))

    @cached_property
    def _braid_dimension(self) -> int:
        """n, when the ids are those of ``_braid_rows(n)`` and each form's primitive
        key is its row (its own key).  Decided once; a refusal is not kept."""
        ids, rows = _braid_rows(self.dimension)
        fr, fi = self._integer_forms
        keys = [_primitive_key(re, im) for re, im in zip(fr.tolist(), fi.tolist())]
        if self._ids != tuple(ids) or keys != [(*re, *im) for re, im, _ in rows]:
            raise InputError("arrangement is not the braid arrangement A_n, up to scaling of its forms")
        return self.dimension

    @cached_property
    def complex_forms(self) -> np.ndarray:
        """The hyperplane forms as the rows of a complex (m, n) matrix;
        Python int true division rounds correctly, so each entry is
        ``complex`` of the exact one.  An entry past the double range is
        an InputError."""
        fr, fi = self._integer_forms
        rows = zip(fr.tolist(), fi.tolist(), self._denominators)
        try:
            forms = [complex(a / d, b / d) for re, im, d in rows for a, b in zip(re, im)]
        except OverflowError:
            raise InputError("a form entry is outside the double range") from None
        forms = np.array(forms, dtype=complex)
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
        irreducible, decided once per arrangement (no cap enters), with no
        restriction built: its forms (``_restricted``) are the traces on
        H_i0's rows of its classes' first members, times a nonzero rational
        per form and lcm // mu_j > 0 per coordinate, so the traces' matroid
        (the contraction at H_i0) has the same rank and blocks."""
        if not len(self):
            return frozenset()
        tr, ti, classes = _trace_classes(self, self.hyperplane_flats)
        firsts = [[sources[0] for sources in flat_classes] for flat_classes in classes]
        parts = [_matroid_components(tr[f, i0], ti[f, i0]) for i0, f in enumerate(firsts)]
        return frozenset(i0 for i0, (blocks, rank) in enumerate(parts) if rank == self.dimension - 1 and len(blocks) == 1)

    @cached_property
    def _decomposition(self) -> tuple:
        """The certified finest decomposition as index blocks, and the
        rank, computed once; ``irreducible_decomposition`` hands out
        copies of the blocks.

        With two blocks or more, rank additivity is checked exactly and
        every block re-tested for connectivity (a failure is an internal
        error); one block's re-test would repeat the same echelon form.
        """
        if not len(self):
            raise PreconditionError("irreducible decomposition of an empty arrangement")
        blocks, total = _blocks(self, range(len(self)))
        if len(blocks) == 1:
            return tuple(blocks), total
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
    contain the subspace; it is the canonical key.  ``rows`` spans the
    subspace: one Gaussian-integer vector per basis vector b_j, as
    (re, im, d) with b_j = (re + i im) / d, the form ``cleared`` gives.
    ``kernel_basis`` is that basis over Q(i), built on first use.
    """

    containing: tuple
    rows: tuple
    codim: int

    def __eq__(self, other):
        return isinstance(other, Flat) and self.containing == other.containing

    def __hash__(self):
        return hash(self.containing)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def kernel_basis(self) -> tuple:
        return tuple(tuple(gaussian_ratio(a, b, d) for a, b in zip(re, im)) for re, im, d in self.rows)


def ambient_flat(arr: Arrangement) -> Flat:
    n = arr.dimension
    rows = tuple(([int(i == j) for j in range(n)], [0] * n, 1) for i in range(n))
    return Flat(containing=(), rows=rows, codim=0)


def _integer_traces(arr: Arrangement, bases):
    """The trace of every hyperplane on the span of each of a list of sets
    of Gaussian-integer vectors, all of one size k, given as rows (re, im,
    d), such as flats' rows: (re, im) arrays of shape (m, len(bases), k),
    one product F B^T of the integer forms and all the vectors.  A trace
    is zero iff the hyperplane contains the span; rescaling the vectors
    leaves alone which traces are proportional.

    The arrays are int64 when a bound proves every trace and every key
    (``_trace_keys``) exact, object arrays of Python ints otherwise: with
    F and B the largest |re| or |im| of a form and of a vector, a trace
    part is at most t = 2 n F B, a key part before its division at most
    2 t^2, and 2 t^2 < 2^63 is the bound."""
    n, k = arr.dimension, len(bases[0])
    parts = [[row[p] for rows in bases for row in rows] for p in (0, 1)]
    try:
        vectors = np.array(parts, dtype=np.int64).reshape(2, -1, n)
    except OverflowError:  # an entry past int64
        vectors = np.array(parts, dtype=object).reshape(2, -1, n)
    t = 2 * n * arr._form_big * _largest(vectors)
    dtype = np.int64 if 2 * t * t < 2**63 else object
    (fr, fi), (br, bi) = np.stack(arr._integer_forms).astype(dtype), vectors.astype(dtype).transpose(0, 2, 1)
    shape = (len(fr), len(bases), k)
    return (fr @ br - fi @ bi).reshape(shape), (fr @ bi + fi @ br).reshape(shape)


def _largest(a: np.ndarray) -> int:
    """The largest absolute value of an integer array's entries, 0 if none."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _trace_keys(re, im) -> np.ndarray:
    """The primitive key (``_primitive_key``) of every trace along the last
    axis of the (re, im) arrays, as one array of the same dtype whose last
    axis holds the real parts and then the imaginary parts; a zero trace
    has a zero key.  Each trace is multiplied by the conjugate of its
    first nonzero entry u and divided by the gcd of its parts; where u is
    real this is the key's sign change, as gcd(u x) = |u| gcd(x)."""
    at = (*np.indices(re.shape[:-1], sparse=True), ((re != 0) | (im != 0)).argmax(axis=-1))
    ur, ui = re[at][..., None], im[at][..., None]
    keys = np.concatenate([ur * re + ui * im, ur * im - ui * re], axis=-1)
    return keys // np.maximum(np.gcd.reduce(keys, axis=-1, keepdims=True), 1)


def _containing(arr: Arrangement, rows) -> tuple:
    """Indices of the hyperplanes containing the span of the rows."""
    re, im = _integer_traces(arr, [rows])
    return tuple(np.flatnonzero(~((re != 0) | (im != 0)).any(axis=(1, 2))).tolist())


def flat_from_basis(arr: Arrangement, basis) -> Flat:
    """Canonical flat with the given (possibly empty) kernel basis."""
    rows = tuple(cleared(b) for b in basis)
    return Flat(containing=_containing(arr, rows), rows=rows, codim=arr.dimension - len(rows))


def flat_from_indices(arr: Arrangement, indices) -> Flat:
    """Flat spanned by intersecting the given hyperplanes (closure taken):
    the kernel of one echelon form of their stored integer rows."""
    indices = sorted(set(indices))
    if not indices:
        return ambient_flat(arr)
    fr, fi = arr._integer_forms
    core, pivots = _echelon_core([(fr[i].tolist(), fi[i].tolist()) for i in indices])
    return flat_from_basis(arr, kernel_of_echelon(core, pivots, arr.dimension))


class Lattice:
    """All intersections of members of an arrangement, canonicalized, in
    order of codim and then of containing set, with the covers met while
    building it: ``_below`` maps each flat's containing set to those of
    the flats it covers."""

    def __init__(self, arr: Arrangement, flats, below: dict):
        self.arrangement = arr
        self.flats = sorted(flats, key=lambda f: (f.codim, f.containing))
        self._below = below

    def __len__(self):
        return len(self.flats)

    def of_codim(self, c: int) -> tuple:
        return self._by_codim.get(c, ())

    @cached_property
    def _by_codim(self) -> dict:
        return {c: tuple(flats) for c, flats in groupby(self.flats, key=lambda f: f.codim)}

    @cached_property
    def codim2_incidence(self) -> np.ndarray:
        """The 0/1 matrix of ``_incidence`` for ``of_codim(2)``, built once."""
        return _incidence(self.of_codim(2), len(self.arrangement))

    @cached_property
    def irreducible_incidence(self) -> np.ndarray:
        """The 0/1 matrix of ``_incidence`` for ``irreducible``, built once."""
        return _incidence(self.irreducible, len(self.arrangement))

    @cached_property
    def blocks(self) -> dict:
        """Each flat's irreducible blocks, keyed by its containing set: the
        matroid blocks of that set (what ``_blocks`` gives), as sorted index
        tuples ordered by smallest member; the ambient flat has none.  They
        are read from the covers, in codim order (``_cover_blocks``), with
        no echelon form, once per lattice."""
        flats = {f.containing: f for f in self.flats}
        blocks = {}
        for flat in self.flats:
            key = flat.containing
            blocks[key] = _cover_blocks(flat, self._below[key], blocks, flats) if flat.codim else ()
        return blocks

    @cached_property
    def irreducible(self) -> tuple:
        """The irreducible flats, those of one block, in lattice order."""
        return tuple(f for f in self.flats if len(self.blocks[f.containing]) == 1)


def _incidence(flats, m: int) -> np.ndarray:
    """The read-only 0/1 matrix whose row k marks the hyperplanes containing flats[k]."""
    incidence = np.zeros((len(flats), m), dtype=np.int64)
    which = [k for k, flat in enumerate(flats) for _ in flat.containing]
    incidence[which, [i for flat in flats for i in flat.containing]] = 1
    incidence.flags.writeable = False
    return incidence


def build_lattice(arr: Arrangement) -> Lattice:
    """Breadth-first search from the hyperplane flats, one level of covering
    flats (``_covering_flats``) at a time, recording every cover, from
    which the lattice reads each flat's blocks (``Lattice.blocks``)."""
    start, frontier = ambient_flat(arr), list(arr.hyperplane_flats)
    flats = {f.containing: f for f in [start, *frontier]}
    below = {f.containing: [start.containing] for f in frontier}
    while frontier:
        frontier = _covering_flats(arr, frontier, flats, below)
    return Lattice(arr, flats.values(), below)


def _components(items, links) -> tuple:
    """The classes of a sorted sequence of items joined along each link (a
    nonempty sequence of items), as sorted tuples ordered by smallest member."""
    group = {h: [h] for h in items}  # each member's group, one list shared
    for link in links:
        first = group[link[0]]
        for h in link[1:]:
            other = group[h]
            if other is not first:
                first += other
                for x in other:
                    group[x] = first
    groups, met = [], set()
    for h in items:  # so ordered by smallest member
        if id(group[h]) not in met:
            met.add(id(group[h]))
            groups.append(tuple(sorted(group[h])))
    return tuple(groups)


def _cover_blocks(flat: Flat, covered, blocks: dict, flats: dict) -> tuple:
    """The blocks of a flat X, given the containing sets of the flats it
    covers, whose blocks are known.  The groups of X are the classes of
    containing(X) joined along every block of every flat X covers.  X is
    reducible iff there are two groups or more, each the containing set of
    a flat, with codims summing to codim X; then the groups are its
    blocks, and otherwise containing(X) is its one block.

    Matroid connectivity (Oxley, Matroid Theory, ch. 4) proves it.  A
    block of a covered flat is connected, so it lies in one block of X:
    groups refine blocks.  If X is reducible, each of its blocks is the
    containing set of a flat Y of smaller codim, some flat that X covers
    contains Y's hyperplanes, and Y's connected set lies in one of its
    blocks: so the groups are the blocks, and they pass the test.  Closed
    groups whose ranks (codims) sum to the rank of X split its matroid as
    a direct sum, so an irreducible X fails the test."""
    containing = flat.containing
    groups = _components(containing, [block for key in covered for block in blocks[key]])
    if len(groups) > 1 and all(g in flats for g in groups):
        if sum(flats[g].codim for g in groups) == flat.codim:
            return groups
    return (containing,)


def _covering_flats(arr: Arrangement, frontier, seen: dict, below: dict) -> list:
    """The flats covering those of the frontier, all of one dimension,
    that are not yet in ``seen`` (a dict from containing sets to flats,
    updated), in order of the frontier and then of the first member of
    each class.  Every cover met is recorded in ``below`` (a dict from a
    flat's containing set to those of the flats it covers, updated), seen
    or not.

    The flats covering F are the classes of proportional traces on F of
    the hyperplanes not containing it, found in one batch for up to
    LEVEL_BATCH flats of the frontier at a time (``_trace_classes``); a
    class's flat contains F's hyperplanes and the class's sources.  Only a
    flat not seen before gets rows: the kernel of the trace of the class's
    first member, in F's frame, mapped back to C^n (``_trace_kernel``).
    """
    if not frontier[0].rows:  # a point lies in every hyperplane
        return []
    new = []
    for lo in range(0, len(frontier), LEVEL_BATCH):
        batch = frontier[lo : lo + LEVEL_BATCH]
        tr, ti, classes = _trace_classes(arr, batch)
        for f, flat in enumerate(batch):
            for sources in classes[f]:
                key = tuple(sorted(flat.containing + sources))
                below.setdefault(key, []).append(flat.containing)
                if key in seen:
                    continue
                i = sources[0]
                rows = _trace_kernel((tr[i, f].tolist(), ti[i, f].tolist()), flat.rows)
                seen[key] = Flat(key, rows, arr.dimension - len(rows))
                new.append(seen[key])
    return new


def _trace_kernel(trace, rows) -> tuple:
    """Exact kernel, inside the span of a flat's rows, of the trace t of a
    hyperplane, given its integer trace T on them, as rows again.

    With B_j the Gaussian-integer vector of row j and mu_j its
    denominator, the basis vectors are b_j = B_j / mu_j.  With p the
    first index where t is nonzero, the kernel is spanned by
    b_j - (t_j / t_p) b_p for j != p, in order of j.  T_j = d mu_j t_j (d
    the form's common denominator), so that vector is
    (N B_j - T_j conj(T_p) B_p) / (N mu_j) with N = |T_p|^2, divided
    through by the gcd of its parts and N mu_j; a row on which t vanishes
    is kept as it is.
    """
    tr, ti = trace
    p = next(j for j, (a, b) in enumerate(zip(tr, ti)) if a or b)
    pr, pi = tr[p], ti[p]
    norm = pr * pr + pi * pi
    yr, yi, _ = rows[p]
    out = []
    for j, row in enumerate(rows):
        if j == p:
            continue
        if not (tr[j] or ti[j]):
            out.append(row)
            continue
        xr, xi, mu = row
        cr, ci = tr[j] * pr + ti[j] * pi, ti[j] * pr - tr[j] * pi
        re = [norm * a - cr * u + ci * v for a, u, v in zip(xr, yr, yi)]
        im = [norm * b - cr * v - ci * u for b, u, v in zip(xi, yr, yi)]
        out.append(lowest_terms(re, im, norm * mu))
    return tuple(out)


def localization(arr: Arrangement, flat: Flat) -> Arrangement:
    """Sub-arrangement of the hyperplanes containing the flat (same ambient)."""
    _require_flat(arr, flat)
    return _sub_arrangement(arr, flat.containing)


def _sub_arrangement(arr: Arrangement, indices) -> Arrangement:
    """The hyperplanes at the given indices, in order: a row slice of the stored form."""
    fr, fi = arr._integer_forms
    rows = [(fr[i].tolist(), fi[i].tolist(), arr._denominators[i]) for i in indices]
    return Arrangement._from_rows(arr.dimension, [arr._ids[i] for i in indices], rows)


def _trace_classes(arr: Arrangement, flats):
    """The traces of every hyperplane on each of a nonempty list of flats,
    all of one dimension k, as the (re, im) arrays of shape (m, len(flats), k)
    that ``_integer_traces`` gives, and for each flat the source tuples of
    the classes of proportional traces of the hyperplanes not containing
    it, in order of their first member; traces are compared by their keys
    (``_trace_keys``).  A point has no traces, and is refused."""
    if not flats[0].dim:
        raise PreconditionError("restriction to a point undefined")
    tr, ti = _integer_traces(arr, [flat.rows for flat in flats])
    keys, classes = _trace_keys(tr, ti), []
    for f, flat in enumerate(flats):  # one flat's keys as lists at a time, not the batch's
        inside, merged = set(flat.containing), {}
        for i, key in enumerate(keys[:, f].tolist()):
            if i not in inside:
                merged.setdefault(tuple(key), []).append(i)
        classes.append([tuple(sources) for sources in merged.values()])
    return tr, ti, classes


def restriction(arr: Arrangement, flat: Flat) -> Arrangement:
    """Induced arrangement on a flat, in its kernel_basis coordinates."""
    _require_flat(arr, flat)
    return _restricted(arr, flat)[0]


def _restricted(arr: Arrangement, flat: Flat) -> tuple:
    """The restriction to a flat, one hyperplane per class of proportional
    traces on it (``_trace_classes``) with the id and the trace of the
    class's first member, and the (trace id, sources) pair of each class.
    Coordinates are taken in the flat's kernel_basis frame: the trace is
    t_j = T_j / (d mu_j), from the integer trace T on the rows (see
    ``_trace_kernel``), stored over the lcm of the d mu_j."""
    tr, ti, (classes,) = _trace_classes(arr, [flat])
    mus = [mu for _, _, mu in flat.rows]
    lcm = math.lcm(*mus)
    scale = [lcm // mu for mu in mus]
    firsts, rows = [sources[0] for sources in classes], []
    for i in firsts:
        re, im = ([a * s for a, s in zip(part[i, 0].tolist(), scale)] for part in (tr, ti))
        rows.append(lowest_terms(re, im, arr._denominators[i] * lcm))
    ids = [arr._ids[i] for i in firsts]
    return Arrangement._from_rows(flat.dim, ids, rows), list(zip(ids, classes))


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
    rows, pivots = _echelon_core(list(zip(re.T.tolist(), im.T.tolist())))
    links = [[i for i, (a, b) in enumerate(zip(xr, xi)) if a or b] for xr, xi in rows]
    return [list(group) for group in _components(range(len(re)), links)], len(pivots)


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
    """A flat is irreducible when its containing set is one matroid block
    (``_blocks``); the ambient flat (no hyperplanes, no blocks) is not."""
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
    deleted = _sub_arrangement(arr, [i for i in range(len(arr)) if i != i0])
    restricted, traces = _restricted(arr, arr.hyperplane_flats[i0])
    projection = {arr._ids[i]: hid for hid, sources in traces for i in sources}
    separator = (i0,) in arr._decomposition[0]
    return DeletionRestriction(deleted, restricted, projection, separator)


def _require_flat(arr: Arrangement, flat: Flat):
    """Refuse a flat unless its containing set is exactly the hyperplanes
    its rows lie in: one closure decides both failures."""
    closed = _containing(arr, flat.rows)
    if not set(flat.containing) <= set(closed):
        raise PreconditionError("flat does not belong to this arrangement")
    if closed != flat.containing:
        raise PreconditionError("flat containing set is not closed for this arrangement")


# -- braid arrangement forms (used by the file format and by lauricella) ------

def _braid_rows(n: int):
    """Ids and rows of the essential braid arrangement in C^n.

    Pairs (i, j) with 1 <= i < j <= n+1 in lexicographic order; the form is
    z_i - z_j for j <= n and z_i for j = n+1.  Ids are "H_i_j".
    """
    if n < 1:
        raise InputError("braid arrangement needs n >= 1")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]
    rows = [([(k == i) - (k == j) for k in range(1, n + 1)], [0] * n, 1) for i, j in pairs]
    return [f"H_{i}_{j}" for i, j in pairs], rows


def pair_of_id(hyperplane_id: str):
    """Inverse of the "H_i_j" naming used by the braid builder."""
    parts = hyperplane_id.split("_")
    if len(parts) != 3 or parts[0] != "H":
        raise InputError(f"not a braid hyperplane id: {hyperplane_id!r}")
    return int(parts[1]), int(parts[2])


# -- JSON file format ---------------------------------------------------------

def _read_entry(entry) -> tuple:
    """A rational string, an int, or a [re, im] pair of those (never a bool or
    float), as pairs (num, den), reduced or not, that ``cleared_pairs`` takes."""
    re, im = entry if isinstance(entry, (list, tuple)) and len(entry) == 2 else (entry, 0)
    for part in (re, im):
        if type(part) is not str and type(part) is not int:  # a bool is not an int here
            raise InputError(f"cannot parse coefficient {part!r}")
    return _read_part(re), _read_part(im)


def _read_part(part) -> tuple:
    """int() reads "p" or "p/q", p an optional minus and ASCII digits, q ASCII
    digits not all 0, each at most MAX_EXPONENT; others go to parse_fraction."""
    if type(part) is int:
        return part, 1
    num, slash, den = part.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if part.isascii() and digits.isdigit() and len(digits) <= MAX_EXPONENT and (
        not slash or den.isdigit() and len(den) <= MAX_EXPONENT and den.strip("0")
    ):
        return int(num), int(den) if slash else 1
    value = parse_fraction(part)
    return value.numerator, value.denominator


def _entry_to_json(value: GaussianRational):
    return [_text(value.re), _text(value.im)]


def _text(value) -> str:
    """str(value); an integer in it longer than str writes (4300 digits by
    default, the limit the JSON reader keeps too) is an InputError."""
    try:
        return str(value)
    except ValueError:
        raise InputError(f"an exact value has more than {sys.get_int_max_str_digits()} digits") from None


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
        return Arrangement._from_rows(n, *_braid_rows(n))
    dimension = _integer_field(obj, "dimension")
    if "hyperplanes" not in obj:
        raise InputError("missing field 'hyperplanes'")
    raw = obj["hyperplanes"]
    if not isinstance(raw, list):
        raise InputError(f"field 'hyperplanes' must be a list, got {raw!r}")
    rows = []
    for item in raw:
        try:
            if not isinstance(item, dict):
                raise TypeError(f"must be an object, got {item!r}")
            for name in ("id", "form"):
                if name not in item:
                    raise ValueError(f"missing field {name!r}")
            if not isinstance(item["form"], list):
                raise TypeError(f"form must be a list, got {item['form']!r}")
            row = cleared_pairs([_read_entry(e) for e in item["form"]])
            if type(item["id"]) is not str:
                raise TypeError(f"id must be a string, got {item['id']!r}")
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad hyperplane entry: {exc}") from None
        if not (any(row[0]) or any(row[1])):
            raise InputError(f"hyperplane {item['id']} has a zero form")
        rows.append(row)
    return Arrangement._from_rows(dimension, [item["id"] for item in raw], rows)


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
