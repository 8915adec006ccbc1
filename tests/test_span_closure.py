"""One span closure for the Burnside test and its witness, and the
Kronecker constraint of the invariant forms.

The two-pass word walk, the orthogonalize-as-you-go eigenvector orbit and
the loop-built constraint matrix over a list of basis matrices below are
the earlier implementations of ``irreducibility`` and ``invariant_forms``;
they are kept here as oracles for the versions in ``src/``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrconn.holonomy import (
    _constraint_matrix,
    _hermitian_basis,
    _span_closure,
    invariant_forms,
    irreducibility,
)


# -- oracles ------------------------------------------------------------------------

def reference_walk(gens_inv, n, tol, max_len):
    """Words of length <= max_len from the identity, each kept when its
    normalized vec leaves the span of the kept ones (modified
    Gram-Schmidt, one 1-D product per kept word); a level is finished
    before the full span stops the walk."""
    full = n * n
    ortho, kept = [], []

    def try_add(mat):
        v = mat.ravel() / max(np.linalg.norm(mat), 1e-300)
        w = v.copy()
        for b in ortho:
            w = w - (b.conj() @ w) * b
        res = np.linalg.norm(w)
        if res > tol:
            ortho.append(w / res)
            kept.append(v)
            return True
        return False

    try_add(np.eye(n, dtype=complex))
    frontier = [np.eye(n, dtype=complex)]
    words, length = 1, 0
    while frontier and length < max_len and len(ortho) < full:
        new_frontier = []
        for mat in frontier:
            for g in gens_inv:
                words += 1
                prod = g @ mat
                if try_add(prod):
                    new_frontier.append(prod / np.linalg.norm(prod))
        frontier = new_frontier
        length += 1
    return kept, words


def reference_orbit_span(vector, gens_inv, tol):
    """Orthonormal columns spanning the orbit of vector; the frontier holds
    the orthogonalized residuals, with no length limit."""
    n = vector.shape[0]
    basis = [vector / np.linalg.norm(vector)]
    frontier = [basis[0]]
    while frontier:
        new = []
        for v in frontier:
            for g in gens_inv:
                w = g @ v
                for b in basis:
                    w = w - (b.conj() @ w) * b
                norm = np.linalg.norm(w)
                if norm > tol:
                    w = w / norm
                    basis.append(w)
                    new.append(w)
                    if len(basis) == n:
                        return np.array(basis).T
        frontier = new
    return np.array(basis).T


def reference_irreducibility(gens, tol):
    """(irreducible, span_dim, kept, witness): the walk to length 2n, redone
    to length 4n when the span is not full."""
    n = gens[0].shape[0]
    gens_inv = gens + [np.linalg.inv(g) for g in gens]
    full = n * n
    kept, _ = reference_walk(gens_inv, n, tol, 2 * n)
    if len(kept) < full:
        kept, _ = reference_walk(gens_inv, n, tol, 4 * n)
    sv = np.linalg.svd(np.array(kept), compute_uv=False)
    strict = int(np.sum(sv > 10.0 * tol * sv[0]))
    loose = int(np.sum(sv > 0.1 * tol * sv[0]))
    dim = int(np.sum(sv > tol * sv[0]))
    if strict >= full:
        return True, dim, kept, None
    if loose >= full > strict:
        return None, dim, kept, None
    witness, best = None, n
    for g in gens:
        _, vectors = np.linalg.eig(g)
        for k in range(vectors.shape[1]):
            span = reference_orbit_span(vectors[:, k], gens_inv, tol)
            if span.shape[1] < best:
                best, witness = span.shape[1], span
    return False, dim, kept, witness


def reference_hermitian_basis(n):
    basis = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0j
            m[j, i] = -1.0j
            basis.append(m)
    return basis


def reference_constraint_matrix(gens, basis):
    rows = []
    for t in gens:
        th = t.conj().T
        scale = 1.0 / max(1.0, np.linalg.norm(t, 2) ** 2)
        block = []
        for b in basis:
            image = scale * (th @ b @ t - b)
            block.append(np.concatenate([image.real.ravel(), image.imag.ravel()]))
        rows.append(np.array(block).T)
    return np.vstack(rows)


def reference_form_space(gens, tol):
    """Null vectors of the loop-built constraint matrix, as Hermitian
    matrices, under the same cut as ``invariant_forms``."""
    n = gens[0].shape[0]
    basis = reference_hermitian_basis(n)
    _, s, vt = np.linalg.svd(reference_constraint_matrix(gens, basis), full_matrices=False)
    null_dim = int(np.sum(s <= tol * max(s[0], 1.0))) + len(basis) - s.size
    return [sum(c * b for c, b in zip(vt[-(k + 1)], basis)) for k in range(null_dim)]


# -- generator sets -------------------------------------------------------------------

def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def generator_set(kind, n, seed):
    """A random unitary pair (irreducible), a pair of block-diagonal
    unitaries conjugated by one random invertible matrix (reducible), or a
    pair of unit scalars (reducible)."""
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        return [random_unitary(rng, n) for _ in range(2)]
    if kind == "blocks":
        k = int(rng.integers(1, n))
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gens = []
        for _ in range(2):
            g = np.zeros((n, n), dtype=complex)
            g[:k, :k] = random_unitary(rng, k)
            g[k:, k:] = random_unitary(rng, n - k)
            gens.append(p @ g @ np.linalg.inv(p))
        return gens
    return [np.exp(2j * np.pi * rng.random()) * np.eye(n, dtype=complex) for _ in range(2)]


def projector(columns):
    q, _ = np.linalg.qr(np.asarray(columns))
    return q @ q.conj().T


def real_vecs(mats):
    return np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats]).T


generator_sets = st.tuples(
    st.sampled_from(["unitary", "blocks", "scalar"]),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-8, 1e-7]),
)


# -- properties ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(generator_sets)
def test_irreducibility_matches_two_pass_walk(case):
    kind, n, seed, tol = case
    gens = generator_set(kind, n, seed)
    irreducible, span_dim, ref_kept, ref_witness = reference_irreducibility(gens, tol)
    verdict = irreducibility(gens, tol=tol)
    assert verdict.irreducible is irreducible
    assert verdict.span_dim == span_dim
    assert verdict.irreducible is (kind == "unitary")
    gens_inv = gens + [np.linalg.inv(g) for g in gens]
    kept, ortho, words = _span_closure(np.eye(n, dtype=complex), gens_inv, tol, 4 * n)
    assert len(kept) == len(ref_kept) == len(ortho)
    assert words == verdict.words_used <= reference_walk(gens_inv, n, tol, 4 * n)[1]
    sv = np.linalg.svd(kept, compute_uv=False)
    ref_sv = np.linalg.svd(np.array(ref_kept), compute_uv=False)
    assert np.max(np.abs(sv - ref_sv)) <= 1e-12
    assert np.linalg.norm(ortho @ ortho.conj().T - np.eye(len(ortho))) <= 1e-12
    if irreducible is False:
        witness = verdict.invariant_subspace
        assert witness.shape == ref_witness.shape
        assert np.linalg.norm(witness.conj().T @ witness - np.eye(witness.shape[1])) <= 1e-12
        assert np.linalg.norm(projector(witness) - projector(ref_witness), 2) <= 1e-8


@settings(max_examples=60)
@given(generator_sets)
def test_kronecker_constraint_matches_loop(case):
    kind, n, seed, tol = case
    gens = generator_set(kind, n, seed)
    basis = _hermitian_basis(n)
    old_basis = reference_hermitian_basis(n)
    assert np.array_equal(basis, np.array([b.ravel() for b in old_basis]).T)
    new = _constraint_matrix(np.array(gens), basis)
    old = reference_constraint_matrix(gens, old_basis)
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= 1e-13
    forms = [f.matrix for f in invariant_forms(gens, tol=tol)]
    ref = reference_form_space(gens, tol)
    assert len(forms) == len(ref) >= 1
    assert np.linalg.norm(projector(real_vecs(forms)) - projector(real_vecs(ref)), 2) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closure_of_a_vector_stops_at_full_span(n):
    # a cyclic shift moves e_1 through every basis vector: n words kept,
    # n words tried, and the walk stops without trying the (n+1)-th
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    kept, ortho, words = _span_closure(np.eye(n, dtype=complex)[0], [shift], 1e-8, n)
    assert len(kept) == n and words == n
    assert np.allclose(np.abs(ortho), np.eye(n))


def test_witness_closure_reaches_past_length_one():
    # two non-isomorphic irreducible 4-blocks, each a 4-cycle S and a
    # diagonal D: from e_1, the words of length <= 1 reach e_2 and e_4 but
    # not e_3, so a too-short closure would offer span(e_1, e_2, e_4)
    shift = np.roll(np.eye(4), 1, axis=0)
    gens = [
        np.kron(np.eye(2), shift).astype(complex),
        np.diag(np.exp(2j * np.pi * np.array([0.1, 0.2, 0.35, 0.5, 0.15, 0.3, 0.45, 0.7]))),
    ]
    verdict = irreducibility(gens)
    assert verdict.irreducible is False
    witness = verdict.invariant_subspace
    assert witness.shape == (8, 4)
    outside = np.eye(8) - witness @ witness.conj().T
    assert all(np.linalg.norm(outside @ g @ witness, 2) <= 1e-12 for g in gens)
