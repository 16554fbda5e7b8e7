"""Z_N clock-shift algebra, fermionic operators, Gauss law, Hamiltonians.

Single-link conventions (all N x N):

    P |m> = omega^m |m>,   Q |m> = |m+1 mod N>,   omega = exp(2 pi i / N)
    dft[j,k] = omega^(j k) / sqrt(N),   dft! P dft = Q

Operators on the composite space are handled as "factor maps": a dict
register-index -> small matrix, implicitly identity elsewhere.  Products
of factor maps multiply register by register, which is exact because the
underlying operators are tensor products.  Every factor the model uses
is monomial (at most one nonzero per column), so `monomial_map` turns a
factor map into an index map with one amplitude per basis state; the
Hamiltonian and the Gauss diagonals are scattered from those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (
    Link,
    RegisterLayout,
    Vertex,
    is_even,
    marginals,
)

HERMITICITY_TOL = 1e-10

# the eight pieces of the Hamiltonian and the Couplings field scaling each
TERM_COUPLINGS = {"E": "lambda_e", "M": "mass", "Be": "lambda_b", "Bo": "lambda_b",
                  "GM_eh": "lambda_gm", "GM_ev": "lambda_gm",
                  "GM_oh": "lambda_gm", "GM_ov": "lambda_gm"}
TERM_NAMES = tuple(TERM_COUPLINGS)

# single fermionic mode, |0> = (1, 0) empty
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)   # create
SIGMA_MINUS = SIGMA_PLUS.T.conj().copy()                               # annihilate
NUMBER_OP = np.diag([0.0, 1.0]).astype(np.complex128)
PARITY_Z = np.diag([1.0, -1.0]).astype(np.complex128)                  # 1 - 2n


def symmetric_representatives(N: int) -> np.ndarray:
    """m_bar for m in 0..N-1: the balanced branch of the Z_N labels.

    Odd N: {0, 1, .., (N-1)/2, -(N-1)/2, .., -1}; even N keeps +N/2.
    """
    m = np.arange(N)
    half = N // 2 if N % 2 == 0 else (N - 1) // 2
    return np.where(m <= half, m, m - N).astype(np.float64)


@dataclass(frozen=True)
class LinkAlgebra:
    """Matrices generating and diagnosing a single Z_N link."""

    N: int
    p: np.ndarray
    q: np.ndarray
    dft: np.ndarray
    log_p: np.ndarray


@lru_cache(maxsize=None)
def make_link_algebra(N: int) -> LinkAlgebra:
    """Clock/shift pair, basis change, and logarithm branch for Z_N.

    Cached per N; every array is read-only, so copy before writing.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    omega = np.exp(2j * np.pi / N)
    m = np.arange(N)
    p = np.diag(omega ** m)
    q = np.zeros((N, N), dtype=np.complex128)
    q[(m + 1) % N, m] = 1.0
    dft = omega ** np.outer(m, m) / np.sqrt(N)
    log_p = 1j * (2 * np.pi / N) * np.diag(symmetric_representatives(N)).astype(np.complex128)
    for a in (p, q, dft, log_p):
        a.setflags(write=False)
    return LinkAlgebra(N, p, q, dft, log_p)


def as_edges(h) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """An edge list (dim, rows, cols, vals) as given, or a dense square matrix's nonzeros."""
    if isinstance(h, tuple):
        return h
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    rows, cols = np.nonzero(h)
    return h.shape[0], rows, cols, h[rows, cols]


def coalesce_edges(dim: int, rows, cols, vals):
    """Sum duplicate entries from 0 in list order, as a dense `h[r, c] += v`
    entry by entry would, and drop exact zeros; the result is row-major."""
    key = np.asarray(rows, dtype=np.int64) * dim + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.diff(key, prepend=-1) != 0
    summed = np.zeros(np.count_nonzero(first), dtype=np.complex128)
    np.add.at(summed, np.cumsum(first) - 1, np.asarray(vals)[order])
    key = key[first][summed != 0]
    return dim, key // dim, key % dim, summed[summed != 0]


def edges_to_dense(edges) -> np.ndarray:
    """Dense matrix of an edge list without duplicate entries."""
    dim, rows, cols, vals = edges
    h = np.zeros((dim, dim), dtype=np.complex128)
    h[rows, cols] = vals
    return h


def hermitian_blocks(h) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Eigendecomposition of a Hermitian matrix, one exact-zero block at a time.

    h is an edge list (dim, rows, cols, vals), duplicates summed, or a
    dense matrix; no dim x dim array is made.  ValueError if an entry of
    h - h! exceeds HERMITICITY_TOL.  The connected components of the
    nonzero pattern, read both ways, are the diagonal blocks of h up to a
    permutation, so there is no threshold.  Min-label propagation with
    pointer jumping labels each by its smallest index.  Components of
    equal size s are stacked into one entry (indices, eigenvalues,
    eigenvectors) of shapes (k, s), (k, s), (k, s, s), rows by smallest
    index with indices sorted, in increasing s.
    """
    dim, rows, cols, vals = coalesce_edges(*as_edges(h))
    a, b = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    skew = coalesce_edges(dim, a, b, np.concatenate([vals, -np.conj(vals)]))[3]   # h - h!
    if np.any(np.abs(skew) > HERMITICITY_TOL):
        raise ValueError("matrix is not Hermitian")
    label, changed = np.arange(dim), True
    while changed:
        low = label.copy()
        np.minimum.at(low, a, label[b])
        while (low[low] != low).any():
            low = low[low]
        changed, label = (low != label).any(), low
    size = np.bincount(label, minlength=dim)[label]
    order = np.argsort(size * dim + label, kind="stable")   # indices stay sorted
    counts = np.bincount(size)      # counts[s]: indices in components of size s
    rank = np.argsort(order, kind="stable")     # where each index sits in order
    # each index's row in the stack of its size, and its place in its block
    row, place = np.divmod(rank - (np.cumsum(counts) - counts)[size], size)
    blocks = []
    for s in np.flatnonzero(counts):
        idx = order[size[order] == s].reshape(-1, s)
        mats = np.zeros((idx.shape[0], s, s), dtype=np.complex128)
        on = size[rows] == s
        mats[row[rows[on]], place[rows[on]], place[cols[on]]] = vals[on]
        blocks.append((idx, *np.linalg.eigh(mats)))
    return blocks


def exp_blocks(blocks, scale: complex) -> np.ndarray:
    """Dense exp(scale * h) from the blocks of `hermitian_blocks(h)`."""
    dim = sum(idx.size for idx, _, _ in blocks)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for idx, w, v in blocks:
        vw = v * np.exp(scale * w)[:, None, :]
        out[idx[:, :, None], idx[:, None, :]] = vw @ v.conj().transpose(0, 2, 1)
    return out


def expm_from_hermitian(h: np.ndarray, scale: complex = -1j) -> np.ndarray:
    """exp(scale * h) for Hermitian h via its block eigendecomposition."""
    return exp_blocks(hermitian_blocks(h), scale)


# ---------------------------------------------------------------------------
# factor maps


def fermion_op(layout: RegisterLayout, vertex: Vertex, kind: str) -> dict[int, np.ndarray]:
    """Creation/annihilation operator at a vertex as a factor map.

    The mode order is the register order: the ordering string puts
    PARITY_Z on every fermion register below the vertex's own, so
    anticommutation holds across the lattice.
    """
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be create|annihilate, got {kind!r}")
    mode = layout.fermion_index(vertex)
    factors = {i: PARITY_Z for i, r in enumerate(layout.registers[:mode])
               if r.kind == "fermion"}
    factors[mode] = SIGMA_PLUS if kind == "create" else SIGMA_MINUS
    return factors


def multiply_factors(a: dict[int, np.ndarray], b: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Register-wise product a.b of two factor maps."""
    out = dict(a)
    for i, m in b.items():
        out[i] = out[i] @ m if i in out else m
    return out


def hopping_factors(layout: RegisterLayout, link: Link) -> dict[int, np.ndarray]:
    """psi!(x) Q(x,k) psi(x+k) as a factor map (origin gets the creation)."""
    geom = layout.geometry
    if not geom.link_exists(link):
        raise KeyError(f"link {link} does not exist")
    x, _ = link
    y = geom.link_head(link)
    f = multiply_factors(fermion_op(layout, x, "create"), fermion_op(layout, y, "annihilate"))
    f[layout.link_index(link)] = make_link_algebra(layout.N).q
    return f


def monomial_map(dims, factors: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Index map of a monomial factor map on registers of dimensions `dims`.

    Basis index j goes to target[j] with amplitude amplitude[j]; an
    all-zero column gives amplitude 0.  Factors apply in increasing
    register index, the kron order.  A factor with two nonzeros in one
    column raises ValueError.
    """
    digits = np.indices(tuple(dims)).reshape(len(dims), -1)
    amplitude = np.ones(digits.shape[1], dtype=np.complex128)
    for i in sorted(factors):
        nonzero = factors[i] != 0
        if (nonzero.sum(axis=0) > 1).any():
            raise ValueError(f"factor on register {i} is not monomial")
        row = nonzero.argmax(axis=0)
        amplitude *= factors[i][row, np.arange(len(row))][digits[i]]
        digits[i] = row[digits[i]]
    return np.ravel_multi_index(tuple(digits), tuple(dims)), amplitude


# ---------------------------------------------------------------------------
# Gauss law


def gauss_law_operator(layout: RegisterLayout, vertex: Vertex) -> dict[int, np.ndarray]:
    """Local gauge rotation at a vertex, as a factor map of unitaries.

    Outgoing existing links contribute P, incoming ones P!, and the
    fermion register the staggered-charge phase
    exp(-i (2 pi / N) (n - s)) with s = 0 on even and 1 on odd vertices.
    """
    geom = layout.geometry
    if vertex not in set(geom.vertices):
        raise KeyError(f"vertex {vertex} outside lattice")
    alg = make_link_algebra(layout.N)
    x1, x2 = vertex
    factors: dict[int, np.ndarray] = {}
    for k, tail in ((1, (x1 - 1, x2)), (2, (x1, x2 - 1))):
        out_l = ((x1, x2), k)
        if geom.link_exists(out_l):
            factors[layout.link_index(out_l)] = alg.p
        in_l = (tail, k)
        if geom.link_exists(in_l):
            factors[layout.link_index(in_l)] = alg.p.conj().T
    s = 0.0 if is_even(vertex) else 1.0
    charge_phase = np.diag(np.exp(-2j * np.pi / layout.N * (np.array([0.0, 1.0]) - s)))
    factors[layout.fermion_index(vertex)] = charge_phase.astype(np.complex128)
    return factors


# a handful of layouts per process, one entry per vertex of each
@lru_cache(maxsize=256)
def _gauss_diagonal(layout: RegisterLayout, vertex: Vertex) -> tuple[tuple[int, ...], np.ndarray]:
    """Sorted support of Theta(vertex) and the read-only diagonal of Theta
    on it, built once per layout and vertex.

    Every Gauss factor is diagonal; a non-diagonal one raises ValueError.
    """
    factors = gauss_law_operator(layout, vertex)
    support = tuple(sorted(factors))
    target, diag = monomial_map([layout.registers[i].dim for i in support],
                                {k: factors[i] for k, i in enumerate(support)})
    if np.any(target != np.arange(target.size)):
        raise ValueError(f"Gauss factor at vertex {vertex} is not diagonal")
    diag.setflags(write=False)
    return support, diag


def gauss_expectations(layout: RegisterLayout, index: np.ndarray,
                       weights: np.ndarray) -> dict[Vertex, complex]:
    """<Theta(x)> for every vertex (1 on gauge-invariant states) of a state
    whose |a|^2 are `weights` on full-space basis indices `index`.

    Each expectation is the `marginals` of the weights on the vertex's
    support dotted with the diagonal of Theta(x) there.
    """
    verts = layout.geometry.vertices
    forms = [_gauss_diagonal(layout, v) for v in verts]
    probs = marginals(layout, index, weights, [support for support, _ in forms])
    return {v: complex(np.dot(p.reshape(-1), diag))
            for v, (_, diag), p in zip(verts, forms, probs)}


def project_gauge_invariant(layout: RegisterLayout, physical: np.ndarray) -> np.ndarray:
    """Project physical amplitudes onto the joint Theta(x)=1 sector.

    Per vertex this multiplies by (sum_k d^k) / N on its support, d being
    the diagonal of Theta(x): the projector (sum_k Theta(x)^k) / N.
    """
    out = np.asarray(physical, dtype=np.complex128).reshape(layout.physical_dims)
    for v in layout.geometry.vertices:
        support, diag = _gauss_diagonal(layout, v)
        proj = sum(diag**k for k in range(layout.N)) / layout.N
        shape = [d if i in support else 1 for i, d in enumerate(layout.physical_dims)]
        out = out * proj.reshape(shape)
    return out.reshape(-1)


def random_gauge_invariant_physical(layout: RegisterLayout, rng: np.random.Generator) -> np.ndarray:
    """Normalized random state in the gauge-invariant physical sector."""
    dim = layout.physical_dim
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    proj = project_gauge_invariant(layout, raw)
    nrm = np.linalg.norm(proj)
    if nrm < 1e-8:
        raise RuntimeError("random draw collapsed under gauge projection; reseed")
    return proj / nrm


# ---------------------------------------------------------------------------
# Hamiltonian terms


@dataclass(frozen=True)
class Couplings:
    lambda_e: float = 1.0
    lambda_b: float = 1.0
    lambda_gm: float = 1.0
    mass: float = 1.0
    h_e_variant: str = "group"   # "group" | "z3-implementation"

    def __post_init__(self):
        for name in ("lambda_e", "lambda_b", "lambda_gm", "mass"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"coupling {name} must be finite, got {v}")
        if self.h_e_variant not in ("group", "z3-implementation"):
            raise ValueError(f"unknown electric variant {self.h_e_variant!r}")


def electric_single_link(alg: LinkAlgebra, variant: str) -> np.ndarray:
    """One-link electric energy: group form 1 - P - P!, or the
    staggered-label form diag(1 + |m_bar|) used by the three-level design."""
    if variant == "group":
        return np.eye(alg.N) - alg.p - alg.p.conj().T
    return np.diag(1.0 + np.abs(symmetric_representatives(alg.N))).astype(np.complex128)


def plaquette_factors(layout: RegisterLayout, p: Vertex) -> dict[int, np.ndarray]:
    """Oriented plaquette holonomy Q1 Q2 Q3! Q4! as a factor map."""
    alg = make_link_algebra(layout.N)
    factors: dict[int, np.ndarray] = {}
    for link, orient in layout.geometry.plaquette_links(p):
        m = alg.q if orient > 0 else alg.q.conj().T
        factors = multiply_factors(factors, {layout.link_index(link): m})
    return factors


def _with_adjoints(maps) -> list[dict[int, np.ndarray]]:
    out = []
    for f in maps:
        out += [f, {i: m.conj().T for i, m in f.items()}]
    return out


def term_factor_maps(layout: RegisterLayout, name: str,
                     h_e_variant: str) -> list[dict[int, np.ndarray]]:
    """The factor maps whose sum is the named piece, before its coupling.

    This is the one definition of each of the eight pieces: its matrix
    (scattered by hamiltonian_edges) and its coupling (TERM_COUPLINGS) follow
    from it.  Plaquette and hopping pieces list each map followed by its
    adjoint.
    """
    if name not in TERM_NAMES:
        raise ValueError(f"unknown term {name!r}; expected one of {TERM_NAMES}")
    geom = layout.geometry
    if name == "E":
        single = electric_single_link(make_link_algebra(layout.N), h_e_variant)
        return [{layout.link_index(l): single} for l in geom.links]
    if name == "M":
        return [{layout.fermion_index(v): (1.0 if is_even(v) else -1.0) * NUMBER_OP}
                for v in geom.vertices]
    if name in ("Be", "Bo"):
        return _with_adjoints(plaquette_factors(layout, p) for p in geom.plaquettes
                              if is_even(p) == (name == "Be"))
    cls = name.split("_")[1]
    return _with_adjoints(hopping_factors(layout, l) for l in geom.links
                          if geom.link_class(l) == cls)


def hamiltonian_edges(layout: RegisterLayout, names, couplings: Couplings):
    """Edge list (dim, rows, cols, vals) of the named pieces on the physical
    registers: each factor map scattered once, then `coalesce_edges`."""
    cols = np.arange(layout.physical_dim)
    rows, vals = [cols[:0]], [np.zeros(0, dtype=np.complex128)]   # a piece may have no map
    for name in names:
        maps = term_factor_maps(layout, name, couplings.h_e_variant)   # unknown names raise
        coupling = getattr(couplings, TERM_COUPLINGS[name])
        for factors in maps:
            target, amplitude = monomial_map(layout.physical_dims, factors)
            rows.append(target)
            vals.append(coupling * amplitude)
    return coalesce_edges(cols.size, np.concatenate(rows), np.tile(cols, len(rows) - 1),
                          np.concatenate(vals))


def total_hamiltonian(layout: RegisterLayout, couplings: Couplings) -> np.ndarray:
    """Sum of the eight terms on the physical registers."""
    return edges_to_dense(hamiltonian_edges(layout, TERM_NAMES, couplings))
