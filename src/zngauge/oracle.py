"""Exact evolution, operator-distance metrics, and analytic step budgets.

The oracle path diagonalizes the physical Hamiltonian once, block by
exact-zero block, and exponentiates eigenvalues, so it is exact to
rounding and serves as the reference for every Trotter comparison.
Distances are spectral norms of map differences obtained
column-by-column, with ancillas projected back onto the uniform state at
the output.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import RegisterLayout, StateVector, lift_physical, project_ancillas
from .algebra import (Couplings, HERMITICITY_TOL, TERM_NAMES, exp_blocks,
                      hermitian_blocks, term_matrix)

ORACLE_DIM_LIMIT = 5000
POWER_TOL = 1e-6
POWER_CAP = 500


class ExactEvolver:
    """Block eigendecomposition of a Hermitian matrix, reused across times.

    The blocks are those of `hermitian_blocks`: the Hamiltonian commutes
    with every diagonal Gauss operator, so it splits into many small
    blocks (the largest on 2x2 is the 18-dimensional gauge-invariant
    sector) and each is diagonalized on its own.
    """

    def __init__(self, hamiltonian: np.ndarray):
        h = np.asarray(hamiltonian, dtype=np.complex128)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"hamiltonian must be square, got shape {h.shape}")
        if h.shape[0] > ORACLE_DIM_LIMIT:
            raise ValueError(
                f"dimension {h.shape[0]} exceeds the dense-diagonalization limit {ORACLE_DIM_LIMIT}")
        if np.abs(h - h.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("hamiltonian is not Hermitian")
        self.blocks = hermitian_blocks(h)

    def propagator(self, t: float) -> np.ndarray:
        return exp_blocks(self.blocks, -1j * t)

    def evolve(self, t: float, amplitudes: np.ndarray) -> np.ndarray:
        """exp(-iHt) applied along the first axis; further axes are batch."""
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        a = amplitudes.reshape(amplitudes.shape[0], -1)
        out = np.empty_like(a)
        for idx, w, v in self.blocks:
            coeff = v.conj().transpose(0, 2, 1) @ a[idx]
            out[idx] = v @ (coeff * np.exp(-1j * w * t)[:, :, None])
        return out.reshape(amplitudes.shape)


def exact_evolve(hamiltonian: np.ndarray, t: float, state):
    """exp(-iHt) applied to a physical amplitude vector or a StateVector.

    A StateVector is projected onto restored ancillas, evolved on the
    physical registers, and lifted back.
    """
    ev = ExactEvolver(hamiltonian)
    if isinstance(state, StateVector):
        phys = project_ancillas(state.amplitudes, state.layout)
        out = ev.evolve(t, phys)
        return StateVector(state.layout, lift_physical(out, state.layout))
    return ev.evolve(t, np.asarray(state, dtype=np.complex128))


def _as_matrix(m, dim: int) -> np.ndarray:
    if callable(m):
        cols = np.empty((dim, dim), dtype=np.complex128)
        basis = np.eye(dim)
        for j in range(dim):
            cols[:, j] = m(basis[:, j].astype(np.complex128))
        return cols
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (dim, dim):
        raise ValueError(f"map matrix has shape {m.shape}, expected {(dim, dim)}")
    return m


def spectral_norm(matrix: np.ndarray, tol: float = POWER_TOL,
                  cap: int = POWER_CAP, block: int = 8) -> float:
    """Largest singular value by block power iteration on M!M.

    A block of vectors with Rayleigh-Ritz extraction keeps convergence
    fast when the top singular values cluster (the common case for
    product-formula error operators).  Raises RuntimeError when the
    estimate has not settled to the relative tolerance within the cap.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    d = m.shape[0]
    gram = m.conj().T @ m
    k = min(block, d)
    rng = np.random.default_rng(0)
    q = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    q, _ = np.linalg.qr(q)
    prev = -1.0
    for _ in range(cap):
        y = gram @ q
        if np.linalg.norm(y) == 0.0:
            return 0.0
        lam = float(np.linalg.eigvalsh(q.conj().T @ y).max())
        if abs(lam - prev) <= tol * max(abs(lam), 1e-300):
            return math.sqrt(max(lam, 0.0))
        prev = lam
        q, _ = np.linalg.qr(y)
    raise RuntimeError(
        f"power iteration did not converge to rel. tol {tol} within {cap} steps")


def diamond_surrogate_distance(map_a, map_b, dim: int) -> float:
    """Spectral norm of the difference of two maps on the physical space.

    Maps may be dense matrices or callables on physical basis vectors.
    """
    return spectral_norm(_as_matrix(map_a, dim) - _as_matrix(map_b, dim))


def phase_aligned_distance(map_a, map_b, dim: int) -> float:
    """min over alpha of the spectral norm of A - exp(i alpha) B.

    The phase is fixed at the Frobenius optimum (the trace phase),
    which cancels any global phase between the maps exactly.
    """
    a = _as_matrix(map_a, dim)
    b = _as_matrix(map_b, dim)
    tr = np.trace(b.conj().T @ a)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return spectral_norm(a - phase * b)


# ---------------------------------------------------------------------------
# analytic step budgets


def trotter_bound(order: int, L: int, lambda_max: float, T: float, M: int) -> float:
    """Additive error bound of the M-step product formula on an LxL lattice."""
    if min(L, M) < 1 or lambda_max <= 0 or T < 0:
        raise ValueError("L, M must be >= 1; lambda_max > 0; T >= 0")
    if order == 1:
        return 45.0 * L**4 * T**2 * lambda_max**2 / M
    if order == 2:
        return 60.0 * T**3 * L**6 * lambda_max**3 / M**2
    raise ValueError(f"order must be 1 or 2, got {order}")


def steps_required(order: int, L: int, lambda_max: float, T: float, eps: float) -> int:
    """Smallest step count whose printed budget formula meets eps."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if order == 1:
        return math.ceil(45.0 * L**4 * lambda_max**2 * T**2 / eps)
    if order == 2:
        return math.ceil(60.0 * L**3 * lambda_max**1.5 * T**1.5 / math.sqrt(eps))
    raise ValueError(f"order must be 1 or 2, got {order}")


def exact_norm_sum(layout: RegisterLayout, couplings: Couplings) -> float:
    """Sum of the exact spectral norms of the eight Hamiltonian pieces."""
    total = 0.0
    for name in TERM_NAMES:
        blocks = hermitian_blocks(term_matrix(layout, name, couplings))
        total += max(float(np.abs(w).max()) for _, w, _ in blocks)
    return total


def analytic_norm_sum(Lx: int, Ly: int, couplings: Couplings) -> float:
    """Upper bound on the norm sum from per-piece counting.

    Electric and magnetic single constituents are bounded by 2, each
    hopping by 2, and the staggered mass by 1 per site.
    """
    n_links = Lx * (Ly - 1) + Ly * (Lx - 1)
    n_plaq = (Lx - 1) * (Ly - 1)
    n_sites = Lx * Ly
    return (2.0 * couplings.lambda_e * n_links
            + couplings.mass * n_sites
            + 2.0 * couplings.lambda_b * n_plaq
            + 2.0 * couplings.lambda_gm * n_links)


def bound_validity(T: float, M: int, norm_sum: float) -> bool:
    """Whether the bound's small-step premise (T/M) * sum_j ||H_j|| <= 1 holds."""
    return (T / M) * norm_sum <= 1.0


def wallclock_model(T: float, M: int, A: float, B: float, C: float,
                    order: int = 1) -> float:
    """Laboratory duration of the simulation.

    Order 1 charges a fixed overhead per step: T' = M (A + B T / M).
    Order 2 uses the closed form after substituting the required step
    count: T' = B T + 2 C T^(3/2), where C absorbs the per-step
    overhead times the step-count coefficient (A and M are not read).
    """
    if min(A, B, C) < 0 or T < 0:
        raise ValueError("constants and T must be nonnegative")
    if order == 1:
        return M * (A + B * T / M)
    if order == 2:
        return B * T + 2.0 * C * T**1.5
    raise ValueError(f"order must be 1 or 2, got {order}")


def error_budget(eps: float, lambda_max: float, L: int, T: float) -> float:
    """Tolerable per-gate timing error times experiment duration.

    Evaluates eps^(3/2) / (120 lambda_max^(5/2) L^5 T^(3/2)).
    """
    if eps <= 0 or lambda_max <= 0 or L < 1 or T <= 0:
        raise ValueError("eps, lambda_max, T must be positive and L >= 1")
    return eps**1.5 / (120.0 * lambda_max**2.5 * L**5 * T**1.5)
