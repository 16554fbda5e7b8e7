"""Exact evolution, operator-distance metrics, and analytic step budgets.

The oracle path diagonalizes the physical Hamiltonian once, block by
exact-zero block, and exponentiates eigenvalues, so it is exact to
rounding and serves as the reference for every Trotter comparison.
Distances are exact spectral norms (largest singular values) of map
differences on the physical registers.  The Trotter distance
||step^M - exp(-iHT)||_2 is taken one block of H at a time, since a step
map built from the Hamiltonian's pieces never couples two of its blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import RegisterLayout, StateVector, lift_physical, project_ancillas
from .algebra import (Couplings, HERMITICITY_TOL, TERM_NAMES, exp_blocks,
                      hermitian_blocks, term_matrix)

ORACLE_DIM_LIMIT = 5000
BLOCK_LEAK_TOL = 1e-12


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

    def trotter_distance(self, step: np.ndarray, m: int, t: float) -> float:
        """Exact ||step^m - exp(-iHt)||_2, one block of H at a time.

        Each stack of blocks is cut out of step, raised to the power m and
        compared with the same cut of the propagator.  Raises RuntimeError
        when step couples two blocks (Frobenius norm outside them above
        BLOCK_LEAK_TOL), since the blockwise power would then be wrong.
        """
        step = np.asarray(step, dtype=np.complex128)
        target = self.propagator(t)
        inside = np.zeros(target.shape, dtype=bool)
        dist = 0.0
        for idx, _, _ in self.blocks:
            cut = (idx[:, :, None], idx[:, None, :])
            inside[cut] = True
            diff = np.linalg.matrix_power(step[cut], m) - target[cut]
            dist = max(dist, float(np.linalg.norm(diff, 2, axis=(1, 2)).max()))
        leak = float(np.linalg.norm(step[~inside]))
        if leak > BLOCK_LEAK_TOL:
            raise RuntimeError(
                f"step couples blocks of the Hamiltonian: off-block norm {leak:.1e}")
        return dist


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
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (dim, dim):
        raise ValueError(f"map matrix has shape {m.shape}, expected {(dim, dim)}")
    return m


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value, exact to rounding (a dense SVD)."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=np.complex128), 2))


def diamond_surrogate_distance(map_a, map_b, dim: int) -> float:
    """Spectral norm of the difference of two dense maps on the physical space."""
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
