"""Exact evolution, operator-distance metrics, and analytic step budgets.

The oracle path diagonalizes the physical Hamiltonian once, block by
exact-zero block, and exponentiates eigenvalues, so it is exact to
rounding and serves as the reference for every Trotter comparison.
The Trotter distance ||step^M - exp(-iHT)||_2, an exact spectral norm on
the physical registers, is taken one block of H at a time, since a step
map built from the Hamiltonian's pieces never couples two of its blocks;
`diamond_surrogate_distance` takes the same norm of two dense maps.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import RegisterLayout
from .algebra import (Couplings, TERM_NAMES, as_edges, exp_blocks, hamiltonian_edges,
                      hermitian_blocks)

ORACLE_DIM_LIMIT = 5000
BLOCK_LEAK_TOL = 1e-12


class ExactEvolver:
    """Block eigendecomposition of a Hermitian matrix, reused across times.

    The blocks are those of `hermitian_blocks`: the Hamiltonian commutes
    with every diagonal Gauss operator, so it splits into many small
    blocks (the largest on 2x2 is the 18-dimensional gauge-invariant
    sector) and each is diagonalized on its own.
    """

    def __init__(self, hamiltonian):
        """hamiltonian: an edge list (dim, rows, cols, vals) or a dense matrix."""
        edges = as_edges(hamiltonian)
        if edges[0] > ORACLE_DIM_LIMIT:
            raise ValueError(
                f"dimension {edges[0]} exceeds the dense-diagonalization limit {ORACLE_DIM_LIMIT}")
        self.blocks = hermitian_blocks(edges)

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
        compared with exp(-iHt) on those blocks, built from their eigenpairs.
        Raises RuntimeError when step couples two blocks (Frobenius norm
        outside them above BLOCK_LEAK_TOL), since the blockwise power would
        then be wrong.
        """
        step = np.asarray(step, dtype=np.complex128)
        inside = np.zeros(step.shape, dtype=bool)
        dist = 0.0
        for idx, w, v in self.blocks:
            cut = (idx[:, :, None], idx[:, None, :])
            inside[cut] = True
            target = (v * np.exp(-1j * t * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
            diff = np.linalg.matrix_power(step[cut], m) - target
            dist = max(dist, float(np.linalg.norm(diff, 2, axis=(1, 2)).max()))
        leak = float(np.linalg.norm(step[~inside]))
        if leak > BLOCK_LEAK_TOL:
            raise RuntimeError(
                f"step couples blocks of the Hamiltonian: off-block norm {leak:.1e}")
        return dist


def diamond_surrogate_distance(map_a, map_b, dim: int) -> float:
    """Spectral norm of the difference of two dense maps on the physical space."""
    a, b = (np.asarray(m, dtype=np.complex128) for m in (map_a, map_b))
    for m in (a, b):
        if m.shape != (dim, dim):
            raise ValueError(f"map matrix has shape {m.shape}, expected {(dim, dim)}")
    return float(np.linalg.norm(a - b, 2))


def trace_phase(a: np.ndarray, b: np.ndarray) -> complex:
    """The phase phi minimizing ||a - phi b||_F: tr(b! a) / |tr(b! a)|, or 1 if that is 0."""
    tr = np.vdot(b, a)
    return tr / abs(tr) if abs(tr) > 0 else 1.0


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
        blocks = hermitian_blocks(hamiltonian_edges(layout, [name], couplings))
        total += max(float(np.abs(w).max()) for _, w, _ in blocks)
    return total


def bound_validity(T: float, M: int, norm_sum: float) -> bool:
    """Whether the bound's small-step premise (T/M) * sum_j ||H_j|| <= 1 holds."""
    return (T / M) * norm_sum <= 1.0
