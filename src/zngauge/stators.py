"""Stators and the two-register gate layer built on them.

A stator is the image of an entangler acting on the ancilla reference
state |in> = N^(-1/2) sum_m |m~>.  The Q-type entangler

    U_i = sum_m Q^m (x) |m~><m~|

satisfies the eigenoperator relation (1 (x) Q~) U_i (1 (x) |in>) =
U_i (1 (x) |in>) Q!, which is what lets a drive on the ancilla act as a
group operator on the link after disentangling.

This module also owns the serializable gate vocabulary (GateOp plus
gate_matrix) that the sequence compiler emits and the executor consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import RegisterLayout, Vertex
from .algebra import (
    LinkAlgebra,
    NUMBER_OP,
    PARITY_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    electric_single_link,
    expm_from_hermitian,
    make_link_algebra,
)

COLLISION_ANGLE = 2 * np.pi / 3   # F_z F~_z angle realizing the clock entangler
ETA1_TOL = 1e-12


@dataclass(frozen=True)
class GateOp:
    """One scheduled gate: stage label, vocabulary name, register targets.

    stage -1 marks an op that has not been placed in a stage yet
    (plaquette_stator_sequence returns such lists).
    """

    name: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    stage: int = -1

    def dagger(self) -> "GateOp":
        if self.name in ("idle", "flip_anc"):   # self-inverse
            return self
        base = self.name[:-4] if self.name.endswith("_dag") else self.name + "_dag"
        return GateOp(base, self.targets, self.params, self.stage)


GATE_VOCABULARY = (
    "idle",
    "dft_link",
    "dft_anc",
    "flip_anc",
    "collision_zz",
    "q_entangler",
    "fermion_anc_phase",
    "occupation_phase",
    "mass_phase",
    "tunnel",
    "uw",
    "anc_drive",
    "electric_group",
    "electric_z3",
)


def flip_matrix(N: int) -> np.ndarray:
    """Label reversal m -> N-m mod N (self-inverse, fixes m=0)."""
    f = np.zeros((N, N), dtype=np.complex128)
    for m in range(N):
        f[(N - m) % N, m] = 1.0
    return f


def _tunnel_coupling_matrix(n_regs: int) -> np.ndarray:
    """psi!(first) psi(last) + h.c. with the ordering string in between."""
    a = SIGMA_PLUS
    for _ in range(n_regs - 2):
        a = np.kron(a, PARITY_Z)
    a = np.kron(a, SIGMA_MINUS)
    return a + a.conj().T


def gate_matrix(name: str, params: tuple[float, ...], target_dims: tuple[int, ...]) -> np.ndarray:
    """Dense unitary for a vocabulary gate.

    Any name with a ``_dag`` suffix resolves to the adjoint of its base.
    Dimensions come from the targeted registers; N is read off them.

    Parameters
    ----------
    name : vocabulary entry, optionally suffixed ``_dag``.
    params : gate parameters (angles or accumulated coefficients).
    target_dims : dimension of each targeted register, in target order.
    """
    if name.endswith("_dag"):
        return gate_matrix(name[:-4], params, target_dims).conj().T

    def need(n_targets: int):
        if len(target_dims) != n_targets:
            raise ValueError(f"gate {name!r} expects {n_targets} targets, got dims {target_dims}")

    if name == "idle":
        if target_dims:
            raise ValueError("idle takes no targets")
        return np.eye(1, dtype=np.complex128)

    if name in ("dft_link", "dft_anc"):
        need(1)
        return make_link_algebra(target_dims[0]).dft.copy()

    if name == "flip_anc":
        need(1)
        return flip_matrix(target_dims[0])

    if name == "collision_zz":
        need(2)
        if target_dims != (3, 3):
            raise ValueError(f"collision_zz is a spin-1 pair gate, got dims {target_dims}")
        (alpha,) = params
        fz = make_link_algebra(3).f_z
        return expm_from_hermitian(np.kron(fz, fz), -1j * alpha)

    if name == "q_entangler":
        need(2)
        N = target_dims[0]
        if target_dims != (N, N):
            raise ValueError(f"q_entangler needs equal link/ancilla dims, got {target_dims}")
        alg = make_link_algebra(N)
        u = np.zeros((N * N, N * N), dtype=np.complex128)
        for m in range(N):
            proj = np.zeros((N, N))
            proj[m, m] = 1.0
            u += np.kron(np.linalg.matrix_power(alg.q, m), proj)
        return u

    if name == "fermion_anc_phase":
        need(2)
        if target_dims[0] != 2:
            raise ValueError(f"fermion_anc_phase targets (fermion, ancilla), got dims {target_dims}")
        log_p = make_link_algebra(target_dims[1]).log_p
        gen = np.kron(NUMBER_OP, 1j * log_p)     # Hermitian since log P is anti-Hermitian
        return expm_from_hermitian(gen, -1j)

    if name in ("occupation_phase", "mass_phase"):
        need(1)
        if target_dims[0] != 2:
            raise ValueError(f"{name} acts on a fermion register, got dim {target_dims[0]}")
        (c,) = params
        return np.diag([1.0, np.exp(-1j * c)]).astype(np.complex128)

    if name == "tunnel":
        if len(target_dims) < 2 or any(d != 2 for d in target_dims):
            raise ValueError(f"tunnel targets a chain of fermion registers, got dims {target_dims}")
        (c,) = params
        return expm_from_hermitian(_tunnel_coupling_matrix(len(target_dims)), -1j * c)

    if name == "uw":
        need(2)
        if target_dims[1] != 2:
            raise ValueError(f"uw targets (link, fermion), got dims {target_dims}")
        alg = make_link_algebra(target_dims[0])
        gen = np.kron(1j * alg.log_q, NUMBER_OP)
        return expm_from_hermitian(gen, -1j)

    if name == "anc_drive":
        need(1)
        alg = make_link_algebra(target_dims[0])
        (c,) = params
        return expm_from_hermitian(alg.q + alg.q.conj().T, -1j * c)

    if name in ("electric_group", "electric_z3"):
        need(1)
        alg = make_link_algebra(target_dims[0])
        (c,) = params
        variant = "group" if name == "electric_group" else "z3-implementation"
        return expm_from_hermitian(electric_single_link(alg, variant), -1j * c)

    raise ValueError(f"unknown gate name {name!r}")


# ---------------------------------------------------------------------------
# entanglers


def stator_entangler(algebra: LinkAlgebra, direction: str = "forward") -> np.ndarray:
    """U_i on (link, ancilla), or its adjoint for direction="inverse"."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be forward|inverse, got {direction!r}")
    u = gate_matrix("q_entangler", (), (algebra.N, algebra.N))
    return u if direction == "forward" else u.conj().T


def z3_collision_entangler() -> np.ndarray:
    """U' = exp(-i (2 pi / 3) F_z F~_z), the collision form of the entangler.

    Conjugating the link side with the basis change gives the adjoint of
    the Q-type entangler: dft! U' dft = U_i!.  The compiler therefore
    realizes U_i as dft, U'!, dft! in application order.
    """
    return gate_matrix("collision_zz", (COLLISION_ANGLE,), (3, 3))


# ---------------------------------------------------------------------------
# collision algebra (spin-1 pair)


def spin1_dot_product() -> np.ndarray:
    """F . F~ = sum_a F_a (x) F_a on the 9-dim pair space."""
    alg = make_link_algebra(3)
    out = np.zeros((9, 9), dtype=np.complex128)
    for f in (alg.f_x, alg.f_y, alg.f_z):
        out += np.kron(f, f)
    return out


def scattering_lengths_to_couplings(a0: float, a1: float, a2: float) -> tuple[float, float, float]:
    """(g0, g1, g2) of the polynomial expansion from channel strengths.

    Solves a_S = g0 + g1 c_S + g2 c_S^2 with c_S = F.F~ eigenvalue
    {-2, -1, +1} on total spin S = 0, 1, 2.
    """
    g1 = (a2 - a1) / 2.0
    g2 = (a2 - 3.0 * a1 + 2.0 * a0) / 6.0
    g0 = (a2 + 3.0 * a1 - a0) / 3.0
    return g0, g1, g2


def eta_couplings(g0: float, g1: float, g2: float) -> tuple[float, float, float]:
    """Diagonal-channel couplings (eta0, eta1, eta2)."""
    return g0 + 1.5 * g2, g1 - 0.5 * g2, 3.0 * g2


def collision_unitary(g0: float, g1: float, g2: float, alpha: float) -> np.ndarray:
    """exp(-i alpha (g0 + g1 F.F~ + g2 (F.F~)^2)) on the spin-1 pair."""
    ff = spin1_dot_product()
    gen = g0 * np.eye(9) + g1 * ff + g2 * (ff @ ff)
    return expm_from_hermitian(gen, -1j * alpha)


def selective_collision(eta0: float, eta1: float, eta2: float, alpha: float) -> np.ndarray:
    """exp(-i alpha (eta0 + eta1 F_z F~_z + eta2 N0 N~0)), the diagonal target form."""
    alg = make_link_algebra(3)
    n0 = np.eye(3) - alg.f_z @ alg.f_z
    gen = eta0 * np.eye(9) + eta1 * np.kron(alg.f_z, alg.f_z) + eta2 * np.kron(n0, n0)
    return expm_from_hermitian(gen, -1j * alpha)


def rwa_project(U: np.ndarray, generator: np.ndarray | None = None) -> np.ndarray:
    """Keep only the (m_F, m~_F)-conserving part of a collision unitary.

    Every product basis state has a distinct label pair, so the surviving
    couplings are exactly the diagonal of the Hermitian generator; the
    result is exp(-i diag).  When the generator is not supplied it is
    recovered from U by the principal logarithm, which wraps if any
    eigenphase reaches pi: pass the generator for large alpha.
    """
    U = np.asarray(U, dtype=np.complex128)
    if generator is None:
        w, v = np.linalg.eig(U)
        gen = v @ np.diag(-np.angle(w)) @ np.linalg.inv(v)
        gen = (gen + gen.conj().T) / 2
    else:
        gen = np.asarray(generator, dtype=np.complex128)
        if np.abs(gen - gen.conj().T).max() > 1e-10:
            raise ValueError("generator is not Hermitian")
    return np.diag(np.exp(-1j * np.diag(gen).real))


def collision_calibration(g0: float, g1: float, g2: float) -> tuple[float, float, int]:
    """(alpha, beta, kappa) turning the diagonal collision into the entangler.

    alpha = 2 pi / (3 eta1) sets the F_z F~_z angle; the compensating
    phase gate exp(-i beta N0 N~0) with beta = 2 pi (kappa - eta2/(3 eta1))
    cancels the N0 N~0 channel, kappa the smallest integer giving beta > 0.
    """
    _, eta1, eta2 = eta_couplings(g0, g1, g2)
    if abs(eta1) < ETA1_TOL:
        raise ValueError(f"eta1 = {eta1:.3e} too small to calibrate alpha = 2 pi / (3 eta1)")
    alpha = 2 * np.pi / (3 * eta1)
    ratio = eta2 / (3 * eta1)
    kappa = math.floor(ratio) + 1
    beta = 2 * np.pi * (kappa - ratio)
    return alpha, beta, kappa


def n0_pair_phase(beta: float) -> np.ndarray:
    """exp(-i beta N0 N~0) on the spin-1 pair."""
    alg = make_link_algebra(3)
    n0 = np.eye(3) - alg.f_z @ alg.f_z
    return expm_from_hermitian(np.kron(n0, n0), -1j * beta)


# ---------------------------------------------------------------------------
# single-register ancilla gates


def ancilla_fourier(N: int = 3) -> np.ndarray:
    """V~_D, converting Q-type stators to P-type (S_P = V~_D S_Q)."""
    return make_link_algebra(N).dft.copy()


# ---------------------------------------------------------------------------
# plaquette stators


def plaquette_stator_sequence(layout: RegisterLayout, plaquette: Vertex,
                              direction: str = "forward") -> list[GateOp]:
    """Entangler list creating (or undoing) the plaquette stator.

    Forward emits q_entangler on the two positively oriented links and
    its adjoint on the two negative ones, all against the plaquette's
    ancilla; inverse emits the adjoints in reverse order.  The four
    commute, so either order composes to the same unitary.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be forward|inverse, got {direction!r}")
    anc = layout.ancilla_of_plaquette.get(plaquette)
    if anc is None:
        raise KeyError(f"plaquette {plaquette} has no assigned ancilla under "
                       f"policy {layout.ancilla_policy!r}")
    ops = []
    for link, orient in layout.geometry.plaquette_links(plaquette):
        name = "q_entangler" if orient > 0 else "q_entangler_dag"
        ops.append(GateOp(name, (layout.link_index(link), anc)))
    if direction == "inverse":
        ops = [op.dagger() for op in reversed(ops)]
    return ops
