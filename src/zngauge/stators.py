"""Stators and the two-register gate layer built on them.

A stator is the image of an entangler acting on the ancilla reference
state |in> = N^(-1/2) sum_m |m~>.  The Q-type entangler

    U_i = sum_m Q^m (x) |m~><m~|

satisfies the eigenoperator relation (1 (x) Q~) U_i (1 (x) |in>) =
U_i (1 (x) |in>) Q!, which is what lets a drive on the ancilla act as a
group operator on the link after disentangling.

This module also owns the serializable gate vocabulary (GateOp plus
gate_matrix) that the sequence compiler emits and the executor consumes,
and the Fourier-frame rules (framed_op) by which plan building runs ops
between a dft and its adjoint without the basis changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def flip_matrix(N: int) -> np.ndarray:
    """Label reversal m -> N-m mod N (self-inverse, fixes m=0)."""
    return np.eye(N, dtype=np.complex128)[-np.arange(N) % N]


def _tunnel_coupling(d: tuple[int, ...]) -> np.ndarray:
    """psi!(first) psi(last) + h.c. with the ordering string in between."""
    a = SIGMA_PLUS
    for _ in range(len(d) - 2):
        a = np.kron(a, PARITY_Z)
    a = np.kron(a, SIGMA_MINUS)
    return a + a.conj().T


def _q_entangler(d: tuple[int, ...]) -> np.ndarray:
    """sum_m Q^m (x) |m~><m~| on (link, ancilla)."""
    N = d[0]
    u = np.zeros((N, N, N, N), dtype=np.complex128)
    for m in range(N):
        u[:, m, :, m] = np.linalg.matrix_power(make_link_algebra(N).q, m)
    return u.reshape(N * N, N * N)


def _fermion_shift(d: tuple[int, ...]) -> np.ndarray:
    """|0><0| (x) 1 + |1><1| (x) Q on (fermion, ancilla)."""
    q = make_link_algebra(d[1]).q
    return np.kron(np.diag([1.0, 0.0]), np.eye(d[1])) + np.kron(np.diag([0.0, 1.0]), q)


def _clock_sum(d: tuple[int, ...]) -> np.ndarray:
    q = make_link_algebra(d[0]).q
    return q + q.conj().T


def _electric(variant: str):
    return lambda d: electric_single_link(make_link_algebra(d[0]), variant)


# name -> (rule on the target dims d, parameter count, kind, builder taking d): a "unitary" builder
# returns the gate, a "generator" one the Hermitian G of exp(-i c G), c its parameter or 1 if none.
_GATES = {
    "idle": (lambda d: d == (), 0, "unitary", lambda d: np.eye(1, dtype=np.complex128)),
    **dict.fromkeys(("dft_link", "dft_anc"), (
        lambda d: len(d) == 1, 0, "unitary", lambda d: make_link_algebra(d[0]).dft.copy())),
    "flip_anc": (lambda d: len(d) == 1, 0, "unitary", lambda d: flip_matrix(d[0])),
    "collision_zz": (lambda d: d == (3, 3), 1, "generator",   # spin-1 pair, F_z F~_z
                     lambda d: np.kron(spin1()[2], spin1()[2])),
    "q_entangler": (lambda d: len(d) == 2 and d[0] == d[1], 0, "unitary", _q_entangler),
    # (fermion, ancilla); i log P is Hermitian since log P is anti-Hermitian
    "fermion_anc_phase": (lambda d: len(d) == 2 and d[0] == 2, 0, "generator",
                          lambda d: np.kron(NUMBER_OP, 1j * make_link_algebra(d[1]).log_p)),
    "fermion_anc_shift": (lambda d: len(d) == 2 and d[0] == 2, 0, "unitary", _fermion_shift),
    **dict.fromkeys(("occupation_phase", "mass_phase"), (
        lambda d: d == (2,), 1, "generator", lambda d: NUMBER_OP)),
    "tunnel": (lambda d: len(d) >= 2 and set(d) == {2}, 1, "generator", _tunnel_coupling),
    "uw": (lambda d: len(d) == 2 and d[1] == 2, 0, "generator",   # (link, fermion)
           lambda d: np.kron(1j * make_link_algebra(d[0]).log_q, NUMBER_OP)),
    "anc_drive": (lambda d: len(d) == 1, 1, "generator", _clock_sum),
    "electric_group": (lambda d: len(d) == 1, 1, "generator", _electric("group")),
    "electric_z3": (lambda d: len(d) == 1, 1, "generator", _electric("z3-implementation")),
}
GATE_VOCABULARY = tuple(_GATES)

# Fourier frames: a register in frame k holds a state that dft**k takes to its true one, so
# a dft op only moves k (mod 4) and every other op runs as its conjugate by the frames of
# its targets, W! U W with W = dft**k on each.  (base name, params, frames) -> name of that
# exact conjugate, a gate built from the clock/shift arrays; a _dag op takes the adjoint.
FRAME_STEPS = {"dft_link": 1, "dft_link_dag": -1, "dft_anc": 1, "dft_anc_dag": -1}
_FRAMED = {
    ("collision_zz", (COLLISION_ANGLE,), (1, 0)): "q_entangler_dag",   # z3_collision_entangler
    ("fermion_anc_phase", (), (0, 1)): "fermion_anc_shift",            # dft! P dft = Q
    **{("flip_anc", (), (k,)): "flip_anc" for k in (1, 2, 3)},         # flip = dft**2
}


def framed_op(op: GateOp, frames: tuple[int, ...]) -> GateOp:
    """`op` conjugated by the Fourier frames of its targets, one k (mod 4) per
    target; ValueError when a frame is open and no rule covers the op."""
    if not any(frames):
        return op
    dag = op.name.endswith("_dag")
    name = _FRAMED.get((op.name[:-4] if dag else op.name, op.params, frames))
    if name is None:
        raise ValueError(f"gate {op.name!r} on registers {op.targets} has no rule for "
                         f"their Fourier frames {frames}")
    out = GateOp(name, op.targets, (), op.stage)
    return out.dagger() if dag else out


def gate_matrix(name: str, params: tuple[float, ...], target_dims: tuple[int, ...]) -> np.ndarray:
    """Dense unitary for a vocabulary gate.

    name is a vocabulary entry; a ``_dag`` suffix gives the adjoint of
    its base.  params are the gate's angles or accumulated coefficients,
    target_dims the dimension of each targeted register in target order
    (N is read off them).  Raises ValueError on an unknown name, on dims
    the gate cannot target, or on a parameter count other than its own.
    """
    if name.endswith("_dag"):
        return gate_matrix(name[:-4], params, target_dims).conj().T
    if name not in _GATES:
        raise ValueError(f"unknown gate name {name!r}")
    fits, n_params, kind, build = _GATES[name]
    if not fits(target_dims):
        raise ValueError(f"gate {name!r} cannot target registers of dims {target_dims}")
    if len(params) != n_params:
        raise ValueError(f"gate {name!r} takes {n_params} parameters, got {len(params)}")
    if kind == "unitary":
        return build(target_dims)
    return expm_from_hermitian(build(target_dims), -1j * (params[0] if params else 1.0))


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


@lru_cache(maxsize=None)
def spin1() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-1 (F_x, F_y, F_z) in the internal label order (0, +1, -1), each
    read-only: label m is row (1, 0, 2)[m] of the m_F = (+1, 0, -1) basis."""
    fplus = np.sqrt(2.0) * np.eye(3, k=1, dtype=np.complex128)
    perm = np.ix_((1, 0, 2), (1, 0, 2))
    out = tuple(f[perm] for f in ((fplus + fplus.T) / 2, (fplus - fplus.T) / (2j),
                                  np.diag([1.0, 0.0, -1.0]).astype(np.complex128)))
    for f in out:
        f.setflags(write=False)
    return out


def spin1_dot_product() -> np.ndarray:
    """F . F~ = sum_a F_a (x) F_a on the 9-dim pair space."""
    out = np.zeros((9, 9), dtype=np.complex128)
    for f in spin1():
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
    f_z = spin1()[2]
    n0 = np.eye(3) - f_z @ f_z
    gen = eta0 * np.eye(9) + eta1 * np.kron(f_z, f_z) + eta2 * np.kron(n0, n0)
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
    n0 = np.eye(3) - spin1()[2] @ spin1()[2]
    return expm_from_hermitian(np.kron(n0, n0), -1j * beta)


# ---------------------------------------------------------------------------
# single-register ancilla gates


def ancilla_fourier(N: int = 3) -> np.ndarray:
    """V~_D, converting Q-type stators to P-type (S_P = V~_D S_Q)."""
    return gate_matrix("dft_anc", (), (N,))


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
