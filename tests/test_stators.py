"""Entanglers, stator relations, the gate vocabulary, and collision algebra."""

import numpy as np
import pytest

from conftest import build_global_singlet, run_gates, taylor_expm
from zngauge.algebra import make_link_algebra
from zngauge.lattice import gate_group, project_support
from zngauge.schedule import compile_step
from zngauge.stators import (
    COLLISION_ANGLE,
    GATE_VOCABULARY,
    GateOp,
    ancilla_fourier,
    collision_calibration,
    collision_unitary,
    eta_couplings,
    flip_matrix,
    framed_op,
    gate_matrix,
    n0_pair_phase,
    rwa_project,
    scattering_lengths_to_couplings,
    selective_collision,
    spin1,
    spin1_dot_product,
    stator_entangler,
    z3_collision_entangler,
)

IN_VEC = np.ones(3) / np.sqrt(3)


def kron2(a, b):
    return np.kron(a, b)


def test_gateop_dagger_bookkeeping():
    op = GateOp("q_entangler", (4, 8), stage=11)
    assert op.dagger() == GateOp("q_entangler_dag", (4, 8), stage=11)
    assert op.dagger().dagger() == op
    assert GateOp("flip_anc", (8,)).dagger() == GateOp("flip_anc", (8,))
    assert GateOp("idle", ()).dagger().name == "idle"


# (params, target dims) of one valid call per vocabulary gate
GATE_CASES = {
    "idle": ((), ()),
    "dft_link": ((), (3,)),
    "dft_anc": ((), (3,)),
    "flip_anc": ((), (3,)),
    "collision_zz": ((0.7,), (3, 3)),
    "q_entangler": ((), (3, 3)),
    "fermion_anc_phase": ((), (2, 3)),
    "fermion_anc_shift": ((), (2, 3)),
    "occupation_phase": ((0.3,), (2,)),
    "mass_phase": ((1.1,), (2,)),
    "tunnel": ((0.45,), (2, 2)),
    "uw": ((), (3, 2)),
    "anc_drive": ((0.2,), (3,)),
    "electric_group": ((0.15,), (3,)),
    "electric_z3": ((0.15,), (3,)),
}


def test_vocabulary_gates_are_unitary():
    assert set(GATE_CASES) == set(GATE_VOCABULARY)
    for name, (params, dims) in GATE_CASES.items():
        u = gate_matrix(name, params, dims)
        d = u.shape[0]
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12, name
        dag = gate_matrix(name + "_dag", params, dims)
        assert np.abs(dag - u.conj().T).max() < 1e-14, name


def test_gate_matrix_error_paths():
    with pytest.raises(ValueError):
        gate_matrix("idle", (), (3,))
    with pytest.raises(ValueError):
        gate_matrix("collision_zz", (0.1,), (3, 2))
    with pytest.raises(ValueError):
        gate_matrix("tunnel", (0.1,), (2, 3))
    with pytest.raises(ValueError):
        gate_matrix("occupation_phase", (0.1,), (3,))
    with pytest.raises(ValueError):
        gate_matrix("warp", (), (3,))


def test_gate_matrix_checks_the_parameter_count():
    """Each gate takes exactly its own number of parameters: n - 1 and n + 1 both raise."""
    for name, (params, dims) in GATE_CASES.items():
        for wrong in (params[1:], params + (0.4,)):
            if wrong == params:     # a gate with no parameter has no n - 1
                continue
            for gate in (name, name + "_dag"):
                with pytest.raises(ValueError, match="parameters"):
                    gate_matrix(gate, wrong, dims)


def test_q_entangler_controls_on_ancilla_label(alg3):
    u = stator_entangler(alg3)
    for m in range(3):
        anc = np.zeros(3)
        anc[m] = 1.0
        for col in range(3):
            link = np.zeros(3)
            link[col] = 1.0
            got = u @ kron2(link, anc)
            want = kron2(np.linalg.matrix_power(alg3.q, m) @ link, anc)
            np.testing.assert_allclose(got, want, atol=1e-14)


def test_q_stator_eigenoperator_relation(alg3):
    """Driving the ancilla with Q~ acts as Q! through the stator."""
    s_q = stator_entangler(alg3) @ kron2(np.eye(3), IN_VEC.reshape(3, 1))
    lhs = kron2(np.eye(3), alg3.q) @ s_q
    rhs = s_q @ alg3.q.conj().T
    assert np.abs(lhs - rhs).max() < 1e-12
    # normalization: S! S = 1 on the link space
    assert np.abs(s_q.conj().T @ s_q - np.eye(3)).max() < 1e-13


def test_p_stator_from_fourier_converted_ancilla(alg3):
    s_q = stator_entangler(alg3) @ kron2(np.eye(3), IN_VEC.reshape(3, 1))
    s_p = kron2(np.eye(3), ancilla_fourier()) @ s_q
    lhs = kron2(np.eye(3), alg3.p) @ s_p
    rhs = s_p @ alg3.q.conj().T
    assert np.abs(lhs - rhs).max() < 1e-12


def test_collision_entangler_is_clock_entangler_in_disguise(alg3):
    """dft! U' dft on the link side reproduces the adjoint Q-type entangler."""
    u_prime = z3_collision_entangler()
    fz = np.diag([0.0, 1.0, -1.0])
    oracle = taylor_expm(-1j * COLLISION_ANGLE * kron2(fz, fz))
    assert np.abs(u_prime - oracle).max() < 1e-13
    conj = kron2(alg3.dft.conj().T, np.eye(3)) @ u_prime @ kron2(alg3.dft, np.eye(3))
    assert np.abs(conj - stator_entangler(alg3).conj().T).max() < 1e-12
    # and the compiled realization: dft, then U'!, then dft! equals U_i
    compiled = (
        kron2(alg3.dft.conj().T, np.eye(3))
        @ u_prime.conj().T
        @ kron2(alg3.dft, np.eye(3))
    )
    assert np.abs(compiled - stator_entangler(alg3)).max() < 1e-12


def test_fermion_anc_phase_diagonal(alg3):
    u = gate_matrix("fermion_anc_phase", (), (2, 3))
    reps = np.array([0.0, 1.0, -1.0])
    want = np.diag(np.concatenate([np.ones(3), np.exp(2j * np.pi * reps / 3)]))
    np.testing.assert_allclose(u, want, atol=1e-13)


@pytest.mark.parametrize("op, frames", [
    (GateOp("collision_zz", (0, 1), (COLLISION_ANGLE,)), (1, 0)),
    (GateOp("collision_zz_dag", (0, 1), (COLLISION_ANGLE,)), (1, 0)),
    (GateOp("fermion_anc_phase", (0, 1)), (0, 1)),
    (GateOp("fermion_anc_phase_dag", (0, 1)), (0, 1)),
    (GateOp("flip_anc", (1,)), (1,)),
    (GateOp("flip_anc", (1,)), (3,))])
def test_frame_rules_are_exact_conjugates(op, frames):
    """Each rule's gate is W! U W, W = dft**k on each target, to rounding; its
    entries are those of a monomial matrix, so its zeros are exact."""
    dims = (2, 3) if op.name.startswith("fermion") else (3,) * len(op.targets)
    w = np.eye(1)
    for d, k in zip(dims, frames):
        w = np.kron(w, np.linalg.matrix_power(make_link_algebra(d).dft, k))
    framed = framed_op(op, frames)
    assert framed.targets == op.targets and framed.params == ()
    got = gate_matrix(framed.name, framed.params, dims)
    want = w.conj().T @ gate_matrix(op.name, op.params, dims) @ w
    assert np.abs(got - want).max() < 1e-14
    assert ((got != 0).sum(axis=0) == 1).all()
    assert framed_op(op, (0,) * len(frames)) is op


def test_tunnel_gate_with_ordering_string():
    c = 0.37
    gen = kron2(kron2(np.array([[0, 0], [1, 0]], complex), np.diag([1.0, -1.0])),
                np.array([[0, 1], [0, 0]], complex))
    gen = gen + gen.conj().T
    oracle = taylor_expm(-1j * c * gen)
    got = gate_matrix("tunnel", (c,), (2, 2, 2))
    assert np.abs(got - oracle).max() < 1e-12


def test_uw_is_occupation_controlled_clock(alg3):
    u = gate_matrix("uw", (), (3, 2))
    want = kron2(np.eye(3), np.diag([1.0, 0.0])) + kron2(alg3.q, np.diag([0.0, 1.0]))
    assert np.abs(u - want).max() < 1e-12


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_uw_is_the_exact_controlled_shift(N):
    """sum_n Q^n (x) |n><n| over the fermion's two levels, entry for entry:
    a monomial gate keeps exact zeros, with no rounding residue."""
    q = make_link_algebra(N).q
    want = kron2(np.eye(N), np.diag([1.0, 0.0])) + kron2(q, np.diag([0.0, 1.0]))
    assert np.array_equal(gate_matrix("uw", (), (N, 2)), want)


def test_flip_and_fourier_ancilla_gates(alg3):
    f = flip_matrix(3)
    assert np.abs(f @ f - np.eye(3)).max() < 1e-14
    assert f[0, 0] == 1.0
    assert np.abs(flip_matrix(4) @ flip_matrix(4) - np.eye(4)).max() < 1e-14
    np.testing.assert_allclose(ancilla_fourier(), alg3.dft, atol=1e-15)


def test_control_field_rotation_against_taylor(alg3):
    tau, lam = 0.23, 1.7
    oracle = taylor_expm(-1j * tau * lam * (alg3.q + alg3.q.conj().T))
    assert np.abs(gate_matrix("anc_drive", (tau * lam,), (3,)) - oracle).max() < 1e-12


# ---------------------------------------------------------------------------
# collision algebra


def test_spin_one_matrices():
    fx, fy, fz = spin1()
    # internal label order is (0, +1, -1)
    np.testing.assert_allclose(fz, np.diag([0.0, 1.0, -1.0]), atol=1e-15)
    assert np.abs(fx @ fy - fy @ fx - 1j * fz).max() < 1e-13
    casimir = fx @ fx + fy @ fy + fz @ fz
    np.testing.assert_allclose(casimir, 2.0 * np.eye(3), atol=1e-13)


def test_spin_one_matrices_are_cached_and_read_only():
    assert spin1() is spin1()
    for f in spin1():
        with pytest.raises(ValueError):
            f[0, 0] = 0.0


def test_spin1_dot_product_spectrum():
    ff = spin1_dot_product()
    assert np.abs(ff - ff.conj().T).max() < 1e-13
    eigs = np.sort(np.linalg.eigvalsh(ff))
    # S = 0 (x1), S = 1 (x3), S = 2 (x5) with c_S = -2, -1, +1
    np.testing.assert_allclose(eigs, [-2, -1, -1, -1, 1, 1, 1, 1, 1], atol=1e-12)


def test_scattering_length_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = rng.normal(size=3)
        a = [g[0] + g[1] * c + g[2] * c * c for c in (-2.0, -1.0, 1.0)]
        back = scattering_lengths_to_couplings(*a)
        np.testing.assert_allclose(back, g, atol=1e-12)


def test_collision_channel_phases():
    g0, g1, g2, alpha = 0.4, 0.8, 0.25, 0.9
    u = collision_unitary(g0, g1, g2, alpha)
    # the (+1, +1) pair is a pure S = 2 state; internal order is (0, +, -)
    quintet = np.zeros(9)
    quintet[4] = 1.0
    a2 = g0 + g1 + g2
    np.testing.assert_allclose(u @ quintet, np.exp(-1j * alpha * a2) * quintet, atol=1e-12)
    # the singlet combination (|00> - |+-> - |-+>)/sqrt(3)
    singlet = np.zeros(9)
    singlet[0], singlet[5], singlet[7] = 1.0, -1.0, -1.0
    singlet /= np.sqrt(3)
    a0 = g0 - 2 * g1 + 4 * g2
    np.testing.assert_allclose(u @ singlet, np.exp(-1j * alpha * a0) * singlet, atol=1e-12)


def test_generator_diagonal_exact_form():
    """The label-conserving part of the collision generator.

    Entrywise: eta0 + eta1 m m~ + (eta2/2) d d~ - (g2/2)(d + d~) with
    d = 1 on the m = 0 level.  Note the single-atom corrections: the
    eta2 N0 N~0 channel alone does not reproduce the diagonal.
    """
    rng = np.random.default_rng(7)
    ff = spin1_dot_product()
    ms = np.array([0.0, 1.0, -1.0])
    d = np.array([1.0, 0.0, 0.0])
    for _ in range(10):
        g0, g1, g2 = rng.normal(size=3)
        eta0, eta1, eta2 = eta_couplings(g0, g1, g2)
        gen = g0 * np.eye(9) + g1 * ff + g2 * ff @ ff
        got = np.diag(gen).real.reshape(3, 3)
        want = (
            eta0
            + eta1 * np.outer(ms, ms)
            + 0.5 * eta2 * np.outer(d, d)
            - 0.5 * g2 * (d[:, None] + d[None, :])
        )
        assert np.abs(got - want).max() < 1e-12


def test_rwa_projection_differs_from_diagonal_target_form():
    """rwa_project keeps the true diagonal; the (eta0, eta1, eta2) target
    form drops the single-atom g2 corrections.  The two must agree only
    when g2 = 0; asserting equality in general would hide the mismatch."""
    alpha = 0.9
    g0, g1, g2 = 0.3, 0.7, 0.4
    ff = spin1_dot_product()
    gen = alpha * (g0 * np.eye(9) + g1 * ff + g2 * ff @ ff)
    projected = rwa_project(collision_unitary(g0, g1, g2, alpha), gen)
    target = selective_collision(*eta_couplings(g0, g1, g2), alpha)
    assert np.abs(projected - target).max() > 1e-3

    gen0 = alpha * (g0 * np.eye(9) + g1 * ff)
    projected0 = rwa_project(collision_unitary(g0, g1, 0.0, alpha), gen0)
    target0 = selective_collision(*eta_couplings(g0, g1, 0.0), alpha)
    assert np.abs(projected0 - target0).max() < 1e-12


def test_rwa_principal_log_recovery():
    g0, g1, g2, alpha = 0.2, 0.4, 0.1, 0.15  # small angles, no wrapping
    ff = spin1_dot_product()
    gen = alpha * (g0 * np.eye(9) + g1 * ff + g2 * ff @ ff)
    u = collision_unitary(g0, g1, g2, alpha)
    assert np.abs(rwa_project(u) - rwa_project(u, gen)).max() < 1e-10
    with pytest.raises(ValueError):
        rwa_project(u, np.ones((9, 9)) * 1j)


def test_collision_calibration_composes_to_entangler():
    g0, g1, g2 = 0.9, 1.3, 0.35
    alpha, beta, kappa = collision_calibration(g0, g1, g2)
    eta = eta_couplings(g0, g1, g2)
    assert alpha * 3 * eta[1] == pytest.approx(2 * np.pi, abs=1e-12)
    assert 0.0 < beta <= 2 * np.pi
    assert isinstance(kappa, int)
    net = n0_pair_phase(beta) @ selective_collision(*eta, alpha)
    target = z3_collision_entangler()
    phase = np.vdot(target.reshape(-1), net.reshape(-1))
    phase /= abs(phase)
    assert np.abs(net - phase * target).max() < 1e-11


def test_collision_calibration_rejects_degenerate_eta1():
    # g = (1, 0.5, 1) gives eta1 = g1 - g2/2 = 0 exactly
    with pytest.raises(ValueError):
        collision_calibration(1.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# plaquette stators on the real register set


def plaquette_window(layout, cpl):
    """The ops of the 2x2 direct step's plaquette window."""
    sched = compile_step(layout, cpl, 0.1, "direct", 1)
    _, lo, hi = next(w for w in sched.substeps if w[0] == "plaq_even")
    return sched.ops[lo:hi]


def test_plaquette_sequence_layout(layout22, cpl1):
    ops = plaquette_window(layout22, cpl1)
    assert [op.name for op in ops] == [
        "q_entangler", "q_entangler", "q_entangler_dag", "q_entangler_dag", "anc_drive",
        "q_entangler", "q_entangler", "q_entangler_dag", "q_entangler_dag",
    ]
    assert [op.targets for op in ops] == [
        (4, 8), (7, 8), (6, 8), (5, 8), (8,), (5, 8), (6, 8), (7, 8), (4, 8)]


def test_plaquette_sequence_inverts(layout22, cpl1):
    """The window's entanglers without its drive compose to the identity."""
    rng = np.random.default_rng(9)
    amp = rng.normal(size=layout22.total_dim) + 1j * rng.normal(size=layout22.total_dim)
    amp /= np.linalg.norm(amp)
    dims = tuple(int(d) for d in layout22.dims)
    ops = [op for op in plaquette_window(layout22, cpl1) if op.name != "anc_drive"]
    groups = []
    for op in ops:
        gate = gate_matrix(op.name, op.params, tuple(dims[t] for t in op.targets))
        groups.append(gate_group(dims, gate, op.targets))
    assert np.abs(run_gates(groups, dims, amp) - amp).max() < 1e-12


def test_stator_mediated_drive_on_full_register_set(layout22, alg3):
    """Entangle one link with the ancilla, drive the ancilla, disentangle:
    the ancilla is restored exactly and the link picked up the group op."""
    u_i = stator_entangler(alg3)
    dims = tuple(int(d) for d in layout22.dims)
    singlet = build_global_singlet(layout22)

    def sandwich(drive):
        groups = (gate_group(dims, u_i, [4, 8]), gate_group(dims, drive, [8]),
                  gate_group(dims, u_i.conj().T, [4, 8]))
        return run_gates(groups, dims, singlet)

    def restored(amplitudes):
        return np.linalg.norm(project_support(layout22, np.arange(amplitudes.size), amplitudes)[1])

    st = sandwich(alg3.q)
    assert restored(st) == pytest.approx(1.0, abs=1e-12)
    want = run_gates((gate_group(dims, alg3.q.conj().T, [4]),), dims, singlet)
    assert np.abs(st - want).max() < 1e-12
    # a P~ drive instead leaves the ancilla fully outside the restored space
    assert restored(sandwich(alg3.p)) < 1e-12
