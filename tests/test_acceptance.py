"""Acceptance battery: nine binding criteria, one printed verdict per test.

Run `pytest tests/test_acceptance.py -s` to watch the verdict lines as
they are produced.  Every test prints its line before asserting, so a
failing criterion still reports its measured numbers.
"""

import time

import numpy as np
import pytest

from conftest import embed_on, embed_physical, physical_singlet, taylor_expm
from zngauge.algebra import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    expm_from_hermitian,
    gauss_law_operator,
    make_link_algebra,
    random_gauge_invariant_physical,
    total_hamiltonian,
)
from zngauge.config import SimulationConfig
from zngauge.drivers import run_quench
from zngauge.lattice import LatticeGeometry, build_layout
from zngauge.optical import polarization_vectors, v_mat_minima
from zngauge.oracle import (
    ExactEvolver,
    steps_required,
    trotter_bound,
)
from zngauge.schedule import (
    compile_step,
    gauge_away_phases,
    plaquette_curl,
    schedule_physical_map,
    solve_vertex_potential,
    spurious_phase_field,
)
from zngauge.stators import (
    ancilla_fourier,
    collision_calibration,
    eta_couplings,
    gate_matrix,
    n0_pair_phase,
    scattering_lengths_to_couplings,
    selective_collision,
    stator_entangler,
    z3_collision_entangler,
)

IN_VEC = np.ones(3) / np.sqrt(3)


def verdict(num: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {num} ({label}): {detail}; "
          f"elapsed {elapsed:.2f}s (budget {budget:.0f}s)")


@pytest.fixture(scope="module")
def ham(layout22, cpl1):
    return total_hamiltonian(layout22, cpl1)


@pytest.fixture(scope="module")
def evolver(ham):
    return ExactEvolver(ham)


@pytest.fixture(scope="module")
def thetas(layout22):
    return [
        embed_physical(layout22, gauss_law_operator(layout22, v))
        for v in layout22.geometry.vertices
    ]


@pytest.fixture(scope="module")
def u_dir01(layout22, cpl1):
    return schedule_physical_map(compile_step(layout22, cpl1, 0.1, "direct", 1))


@pytest.fixture(scope="module")
def phys0(layout22):
    return physical_singlet(layout22)


def commutator_norm(w: np.ndarray, theta: np.ndarray) -> float:
    """Spectral norm of [w, theta], cheap and rigorous for tiny residuals.

    The Gauss rotations are diagonal in the computational basis, so the
    commutator is formed elementwise; the Hoelder bound
    sqrt(norm_1 * norm_inf) upper-bounds the spectral norm and is enough
    whenever it already clears the tolerance.  Otherwise fall back to
    the exact norm.
    """
    d = np.diag(theta)
    if np.abs(theta - np.diag(d)).max() < 1e-15:
        c = w * d[None, :] - d[:, None] * w
    else:
        c = w @ theta - theta @ w
    r = np.abs(c)
    bound = float(np.sqrt(r.sum(axis=0).max() * r.sum(axis=1).max()))
    if bound < 1e-10:
        return bound
    return float(np.linalg.norm(c, 2))


# ---------------------------------------------------------------------------
# criterion 1: clock and shift algebra for N = 2..5


def test_criterion_1_algebra():
    t0 = time.perf_counter()
    budget = 1.0
    worst = 0.0
    for N in (2, 3, 4, 5):
        alg = make_link_algebra(N)
        eye = np.eye(N)
        omega = np.exp(2j * np.pi / N)
        worst = max(
            worst,
            np.abs(np.linalg.matrix_power(alg.p, N) - eye).max(),
            np.abs(np.linalg.matrix_power(alg.q, N) - eye).max(),
            np.abs(alg.p @ alg.q @ alg.p.conj().T - omega * alg.q).max(),
            np.abs(alg.dft.conj().T @ alg.p @ alg.dft - alg.q).max(),
            np.abs(taylor_expm(alg.log_p) - alg.p).max(),
            np.abs(taylor_expm(alg.dft.conj().T @ alg.log_p @ alg.dft) - alg.q).max(),
        )
    alg3 = make_link_algebra(3)
    closed = (2 * np.pi / (3 * np.sqrt(3))) * (alg3.p - alg3.p.conj().T)
    closed_residual = np.abs(alg3.log_p - closed).max()
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and closed_residual < 1e-14 and elapsed < budget
    verdict(1, "clock algebra", ok,
            f"max residual {worst:.2e}, N=3 log closed form {closed_residual:.2e}",
            elapsed, budget)
    assert worst < 1e-12
    assert closed_residual < 1e-14
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 2: stator relations and the single-plaquette sandwich


def test_criterion_2_stators(layout22, cpl1):
    t0 = time.perf_counter()
    budget = 5.0
    alg = make_link_algebra(3)
    s_q = stator_entangler(alg) @ np.kron(np.eye(3), IN_VEC.reshape(3, 1))
    r_q = np.abs(np.kron(np.eye(3), alg.q) @ s_q - s_q @ alg.q.conj().T).max()
    s_p = np.kron(np.eye(3), ancilla_fourier()) @ s_q
    r_p = np.abs(np.kron(np.eye(3), alg.p) @ s_p - s_p @ alg.q.conj().T).max()

    # single plaquette with its ancilla: registers (l1, l4, l3, l2, anc); the
    # entanglers are those of the compiled direct step's plaquette window
    sched = compile_step(layout22, cpl1, 0.1, "direct", 1)
    _, lo, hi = next(w for w in sched.substeps if w[0] == "plaq_even")
    window = sched.ops[lo:hi]
    assert [op.name for op in window].index("anc_drive") == 4
    dims = [3] * 5
    pos = {reg: reg - 4 for reg in (4, 5, 6, 7)}
    fwd = np.eye(3 ** 5, dtype=complex)
    for op in window[:4]:
        g = gate_matrix(op.name, op.params, (3, 3))
        fwd = embed_on(g, [pos[op.targets[0]], 4], dims) @ fwd
    inv = np.eye(3 ** 5, dtype=complex)
    for op in window[5:]:
        g = gate_matrix(op.name, op.params, (3, 3))
        inv = embed_on(g, [pos[op.targets[0]], 4], dims) @ inv

    b = np.eye(81, dtype=complex)
    for link, orient in layout22.geometry.plaquette_links((0, 0)):
        m = alg.q if orient > 0 else alg.q.conj().T
        b = embed_on(m, [pos[layout22.link_index(link)]], [3] * 4) @ b

    worst_fid_gap = 0.0
    worst_unitarity = 0.0
    for tau in (0.05, 0.2, 1.0):
        drive = embed_on(gate_matrix("anc_drive", (tau,), (3,)), [4], dims)
        w = (inv @ drive @ fwd).reshape(81, 3, 81, 3)
        restricted = np.einsum("aibj,i,j->ab", w, IN_VEC.conj(), IN_VEC)
        target = expm_from_hermitian(b + b.conj().T, -1j * tau)
        fid = abs(np.trace(restricted.conj().T @ target)) / 81.0
        worst_fid_gap = max(worst_fid_gap, 1.0 - fid)
        worst_unitarity = max(
            worst_unitarity,
            np.abs(restricted @ restricted.conj().T - np.eye(81)).max(),
        )
    elapsed = time.perf_counter() - t0
    ok = (r_q < 1e-12 and r_p < 1e-12 and worst_fid_gap < 1e-11
          and elapsed < budget)
    verdict(2, "stator relations", ok,
            f"Q-relation {r_q:.2e}, P-relation {r_p:.2e}, "
            f"sandwich 1-F {worst_fid_gap:.2e}, leak {worst_unitarity:.2e}",
            elapsed, budget)
    assert r_q < 1e-12
    assert r_p < 1e-12
    assert worst_fid_gap < 1e-11
    assert worst_unitarity < 1e-10
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 3: gauge-matter conjugation and route equivalence


def test_criterion_3_gauge_matter(layout22, cpl1, u_dir01):
    t0 = time.perf_counter()
    budget = 30.0
    alg = make_link_algebra(3)
    dims = (3, 2, 2)  # link, origin fermion, head fermion
    u_w = embed_on(gate_matrix("uw", (), (3, 2)), [0, 1], dims)
    hop = np.kron(SIGMA_PLUS, SIGMA_MINUS)
    h_t = embed_on(hop + hop.conj().T, [1, 2], dims)
    h_gm = (np.kron(alg.q, hop) + np.kron(alg.q.conj().T, hop.conj().T))
    conj_residual = np.abs(u_w @ h_t @ u_w.conj().T - h_gm).max()

    rng = np.random.default_rng(2026)
    theta, theta_prime = rng.uniform(-np.pi, np.pi, size=2)
    u_cho = schedule_physical_map(
        compile_step(layout22, cpl1, 0.1, "choreography", 1,
                     theta=theta, theta_prime=theta_prime))
    field = spurious_phase_field(layout22, theta, theta_prime)
    lam = solve_vertex_potential(layout22, field)
    g = gauge_away_phases(layout22, lam)
    worst_fid_gap = 0.0
    for _ in range(16):
        psi = random_gauge_invariant_physical(layout22, rng)
        via_cho = u_cho @ psi
        via_dir = g * (u_dir01 @ (np.conj(g) * psi))
        fid = abs(np.vdot(via_cho, via_dir))
        worst_fid_gap = max(worst_fid_gap, 1.0 - fid)
    elapsed = time.perf_counter() - t0
    ok = conj_residual < 1e-11 and worst_fid_gap < 1e-10 and elapsed < budget
    verdict(3, "gauge-matter routes", ok,
            f"conjugation residual {conj_residual:.2e}, "
            f"route 1-F {worst_fid_gap:.2e} over 16 states",
            elapsed, budget)
    assert conj_residual < 1e-11
    assert worst_fid_gap < 1e-10
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 4: every compiled map commutes with every Gauss rotation


def test_criterion_4_gauss_commutation(layout22, cpl1, thetas):
    t0 = time.perf_counter()
    budget = 120.0
    worst = 0.0
    for mode in ("choreography", "direct"):
        sched = compile_step(layout22, cpl1, 0.1, mode, 1)
        maps = [schedule_physical_map(sched, (lo, hi))
                for _, lo, hi in sched.substeps]
        maps.append(schedule_physical_map(sched))
        for w in maps:
            for th in thetas:
                worst = max(worst, commutator_norm(w, th))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < budget
    verdict(4, "Gauss commutation", ok,
            f"max commutator spectral norm {worst:.2e} over "
            f"both modes, all substeps, all vertices",
            elapsed, budget)
    assert worst < 1e-10
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 5: Trotter convergence slopes and bound dominance


def test_criterion_5_trotter_convergence(layout22, cpl1, evolver):
    t0 = time.perf_counter()
    budget = 600.0
    steps = np.array([4, 8, 16, 32, 64])
    slopes = {}
    dominated = True
    for order in (1, 2):
        dists = []
        for m in steps:
            sched = compile_step(layout22, cpl1, 1.0 / m, "choreography", order)
            dist = evolver.trotter_distance(schedule_physical_map(sched), int(m), 1.0)
            bound = trotter_bound(order, 2, 1.0, 1.0, int(m))
            dominated = dominated and dist <= bound
            dists.append(dist)
        slopes[order] = float(np.polyfit(np.log(steps), np.log(dists), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (abs(slopes[1] + 1.0) <= 0.1 and abs(slopes[2] + 2.0) <= 0.1
          and dominated and elapsed < budget)
    verdict(5, "Trotter convergence", ok,
            f"slopes {slopes[1]:.3f} (want -1.0+-0.1) and "
            f"{slopes[2]:.3f} (want -2.0+-0.1), bound dominated: {dominated}",
            elapsed, budget)
    assert abs(slopes[1] + 1.0) <= 0.1
    assert abs(slopes[2] + 2.0) <= 0.1
    assert dominated
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 6: spurious phase field is a removable gradient


def test_criterion_6_phase_gauging(layout22, cpl1, u_dir01):
    t0 = time.perf_counter()
    budget = 60.0
    rng = np.random.default_rng(66)
    lay32 = build_layout(LatticeGeometry(3, 2), 3)
    worst_curl = 0.0
    worst_grad = 0.0
    draws = [tuple(rng.uniform(-np.pi, np.pi, size=2)) for _ in range(10)]
    for theta, theta_prime in draws:
        for lay in (layout22, lay32):
            field = spurious_phase_field(lay, theta, theta_prime)
            for p in lay.geometry.plaquettes:
                worst_curl = max(worst_curl, abs(plaquette_curl(lay, field, p)))
            lam = solve_vertex_potential(lay, field)
            for (x, k), val in field.items():
                head = lay.geometry.link_head((x, k))
                worst_grad = max(worst_grad, abs(lam[head] - lam[x] - val))

    worst_fid_gap = 0.0
    for theta, theta_prime in draws[:3]:
        u_cho = schedule_physical_map(
            compile_step(layout22, cpl1, 0.1, "choreography", 1,
                         theta=theta, theta_prime=theta_prime))
        field = spurious_phase_field(layout22, theta, theta_prime)
        g = gauge_away_phases(layout22, solve_vertex_potential(layout22, field))
        for _ in range(4):
            psi = random_gauge_invariant_physical(layout22, rng)
            fid = abs(np.vdot(u_cho @ psi, g * (u_dir01 @ (np.conj(g) * psi))))
            worst_fid_gap = max(worst_fid_gap, 1.0 - fid)
    elapsed = time.perf_counter() - t0
    ok = (worst_curl < 1e-12 and worst_grad < 1e-12
          and worst_fid_gap < 1e-11 and elapsed < budget)
    verdict(6, "phase gauging", ok,
            f"max curl {worst_curl:.2e}, gradient residual {worst_grad:.2e}, "
            f"gauged 1-F {worst_fid_gap:.2e}",
            elapsed, budget)
    assert worst_curl < 1e-12
    assert worst_grad < 1e-12
    assert worst_fid_gap < 1e-11
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 7: collision calibration composes to the entangler


def test_criterion_7_collision_calibration():
    t0 = time.perf_counter()
    budget = 5.0
    rng = np.random.default_rng(77)
    target = z3_collision_entangler()
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 10000
        a0, a1, a2 = rng.uniform(0.2, 2.0, size=3)
        g0, g1, g2 = scattering_lengths_to_couplings(a0, a1, a2)
        eta0, eta1, eta2 = eta_couplings(g0, g1, g2)
        if abs(eta1) < 1e-3:
            continue
        accepted += 1
        # printed decomposition formulas
        assert eta0 == pytest.approx(g0 + 1.5 * g2, abs=1e-12)
        assert eta1 == pytest.approx(g1 - 0.5 * g2, abs=1e-12)
        assert eta2 == pytest.approx(3.0 * g2, abs=1e-12)
        alpha, beta, _ = collision_calibration(g0, g1, g2)
        net = n0_pair_phase(beta) @ selective_collision(eta0, eta1, eta2, alpha)
        tr = np.trace(target.conj().T @ net)
        phase = tr / abs(tr)
        worst = max(worst, float(np.abs(net - phase * target).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-11 and elapsed < budget
    verdict(7, "collision calibration", ok,
            f"max composition residual {worst:.2e} over {accepted} draws "
            f"({attempts} attempts)",
            elapsed, budget)
    assert worst < 1e-11
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 8: quench regression with the order-2 step budget


def test_criterion_8_quench_regression(layout22, cpl1, evolver, phys0):
    t0 = time.perf_counter()
    budget = 300.0
    rows = run_quench(SimulationConfig(order=2, n_steps=20))
    worst_gauss = max(r["gauss_max_deviation"] for r in rows)
    worst_fermion = max(abs(r["fermion_number"] - 2.0) for r in rows)

    exact = evolver.evolve(1.0, phys0)
    # consistency: the powered one-step map reproduces the executed run
    u20 = schedule_physical_map(
        compile_step(layout22, cpl1, 1.0 / 20, "choreography", 2))
    fid20 = abs(np.vdot(exact, np.linalg.matrix_power(u20, 20) @ phys0))
    cross_gap = abs(fid20 - rows[-1]["fidelity_exact"])

    m_req = steps_required(2, 2, 1.0, 1.0, 0.002)
    u_req = schedule_physical_map(
        compile_step(layout22, cpl1, 1.0 / m_req, "choreography", 2))
    fid_req = abs(np.vdot(exact, np.linalg.matrix_power(u_req, m_req) @ phys0))
    elapsed = time.perf_counter() - t0
    ok = (worst_gauss < 1e-8 and worst_fermion < 1e-9 and cross_gap < 1e-9
          and fid_req >= 0.999 and elapsed < budget)
    verdict(8, "quench regression", ok,
            f"gauss {worst_gauss:.2e}, fermion drift {worst_fermion:.2e}, "
            f"fidelity at M={m_req}: {fid_req:.6f}",
            elapsed, budget)
    assert worst_gauss < 1e-8
    assert worst_fermion < 1e-9
    assert cross_gap < 1e-9
    assert fid_req >= 0.999
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 9: optical potential and polarization design


def test_criterion_9_optical():
    t0 = time.perf_counter()
    budget = 10.0
    minima = v_mat_minima(0.0, 0.0, 0.0, 0.0, (-0.4, 1.4, -0.4, 1.4))
    site_gap = max(
        max(abs(x - round(x)), abs(y - round(y))) for x, y in minima
    )
    sites = {(round(x), round(y)) for x, y in minima}
    sites_ok = sites == {(0, 0), (0, 1), (1, 0), (1, 1)}

    worst_cross = 0.0
    flags_ok = True
    for xi in np.arange(0.05, 0.50, 0.05):
        e1, e2, e3, valid = polarization_vectors(float(xi))
        disc = 1.0 - 4.0 * xi ** 4 - 2.0 * xi * np.sqrt(2.0 + 4.0 * xi ** 2)
        flags_ok = flags_ok and (valid == (disc > 0))
        if valid:
            worst_cross = max(worst_cross, abs(np.dot(e1, e2)),
                              abs(np.dot(e1, e3)), abs(np.dot(e2, e3)))
    for xi in np.linspace(0.02, 0.30, 15):
        e1, e2, e3, valid = polarization_vectors(float(xi))
        assert valid
        worst_cross = max(worst_cross, abs(np.dot(e1, e2)),
                          abs(np.dot(e1, e3)), abs(np.dot(e2, e3)))
    boundary_ok = polarization_vectors(0.30)[3] and not polarization_vectors(0.35)[3]
    elapsed = time.perf_counter() - t0
    ok = (site_gap < 1e-6 and sites_ok and worst_cross < 1e-8
          and flags_ok and boundary_ok and elapsed < budget)
    verdict(9, "optical design", ok,
            f"minima offset {site_gap:.2e}, worst cross dot {worst_cross:.2e}, "
            f"validity flags consistent: {flags_ok and boundary_ok}",
            elapsed, budget)
    assert site_gap < 1e-6
    assert sites_ok
    assert worst_cross < 1e-8
    assert flags_ok
    assert boundary_ok
    assert elapsed < budget
