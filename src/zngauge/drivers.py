"""Experiment drivers: quench trajectories, verification battery, scans.

Every driver is deterministic under a fixed config and seed, writes one
CSV per observable family plus a manifest, and returns its records so
tests can assert on them without touching the filesystem.  Dense norm
comparisons always run on the 2x2 lattice; larger lattices would need
operator matrices that do not fit.
"""

from __future__ import annotations

import json
import os
import resource
from dataclasses import dataclass
from importlib import metadata

import numpy as np

from .lattice import (NORM_TOL, RegisterLayout, born_sample, check_normalized, marginals,
                      project_support, singlet_support, total_fermion_number)
from .algebra import (SIGMA_PLUS, TERM_NAMES, Couplings, gauss_expectations, hamiltonian_edges,
                      make_link_algebra, random_gauge_invariant_physical)
from .stators import (collision_calibration, eta_couplings, gate_matrix,
                      n0_pair_phase, scattering_lengths_to_couplings,
                      selective_collision, stator_entangler, z3_collision_entangler)
from .schedule import (compile_step, dump_schedule, execute_support,
                       gauge_away_phases, schedule_physical_map, solve_vertex_potential,
                       spurious_phase_field)
from .oracle import (ORACLE_DIM_LIMIT, ExactEvolver, exact_norm_sum, bound_validity,
                     trace_phase, trotter_bound)
from .optical import polarization_vectors, shaping_schedule, v_mat_minima, wave_vectors
from .config import SimulationConfig

SCAN_STEPS = (4, 8, 16, 32, 64)
XI_GRID = tuple(float(x) for x in np.linspace(0.02, 0.30, 15))
OPTICAL_ORTHOGONALITY_TOL = 1e-8   # polarization cross dots stay below this on valid points


def _package_version() -> str:
    try:
        return metadata.version("artifact")
    except metadata.PackageNotFoundError:
        return "unreleased"


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list]):
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def write_manifest(out_dir: str, config: SimulationConfig, extra: dict | None = None):
    """manifest.json: config, versions, CPU count and the peak RSS so far."""
    doc = {"config": config.as_dict(), "version": _package_version(),
           "seed": config.seed, "numpy_version": np.__version__,
           "cpu_count": os.cpu_count(),
           # ru_maxrss is in KiB on Linux
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if extra:
        doc.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def flux_sector_probabilities(layout: RegisterLayout, index: np.ndarray,
                              weights: np.ndarray) -> dict:
    """Per plaquette, the distribution of the oriented flux label of a state
    whose |a|^2 are `weights` on full-space basis indices `index`.

    The label is the orientation-weighted sum of the four link clock
    digits mod N; its probabilities are `marginals` of the weights.
    """
    geom = layout.geometry
    # each plaquette's (link register, orientation) pairs in register order
    edges = [sorted((layout.link_index(l), o) for l, o in geom.plaquette_links(p))
             for p in geom.plaquettes]
    joints = marginals(layout, index, weights, [[t for t, _ in e] for e in edges])
    out = {}
    for p, e, joint in zip(geom.plaquettes, edges, joints):
        orients = np.array([o for _, o in e])
        labels = np.tensordot(orients, np.indices(joint.shape), axes=1) % layout.N
        out[p] = np.bincount(labels.reshape(-1), weights=joint.reshape(-1), minlength=layout.N)
    return out


def measure_configuration(layout: RegisterLayout, index: np.ndarray, amplitudes: np.ndarray,
                          seed: int, shots: int) -> dict:
    """Born-rule samples of link flux labels and site occupations of a state
    given on full-space basis indices.

    Returns arrays keyed 'occupation' (shots x vertices) and 'flux'
    (shots x links) plus the vertex and link lists labelling the columns:
    occupations by sorted vertex (X, Y), flux by sorted link (origin,
    direction), so both halves of a record read in one order.
    """
    digits = born_sample(layout, index, amplitudes, np.random.default_rng(seed), shots)
    geom = layout.geometry
    verts = sorted(geom.vertices)
    f_cols = [layout.fermion_index(v) for v in verts]
    l_cols = [layout.link_index(l) for l in geom.links]
    return {
        "occupation": digits[:, f_cols],
        "flux": digits[:, l_cols],
        "vertices": verts,
        "links": list(geom.links),
    }


def dense_layout(config: SimulationConfig, driver: str) -> RegisterLayout:
    """The 2x2, N = 3, per-plaquette layout of the drivers that build dense
    maps; ValueError if the config asks for another lattice."""
    asked = (config.Lx, config.Ly, config.N, config.ancilla_policy)
    if asked != (2, 2, 3, "per_plaquette"):
        raise ValueError(f"{driver} runs on the 2x2, N = 3, per-plaquette lattice only; the "
                         f"config asks for (Lx, Ly, N, ancilla_policy) = {asked}")
    return config.build_geometry()


def run_quench(config: SimulationConfig, out_dir: str | None = None,
               shots: int = 0) -> list[dict]:
    """Sudden-interaction evolution from the global singlet.

    The state is evolved on its support, full-space basis indices and
    their amplitudes, by `execute_support`; its observables and `shots`
    read that support.  The support kernel raises MemoryError before a
    group whose arrays would not fit in physical memory, and ValueError
    when the lattice's basis indices do not fit int64.
    Records per step: Gauss-law expectation per vertex, total fermion
    number, flux-sector probabilities, ancilla restoration, the norm the
    support kernel has dropped so far (a bound on the distance to exact
    arithmetic; RuntimeError once it exceeds NORM_TOL), and (when the
    physical dimension allows dense diagonalization) fidelity against the
    exact propagator.
    """
    layout = config.build_geometry()
    cpl = config.couplings()
    tau = config.T / config.n_steps
    sched = compile_step(layout, cpl, tau, config.mode, config.order,
                         theta=config.theta, theta_prime=config.theta_prime)
    index, amplitudes = singlet_support(layout)
    evolver = None
    if layout.physical_dim <= ORACLE_DIM_LIMIT:
        evolver = ExactEvolver(hamiltonian_edges(layout, TERM_NAMES, cpl))
        phys0 = np.zeros(layout.physical_dim, dtype=np.complex128)
        physical, projected = project_support(layout, index, amplitudes)
        phys0[physical] = projected
    truncated = 0.0
    rows = []
    for k in range(1, config.n_steps + 1):
        index, amplitudes, dropped = execute_support(sched, index, amplitudes)
        truncated += dropped
        if truncated > NORM_TOL:
            raise RuntimeError(f"the support kernel dropped a norm of {truncated:.3e} by step "
                               f"{k}, over NORM_TOL = {NORM_TOL:g}")
        check_normalized(amplitudes)
        weights = np.abs(amplitudes) ** 2
        physical, projected = project_support(layout, index, amplitudes)
        gauss = gauss_expectations(layout, index, weights)
        flux = flux_sector_probabilities(layout, index, weights)
        row = {
            "step": k,
            "time": k * tau,
            "gauss_max_deviation": max(abs(v - 1.0) for v in gauss.values()),
            "fermion_number": total_fermion_number(layout, index, weights),
            "ancilla_restoration": float(np.linalg.norm(projected)),
            "truncated_norm": truncated,
        }
        if evolver is not None:
            target = evolver.evolve(k * tau, phys0)
            row["fidelity_exact"] = float(abs(np.vdot(target[physical], projected)))
        for v in layout.geometry.vertices:
            row[f"gauss_re_{v[0]}_{v[1]}"] = float(gauss[v].real)
        for p, dist in flux.items():
            for m, pr in enumerate(dist):
                row[f"flux_{p[0]}_{p[1]}_m{m}"] = float(pr)
        rows.append(row)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        header = list(rows[0].keys())
        write_csv(os.path.join(out_dir, "trajectory.csv"), header,
                  [[r[h] for h in header] for r in rows])
        if shots > 0:
            sample = measure_configuration(layout, index, amplitudes, config.seed, shots)
            head = ([f"occ_{v[0]}_{v[1]}" for v in sample["vertices"]]
                    + [f"link_{l[0][0]}_{l[0][1]}_{l[1]}" for l in sample["links"]])
            body = np.hstack([sample["occupation"], sample["flux"]])
            write_csv(os.path.join(out_dir, "measurements.csv"), head,
                      body.tolist())
        write_manifest(out_dir, config, {"driver": "quench", "shots": shots})
    return rows


# ---------------------------------------------------------------------------
# verification battery


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: residual {self.residual:.3e} (tol {self.threshold:.1e})"


def _check(name: str, residual: float, threshold: float) -> CheckResult:
    return CheckResult(name, bool(residual < threshold), float(residual),
                       float(threshold))


def run_verification_suite(config: SimulationConfig,
                           out_dir: str | None = None) -> tuple[bool, list[CheckResult]]:
    """Invariant battery across all modules, on the 2x2 lattice.

    Couplings, N, T, n_steps, angles and seed come from the config; mode
    and order do not: the order-1 choreography step is compared with the
    order-1 direct one, and the Trotter slopes are fit to the direct step
    at orders 1 and 2.  The lattice must be that of `dense_layout`, so
    the dense maps stay tractable.
    """
    lay = dense_layout(config, "verify")
    checks: list[CheckResult] = []
    rng = np.random.default_rng(config.seed)
    cpl = config.couplings()
    # first, so that trotter_errors rejects T <= 0 before the dense checks
    trotter = {order: trotter_errors(lay, cpl, config.T, SCAN_STEPS, order, "direct")
               for order in (1, 2)}

    # clock algebra closure over small N, plus the configured one
    worst = 0.0
    for n in sorted({2, 3, 4, 5, config.N}):
        alg = make_link_algebra(n)
        worst = max(worst, float(np.abs(
            alg.dft.conj().T @ alg.p @ alg.dft - alg.q).max()))
    checks.append(_check("algebra_closure", worst, 1e-12))

    # stator eigenoperator relation at the configured N
    alg = make_link_algebra(config.N)
    u_i = stator_entangler(alg)
    intro = np.ones(config.N) / np.sqrt(config.N)
    s_q = u_i @ np.kron(np.eye(config.N), intro[:, None])
    lhs = np.kron(np.eye(config.N), alg.q) @ s_q
    rhs = s_q @ alg.q.conj().T
    checks.append(_check("stator_eigenoperator", float(np.abs(lhs - rhs).max()), 1e-12))

    # dense work on 2x2
    tau = config.T / config.n_steps

    # plaquette sandwich: compiled even-plaquette window vs closed form
    sched = compile_step(lay, cpl, tau, "choreography", 1,
                         theta=config.theta, theta_prime=config.theta_prime)
    u_cho = schedule_physical_map(sched)
    u_dir = schedule_physical_map(compile_step(lay, cpl, tau, "direct", 1))
    field = spurious_phase_field(lay, config.theta, config.theta_prime)
    lam = solve_vertex_potential(lay, field)
    g = gauge_away_phases(lay, lam)
    central = gauge_away_phases(
        lay, {v: 2 * (config.theta + config.theta_prime) for v in lay.geometry.vertices})
    gauged = central[:, None] * (g[:, None] * u_dir * np.conj(g)[None, :])
    checks.append(_check("gauging_equivalence",
                         float(np.abs(u_cho - gauged).max()), 1e-10))

    # gauge-matter conjugation at the gate level
    alg3 = make_link_algebra(3)
    uw = gate_matrix("uw", (), (3, 2))
    sp = np.kron(np.eye(3), SIGMA_PLUS)
    lhs = uw @ sp @ uw.conj().T
    rhs = np.kron(alg3.q, np.eye(2)) @ sp
    checks.append(_check("gauge_matter_conjugation", float(np.abs(lhs - rhs).max()), 1e-12))

    # per-substep and whole-step gauge invariance on a random invariant state; each
    # substep map projects the ancillas, so unrestored ones show as a lost norm
    state = random_gauge_invariant_physical(lay, rng)
    index = np.arange(lay.physical_dim) * lay.ancilla_dim
    worst_g = 0.0
    worst_anc = 0.0
    for _, a, b in sched.substeps:
        state = schedule_physical_map(sched, (a, b)) @ state
        gauss = gauss_expectations(lay, index, np.abs(state) ** 2)
        worst_g = max(worst_g, max(abs(v - 1.0) for v in gauss.values()))
        worst_anc = max(worst_anc, abs(1.0 - float(np.linalg.norm(state))))
    checks.append(_check("per_substep_gauge_invariance", worst_g, 1e-10))
    checks.append(_check("ancilla_restoration", worst_anc, 1e-10))

    # collision calibration on random scattering lengths
    worst_c = 0.0
    u_want = z3_collision_entangler()
    for _ in range(10):
        a0, a1, a2 = rng.uniform(0.2, 2.0, size=3)
        g0, g1, g2 = scattering_lengths_to_couplings(a0, a1, a2)
        try:
            alpha, beta, _ = collision_calibration(g0, g1, g2)
        except ValueError:
            continue
        u_net = n0_pair_phase(beta) @ selective_collision(
            *eta_couplings(g0, g1, g2), alpha)
        phase = trace_phase(u_net, u_want)
        worst_c = max(worst_c, float(np.abs(u_net - phase * u_want).max()))
    checks.append(_check("collision_calibration", worst_c, 1e-11))

    # trotter slopes and bound dominance (uses config's couplings)
    slope_rows = []
    dominance = True
    for order, errors in trotter.items():
        dominance = dominance and all(dist <= bnd for dist, bnd, _ in errors)
        errs = [dist for dist, _, _ in errors]
        slope = float(np.polyfit(np.log(SCAN_STEPS), np.log(errs), 1)[0])
        slope_rows.append((order, slope, errs))
        checks.append(_check(f"trotter_slope_order{order}",
                             abs(slope + order), 0.1))
    checks.append(_check("bound_dominance", 0.0 if dominance else 1.0, 0.5))

    # optical orthogonality across the validity region
    worst_o = max((r["max_cross_dot"] for r in run_optical_scan(config) if r["valid"]),
                  default=0.0)
    checks.append(_check("optical_orthogonality", worst_o, OPTICAL_ORTHOGONALITY_TOL))

    all_pass = all(c.passed for c in checks)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verification.txt"), "w", encoding="utf-8") as f:
            for c in checks:
                f.write(c.line() + "\n")
            f.write(f"overall: {'PASS' if all_pass else 'FAIL'}\n")
        write_csv(os.path.join(out_dir, "trotter_slopes.csv"),
                  ["order", "slope"] + [f"err_M{m}" for m in SCAN_STEPS],
                  [[o, s] + list(e) for o, s, e in slope_rows])
        write_manifest(out_dir, config, {"driver": "verify"})
    return all_pass, checks


def trotter_errors(layout: RegisterLayout, cpl: Couplings, T: float, steps, order: int,
                   mode: str) -> list[tuple]:
    """(distance, bound, gate_count) of M compiled Trotter steps over T, per M in steps.

    distance is the exact spectral norm of the unphased step map's M-th
    power minus exp(-iHT), taken one block of H at a time; bound is the
    paper's product-formula bound for an LxL lattice (ValueError on any
    other shape, and on T <= 0, where every distance is rounding noise
    against a zero bound), gate_count that of one step.
    """
    L, Ly = layout.geometry.Lx, layout.geometry.Ly
    if L != Ly:
        raise ValueError(f"the Trotter bound is stated for LxL lattices, got {L}x{Ly}")
    if T <= 0:
        raise ValueError(f"a Trotter error needs T > 0, got T = {T}")
    evolver = ExactEvolver(hamiltonian_edges(layout, TERM_NAMES, cpl))
    lam_max = max(cpl.lambda_e, cpl.lambda_b, cpl.lambda_gm, cpl.mass)
    out = []
    for m in steps:
        sched = compile_step(layout, cpl, T / m, mode, order)
        out.append((evolver.trotter_distance(schedule_physical_map(sched), m, T),
                    trotter_bound(order, L, lam_max, T, m), sched.gate_count()))
    return out


def run_trotter_scan(config: SimulationConfig, out_dir: str | None = None) -> list[dict]:
    """Error-vs-step-count sweep on the 2x2 lattice against the exact propagator;
    ValueError on nonzero angles, whose step is exp(-iHT) only up to a gauge."""
    if config.theta or config.theta_prime:
        raise ValueError("trotter-scan compares the step with exp(-iHT) and needs "
                         f"theta = theta' = 0, got {config.theta}, {config.theta_prime}")
    lay = dense_layout(config, "trotter-scan")
    cpl = config.couplings()
    errors = trotter_errors(lay, cpl, config.T, SCAN_STEPS, config.order, config.mode)
    norm_sum = exact_norm_sum(lay, cpl)
    rows = []
    for m, (dist, bnd, gates) in zip(SCAN_STEPS, errors):
        rows.append({
            "n_steps": m,
            "tau": config.T / m,
            "distance": dist,
            "bound": bnd,
            "bound_valid": int(bound_validity(config.T, m, norm_sum)),
            "gate_count": gates,
        })
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        header = list(rows[0].keys())
        write_csv(os.path.join(out_dir, "trotter_scan.csv"), header,
                  [[r[h] for h in header] for r in rows])
        write_manifest(out_dir, config, {"driver": "trotter-scan"})
    return rows


def run_optical_scan(config: SimulationConfig, out_dir: str | None = None) -> list[dict]:
    """Polarization validity sweep plus minima and shaping series."""
    rows = []
    for xi in XI_GRID:
        e1, e2, e3, valid = polarization_vectors(xi)
        k1, k2, k3 = wave_vectors(xi)
        cross = max(abs(float(np.dot(e1, e2))), abs(float(np.dot(e1, e3))),
                    abs(float(np.dot(e2, e3))))
        trans = max(abs(float(np.dot(e1, k1))), abs(float(np.dot(e2, k2))),
                    abs(float(np.dot(e3, k3))))
        rows.append({"xi": xi, "valid": int(valid), "max_cross_dot": cross,
                     "max_transversal_dot": trans})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        header = list(rows[0].keys())
        write_csv(os.path.join(out_dir, "polarization_scan.csv"), header,
                  [[r[h] for h in header] for r in rows])
        minima = v_mat_minima(0, 0, 0, 0, (-0.4, config.Lx - 0.6, -0.4, config.Ly - 0.6))
        write_csv(os.path.join(out_dir, "standard_minima.csv"), ["x", "y"],
                  [[x, y] for x, y in minima])
        for step in ("eh", "oh", "ev", "ov"):
            series = shaping_schedule(step, 2.0, 1.0)
            write_csv(os.path.join(out_dir, f"shaping_{step}.csv"),
                      ["t", "f", "g", "h", "phi"], series.tolist())
        write_manifest(out_dir, config, {"driver": "optical"})
    return rows


def run_compile(config: SimulationConfig, out_dir: str | None = None) -> str:
    """Compile one step and return (optionally write) its text dump."""
    layout = config.build_geometry()
    sched = compile_step(layout, config.couplings(), config.T / config.n_steps,
                         config.mode, config.order,
                         theta=config.theta, theta_prime=config.theta_prime)
    text = dump_schedule(sched)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "schedule.txt"), "w", encoding="utf-8") as f:
            f.write(text)
        write_manifest(out_dir, config, {
            "driver": "compile",
            "gate_count": sched.gate_count(),
            "gate_count_with_idles": sched.gate_count(include_idle=True),
        })
    return text
