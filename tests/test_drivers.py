"""End-to-end drivers: quench, verification battery, scans, compile dump."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import build_global_singlet, dense_run, dense_weights, physical_amplitudes, run_gates
import zngauge.algebra as algebra
import zngauge.drivers as drivers
import zngauge.lattice as lattice
import zngauge.oracle as oracle
import zngauge.schedule as schedule
from zngauge import cli
from zngauge.algebra import (TERM_NAMES, Couplings, gauss_expectations, hamiltonian_edges,
                             make_link_algebra)
from zngauge.config import SimulationConfig
from zngauge.drivers import (
    CheckResult,
    flux_sector_probabilities,
    measure_configuration,
    run_compile,
    run_optical_scan,
    run_quench,
    run_trotter_scan,
    run_verification_suite,
    trotter_errors,
    write_csv,
)
from zngauge.lattice import (
    LatticeGeometry,
    build_layout,
    gate_group,
    singlet_support,
    total_fermion_number,
)
from zngauge.schedule import compile_step, execute_support

EXPECTED_CHECKS = [
    "algebra_closure",
    "stator_eigenoperator",
    "gauging_equivalence",
    "gauge_matter_conjugation",
    "per_substep_gauge_invariance",
    "ancilla_restoration",
    "collision_calibration",
    "trotter_slope_order1",
    "trotter_slope_order2",
    "bound_dominance",
    "optical_orthogonality",
]


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    all_pass, checks = run_verification_suite(SimulationConfig(), str(out))
    return out, all_pass, checks


def test_flux_probabilities_on_singlet(layout22):
    st = build_global_singlet(layout22)
    dist = flux_sector_probabilities(layout22, *dense_weights(st))[(0, 0)]
    np.testing.assert_allclose(dist, [1.0, 0.0, 0.0], atol=1e-12)
    # raising one positively oriented link moves the whole weight to label 1
    alg = make_link_algebra(3)
    dims = tuple(int(d) for d in layout22.dims)
    link = layout22.link_index(((0, 0), 1))
    raised = run_gates((gate_group(dims, alg.q, [link]),), dims, st)
    dist1 = flux_sector_probabilities(layout22, *dense_weights(raised))[(0, 0)]
    np.testing.assert_allclose(dist1, [0.0, 1.0, 0.0], atol=1e-12)


def test_flux_probabilities_match_a_loop_over_basis_states():
    # on 3x2 there are two plaquettes, and neither lists its links in
    # register order
    layout = build_layout(LatticeGeometry(3, 2), 3, "shared")
    rng = np.random.default_rng(23)
    amp = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    st = amp / np.linalg.norm(amp)
    geom = layout.geometry
    edges = {p: [(layout.link_index(l), o) for l, o in geom.plaquette_links(p)]
             for p in geom.plaquettes}
    expected = {p: np.zeros(3) for p in geom.plaquettes}
    probs = (np.abs(st) ** 2).tolist()
    for prob, digits in zip(probs, np.ndindex(*layout.dims)):
        for p, e in edges.items():
            expected[p][sum(o * digits[t] for t, o in e) % 3] += prob
    got = flux_sector_probabilities(layout, *dense_weights(st))
    assert got.keys() == expected.keys()
    for p in geom.plaquettes:
        np.testing.assert_allclose(got[p], expected[p], rtol=0, atol=1e-12)


def test_measure_configuration_dirac_sea(layout22):
    st = build_global_singlet(layout22)
    index = np.arange(st.size)
    sample = measure_configuration(layout22, index, st, seed=5, shots=40)
    assert sample["occupation"].shape == (40, 4)
    assert sample["flux"].shape == (40, 4)
    assert sample["vertices"] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # the singlet is a product state in the measured basis
    assert np.all(sample["occupation"] == np.array([0, 1, 1, 0]))
    assert np.all(sample["flux"] == 0)
    again = measure_configuration(layout22, index, st, seed=5, shots=40)
    assert np.array_equal(sample["occupation"], again["occupation"])


def test_measure_configuration_labels_match_columns_3x2():
    # on 3x2 the row-major and sorted vertex orders give different
    # occupation patterns, so a label list out of step with its columns shows
    layout = build_layout(LatticeGeometry(3, 2), 3)
    sample = measure_configuration(layout, *singlet_support(layout), seed=5, shots=10)
    assert sample["vertices"] == sorted(layout.geometry.vertices)
    parity = [(x1 + x2) % 2 for x1, x2 in sample["vertices"]]
    assert parity == [0, 1, 1, 0, 0, 1]
    assert np.all(sample["occupation"] == np.array(parity))


def test_quench_row_contents(tmp_path):
    cfg = SimulationConfig(n_steps=3, T=0.3)
    out = tmp_path / "q"
    rows = run_quench(cfg, str(out), shots=25)
    assert len(rows) == 3
    row = rows[-1]
    assert row["step"] == 3
    assert row["time"] == pytest.approx(0.3)
    assert row["gauss_max_deviation"] < 1e-10
    assert row["fermion_number"] == pytest.approx(2.0, abs=1e-9)
    assert row["ancilla_restoration"] == pytest.approx(1.0, abs=1e-10)
    assert 0.9 < row["fidelity_exact"] <= 1.0 + 1e-12
    assert row["gauss_re_0_0"] == pytest.approx(1.0, abs=1e-10)
    assert sum(row[f"flux_0_0_m{m}"] for m in range(3)) == pytest.approx(1.0, abs=1e-9)

    traj = (out / "trajectory.csv").read_text().strip().split("\n")
    assert len(traj) == 4
    header = traj[0].split(",")
    assert header[:5] == ["step", "time", "gauss_max_deviation",
                          "fermion_number", "ancilla_restoration"]
    meas = (out / "measurements.csv").read_text().strip().split("\n")
    assert len(meas) == 26
    assert meas[0] == ("occ_0_0,occ_0_1,occ_1_0,occ_1_1,"
                       "link_0_0_1,link_0_0_2,link_0_1_1,link_1_0_2")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["driver"] == "quench"
    assert manifest["shots"] == 25
    assert manifest["config"]["n_steps"] == 3


def full_space_observables(config):
    """Per step, run_quench's observables from a dense loop: the plan through
    `run_gates` on the singlet's full-space amplitudes, and the observables
    read at every basis index."""
    layout = config.build_geometry()
    cpl = config.couplings()
    tau = config.T / config.n_steps
    sched = compile_step(layout, cpl, tau, config.mode, config.order,
                         theta=config.theta, theta_prime=config.theta_prime)
    state = build_global_singlet(layout)
    full = np.arange(state.size)
    evolver = None
    if layout.physical_dim <= oracle.ORACLE_DIM_LIMIT:
        evolver = oracle.ExactEvolver(hamiltonian_edges(layout, TERM_NAMES, cpl))
        phys0 = physical_amplitudes(layout, full, state)
    out = []
    for k in range(1, config.n_steps + 1):
        state = dense_run(sched, state)
        probs = full, np.abs(state) ** 2
        gauss = gauss_expectations(layout, *probs)
        physical = physical_amplitudes(layout, full, state)
        want = {"gauss_max_deviation": max(abs(v - 1.0) for v in gauss.values()),
                "fermion_number": total_fermion_number(layout, *probs),
                "ancilla_restoration": np.linalg.norm(physical)}
        if evolver is not None:
            want["fidelity_exact"] = abs(np.vdot(evolver.evolve(k * tau, phys0), physical))
        for v, val in gauss.items():
            want[f"gauss_re_{v[0]}_{v[1]}"] = val.real
        for p, dist in flux_sector_probabilities(layout, *probs).items():
            for m, pr in enumerate(dist):
                want[f"flux_{p[0]}_{p[1]}_m{m}"] = pr
        out.append(want)
    return out


@pytest.mark.parametrize("fields", [
    {"mode": "direct"},
    {"Lx": 3, "Ly": 2, "n_steps": 2},
    {"Lx": 3, "Ly": 2, "n_steps": 2, "ancilla_policy": "shared"},
    {"order": 2, "theta": 0.3, "theta_prime": 0.7},
], ids=["2x2-direct", "3x2-per-plaquette", "3x2-shared", "2x2-order2-phased"])
def test_sector_quench_matches_the_full_space_loop(fields):
    config = SimulationConfig(**fields)
    rows = run_quench(config)
    reference = full_space_observables(config)
    assert len(rows) == len(reference) == config.n_steps
    assert ("fidelity_exact" in reference[0]) == (config.Lx * config.Ly == 4)
    for row, want in zip(rows, reference):
        assert set(row) == set(want) | {"step", "time", "truncated_norm"}
        for key, value in want.items():
            assert abs(row[key] - value) <= 1e-12, key
    truncated = [row["truncated_norm"] for row in rows]
    assert 0.0 <= truncated[0] and truncated == sorted(truncated) and truncated[-1] <= 1e-12


def test_direct_quench_drops_no_rounding_residue():
    """uw is the exact controlled shift, so the 2x2 default direct quench
    leaves the support kernel almost no rounding residue to drop."""
    rows = run_quench(SimulationConfig(mode="direct"))
    assert rows[-1]["truncated_norm"] <= 1e-15


@pytest.mark.parametrize("mode", ["choreography", "direct"])
def test_a_tiny_step_keeps_small_plan_entries_and_counts_their_drop(mode):
    """Plan building keeps every nonzero: the 2x2 plan of a step of 5e-15
    holds entries of modulus at most SUPPORT_TOL, and a quench of two such
    steps reports what the support kernel then drops from the state."""
    layout = build_layout(LatticeGeometry(2, 2), 3)
    plan = schedule._plan(compile_step(layout, Couplings(), 5e-15, mode, 1))
    moduli = np.concatenate([np.abs(g.values).ravel() for g in plan])
    assert np.any((moduli > 0) & (moduli <= lattice.SUPPORT_TOL))
    rows = run_quench(SimulationConfig(mode=mode, T=1e-14, n_steps=2))
    assert rows[-1]["truncated_norm"] > 1e-14


def test_quench_raises_once_the_dropped_norm_passes_its_budget(monkeypatch):
    """The support kernel's dropped norm is summed over the steps, and a sum
    over NORM_TOL stops the quench instead of reporting a truncated state."""
    monkeypatch.setattr(lattice, "SUPPORT_TOL", 1e-3)
    with pytest.raises(RuntimeError, match="dropped a norm of"):
        run_quench(SimulationConfig())


def test_quench_default_config_frozen_fidelity():
    rows = run_quench(SimulationConfig())
    assert rows[-1]["fidelity_exact"] == pytest.approx(0.995049223, abs=1e-6)


def test_quench_with_interactions_off():
    cfg = SimulationConfig(lambda_e=0.0, lambda_b=0.0, lambda_gm=0.0,
                           mass=0.0, n_steps=2)
    rows = run_quench(cfg)
    for row in rows:
        assert row["gauss_max_deviation"] < 1e-12
        assert row["fidelity_exact"] > 1 - 1e-12


def test_csv_float_formatting(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(str(path), ["a", "b"], [[1.0 / 3.0, 7], [1.23456789012345e-17, "s"]])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a,b"
    token = lines[1].split(",")[0]
    assert token == "%.12g" % (1.0 / 3.0)
    assert float(token) == pytest.approx(1.0 / 3.0, rel=1e-11)
    assert lines[2] == "1.23456789012e-17,s"


def test_check_result_line():
    line = CheckResult("algebra_closure", True, 3.2e-15, 1e-12).line()
    assert line == "[PASS] algebra_closure: residual 3.200e-15 (tol 1.0e-12)"
    assert CheckResult("x", False, 1.0, 0.5).line().startswith("[FAIL]")


def test_verification_suite_all_green(verify_run):
    _, all_pass, checks = verify_run
    assert [c.name for c in checks] == EXPECTED_CHECKS
    failures = [c.line() for c in checks if not c.passed]
    assert all_pass, failures
    for c in checks:
        assert c.residual < c.threshold


def test_verify_reports_a_substep_that_leaves_its_ancilla(monkeypatch, capsys, request):
    """With fermion_anc_shift, which the plan runs for fermion_anc_phase inside
    each dft_anc window, replaced by a bare dft on the ancilla, the
    choreography substeps no longer return their ancilla to |in~>: `verify`
    reports ancilla_restoration as FAIL and exits 1 instead of raising."""
    honest = schedule._cached_gate

    def broken(name, params, dims):
        if name == "fermion_anc_shift":
            return np.kron(np.eye(dims[0]), algebra.make_link_algebra(dims[1]).dft)
        return honest(name, params, dims)

    monkeypatch.setattr(schedule, "_cached_gate", broken)
    schedule._member.cache_clear()   # members built from the honest gates
    request.addfinalizer(schedule._member.cache_clear)   # and those from the broken one
    results = []
    suite = cli.run_verification_suite

    def spy(*args):
        results.append(suite(*args))
        return results[-1]

    monkeypatch.setattr(cli, "run_verification_suite", spy)
    assert cli.main(["verify"]) == 1
    ((all_pass, checks),) = results
    assert not all_pass
    assert not {c.name: c.passed for c in checks}["ancilla_restoration"]
    out = capsys.readouterr().out
    assert "[FAIL] ancilla_restoration" in out and out.strip().endswith("overall: FAIL")


def test_verification_suite_files(verify_run):
    out, _, checks = verify_run
    text = (out / "verification.txt").read_text()
    assert text.count("[PASS]") == len(checks)
    assert text.strip().endswith("overall: PASS")
    slopes = (out / "trotter_slopes.csv").read_text().strip().split("\n")
    assert slopes[0].startswith("order,slope,err_M4")
    assert len(slopes) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["driver"] == "verify"
    assert manifest["version"]


def test_trotter_scan_rows(tmp_path):
    cfg = SimulationConfig(mode="direct")
    out = tmp_path / "scan"
    rows = run_trotter_scan(cfg, str(out))
    assert [r["n_steps"] for r in rows] == [4, 8, 16, 32, 64]
    dists = [r["distance"] for r in rows]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    for r in rows:
        assert r["distance"] <= r["bound"]
        assert r["gate_count"] == 29
        assert r["bound_valid"] in (0, 1)
    assert rows[-1]["bound_valid"] == 1
    scan = (out / "trotter_scan.csv").read_text().strip().split("\n")
    assert scan[0] == "n_steps,tau,distance,bound,bound_valid,gate_count"
    assert len(scan) == 6


@pytest.mark.parametrize("run", [run_trotter_scan, run_verification_suite])
@pytest.mark.parametrize("field", [{"Lx": 3, "Ly": 2}, {"N": 2, "mode": "direct"},
                                   {"ancilla_policy": "shared"}])
def test_dense_drivers_reject_another_lattice(run, field):
    with pytest.raises(ValueError, match="config asks for"):
        run(SimulationConfig(**field))


def test_verify_rejects_zero_time_before_its_dense_work(monkeypatch):
    def dense_work(*args, **kwargs):
        raise RuntimeError("verify began its dense checks before rejecting T = 0")

    monkeypatch.setattr(drivers, "make_link_algebra", dense_work)
    with pytest.raises(ValueError, match="T > 0"):
        run_verification_suite(SimulationConfig(T=0))


def test_trotter_bound_takes_the_lattice_side(layout22):
    cpl = Couplings(0.7, 1.3, 0.9, 1.1)
    rows = trotter_errors(layout22, cpl, 1.0, (4, 8), 1, "direct")
    lam_max = 1.3
    assert [bnd for _, bnd, _ in rows] == [45.0 * 2**4 * lam_max**2 / m for m in (4, 8)]
    with pytest.raises(ValueError, match="LxL"):
        trotter_errors(build_layout(LatticeGeometry(1, 3), 3), cpl, 1.0, (4,), 1, "direct")


def test_drivers_build_no_dense_hamiltonian(monkeypatch, tmp_path):
    def dense(*args, **kwargs):
        raise RuntimeError("a driver built a dense physical Hamiltonian")

    for module in (algebra, drivers, oracle):
        for name in ("edges_to_dense", "total_hamiltonian"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, dense)
    monkeypatch.setattr(drivers, "SCAN_STEPS", (4,))
    rows = run_trotter_scan(SimulationConfig(), str(tmp_path / "scan"))
    assert rows[0]["distance"] > 0
    rows = run_quench(SimulationConfig(mode="direct", n_steps=2))
    assert 0.0 < rows[-1]["fidelity_exact"] <= 1.0 + 1e-12


def test_optical_scan_outputs(tmp_path):
    out = tmp_path / "opt"
    rows = run_optical_scan(SimulationConfig(), str(out))
    assert len(rows) == 15
    for r in rows:
        assert r["valid"] == 1
        assert r["max_cross_dot"] < 1e-8
        assert r["max_transversal_dot"] < 1e-8
    minima = (out / "standard_minima.csv").read_text().strip().split("\n")
    assert len(minima) == 5  # header plus the four lattice sites
    for step in ("eh", "oh", "ev", "ov"):
        assert (out / f"shaping_{step}.csv").exists()
    assert (out / "polarization_scan.csv").exists()


def test_run_compile_dump(tmp_path):
    cfg = SimulationConfig()
    text = run_compile(cfg)
    assert text == run_compile(cfg)
    lines = text.strip().split("\n")
    assert len(lines) == 98
    out = tmp_path / "c"
    run_compile(cfg, str(out))
    assert (out / "schedule.txt").read_text() == text
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["gate_count"] == 89
    assert manifest["gate_count_with_idles"] == 98


def test_manifest_records_the_environment(tmp_path):
    run_compile(SimulationConfig(), str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for key in ("peak_rss_mb", "numpy_version", "cpu_count"):
        assert key in manifest, key


def test_support_kernel_refuses_a_group_over_physical_memory(monkeypatch, capsys):
    """With no memory to spare, the first spreading group of a 2x2 quench
    raises MemoryError in run_support before any expanded array exists,
    and the CLI exits 2 with the message."""
    monkeypatch.setattr(lattice, "PHYSICAL_MEMORY", 0)
    with pytest.raises(MemoryError, match="physical memory") as info:
        run_quench(SimulationConfig(n_steps=1))
    frame = info.traceback[-1]
    assert frame.name == "run_support"
    assert frame.locals["width"] > 1
    assert not {"keep", "target", "spread", "order"} & set(frame.locals)
    assert cli.main(["quench"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the support kernel needs") and "physical memory" in err


def test_5x3_quench_is_refused_by_the_memory_guard(monkeypatch):
    """5x3 basis indices fit int64, but its support soon spreads past what a
    1 GiB host holds: the kernel refuses the group before allocating it."""
    monkeypatch.setattr(lattice, "PHYSICAL_MEMORY", 2**30)
    with pytest.raises(MemoryError, match="physical memory"):
        run_quench(SimulationConfig(Lx=5, Ly=3))


def test_3x3_direct_quench_keeps_the_gauss_law():
    """One direct step on 3x3, the smallest lattice with a bulk vertex."""
    rows = run_quench(SimulationConfig(Lx=3, Ly=3, mode="direct", n_steps=1))
    assert all(r["gauss_max_deviation"] <= 1e-10 for r in rows)
    assert all(r["truncated_norm"] <= lattice.NORM_TOL for r in rows)


def test_sampled_quench_never_holds_the_full_state(tmp_path):
    """Shots are drawn from the support, so a warm sampled 3x2 choreography
    quench stays under the 16 B per amplitude of one full-space state."""
    config = SimulationConfig(Lx=3, Ly=2, n_steps=2)
    layout = config.build_geometry()
    run_quench(config, str(tmp_path), shots=50)
    tracemalloc.start()
    try:
        run_quench(config, str(tmp_path), shots=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * layout.total_dim
    assert len((tmp_path / "measurements.csv").read_text().strip().split("\n")) == 51


def test_quench_observables_allocate_no_physical_array():
    """The three observables of a 3x2 step-end support read it where it
    lies: no array of physical_dim entries is formed."""
    config = SimulationConfig(Lx=3, Ly=2)
    layout = config.build_geometry()
    sched = compile_step(layout, config.couplings(), config.T / config.n_steps,
                         config.mode, config.order)
    index, amplitudes, _ = execute_support(sched, *singlet_support(layout))
    weights = np.abs(amplitudes) ** 2

    def observe():
        gauss_expectations(layout, index, weights)
        flux_sector_probabilities(layout, index, weights)
        total_fermion_number(layout, index, weights)

    observe()
    tracemalloc.start()
    try:
        observe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * layout.physical_dim


def test_quench_peak_memory_is_its_footprint():
    """A warm 3x2 choreography quench stays within 48 B for each of the
    393,660 basis states with the singlet's 3 fermions, never holding a
    full-space state."""
    config = SimulationConfig(Lx=3, Ly=2, n_steps=2)
    layout = config.build_geometry()
    footprint = 48 * 393_660
    assert footprint == 18_895_680 < 16 * layout.total_dim
    run_quench(config)
    tracemalloc.start()
    try:
        run_quench(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * footprint
