"""Step compiler, executor, substep windows, and the phase gauging story."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (blocks_of, build_global_singlet, dense_run, dense_term, dense_weights,
                      embed_physical, lift, physical_amplitudes, physical_singlet, run_gates)
from zngauge.algebra import (
    Couplings,
    TERM_NAMES,
    expm_from_hermitian,
    hamiltonian_edges,
    gauss_law_operator,
    random_gauge_invariant_physical,
)
import zngauge.lattice as lattice_module
import zngauge.schedule as schedule_module
from zngauge.lattice import (
    LatticeGeometry,
    block_group,
    build_layout,
    gate_group,
    is_even,
    project_support,
    singlet_support,
    total_fermion_number,
)
from zngauge.schedule import (
    Schedule,
    _substep_ranges,
    compile_step,
    dump_schedule,
    execute_support,
    plaquette_curl,
    gauge_away_phases,
    physical_edges,
    schedule_physical_map,
    solve_vertex_potential,
    spurious_phase_field,
)
from zngauge.oracle import ExactEvolver
from zngauge.stators import COLLISION_ANGLE, GateOp, gate_matrix

TAU = 0.1


@pytest.fixture(scope="module")
def sched_cho1(layout22, cpl1):
    return compile_step(layout22, cpl1, TAU, "choreography", 1)


@pytest.fixture(scope="module")
def sched_dir1(layout22, cpl1):
    return compile_step(layout22, cpl1, TAU, "direct", 1)


@pytest.fixture(scope="module")
def term_unitaries(layout22, cpl1):
    def at(h, names=TERM_NAMES):
        return {n: expm_from_hermitian(dense_term(layout22, n, cpl1), -1j * h) for n in names}

    return at


def product_step(us):
    """Application order ev, eh, Be, ov, oh, Bo, M, E as a matrix product."""
    m = np.eye(us["E"].shape[0], dtype=complex)
    for name in ("GM_ev", "GM_eh", "Be", "GM_ov", "GM_oh", "Bo", "M", "E"):
        m = us[name] @ m
    return m


def test_frozen_gate_counts(layout22, cpl1, sched_cho1, sched_dir1):
    assert len(sched_cho1.ops) == 98
    assert sched_cho1.gate_count() == 89
    assert sched_cho1.gate_count(include_idle=True) == 98
    assert len(sched_dir1.ops) == 30
    assert sched_dir1.gate_count() == 29
    cho2 = compile_step(layout22, cpl1, TAU, "choreography", 2)
    assert (len(cho2.ops), cho2.gate_count()) == (192, 174)
    dir2 = compile_step(layout22, cpl1, TAU, "direct", 2)
    assert (len(dir2.ops), dir2.gate_count()) == (57, 54)


def test_substep_windows(sched_cho1, sched_dir1):
    assert sched_cho1.substeps == (
        ("gm_ev", 0, 18),
        ("gm_eh_plaq_even_gm_ov", 18, 66),
        ("gm_oh_plaq_odd", 66, 90),
        ("mass_electric", 90, 98),
    )
    assert sched_dir1.substeps == (
        ("gm_ev", 0, 3),
        ("gm_eh", 3, 6),
        ("plaq_even", 6, 15),
        ("gm_ov", 15, 18),
        ("gm_oh", 18, 21),
        ("plaq_odd", 21, 22),
        ("mass", 22, 26),
        ("electric", 26, 30),
    )
    # every choreography stage from 1 to 35 is populated
    assert set(op.stage for op in sched_cho1.ops) == set(range(1, 36))


def test_order_two_mirrors_the_substeps(layout22, cpl1):
    cho2 = compile_step(layout22, cpl1, TAU, "choreography", 2)
    labels = [s[0] for s in cho2.substeps]
    assert labels == [
        "gm_ev",
        "gm_eh_plaq_even_gm_ov",
        "gm_oh_plaq_odd",
        "mass_electric",
        "mirror_mass_electric",
        "mirror_gm_oh_plaq_odd",
        "mirror_gm_eh_plaq_even_gm_ov",
        "mirror_gm_ev",
    ]
    assert cho2.substeps[4] == ("mirror_mass_electric", 98, 102)
    assert cho2.substeps[7] == ("mirror_gm_ev", 174, 192)


def test_compile_step_rejects_bad_arguments(layout22, cpl1):
    with pytest.raises(ValueError):
        compile_step(layout22, cpl1, TAU, "telepathic", 1)
    with pytest.raises(ValueError):
        compile_step(layout22, cpl1, TAU, "direct", 3)
    lay4 = build_layout(LatticeGeometry(2, 2), 4)
    with pytest.raises(ValueError, match="N must be 3"):
        compile_step(lay4, cpl1, TAU, "choreography", 1)
    compile_step(lay4, Couplings(), TAU, "direct", 1)  # direct mode is N-generic


def test_zero_couplings_compile_to_identity(layout22):
    cpl0 = Couplings(lambda_e=0.0, lambda_b=0.0, lambda_gm=0.0, mass=0.0)
    for mode in ("choreography", "direct"):
        sched = compile_step(layout22, cpl0, TAU, mode, 1)
        m = schedule_physical_map(sched)
        assert np.abs(m - np.eye(layout22.physical_dim)).max() < 1e-12, mode


def test_one_step_equals_term_product(sched_cho1, sched_dir1, term_unitaries):
    want = product_step(term_unitaries(TAU))
    got_cho = schedule_physical_map(sched_cho1)
    got_dir = schedule_physical_map(sched_dir1)
    assert np.abs(got_cho - want).max() < 1e-12
    assert np.abs(got_dir - want).max() < 1e-12


def test_order_two_is_strang(layout22, cpl1, term_unitaries):
    h = TAU / 2
    fwd = product_step(term_unitaries(h))
    us = term_unitaries(h)
    rev = np.eye(layout22.physical_dim, dtype=complex)
    for name in ("E", "M", "Bo", "GM_oh", "GM_ov", "Be", "GM_eh", "GM_ev"):
        rev = us[name] @ rev
    strang = rev @ fwd
    for mode in ("choreography", "direct"):
        sched = compile_step(layout22, cpl1, TAU, mode, 2)
        assert np.abs(schedule_physical_map(sched) - strang).max() < 1e-12, mode


def test_substeps_tile_the_schedule(sched_cho1, sched_dir1, layout22):
    eye = np.eye(layout22.physical_dim)
    for sched in (sched_cho1, sched_dir1):
        full = schedule_physical_map(sched)
        acc = eye.astype(complex)
        for _, lo, hi in sched.substeps:
            part = schedule_physical_map(sched, (lo, hi))
            # each window restores the ancillas, so its map is unitary
            assert np.abs(part @ part.conj().T - eye).max() < 1e-11
            acc = part @ acc
        assert np.abs(acc - full).max() < 1e-11


def test_substeps_commute_with_gauss_law(sched_cho1, layout22):
    thetas = [
        embed_physical(layout22, gauss_law_operator(layout22, v))
        for v in layout22.geometry.vertices
    ]
    maps = [schedule_physical_map(sched_cho1, (lo, hi)) for _, lo, hi in sched_cho1.substeps]
    maps.append(schedule_physical_map(sched_cho1))
    for m in maps:
        for th in thetas:
            assert np.abs(m @ th - th @ m).max() < 1e-11


def test_phased_step_is_gauged_unphased_step(layout22, cpl1, sched_dir1):
    theta, theta_prime = 0.83, -0.41
    phased = schedule_physical_map(
        compile_step(layout22, cpl1, TAU, "choreography", 1,
                     theta=theta, theta_prime=theta_prime)
    )
    field = spurious_phase_field(layout22, theta, theta_prime)
    lam = solve_vertex_potential(layout22, field)
    g = gauge_away_phases(layout22, lam)
    u_dir = schedule_physical_map(sched_dir1)
    # central phase: every tunneling event also advances a uniform clock
    n_tot = np.zeros(layout22.physical_dim)
    phys_dims = tuple(r.dim for r in layout22.registers if r.kind != "ancilla")
    for i, r in enumerate(layout22.registers):
        if r.kind == "fermion":
            occ = np.zeros(phys_dims)
            idx = [None] * len(phys_dims)
            idx[i] = 1
            occ[tuple(slice(None) if j is None else j for j in idx)] = 1.0
            n_tot += occ.reshape(-1)
    central = np.exp(-2j * (theta + theta_prime) * n_tot)
    gauged = (central * g)[:, None] * u_dir * np.conj(g)[None, :]
    assert np.abs(phased - gauged).max() < 1e-12


def test_spurious_phase_pattern(layout22):
    theta, theta_prime = 0.3, 0.7
    field = spurious_phase_field(layout22, theta, theta_prime)
    by_class = {layout22.geometry.link_class(l): v for l, v in field.items()}
    assert by_class["eh"] == pytest.approx(2 * theta + theta_prime)
    assert by_class["ev"] == pytest.approx(theta)
    assert by_class["oh"] == pytest.approx(-theta_prime)
    assert by_class["ov"] == pytest.approx(-(theta + 2 * theta_prime))


@settings(max_examples=20, deadline=None)
@given(
    theta=st.floats(-3.0, 3.0, allow_nan=False),
    theta_prime=st.floats(-3.0, 3.0, allow_nan=False),
)
def test_phase_field_is_curl_free_and_solvable(theta, theta_prime):
    lay = build_layout(LatticeGeometry(3, 2), 3)
    field = spurious_phase_field(lay, theta, theta_prime)
    assert set(field) == set(lay.geometry.links)
    for p in lay.geometry.plaquettes:
        assert abs(plaquette_curl(lay, field, p)) < 1e-12
    lam = solve_vertex_potential(lay, field)
    for (x, k), val in field.items():
        head = lay.geometry.link_head((x, k))
        assert abs((lam[head] - lam[x]) - val) < 1e-12


def test_non_gradient_field_raises(layout22):
    field = {l: 0.0 for l in layout22.geometry.links}
    field[((0, 0), 1)] = 0.3
    with pytest.raises(ValueError):
        solve_vertex_potential(layout22, field)
    with pytest.raises(ValueError):
        gauge_away_phases(layout22, {(0, 0): 0.0})


def test_repeated_execute_matches_powered_map(layout22, cpl1):
    sched = compile_step(layout22, cpl1, 0.1, "choreography", 1)
    state = build_global_singlet(layout22)
    for _ in range(3):
        state = dense_run(sched, state)
    want = np.linalg.matrix_power(schedule_physical_map(sched), 3) @ physical_singlet(layout22)
    got = physical_amplitudes(layout22, np.arange(state.size), state)
    assert np.abs(got - want).max() < 1e-11


def test_total_fermion_number_on_singlet(layout22):
    singlet = build_global_singlet(layout22)
    assert total_fermion_number(layout22, *dense_weights(singlet)) == pytest.approx(2.0)


def test_total_fermion_number_matches_a_loop_over_basis_states():
    layout = build_layout(LatticeGeometry(3, 2), 3, "shared")
    rng = np.random.default_rng(29)
    amp = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    st = amp / np.linalg.norm(amp)
    fermions = [i for i, r in enumerate(layout.registers) if r.kind == "fermion"]
    probs = (np.abs(st) ** 2).tolist()
    expected = sum(prob * sum(digits[i] for i in fermions)
                   for prob, digits in zip(probs, np.ndindex(*layout.dims)))
    got = total_fermion_number(layout, *dense_weights(st))
    assert got == pytest.approx(expected, rel=0, abs=1e-12)


def test_modes_agree_on_a_wider_lattice():
    """3x2 lattice, both ancilla policies: the collision-based choreography
    and the direct product formula move a random gauge-invariant state to
    the same place."""
    rng = np.random.default_rng(12)
    cpl = Couplings()
    for policy in ("per_plaquette", "shared"):
        lay = build_layout(LatticeGeometry(3, 2), 3, ancilla_policy=policy)
        st = lift(lay, random_gauge_invariant_physical(lay, rng))
        cho = compile_step(lay, cpl, TAU, "choreography", 1)
        direct = compile_step(lay, cpl, TAU, "direct", 1)
        overlap = np.vdot(dense_run(cho, st), dense_run(direct, st))
        assert abs(overlap) > 1 - 1e-12, policy


def test_dump_parse_round_trip(sched_cho1, layout22):
    text = dump_schedule(sched_cho1)
    assert text.endswith("\n")
    lines = text.strip("\n").split("\n")
    assert len(lines) == 98
    assert all(len(line.split("\t")) == 4 for line in lines)


def test_compile_is_deterministic(layout22, cpl1, sched_cho1):
    again = compile_step(layout22, cpl1, TAU, "choreography", 1)
    assert list(again.ops) == list(sched_cho1.ops)
    assert again.substeps == sched_cho1.substeps


# sha256 over dump_schedule and repr(substeps) of every config that compiles in
# the grid below, as emitted at commit 168fb684476c325ec96ed7d1f71534dc64e4a695
GOLDEN_SCHEDULES = (232, "441a671ba1f232022365bcb6bb20a67e35198128031349085c64a27637f0a527")


def test_emitted_schedules_match_the_golden_digest():
    """Op order, stages, parameters and substep ranges over Lx, Ly in 1..5, both
    ancilla policies, both modes, orders 1 and 2, and theta/theta' at zero and
    nonzero; the shared policy at 3x2, 4x2 and 5x2 places overflow blocks."""
    digest = hashlib.sha256()
    compiled = 0
    for lx, ly, policy, mode, order, (theta, theta_prime) in itertools.product(
            range(1, 6), range(1, 6), ("per_plaquette", "shared"), ("choreography", "direct"),
            (1, 2), ((0.0, 0.0), (0.3, 0.7))):
        try:
            layout = build_layout(LatticeGeometry(lx, ly), 3, policy)
            sched = compile_step(layout, Couplings(), TAU, mode, order,
                                 theta=theta, theta_prime=theta_prime)
        except ValueError:
            continue
        compiled += 1
        digest.update(dump_schedule(sched).encode())
        digest.update(repr(sched.substeps).encode())
    assert (compiled, digest.hexdigest()) == GOLDEN_SCHEDULES


def test_sector_slicing_matches_manual(sched_dir1, layout22):
    rng = np.random.default_rng(13)
    amp = rng.normal(size=layout22.total_dim) + 1j * rng.normal(size=layout22.total_dim)
    amp /= np.linalg.norm(amp)
    whole = dense_run(sched_dir1, amp)
    for _, lo, hi in sched_dir1.substeps:
        amp = dense_run(sched_dir1, amp, (lo, hi))
    assert np.abs(whole - amp).max() < 1e-12


def reference_execute(sched, amplitudes, op_range=None):
    """Gate-by-gate loop of the single-gate kernel over Schedule.ops."""
    lo, hi = op_range if op_range is not None else (0, len(sched.ops))
    dims = tuple(int(d) for d in sched.layout.dims)
    work = amplitudes
    for op in sched.ops[lo:hi]:
        if op.name != "idle":
            gate = gate_matrix(op.name, op.params, tuple(dims[t] for t in op.targets))
            work = run_gates((gate_group(dims, gate, op.targets),), dims, work)
    return work


@pytest.mark.parametrize("geo", [(2, 2), (3, 2)])
@pytest.mark.parametrize("mode", ["choreography", "direct"])
@pytest.mark.parametrize("order", [1, 2])
def test_fused_executor_matches_gate_loop(geo, mode, order):
    lay = build_layout(LatticeGeometry(*geo), 3)
    cpl = Couplings(lambda_e=0.8, lambda_b=1.3, lambda_gm=0.9, mass=1.1)
    sched = compile_step(lay, cpl, 0.4, mode, order, theta=0.3, theta_prime=0.7)
    rng = np.random.default_rng(21)
    amp = rng.normal(size=lay.total_dim) + 1j * rng.normal(size=lay.total_dim)
    amp /= np.linalg.norm(amp)

    # every substep slice, chained: the slices tile the step, so the chain
    # also yields the reference for the whole step
    want = amp
    for _, lo, hi in sched.substeps:
        before, want = want, reference_execute(sched, want, (lo, hi))
        assert np.abs(dense_run(sched, before, (lo, hi)) - want).max() <= 1e-12
    saved = amp.copy()
    assert np.abs(dense_run(sched, amp) - want).max() <= 1e-12
    assert np.array_equal(amp, saved)

    # the physical map (3x2 has no feasible one: 139968 columns), checked
    # on every 97th column
    if geo == (2, 2):
        cols = np.arange(0, lay.physical_dim, 97)
        got = schedule_physical_map(sched)[:, cols]
        assert np.abs(got - column_map(sched, cols)).max() <= 1e-12


@pytest.mark.parametrize("geo, n_link, policy, mode", [
    ((1, 3), 2, "per_plaquette", "direct"), ((1, 3), 4, "per_plaquette", "direct"),
    ((1, 3), 5, "per_plaquette", "direct"), ((3, 1), 2, "per_plaquette", "direct"),
    ((3, 1), 4, "per_plaquette", "direct"), ((3, 1), 5, "per_plaquette", "direct"),
    ((3, 2), 3, "shared", "choreography")])
@pytest.mark.parametrize("span", ["one", "two", "all"])
def test_sector_executor_matches_gate_loop(geo, n_link, policy, mode, span):
    """A state on one, two or every fermion number: the plan matches the
    gate-by-gate loop."""
    lay = build_layout(LatticeGeometry(*geo), n_link, ancilla_policy=policy)
    v = len(lay.geometry.vertices)
    sectors = {"one": [v // 2], "two": [0, v // 2 + 1], "all": list(range(v + 1))}[span]
    inside = np.isin(np.indices((2,) * v).reshape(v, -1).sum(axis=0), sectors)
    rng = np.random.default_rng(31)
    shape = (2 ** v, lay.total_dim >> v)
    amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amp[~inside] = 0
    amp = (amp / np.linalg.norm(amp)).ravel()
    sched = compile_step(lay, Couplings(), 0.4, mode, 1)
    want = reference_execute(sched, amp)
    saved = amp.copy()
    assert np.abs(dense_run(sched, amp) - want).max() <= 1e-12
    assert np.array_equal(amp, saved)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_plans_match_the_gate_loop_over_geometries_and_n(data):
    """A plan built by the support kernel, run densely, against the
    gate-by-gate loop on a random state: lines (direct mode only) and
    plaquette lattices, N from 2 to 5 (3 in choreography mode), drawn
    couplings and order, up to 2**21 basis states."""
    mode = data.draw(st.sampled_from(["choreography", "direct"]), "mode")
    lines = [(1, 3), (3, 1)] if mode == "direct" else []
    geo = data.draw(st.sampled_from(lines + [(2, 2), (3, 2), (2, 3)]), "geo")
    n = 3 if mode == "choreography" else data.draw(st.integers(2, 5), "N")
    lay = build_layout(LatticeGeometry(*geo), n)
    assume(lay.total_dim <= 2**21)
    couplings = st.floats(0.5, 1.5)
    cpl = Couplings(lambda_e=data.draw(couplings, "lambda_e"),
                    lambda_b=data.draw(couplings, "lambda_b"),
                    lambda_gm=data.draw(couplings, "lambda_gm"),
                    mass=data.draw(couplings, "mass"))
    sched = compile_step(lay, cpl, 0.4, mode, data.draw(st.integers(1, 2), "order"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    amp = rng.normal(size=lay.total_dim) + 1j * rng.normal(size=lay.total_dim)
    amp /= np.linalg.norm(amp)
    assert np.abs(dense_run(sched, amp) - reference_execute(sched, amp)).max() <= 1e-12


@pytest.mark.parametrize("geo", [(2, 2), (3, 2)])
@pytest.mark.parametrize("mode", ["choreography", "direct"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("policy", ["per_plaquette", "shared"])
@pytest.mark.parametrize("start", ["singlet", "sparse"])
def test_support_kernel_matches_run_gates(geo, mode, order, policy, start):
    """Two steps of the support kernel against the dense kernel on the same
    plan, from the singlet and from a random state on a twentieth of the
    basis states with the singlet's fermion number: they agree to 1e-12,
    and the dense state is within the summed dropped norm of the support."""
    lay = build_layout(LatticeGeometry(*geo), 3, ancilla_policy=policy)
    cpl = Couplings(lambda_e=0.8, lambda_b=1.3, lambda_gm=0.9, mass=1.1)
    sched = compile_step(lay, cpl, 0.4, mode, order, theta=0.3, theta_prime=0.7)
    index, values = singlet_support(lay)
    size = lay.total_dim
    if start == "sparse":
        v = len(lay.geometry.vertices)
        count = np.indices((2,) * v).reshape(v, -1).sum(axis=0)
        n = sum(not is_even(x) for x in lay.geometry.vertices)   # the singlet's odd sites
        inside = np.flatnonzero(np.repeat(count == n, size >> v))
        rng = np.random.default_rng(41)
        index = np.sort(rng.choice(inside, size=inside.size // 20, replace=False))
        values = rng.normal(size=index.size) + 1j * rng.normal(size=index.size)
        values /= np.linalg.norm(values)
    dense = np.zeros(size, dtype=np.complex128)
    dense[index] = values
    saved = index.copy(), values.copy()
    truncated = 0.0
    for _ in range(2):
        got = execute_support(sched, index, values)
        assert np.array_equal(index, saved[0]) and np.array_equal(values, saved[1])
        index, values, dropped = got
        saved = index.copy(), values.copy()
        truncated += dropped
        dense = dense_run(sched, dense)
    assert np.all(np.diff(index) > 0)
    assert np.all(np.abs(values) > lattice_module.SUPPORT_TOL)
    support = np.zeros(size, dtype=np.complex128)
    support[index] = values
    assert np.abs(support - dense).max() <= 1e-12
    assert np.linalg.norm(support - dense) <= truncated + 1e-14
    assert len(sched._plans) == 1


@pytest.mark.parametrize("bad, message", [(1.5 * np.eye(2), "unitary"),
                                          (np.eye(3), "shape")])
def test_fused_executor_still_checks_gates(layout22, cpl1, monkeypatch, bad, message):
    cached = schedule_module._cached_gate

    def faulty(name, params, dims):
        return bad if name == "mass_phase" else cached(name, params, dims)

    monkeypatch.setattr(schedule_module, "_cached_gate", faulty)
    schedule_module._member.cache_clear()   # members built from the honest gates
    sched = compile_step(layout22, cpl1, TAU, "direct", 1)
    with pytest.raises(ValueError, match=message):
        execute_support(sched, *singlet_support(layout22))


@pytest.mark.parametrize("targets, message", [("99", "out of range"), ("4,4", "repeated")])
def test_fused_executor_rejects_bad_targets(layout22, targets, message):
    op = GateOp("dft_link", tuple(int(t) for t in targets.split(",")), (), 1)
    sched = Schedule(layout22, (op,), ())
    with pytest.raises(ValueError, match=message):
        execute_support(sched, *singlet_support(layout22))


def test_substep_ranges_reject_a_split_window():
    ops = [GateOp("flip_anc", (8,), (), s) for s in (1, 2, 1)]
    assert _substep_ranges(ops[:2], (("a", 1, 1), ("b", 2, 2))) == (("a", 0, 1), ("b", 1, 2))
    with pytest.raises(ValueError, match="not contiguous"):
        _substep_ranges(ops, (("a", 1, 1),))


def dense_of(group):
    """The group's matrix in the mixed-radix basis of group.targets."""
    blocks = blocks_of(group)
    c_dim, a_dim = blocks.shape[:2]
    full = np.zeros((c_dim, a_dim, c_dim, a_dim), dtype=np.complex128)
    c = np.arange(c_dim)
    full[c, :, c, :] = blocks
    return full.reshape(c_dim * a_dim, c_dim * a_dim)


def in_order(matrix, dims, targets, order):
    """Reindex a gate on `targets` into the basis of `order`, a permutation of them."""
    tdims = [dims[t] for t in targets]
    perm = [list(targets).index(t) for t in order]
    k = len(perm)
    return matrix.reshape(tdims + tdims).transpose(perm + [k + p for p in perm]).reshape(matrix.shape)


def test_gate_group_stores_blocks_over_exact_controls(layout22):
    dims = tuple(int(d) for d in layout22.dims)
    f, link, anc = layout22.fermion_index((0, 0)), layout22.link_index(((0, 0), 1)), 8
    uw = gate_group(dims, gate_matrix("uw", (), (3, 2)), (link, f))
    assert (uw.controls, uw.active, blocks_of(uw).shape) == ((f,), (link,), (2, 3, 3))
    zz = gate_group(dims, gate_matrix("collision_zz", (COLLISION_ANGLE,), (3, 3)), (link, anc))
    assert (zz.controls, zz.active, blocks_of(zz).shape) == ((link, anc), (), (9, 1, 1))
    dft = gate_group(dims, gate_matrix("dft_link", (), (3,)), (link,))
    assert (dft.controls, dft.active) == ((), (link,)) and blocks_of(dft).shape == (1, 3, 3)


def test_blocks_rebuild_every_gate_and_group(sched_cho1, sched_dir1):
    dims = tuple(int(d) for d in sched_cho1.layout.dims)
    for sched in (sched_cho1, sched_dir1):
        for op in sched.ops:
            if op.name == "idle":
                continue
            gate = gate_matrix(op.name, op.params, tuple(dims[t] for t in op.targets))
            g = gate_group(dims, gate, op.targets)
            assert np.array_equal(dense_of(g), in_order(gate, dims, op.targets, g.targets))
        for g in schedule_module._fuse(sched.layout, sched.ops):
            again = gate_group(dims, dense_of(g), g.targets)
            assert set(g.controls) <= set(again.controls)
            assert np.array_equal(dense_of(again), in_order(dense_of(g), dims, g.targets,
                                                            again.targets))


def test_a_tiny_entry_is_not_an_exact_zero(layout22):
    dims = tuple(int(d) for d in layout22.dims)
    f, link = 0, layout22.link_index(((0, 0), 1))
    gate = gate_matrix("uw", (), (3, 2)).copy()
    gate[0, 1] = 1e-300           # couples fermion digits 0 and 1 of link digit 0
    g = gate_group(dims, gate, (link, f))
    assert g.controls == () and blocks_of(g).shape == (1, 6, 6)
    assert np.array_equal(dense_of(g), gate)
    phase = np.diag([1.0, 1j])
    phase[1, 0] = 1e-300
    assert blocks_of(gate_group(dims, phase, (f,))).shape == (1, 2, 2)


def test_a_non_unitary_block_raises(layout22):
    dims = tuple(int(d) for d in layout22.dims)
    f, link = 0, layout22.link_index(((0, 0), 1))
    blocks = blocks_of(gate_group(dims, gate_matrix("uw", (), (3, 2)), (link, f)))
    blocks[1] *= 1.5
    with pytest.raises(ValueError, match="unitary"):
        block_group(dims, (f,), (link,), blocks)
    gate = np.kron(np.diag([1.0, 1.5]), np.eye(3))
    with pytest.raises(ValueError, match="unitary"):
        gate_group(dims, gate, (f, link))
    with pytest.raises(ValueError, match="shape"):
        block_group(dims, (f,), (link,), blocks[:, :2, :2])


@pytest.mark.parametrize("mode, geo, max_groups, min_monomial, max_spread", [
    ("choreography", (2, 2), 8, 2, 11), ("choreography", (3, 2), 20, 11, 20),
    ("direct", (2, 2), 6, 2, 9), ("direct", (3, 2), 14, 3, 20)])
def test_controlled_fusion_census(cpl1, mode, geo, max_groups, min_monomial, max_spread):
    """The step's plan: its group count, its monomial groups with A > 1,
    which the support kernel runs as index maps, and the multiply-adds per
    amplitude of the others (the sum of their column widths w > 1); every
    group spans at most _FUSE_MAX_DIM**2 block entries C*A**2.  Direct
    mode's count needs uw's exact zeros."""
    lay = build_layout(LatticeGeometry(*geo), 3)
    plan = schedule_module._fuse(lay, compile_step(lay, cpl1, TAU, mode, 1).ops)
    width = [g.rows.shape[2] for g in plan]
    monomial = sum(w == 1 and g.rows.shape[1] > 1 for g, w in zip(plan, width))
    spread = sum(w for w in width if w > 1)
    assert len(plan) <= max_groups and monomial >= min_monomial and spread <= max_spread
    assert max(math.prod(g.rows.shape[:2]) * g.rows.shape[1] for g in plan) <= (
        schedule_module._FUSE_MAX_DIM ** 2)


def test_a_plan_that_cuts_a_fourier_window_raises(sched_cho1):
    """An op range ending inside a dft_anc window leaves that ancilla's
    frame open; the plan build names the register."""
    start = next(i for i, op in enumerate(sched_cho1.ops) if op.name == "dft_anc")
    anc = sched_cho1.ops[start].targets[0]
    with pytest.raises(ValueError, match=f"register {anc} in frame 1"):
        schedule_module._plan(sched_cho1, (0, start + 1))
    schedule_module._plan(sched_cho1, (0, start))


@pytest.mark.parametrize("opened, name, params", [
    ((8,), "anc_drive", (0.3,)),                  # no rule for the gate
    ((4,), "collision_zz", (0.7,)),               # none at another angle
    ((4, 8), "collision_zz", (COLLISION_ANGLE,))])  # none with both registers framed
def test_an_op_on_an_open_frame_without_a_rule_raises(layout22, opened, name, params):
    """dft ops open frames on link 4 and ancilla 8 around a gate that no
    frame rule covers there."""
    dft = {4: "dft_link", 8: "dft_anc"}
    targets = (8,) if name == "anc_drive" else (4, 8)
    ops = ([GateOp(dft[t], (t,), (), 1) for t in opened] + [GateOp(name, targets, params, 1)]
           + [GateOp(dft[t] + "_dag", (t,), (), 1) for t in opened])
    with pytest.raises(ValueError, match="no rule"):
        execute_support(Schedule(layout22, tuple(ops), ()), *singlet_support(layout22))


def test_framed_plan_never_spreads_the_support_past_the_step_end(cpl1):
    """Run group by group from the 3x2 singlet for two steps: with the dft
    sandwiches folded into frames, no group holds more entries than the
    step ends with."""
    lay = build_layout(LatticeGeometry(3, 2), 3)
    sched = compile_step(lay, cpl1, TAU, "choreography", 1)
    assert {"dft_link", "dft_anc", "collision_zz", "fermion_anc_phase"} <= {
        op.name for op in sched.ops}
    index, values = singlet_support(lay)
    for _ in range(2):
        sizes = []
        for group in schedule_module._plan(sched):
            index, values, _ = lattice_module.run_support((group,), lay.dims, index, values)
            sizes.append(index.size)
        assert max(sizes) == sizes[-1]


def column_map(sched, cols, op_range=None):
    """Columns `cols` of the physical map: the gate-by-gate loop on the basis
    columns with the ancillas in |in~>, then projected back onto it."""
    lay = sched.layout
    columns = lift(lay, np.eye(lay.physical_dim, dtype=np.complex128)[:, cols])
    return project_support(lay, np.arange(lay.total_dim),
                           reference_execute(sched, columns, op_range))[1]


def cross_sector(lay):
    """Entries of a physical map that join two different fermion numbers."""
    kinds = [r.kind for r in lay.registers if r.kind != "ancilla"]
    digits = np.indices(lay.physical_dims).reshape(len(kinds), -1)
    number = digits[[k == "fermion" for k in kinds]].sum(axis=0)
    return number[:, None] != number[None, :]


def check_packed_map(sched, op_range=None):
    """Against the gate loop on every column, or on every 97th of 2x2's 1296,
    whose gate loop costs seconds per map."""
    got = schedule_physical_map(sched, op_range)
    dim = sched.layout.physical_dim
    cols = np.arange(0, dim, 97 if dim > 1000 else 1)
    want = column_map(sched, cols, op_range)
    assert np.abs(got[:, cols] - want).max() <= 1e-14
    cross = cross_sector(sched.layout)
    assert not got[cross].any() and not want[cross[:, cols]].any()


@pytest.mark.parametrize("mode", ["choreography", "direct"])
@pytest.mark.parametrize("order", [1, 2])
def test_packed_map_matches_column_map(layout22, cpl1, monkeypatch, mode, order):
    """2x2 has k = C(4, n) * 81 physical states of fermion number n, so each
    map runs the support kernel once per n, on the k * 3 entries of their
    identity columns lifted onto the 3 ancilla states, with the columns as
    one more register of dimension k; the norm it drops over the map stays
    at rounding level."""
    sched = compile_step(layout22, cpl1, 0.4, mode, order, theta=0.3, theta_prime=0.7)
    calls = []
    run_support = schedule_module.run_support

    def spy(groups, dims, index, amplitudes, **tol):
        out = run_support(groups, dims, index, amplitudes, **tol)
        calls.append((dims, index.size, out[2]))
        return out

    monkeypatch.setattr(schedule_module, "run_support", spy)
    ks = [math.comb(4, n) * 81 for n in range(5)]
    for op_range in [None] + ([sched.substeps[1][1:]] if order == 1 else []):
        schedule_module._plan(sched, op_range)    # plan building runs the kernel too
        calls.clear()
        check_packed_map(sched, op_range)
        assert [c[:2] for c in calls] == [(tuple(layout22.dims) + (k,), 3 * k) for k in ks]
        assert sum(dropped for _, _, dropped in calls) <= 1e-12


@pytest.mark.parametrize("mode", ["choreography", "direct"])
@pytest.mark.parametrize("order", [1, 2])
def test_physical_edges_are_coalesced_and_give_the_dense_distance(layout22, cpl1, mode,
                                                                  order):
    """The edge list of the whole step and of every substep is row-major with
    strictly ascending keys and no zero value, and the Trotter distance reads
    the same value from it as from the dense map, bit for bit."""
    sched = compile_step(layout22, cpl1, TAU, mode, order)
    ev = ExactEvolver(hamiltonian_edges(layout22, TERM_NAMES, cpl1))
    for op_range in [None] + [(lo, hi) for _, lo, hi in sched.substeps]:
        edges = physical_edges(sched, op_range)
        dim, rows, cols, vals = edges
        assert dim == layout22.physical_dim
        assert (np.diff(rows * dim + cols) > 0).all()
        assert vals.all()
        dense = schedule_physical_map(sched, op_range)
        assert ev.trotter_distance(edges, 3, 3 * TAU) == ev.trotter_distance(dense, 3, 3 * TAU)


def test_map_raises_when_the_support_kernel_drops_a_real_norm(layout22, cpl1, monkeypatch):
    monkeypatch.setattr(lattice_module, "SUPPORT_TOL", 1e-3)
    with pytest.raises(RuntimeError, match="NORM_TOL"):
        schedule_physical_map(compile_step(layout22, cpl1, TAU, "direct", 1))


@pytest.mark.parametrize("geo", [(1, 3), (3, 1)])
@pytest.mark.parametrize("n", [2, 4, 5])
def test_packed_map_direct_on_a_line(cpl1, geo, n):
    lay = build_layout(LatticeGeometry(*geo), n)
    check_packed_map(compile_step(lay, cpl1, 0.4, "direct", 1))


def test_packed_map_rejects_a_gate_that_moves_a_fermion(layout22, cpl1, monkeypatch):
    cached = schedule_module._cached_gate
    sigma_x = np.array([[0, 1], [1, 0]], dtype=np.complex128)

    def faulty(name, params, dims):
        return sigma_x if name == "mass_phase" else cached(name, params, dims)

    monkeypatch.setattr(schedule_module, "_cached_gate", faulty)
    schedule_module._member.cache_clear()   # members built from the honest gates
    sched = compile_step(layout22, cpl1, TAU, "direct", 1)
    with pytest.raises(ValueError, match="fermion number"):
        schedule_physical_map(sched)
    with pytest.raises(ValueError, match="fermion number"):
        execute_support(sched, *singlet_support(layout22))
