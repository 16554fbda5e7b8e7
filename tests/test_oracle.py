"""Exact propagators, spectral-norm distances, and the analytic budgets."""

import tracemalloc

import numpy as np
import pytest

import zngauge.oracle as oracle
from conftest import dense_term, physical_singlet, taylor_expm
from zngauge.algebra import (TERM_NAMES, Couplings, as_edges, expm_from_hermitian,
                             hamiltonian_edges, total_hamiltonian)
from zngauge.oracle import (
    ExactEvolver,
    bound_validity,
    diamond_surrogate_distance,
    exact_norm_sum,
    steps_required,
    trace_phase,
    trotter_bound,
)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def test_evolver_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ExactEvolver(np.ones((3, 4)))
    with pytest.raises(ValueError):
        ExactEvolver(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))


def test_evolver_dim_cap(monkeypatch):
    monkeypatch.setattr(oracle, "ORACLE_DIM_LIMIT", 8)
    with pytest.raises(ValueError, match="exceeds"):
        ExactEvolver(np.eye(9))
    ExactEvolver(np.eye(8))


def test_evolver_checks_hermiticity_on_edges():
    h = random_hermitian(6, np.random.default_rng(5))
    h[0, 5] = h[5, 0] = 0.0
    dim, rows, cols, vals = as_edges(h)
    # an entry at (0, 5) with nothing at (5, 0)
    one_sided = (dim, np.append(rows, 0), np.append(cols, 5), np.append(vals, 1e-9))
    with pytest.raises(ValueError, match="not Hermitian"):
        ExactEvolver(one_sided)
    nudged = vals.copy()
    nudged[0] += 1e-11
    ExactEvolver((dim, rows, cols, nudged))


def test_evolver_dim_cap_allocates_nothing_of_size_dim_squared():
    dim = oracle.ORACLE_DIM_LIMIT + 1
    empty = np.zeros(0, dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds"):
            ExactEvolver((dim, empty, empty, np.zeros(0, dtype=complex)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dim * 16      # one complex row, against dim**2 * 16 bytes for the matrix


def test_propagator_against_taylor():
    rng = np.random.default_rng(1)
    h = random_hermitian(9, rng)
    ev = ExactEvolver(h)
    for t in (0.0, 0.37, -1.2):
        assert np.abs(ev.propagator(t) - taylor_expm(-1j * t * h)).max() < 1e-11
    amp = rng.normal(size=9) + 1j * rng.normal(size=9)
    np.testing.assert_allclose(ev.evolve(0.37, amp), ev.propagator(0.37) @ amp, atol=1e-12)


def test_energy_is_conserved(layout22, cpl1):
    h = total_hamiltonian(layout22, cpl1)
    ev = ExactEvolver(h)
    phys = physical_singlet(layout22)
    e0 = np.vdot(phys, h @ phys).real
    out = ev.evolve(2.3, phys)
    e1 = np.vdot(out, h @ out).real
    assert e1 == pytest.approx(e0, abs=1e-10)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_evolver_matches_dense_eigh_on_the_2x2_hamiltonian(layout22):
    cpl = Couplings(0.7, 1.3, 0.9, 1.1)
    h = total_hamiltonian(layout22, cpl)
    ev = ExactEvolver(hamiltonian_edges(layout22, TERM_NAMES, cpl))
    # every block lies inside one joint Gauss sector; the largest is the
    # 18-dimensional gauge-invariant one
    assert max(idx.shape[1] for idx, _, _ in ev.blocks) <= 18
    assert sum(idx.size for idx, _, _ in ev.blocks) == layout22.physical_dim
    w, v = np.linalg.eigh(h)
    rng = np.random.default_rng(4)
    amp = rng.normal(size=(h.shape[0], 3)) + 1j * rng.normal(size=(h.shape[0], 3))
    for t in (0.0, 0.8, -1.7):
        want = (v * np.exp(-1j * w * t)) @ v.conj().T
        assert np.abs(ev.propagator(t) - want).max() < 1e-12
        assert np.abs(ev.evolve(t, amp) - want @ amp).max() < 1e-12
        assert np.abs(ev.evolve(t, amp[:, 0]) - want @ amp[:, 0]).max() < 1e-12


def test_norm_sum_and_term_exponential_match_dense_forms(layout22):
    cpl = Couplings(0.7, 1.3, 0.9, 1.1)
    terms = {name: dense_term(layout22, name, cpl) for name in TERM_NAMES}
    dense = sum(float(np.abs(np.linalg.eigvalsh(m)).max()) for m in terms.values())
    assert abs(exact_norm_sum(layout22, cpl) - dense) < 1e-12
    h = terms["GM_eh"] + terms["Be"]
    w, v = np.linalg.eigh(h)
    want = (v * np.exp(-0.6j * w)) @ v.conj().T
    assert np.abs(expm_from_hermitian(h, -0.6j) - want).max() < 1e-12


def test_spectral_norm_against_svd():
    """diamond_surrogate_distance(m, 0) is the largest singular value of m."""
    rng = np.random.default_rng(2)
    for dim in (5, 40, 120):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert diamond_surrogate_distance(m, np.zeros_like(m), dim) == pytest.approx(want, rel=1e-4)
    assert diamond_surrogate_distance(np.zeros((10, 10)), np.zeros((10, 10)), 10) == 0.0
    # rank-1 case has an exact answer
    u = rng.normal(size=12)
    v = rng.normal(size=12)
    m = np.outer(u, v)
    want = np.linalg.norm(u) * np.linalg.norm(v)
    assert diamond_surrogate_distance(m, np.zeros_like(m), 12) == pytest.approx(want, rel=1e-6)


def test_spectral_norm_is_exact_where_an_early_stop_under_reports(layout22, cpl1):
    """2x2, direct, order 1, T = 5, M = 4: an iteration stopping once successive
    estimates agreed to 1e-6 returned 1.99962 here, against an exact 1.9999997.
    The Trotter distance the drivers print must give the exact value."""
    from zngauge.schedule import compile_step, schedule_physical_map

    ev = ExactEvolver(total_hamiltonian(layout22, cpl1))
    step = schedule_physical_map(compile_step(layout22, cpl1, 5.0 / 4, "direct", 1))
    diff = np.linalg.matrix_power(step, 4) - ev.propagator(5.0)
    want = np.linalg.svd(diff, compute_uv=False)[0]
    assert ev.trotter_distance(step, 4, 5.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("mode", ["choreography", "direct"])
@pytest.mark.parametrize("order", [1, 2])
def test_trotter_distance_matches_the_dense_norm(layout22, mode, order):
    from zngauge.schedule import compile_step, schedule_physical_map

    cpl = Couplings(0.7, 1.3, 0.9, 1.1)
    ev = ExactEvolver(total_hamiltonian(layout22, cpl))
    step = schedule_physical_map(compile_step(layout22, cpl, 1.0 / 4, mode, order))
    want = np.linalg.norm(np.linalg.matrix_power(step, 4) - ev.propagator(1.0), 2)
    assert abs(ev.trotter_distance(step, 4, 1.0) - want) < 1e-12


def test_trotter_distance_rejects_a_step_that_couples_blocks(layout22, cpl1):
    ev = ExactEvolver(total_hamiltonian(layout22, cpl1))
    step = ev.propagator(0.3)
    assert ev.trotter_distance(step, 3, 0.9) < 1e-12
    # one entry linking the first row of the smallest and of the largest block
    i = ev.blocks[0][0][0, 0]
    j = ev.blocks[-1][0][0, 0]
    step[i, j] = 1e-9
    with pytest.raises(RuntimeError, match="couples blocks"):
        ev.trotter_distance(step, 3, 0.9)


def test_distance_metrics():
    rng = np.random.default_rng(3)
    a = random_hermitian(10, rng)
    b = random_hermitian(10, rng)
    d = diamond_surrogate_distance(a, b, 10)
    assert d == pytest.approx(np.linalg.norm(a - b, 2), rel=1e-4)
    with pytest.raises(ValueError):
        diamond_surrogate_distance(a, np.eye(4), 10)
    u = taylor_expm(-1j * 0.4 * a)
    assert abs(trace_phase(np.exp(0.9j) * u, u) - np.exp(0.9j)) < 1e-12
    assert trace_phase(np.zeros((10, 10)), u) == 1.0
    assert diamond_surrogate_distance(u, np.exp(0.9j) * u, 10) > 0.5


def test_one_step_error_scales_quadratically(layout22, cpl1):
    """A single first-order step deviates from the exact propagator at
    O(tau^2): halving tau quarters the distance (within 10%)."""
    from zngauge.schedule import compile_step, schedule_physical_map

    h = total_hamiltonian(layout22, cpl1)
    ev = ExactEvolver(h)
    dist = {}
    for tau in (0.08, 0.04):
        u = schedule_physical_map(compile_step(layout22, cpl1, tau, "direct", 1))
        dist[tau] = ev.trotter_distance(u, 1, tau)
    ratio = dist[0.08] / dist[0.04]
    assert abs(ratio - 4.0) < 0.4


def test_trotter_bound_frozen_values():
    assert trotter_bound(1, 2, 1.0, 1.0, 10) == pytest.approx(72.0)
    assert trotter_bound(2, 2, 1.0, 1.0, 10) == pytest.approx(38.4)
    assert trotter_bound(1, 2, 1.0, 1.0, 20) == pytest.approx(36.0)
    with pytest.raises(ValueError):
        trotter_bound(3, 2, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        trotter_bound(1, 2, -1.0, 1.0, 10)


def test_steps_required_frozen_values():
    assert steps_required(1, 2, 1.0, 1.0, 0.1) == 7200
    assert steps_required(2, 2, 1.0, 1.0, 0.1) == 1518
    assert steps_required(2, 2, 1.0, 1.0, 0.002) == 10734
    with pytest.raises(ValueError):
        steps_required(1, 2, 1.0, 1.0, 0.0)
    # the returned count meets the budget; for order 1 it is exactly minimal,
    # for order 2 the printed closed form is deliberately conservative
    for order, eps in ((1, 0.1), (2, 0.1), (2, 0.002)):
        m = steps_required(order, 2, 1.0, 1.0, eps)
        assert trotter_bound(order, 2, 1.0, 1.0, m) <= eps
    m1 = steps_required(1, 2, 1.0, 1.0, 0.1)
    assert trotter_bound(1, 2, 1.0, 1.0, m1 - 1) > 0.1


def test_norm_sums(layout22, cpl1):
    exact = exact_norm_sum(layout22, cpl1)
    assert exact == pytest.approx(16.0, abs=1e-9)
    assert bound_validity(1.0, 32, exact)
    assert not bound_validity(1.0, 10, exact)
