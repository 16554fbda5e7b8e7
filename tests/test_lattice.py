"""Geometry, register layout, gate kernels, and the reads of a state."""


import numpy as np
import pytest

from conftest import build_global_singlet, dense_weights, embed_on, random_unitary
from zngauge.lattice import (
    LatticeGeometry,
    born_sample,
    build_layout,
    check_normalized,
    gate_group,
    is_even,
    marginals,
    project_support,
    run_gates,
)


def test_vertex_and_link_counts_2x2():
    geo = LatticeGeometry(2, 2)
    assert geo.vertices == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert len(geo.links) == 4
    assert geo.plaquettes == [(0, 0)]


def test_vertex_and_link_counts_3x2():
    geo = LatticeGeometry(3, 2)
    assert len(geo.vertices) == 6
    # open boundaries: 4 horizontal + 3 vertical links, two plaquettes
    assert len(geo.links) == 7
    assert geo.plaquettes == [(0, 0), (1, 0)]


def test_link_heads_and_existence():
    geo = LatticeGeometry(3, 2)
    assert geo.link_head(((0, 0), 1)) == (1, 0)
    assert geo.link_head(((1, 1), 2)) == (1, 2)
    assert geo.link_exists(((2, 0), 2))
    assert not geo.link_exists(((2, 0), 1))  # would leave the lattice
    assert not geo.link_exists(((0, 2), 2))


def test_plaquette_links_counterclockwise():
    geo = LatticeGeometry(3, 3)
    entries = geo.plaquette_links((1, 1))
    assert entries == [
        (((1, 1), 1), +1),
        (((2, 1), 2), +1),
        (((1, 2), 1), -1),
        (((1, 1), 2), -1),
    ]
    # every listed link actually exists
    for link, sign in entries:
        assert geo.link_exists(link)
        assert sign in (+1, -1)


def test_link_classes_by_tail_parity():
    geo = LatticeGeometry(2, 2)
    assert is_even((0, 0)) and not is_even((0, 1))
    assert geo.link_class(((0, 0), 1)) == "eh"
    assert geo.link_class(((0, 1), 1)) == "oh"
    assert geo.link_class(((0, 0), 2)) == "ev"
    assert geo.link_class(((1, 0), 2)) == "ov"


def test_layout_register_ordering(layout22):
    kinds = [r.kind for r in layout22.registers]
    assert kinds == ["fermion"] * 4 + ["link"] * 4 + ["ancilla"]
    assert list(layout22.dims) == [2, 2, 2, 2, 3, 3, 3, 3, 3]
    assert layout22.total_dim == 3888
    assert layout22.physical_dim == 1296
    # links appear in sorted order
    link_keys = [r.site for r in layout22.registers if r.kind == "link"]
    assert link_keys == sorted(link_keys)
    assert layout22.ancilla_indices() == [8]


def test_layout_is_deterministic():
    a = build_layout(LatticeGeometry(3, 2), 3)
    b = build_layout(LatticeGeometry(3, 2), 3)
    assert a.registers == b.registers
    assert list(a.dims) == list(b.dims)


@pytest.mark.parametrize("L", [4, 8])
def test_layout_dimensions_are_exact_beyond_int64(L):
    layout = build_layout(LatticeGeometry(L, L), 3)
    total = physical = 1
    for r in layout.registers:
        total *= r.dim
        if r.kind != "ancilla":
            physical *= r.dim
    assert layout.total_dim == total
    assert layout.physical_dim == physical


def test_layout_lookup_roundtrip(layout22):
    for i, reg in enumerate(layout22.registers):
        assert layout22.index_of(reg.kind, reg.site) == i
    assert layout22.fermion_index((1, 1)) == 3
    assert layout22.link_index(((0, 0), 1)) == 4


def test_layout_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_layout(LatticeGeometry(2, 2), 1)
    with pytest.raises(ValueError):
        build_layout(LatticeGeometry(2, 2), 3, ancilla_policy="bogus")


def test_shared_policy_needs_even_neighbor_to_the_left():
    # a 2x3 lattice stacks plaquettes vertically; the odd one has no even
    # partner in its own row, so the shared-ancilla policy must refuse
    with pytest.raises(ValueError, match="shared ancilla policy"):
        build_layout(LatticeGeometry(2, 3), 3, ancilla_policy="shared")
    lay = build_layout(LatticeGeometry(3, 2), 3, ancilla_policy="shared")
    assert len(lay.ancilla_indices()) == 1


def test_check_normalized_rejects_unnormalized(layout22):
    amp = np.zeros(layout22.total_dim, dtype=complex)
    amp[0] = 0.5
    with pytest.raises(ValueError, match="not normalized"):
        check_normalized(amp)
    amp[0] = 1.0
    check_normalized(amp)


def test_basis_state_digit_placement(layout22):
    """born_sample reads a basis state's flat index back as its register digits."""
    amp = np.zeros(layout22.dims, dtype=complex)
    amp[1, 0, 0, 0, 2, 0, 0, 0, 0] = 1.0
    digits = born_sample(layout22, *np.nonzero(amp.reshape(-1)), np.ones(1),
                         np.random.default_rng(0), 3)
    assert np.array_equal(digits, [[1, 0, 0, 0, 2, 0, 0, 0, 0]] * 3)


def test_global_singlet_structure(layout22):
    st = build_global_singlet(layout22)
    amp = st.reshape(layout22.dims)
    # odd vertices (0,1) and (1,0) occupied, links all |0>, ancilla uniform
    expected = np.zeros(layout22.dims, dtype=complex)
    expected[0, 1, 1, 0, 0, 0, 0, 0, :] = 1.0 / np.sqrt(3)
    np.testing.assert_allclose(amp, expected, atol=1e-15)
    _, projected = project_support(layout22, np.arange(layout22.total_dim), st)
    assert np.linalg.norm(projected) == pytest.approx(1.0, abs=1e-12)


def _singlet_by_register_sweep(layout):
    """Reference singlet: a 1 at digit 0, moved to digit 1 along each odd
    fermion axis, then every ancilla axis summed and spread uniformly."""
    dims = layout.dims
    amp = np.zeros(layout.total_dim, dtype=np.complex128)
    amp[0] = 1.0
    amp = amp.reshape(dims)
    for i, r in enumerate(layout.registers):
        if r.kind == "fermion" and not is_even(r.site):
            amp = np.roll(amp, 1, axis=i)
        elif r.kind == "ancilla":
            uniform = np.ones(r.dim) / np.sqrt(r.dim)
            shape = [1] * len(dims)
            shape[i] = r.dim
            amp = amp.sum(axis=i, keepdims=True) * uniform.reshape(shape)
    return amp.reshape(-1)


def _projected_by_register_sweep(amplitudes, layout):
    """Reference ancilla projection: contract each ancilla axis with the
    uniform state in turn, from the last; the physical amplitudes."""
    amp = amplitudes.reshape(layout.dims)
    for i in reversed(layout.ancilla_indices()):
        d = layout.registers[i].dim
        amp = np.tensordot(amp, np.ones(d) / np.sqrt(d), axes=([i], [0]))
    return amp.reshape(-1)


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (3, 2)])
def test_singlet_and_restoration_match_the_register_sweeps(shape):
    lay = build_layout(LatticeGeometry(*shape), 3)
    singlet = build_global_singlet(lay)
    sweep = _singlet_by_register_sweep(lay)
    # the singlet spreads 1/sqrt(A) over the A joint ancilla values, the sweep
    # 1/sqrt(d) per ancilla: the same support, and values a rounding apart
    assert np.array_equal(singlet != 0, sweep != 0)
    np.testing.assert_allclose(singlet, sweep, rtol=1e-15, atol=0)
    rng = np.random.default_rng(11)
    amp = rng.normal(size=lay.total_dim) + 1j * rng.normal(size=lay.total_dim)
    amp /= np.linalg.norm(amp)
    index = np.arange(lay.total_dim)
    want = _projected_by_register_sweep(amp, lay)
    np.testing.assert_allclose(project_support(lay, index, amp)[1], want, rtol=0, atol=1e-15)
    assert abs(np.linalg.norm(project_support(lay, index, singlet)[1]) - 1.0) < 1e-14


def test_marginals_reject_an_ancilla_register(layout22):
    index, weights = dense_weights(build_global_singlet(layout22))
    (fermions,) = marginals(layout22, index, weights, [[3, 0]])
    assert fermions.shape == (2, 2) and fermions[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="physical registers"):
        marginals(layout22, index, weights, [[0, layout22.ancilla_indices()[0]]])


def test_apply_gate_matches_brute_force_embedding():
    lay = build_layout(LatticeGeometry(1, 2), 3)  # dims (2, 2, 3), no plaquette
    rng = np.random.default_rng(3)
    gate = random_unitary(6, rng)
    targets = [2, 0]  # link register first, then a fermion: order matters
    amp = rng.normal(size=12) + 1j * rng.normal(size=12)
    amp /= np.linalg.norm(amp)
    dims = tuple(int(d) for d in lay.dims)
    out = run_gates((gate_group(dims, gate, targets),), dims, amp)
    oracle = embed_on(gate, targets, lay.dims) @ amp
    np.testing.assert_allclose(out, oracle, atol=1e-13)


def test_apply_gate_three_registers_brute_force():
    lay = build_layout(LatticeGeometry(1, 3), 3)  # dims (2, 2, 2, 3, 3)
    rng = np.random.default_rng(4)
    gate = random_unitary(12, rng)
    targets = [3, 0, 2]
    amp = rng.normal(size=lay.total_dim) + 1j * rng.normal(size=lay.total_dim)
    amp /= np.linalg.norm(amp)
    dims = tuple(int(d) for d in lay.dims)
    out = run_gates((gate_group(dims, gate, targets),), dims, amp)
    oracle = embed_on(gate, targets, lay.dims) @ amp
    np.testing.assert_allclose(out, oracle, atol=1e-13)


def test_apply_gate_error_paths(layout22):
    amp = build_global_singlet(layout22)
    dims = tuple(int(d) for d in layout22.dims)
    with pytest.raises(ValueError, match="unitary"):
        run_gates((gate_group(dims, np.ones((3, 3)), [4]),), dims, amp)
    with pytest.raises(ValueError):
        run_gates((gate_group(dims, np.eye(9), [4, 4]),), dims, amp)
    with pytest.raises(ValueError):
        run_gates((gate_group(dims, np.eye(3), [9]),), dims, amp)


@pytest.mark.parametrize("shape, policy, n", [((2, 2), "per_plaquette", 1),
                                              ((3, 2), "shared", 3)])
def test_sector_reads_match_the_scattered_state(shape, policy, n):
    """A state of fixed fermion number n, given on a sparse support of
    full-space indices, gives the same marginals, samples and projected
    amplitudes as the full state it scatters into; the marginals also from
    a shuffled support."""
    lay = build_layout(LatticeGeometry(*shape), 3, policy)
    v = len(lay.geometry.vertices)
    counts = np.indices((2,) * v).reshape(v, -1).sum(axis=0)
    inside = np.flatnonzero(np.repeat(counts == n, lay.total_dim >> v))
    rng = np.random.default_rng(23)
    where = np.sort(rng.choice(inside, size=inside.size // 3, replace=False))
    values = rng.normal(size=where.size) + 1j * rng.normal(size=where.size)
    values /= np.linalg.norm(values)
    full = np.zeros(lay.total_dim, dtype=np.complex128)
    full[where] = values
    supports = [range(v), [v, v + 2, v + 3], [0, v + 1, v - 1]]
    want = marginals(lay, *dense_weights(full), supports)
    shuffled = rng.permutation(where.size)
    for at, weights in ((where, np.abs(values) ** 2),
                        (where[shuffled], np.abs(values[shuffled]) ** 2)):
        for got, ref in zip(marginals(lay, at, weights, supports), want):
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)
    sample = born_sample(lay, where, values, np.random.default_rng(5), 500)
    dense_sample = born_sample(lay, np.arange(full.size), full, np.random.default_rng(5), 500)
    assert np.array_equal(sample, dense_sample)
    physical, projected = project_support(lay, where, values)
    dense = np.zeros(lay.physical_dim, dtype=np.complex128)
    dense[physical] = projected
    want = _projected_by_register_sweep(full, lay)
    np.testing.assert_allclose(dense, want, rtol=0, atol=1e-15)
    assert abs(np.linalg.norm(projected) - np.linalg.norm(want)) < 1e-15


def test_fidelity_up_to_phase(layout22):
    st = build_global_singlet(layout22)
    assert abs(np.vdot(st, np.exp(0.7j) * st)) == pytest.approx(1.0, abs=1e-14)


def test_born_sample_statistics():
    lay = build_layout(LatticeGeometry(1, 2), 3)
    index = np.arange(3)        # fermions empty, link uniform over its 3 states
    amp = np.full(3, 1.0 / np.sqrt(3), dtype=complex)
    shots = 3000
    digits = born_sample(lay, index, amp, np.random.default_rng(11), shots)
    assert digits.shape == (shots, 3)
    assert np.all(digits[:, :2] == 0)
    freqs = np.bincount(digits[:, 2], minlength=3) / shots
    # 4 sigma band around the uniform probability
    assert np.abs(freqs - 1.0 / 3.0).max() < 0.0344
    # same seed, same draw
    again = born_sample(lay, index, amp, np.random.default_rng(11), shots)
    assert np.array_equal(digits, again)
    with pytest.raises(ValueError):
        born_sample(lay, index, amp, np.random.default_rng(0), 0)
