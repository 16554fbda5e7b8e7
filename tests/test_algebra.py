"""Clock/shift algebra, fermion operators, Gauss law, and Hamiltonian terms."""

import numpy as np
import pytest

import zngauge.algebra as algebra_module
from conftest import (apply_factors, brute_force_term, build_global_singlet, dense_term,
                      dense_weights, embed_physical, physical_singlet, taylor_expm, term_support)
from zngauge.algebra import (
    TERM_NAMES,
    Couplings,
    as_edges,
    electric_single_link,
    expm_from_hermitian,
    fermion_op,
    gauss_expectations,
    gauss_law_operator,
    hamiltonian_edges,
    hermitian_blocks,
    hopping_factors,
    make_link_algebra,
    monomial_map,
    project_gauge_invariant,
    random_gauge_invariant_physical,
    symmetric_representatives,
    term_factor_maps,
    total_hamiltonian,
)
from zngauge.lattice import LatticeGeometry, build_layout


def test_symmetric_representatives_frozen():
    assert symmetric_representatives(2).tolist() == [0, 1]
    assert symmetric_representatives(3).tolist() == [0, 1, -1]
    assert symmetric_representatives(4).tolist() == [0, 1, 2, -1]
    assert symmetric_representatives(5).tolist() == [0, 1, 2, -2, -1]


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_clock_shift_closure(N):
    alg = make_link_algebra(N)
    eye = np.eye(N)
    omega = np.exp(2j * np.pi / N)
    assert np.abs(np.linalg.matrix_power(alg.p, N) - eye).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(alg.q, N) - eye).max() < 1e-12
    assert np.abs(alg.p @ alg.q @ alg.p.conj().T - omega * alg.q).max() < 1e-12
    assert np.abs(alg.dft.conj().T @ alg.p @ alg.dft - alg.q).max() < 1e-12
    assert np.abs(alg.dft @ alg.dft.conj().T - eye).max() < 1e-13


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_logarithm_branches_exponentiate_back(N):
    alg = make_link_algebra(N)
    # oracle: plain Taylor series, no shared code with the package routine
    assert np.abs(taylor_expm(alg.log_p) - alg.p).max() < 1e-12
    log_q = alg.dft.conj().T @ alg.log_p @ alg.dft
    assert np.abs(taylor_expm(log_q) - alg.q).max() < 1e-12
    # the branch is the balanced one
    eigs = np.sort(np.diag(alg.log_p).imag / (2 * np.pi / N))
    assert np.array_equal(eigs, np.sort(symmetric_representatives(N)))


def test_three_level_closed_form_logarithm(alg3):
    closed = (2 * np.pi / (3 * np.sqrt(3))) * (alg3.p - alg3.p.conj().T)
    assert np.abs(alg3.log_p - closed).max() < 1e-14


def test_make_link_algebra_rejects_small_n():
    with pytest.raises(ValueError):
        make_link_algebra(1)


def test_expm_from_hermitian_against_taylor():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    h = a + a.conj().T
    for scale in (-1j, -0.35j, 1.0):
        assert np.abs(expm_from_hermitian(h, scale) - taylor_expm(scale * h)).max() < 1e-11
    with pytest.raises(ValueError):
        expm_from_hermitian(a)


def _planted_blocks(sizes, rng):
    """Random Hermitian matrix with dense blocks of the given sizes, rows
    and columns permuted; returns it with the planted index sets."""
    n = sum(sizes)
    h = np.zeros((n, n), dtype=np.complex128)
    start = 0
    for s in sizes:
        a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        h[start:start + s, start:start + s] = a + a.conj().T
        start += s
    perm = rng.permutation(n)
    h = h[np.ix_(perm, perm)]
    inv = np.argsort(perm)
    ends = np.cumsum(sizes)
    planted = {tuple(sorted(inv[e - s:e])) for s, e in zip(sizes, ends)}
    return h, planted


@pytest.mark.parametrize("case", ["planted", "zero", "diagonal", "one_dense_block"])
def test_hermitian_blocks_match_dense_eigh(case):
    rng = np.random.default_rng(21)
    if case == "planted":
        h, planted = _planted_blocks([1, 3, 1, 6, 2, 1, 4, 6, 2, 1], rng)
    elif case == "zero":
        h, planted = np.zeros((7, 7), dtype=complex), {(i,) for i in range(7)}
    elif case == "diagonal":
        h, planted = np.diag(rng.normal(size=9)).astype(complex), {(i,) for i in range(9)}
    else:
        h, planted = _planted_blocks([12], rng)
    n = h.shape[0]
    blocks = hermitian_blocks(h)
    found = {tuple(row) for idx, _, _ in blocks for row in idx.tolist()}
    assert found == planted
    assert sum(idx.size for idx, _, _ in blocks) == n
    sizes = [idx.shape[1] for idx, _, _ in blocks]
    assert sizes == sorted(set(sizes))
    energies = np.sort(np.concatenate([w.ravel() for _, w, _ in blocks]))
    np.testing.assert_allclose(energies, np.linalg.eigvalsh(h), rtol=0, atol=1e-12)
    rebuilt = np.zeros_like(h)
    for idx, w, v in blocks:
        block = (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
        rebuilt[idx[:, :, None], idx[:, None, :]] = block
    np.testing.assert_allclose(rebuilt, h, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        hermitian_blocks(np.ones((3, 4)))


def _shuffled_edges(h, rng):
    """h's nonzero entries as a shuffled edge list, each split into two duplicates."""
    dim, rows, cols, vals = as_edges(h)
    part = rng.uniform(0.2, 0.8, size=vals.size) * vals
    rows, cols = np.tile(rows, 2), np.tile(cols, 2)
    vals = np.concatenate([part, vals - part])
    perm = rng.permutation(vals.size)
    return dim, rows[perm], cols[perm], vals[perm]


def test_hermitian_blocks_from_shuffled_duplicated_edges():
    rng = np.random.default_rng(22)
    h, planted = _planted_blocks([1, 3, 1, 6, 2, 1, 4, 6, 2, 1], rng)
    blocks = hermitian_blocks(_shuffled_edges(h, rng))
    assert {tuple(row) for idx, _, _ in blocks for row in idx.tolist()} == planted
    energies = np.sort(np.concatenate([w.ravel() for _, w, _ in blocks]))
    np.testing.assert_allclose(energies, np.linalg.eigvalsh(h), rtol=0, atol=1e-12)
    for idx, w, v in blocks:
        rebuilt = (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
        np.testing.assert_allclose(rebuilt, h[idx[:, :, None], idx[:, None, :]],
                                   rtol=0, atol=1e-12)


def test_hermitian_blocks_drop_entries_that_cancel_exactly():
    # (0, 2) and (2, 0) sum to an exact zero, so {0, 1} and {2, 3} stay apart
    rows = np.array([0, 1, 0, 2, 3, 2, 0, 2])
    cols = np.array([1, 0, 2, 0, 2, 3, 2, 0])
    vals = np.array([0.5, 0.5, 0.25, 0.25, 2.0, 2.0, -0.25, -0.25], dtype=complex)
    blocks = hermitian_blocks((4, rows, cols, vals))
    assert len(blocks) == 1
    idx, w, _ = blocks[0]
    assert idx.tolist() == [[0, 1], [2, 3]]
    np.testing.assert_allclose(w, [[-0.5, 0.5], [-2.0, 2.0]], rtol=0, atol=1e-15)


def test_hermitian_blocks_of_an_empty_edge_list():
    empty = np.zeros(0, dtype=np.int64)
    blocks = hermitian_blocks((5, empty, empty, np.zeros(0, dtype=complex)))
    assert len(blocks) == 1
    idx, w, v = blocks[0]
    assert idx.tolist() == [[0], [1], [2], [3], [4]]
    assert np.array_equal(w, np.zeros((5, 1)))
    assert np.array_equal(v, np.ones((5, 1, 1)))


@pytest.mark.parametrize("names", [TERM_NAMES] + [(n,) for n in TERM_NAMES])
def test_hamiltonian_edges_give_the_dense_route_blocks_bit_for_bit(layout22, names):
    cpl = Couplings(0.7, 1.3, 0.9, 1.1)
    edges = hamiltonian_edges(layout22, names, cpl)
    dense = total_hamiltonian(layout22, cpl) if len(names) > 1 else dense_term(
        layout22, names[0], cpl)
    dim, rows, cols, vals = edges
    assert dim == layout22.physical_dim
    assert np.all(vals != 0)
    assert np.array_equal(rows * dim + cols, np.flatnonzero(dense))
    assert np.array_equal(vals, dense[rows, cols])
    got, want = hermitian_blocks(edges), hermitian_blocks(dense)
    assert len(got) == len(want)
    inside = np.zeros(dense.shape, dtype=bool)
    for (idx, w, v), (idx2, w2, v2) in zip(got, want):
        assert np.array_equal(idx, idx2) and np.array_equal(w, w2) and np.array_equal(v, v2)
        # the same stack a dense gather gives, diagonalized bit for bit
        cut = (idx[:, :, None], idx[:, None, :])
        w3, v3 = np.linalg.eigh(dense[cut])
        assert np.array_equal(w, w3) and np.array_equal(v, v3)
        inside[cut] = True
    assert not dense[~inside].any()


def test_fermion_anticommutation():
    lay = build_layout(LatticeGeometry(1, 3), 3)  # three modes, JW string order
    dense = {}
    for v in lay.geometry.vertices:
        dense[v, "c"] = embed_physical(lay, fermion_op(lay, v, "annihilate"))
        dense[v, "cd"] = embed_physical(lay, fermion_op(lay, v, "create"))
    eye = np.eye(lay.physical_dim)
    for v in lay.geometry.vertices:
        for w in lay.geometry.vertices:
            anti = dense[v, "c"] @ dense[w, "cd"] + dense[w, "cd"] @ dense[v, "c"]
            expect = eye if v == w else 0.0 * eye
            assert np.abs(anti - expect).max() < 1e-13
            both = dense[v, "c"] @ dense[w, "c"] + dense[w, "c"] @ dense[v, "c"]
            assert np.abs(both).max() < 1e-13
    with pytest.raises(ValueError):
        fermion_op(lay, (0, 0), "destroy")


def test_hopping_factor_contents(layout22):
    link = ((0, 0), 1)
    f = hopping_factors(layout22, link)
    assert layout22.link_index(link) in f
    with pytest.raises(KeyError):
        hopping_factors(layout22, ((1, 1), 1))


@pytest.mark.parametrize("shape, N", [((1, 3), 3), ((3, 1), 5), ((2, 2), 2), ((2, 2), 3)])
def test_monomial_map_matches_the_kron_embedding(shape, N):
    """Every factor map of the model, scattered from its index map, equals its kron embedding."""
    layout = build_layout(LatticeGeometry(*shape), N)
    dims = layout.physical_dims
    maps = [f for name in TERM_NAMES for variant in ("group", "z3-implementation")
            for f in term_factor_maps(layout, name, variant)]
    for v in layout.geometry.vertices:
        maps += [gauss_law_operator(layout, v), fermion_op(layout, v, "create"),
                 fermion_op(layout, v, "annihilate")]
    cols = np.arange(layout.physical_dim)
    for factors in maps:
        target, amplitude = monomial_map(dims, factors)
        scattered = np.zeros((cols.size, cols.size), dtype=np.complex128)
        scattered[target, cols] = amplitude
        assert np.array_equal(scattered, embed_physical(layout, factors)), factors
    with pytest.raises(ValueError, match="not monomial"):
        monomial_map(dims, {0: np.ones((2, 2))})


def test_gauss_operator_order_three(layout22):
    for v in layout22.geometry.vertices:
        theta = embed_physical(layout22, gauss_law_operator(layout22, v))
        cubed = np.linalg.matrix_power(theta, 3)
        assert np.abs(cubed - np.eye(layout22.physical_dim)).max() < 1e-12
    with pytest.raises(KeyError):
        gauss_law_operator(layout22, (7, 7))


def test_singlet_is_gauge_invariant(layout22):
    st = build_global_singlet(layout22)
    for v, val in gauss_expectations(layout22, *dense_weights(st)).items():
        assert abs(val - 1.0) < 1e-12, v


def test_meson_state_is_gauge_invariant(layout22):
    """Flip one link and move the matching charge: still a Gauss eigenstate."""
    st = build_global_singlet(layout22)
    flip = np.array([[0, 1], [1, 0]], complex)
    st = apply_factors(layout22, st, {layout22.fermion_index((0, 1)): flip})
    st = apply_factors(layout22, st, {layout22.fermion_index((0, 0)): flip})
    alg = make_link_algebra(3)
    st = apply_factors(layout22, st, {layout22.link_index(((0, 0), 2)): alg.q})
    for v, val in gauss_expectations(layout22, *dense_weights(st)).items():
        assert abs(val - 1.0) < 1e-12, v


def test_gauge_projector_is_idempotent(layout22):
    rng = np.random.default_rng(5)
    raw = rng.normal(size=layout22.physical_dim) + 1j * rng.normal(size=layout22.physical_dim)
    once = project_gauge_invariant(layout22, raw)
    twice = project_gauge_invariant(layout22, once)
    np.testing.assert_allclose(once, twice, atol=1e-11)
    inv = random_gauge_invariant_physical(layout22, rng)
    assert np.linalg.norm(inv) == pytest.approx(1.0, abs=1e-12)
    # read at the full-space indices of ancilla digit 0
    index = np.arange(layout22.physical_dim) * layout22.ancilla_dim
    for val in gauss_expectations(layout22, index, np.abs(inv) ** 2).values():
        assert abs(val - 1.0) < 1e-10


def test_gauge_projector_matches_the_dense_product(layout22):
    """project_gauge_invariant equals prod_v (sum_k Theta(v)^k) / N built densely."""
    N = layout22.N
    dense = []
    for v in layout22.geometry.vertices:
        factors = gauss_law_operator(layout22, v)
        dense.append(sum(embed_physical(layout22, {i: np.linalg.matrix_power(m, k)
                                                   for i, m in factors.items()})
                         for k in range(N)) / N)
    rng = np.random.default_rng(8)
    for _ in range(3):
        raw = rng.normal(size=layout22.physical_dim) + 1j * rng.normal(size=layout22.physical_dim)
        want = raw
        for proj in dense:
            want = proj @ want
        assert np.abs(project_gauge_invariant(layout22, raw) - want).max() < 1e-12


def test_electric_variants(alg3):
    group = electric_single_link(alg3, "group")
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(group)), [-1.0, 2.0, 2.0], atol=1e-12
    )
    z3 = electric_single_link(alg3, "z3")
    np.testing.assert_allclose(z3, np.diag([1.0, 2.0, 2.0]), atol=1e-15)


def test_term_hermiticity_and_support(layout22, cpl1):
    for name in TERM_NAMES:
        m = dense_term(layout22, name, cpl1)
        support = term_support(layout22, name, cpl1)
        assert np.abs(m - m.conj().T).max() < 1e-12, name
        if name == "Bo":
            # the single 2x2 plaquette is even, so the odd sector is empty
            assert support == ()
            assert np.abs(m).max() == 0.0
        else:
            assert support
    with pytest.raises(ValueError):
        dense_term(layout22, "X", cpl1)


@pytest.mark.parametrize("shape, N", [((1, 3), 3), ((2, 2), 2)])
@pytest.mark.parametrize("variant", ["group", "z3-implementation"])
def test_terms_match_brute_force_construction(shape, N, variant):
    """Every piece against a basis-state construction with explicit string signs."""
    layout = build_layout(LatticeGeometry(*shape), N)
    cpl = Couplings(lambda_e=0.7, lambda_b=1.3, lambda_gm=0.9, mass=1.1, h_e_variant=variant)
    for name in TERM_NAMES:
        want = brute_force_term(layout, name, cpl)
        assert np.abs(dense_term(layout, name, cpl) - want).max() < 1e-12, name


def _commutator_with_local(h, op, reg, dims):
    """max |[h, op on register reg]| without forming the embedded operator."""
    n = len(dims)
    t = h.reshape(dims + dims)
    left = np.moveaxis(np.tensordot(op, t, axes=([1], [reg])), 0, reg)
    right = np.moveaxis(np.tensordot(t, op, axes=([n + reg], [0])), -1, n + reg)
    return np.abs(left - right).max()


@pytest.mark.parametrize("shape", [(2, 2), (1, 3)])
def test_term_support_is_where_the_matrix_acts(shape):
    """A register outside a term's support commutes with the term; one inside does not.

    On 2x2 the vertical hops skip a fermion mode, whose ordering string
    puts the term's action on that register too.
    """
    layout = build_layout(LatticeGeometry(*shape), 3)
    rng = np.random.default_rng(11)
    dims = [r.dim for r in layout.registers if r.kind != "ancilla"]
    cpl = Couplings(lambda_e=0.7, lambda_b=1.3, lambda_gm=0.9, mass=1.1)
    for name in TERM_NAMES:
        h = dense_term(layout, name, cpl)
        support = term_support(layout, name, cpl)
        for reg, d in enumerate(dims):
            op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            comm = _commutator_with_local(h, op, reg, dims)
            if reg in support:
                assert comm > 1e-3, (name, reg)
            else:
                assert comm < 1e-12, (name, reg)


def test_term_commutation_census(layout22, cpl1):
    """Checks which of the eight terms commute.

    Diagonal pairs (E, M) commute, and so do magnetic and gauge-matter
    terms since both touch links only through the clock operator.  The
    electric term clashes with both of those, gauge-matter blocks clash
    with the mass term, and two gauge-matter blocks clash exactly when
    they share a vertex.
    """
    mats = {name: dense_term(layout22, name, cpl1) for name in TERM_NAMES}

    def comm(a, b):
        return np.abs(mats[a] @ mats[b] - mats[b] @ mats[a]).max()

    assert comm("E", "M") < 1e-12
    assert comm("Be", "GM_eh") < 1e-12
    assert comm("GM_eh", "GM_oh") < 1e-12   # disjoint vertices on 2x2
    assert comm("E", "Be") > 1e-3
    assert comm("E", "GM_eh") > 1e-3
    assert comm("GM_eh", "M") > 1e-3
    assert comm("GM_eh", "GM_ev") > 1e-3    # shared corner vertex


def test_every_term_commutes_with_gauss(layout22, cpl1):
    thetas = [
        embed_physical(layout22, gauss_law_operator(layout22, v))
        for v in layout22.geometry.vertices
    ]
    for name in TERM_NAMES:
        m = dense_term(layout22, name, cpl1)
        for th in thetas:
            assert np.abs(m @ th - th @ m).max() < 1e-13, name


def test_magnetic_spectrum_matches_flux_cosine(layout22, cpl1):
    """Even-plaquette energy eigenvalues are 2 lambda_b cos(2 pi phi / 3)
    with phi the oriented flux; the multiset over link configurations is
    compared against an explicitly summed oracle."""
    m = dense_term(layout22, "Be", cpl1)
    # fermion-vacuum block: the first 81 physical indices vary only the links
    block = m[:81, :81]
    assert np.abs(m[:81, 81:]).max() < 1e-15
    reps = symmetric_representatives(3)
    expected = []
    for idx in range(81):
        digits = np.unravel_index(idx, (3, 3, 3, 3))
        # ccw orientation: +m1 +m2 -m3 -m4 in sorted link order (l1, l4, l3, l2)
        m1, m4, m3, m2 = (reps[d] for d in digits)
        flux = m1 + m2 - m3 - m4
        expected.append(2.0 * np.cos(2 * np.pi * flux / 3))
    got = np.sort(np.linalg.eigvalsh(block))
    np.testing.assert_allclose(got, np.sort(expected), atol=1e-12)


def test_mass_term_counts_staggered_charge(layout22):
    cpl = Couplings(mass=0.7)
    m = dense_term(layout22, "M", cpl)
    phys = physical_singlet(layout22)
    energy = np.vdot(phys, m @ phys).real
    # two occupied odd vertices at staggered sign -1 each
    assert energy == pytest.approx(-1.4, abs=1e-12)


def test_total_hamiltonian_is_sum_of_terms(layout22, cpl1):
    total = total_hamiltonian(layout22, cpl1)
    summed = sum(dense_term(layout22, name, cpl1) for name in TERM_NAMES)
    assert np.abs(total - summed).max() < 1e-12
    assert np.abs(total - total.conj().T).max() < 1e-12


def test_couplings_validation():
    with pytest.raises(ValueError):
        Couplings(lambda_e=float("nan"))
    with pytest.raises(ValueError):
        Couplings(h_e_variant="zN")


@pytest.mark.parametrize("geo", [(2, 2), (3, 2)])
def test_gauss_expectations_match_the_operator_form(geo):
    lay = build_layout(LatticeGeometry(*geo), 3)
    rng = np.random.default_rng(17)
    amp = rng.normal(size=lay.total_dim) + 1j * rng.normal(size=lay.total_dim)
    st = amp / np.linalg.norm(amp)
    got = gauss_expectations(lay, *dense_weights(st))
    assert list(got) == lay.geometry.vertices
    for v, val in got.items():
        rotated = apply_factors(lay, st, gauss_law_operator(lay, v))
        want = complex(np.vdot(st, rotated))
        assert abs(val - want) <= 1e-12, v
        assert abs(val - 1.0) > 0.1, v    # the state is far from gauge invariant


def test_gauss_expectations_reject_a_non_diagonal_factor(layout22, monkeypatch):
    honest = algebra_module.gauss_law_operator

    def skewed(layout, vertex):
        factors = honest(layout, vertex)
        factors[layout.link_index(((0, 0), 1))] = make_link_algebra(3).q
        return factors

    monkeypatch.setattr(algebra_module, "gauss_law_operator", skewed)
    algebra_module._gauss_diagonal.cache_clear()   # diagonals built from the honest factors
    with pytest.raises(ValueError, match="not diagonal"):
        gauss_expectations(layout22, *dense_weights(build_global_singlet(layout22)))


def test_link_algebra_is_cached_and_read_only():
    alg = make_link_algebra(3)
    assert make_link_algebra(3) is alg
    for a in (alg.p, alg.q, alg.dft, alg.log_p):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_gauss_diagonals_are_cached_and_read_only(layout22):
    for v in layout22.geometry.vertices:
        support, diag = algebra_module._gauss_diagonal(layout22, v)
        assert algebra_module._gauss_diagonal(layout22, v)[1] is diag
        assert isinstance(support, tuple)
        with pytest.raises(ValueError):
            diag[0] = 0.0
