"""Shared fixtures and independent dense-matrix oracles for the test suite."""

import numpy as np
import pytest

from zngauge.algebra import (Couplings, edges_to_dense, hamiltonian_edges, make_link_algebra,
                             term_factor_maps)
from zngauge.lattice import (LatticeGeometry, build_layout, gate_group, project_support,
                             singlet_support)
from zngauge.schedule import _plan


@pytest.fixture(scope="session")
def alg3():
    return make_link_algebra(3)


@pytest.fixture(scope="session")
def layout22():
    """The 2x2 reference system: 4 fermions, 4 links, 1 plaquette ancilla."""
    return build_layout(LatticeGeometry(2, 2), 3)


@pytest.fixture(scope="session")
def cpl1():
    return Couplings()


def build_global_singlet(layout):
    """The global singlet's full-space amplitudes: its support scattered."""
    index, values = singlet_support(layout)
    amplitudes = np.zeros(layout.total_dim, dtype=np.complex128)
    amplitudes[index] = values
    return amplitudes


def blocks_of(group):
    """A gate group's (C, A, A) block stack, scattered from its column lists
    (a padded slot adds 0 to row 0)."""
    c_dim, a_dim, _ = group.rows.shape
    blocks = np.zeros((c_dim, a_dim, a_dim), dtype=np.complex128)
    c, a, _ = np.indices(group.rows.shape)
    np.add.at(blocks, (c, group.rows, a), group.values)
    return blocks


def run_gates(groups, dims, amplitudes):
    """The dense reference of the support kernel: checked gate groups
    applied in order, each as its block stack; trailing axes beyond `dims`
    are batch.  Per group, one transpose brings its controls, then its
    active registers, to the front, one stacked matmul applies its blocks
    (a product when A = 1), and one transpose restores register order.
    The input is never written."""
    out = np.asarray(amplitudes, dtype=np.complex128).reshape(tuple(int(d) for d in dims) + (-1,))
    for g in groups:
        blocks = blocks_of(g)
        order = list(g.targets) + [t for t in range(out.ndim) if t not in g.targets]
        moved = out.transpose(order)
        x = moved.reshape(blocks.shape[:2] + (-1,))
        y = x * blocks if blocks.shape[1] == 1 else np.matmul(blocks, x)
        out = y.reshape(moved.shape).transpose(np.argsort(order))
    return np.array(out, order="C").reshape(amplitudes.shape)


def dense_run(schedule, amplitudes, op_range=None):
    """The dense reference of the support kernel: the fused plan (of an op
    range) through `run_gates`, on full-space amplitudes; trailing axes are
    batch."""
    return run_gates(_plan(schedule, op_range), tuple(int(d) for d in schedule.layout.dims),
                     amplitudes)


def physical_amplitudes(layout, index, amplitudes):
    """Dense physical amplitudes of a state on ascending full-space indices,
    its ancillas projected onto |in~>."""
    physical, projected = project_support(layout, index, amplitudes)
    out = np.zeros(layout.physical_dim, dtype=np.complex128)
    out[physical] = projected
    return out


def physical_singlet(layout):
    """The global singlet's physical amplitudes."""
    return physical_amplitudes(layout, *singlet_support(layout))


def lift(layout, physical):
    """Physical amplitudes (rows; trailing axes are batch) with |in~> on the ancillas."""
    return np.repeat(physical, layout.ancilla_dim, axis=0) / np.sqrt(layout.ancilla_dim)


def dense_weights(amplitudes):
    """A full-space state as the observables read it: every basis index, and |a|^2."""
    return np.arange(amplitudes.size), np.abs(amplitudes) ** 2


def embed_on(gate, targets, dims):
    """Brute-force embedding of a gate into a mixed-radix product space.

    Independent of the package's tensor kernel: plain kron against the
    identity on the untouched registers, then an axis transpose back to
    register order.  Used as the oracle for gate application.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    targets = list(targets)
    rest = [i for i in range(n) if i not in targets]
    order = targets + rest
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(np.asarray(gate, dtype=np.complex128), np.eye(d_rest))
    shape = [dims[i] for i in order]
    big = big.reshape(shape + shape)
    inv = [order.index(k) for k in range(n)]
    big = big.transpose(inv + [n + i for i in inv])
    d = int(np.prod(dims))
    return big.reshape(d, d)


def embed_physical(layout, factors):
    """Dense matrix of a factor map on the physical (non-ancilla) registers."""
    out = np.array([[1.0 + 0j]])
    for i, r in enumerate(layout.registers):
        if r.kind == "ancilla":
            continue
        out = np.kron(out, factors.get(i, np.eye(r.dim)))
    return out


def dense_term(layout, name, couplings):
    """Dense physical matrix of one named Hamiltonian piece, from its edge list."""
    return edges_to_dense(hamiltonian_edges(layout, [name], couplings))


def term_support(layout, name, couplings):
    """Registers where some factor map of the named piece is not exactly the identity."""
    maps = term_factor_maps(layout, name, couplings.h_e_variant)
    return tuple(sorted({i for f in maps for i, m in f.items()
                         if not np.array_equal(m, np.eye(len(m)))}))


def taylor_expm(a, terms=90):
    """Matrix exponential by plain Taylor series (small matrices only)."""
    a = np.asarray(a, dtype=np.complex128)
    out = np.eye(a.shape[0], dtype=np.complex128)
    term = np.eye(a.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def random_unitary(dim, rng):
    """Haar-ish unitary from the QR decomposition of a Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_factors(layout, amplitudes, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Apply a factor map whose every factor is unitary, one gate per register."""
    dims = tuple(int(d) for d in layout.dims)
    groups = tuple(gate_group(dims, m, [i]) for i, m in sorted(factors.items()))
    return run_gates(groups, dims, amplitudes)


def brute_force_term(layout, name, couplings):
    """Physical matrix of one Hamiltonian piece, built basis state by basis state.

    Independent of the package's factor maps: each piece acts directly on
    the tuple of register digits.  A hop that empties mode a and fills
    mode b carries the Jordan-Wigner sign (-1)^(occupied modes below a),
    then (-1)^(occupied modes below b) after a is emptied, with modes in
    row-major vertex order.
    """
    geom = layout.geometry
    N = layout.N
    coupling = {"E": couplings.lambda_e, "M": couplings.mass,
                "Be": couplings.lambda_b, "Bo": couplings.lambda_b}.get(name, couplings.lambda_gm)
    dims = [r.dim for r in layout.registers if r.kind != "ancilla"]
    f_reg = {v: layout.fermion_index(v) for v in geom.vertices}
    mode = {v: v[1] * geom.Lx + v[0] for v in geom.vertices}

    def string_sign(digits, v):
        return (-1) ** sum(digits[f_reg[u]] for u in geom.vertices if mode[u] < mode[v])

    def electric(m):
        if couplings.h_e_variant == "group":
            return 1.0 - 2.0 * np.cos(2 * np.pi * m / N)
        return 1.0 + abs(m if m <= N // 2 else m - N)

    h = np.zeros((int(np.prod(dims)),) * 2, dtype=np.complex128)
    for col, digits in enumerate(np.ndindex(*dims)):
        images = []     # (amplitude, image digits)
        if name == "E":
            images.append((sum(electric(digits[layout.link_index(l)]) for l in geom.links),
                           digits))
        elif name == "M":
            images.append((sum((-1) ** (v[0] + v[1]) * digits[f_reg[v]] for v in geom.vertices),
                           digits))
        elif name in ("Be", "Bo"):
            for p in geom.plaquettes:
                if ((p[0] + p[1]) % 2 == 0) != (name == "Be"):
                    continue
                for direction in (1, -1):       # holonomy, then its adjoint
                    image = list(digits)
                    for link, orient in geom.plaquette_links(p):
                        r = layout.link_index(link)
                        image[r] = (image[r] + direction * orient) % N
                    images.append((1.0, image))
        else:
            for link in geom.links:
                if geom.link_class(link) != name[3:]:
                    continue
                x, y = link[0], geom.link_head(link)
                # psi!(x) Q psi(y) moves a fermion y -> x and raises the link;
                # its adjoint moves one x -> y and lowers it
                for src, dst, shift in ((y, x, 1), (x, y, -1)):
                    if digits[f_reg[src]] != 1 or digits[f_reg[dst]] != 0:
                        continue
                    image = list(digits)
                    amp = string_sign(image, src)
                    image[f_reg[src]] = 0
                    amp *= string_sign(image, dst)
                    image[f_reg[dst]] = 1
                    r = layout.link_index(link)
                    image[r] = (image[r] + shift) % N
                    images.append((amp, image))
        for amp, image in images:
            h[np.ravel_multi_index(tuple(image), dims), col] += amp
    return coupling * h
