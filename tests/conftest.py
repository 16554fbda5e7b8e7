"""Shared fixtures and independent dense-matrix oracles for the test suite."""

import numpy as np
import pytest

from zngauge.algebra import Couplings, make_link_algebra
from zngauge.lattice import LatticeGeometry, StateVector, apply_gate, build_layout


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


def apply_factors(state: StateVector, factors: dict[int, np.ndarray]) -> StateVector:
    """Apply a factor map whose every factor is unitary, register by register."""
    for i, m in sorted(factors.items()):
        state = apply_gate(state, m, [i])
    return state
