"""Build the single-plaquette drive and compare it to the closed form.

The four links of one plaquette are entangled with a shared ancilla,
the ancilla is driven, and the entangling sequence is undone.  The
entanglers are those the direct compiler emits in the 2x2 step's
plaquette window.  On the uniform ancilla input the resulting map on
the links is exactly the magnetic-plaquette propagator.
"""

import numpy as np

from zngauge.algebra import Couplings, expm_from_hermitian, make_link_algebra
from zngauge.lattice import LatticeGeometry, build_layout
from zngauge.schedule import compile_step
from zngauge.stators import gate_matrix

IN_VEC = np.ones(3) / np.sqrt(3)


def embed(gate: np.ndarray, targets: list[int], dims: list[int]) -> np.ndarray:
    order = targets + [k for k in range(len(dims)) if k not in targets]
    big = np.kron(gate, np.eye(int(np.prod([dims[k] for k in order[len(targets):]]))))
    shape = [dims[k] for k in order]
    inv = [order.index(k) for k in range(len(dims))]
    full = big.reshape(shape + shape).transpose(inv + [len(dims) + k for k in inv])
    d = int(np.prod(dims))
    return full.reshape(d, d)


def main():
    layout = build_layout(LatticeGeometry(2, 2), 3)
    alg = make_link_algebra(3)
    dims = [3] * 5                       # four plaquette links + ancilla
    pos = {reg: reg - 4 for reg in (4, 5, 6, 7)}

    # the window holds the four entanglers, the drive, and their inverses
    sched = compile_step(layout, Couplings(), 0.1, "direct", 1)
    _, lo, hi = next(w for w in sched.substeps if w[0] == "plaq_even")
    window = sched.ops[lo:hi]
    print("plaquette window:", " ".join(f"{op.name}{op.targets}" for op in window))

    fwd = np.eye(3 ** 5, dtype=complex)
    for op in window[:4]:
        g = gate_matrix(op.name, op.params, (3, 3))
        fwd = embed(g, [pos[op.targets[0]], 4], dims) @ fwd
    inv = np.eye(3 ** 5, dtype=complex)
    for op in window[5:]:
        g = gate_matrix(op.name, op.params, (3, 3))
        inv = embed(g, [pos[op.targets[0]], 4], dims) @ inv

    b = np.eye(81, dtype=complex)
    for link, orient in layout.geometry.plaquette_links((0, 0)):
        m = alg.q if orient > 0 else alg.q.conj().T
        b = embed(m, [pos[layout.link_index(link)]], [3] * 4) @ b

    print("tau      sandwich fidelity   ancilla leak")
    for tau in (0.05, 0.2, 1.0, 2.5):
        drive = embed(gate_matrix("anc_drive", (tau,), (3,)), [4], dims)
        w = (inv @ drive @ fwd).reshape(81, 3, 81, 3)
        restricted = np.einsum("aibj,i,j->ab", w, IN_VEC.conj(), IN_VEC)
        target = expm_from_hermitian(b + b.conj().T, -1j * tau)
        fid = abs(np.trace(restricted.conj().T @ target)) / 81.0
        leak = np.abs(restricted @ restricted.conj().T - np.eye(81)).max()
        print(f"{tau:4.2f}     {fid:.15f}   {leak:.2e}")


if __name__ == "__main__":
    main()
