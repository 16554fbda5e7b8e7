"""Drive a link through its ancilla and undo the entangling step.

The entangler turns an ancilla drive into the matching link operation:
after the inverse entangler the ancilla returns to its input state and
the link has absorbed the drive.  The same mechanism with a Fourier
rotation on the ancilla carries shift-type drives.
"""

import numpy as np

from zngauge.algebra import make_link_algebra
from zngauge.stators import ancilla_fourier, stator_entangler

alg = make_link_algebra(3)
in_vec = np.ones(3) / np.sqrt(3)

u_i = stator_entangler(alg)
s_q = u_i @ np.kron(np.eye(3), in_vec[:, None])
lhs = np.kron(np.eye(3), alg.q) @ s_q
print(f"Q eigenoperator residual: {np.abs(lhs - s_q @ alg.q.conj().T).max():.2e}")

s_p = np.kron(np.eye(3), ancilla_fourier()) @ s_q
lhs = np.kron(np.eye(3), alg.p) @ s_p
print(f"P eigenoperator residual: {np.abs(lhs - s_p @ alg.q.conj().T).max():.2e}")

# round trip on a product state: entangle, kick the ancilla, disentangle
rng = np.random.default_rng(7)
link = rng.normal(size=3) + 1j * rng.normal(size=3)
link /= np.linalg.norm(link)
psi = np.kron(link, in_vec)
kick = np.kron(np.eye(3), alg.q)
out = u_i.conj().T @ kick @ u_i @ psi
want = np.kron(alg.q.conj().T @ link, in_vec)
print(f"ancilla kick lands on the link as Qdag: {np.abs(out - want).max():.2e}")
