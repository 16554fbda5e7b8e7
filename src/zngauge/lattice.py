"""Lattice geometry, register layout, and states on its mixed-radix basis.

The simulated system lives on an open Lx x Ly square lattice:

        (0,1) --h-- (1,1)
          |           |
          v           v
          |           |
        (0,0) --h-- (1,0)

Vertices carry one fermionic mode each (local dim 2), links carry one
Z_N degree of freedom (local dim N), and each plaquette may carry one
N-dimensional ancilla used by the gate compiler.  A link is named by
the vertex it leaves and its direction: (x, 1) points along +x1,
(x, 2) along +x2; links whose head would leave the lattice do not
exist.  Plaquettes are named by their bottom-left vertex.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-9       # state vectors must stay normalized to this
UNITARITY_TOL = 1e-12  # gates must be unitary to this
SUPPORT_TOL = 1e-13    # the support kernel drops amplitudes of at most this modulus
INT64_MAX = int(np.iinfo(np.int64).max)
PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")  # bytes

Vertex = tuple[int, int]
Link = tuple[Vertex, int]


def is_even(x: Vertex) -> bool:
    """Parity class of a vertex / link origin / plaquette label."""
    return (x[0] + x[1]) % 2 == 0


@dataclass(frozen=True)
class LatticeGeometry:
    """Open Lx x Ly lattice with derived vertex/link/plaquette enumerations."""

    Lx: int
    Ly: int

    def __post_init__(self):
        if self.Lx < 1 or self.Ly < 1:
            raise ValueError(f"lattice extents must be positive, got {self.Lx}x{self.Ly}")

    @property
    def vertices(self) -> list[Vertex]:
        """Row-major (x2 major, x1 minor) vertex list."""
        return [(x1, x2) for x2 in range(self.Ly) for x1 in range(self.Lx)]

    @property
    def links(self) -> list[Link]:
        """All existing links, sorted by (origin, direction)."""
        out = []
        for x2 in range(self.Ly):
            for x1 in range(self.Lx):
                if x1 + 1 < self.Lx:
                    out.append(((x1, x2), 1))
                if x2 + 1 < self.Ly:
                    out.append(((x1, x2), 2))
        return sorted(out)

    @property
    def plaquettes(self) -> list[Vertex]:
        """Bottom-left labels x such that x+1^ and x+2^ stay inside."""
        return [(x1, x2) for x2 in range(self.Ly - 1) for x1 in range(self.Lx - 1)]

    def link_exists(self, link: Link) -> bool:
        (x1, x2), k = link
        if not (0 <= x1 < self.Lx and 0 <= x2 < self.Ly):
            return False
        if k == 1:
            return x1 + 1 < self.Lx
        if k == 2:
            return x2 + 1 < self.Ly
        return False

    def link_head(self, link: Link) -> Vertex:
        (x1, x2), k = link
        return (x1 + 1, x2) if k == 1 else (x1, x2 + 1)

    def plaquette_links(self, p: Vertex) -> list[tuple[Link, int]]:
        """Counterclockwise plaquette boundary as (link, orientation).

        Orientation +1 for the bottom and right edges (traversed along the
        link direction), -1 for the top and left edges (traversed against).
        """
        if p not in set(self.plaquettes):
            raise ValueError(f"no plaquette at {p}")
        x1, x2 = p
        return [
            (((x1, x2), 1), +1),
            (((x1 + 1, x2), 2), +1),
            (((x1, x2 + 1), 1), -1),
            (((x1, x2), 2), -1),
        ]

    def link_class(self, link: Link) -> str:
        """One of 'eh', 'oh', 'ev', 'ov' by origin parity and direction."""
        x, k = link
        pe = is_even(x)
        if k == 1:
            return "eh" if pe else "oh"
        return "ev" if pe else "ov"


@dataclass(frozen=True)
class Register:
    kind: str          # "link" | "fermion" | "ancilla"
    site: tuple        # link tuple, vertex, or plaquette label
    dim: int


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered registers: fermions (row-major), then links, then ancillas.

    A basis index is sum_i digit_i * stride_i, register 0 the slowest
    (most significant) digit, matching numpy reshape order.
    """

    geometry: LatticeGeometry
    N: int
    ancilla_policy: str
    registers: tuple[Register, ...]
    # plaquette label -> index of the ancilla register serving it
    ancilla_of_plaquette: dict = field(compare=False)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def total_dim(self) -> int:
        return math.prod(r.dim for r in self.registers)

    @property
    def physical_dims(self) -> tuple[int, ...]:
        """Local dimensions of the non-ancilla registers, which come first."""
        return tuple(r.dim for r in self.registers if r.kind != "ancilla")

    @property
    def physical_dim(self) -> int:
        return math.prod(self.physical_dims)

    @property
    def ancilla_dim(self) -> int:
        """Joint dimension A of the ancilla registers, which come last."""
        return self.total_dim // self.physical_dim

    def index_of(self, kind: str, site) -> int:
        for i, r in enumerate(self.registers):
            if r.kind == kind and r.site == site:
                return i
        raise KeyError(f"no {kind} register at {site}")

    def fermion_index(self, vertex: Vertex) -> int:
        return self.index_of("fermion", vertex)

    def link_index(self, link: Link) -> int:
        return self.index_of("link", link)

    def ancilla_indices(self) -> list[int]:
        return [i for i, r in enumerate(self.registers) if r.kind == "ancilla"]


def build_layout(geometry: LatticeGeometry, N: int, ancilla_policy: str = "per_plaquette") -> RegisterLayout:
    """Deterministic register layout for a geometry and Z_N dimension.

    ancilla_policy:
      "per_plaquette" -- one ancilla per plaquette (default; every plaquette
                         can host its own control).
      "shared"        -- one ancilla per even plaquette, reused by the odd
                         plaquette immediately to its right.  Odd plaquettes
                         with no even plaquette on their left are an error.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if ancilla_policy not in ("per_plaquette", "shared"):
        raise ValueError(f"unknown ancilla policy {ancilla_policy!r}")

    regs: list[Register] = []
    for v in geometry.vertices:
        regs.append(Register("fermion", v, 2))
    for l in geometry.links:
        regs.append(Register("link", l, N))

    plaqs = geometry.plaquettes
    anc_sites: list[Vertex] = []
    serving: dict[Vertex, Vertex] = {}
    if ancilla_policy == "per_plaquette":
        for p in plaqs:
            anc_sites.append(p)
            serving[p] = p
    else:
        evens = [p for p in plaqs if is_even(p)]
        anc_sites.extend(evens)
        for p in plaqs:
            if is_even(p):
                serving[p] = p
            else:
                left = (p[0] - 1, p[1])
                if left not in evens:
                    raise ValueError(
                        f"shared ancilla policy: odd plaquette {p} has no even plaquette to its left"
                    )
                serving[p] = left

    offset = len(regs)
    for s in anc_sites:
        regs.append(Register("ancilla", s, N))
    anc_index = {
        p: offset + anc_sites.index(serving[p]) for p in plaqs
    }
    return RegisterLayout(geometry, N, ancilla_policy, tuple(regs), anc_index)


def check_normalized(amplitudes: np.ndarray):
    """ValueError unless the amplitudes have norm 1 to NORM_TOL."""
    n = np.linalg.norm(amplitudes)
    if abs(n - 1.0) > NORM_TOL:
        raise ValueError(f"state not normalized: ||psi|| = {n}")


@lru_cache(maxsize=None)
def _occupation(n_modes: int) -> np.ndarray:
    """Occupied modes of each mixed-radix index of `n_modes` fermion digits."""
    count = np.indices((2,) * n_modes).reshape(n_modes, -1).sum(axis=0)
    count.setflags(write=False)
    return count


def singlet_support(layout: RegisterLayout) -> tuple[np.ndarray, np.ndarray]:
    """Reference gauge-invariant state on its support: its full-space basis
    indices, ascending, and their amplitudes.

    Links in |m=0>, fermions filling every odd vertex (the staggered
    vacuum), each ancilla in the uniform superposition |in~>, which is the
    eigenvalue-1 eigenvector of the ancilla shift operator: one physical
    basis state times the ancilla product, one entry per ancilla state.
    ValueError when the basis indices do not fit int64.
    """
    if layout.total_dim - 1 > INT64_MAX:
        raise ValueError(f"the indices of {layout.total_dim} basis states do not fit int64")
    vertices = layout.geometry.vertices
    v = len(vertices)
    filled = sum(1 << (v - 1 - i) for i, x in enumerate(vertices) if not is_even(x))
    anc = layout.ancilla_dim
    index = filled * (layout.total_dim >> v) + np.arange(anc)
    return index, np.full(anc, 1 / math.sqrt(anc), dtype=np.complex128)


@dataclass(frozen=True)
class GateGroup:
    """A checked unitary, block-diagonal on its `controls`.

    `blocks` has shape (C, A, A): one block on the `active` registers per
    control value, C and A being the products of the control and active
    dims, both indexed in the mixed-radix order of their registers.  A
    diagonal gate has A = 1, a gate with no control C = 1.  The column
    tables `rows` and `values`, both (C, A, w), list the w nonzeros of
    each block column: block c maps active value a onto rows[c, a] with
    values[c, a], w being the most any column holds; a column with fewer
    is padded with value 0.  A monomial group has w = 1.
    """

    controls: tuple[int, ...]
    active: tuple[int, ...]
    blocks: np.ndarray
    rows: np.ndarray
    values: np.ndarray

    @property
    def targets(self) -> tuple[int, ...]:
        return self.controls + self.active


def check_targets(dims: tuple[int, ...], targets) -> tuple[int, ...]:
    """Targets as a tuple of ints; raises on a repeated or out-of-range one."""
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"repeated targets: {list(targets)}")
    for t in targets:
        if not (0 <= t < len(dims)):
            raise ValueError(f"target {t} out of range (have {len(dims)} registers)")
    return targets


def block_group(dims: tuple[int, ...], controls, active, blocks: np.ndarray) -> GateGroup:
    """Check targets, shape and per-block unitarity of a stack of blocks, and
    list the nonzeros of each block column."""
    targets = check_targets(dims, tuple(controls) + tuple(active))
    controls, active = targets[:len(controls)], targets[len(controls):]
    c_dim = math.prod(dims[t] for t in controls)
    a_dim = math.prod(dims[t] for t in active)
    blocks = np.asarray(blocks, dtype=np.complex128)
    if blocks.shape != (c_dim, a_dim, a_dim):
        raise ValueError(f"block stack shape {blocks.shape} != {(c_dim, a_dim, a_dim)}")
    err = np.abs(blocks.conj().transpose(0, 2, 1) @ blocks - np.eye(a_dim)).max()
    if err > UNITARITY_TOL:
        raise ValueError(f"gate not unitary: max |U!U - 1| = {err:.3e}")
    columns = blocks.transpose(0, 2, 1)
    nonzero = columns != 0
    counts = nonzero.sum(axis=2)
    # each column's nonzeros, in row order, fill its first counts[c, a] slots
    slots = np.arange(counts.max()) < counts[..., None]
    rows = np.zeros(slots.shape, dtype=np.int64)
    values = np.zeros(slots.shape, dtype=np.complex128)
    rows[slots] = nonzero.nonzero()[2]
    values[slots] = columns[nonzero]
    for table in (rows, values):
        table.setflags(write=False)
    return GateGroup(controls, active, blocks, rows, values)


def gate_group(dims: tuple[int, ...], gate_matrix: np.ndarray, targets) -> GateGroup:
    """Check a gate and store it as blocks over the targets it only reads.

    A target is a control when every entry that changes its digit is
    exactly zero; no threshold is applied.
    """
    targets = check_targets(dims, targets)
    gate = np.asarray(gate_matrix, dtype=np.complex128)
    tdims = [dims[t] for t in targets]
    d_gate = math.prod(tdims)
    if gate.shape != (d_gate, d_gate):
        raise ValueError(f"gate shape {gate.shape} != target dim {d_gate}")
    k = len(targets)
    tensor = gate.reshape(tdims + tdims)
    ctrl = [i for i in range(k)
            if not np.moveaxis(tensor, (i, k + i), (0, 1))[~np.eye(tdims[i], dtype=bool)].any()]
    act = [i for i in range(k) if i not in ctrl]
    c_dim = math.prod(tdims[i] for i in ctrl)
    a_dim = d_gate // c_dim
    order = ctrl + act
    joint = tensor.transpose(order + [k + i for i in order]).reshape(c_dim, a_dim, c_dim, a_dim)
    c = np.arange(c_dim)
    return block_group(dims, [targets[i] for i in ctrl], [targets[i] for i in act],
                       joint[c, :, c, :])


def run_gates(groups, dims: tuple[int, ...], amplitudes: np.ndarray) -> np.ndarray:
    """Apply checked gate groups in order; trailing axes beyond `dims` are batch.

    Per group, one transpose brings its controls, then its active
    registers, to the front, one stacked matmul applies its blocks (a
    product when A = 1), and one transpose restores register order.  The
    input is never written.
    """
    out = np.asarray(amplitudes, dtype=np.complex128).reshape(tuple(int(d) for d in dims) + (-1,))
    for g in groups:
        order = list(g.targets) + [t for t in range(out.ndim) if t not in g.targets]
        moved = out.transpose(order)
        x = moved.reshape(g.blocks.shape[:2] + (-1,))
        y = x * g.blocks if g.blocks.shape[1] == 1 else np.matmul(g.blocks, x)
        out = y.reshape(moved.shape).transpose(np.argsort(order))
    return np.array(out, order="C").reshape(amplitudes.shape)


@lru_cache(maxsize=1024)
def _support_tables(dims: tuple[int, ...], controls: tuple[int, ...],
                    active: tuple[int, ...]) -> tuple:
    """A group's targets as `run_support` reads them.  `local` is the value
    of the target digits in increasing register order, the nested sum of
    (index // stride) % size over `runs` of consecutive targets (no modulo
    when the run leads); the tables map it to the control value and the
    active value, and `offsets` holds the index offset of each active
    value.  ValueError when the basis indices of `dims` do not fit int64."""
    if math.prod(dims) - 1 > INT64_MAX:
        raise ValueError(f"the indices of {math.prod(dims)} basis states do not fit int64")
    regs = sorted(controls + active)
    stride = {t: math.prod(dims[t + 1:]) for t in regs}
    runs, start = [], 0
    for i in range(1, len(regs) + 1):
        if i == len(regs) or regs[i] != regs[i - 1] + 1:
            runs.append((stride[regs[i - 1]], math.prod(dims[t] for t in regs[start:i]),
                         regs[start] == 0))
            start = i
    size = math.prod(dims[t] for t in regs)
    digit = dict(zip(regs, np.indices([dims[t] for t in regs]).reshape(len(regs), size)))

    def radix(targets):
        value = np.zeros(size, dtype=np.int64)
        for t in targets:
            value = value * dims[t] + digit[t]
        return value

    control, act = radix(controls), radix(active)
    a_dim = math.prod(dims[t] for t in active)
    values = np.indices([dims[t] for t in active]).reshape(len(active), a_dim)
    offsets = np.dot([stride[t] for t in active], values).astype(np.int64).reshape(-1)
    for table in (control, act, offsets):
        table.setflags(write=False)
    return tuple(runs), control, act, offsets


def run_support(groups, dims: tuple[int, ...], index: np.ndarray,
                amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Apply checked gate groups to a state given on its support.

    `index` holds distinct basis indices of `dims` and `amplitudes` their
    amplitudes; every other amplitude is zero.  Per group, each index
    splits into its control value c and its active value a, and the entry
    goes to each nonzero of its block column: index - offsets[a] +
    offsets[rows[c, a]], times values[c, a].  A monomial group (w = 1)
    maps each entry on its own, so the support keeps its size.  Any other
    group sorts the entries it spreads to, sums those on equal indices and
    drops every amplitude of modulus at most SUPPORT_TOL.  Returns the
    indices, ascending, their amplitudes, and the summed norms of what
    each group dropped, which bounds the distance to the exact result
    since every group is unitary.  The inputs are never written.
    MemoryError, before a spreading group's arrays are allocated, when
    they would not fit in physical memory.
    """
    dims = tuple(int(d) for d in dims)
    dropped = 0.0
    for g in groups:
        runs, control, active, offsets = _support_tables(dims, g.controls, g.active)
        local = None
        for stride, size, leading in runs:
            digits = index // stride if stride > 1 else index
            digits = digits if leading else digits % size
            local = digits if local is None else local * size + digits
        width = g.rows.shape[2]
        values = g.values[control, active]
        step = offsets[g.rows[control, active]] - offsets[active][:, None]
        if width == 1:
            amplitudes = amplitudes * np.take(values[:, 0], local)
            if g.blocks.shape[1] > 1:
                index = index + np.take(step[:, 0], local)
            continue
        nonzero = values != 0
        n_spread = int(np.dot(np.bincount(local, minlength=nonzero.shape[0]),
                              nonzero.sum(axis=1)))
        # bytes held at once, at most: 32 per support entry (index 8,
        # amplitude 16, local 8), 17 per slot of the n x w expansion
        # (amplitude 16, padding mask 1; its index is compressed first) and
        # 48 per spread entry (index and amplitude, their sorted copies and
        # the sort order)
        need = 32 * index.size + 17 * index.size * width + 48 * n_spread
        if need > PHYSICAL_MEMORY:
            raise MemoryError(f"the support kernel needs about {need / 2**30:.3g} GiB to spread "
                              f"{index.size} entries onto {n_spread}, over the "
                              f"{PHYSICAL_MEMORY / 2**30:.3g} GiB of physical memory")
        keep = np.take(nonzero, local, axis=0)
        target = np.take(step, local, axis=0)
        target += index[:, None]
        target = target[keep]
        spread = np.take(values, local, axis=0)
        spread *= amplitudes[:, None]
        spread = spread[keep]
        del keep
        order = target.argsort()
        target, spread = target[order], spread[order]
        del order
        starts = _run_starts(target).nonzero()[0]
        index, amplitudes = target[starts], np.add.reduceat(spread, starts)
        del target, spread, starts
        small = np.abs(amplitudes) <= SUPPORT_TOL
        if small.any():
            dropped += float(np.linalg.norm(amplitudes[small]))
            index, amplitudes = index[~small], amplitudes[~small]
    order = index.argsort()
    return index[order], amplitudes[order], dropped


def _run_starts(values: np.ndarray) -> np.ndarray:
    """True where a run of equal entries of a sorted array starts."""
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return new


def project_support(layout: RegisterLayout, index: np.ndarray,
                    amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A state on ascending full-space basis indices, its ancillas contracted
    with <in~|, the uniform vector over their A joint values (the trailing
    digits): the physical indices it reaches, ascending, and the amplitudes."""
    anc = layout.ancilla_dim
    physical = index // anc
    starts = _run_starts(physical).nonzero()[0]
    return physical[starts], np.add.reduceat(amplitudes, starts) / math.sqrt(anc)


def marginals(layout: RegisterLayout, index: np.ndarray, weights: np.ndarray,
              supports) -> list[np.ndarray]:
    """Marginals of `weights` (|a|^2) on full-space basis indices `index`, in
    any order, one per list of physical registers in `supports`: the weights
    binned by each register's digit (index // stride) % dim, one axis per
    register of the list, in increasing register order."""
    dims = layout.dims
    physical = len(layout.physical_dims)
    out = []
    for support in supports:
        support = sorted(support)
        if not all(0 <= t < physical for t in support):
            raise ValueError(f"support {support} is not a list of physical registers")
        value = np.zeros(index.shape, dtype=np.int64)
        for t in support:
            value = value * dims[t] + index // math.prod(dims[t + 1:]) % dims[t]
        shape = [dims[t] for t in support]
        out.append(np.bincount(value, weights=weights, minlength=math.prod(shape)).reshape(shape))
    return out


def total_fermion_number(layout: RegisterLayout, index: np.ndarray, weights: np.ndarray) -> float:
    """Expectation of the summed fermion occupation, from the fermions' marginal."""
    v = len(layout.geometry.vertices)
    (marginal,) = marginals(layout, index, weights, [range(v)])
    return float(np.dot(marginal.reshape(-1), _occupation(v)))


def born_sample(layout: RegisterLayout, index: np.ndarray, amplitudes: np.ndarray,
                rng: np.random.Generator, shots: int) -> np.ndarray:
    """Sample basis states of a state given on full-space basis indices;
    returns an array of digit rows (shots x registers).  Ascending indices
    draw what the full state they scatter into would."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.abs(amplitudes) ** 2
    p = p / p.sum()
    flat = index[rng.choice(len(p), size=shots, p=p)]
    return np.stack(np.unravel_index(flat, layout.dims), axis=1)
