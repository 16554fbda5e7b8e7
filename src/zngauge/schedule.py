"""Trotter-step compilation into gate schedules, execution, phase gauging.

Choreography mode reproduces the 35-stage collision program: every even
plaquette runs a suite of blocks on its own ancilla (vertical link,
horizontal link with the stator kept, plaquette sandwich keeping the
next vertical stator, then the odd-origin links), and links no suite
reaches get self-contained blocks inside their class window.  Direct
mode swaps the collision machinery for two-register conjugation gates
and keeps ancillas only for the plaquette sandwiches.

Stage labels follow the choreography figure; transport stages carry
explicit idle markers so every label from 1 to 35 appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import (
    NORM_TOL,
    Link,
    RegisterLayout,
    Vertex,
    GateGroup,
    _occupation,
    block_group,
    check_targets,
    gate_group,
    is_even,
    run_support,
)
from .algebra import Couplings, monomial_map
from .stators import COLLISION_ANGLE, FRAME_STEPS, GateOp, framed_op, gate_matrix

GRADIENT_TOL = 1e-12

# one fused gate group spans at most _FUSE_MAX_DIM**2 block entries C*A**2:
# the transient block stack block_group checks, which also bounds the C*A*w
# entries its identity columns produce in the support kernel
_FUSE_MAX_DIM = 72

# choreography stages of each link class's gauge-matter block (create, phase,
# tunnel, flip and class phase sweep, undo); its window is first to last
GM_STAGES = {
    "ev": (2, 3, 4, 5, 6),
    "eh": (7, 8, 9, 10, 10),
    "ov": (19, 20, 21, 22, 23),
    "oh": (24, 25, 26, 27, 27),
}

# gauge-invariant cut points: each window composes blocks that share
# kept stators, so it is the finest partition restoring the ancillas
CHOREOGRAPHY_SUBSTEPS = (
    ("gm_ev", 1, GM_STAGES["ev"][-1]),
    ("gm_eh_plaq_even_gm_ov", GM_STAGES["eh"][0], GM_STAGES["ov"][-1]),
    ("gm_oh_plaq_odd", GM_STAGES["oh"][0], 34),
    ("mass_electric", 35, 35),
)

DIRECT_SUBSTEPS = (
    ("gm_ev", 1, 1),
    ("gm_eh", 2, 2),
    ("plaq_even", 3, 3),
    ("gm_ov", 4, 4),
    ("gm_oh", 5, 5),
    ("plaq_odd", 6, 6),
    ("mass", 7, 7),
    ("electric", 8, 8),
)


@dataclass(frozen=True)
class Schedule:
    """Ordered gate program for one Trotter step.

    substeps are half-open op-index ranges (label, start, stop) whose
    maps individually restore the ancillas and commute with the Gauss
    law.
    """

    layout: RegisterLayout
    ops: tuple[GateOp, ...]
    substeps: tuple[tuple[str, int, int], ...]
    # fused gate plans by op range (start, stop), built on first use
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def gate_count(self, include_idle: bool = False) -> int:
        return sum(1 for op in self.ops if include_idle or op.name != "idle")


# ---------------------------------------------------------------------------
# choreography emission helpers


def _ui_ops(stage_ops: dict[int, list[GateOp]], layout: RegisterLayout, link: Link,
            anc: int, stage: int, dagger: bool = False):
    """Q-type entangler as its collision realization (dft, U'!, dft!)."""
    lr = layout.link_index(link)
    mid = "collision_zz" if dagger else "collision_zz_dag"
    stage_ops[stage] += [
        GateOp("dft_link", (lr,), (), stage),
        GateOp(mid, (lr, anc), (COLLISION_ANGLE,), stage),
        GateOp("dft_link_dag", (lr,), (), stage),
    ]


def _gm_block(stage_ops: dict[int, list[GateOp]], layout: RegisterLayout, link: Link,
              anc: int, coeff: float, theta: float, theta_prime: float,
              create: str = "full", undo: str = "full"):
    """One gauge-matter block at its class's GM_STAGES: P-stator, tunneling, teardown.

    create "convert" reuses a Q-stator already sitting on the link
    (emits only the ancilla basis change); undo "keep" leaves it there.
    """
    geom = layout.geometry
    s_create, s_fa, s_tun, s_flip, s_undo = GM_STAGES[geom.link_class(link)]
    f_o = layout.fermion_index(link[0])
    f_h = layout.fermion_index(geom.link_head(link))
    if create == "full":
        _ui_ops(stage_ops, layout, link, anc, s_create)
    stage_ops[s_create].append(GateOp("dft_anc", (anc,), (), s_create))
    stage_ops[s_fa].append(GateOp("fermion_anc_phase", (f_o, anc), (), s_fa))
    stage_ops[s_fa].append(GateOp("occupation_phase", (f_o,), (theta,), s_fa))
    stage_ops[s_tun].append(GateOp("tunnel", tuple(range(f_o, f_h + 1)), (coeff,), s_tun))
    stage_ops[s_flip] += [
        GateOp("flip_anc", (anc,), (), s_flip),
        GateOp("fermion_anc_phase", (f_o, anc), (), s_flip),
        GateOp("flip_anc", (anc,), (), s_flip),
        GateOp("occupation_phase", (f_o,), (theta_prime,), s_flip),
    ]
    stage_ops[s_undo].append(GateOp("dft_anc_dag", (anc,), (), s_undo))
    if undo == "full":
        _ui_ops(stage_ops, layout, link, anc, s_undo, dagger=True)


# plaquette sandwich rows per parity (is_even): (stage, boundary link 1-4 in
# plaquette_links order or 0 for anc_drive, adjoint).  The even sandwich
# (11-17) assembles around the U1 its horizontal block kept; the odd one
# (28-34) starts with U1, and direct mode emits it for every plaquette
PLAQUETTE_ROWS = {
    True: ((11, 2, False), (12, 3, True), (13, 4, True), (14, 0, False),
           (15, 1, True), (16, 3, False), (17, 4, False)),
    False: ((28, 1, False), (29, 2, False), (30, 3, True), (30, 4, True), (31, 0, False),
            (32, 4, False), (32, 3, False), (33, 2, True), (34, 1, True)),
}


def _plaquette_ops(stage_ops: dict[int, list[GateOp]], layout: RegisterLayout, p: Vertex,
                   anc: int, drive_coeff: float, u1_kept: bool = False):
    """The plaquette sandwich of p's parity; an odd one whose U1 is kept
    skips the first row."""
    links = [l for l, _ in layout.geometry.plaquette_links(p)]
    for stage, k, adjoint in PLAQUETTE_ROWS[is_even(p)][1 if u1_kept else 0:]:
        if k:
            _ui_ops(stage_ops, layout, links[k - 1], anc, stage, adjoint)
        else:
            stage_ops[stage].append(GateOp("anc_drive", (anc,), (drive_coeff,), stage))


def _add_mass_electric(stage_ops: dict[int, list[GateOp]], layout: RegisterLayout,
                       cpl: Couplings, h: float, electric_time: float | None,
                       s_mass: int, s_electric: int):
    """Staggered mass phases, then the electric gates unless electric_time is None."""
    geom = layout.geometry
    for v in geom.vertices:
        sign = 1.0 if is_even(v) else -1.0
        stage_ops[s_mass].append(GateOp("mass_phase", (layout.fermion_index(v),),
                                        (h * cpl.mass * sign,), s_mass))
    if electric_time is None:
        return
    e_name = "electric_group" if cpl.h_e_variant == "group" else "electric_z3"
    for l in geom.links:
        stage_ops[s_electric].append(GateOp(e_name, (layout.link_index(l),),
                                            (electric_time * cpl.lambda_e,), s_electric))


def _flatten(stage_ops: dict[int, list[GateOp]]) -> list[GateOp]:
    """Stages in order, an idle marker for each empty one."""
    ops: list[GateOp] = []
    for s in sorted(stage_ops):
        ops.extend(stage_ops[s] or [GateOp("idle", (), (), s)])
    return ops


def _choreography_ops(layout: RegisterLayout, cpl: Couplings, h: float,
                      theta: float, theta_prime: float,
                      electric_time: float | None) -> list[GateOp]:
    geom = layout.geometry
    if layout.N != 3:
        raise ValueError("choreography mode realizes entanglers by spin-1 collisions; N must be 3")
    anc_regs = layout.ancilla_indices()
    if not anc_regs:
        raise ValueError("choreography mode needs at least one ancilla register")

    stage_ops: dict[int, list[GateOp]] = {s: [] for s in range(1, 36)}
    # busy[class] = ancillas serving suite blocks in its window; orphan blocks avoid them
    busy: dict[str, set[int]] = {cls: set() for cls in GM_STAGES}
    covered: set[Link] = set()
    handled_odd: set[Vertex] = set()

    gm_coeff = h * cpl.lambda_gm
    b_coeff = h * cpl.lambda_b

    for p in geom.plaquettes:
        if not is_even(p):
            continue
        anc = layout.ancilla_of_plaquette[p]
        q = (p[0] + 1, p[1])
        keep_oh = layout.ancilla_of_plaquette.get(q) == anc

        # the suite's blocks at their GM_STAGES, around the stage 11-17 sandwich
        suite = [((p, 2), {}), ((p, 1), {"undo": "keep"}), ((q, 2), {"create": "convert"})]
        if geom.link_exists((q, 1)):
            suite.append(((q, 1), {"undo": "keep" if keep_oh else "full"}))
        for link, ends in suite:
            _gm_block(stage_ops, layout, link, anc, gm_coeff, theta, theta_prime, **ends)
            covered.add(link)
            busy[geom.link_class(link)].add(anc)
        _plaquette_ops(stage_ops, layout, p, anc, b_coeff)

        if keep_oh:
            _plaquette_ops(stage_ops, layout, q, anc, b_coeff, u1_kept=True)
            handled_odd.add(q)

    for q in geom.plaquettes:
        if not is_even(q) and q not in handled_odd:
            _plaquette_ops(stage_ops, layout, q, layout.ancilla_of_plaquette[q], b_coeff)

    # self-contained blocks for links no suite reached, one distinct free
    # ancilla each; overflow beyond the free pool runs as sequential whole
    # blocks at the end of a stage where every ancilla is provably restored
    # (the end of the ev window for the even classes, of the ov window for
    # the odd), which nothing appends to after this loop.  Same-class
    # blocks commute, so either placement is exact.
    for cls in GM_STAGES:
        links = [l for l in geom.links if geom.link_class(l) == cls and l not in covered]
        free = [a for a in anc_regs if a not in busy[cls]]
        slot = GM_STAGES["ev" if cls[0] == "e" else "ov"][-1]
        for i, link in enumerate(links):
            if i < len(free):
                _gm_block(stage_ops, layout, link, free[i], gm_coeff, theta, theta_prime)
            else:
                block: dict[int, list[GateOp]] = {s: [] for s in GM_STAGES[cls]}
                _gm_block(block, layout, link, anc_regs[i % len(anc_regs)], gm_coeff,
                          theta, theta_prime)
                stage_ops[slot] += _flatten(block)

    # phase sweeps completing each parity class (sites that are not the
    # origin of any link of the class still need both angles once)
    for cls, stages in GM_STAGES.items():
        origins = {l[0] for l in geom.links if geom.link_class(l) == cls}
        stage = stages[3]
        for v in geom.vertices:
            if is_even(v) != (cls[0] == "e") or v in origins:
                continue
            f = layout.fermion_index(v)
            stage_ops[stage].append(GateOp("occupation_phase", (f,), (theta,), stage))
            stage_ops[stage].append(GateOp("occupation_phase", (f,), (theta_prime,), stage))

    _add_mass_electric(stage_ops, layout, cpl, h, electric_time, 35, 35)
    return _flatten(stage_ops)


def _direct_ops(layout: RegisterLayout, cpl: Couplings, h: float,
                electric_time: float | None) -> list[GateOp]:
    geom = layout.geometry
    stage = {label: lo for label, lo, _ in DIRECT_SUBSTEPS}
    stage_ops: dict[int, list[GateOp]] = {s: [] for s in stage.values()}
    gm_coeff = h * cpl.lambda_gm
    b_coeff = h * cpl.lambda_b

    for l in geom.links:
        s = stage["gm_" + geom.link_class(l)]
        f_o = layout.fermion_index(l[0])
        f_h = layout.fermion_index(geom.link_head(l))
        lr = layout.link_index(l)
        stage_ops[s] += [
            GateOp("uw_dag", (lr, f_o), (), s),
            GateOp("tunnel", tuple(range(f_o, f_h + 1)), (gm_coeff,), s),
            GateOp("uw", (lr, f_o), (), s),
        ]

    # every plaquette runs the self-contained odd sandwich in its parity's
    # one stage, each entangler row as one q_entangler
    for p in geom.plaquettes:
        s = stage["plaq_even" if is_even(p) else "plaq_odd"]
        anc = layout.ancilla_of_plaquette[p]
        links = [l for l, _ in geom.plaquette_links(p)]
        for _, k, adjoint in PLAQUETTE_ROWS[False]:
            op = (GateOp("q_entangler", (layout.link_index(links[k - 1]), anc), (), s) if k
                  else GateOp("anc_drive", (anc,), (b_coeff,), s))
            stage_ops[s].append(op.dagger() if adjoint else op)

    _add_mass_electric(stage_ops, layout, cpl, h, electric_time, stage["mass"],
                       stage["electric"])
    return _flatten(stage_ops)


def _substep_ranges(ops: list[GateOp], windows) -> tuple[tuple[str, int, int], ...]:
    out = []
    for label, lo, hi in windows:
        idx = [i for i, op in enumerate(ops) if lo <= op.stage <= hi]
        if idx:
            if len(idx) != idx[-1] + 1 - idx[0]:
                raise ValueError(f"substep window {label} is not contiguous")
            out.append((label, idx[0], idx[-1] + 1))
    return tuple(out)


def compile_step(layout: RegisterLayout, couplings: Couplings, tau: float,
                 mode: str = "choreography", order: int = 1, *,
                 theta: float = 0.0, theta_prime: float = 0.0) -> Schedule:
    """Compile one Trotter step of duration tau into a Schedule.

    Order 1 applies the eight Hamiltonian pieces once each; order 2 is
    the palindromic doubling at tau/2 with the electric close-out merged
    into a single full-tau application at the center.  The mirror half
    is emitted as the reversed adjoint of a step compiled at -tau/2
    (same theta angles), which reproduces each piece at +tau/2 while
    unwinding every kept stator exactly.  With nonzero angles both
    halves then carry the same spurious field, so the order-2 map is
    the plain conjugation of the unphased one by gauge_away_phases with
    no leftover central factor.
    """
    if mode not in ("choreography", "direct"):
        raise ValueError(f"mode must be choreography|direct, got {mode!r}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")

    def emit(h, e_time):
        if mode == "choreography":
            return _choreography_ops(layout, couplings, h, theta, theta_prime, e_time)
        return _direct_ops(layout, couplings, h, e_time)

    windows = CHOREOGRAPHY_SUBSTEPS if mode == "choreography" else DIRECT_SUBSTEPS
    if order == 1:
        ops = emit(tau, tau)
        substeps = _substep_ranges(ops, windows)
    else:
        fwd = emit(tau / 2, tau)
        mirror_src = emit(-tau / 2, None)
        ops = fwd + [op.dagger() for op in reversed(mirror_src)]
        # the mirror's substeps, each reversed onto its place in ops
        substeps = _substep_ranges(fwd, windows) + tuple(
            ("mirror_" + label, len(ops) - b, len(ops) - a)
            for label, a, b in reversed(_substep_ranges(mirror_src, windows)))

    return Schedule(layout, tuple(ops), substeps)


# ---------------------------------------------------------------------------
# execution


@lru_cache(maxsize=4096)
def _cached_gate(name: str, params: tuple[float, ...], dims: tuple[int, ...]) -> np.ndarray:
    m = gate_matrix(name, params, dims)
    m.setflags(write=False)
    return m


# members kept per process, shared by every schedule and call that reads
# them; one 2x2 map reads a few hundred
@lru_cache(maxsize=512)
def _member(dims: tuple[int, ...], v: int, name: str, params: tuple[float, ...],
            targets: tuple[int, ...]) -> GateGroup:
    """The checked group of one gate on registers `dims`, whose first v are
    the fermion modes.  Any nonzero gate entry between different
    occupation counts of its fermion targets raises ValueError."""
    targets = check_targets(dims, targets)
    tdims = tuple(dims[t] for t in targets)
    gate = _cached_gate(name, params, tdims)
    group = gate_group(dims, gate, targets)
    fermions = [i for i, t in enumerate(targets) if t < v]
    count = np.indices(tdims).reshape(len(tdims), -1)[fermions].sum(axis=0)
    if gate[count[:, None] != count[None, :]].any():
        raise ValueError(f"{name} on registers {targets} changes the fermion number")
    return group


def _fuse(layout: RegisterLayout, ops) -> tuple[GateGroup, ...]:
    """Greedy fusion of consecutive non-idle ops into checked gate groups.

    A dft op is checked and then only moves its register's Fourier frame;
    every other op joins as its exact conjugate by the frames of its
    targets (`stators.framed_op`), so the plan equals the op product once
    every frame is closed.  ValueError when a frame is still open after
    the last op.  A register is a control of a group when every member
    that targets it leaves it a control, so the product keeps their exact
    zeros.  A group grows while its block entries C*A**2 stay within
    _FUSE_MAX_DIM**2, which bounds both the transient block stack that
    `_stack` checks and the C*A*w entries its identity columns produce.
    """
    dims = layout.dims
    v = len(layout.geometry.vertices)
    frames: dict[int, int] = {}
    groups: list[GateGroup] = []
    members: list[GateGroup] = []
    for op in ops:
        if op.name == "idle":
            continue
        if op.name in FRAME_STEPS:
            _member(dims, v, op.name, op.params, op.targets)
            (t,) = op.targets
            frames[t] = (frames.get(t, 0) + FRAME_STEPS[op.name]) % 4
            continue
        op = framed_op(op, tuple(frames.get(t, 0) for t in op.targets))
        member = _member(dims, v, op.name, op.params, op.targets)
        controls, active = _split(members + [member])
        c_dim = math.prod(dims[t] for t in controls)
        a_dim = math.prod(dims[t] for t in active)
        if members and c_dim * a_dim ** 2 > _FUSE_MAX_DIM ** 2:
            groups.append(_stack(dims, members))
            members = []
        members.append(member)
    open_frames = {t: k for t, k in frames.items() if k}
    if open_frames:
        raise ValueError("Fourier frames open at the end of the op range: " + ", ".join(
            f"register {t} in frame {k}" for t, k in sorted(open_frames.items())))
    if members:
        groups.append(_stack(dims, members))
    return tuple(groups)


def _split(members: list[GateGroup]) -> tuple[list[int], list[int]]:
    """Controls and active registers of the product of `members`, each in
    order of first appearance."""
    union = list(dict.fromkeys(t for m in members for t in m.targets))
    active = {t for m in members for t in m.active}
    return [t for t in union if t not in active], [t for t in union if t in active]


def _stack(dims: tuple[int, ...], members: list[GateGroup]) -> GateGroup:
    """The checked group of the product of `members`, built without its
    joint matrix.

    The members run through `run_support` on the C*A identity columns of
    the group's registers (controls first), basis state j tagged by one
    more trailing register of dimension k = C*A that no member targets.
    Every nonzero is kept (tol 0.0), so the column lists keep the exact
    zeros of the product and nothing is dropped unaccounted; the output
    entries fill the (C, A, A) block stack that `block_group` checks and
    tables, which is then let go.
    """
    controls, active = _split(members)
    local = {t: i for i, t in enumerate(controls + active)}
    udims = tuple(dims[t] for t in controls + active)
    c_dim = math.prod(udims[:len(controls)])
    a_dim = math.prod(udims[len(controls):])
    k = c_dim * a_dim
    moved = [GateGroup(tuple(local[t] for t in m.controls), tuple(local[t] for t in m.active),
                       m.rows, m.values) for m in members]
    j = np.arange(k)
    index, values, _ = run_support(moved, udims + (k,), j * k + j,
                                   np.ones(k, dtype=np.complex128), tol=0.0)
    row, column = np.divmod(index, k)
    blocks = np.zeros((c_dim, a_dim, a_dim), dtype=np.complex128)
    blocks[column // a_dim, row % a_dim, column % a_dim] = values
    return block_group(dims, controls, active, blocks)


def _plan(schedule: Schedule, op_range: tuple[int, int] | None = None):
    """The fused plan of the op range, built on first use and kept on the
    schedule, keyed by (lo, hi)."""
    lo, hi = op_range if op_range is not None else (0, len(schedule.ops))
    key = slice(lo, hi).indices(len(schedule.ops))[:2]
    plan = schedule._plans.get(key)
    if plan is None:
        plan = schedule._plans[key] = _fuse(schedule.layout, schedule.ops[key[0]:key[1]])
    return plan


def execute_support(schedule: Schedule, index: np.ndarray,
                    amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the step's fused plan on a state given on its support: full-space
    basis indices and their amplitudes.  Returns the new support and the
    norm `lattice.run_support` dropped."""
    return run_support(_plan(schedule), schedule.layout.dims, index, amplitudes)


def schedule_physical_map(schedule: Schedule,
                          op_range: tuple[int, int] | None = None) -> np.ndarray:
    """Dense physical-space matrix of (a slice of) the schedule.

    Ancillas enter in |in~>, the uniform vector over their A joint values
    (the trailing digits), and are projected back onto it at the end,
    which is exact whenever the slice restores them (every substep does).

    The plan runs on the support of the identity columns, held by one
    more trailing register of dimension k that no gate targets, each
    column's A entries at 1/sqrt(A); each output entry adds over sqrt(A)
    at (its row // A, its column's physical index).  Every gate keeps the
    fermion number, so every entry between two fermion numbers is an
    exact zero.  RuntimeError once the norm the support kernel dropped
    exceeds NORM_TOL.
    """
    layout = schedule.layout
    anc = layout.ancilla_dim
    v = len(layout.geometry.vertices)
    rest = layout.physical_dim >> v
    dims = layout.dims
    plan = _plan(schedule, op_range)
    full = np.zeros((layout.physical_dim,) * 2, dtype=np.complex128)
    dropped = 0.0
    for n in range(v + 1):
        # the columns run one fermion number at a time, which bounds the
        # support held at once: the physical indices with n fermions
        columns = (np.flatnonzero(_occupation(v) == n)[:, None] * rest
                   + np.arange(rest)).reshape(-1)
        k = columns.size
        # column j's entries at (its physical index * A + ancilla value) * k + j
        index = ((columns * anc)[:, None] + np.arange(anc)) * k + np.arange(k)[:, None]
        index, values, lost = run_support(plan, dims + (k,), index.reshape(-1),
                                          np.full(k * anc, 1 / math.sqrt(anc), dtype=np.complex128))
        dropped += lost
        row, column = np.divmod(index, k)
        np.add.at(full, (row // anc, columns[column]), values / math.sqrt(anc))
    if dropped > NORM_TOL:
        raise RuntimeError(f"the support kernel dropped a norm of {dropped:.3e} from the "
                           f"map, over NORM_TOL = {NORM_TOL:g}")
    return full


# ---------------------------------------------------------------------------
# spurious-phase bookkeeping


def spurious_phase_field(layout: RegisterLayout, theta: float,
                         theta_prime: float) -> dict[Link, float]:
    """Per-link U(1) phases accumulated by the phased choreography.

    Values follow from commuting every occupation phase through the
    tunneling couplings of one full step (the full-parity sweeps make
    the pattern uniform on open boundaries):

        even horizontal  2 theta + theta'
        even vertical    theta
        odd horizontal   -theta'
        odd vertical     -(theta + 2 theta')

    The product also carries the central factor
    exp(-i 2 (theta + theta') N_total), a global phase at fixed fermion
    number.
    """
    table = {
        "eh": 2 * theta + theta_prime,
        "ev": theta,
        "oh": -theta_prime,
        "ov": -(theta + 2 * theta_prime),
    }
    geom = layout.geometry
    return {l: table[geom.link_class(l)] for l in geom.links}


def plaquette_curl(layout: RegisterLayout, field: dict[Link, float], p: Vertex) -> float:
    """Oriented phase sum around one plaquette."""
    total = 0.0
    for link, orient in layout.geometry.plaquette_links(p):
        total += orient * field[link]
    return total


def solve_vertex_potential(layout: RegisterLayout,
                           field: dict[Link, float]) -> dict[Vertex, float]:
    """Vertex potential with field(x,k) = Lambda(x+k) - Lambda(x), rooted at 0.

    Summed up column 0, then rightward along each row; every link is then
    checked, so a non-gradient field (nonzero curl somewhere) raises.
    """
    geom = layout.geometry
    lam: dict[Vertex, float] = {}
    for x1, x2 in geom.vertices:    # row-major: the left or lower neighbour comes first
        if x1:
            lam[(x1, x2)] = lam[(x1 - 1, x2)] + field[((x1 - 1, x2), 1)]
        elif x2:
            lam[(0, x2)] = lam[(0, x2 - 1)] + field[((0, x2 - 1), 2)]
        else:
            lam[(0, 0)] = 0.0
    for link in geom.links:
        head = geom.link_head(link)
        resid = abs(lam[head] - lam[link[0]] - field[link])
        if resid > GRADIENT_TOL:
            raise ValueError(f"field is not a gradient: residual {resid:.3e} on link {link}")
    return lam


def gauge_away_phases(layout: RegisterLayout, Lambda: dict[Vertex, float]) -> np.ndarray:
    """Diagonal unitary G = exp(-i sum_x Lambda(x) n_x) on the physical space.

    Returned as the diagonal (length physical_dim); conjugating the
    unphased step by G, together with a global phase on fixed-number
    states, reproduces the phased one.
    """
    geom = layout.geometry
    missing = [v for v in geom.vertices if v not in Lambda]
    if missing:
        raise ValueError(f"Lambda missing vertices {missing}")
    factors = {layout.fermion_index(v): np.diag([1.0, np.exp(-1j * Lambda[v])])
               for v in geom.vertices}
    return monomial_map(layout.physical_dims, factors)[1]


# ---------------------------------------------------------------------------
# serialization


def dump_schedule(schedule: Schedule) -> str:
    """One gate per line: stage, name, comma-joined targets, parameters."""
    lines = []
    for op in schedule.ops:
        targets = ",".join(str(t) for t in op.targets)
        params = ",".join("%.17g" % p for p in op.params)
        lines.append(f"{op.stage}\t{op.name}\t{targets}\t{params}")
    return "\n".join(lines) + "\n"
