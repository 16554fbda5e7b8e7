"""Span recording for the traced benchmark run.

The tracer replaces public zngauge functions, at the module attributes the
drivers look them up by, with wrappers that record one span per call:
name, parent span, start and end.  Spans stay in memory; the caller writes
them out when the run ends.  Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

# (module under zngauge, attribute, span name).  The span name's prefix is
# the layer, i.e. the zngauge module that defines the function.
PATCHES = (
    ("drivers", "flux_sector_probabilities", "drivers.flux_sector_probabilities"),
    ("drivers", "build_global_singlet", "lattice.build_global_singlet"),
    ("drivers", "ancilla_restoration_fidelity", "lattice.ancilla_restoration_fidelity"),
    ("drivers", "project_ancillas", "lattice.project_ancillas"),
    ("drivers", "gauss_expectations", "algebra.gauss_expectations"),
    ("drivers", "total_hamiltonian", "algebra.total_hamiltonian"),
    ("drivers", "compile_step", "schedule.compile_step"),
    ("drivers", "execute", "schedule.execute"),
    ("drivers", "schedule_physical_map", "schedule.schedule_physical_map"),
    ("drivers", "total_fermion_number", "schedule.total_fermion_number"),
    ("drivers", "diamond_surrogate_distance", "oracle.diamond_surrogate_distance"),
    ("drivers", "exact_norm_sum", "oracle.exact_norm_sum"),
    ("drivers", "trotter_bound", "oracle.trotter_bound"),
    ("drivers", "bound_validity", "oracle.bound_validity"),
    ("drivers", "build_layout", "lattice.build_layout"),
    ("config", "build_layout", "lattice.build_layout"),
    ("schedule", "execute_array", "schedule.execute_array"),
    ("schedule", "gate_matrix", "stators.gate_matrix"),
    ("schedule", "lift_physical", "lattice.lift_physical"),
    ("schedule", "project_ancillas", "lattice.project_ancillas"),
    ("oracle", "spectral_norm", "oracle.spectral_norm"),
    ("oracle", "term_matrix", "algebra.term_matrix"),
    ("oracle", "lift_physical", "lattice.lift_physical"),
    ("oracle", "project_ancillas", "lattice.project_ancillas"),
    ("oracle.ExactEvolver", "__init__", "oracle.ExactEvolver"),
    ("oracle.ExactEvolver", "propagator", "oracle.propagator"),
    ("oracle.ExactEvolver", "evolve", "oracle.evolve"),
)

LAYERS = ("lattice", "algebra", "stators", "schedule", "oracle", "drivers")


class Tracer:
    """In-memory span recorder plus the executor calls needed for kernel counts."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent index or None, start, end]
        self.errors: Counter = Counter()
        self.kernel_calls: list[tuple] = []   # (schedule, op_range, amplitude count)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "schedule.execute_array":
                self._record_kernel_call(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [name, parent, time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
        return traced

    def _record_kernel_call(self, schedule, amplitudes, op_range=None):
        self.kernel_calls.append((schedule, op_range, int(np.size(amplitudes))))

    def install(self, zngauge):
        """Swap every patch point for its traced wrapper; missing ones are reported."""
        for mod, attr, name in PATCHES:
            owner = zngauge
            for part in mod.split("."):
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                print(f"trace: zngauge.{mod}.{attr} not found; not traced", file=sys.stderr)
                continue
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for (name, _, t0, t1), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (t1 - t0) - c
        return out

    def dump(self) -> list[list]:
        return [[n, p, round(t0, 9), round(t1, 9)] for n, p, t0, t1 in self.spans]


def kernel_counts(kernel_calls, gate_matrix) -> dict:
    """Gate census and computed kernel work over the executed Schedule.ops.

    Per applied gate on A amplitudes (batch included): a diagonal gate costs
    one complex multiply per amplitude (6 flop), a dense d x d gate a length-d
    complex dot product (8d - 2 flop).  Bytes assume the array is read and
    written once per gate (32 B per amplitude).  Both are computed from the
    gate list and the layout dims, not measured.
    """
    diag_memo: dict[tuple, bool] = {}
    by_name: Counter = Counter()
    diagonal = dense = 0
    flops = bytes_ = 0.0
    for sched, op_range, amps in kernel_calls:
        dims = tuple(int(d) for d in sched.layout.dims)
        lo, hi = op_range if op_range is not None else (0, len(sched.ops))
        for op in sched.ops[lo:hi]:
            if op.name == "idle":
                continue
            tdims = tuple(dims[t] for t in op.targets)
            key = (op.name, op.params, tdims)
            if key not in diag_memo:
                m = gate_matrix(op.name, op.params, tdims)
                diag_memo[key] = not np.any(m - np.diag(np.diag(m)))
            d = int(np.prod(tdims))
            by_name[op.name] += 1
            if diag_memo[key]:
                diagonal += 1
                flops += 6.0 * amps
            else:
                dense += 1
                flops += (8.0 * d - 2.0) * amps
            bytes_ += 32.0 * amps
    return {"by_name": dict(sorted(by_name.items())), "diagonal": diagonal,
            "dense": dense, "flops": flops, "bytes": bytes_}
