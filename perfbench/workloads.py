"""The benchmark workloads: seeded inputs, one public driver call, output checks.

Every call draws a fresh coupling point (lambda_e, lambda_b, lambda_gm, mass)
from the workload seed; the driver receives only the resulting
SimulationConfig.  Checks run outside the timed region and return a mapping
check name -> passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

COUPLING_RANGE = (0.5, 1.5)
TOL = 1e-10

# Step counts for scan-2x2: the two ends of the driver's default grid
# (4, 8, 16, 32, 64).  One choreography map costs about 7.5 s on a 2-CPU
# host, so the full five-point grid (about 50 s a call) would not fit the
# run budget; two points keep the oracle, the executor and the
# distance-decrease check.
SCAN_STEPS = (4, 64)


def _draw_couplings(rng: np.random.Generator) -> dict:
    e, b, gm, m = rng.uniform(*COUPLING_RANGE, size=4)
    return {"lambda_e": float(e), "lambda_b": float(b),
            "lambda_gm": float(gm), "mass": float(m)}


def _check_scan(cfg, rows: list[dict]) -> dict[str, bool]:
    dist = [r["distance"] for r in rows]
    return {
        "scan_points": [r["n_steps"] for r in rows] == list(SCAN_STEPS),
        "distances_decrease": all(a > b for a, b in zip(dist, dist[1:])),
    }


def _check_quench(cfg, rows: list[dict]) -> dict[str, bool]:
    n_odd = sum((x + y) % 2 for x in range(cfg.Lx) for y in range(cfg.Ly))
    flux_ok = True
    for r in rows:
        sums: dict[str, float] = {}
        for key, value in r.items():
            if key.startswith("flux_"):
                plaq = key.rsplit("_", 1)[0]
                sums[plaq] = sums.get(plaq, 0.0) + value
        flux_ok = flux_ok and bool(sums) and all(abs(s - 1.0) <= TOL for s in sums.values())
    checks = {
        "rows": len(rows) == cfg.n_steps,
        "gauss_deviation": all(r["gauss_max_deviation"] <= TOL for r in rows),
        "ancilla_restoration": all(r["ancilla_restoration"] >= 1 - TOL for r in rows),
        "fermion_number": all(abs(r["fermion_number"] - n_odd) <= TOL for r in rows),
        "flux_normalized": flux_ok,
    }
    if cfg.Lx * cfg.Ly <= 4:   # the driver adds fidelity_exact below ORACLE_DIM_LIMIT
        checks["fidelity_exact"] = all(
            0.0 < r.get("fidelity_exact", 0.0) <= 1.0 + 1e-12 for r in rows)
    return checks


def _direct_route_agrees(z, cfg, rows: list[dict]) -> bool:
    """At theta = theta' = 0 choreography and direct mode give the same map,
    so the scan's first distance must match the direct-mode one."""
    m = rows[0]["n_steps"]
    lay = z.lattice.build_layout(z.lattice.LatticeGeometry(2, 2), 3)
    cpl = cfg.couplings()
    target = z.oracle.ExactEvolver(z.algebra.total_hamiltonian(lay, cpl)).propagator(cfg.T)
    sched = z.schedule.compile_step(lay, cpl, cfg.T / m, "direct", cfg.order)
    step = z.schedule.schedule_physical_map(sched)
    dist = z.oracle.diamond_surrogate_distance(np.linalg.matrix_power(step, m), target,
                                               lay.physical_dim)
    return abs(dist - rows[0]["distance"]) <= TOL


def _use_scan_steps(z):
    if not hasattr(z.drivers, "SCAN_STEPS"):
        raise SystemExit("zngauge.drivers.SCAN_STEPS is gone; scan-2x2 cannot set its grid")
    z.drivers.SCAN_STEPS = SCAN_STEPS


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str                 # function name in zngauge.drivers
    fixed: dict                 # SimulationConfig fields shared by every call
    check: Callable             # (cfg, rows) -> {check: passed}, per call
    run_check: Callable | None = None   # (zngauge, cfg, rows) -> passed, once per run
    prepare: Callable | None = None     # (zngauge) -> None, before the first call

    def configs(self, seed: int):
        """Endless seeded stream of SimulationConfig arguments for the driver."""
        from zngauge.config import SimulationConfig
        rng = np.random.default_rng(seed)
        while True:
            yield SimulationConfig(**self.fixed, **_draw_couplings(rng), seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("scan-2x2", "run_trotter_scan",
             {"Lx": 2, "Ly": 2, "N": 3, "mode": "choreography", "order": 1, "T": 1.0},
             _check_scan, _direct_route_agrees, _use_scan_steps),
    Workload("quench-3x2", "run_quench",
             {"Lx": 3, "Ly": 2, "N": 3, "mode": "choreography", "order": 1,
              "T": 1.0, "n_steps": 2},
             _check_quench),
    Workload("sweep-2x2", "run_quench",
             {"Lx": 2, "Ly": 2, "N": 3, "mode": "direct", "order": 1,
              "T": 1.0, "n_steps": 10},
             _check_quench),
)}
