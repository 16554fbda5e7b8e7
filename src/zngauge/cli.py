"""Command line front end: five experiment drivers behind one parser.

Every subcommand reads an optional JSON config, runs one driver, and
exits 0 only when every assertion in that driver passed.  Output files
land in --out; without it the drivers run in memory and print summaries.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import SimulationConfig, load_config
from .drivers import (OPTICAL_ORTHOGONALITY_TOL, run_compile, run_optical_scan, run_quench,
                      run_trotter_scan, run_verification_suite)

_SUBCOMMANDS = (
    ("verify", "run the cross-module invariant battery"),
    ("quench", "evolve the global singlet and record the trajectory"),
    ("trotter-scan", "sweep step counts against the exact propagator"),
    ("compile", "dump one Trotter step as a gate schedule"),
    ("optical", "sweep polarization validity and dump optical series"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zngauge",
        description="Exact simulator and gate-schedule compiler for "
                    "Z_N lattice gauge theory with staggered fermions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file; omitted fields take defaults")
        p.add_argument("--out", metavar="DIR",
                       help="directory for CSV output and the run manifest")
        p.add_argument("--seed", type=int, metavar="INT",
                       help="override the config seed")
        if name == "quench":
            p.add_argument("--shots", type=int, default=0, metavar="INT",
                           help="projective samples of the final state")
    return parser


def _load(args: argparse.Namespace) -> SimulationConfig:
    config = load_config(args.config) if args.config else SimulationConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "quench" and args.shots < 0:
            raise ValueError(f"--shots must be >= 0, got {args.shots}")
        config = _load(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return _run(args, config)
    except (MemoryError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace, config: SimulationConfig) -> int:
    if args.command == "verify":
        all_pass, checks = run_verification_suite(config, args.out)
        for c in checks:
            print(c.line())
        print(f"overall: {'PASS' if all_pass else 'FAIL'}")
        return 0 if all_pass else 1

    if args.command == "quench":
        rows = run_quench(config, args.out, shots=args.shots)
        last = rows[-1]
        print(f"steps={len(rows)} t={last['time']:.6g} "
              f"gauss_max={last['gauss_max_deviation']:.3e} "
              f"fermions={last['fermion_number']:.9g}")
        if "fidelity_exact" in last:
            print(f"final fidelity vs exact evolution: {last['fidelity_exact']:.9f}")
        return 0

    if args.command == "trotter-scan":
        rows = run_trotter_scan(config, args.out)
        print("n_steps  distance      bound         valid  gates")
        for r in rows:
            print(f"{r['n_steps']:7d}  {r['distance']:.6e}  {r['bound']:.6e}  "
                  f"{r['bound_valid']:5d}  {r['gate_count']:5d}")
        dists = [r["distance"] for r in rows]
        dominated = all(r["distance"] <= r["bound"] for r in rows)
        monotone = all(a > b for a, b in zip(dists, dists[1:]))
        return 0 if (dominated and monotone) else 1

    if args.command == "compile":
        text = run_compile(config, args.out)
        if args.out is None:
            sys.stdout.write(text)
        else:
            print(f"schedule written ({len(text.splitlines())} lines)")
        return 0

    if args.command == "optical":
        rows = run_optical_scan(config, args.out)
        n_valid = sum(r["valid"] for r in rows)
        worst = max(r["max_cross_dot"] for r in rows if r["valid"])
        print(f"xi grid points: {len(rows)}, valid: {n_valid}, "
              f"worst cross dot on valid points: {worst:.3e}")
        return 0 if worst < OPTICAL_ORTHOGONALITY_TOL else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
