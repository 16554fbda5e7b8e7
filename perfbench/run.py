"""zngauge benchmark: whole driver calls per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload scan-2x2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 0     # every workload, in turn

Each workload calls one public driver of zngauge in this process, drawing a
fresh coupling point per call from --seed, for about --seconds seconds (at
least one call).  Outputs are checked after each call, outside the timed
region.  --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced calls and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with its
unit, every check, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Fresh interpreters timed per untraced run, half before the driver calls and
# half after them, so that the median spans the run rather than a few seconds
# of the host's speed.
SETUP_REPEATS = 20

SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); import zngauge; "
              "zngauge.SimulationConfig(**{fixed!r}).build_geometry()")


def measure_setup(fixed: dict, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing zngauge and building the
    workload's layout, i.e. everything before the first driver call."""
    code = SETUP_CODE.format(src=str(SRC), fixed=fixed)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def _blas_threads():
    import ctypes
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def environment() -> dict:
    import platform
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "cpu_count": os.cpu_count(), "caches": _cache_sizes()}


def _error_name(exc: BaseException) -> str:
    return "error:" + traceback.extract_tb(exc.__traceback__)[-1].name


def run_calls(z, wl, seed: int, seconds: float, tracer=None) -> list[dict]:
    """Call the driver until the next call would overrun `seconds`.

    With a tracer, an untraced warm-up call is followed by pairs: a traced
    call on a fresh coupling point, then an untraced call on the same point,
    so that the pair's difference is the tracing overhead.  At least one
    pair is made.  Returns one record per call.
    """
    driver = getattr(z.drivers, wl.driver)
    out_dir = str(OUT / wl.name)
    configs = wl.configs(seed)
    calls: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(calls) % 2 == 1
        partner = tracer is not None and not traced and bool(calls)
        cfg = calls[-1]["cfg"] if partner else next(configs)
        fn = tracer.wrap(f"drivers.{wl.driver}", driver) if traced else driver
        if traced:
            tracer.install(z)
        rows, failures = None, []
        t0 = time.perf_counter()
        try:
            rows = fn(cfg, out_dir)
        except RuntimeError as exc:
            failures.append(_error_name(exc))
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if rows is not None:
            failures += [name for name, ok in wl.check(cfg, rows).items() if not ok]
        calls.append({"cfg": cfg, "rows": rows, "s": elapsed, "traced": traced,
                      "failures": failures})
        if tracer is not None and (traced or len(calls) < 3):
            continue
        step = max(c["s"] for c in calls) * (1 if tracer is None else 2)
        if time.perf_counter() - start + step > seconds:
            return calls


def run_check(z, wl, calls: list[dict]):
    """The once-per-run check, on the first call that returned rows."""
    done = [c for c in calls if c["rows"] is not None]
    if wl.run_check is None or not done:
        return
    call = done[0]
    name = wl.run_check.__name__.lstrip("_")
    try:
        ok = wl.run_check(z, call["cfg"], call["rows"])
    except RuntimeError as exc:
        call["failures"].append(f"{name}:{_error_name(exc)}")
        return
    if not ok:
        call["failures"].append(name)


def _median_s(calls: list[dict]) -> float:
    ok = [c["s"] for c in calls if not c["failures"]] or [c["s"] for c in calls]
    return statistics.median(ok)


def tail_line(calls: list[dict]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    times = sorted(c["s"] for c in calls)
    n = len(times)
    if n <= 10:
        return f"call_s.tail n/a ({n} calls; needs more than 10)"
    k = n - 11
    return f"call_s.tail {times[k]:.6g} s (p{100 * (k + 1) / n:.1f} of {n} calls)"


def per_layer_metrics(z, wl, calls, tracer) -> tuple[dict, dict]:
    from spans import LAYERS, kernel_counts
    traced = [c for c in calls if c["traced"]]
    pairs = list(zip(traced, calls[2::2]))
    n = len(traced)
    self_s = {k: v / n for k, v in tracer.self_times().items()}
    kern = kernel_counts(tracer.kernel_calls, z.stators.gate_matrix)
    gates = (kern["diagonal"] + kern["dense"]) / n
    exec_s = self_s.get("schedule.execute_array", 0.0)
    gm_calls = sum(1 for s in tracer.spans if s[0] == "stators.gate_matrix") / n
    values = {
        "trace.call_s.p50": _median_s(traced),
        "trace.overhead_s": statistics.median(t["s"] - u["s"] for t, u in pairs),
        "schedule.gates_applied": gates,
        "schedule.gates_diagonal": kern["diagonal"] / n,
        "schedule.gates_dense": kern["dense"] / n,
        "schedule.kernel_flops": kern["flops"] / n,
        "schedule.kernel_bytes": kern["bytes"] / n,
        "schedule.kernel_gflops": kern["flops"] / n / exec_s / 1e9 if exec_s else 0.0,
        "stators.gate_matrix.calls": gm_calls,
        "stators.gate_cache_hit_ratio": 1.0 - gm_calls / gates if gates else 0.0,
        "oracle.spectral_norm.errors": tracer.errors["oracle.spectral_norm"] / n,
        "drivers.self.s": self_s[f"drivers.{wl.driver}"],
    }
    for layer in LAYERS:
        values[f"{layer}.s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    for name, v in self_s.items():
        values.setdefault(name + ".s", v)
    detail = {"gates_by_name_per_call": {k: v / n for k, v in kern["by_name"].items()},
              "accounted_s": sum(self_s.values()),
              "traced_call_mean_s": statistics.fmean(c["s"] for c in traced),
              "pairs": len(pairs)}
    return values, detail


def select(values: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order; absent spans read 0."""
    out = {}
    for m in spec:
        v = values.get(m["name"])
        if v is None and not m["name"].endswith(".s"):
            raise KeyError(f"metric {m['name']} was not computed")
        out[m["name"]] = {"value": float(v or 0.0), "unit": m["unit"]}
    return out


def run_one(args) -> int:
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_times = [] if args.trace else measure_setup(wl.fixed, SETUP_REPEATS // 2)

    sys.path.insert(0, str(SRC))
    import zngauge
    if Path(zngauge.__file__).resolve().parent != SRC / "zngauge":
        print(f"error: imported zngauge from {zngauge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if wl.prepare is not None:
        wl.prepare(zngauge)
    (OUT / wl.name).mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    calls = run_calls(zngauge, wl, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup_times += measure_setup(wl.fixed, SETUP_REPEATS - len(setup_times))
    run_check(zngauge, wl, calls)

    if args.trace:
        values, detail = per_layer_metrics(zngauge, wl, calls, tracer)
        metrics = select(values, spec["per_layer"])
        trace_file = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": wl.name, "seed": args.seed,
                                          "spans": tracer.dump(), "detail": detail}))
        print(f"trace: {len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")
        print(f"trace: layer self times sum to {detail['accounted_s']:.6g} s per traced "
              f"call, of {detail['traced_call_mean_s']:.6g} s mean traced call time")
        print("trace: gates per call by name " + json.dumps(detail["gates_by_name_per_call"]))
        print("trace: kernel_flops and kernel_bytes are computed from the gate list, "
              "not measured")
    else:
        metrics = select({"setup_s": statistics.median(setup_times),
                          "call_s.p50": _median_s(calls), "peak_rss_mb": peak_rss_mb},
                         spec["end_to_end"])

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(calls)} calls in {sum(c['s'] for c in calls):.3f} s")
    print("calls: " + " ".join(f"{c['s']:.4f}{'t' if c['traced'] else ''}" for c in calls))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    failed = [c for c in calls if c["failures"]]
    if not args.trace:
        print("metric " + tail_line(calls))
        print(f"metric failed_frac {len(failed) / len(calls):.6g} "
              f"({len(failed)} of {len(calls)} calls)")
    counts: dict[str, int] = {}
    for c in failed:
        for f in c["failures"]:
            counts[f] = counts.get(f, 0) + 1
    print(f"checks: {len(failed)} of {len(calls)} calls failed"
          + "".join(f"; {k} x{v}" for k, v in sorted(counts.items())))
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(calls),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zngauge" / "__init__.py").is_file():
        print(f"error: no zngauge package under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
