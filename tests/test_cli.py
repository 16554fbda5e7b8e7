"""Command line interface, exercised through real subprocesses."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "zngauge"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, **kwargs):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=600, **kwargs)


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides) + "\n")
    return str(path)


def test_compile_dump_to_stdout():
    proc = run_cli("compile")
    assert proc.returncode == 0
    lines = proc.stdout.strip("\n").split("\n")
    assert len(lines) == 98
    stage, name, targets, params = lines[0].split("\t")
    assert stage.isdigit() and name


def test_compile_direct_mode_to_directory(tmp_path):
    cfg = write_config(tmp_path, mode="direct", order=2)
    out = tmp_path / "out"
    proc = run_cli("compile", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0
    assert "schedule written (57 lines)" in proc.stdout
    assert (out / "schedule.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "direct"


def test_quench_runs_and_reruns_identically(tmp_path):
    cfg = write_config(tmp_path, n_steps=3, T=0.3)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    proc_a = run_cli("quench", "--config", cfg, "--out", str(out_a),
                     "--seed", "9", "--shots", "12")
    assert proc_a.returncode == 0, proc_a.stderr
    assert "final fidelity vs exact evolution:" in proc_a.stdout
    assert "steps=3" in proc_a.stdout
    proc_b = run_cli("quench", "--config", cfg, "--out", str(out_b),
                     "--seed", "9", "--shots", "12")
    assert proc_b.returncode == 0
    for name in ("trajectory.csv", "measurements.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    man = json.loads((out_a / "manifest.json").read_text())
    assert man["seed"] == 9


def test_trotter_scan_exit_code(tmp_path):
    cfg = write_config(tmp_path, mode="direct")
    proc = run_cli("trotter-scan", "--config", cfg)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0].startswith("n_steps")
    assert len(proc.stdout.strip().split("\n")) == 6


def test_trotter_scan_on_another_lattice_exits_2(tmp_path):
    proc = run_cli("trotter-scan", "--config", write_config(tmp_path, Lx=3, Ly=2))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "trotter-scan" in proc.stderr


@pytest.mark.parametrize("command, fields, message", [
    ("trotter-scan", {"T": 0}, "T > 0"),
    ("verify", {"T": 0}, "T > 0"),
    ("trotter-scan", {"theta": 0.3, "theta_prime": 0.7}, "theta = theta' = 0"),
], ids=["scan-T0", "verify-T0", "scan-phased"])
def test_meaningless_trotter_distances_exit_2(tmp_path, command, fields, message):
    """At T = 0 every distance is rounding noise against a zero bound, and a
    phased step is exp(-iHT) only up to the gauge transform."""
    proc = run_cli(command, "--config", write_config(tmp_path, **fields))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_optical_exit_code():
    proc = run_cli("optical")
    assert proc.returncode == 0
    assert "worst cross dot" in proc.stdout


def test_verify_overall_pass():
    proc = run_cli("verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[PASS]") == 11
    assert proc.stdout.strip().endswith("overall: PASS")
    assert "[FAIL]" not in proc.stdout


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 7}\n')
    proc = run_cli("quench", "--config", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    missing = run_cli("quench", "--config", str(tmp_path / "nope.json"))
    assert missing.returncode == 2


@pytest.mark.parametrize("command", ["quench", "compile"])
def test_direct_mode_angles_exit_2(tmp_path, command):
    """Direct mode has no spurious phases; nonzero angles would go unread."""
    cfg = write_config(tmp_path, mode="direct", theta=0.3, theta_prime=0.7)
    proc = run_cli(command, "--config", cfg)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error:") and "theta" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_unrunnable_geometry_exits_2(tmp_path):
    cfg = write_config(tmp_path, Lx=1, Ly=3)
    proc = run_cli("quench", "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "ancilla" in proc.stderr


@pytest.mark.parametrize("Lx, Ly", [(4, 4), (5, 3)])
def test_quench_past_int64_exits_2(tmp_path, Lx, Ly):
    """4x4 basis indices and 5x3 row keys do not fit int64; both quenches
    exit 2 before the support grows."""
    start = time.monotonic()
    proc = run_cli("quench", "--config", write_config(tmp_path, Lx=Lx, Ly=Ly))
    assert time.monotonic() - start < 60
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "do not fit int64" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_negative_seed_exits_2(tmp_path):
    cfg = write_config(tmp_path, n_steps=2)
    proc = run_cli("quench", "--config", cfg, "--seed", "-3")
    assert proc.returncode == 2
    assert "seed" in proc.stderr


def test_negative_shots_exits_2(tmp_path):
    cfg = write_config(tmp_path, n_steps=2)
    proc = run_cli("quench", "--config", cfg, "--shots", "-4")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "shots" in proc.stderr


def test_shots_without_out_exits_2(tmp_path):
    cfg = write_config(tmp_path, n_steps=2)
    proc = run_cli("quench", "--config", cfg, "--shots", "5")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --shots 5 needs --out")


def test_shots_is_a_quench_flag():
    proc = run_cli("verify", "--shots", "3")
    assert proc.returncode == 2
    assert "unrecognized arguments: --shots 3" in proc.stderr


def test_unknown_subcommand_fails():
    proc = run_cli("teleport")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
