"""Run-configuration parsing, validation, and file round trips."""

import json

import pytest

import zngauge
from zngauge.algebra import Couplings
from zngauge.config import SimulationConfig, config_from_dict, load_config


def test_defaults():
    cfg = SimulationConfig()
    assert (cfg.Lx, cfg.Ly, cfg.N) == (2, 2, 3)
    assert cfg.mode == "choreography"
    assert cfg.order == 1
    assert cfg.n_steps == 10
    assert cfg.T == 1.0
    assert cfg.seed == 0
    assert cfg.h_e_variant == "group"
    cpl = cfg.couplings()
    assert (cpl.lambda_e, cpl.lambda_b, cpl.lambda_gm, cpl.mass) == (1.0, 1.0, 1.0, 1.0)
    lay = cfg.build_geometry()
    assert len(lay.geometry.links) == 4
    assert lay.total_dim == 3888


def test_config_keys_and_couplings():
    """The coupling fields live on Couplings; the config file's keys stay these 16."""
    assert set(SimulationConfig().as_dict()) == {
        "Lx", "Ly", "N", "lambda_e", "lambda_b", "lambda_gm", "mass", "T", "n_steps",
        "order", "mode", "ancilla_policy", "h_e_variant", "theta", "theta_prime", "seed"}
    cpl = SimulationConfig().couplings()
    assert type(cpl) is Couplings and cpl == Couplings()
    cfg = config_from_dict({"lambda_b": 0.5, "mass": 2, "h_e_variant": "z3-implementation"})
    assert cfg.couplings() == Couplings(lambda_b=0.5, mass=2.0, h_e_variant="z3-implementation")


def test_package_root_names():
    """perfbench reads SimulationConfig and these modules off the package root."""
    for name in ("SimulationConfig", "drivers", "oracle", "schedule", "lattice", "algebra",
                 "config"):
        assert hasattr(zngauge, name), name
    assert zngauge.SimulationConfig is SimulationConfig


def test_dict_round_trip(tmp_path):
    cfg = SimulationConfig(Lx=3, Ly=2, order=2, theta=0.3, seed=7)
    again = config_from_dict(cfg.as_dict())
    assert again == cfg
    path = tmp_path / "run.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg.as_dict(), f)
    assert json.loads(path.read_text())["Lx"] == 3
    assert load_config(path) == cfg


def test_unknown_keys_fail_closed():
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"Lx": 2, "talk_to_hardware": True})


def test_type_policing():
    with pytest.raises(ValueError):
        config_from_dict({"n_steps": 2.5})
    with pytest.raises(ValueError):
        config_from_dict({"n_steps": True})  # bool is not an int here
    with pytest.raises(ValueError):
        config_from_dict({"T": True})
    with pytest.raises(ValueError):
        config_from_dict({"mode": 3})


def test_value_validation():
    with pytest.raises(ValueError):
        SimulationConfig(N=1)
    with pytest.raises(ValueError):
        SimulationConfig(order=3)
    with pytest.raises(ValueError):
        SimulationConfig(n_steps=0)
    with pytest.raises(ValueError):
        SimulationConfig(T=-1.0)
    with pytest.raises(ValueError):
        SimulationConfig(seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(mode="interpretive_dance")
    with pytest.raises(ValueError):
        SimulationConfig(h_e_variant="u1")
    with pytest.raises(ValueError):
        SimulationConfig(lambda_e=float("inf"))
    # direct mode has no spurious phases, so it reads no angles
    for angles in ({"theta": 0.3}, {"theta_prime": 0.7}):
        with pytest.raises(ValueError, match="choreography mode"):
            SimulationConfig(mode="direct", **angles)
    # the collision-based choreography only exists for three-level links
    with pytest.raises(ValueError):
        SimulationConfig(N=4, mode="choreography")
    SimulationConfig(N=4, mode="direct")
    # geometry problems surface at construction, not at run time
    with pytest.raises(ValueError, match="shared ancilla"):
        SimulationConfig(Lx=2, Ly=3, ancilla_policy="shared")
    # a 1x3 lattice has no plaquette, so no ancilla for the choreography
    with pytest.raises(ValueError, match="ancilla"):
        SimulationConfig(Lx=1, Ly=3)
    SimulationConfig(Lx=1, Ly=3, mode="direct")


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_config(arr)
