"""Run configuration: one JSON document, fail-closed parsing."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .algebra import Couplings
from .lattice import LatticeGeometry, RegisterLayout, build_layout
from .schedule import compile_step


@dataclass(frozen=True)
class SimulationConfig:
    """Every knob of a run; unknown keys in a config file are errors."""

    Lx: int = 2
    Ly: int = 2
    N: int = 3
    lambda_e: float = 1.0
    lambda_b: float = 1.0
    lambda_gm: float = 1.0
    mass: float = 1.0
    T: float = 1.0
    n_steps: int = 10
    order: int = 1
    mode: str = "choreography"
    ancilla_policy: str = "per_plaquette"
    h_e_variant: str = "group"
    theta: float = 0.0
    theta_prime: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        for name in ("T", "theta", "theta_prime"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.T < 0:
            raise ValueError(f"T must be nonnegative, got {self.T}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # the geometry, couplings and compiler check everything else, so a
        # config that cannot run fails here rather than inside a driver
        compile_step(self.build_geometry(), self.couplings(), self.T / self.n_steps,
                     self.mode, self.order, theta=self.theta, theta_prime=self.theta_prime)

    def couplings(self) -> Couplings:
        return Couplings(self.lambda_e, self.lambda_b, self.lambda_gm,
                         self.mass, self.h_e_variant)

    def build_geometry(self) -> RegisterLayout:
        return build_layout(LatticeGeometry(self.Lx, self.Ly), self.N,
                            self.ancilla_policy)

    def as_dict(self) -> dict:
        return asdict(self)


# field name -> "int", "float" or "str" (annotations stay strings here)
_FIELD_TYPES = {f.name: f.type for f in fields(SimulationConfig)}


def config_from_dict(data: dict) -> SimulationConfig:
    """Build a config from a mapping, rejecting unknown keys."""
    unknown = sorted(set(data) - set(_FIELD_TYPES))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    clean: dict = {}
    for key, value in data.items():
        kind = _FIELD_TYPES[key]
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"config key {key} must be an integer, got {value!r}")
            clean[key] = value
        elif kind == "str":
            if not isinstance(value, str):
                raise ValueError(f"config key {key} must be a string, got {value!r}")
            clean[key] = value
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"config key {key} must be a number, got {value!r}")
            clean[key] = float(value)
    return SimulationConfig(**clean)


def load_config(path: str) -> SimulationConfig:
    """Read a JSON config file; missing fields take the defaults."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return config_from_dict(data)

