"""Synthetic run-to-failure dataset with known ground truth.

Each engine's informative sensors follow
``base + trend(t) + offset[state(t)] + noise`` where the trend is monotone,
states switch at seeded dwell intervals, and the noise is i.i.d. Gaussian.
The three operational-setting columns sit in tight per-state blobs so
K-Means on settings recovers the true states.  The dropped (non-informative)
sensor channels stay constant, matching their role in the real data.
A sidecar JSON file carries the true trends, states, and RULs so tests can
check decomposition recovery against an exact oracle.

The spec is a flat ``key = value`` file in the config's format
(:mod:`mafn.config`): one parser and one renderer serve both, and a value
that does not read names its ``path:line``.  No environment variable
overrides a spec field; ``mafn synthesize --seed`` overrides ``seed``.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .config import render_fields, require_finite
from .data import DROPPED_SENSORS, EngineRecord, N_RAW_SENSORS, SELECTED_SENSORS, atomic_write
from .errors import ContractError

# per-state centers of the three setting columns; far apart vs. jitter 0.01
_SETTING_CENTERS = np.array(
    [[0.0, 0.0, 100.0], [20.0, 0.6, 60.0], [35.0, 0.84, 40.0],
     [10.0, 0.25, 80.0], [25.0, 0.7, 20.0], [42.0, 0.84, 0.0]]
)


@dataclass
class SynthSpec:
    engines: int = 40
    k_states: int = 2
    offsets: Tuple[float, ...] = (-1.0, 1.0)
    trend: str = "linear"              # linear | quadratic
    trend_amplitude: float = 4.0
    noise_sigma: float = 0.05
    life_min: int = 100
    life_max: int = 140
    dwell_min: int = 30
    dwell_max: int = 60
    setting_jitter: float = 0.01
    seed: int = 0

    def validate(self) -> "SynthSpec":
        if self.engines < 1:
            raise ContractError("engines must be >= 1")
        if not 1 <= self.k_states <= len(_SETTING_CENTERS):
            raise ContractError(f"k_states must be in 1..{len(_SETTING_CENTERS)}")
        if len(self.offsets) != self.k_states:
            raise ContractError(
                f"need one offset per state: {self.k_states} states, {len(self.offsets)} offsets"
            )
        if self.trend not in ("linear", "quadratic"):
            raise ContractError(f"unknown trend shape {self.trend!r}")
        require_finite(self)
        for name in ("noise_sigma", "setting_jitter", "seed"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be >= 0")
        if not 1 <= self.life_min <= self.life_max:
            raise ContractError("need 1 <= life_min <= life_max")
        if not 1 <= self.dwell_min <= self.dwell_max:
            raise ContractError("need 1 <= dwell_min <= dwell_max")
        return self


def sensor_base(sensor_id: int) -> float:
    return 10.0 * sensor_id


def trend_curve(length: int, shape: str, amplitude: float) -> np.ndarray:
    """Monotone degradation trend over cycles 1..length, from 0 to amplitude."""
    if length == 1:
        return np.zeros(1)
    u = np.arange(length) / (length - 1)
    if shape == "quadratic":
        u = u * u
    return amplitude * u


def _state_sequence(length: int, spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    states = np.empty(length, dtype=np.int64)
    t = 0
    current = int(rng.integers(spec.k_states))
    while t < length:
        dwell = int(rng.integers(spec.dwell_min, spec.dwell_max + 1))
        states[t : t + dwell] = current
        t += dwell
        if spec.k_states > 1:
            step = int(rng.integers(1, spec.k_states))
            current = (current + step) % spec.k_states
    return states


def generate(spec: SynthSpec):
    """Build (records, truth) for the given spec, fully seeded."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    offsets = np.asarray(spec.offsets, dtype=np.float64)
    records = []
    truth_engines = []
    for unit in range(1, spec.engines + 1):
        life = int(rng.integers(spec.life_min, spec.life_max + 1))
        states = _state_sequence(life, spec, rng)
        trend = trend_curve(life, spec.trend, spec.trend_amplitude)
        settings = _SETTING_CENTERS[states] + rng.normal(0.0, spec.setting_jitter, size=(life, 3))
        sensors = np.empty((life, N_RAW_SENSORS))
        for col, sid in enumerate(range(1, N_RAW_SENSORS + 1)):
            if sid in DROPPED_SENSORS:
                sensors[:, col] = sensor_base(sid)
            else:
                noise = rng.normal(0.0, spec.noise_sigma, size=life) if spec.noise_sigma else 0.0
                sensors[:, col] = sensor_base(sid) + trend + offsets[states] + noise
        records.append(EngineRecord(unit, settings, sensors))
        truth_engines.append(
            {
                "unit_id": unit,
                "length": life,
                "states": states.tolist(),
                "trend": trend.tolist(),
                "rul": (life - np.arange(1, life + 1)).tolist(),
            }
        )
    truth = {
        "spec": dataclasses.asdict(spec),
        "offsets": offsets.tolist(),
        "informative_sensors": list(SELECTED_SENSORS),
        "sensor_base": {str(s): sensor_base(s) for s in range(1, N_RAW_SENSORS + 1)},
        "engines": truth_engines,
    }
    return records, truth


def default_synth_spec_text() -> str:
    return render_fields(SynthSpec(), "# mafn synthesis spec: flat key = value")


def write_truth(truth: dict, path):
    with atomic_write(path) as fh:
        json.dump(truth, fh, sort_keys=True, separators=(",", ":"))
