"""C-MAPSS-format parsing, preprocessing, and sliding-window sample generation.

File layout: whitespace-separated text, 26 columns per row (unit id, cycle
index, 3 operational settings, 21 sensor readings).  Preprocessing keeps the
11 informative sensors, min-max normalizes each against training-set
statistics, caps RUL targets, and cuts fixed-length windows that carry the
forecasting, state, and RUL targets for every head.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cluster import ClusterModel, assign_states
from .errors import ContractError, DataError, ParseError

log = logging.getLogger(__name__)

N_RAW_SENSORS = 21
N_SETTINGS = 3
RAW_COLUMNS = 2 + N_SETTINGS + N_RAW_SENSORS

# informative sensor ids (1-based); the complement is near-constant in FD002
SELECTED_SENSORS = (2, 3, 4, 7, 8, 11, 12, 15, 17, 20, 21)
DROPPED_SENSORS = (1, 5, 6, 9, 10, 13, 14, 16, 18, 19)


@dataclass(frozen=True)
class EngineRecord:
    """One engine's cycle series: settings and sensor channels per cycle."""

    unit_id: int
    cycle_index: np.ndarray        # (L,) int, strictly 1..L
    op_settings: np.ndarray        # (L, 3)
    sensors: np.ndarray            # (L, S)
    sensor_ids: tuple              # 1-based original ids of the sensor columns

    @property
    def length(self) -> int:
        return len(self.cycle_index)


@dataclass(frozen=True)
class NormalizationStats:
    sensor_ids: tuple
    mins: np.ndarray               # (S,)
    maxs: np.ndarray               # (S,)

    @property
    def degenerate(self) -> np.ndarray:
        return self.maxs == self.mins


@dataclass(frozen=True)
class WindowSample:
    """One fixed-length training sample with all four head targets."""

    unit_id: int
    cutoff_cycle: int
    inputs: np.ndarray             # (T_w, S) normalized sensors
    states: np.ndarray             # (T_w,) int state ids
    future_states: np.ndarray      # (H,) int state ids (garbage where mask 0)
    future_sensors: np.ndarray     # (H, S) normalized (garbage where mask 0)
    mask: np.ndarray               # (H,) 1.0 valid / 0.0 padded
    rul: float                     # capped cycles to failure


def parse_cmapss(path) -> list:
    """Parse a C-MAPSS text file into one EngineRecord per unit.

    A malformed row, a non-finite value, or a cycle index that does not
    count 1, 2, ... within its unit raises ParseError naming the line.
    """
    units: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != RAW_COLUMNS:
                raise ParseError(
                    f"{path}:{lineno}: expected {RAW_COLUMNS} columns, found {len(parts)}"
                )
            try:
                values = [float(p) for p in parts]
                unit = int(values[0])
            except (ValueError, OverflowError) as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
            values[0] = lineno                 # column 0 now maps rows back to lines
            if unit not in units:
                units[unit] = []
            units[unit].append(values)

    records = []
    for unit, rows in units.items():
        rows = np.asarray(rows, dtype=np.float64)
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise ParseError(f"{path}:{int(rows[bad.argmax(), 0])}: non-finite value")
        cycles = np.arange(1, len(rows) + 1)
        wrong = rows[:, 1] != cycles
        if wrong.any():
            raise ParseError(
                f"{path}:{int(rows[wrong.argmax(), 0])}: unit {unit}: "
                "cycle index must increase by 1 from 1"
            )
        records.append(
            EngineRecord(
                unit_id=unit,
                cycle_index=cycles,
                op_settings=rows[:, 2 : 2 + N_SETTINGS],
                sensors=rows[:, 2 + N_SETTINGS :],
                sensor_ids=tuple(range(1, N_RAW_SENSORS + 1)),
            )
        )
    return records


def write_cmapss(records: Sequence[EngineRecord], path):
    """Serialize records back to the 26-column text format (round-trip exact)."""
    with open(path, "w") as fh:
        for rec in records:
            if len(rec.sensor_ids) != N_RAW_SENSORS:
                raise ContractError("write_cmapss needs all 21 sensor channels")
            for i in range(rec.length):
                fields = [str(rec.unit_id), str(int(rec.cycle_index[i]))]
                fields += [repr(float(v)) for v in rec.op_settings[i]]
                fields += [repr(float(v)) for v in rec.sensors[i]]
                fh.write(" ".join(fields) + "\n")


def parse_rul_file(path) -> np.ndarray:
    """RUL ground-truth file: one value per test engine, ordered by unit."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 1:
                raise ParseError(f"{path}:{lineno}: expected 1 column, found {len(parts)}")
            values.append(float(parts[0]))
    if not values:
        raise DataError(f"{path}: empty RUL file")
    return np.asarray(values, dtype=np.float64)


def select_sensors(record: EngineRecord, keep: Sequence[int] = SELECTED_SENSORS) -> EngineRecord:
    """Keep only the informative sensor channels, in ascending original order."""
    if len(record.sensor_ids) != N_RAW_SENSORS:
        raise ContractError(f"expected {N_RAW_SENSORS} sensor channels, got {len(record.sensor_ids)}")
    keep = tuple(sorted(keep))
    cols = [record.sensor_ids.index(s) for s in keep]
    return replace(record, sensors=record.sensors[:, cols].copy(), sensor_ids=keep)


def fit_normalization(train: Sequence[EngineRecord]) -> NormalizationStats:
    """Per-sensor min/max over every cycle of every training engine."""
    if not train:
        raise ContractError("fit_normalization needs at least one engine")
    stacked = np.concatenate([rec.sensors for rec in train], axis=0)
    stats = NormalizationStats(
        sensor_ids=train[0].sensor_ids,
        mins=stacked.min(axis=0),
        maxs=stacked.max(axis=0),
    )
    for sid, flag in zip(stats.sensor_ids, stats.degenerate):
        if flag:
            log.warning("sensor %d is constant over the training set; it will normalize to 0", sid)
    return stats


def normalize_values(values: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """(v - min) / (max - min); degenerate channels map to 0; no clipping."""
    span = stats.maxs - stats.mins
    safe = np.where(span == 0.0, 1.0, span)
    out = (values - stats.mins) / safe
    return np.where(span == 0.0, 0.0, out)


def denormalize_values(values: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    span = stats.maxs - stats.mins
    return values * span + stats.mins


def normalize_record(record: EngineRecord, stats: NormalizationStats) -> EngineRecord:
    if record.sensor_ids != stats.sensor_ids:
        raise ContractError(
            f"record sensors {record.sensor_ids} do not match stats {stats.sensor_ids}"
        )
    return replace(record, sensors=normalize_values(record.sensors, stats))


def state_features(record: EngineRecord, feature_spec: str) -> np.ndarray:
    """The per-cycle columns that ``feature_spec`` clusters."""
    if feature_spec == "settings":
        return record.op_settings
    if feature_spec == "sensors":
        return record.sensors
    raise ContractError(f"unknown cluster feature_spec {feature_spec!r}")


def record_states(record: EngineRecord, model: ClusterModel) -> np.ndarray:
    """Per-cycle state ids from the cluster model's feature columns."""
    return assign_states(state_features(record, model.feature_spec), model)


def make_windows(
    record: EngineRecord,
    cluster_model: ClusterModel,
    window: int,
    horizon: int,
    stride: int = 1,
    rul_cap: float = 125.0,
) -> list:
    """Cut sliding windows with all four head targets.

    A window ending at cycle ``c`` (the cutoff) carries: the normalized
    sensors and state ids for cycles ``c-window+1 .. c``; the states and
    sensors of cycles ``c+1 .. c+horizon`` as targets, masked where the
    record ends earlier; and the capped RUL ``min(L - c, rul_cap)``.
    Records shorter than ``window`` yield an empty list.
    """
    if window < 1 or horizon < 1 or stride < 1:
        raise ContractError("window, horizon and stride must be positive")
    L = record.length
    if L < window:
        return []
    states = record_states(record, cluster_model)
    samples = []
    for start in range(0, L - window + 1, stride):
        cut = start + window                       # cutoff cycle, 1-based
        n_valid = min(horizon, L - cut)
        mask = np.zeros(horizon)
        mask[:n_valid] = 1.0
        future_states = np.zeros(horizon, dtype=np.int64)
        future_sensors = np.zeros((horizon, record.sensors.shape[1]))
        if n_valid:
            future_states[:n_valid] = states[cut : cut + n_valid]
            future_sensors[:n_valid] = record.sensors[cut : cut + n_valid]
        samples.append(
            WindowSample(
                unit_id=record.unit_id,
                cutoff_cycle=cut,
                inputs=record.sensors[start:cut].copy(),
                states=states[start:cut].copy(),
                future_states=future_states,
                future_sensors=future_sensors,
                mask=mask,
                rul=float(min(L - cut, rul_cap)),
            )
        )
    return samples


def truncate_at_fraction(record: EngineRecord, pct: float):
    """Keep the first floor(pct * L) cycles; return (truncated, residual life).

    The residual is the raw ``L - floor(pct * L)``; callers cap it when
    comparing against capped predictions.
    """
    if not 0.0 < pct < 1.0:
        raise ContractError(f"cutoff fraction must be in (0, 1), got {pct}")
    L = record.length
    keep = int(np.floor(pct * L))
    residual = L - keep
    truncated = replace(
        record,
        cycle_index=record.cycle_index[:keep].copy(),
        op_settings=record.op_settings[:keep].copy(),
        sensors=record.sensors[:keep].copy(),
    )
    return truncated, residual


def split_by_engine(records: Sequence[EngineRecord], val_fraction: float, seed: int):
    """Seeded train/validation split by engine id (never by window)."""
    if not 0.0 < val_fraction < 1.0:
        raise ContractError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    if len(records) < 2:
        raise ContractError("need at least 2 engines to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    n_val = max(1, int(round(val_fraction * len(records))))
    n_val = min(n_val, len(records) - 1)
    val_idx = set(order[:n_val].tolist())
    train = [rec for i, rec in enumerate(records) if i not in val_idx]
    val = [rec for i, rec in enumerate(records) if i in val_idx]
    return train, val


# -- packed window arrays ------------------------------------------------------


@dataclass(frozen=True)
class WindowDataset:
    """Window samples packed into contiguous arrays for batching."""

    inputs: np.ndarray             # (N, T_w, S)
    states: np.ndarray             # (N, T_w) int64
    future_states: np.ndarray      # (N, H) int64
    future_sensors: np.ndarray     # (N, H, S)
    mask: np.ndarray               # (N, H)
    rul: np.ndarray                # (N,)
    provenance: np.ndarray         # (N, 2) int64: unit_id, cutoff_cycle

    def __len__(self):
        return len(self.rul)


def pack_windows(samples: Sequence[WindowSample]) -> WindowDataset:
    if not samples:
        raise ContractError("cannot pack an empty window list")
    return WindowDataset(
        inputs=np.stack([s.inputs for s in samples]),
        states=np.stack([s.states for s in samples]).astype(np.int64),
        future_states=np.stack([s.future_states for s in samples]).astype(np.int64),
        future_sensors=np.stack([s.future_sensors for s in samples]),
        mask=np.stack([s.mask for s in samples]),
        rul=np.asarray([s.rul for s in samples], dtype=np.float64),
        provenance=np.asarray(
            [(s.unit_id, s.cutoff_cycle) for s in samples], dtype=np.int64
        ),
    )

