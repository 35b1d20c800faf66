"""C-MAPSS-format parsing, preprocessing, and sliding-window sample generation.

File layout: whitespace-separated text, 26 columns per row (unit id, cycle
index, 3 operational settings, 21 sensor readings).  Preprocessing keeps the
11 informative sensors, min-max normalizes each against training-set
statistics, caps RUL targets, and cuts fixed-length windows that carry the
forecasting, state, and RUL targets for every head.
"""
from __future__ import annotations

import contextlib
import logging
import os
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
class WindowDataset:
    """Fixed-length windows with all four head targets, one array per field.

    ``make_windows`` returns strided views of one record; ``pack_windows``
    copies many of them into contiguous arrays for batching.
    """

    inputs: np.ndarray             # (N, T_w, S) normalized sensors
    states: np.ndarray             # (N, T_w) int64 state ids
    future_states: np.ndarray      # (N, H) int64 state ids, 0 where mask 0
    future_sensors: np.ndarray     # (N, H, S) normalized, 0 where mask 0
    mask: np.ndarray               # (N, H) 1.0 valid / 0.0 padded
    rul: np.ndarray                # (N,) capped cycles to failure

    def __len__(self):
        return len(self.rul)


def numbered_lines(path):
    """(line number, text) of each line of a UTF-8 file; ParseError names a line that is not UTF-8."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(f"{path}:{lineno}: not UTF-8 text: {e.reason}") from None


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing; when the block ends
    it replaces ``path`` in one ``os.replace``.  If the block raises, the
    temporary file is removed and ``path`` keeps its previous bytes."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def parse_cmapss(path) -> list:
    """Parse a C-MAPSS text file into one EngineRecord per unit.

    A malformed row, a non-integer unit id, a non-finite value, or a cycle
    index that does not count 1, 2, ... within its unit raises ParseError
    naming the line.
    """
    units: dict = {}
    for lineno, line in numbered_lines(path):
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
        if unit != values[0]:
            raise ParseError(f"{path}:{lineno}: unit id {parts[0]!r} is not an integer")
        values[0] = lineno                     # column 0 now maps rows back to lines
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
    with atomic_write(path) as fh:
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
    for lineno, line in numbered_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 1:
            raise ParseError(f"{path}:{lineno}: expected 1 column, found {len(parts)}")
        try:
            value = float(parts[0])
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from None
        if not np.isfinite(value):
            raise ParseError(f"{path}:{lineno}: non-finite value {parts[0]!r}")
        values.append(value)
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
    """Per-sensor min/max over every cycle of every training engine.

    A sensor whose span ``max - min`` is not a finite float64 (``-1e308``
    and ``1e308``) raises DataError naming it: it would normalize to NaN.
    """
    if not train:
        raise ContractError("fit_normalization needs at least one engine")
    stacked = np.concatenate([rec.sensors for rec in train], axis=0)
    stats = NormalizationStats(
        sensor_ids=train[0].sensor_ids,
        mins=stacked.min(axis=0),
        maxs=stacked.max(axis=0),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        unbounded = ~np.isfinite(stats.maxs - stats.mins)
    if unbounded.any():
        j = int(unbounded.argmax())
        raise DataError(
            f"sensor {stats.sensor_ids[j]}: training range [{stats.mins[j]:g}, {stats.maxs[j]:g}] "
            "spans more than float64 holds"
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
) -> WindowDataset:
    """Cut sliding windows with all four head targets.

    A window ending at cycle ``c`` (the cutoff) carries: the normalized
    sensors and state ids for cycles ``c-window+1 .. c``; the states and
    sensors of cycles ``c+1 .. c+horizon`` as targets, masked and zero where
    the record ends earlier; and the capped RUL ``min(L - c, rul_cap)``.
    Cutoffs run ``window, window + stride, ... <= L``; a record shorter than
    ``window`` yields an empty dataset.  The arrays are strided views of one
    zero-padded copy of the record; ``pack_windows`` copies them out.
    """
    if window < 1 or horizon < 1 or stride < 1:
        raise ContractError("window, horizon and stride must be positive")
    L, S = record.sensors.shape
    cuts = np.arange(window, L + 1, stride)          # cutoff cycles, 1-based
    # a window and its targets are window + horizon consecutive rows of this
    # zero-padded copy: the zero tail fills the masked targets, and padding
    # to at least window rows keeps the view valid for a too-short record
    rows = max(L, window) + horizon
    sensors = np.zeros((rows, S))
    sensors[:L] = record.sensors
    states = np.zeros(rows, dtype=np.int64)
    states[:L] = record_states(record, cluster_model)
    span = window + horizon
    picks = slice(0, len(cuts) * stride, stride)     # window starts 0, stride, ...
    seq = sliding_window_view(sensors, span, axis=0)[picks].swapaxes(1, 2)
    seq_states = sliding_window_view(states, span)[picks]
    return WindowDataset(
        inputs=seq[:, :window],
        states=seq_states[:, :window],
        future_states=seq_states[:, window:],
        future_sensors=seq[:, window:],
        mask=(cuts[:, None] + np.arange(horizon) < L).astype(np.float64),
        rul=np.minimum(L - cuts, rul_cap).astype(np.float64),
    )


def pack_windows(datasets: Sequence[WindowDataset]) -> WindowDataset:
    """Concatenate per-record window datasets into one contiguous dataset."""
    if not datasets:
        raise ContractError("cannot pack an empty window list")
    return WindowDataset(
        **{f.name: np.concatenate([getattr(d, f.name) for d in datasets]) for f in fields(WindowDataset)}
    )


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
