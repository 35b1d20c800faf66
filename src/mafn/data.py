"""C-MAPSS-format parsing, preprocessing, and sliding-window sample generation.

File layout: whitespace-separated text, 26 columns per row (unit id, cycle
index, 3 operational settings, 21 sensor readings).  A raw record keeps the
readings in that order, sensor j + 1 in column j; where a raw record is read,
one of any other width raises ContractError naming its unit and width.
Preprocessing keeps the 11 informative sensors, min-max normalizes each
against training-set statistics, caps RUL targets, and cuts fixed-length
windows that carry the forecasting, state, and RUL targets for every head.

Every text file (data, RUL, config, synthesis spec) is read by one reader,
``text_blocks``, in blocks of whole lines, and numeric rows have one
validation path, ``text_rows``: a block's lines convert to float64 in one
``np.loadtxt`` call, and only a block that fails is converted again line by
line to name the line at fault as ``path:line``.

Each cycle is stored once.  The parser collects a unit's rows in one flat
float64 buffer; a window dataset keeps every record's rows end to end and
describes a window by the row it starts at, so a batch of windows is
gathered only when it is used.
"""
from __future__ import annotations

import contextlib
import logging
import os
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
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
DROPPED_SENSORS = tuple(s for s in range(1, N_RAW_SENSORS + 1) if s not in SELECTED_SENSORS)

# bytes a text reader takes from a file at a time; a block holds whole lines
BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class EngineRecord:
    """One engine's cycle series: settings and sensor channels per cycle.

    A raw record, as parsed or generated, holds the 21 channels in id order:
    column j is sensor j + 1.  A normalized record holds the sensors of the
    stats it was normalized with, in their order.
    """

    unit_id: int
    op_settings: np.ndarray        # (L, 3), row i is cycle i + 1
    sensors: np.ndarray            # (L, 21) raw, or (L, S) normalized

    @property
    def length(self) -> int:
        return len(self.sensors)


@dataclass(frozen=True)
class NormalizationStats:
    sensor_ids: tuple
    mins: np.ndarray               # (S,)
    maxs: np.ndarray               # (S,)

    def __post_init__(self):
        if list(self.sensor_ids) != sorted(set(self.sensor_ids) & set(range(1, N_RAW_SENSORS + 1))):
            raise ContractError(f"sensor_ids {list(self.sensor_ids)} are not distinct ids in 1..{N_RAW_SENSORS}, ascending")
        if len(self.sensor_ids) == N_RAW_SENSORS:     # a normalized record then reads as a raw one
            raise ContractError(f"sensor_ids hold all {N_RAW_SENSORS} raw ids: a normalized record would be as wide as a raw one")
        if not np.shape(self.mins) == np.shape(self.maxs) == (len(self.sensor_ids),):
            raise ContractError("mins and maxs must hold one value per sensor id")

    @cached_property
    def degenerate(self) -> np.ndarray:
        return self.maxs == self.mins

    @cached_property
    def safe_span(self) -> np.ndarray:
        return np.where(self.degenerate, 1.0, self.maxs - self.mins)    # max - min; 1 where degenerate


@dataclass(frozen=True)
class WindowDataset:
    """Fixed-length windows with all four head targets, stored by row offset.

    ``sensors`` and ``state_ids`` hold each record's cycles once, followed by
    ``horizon`` zero rows, with the records laid end to end.  Window ``i``
    is the ``window + horizon`` rows from ``starts[i]``: its inputs, then its
    future targets.  ``batch`` gathers the windows it is given as fresh
    arrays; the ``inputs`` and ``states`` properties gather every window's.
    """

    sensors: np.ndarray            # (R, S) normalized sensors, zero-padded per record
    state_ids: np.ndarray          # (R,) int64 state ids, 0 on the padding rows
    starts: np.ndarray             # (N,) int64 first row of each window
    mask: np.ndarray               # (N, H) 1.0 valid / 0.0 padded
    rul: np.ndarray                # (N,) capped cycles to failure
    window: int                    # input length T_w

    def __len__(self):
        return len(self.starts)

    @property
    def horizon(self) -> int:
        return self.mask.shape[1]

    def batch(self, idx) -> dict:
        """The windows at the indices ``idx`` as fresh arrays:
        ``inputs`` (B, T_w, S), ``states`` (B, T_w), ``future_states``
        (B, H) and ``future_sensors`` (B, H, S), zero where ``mask`` is 0,
        ``mask`` (B, H) and ``rul`` (B,)."""
        starts, w, h = self.starts[idx], self.window, self.horizon
        return {
            "inputs": _rows_from(self.sensors, starts, w),
            "states": _rows_from(self.state_ids, starts, w),
            "future_states": _rows_from(self.state_ids, starts + w, h),
            "future_sensors": _rows_from(self.sensors, starts + w, h),
            "mask": self.mask[idx],
            "rul": self.rul[idx],
        }

    @property
    def inputs(self) -> np.ndarray:
        return _rows_from(self.sensors, self.starts, self.window)

    @property
    def states(self) -> np.ndarray:
        return _rows_from(self.state_ids, self.starts, self.window)


def _rows_from(values: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """``values[s : s + length]`` for each ``s`` in ``starts``, stacked into
    one fresh array."""
    return np.take(values, starts[:, None] + np.arange(length), axis=0)


def text_blocks(path):
    """(first line number, text) of each block of whole lines of a UTF-8
    file, read ``BLOCK_BYTES`` at a time.  A line longer than a block is read
    on to its end.  ParseError names the first line that is not UTF-8."""
    lineno = 1
    with open(path, "rb") as fh:
        pending = []                            # the start of a line not yet ended
        for chunk in iter(lambda: fh.read(BLOCK_BYTES), b""):
            cut = chunk.rfind(b"\n") + 1
            if not cut:
                pending.append(chunk)
                continue
            block = b"".join([*pending, chunk[:cut]])
            pending = [chunk[cut:]]
            yield lineno, _decode(path, lineno, block)
            lineno += block.count(b"\n")
        block = b"".join(pending)
        if block:
            yield lineno, _decode(path, lineno, block)


def _decode(path, lineno: int, block: bytes) -> str:
    try:
        return block.decode("utf-8")
    except UnicodeDecodeError as e:
        bad = lineno + block.count(b"\n", 0, e.start)
        raise ParseError(f"{path}:{bad}: not UTF-8 text: {e.reason}") from None


def _convert(lines) -> np.ndarray:
    """The one conversion of text rows to numbers: whitespace-separated
    tokens to an (n, columns) float64 array, or ValueError."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def _rows_or_none(lines):
    try:
        return _convert(lines)
    except ValueError:
        return None


def text_rows(path, columns: int):
    """(line numbers, rows) for each block of a whitespace-separated numeric
    file: the block's non-blank lines as an (n, ``columns``) float64 array.

    A block's lines convert in one call; only if ``loadtxt`` skipped blank
    lines are the others found, to number the rows.  If the call fails, the
    non-blank lines convert again, then each alone, and ParseError names the
    first line that is not ``columns`` numbers.
    """
    for first, text in text_blocks(path):
        if text.isspace():                      # loadtxt warns on no data
            continue
        lines = text.removesuffix("\n").split("\n")   # a final "\n" ends a line and starts none
        rows, numbers = _rows_or_none(lines), np.arange(len(lines))
        if rows is None or len(rows) != len(lines):
            numbers = [i for i, line in enumerate(lines) if line and not line.isspace()]
            if rows is None or len(rows) != len(numbers):
                rows = _rows_or_none([lines[i] for i in numbers])
        if rows is None or rows.shape[1] != columns:
            # a block fails only where one of its lines fails alone
            for i in numbers:
                try:
                    found = _convert([lines[i]]).shape[1]
                except ValueError as e:
                    message = str(e).replace("at row 0, ", "at ")
                    raise ParseError(f"{path}:{first + i}: {message}") from None
                if found != columns:
                    raise ParseError(
                        f"{path}:{first + i}: expected {columns} column{'s' * (columns != 1)}, "
                        f"found {found}"
                    )
        yield np.add(numbers, first), rows


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

    The file is read in blocks of whole lines (``text_rows``): each block's
    lines convert to float64 in one ``np.loadtxt`` call, and a
    block that fails converts line by line to find the line at fault.
    Tokens are what ``loadtxt`` reads as a float64; unlike ``float()``, it
    rejects underscored digits (``1_0``), non-ASCII digits and a bare
    ``\\r`` inside a line.

    A malformed row, a non-integer unit id, a non-finite value, or a cycle
    index that does not count 1, 2, ... within its unit raises ParseError
    naming the line.  Each unit's rows go into one flat float64 buffer, which
    its record's arrays view.
    """
    units: dict = {}
    for numbers, rows in text_rows(path, RAW_COLUMNS):
        ids = rows[:, 0].copy()
        wrong = ~np.isfinite(ids) | (ids != np.trunc(ids))
        if wrong.any():
            i = wrong.argmax()
            raise ParseError(f"{path}:{numbers[i]}: unit id {float(ids[i])!r} is not an integer")
        rows[:, 0] = numbers                    # column 0 now maps rows back to lines
        # append each run of one unit's rows in one call
        cuts = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(rows)]
        for start, stop in zip(cuts, cuts[1:]):
            buf = units.setdefault(int(ids[start]), array("d"))
            buf.frombytes(memoryview(rows[start:stop]).cast("B"))

    records = []
    for unit, buf in units.items():
        rows = np.frombuffer(buf, dtype=np.float64).reshape(-1, RAW_COLUMNS)
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise ParseError(f"{path}:{int(rows[bad.argmax(), 0])}: non-finite value")
        wrong = rows[:, 1] != np.arange(1, len(rows) + 1)
        if wrong.any():
            raise ParseError(
                f"{path}:{int(rows[wrong.argmax(), 0])}: unit {unit}: "
                "cycle index must increase by 1 from 1"
            )
        records.append(EngineRecord(unit, rows[:, 2 : 2 + N_SETTINGS], rows[:, 2 + N_SETTINGS :]))
    return records


def write_cmapss(records: Sequence[EngineRecord], path):
    """Serialize records back to the 26-column text format (round-trip exact)."""
    with atomic_write(path) as fh:
        for rec in records:
            sensors = _raw_sensors(rec)
            for i in range(rec.length):
                fields = [str(rec.unit_id), str(i + 1)]
                fields += [repr(float(v)) for v in rec.op_settings[i]]
                fields += [repr(float(v)) for v in sensors[i]]
                fh.write(" ".join(fields) + "\n")


def parse_rul_file(path) -> np.ndarray:
    """RUL ground-truth file: one finite value >= 0 per test engine, ordered by unit."""
    values = []
    for numbers, rows in text_rows(path, 1):
        rul = rows[:, 0]
        bad = ~(np.isfinite(rul) & (rul >= 0.0))
        if bad.any():
            i = bad.argmax()
            what = "negative" if np.isfinite(rul[i]) else "non-finite"
            raise ParseError(f"{path}:{numbers[i]}: {what} value {float(rul[i])!r}")
        values.append(rul)
    if not values:
        raise DataError(f"{path}: empty RUL file")
    return np.concatenate(values)


def _raw_sensors(record: EngineRecord) -> np.ndarray:
    """The sensors of a raw record, whose column j is sensor j + 1.  A record
    of any other width, such as a normalized one, raises ContractError."""
    width = record.sensors.shape[1]
    if width != N_RAW_SENSORS:
        raise ContractError(f"unit {record.unit_id}: record holds {width} sensor channels, not the raw 21")
    return record.sensors


def fit_normalization(train: Sequence[EngineRecord]) -> NormalizationStats:
    """Per-sensor min/max of the ``SELECTED_SENSORS`` over every cycle of
    every training engine: the one choice of the sensors the model reads.
    Each record must hold the 21 raw channels.

    A sensor whose span ``max - min`` is not a finite float64 (``-1e308``
    and ``1e308``) raises DataError naming it: it would normalize to NaN.
    """
    if not train:
        raise ContractError("fit_normalization needs at least one engine")
    cols = np.subtract(SELECTED_SENSORS, 1)
    stacked = np.concatenate([_raw_sensors(rec)[:, cols] for rec in train])
    stats = NormalizationStats(
        sensor_ids=SELECTED_SENSORS,
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
    return np.where(stats.degenerate, 0.0, (values - stats.mins) / stats.safe_span)


def normalize_record(record: EngineRecord, stats: NormalizationStats, rows=slice(None)) -> EngineRecord:
    """The raw record's ``rows``, a slice or an index array, in the sensors
    of ``stats``, min-max normalized: the one path from raw readings to
    model input.  A slice takes the rows' settings as a view; the sensors
    are one gather of the columns ``stats.sensor_ids - 1``.  A record that
    does not hold the 21 raw channels, such as a normalized one, raises
    ContractError, and a reading that normalizes to a value that is not
    finite raises DataError."""
    raw = _raw_sensors(record)[rows][:, np.subtract(stats.sensor_ids, 1)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sensors = normalize_values(raw, stats)
    bad = ~np.isfinite(sensors)
    if bad.any():
        i, j = np.unravel_index(bad.argmax(), bad.shape)
        raise DataError(
            f"unit {record.unit_id}: sensor {stats.sensor_ids[j]} reads {raw[i, j]:g} "
            f"at cycle {np.arange(record.length)[rows][i] + 1}, too far outside its training range "
            f"[{stats.mins[j]:g}, {stats.maxs[j]:g}] to normalize"
        )
    return EngineRecord(record.unit_id, record.op_settings[rows], sensors)


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
    states: np.ndarray,
    window: int,
    horizon: int,
    stride: int = 1,
    rul_cap: float = 125.0,
) -> WindowDataset:
    """Cut sliding windows with all four head targets from a record and its
    (L,) integer state ids, such as ``record_states`` gives.

    A window ending at cycle ``c`` (the cutoff) carries: the normalized
    sensors and state ids for cycles ``c-window+1 .. c``; the states and
    sensors of cycles ``c+1 .. c+horizon`` as targets, masked and zero where
    the record ends earlier; and the capped RUL ``min(L - c, rul_cap)``.
    Cutoffs run ``window, window + stride, ... <= L``; a record shorter than
    ``window`` yields an empty dataset.  The dataset holds one copy of the
    record's rows with ``horizon`` zero rows after them, and each window's
    starting row.
    """
    if window < 1 or horizon < 1 or stride < 1:
        raise ContractError("window, horizon and stride must be positive")
    L, S = record.sensors.shape
    if np.shape(states) != (L,) or np.asarray(states).dtype.kind not in "iu":
        raise ContractError(f"unit {record.unit_id}: expected ({L},) integer state ids, "
                            f"got {np.asarray(states).dtype}{list(np.shape(states))}")
    cuts = np.arange(window, L + 1, stride)          # cutoff cycles, 1-based
    # the zero tail fills the targets of windows that end near the record's end
    sensors = np.zeros((L + horizon, S))
    sensors[:L] = record.sensors
    state_ids = np.zeros(L + horizon, dtype=np.int64)
    state_ids[:L] = states
    return WindowDataset(
        sensors=sensors,
        state_ids=state_ids,
        starts=cuts - window,
        mask=(cuts[:, None] + np.arange(horizon) < L).astype(np.float64),
        rul=np.minimum(L - cuts, rul_cap).astype(np.float64),
        window=window,
    )


def pack_windows(datasets: Sequence[WindowDataset]) -> WindowDataset:
    """Concatenate per-record window datasets into one dataset: rows end to
    end, each record's window starts shifted by the rows before it.  No
    window is copied, and the result shares no memory with its parts."""
    if not datasets:
        raise ContractError("cannot pack an empty window list")
    window, horizon = datasets[0].window, datasets[0].horizon
    if any((d.window, d.horizon) != (window, horizon) for d in datasets):
        raise ContractError("cannot pack windows of different window or horizon lengths")
    offsets = np.cumsum([0] + [len(d.state_ids) for d in datasets[:-1]])
    return WindowDataset(
        sensors=np.concatenate([d.sensors for d in datasets]),
        state_ids=np.concatenate([d.state_ids for d in datasets]),
        starts=np.concatenate([d.starts + off for d, off in zip(datasets, offsets)]),
        mask=np.concatenate([d.mask for d in datasets]),
        rul=np.concatenate([d.rul for d in datasets]),
        window=window,
    )


def truncate_at_fraction(record: EngineRecord, pct: float):
    """Keep the first floor(pct * L) cycles; return (truncated, residual life).

    The truncated record's arrays are views of the record's.  The residual
    is the raw ``L - floor(pct * L)``; callers cap it when comparing against
    capped predictions.
    """
    if not 0.0 < pct < 1.0:
        raise ContractError(f"cutoff fraction must be in (0, 1), got {pct}")
    L = record.length
    keep = int(np.floor(pct * L))
    truncated = replace(record, op_settings=record.op_settings[:keep], sensors=record.sensors[:keep])
    return truncated, L - keep


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
