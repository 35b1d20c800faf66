import dataclasses
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafn import data as D
from mafn.cluster import ClusterModel, kmeans_fit
from mafn.config import TrainConfig
from mafn.errors import ContractError, DataError, ParseError
from mafn.model import MafnModel, PreprocessBundle, predict_rul
from mafn.pipeline import fit_pipeline, windows_for_records
from mafn.synthetic import SynthSpec, generate


def make_record(unit=1, length=10, n_sensors=21, sensor_fn=None, settings=None):
    sensors = np.zeros((length, n_sensors))
    for col in range(n_sensors):
        sensors[:, col] = (sensor_fn or (lambda c, t: float(c + 1)))(col, np.arange(length))
    return D.EngineRecord(
        unit_id=unit,
        op_settings=settings if settings is not None else np.zeros((length, 3)),
        sensors=sensors,
    )


def single_state_cluster():
    return ClusterModel(k=1, centroids=np.zeros((1, 3)), inertia=0.0, feature_spec="settings")


def one_state(record):
    """State ids of a record whose every cycle is in state 0."""
    return np.zeros(record.length, dtype=np.int64)


def write_rows(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(" ".join(str(v) for v in row) + "\n")


class TestParse:
    def test_minimal_two_line_file(self, tmp_path):
        path = tmp_path / "mini.txt"
        write_rows(path, [[1, 1] + [0.0] * 24, [1, 2] + [0.5] * 24])
        records = D.parse_cmapss(path)
        assert len(records) == 1
        assert records[0].length == 2
        assert records[0].sensors.shape == (2, 21)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        write_rows(path, [[1, 1] + [0.0] * 24, [1, 2] + [0.0] * 10])
        with pytest.raises(ParseError, match=":2:"):
            D.parse_cmapss(path)

    @pytest.mark.parametrize("unit", ["1.5", "1.000001"])
    def test_fractional_unit_id_names_line(self, tmp_path, unit):
        rows = [[1, 1] + [0.0] * 24, [unit, 2] + [0.0] * 24]
        path = tmp_path / "bad.txt"
        write_rows(path, rows)
        with pytest.raises(ParseError, match=r"bad\.txt:2: unit id"):
            D.parse_cmapss(path)

    @pytest.mark.parametrize("reader", [D.parse_cmapss, D.parse_rul_file])
    def test_non_utf8_file_names_line(self, tmp_path, reader):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1\x00 \x001\x00\n")
        with pytest.raises(ParseError, match=r"bad\.txt:1: not UTF-8"):
            reader(path)

    def test_non_monotone_cycles(self, tmp_path):
        path = tmp_path / "bad.txt"
        write_rows(path, [[1, 1] + [0.0] * 24, [1, 3] + [0.0] * 24])
        with pytest.raises(DataError, match="cycle index"):
            D.parse_cmapss(path)

    def test_roundtrip_identity(self, tmp_path, rng):
        spec = SynthSpec(engines=3, life_min=20, life_max=30, seed=5)
        records, _ = generate(spec)
        path = tmp_path / "rt.txt"
        D.write_cmapss(records, path)
        again = D.parse_cmapss(path)
        assert len(again) == len(records)
        for a, b in zip(records, again):
            assert a.unit_id == b.unit_id
            np.testing.assert_array_equal(a.op_settings, b.op_settings)
            np.testing.assert_array_equal(a.sensors, b.sensors)

    def test_records_hold_flat_float64_rows(self, tmp_path):
        """Records hold numpy arrays, no Python lists, and parsing allocates
        little beyond the rows as float64: a Python float object per value,
        as a list of rows holds them, would take 4x more."""
        records, _ = generate(SynthSpec(seed=0))
        path = tmp_path / "synthetic_train.txt"
        D.write_cmapss(records, path)
        tracemalloc.start()
        try:
            parsed = D.parse_cmapss(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_bytes = sum(r.length for r in parsed) * D.RAW_COLUMNS * 8
        assert peak < 2 * row_bytes + (256 << 10)
        for rec in parsed:
            for f in dataclasses.fields(rec):
                value = getattr(rec, f.name)
                assert not isinstance(value, list), f.name
                if isinstance(value, np.ndarray):
                    assert value.dtype.kind in "fi", f.name
            assert [f.name for f in dataclasses.fields(rec)] == ["unit_id", "op_settings", "sensors"]
            assert type(rec.unit_id) is int and rec.sensors.shape[1] == D.N_RAW_SENSORS
            # settings and sensors view one (L, 26) float64 block of the unit's rows
            assert np.may_share_memory(rec.op_settings, rec.sensors)

    @pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e999"])
    @pytest.mark.parametrize("column", [0, 1, 4, 25])    # unit, cycle, a setting, a sensor
    def test_non_finite_token_names_line(self, tmp_path, token, column):
        rows = [[1, i] + [0.0] * 24 for i in (1, 2, 3)]
        rows[2][column] = token
        path = tmp_path / "bad.txt"
        write_rows(path, rows)
        with pytest.raises(ParseError, match=r"bad\.txt:3:"):
            D.parse_cmapss(path)

    @given(st.lists(
        st.one_of(
            st.floats().map(repr),
            st.integers(-3, 3).map(str),
            st.sampled_from(["nan", "inf", "-Infinity", "1e999", "1_0", "0x1", "--1", "."]),
            st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=4),
        ),
        min_size=D.RAW_COLUMNS, max_size=D.RAW_COLUMNS,
    ))
    def test_fuzzed_row_parses_or_raises_parse_error(self, tokens):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.txt"
            path.write_text(" ".join(tokens) + "\n")
            try:
                records = D.parse_cmapss(path)
            except ParseError:
                return
        assert len(records) == 1
        assert np.isfinite(records[0].op_settings).all() and np.isfinite(records[0].sensors).all()

    def test_rul_file(self, tmp_path):
        path = tmp_path / "rul.txt"
        path.write_text("10\n20\n30\n")
        np.testing.assert_array_equal(D.parse_rul_file(path), [10.0, 20.0, 30.0])

    def test_rul_file_bad_token_names_line(self, tmp_path):
        path = tmp_path / "rul.txt"
        path.write_text("10\nabc\n")
        with pytest.raises(ParseError, match=r"rul\.txt:2:"):
            D.parse_rul_file(path)

    @pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e999"])
    def test_rul_file_non_finite_names_line(self, tmp_path, token):
        path = tmp_path / "rul.txt"
        path.write_text(f"10\n{token}\n")
        with pytest.raises(ParseError, match=r"rul\.txt:2: non-finite"):
            D.parse_rul_file(path)

    @pytest.mark.parametrize("token", ["-40", "-0.5", "-1e-300"])
    def test_rul_file_negative_names_line(self, tmp_path, token):
        path = tmp_path / "rul.txt"
        path.write_text(f"0\n{token}\n5\n")
        with pytest.raises(ParseError, match=rf"rul\.txt:2: negative value {float(token)!r}"):
            D.parse_rul_file(path)

    def test_rul_file_zero_is_valid(self, tmp_path):
        path = tmp_path / "rul.txt"
        path.write_text("0\n-0\n7\n")
        np.testing.assert_array_equal(D.parse_rul_file(path), [0.0, 0.0, 7.0])


class TestAtomicWrite:
    def test_replaces_target(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with D.atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize(
        "mode,old,part", [("w", "old\n", "half"), ("wb", b"\x00old", b"half")], ids=["text", "binary"]
    )
    def test_failed_writer_keeps_old_bytes(self, tmp_path, mode, old, part):
        path = tmp_path / "out.bin"
        path.write_bytes(old.encode() if isinstance(old, str) else old)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with D.atomic_write(path, mode) as fh:
                fh.write(part)
                fh.flush()
                raise RuntimeError("writer failed halfway")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with D.atomic_write(tmp_path / "new.csv") as fh:
                fh.write("half")
                raise RuntimeError("writer failed halfway")
        assert list(tmp_path.iterdir()) == []


WIDTH_ERROR = "unit {unit}: record holds {width} sensor channels, not the raw 21"


class TestSelectSensors:
    """``fit_normalization`` chooses the sensors: its stats hold the 11
    ``SELECTED_SENSORS`` in ascending order, and ``normalize_record`` reads
    those columns from a raw 21-sensor record."""

    def test_channel_count(self):
        stats = D.fit_normalization([make_record(sensor_fn=lambda c, t: np.sin(0.3 * t + c))])
        assert stats.sensor_ids == D.SELECTED_SENSORS == tuple(sorted(D.SELECTED_SENSORS))
        assert len(stats.sensor_ids) == len(stats.mins) == 11
        normalized = D.normalize_record(make_record(), stats)
        assert normalized.sensors.shape == (10, 11)

    def test_dropped_set(self):
        kept = set(D.SELECTED_SENSORS)
        dropped = set(D.DROPPED_SENSORS)
        assert kept | dropped == set(range(1, 22))
        assert kept & dropped == set()

    def test_sensor2_lands_in_channel0(self):
        stats = D.fit_normalization([make_record(sensor_fn=lambda c, t: 7.7 if c == 1 else 0.0)])
        assert stats.mins[0] == stats.maxs[0] == 7.7 and not stats.mins[1:].any()

    def test_constant_channels_by_hand(self):
        """Sensor ``s`` reads ``s`` in every cycle; stats fitted on it, and
        a record normalized against hand stats, hold the selected ids in order."""
        rec = make_record(sensor_fn=lambda c, t: float(c + 1))
        np.testing.assert_array_equal(D.fit_normalization([rec]).maxs, D.SELECTED_SENSORS)
        hand = D.NormalizationStats(D.SELECTED_SENSORS, np.zeros(11), np.full(11, 100.0))
        np.testing.assert_array_equal(D.normalize_record(rec, hand).sensors[0], np.array(D.SELECTED_SENSORS) / 100.0)

    def test_raw_record_fits_as_its_selected_columns(self):
        """Column j of a raw record is sensor j + 1; a record of only the
        selected columns is not raw and is refused."""
        rec = make_record(unit=5, length=12, sensor_fn=lambda c, t: np.cos(0.7 * t * (c + 1)) * (c + 1))
        chosen = rec.sensors[:, [s - 1 for s in D.SELECTED_SENSORS]]
        raw = D.fit_normalization([rec])
        assert raw.mins.tobytes() == chosen.min(axis=0).tobytes()
        assert raw.maxs.tobytes() == chosen.max(axis=0).tobytes()
        with pytest.raises(ContractError, match=re.escape(WIDTH_ERROR.format(unit=5, width=11))):
            D.fit_normalization([rec, dataclasses.replace(rec, sensors=chosen)])

    def test_whole_record_settings_are_a_view(self):
        rec = make_record(settings=np.arange(30.0).reshape(10, 3))
        normalized = D.normalize_record(rec, D.fit_normalization([rec]))
        assert np.shares_memory(normalized.op_settings, rec.op_settings)
        assert normalized.op_settings.tobytes() == rec.op_settings.tobytes()


class TestNormalization:
    def test_min_max_definition(self):
        rec = make_record(length=3, n_sensors=21, sensor_fn=lambda c, t: np.array([2.0, 4.0, 10.0]))
        stats = D.fit_normalization([rec])
        assert stats.mins[0] == 2.0 and stats.maxs[0] == 10.0

    def test_degenerate_flagged(self):
        rec = make_record(length=3, sensor_fn=lambda c, t: 5.0)
        stats = D.fit_normalization([rec])
        assert stats.degenerate.all()
        np.testing.assert_array_equal(D.normalize_values(np.full(11, 5.0), stats), np.zeros(11))

    def test_union_of_two_engines(self):
        r1 = make_record(unit=1, length=4, sensor_fn=lambda c, t: 1.0 + t)
        r2 = make_record(unit=2, length=4, sensor_fn=lambda c, t: 10.0 + t)
        stats = D.fit_normalization([r1, r2])
        assert stats.mins[0] == 1.0 and stats.maxs[0] == 13.0

    def test_endpoints(self):
        stats = D.NormalizationStats(sensor_ids=(2,), mins=np.array([2.0]), maxs=np.array([10.0]))
        assert D.normalize_values(np.array([2.0]), stats)[0] == 0.0
        assert D.normalize_values(np.array([10.0]), stats)[0] == 1.0
        assert D.normalize_values(np.array([6.0]), stats)[0] == 0.5

    @pytest.mark.parametrize("ids", [(0,), (22,), (99,), (2, 2), (3, 2), (2, 3, 3)])
    def test_sensor_ids_are_distinct_raw_ids_ascending(self, ids):
        # stats built in code with an id of 0 read sensor 21, and 99 raised a bare IndexError
        with pytest.raises(ContractError, match=r"sensor_ids \[.*\] are not distinct ids in 1\.\.21, ascending"):
            D.NormalizationStats(sensor_ids=ids, mins=np.zeros(len(ids)), maxs=np.ones(len(ids)))

    def test_stats_of_every_raw_id_refused(self):
        # a record they normalize holds 21 channels and would normalize again as a raw one
        ids = tuple(range(1, 22))
        with pytest.raises(ContractError, match="sensor_ids hold all 21 raw ids: a normalized record would be as wide"):
            D.NormalizationStats(sensor_ids=ids, mins=np.zeros(21), maxs=np.full(21, 100.0))

    def test_bits_match_the_span_formula(self, rng):
        # the stats hold the safe span once; the values are those of building it per call
        mins = rng.normal(size=6)
        maxs = mins + rng.exponential(size=6)
        maxs[[1, 4]] = mins[[1, 4]]
        stats = D.NormalizationStats(sensor_ids=(2, 3, 4, 7, 8, 11), mins=mins, maxs=maxs)
        values = rng.normal(size=(30, 6)) * 3.0
        span = maxs - mins
        expected = np.where(span == 0.0, 0.0, (values - mins) / np.where(span == 0.0, 1.0, span))
        assert D.normalize_values(values, stats).tobytes() == expected.tobytes()
        assert stats.safe_span is stats.safe_span

    def test_no_clipping_outside_train_range(self):
        stats = D.NormalizationStats(sensor_ids=(2,), mins=np.array([0.0]), maxs=np.array([1.0]))
        assert D.normalize_values(np.array([2.0]), stats)[0] == 2.0

    def test_empty_train_set(self):
        with pytest.raises(ContractError):
            D.fit_normalization([])

    def test_overflowing_span_names_sensor(self):
        def readings(col, t):                # sensor 7 reads 1e308, then -1e308
            return np.where(t == 0, 1e308, -1e308) if col == 6 else np.zeros(len(t))

        rec = make_record(length=2, sensor_fn=readings)
        with pytest.raises(DataError, match="sensor 7:"):
            D.fit_normalization([rec])

    def test_overflowing_reading_names_unit_sensor_and_cycle(self):
        stats = D.NormalizationStats(sensor_ids=(3, 7), mins=np.array([0.0, -1.0]), maxs=np.array([1.0, -0.5]))
        rec = make_record(unit=4, length=5, sensor_fn=lambda c, t: np.where(t == 2, 1e308, 0.0))
        message = "unit 4: sensor 7 reads 1e+308 at cycle 3, too far outside its training range [-1, -0.5]"
        with pytest.raises(DataError, match=re.escape(message)):
            D.normalize_record(rec, stats)
        with pytest.raises(DataError, match=re.escape("1e+308 at cycle 3,")):
            D.normalize_record(rec, stats, slice(2, None))
        assert D.normalize_record(rec, stats, np.array([0, 1, 3])).sensors.shape == (3, 2)

    @given(st.data())
    def test_one_gather_equals_normalizing_then_indexing(self, data):
        """``normalize_record`` on a raw record equals normalizing the
        stats' columns of every cycle, then taking ``rows``, bit for bit;
        ``rows`` repeats row 0 as ``pad_short`` does."""
        def readings(n, low=-1e3, high=1e3):
            return np.array(data.draw(st.lists(st.floats(low, high), min_size=n, max_size=n)))

        length = data.draw(st.integers(1, 30))
        raw = D.EngineRecord(1, readings(3 * length).reshape(length, 3), readings(21 * length).reshape(length, 21))
        ids = tuple(sorted(data.draw(st.sets(st.integers(1, 21), min_size=1, max_size=20))))
        mins = readings(len(ids), -100, 100)
        spans = data.draw(st.lists(st.sampled_from([0.0, 1e-3, 0.5, 7.0, 100.0]),
                                   min_size=len(ids), max_size=len(ids)))
        stats = D.NormalizationStats(ids, mins, mins + spans)
        window = data.draw(st.integers(1, length + 10))
        rows = np.maximum(np.arange(length - window, length), 0)
        cols = [i - 1 for i in ids]

        got = D.normalize_record(raw, stats, rows)
        want = D.normalize_values(raw.sensors[:, cols], stats)[rows]
        assert got.sensors.shape == want.shape and got.sensors.tobytes() == want.tobytes()
        assert got.op_settings.tobytes() == raw.op_settings[rows].tobytes()
        assert got.unit_id == raw.unit_id

        whole = D.normalize_record(raw, stats)
        assert whole.sensors.tobytes() == D.normalize_values(raw.sensors[:, cols], stats).tobytes()
        assert whole.op_settings.tobytes() == raw.op_settings.tobytes()


class TestNormalizedRecordRefused:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_normalized_record_is_refused(self, data):
        """A record that ``normalize_record`` returns, whatever its rows (a
        slice, an index array or a ``pad_short`` row index), holds the
        stats' sensors, not the raw 21: reading it again as a raw record
        raises the width error from ``normalize_record``,
        ``fit_normalization`` and ``predict_rul``.  Stats of all 21 sensors
        would give a record of the raw width, so the stats refuse them."""
        g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        unit, length = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 30))
        raw = D.EngineRecord(unit, g.normal(size=(length, 3)), g.normal(size=(length, 21)))
        n_ids = data.draw(st.integers(1, 21))
        ids = tuple(int(i) for i in sorted(g.choice(np.arange(1, 22), size=n_ids, replace=False)))
        mins = g.normal(size=len(ids))
        if len(ids) == 21:
            with pytest.raises(ContractError, match="sensor_ids hold all 21 raw ids"):
                D.NormalizationStats(ids, mins - 3.0, mins + 3.0)
            return
        stats = D.NormalizationStats(ids, mins - 3.0, mins + 3.0)
        kind = data.draw(st.sampled_from(["slice", "index", "pad_short"]))
        if kind == "slice":
            start = data.draw(st.integers(0, length - 1))
            rows = slice(start, data.draw(st.integers(start + 1, length)), data.draw(st.integers(1, 3)))
        elif kind == "index":
            rows = g.integers(0, length, size=data.draw(st.integers(1, 2 * length)))
        else:
            rows = np.maximum(np.arange(length - data.draw(st.integers(1, length + 10)), length), 0)
        normalized = D.normalize_record(raw, stats, rows)
        assert normalized.sensors.shape[1] == len(ids)

        cfg = TrainConfig(window=4, horizon=2, k_states=1, embedding_dim=2, kernel_size=3, n_filters=2,
                          lstm_hidden=2, trend_dim=2, fusion_widths=(2,), rul_widths=(2, 2),
                          pad_short=True).validate()
        bundle = PreprocessBundle(config=cfg, cluster=single_state_cluster(), stats=stats)
        model = MafnModel(cfg, len(ids), np.random.default_rng(0))
        message = re.escape(WIDTH_ERROR.format(unit=unit, width=len(ids)))
        for refuse in (lambda: D.normalize_record(normalized, stats),
                       lambda: D.normalize_record(normalized, stats, slice(0, 1)),
                       lambda: D.fit_normalization([normalized]),
                       lambda: predict_rul(normalized, model, bundle)):
            with pytest.raises(ContractError, match=message):
                refuse()


def reference_windows(record, cluster_model, window, horizon, stride, rul_cap):
    """The per-window loop that ``make_windows`` and ``WindowDataset.batch``
    replace with row offsets: one window at a time, written into
    preallocated packed arrays."""
    L, S = record.sensors.shape
    states = D.record_states(record, cluster_model)
    starts = range(0, L - window + 1, stride)
    n = len(starts)
    out = {
        "inputs": np.zeros((n, window, S)),
        "states": np.zeros((n, window), dtype=np.int64),
        "future_states": np.zeros((n, horizon), dtype=np.int64),
        "future_sensors": np.zeros((n, horizon, S)),
        "mask": np.zeros((n, horizon)),
        "rul": np.zeros(n),
    }
    for i, start in enumerate(starts):
        cut = start + window                       # cutoff cycle, 1-based
        n_valid = min(horizon, L - cut)
        out["inputs"][i] = record.sensors[start:cut]
        out["states"][i] = states[start:cut]
        out["future_states"][i, :n_valid] = states[cut : cut + n_valid]
        out["future_sensors"][i, :n_valid] = record.sensors[cut : cut + n_valid]
        out["mask"][i, :n_valid] = 1.0
        out["rul"][i] = min(L - cut, rul_cap)
    return out


def reference_case(length, phase=0):
    """An 11-sensor record whose sensors vary per cycle and channel, and
    a three-state cluster model under which its states cycle 0, 1, 2."""
    t = np.arange(length)
    settings = np.zeros((length, 3))
    settings[:, 0] = 2.0 * ((t * 7 + phase) % 3)   # centroid j sits at 2j: states 0, 1, 2, 0, ...
    rec = make_record(
        length=length, n_sensors=11, sensor_fn=lambda c, t: np.sin(0.37 * t + c + phase) - 0.5, settings=settings,
    )
    cluster = ClusterModel(k=3, centroids=np.array([[0.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]]),
                           inertia=0.0, feature_spec="settings")
    return rec, cluster


class TestWindows:
    def test_count_formula(self):
        rec = make_record(length=200, n_sensors=11)
        ds = D.make_windows(rec, one_state(rec), window=30, horizon=5, stride=1)
        assert len(ds) == 171

    def test_rul_capping(self):
        rec = make_record(length=220, n_sensors=11)
        ds = D.make_windows(rec, one_state(rec), window=30, horizon=5, rul_cap=125)
        # stride 1: window i ends at cycle 30 + i
        assert ds.rul[100 - 30] == 120.0
        assert ds.rul[50 - 30] == 125.0

    def test_mask_prefix_structure(self):
        rec = make_record(length=40, n_sensors=11)
        ds = D.make_windows(rec, one_state(rec), window=30, horizon=8)
        assert len(ds) == 11
        for m in ds.mask:
            first_zero = int(np.argmin(m)) if (m == 0).any() else len(m)
            assert (m[:first_zero] == 1).all() and (m[first_zero:] == 0).all()

    def test_short_record_empty(self):
        rec = make_record(length=5, n_sensors=11)
        ds = D.make_windows(rec, one_state(rec), window=30, horizon=5)
        assert len(ds) == 0
        batch = ds.batch(np.arange(len(ds)))
        assert batch["inputs"].shape == (0, 30, 11) and batch["future_sensors"].shape == (0, 5, 11)
        assert batch["states"].shape == (0, 30) and batch["future_states"].shape == (0, 5)
        assert batch["mask"].shape == (0, 5) and ds.inputs.shape == (0, 30, 11)

    def test_targets_are_true_future_values(self):
        rec = make_record(length=50, n_sensors=11, sensor_fn=lambda c, t: t.astype(float))
        ds = D.make_windows(rec, one_state(rec), window=10, horizon=3)
        # cutoff at cycle 10 -> future rows 10, 11, 12 (0-based)
        np.testing.assert_array_equal(ds.batch([0])["future_sensors"][0, :, 0], [10.0, 11.0, 12.0])
        np.testing.assert_array_equal(ds.mask[0], [1.0, 1.0, 1.0])

    @given(
        length=st.integers(1, 300),
        window=st.integers(1, 50),
        stride=st.integers(1, 7),
    )
    def test_count_property(self, length, window, stride):
        rec = make_record(length=length, n_sensors=11)
        ds = D.make_windows(rec, one_state(rec), window=window, horizon=4, stride=stride)
        expected = 0 if length < window else (length - window) // stride + 1
        assert len(ds) == expected

    def test_rul_bounds_invariant(self):
        rec = make_record(length=150, n_sensors=11)
        ds = D.make_windows(rec, one_state(rec), window=20, horizon=5, rul_cap=125)
        assert ((ds.rul >= 0.0) & (ds.rul <= 125.0)).all()

    @given(
        length=st.integers(1, 300),
        window=st.integers(1, 50),
        horizon=st.integers(1, 8),
        stride=st.integers(1, 7),
        rul_cap=st.sampled_from([3.0, 40.0, 125.0]),
    )
    def test_matches_per_window_reference(self, length, window, horizon, stride, rul_cap):
        rec, cluster = reference_case(length)
        ds = D.pack_windows([D.make_windows(rec, D.record_states(rec, cluster), window, horizon, stride, rul_cap)])
        batch = ds.batch(np.arange(len(ds)))
        expected = reference_windows(rec, cluster, window, horizon, stride, rul_cap)
        for name, want in expected.items():
            got = batch[name]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name

    @given(
        lengths=st.lists(st.integers(1, 80), min_size=1, max_size=4),
        window=st.integers(1, 30),
        horizon=st.integers(1, 8),
        stride=st.integers(1, 7),
        data=st.data(),
    )
    def test_packed_batch_matches_reference_across_records(self, lengths, window, horizon, stride, data):
        cases = [reference_case(n, phase=i) for i, n in enumerate(lengths)]
        ds = D.pack_windows([D.make_windows(rec, D.record_states(rec, cluster), window, horizon, stride, 40.0)
                             for rec, cluster in cases])
        refs = [reference_windows(rec, cluster, window, horizon, stride, 40.0) for rec, cluster in cases]
        expected = {name: np.concatenate([r[name] for r in refs]) for name in refs[0]}
        assert len(ds) == len(expected["rul"])
        idx = np.asarray(data.draw(st.lists(st.integers(0, max(len(ds) - 1, 0)),
                                            max_size=6 if len(ds) else 0)), dtype=np.int64)
        batch = ds.batch(idx)
        assert set(batch) == set(expected)
        for name, want in expected.items():
            got, want = batch[name], want[idx]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name

    def test_pack_concatenates_records_into_fresh_arrays(self):
        recs = [make_record(unit=u, length=20 + u, n_sensors=11) for u in (1, 2)]
        parts = [D.make_windows(r, one_state(r), window=10, horizon=3) for r in recs]
        ds = D.pack_windows(parts)
        assert len(ds) == len(parts[0]) + len(parts[1]) == 12 + 13
        # one copy of each record's rows plus its 3 zero target rows, not one per window
        assert ds.sensors.shape == (21 + 3 + 22 + 3, 11) and ds.state_ids.shape == (49,)
        np.testing.assert_array_equal(ds.sensors[:21], recs[0].sensors)
        np.testing.assert_array_equal(ds.sensors[24:46], recs[1].sensors)
        assert not ds.sensors[21:24].any() and not ds.sensors[46:].any()
        np.testing.assert_array_equal(ds.starts, np.r_[np.arange(12), 24 + np.arange(13)])
        for name in ("sensors", "state_ids", "starts", "mask", "rul"):
            got = getattr(ds, name)
            assert got.flags.c_contiguous and got.flags.owndata, name
            for part in parts:
                assert not np.shares_memory(got, getattr(part, name)), name
        ds.sensors[:] = -1.0                       # the packed rows share no memory with the records
        assert (recs[0].sensors >= 0).all() and (parts[1].sensors >= 0).all()

    def test_batches_are_fresh_arrays(self):
        rec = make_record(length=25, n_sensors=11)
        ds = D.pack_windows([D.make_windows(rec, one_state(rec), window=10, horizon=3)])
        batch = ds.batch(np.array([3, 0, 3]))
        for name, got in batch.items():
            assert got.flags.c_contiguous and got.flags.owndata, name
            assert not np.shares_memory(got, ds.sensors) and not np.shares_memory(got, ds.state_ids), name
        batch["inputs"][:] = -1.0
        assert (ds.sensors >= 0).all() and (ds.inputs >= 0).all()
        np.testing.assert_array_equal(ds.inputs[[3, 0, 3]], ds.batch(np.array([3, 0, 3]))["inputs"])

    def test_pack_empty_list_rejected(self):
        with pytest.raises(ContractError, match="empty window list"):
            D.pack_windows([])

    def test_pack_rejects_mixed_window_lengths(self):
        rec = make_record(length=20, n_sensors=11)
        parts = [D.make_windows(rec, one_state(rec), window=w, horizon=3) for w in (5, 6)]
        with pytest.raises(ContractError, match="different window"):
            D.pack_windows(parts)

    def test_windows_have_one_form(self):
        assert not hasattr(D, "WindowSample")
        assert [f.name for f in dataclasses.fields(D.WindowDataset)] == [
            "sensors", "state_ids", "starts", "mask", "rul", "window",
        ]

    def test_packed_bytes_grow_with_rows_not_windows(self):
        """On the walkthrough data the packed windows hold each cycle once:
        their bytes stay under one row-and-padding copy plus the per-window
        targets, far below one copy per window."""
        records, _ = generate(SynthSpec(seed=0))
        cfg = TrainConfig()
        cluster, _, normalized = fit_pipeline(records, cfg)
        ds = D.pack_windows(windows_for_records(normalized, cluster, cfg))
        rows, n, S = sum(r.length for r in records), len(ds), ds.sensors.shape[1]
        total = sum(getattr(ds, f.name).nbytes for f in dataclasses.fields(ds) if f.name != "window")
        span = cfg.window + cfg.horizon
        assert total <= (rows + len(records) * span) * (S + 1) * 8 + n * (cfg.horizon + 2) * 8
        assert total < n * cfg.window * S * 8 / 10       # one copy per window would be 30x the rows


@pytest.fixture(scope="module")
def clustered():
    """Six normalized synthetic records and a 3-state model of each feature set."""
    records, _ = generate(SynthSpec(seed=3, engines=6, life_min=40, life_max=70))
    stats = D.fit_normalization(records)
    normalized = [D.normalize_record(r, stats) for r in records]
    models = {
        spec: kmeans_fit(np.concatenate([D.state_features(r, spec) for r in normalized]), 3, seed=0,
                         restarts=2, feature_spec=spec)
        for spec in ("settings", "sensors")
    }
    return normalized, models


class TestWindowsForRecords:
    @settings(max_examples=40)
    @given(
        spec=st.sampled_from(["settings", "sensors"]),
        picks=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 70)), min_size=1, max_size=5),
        window=st.integers(1, 40),
        horizon=st.integers(1, 6),
        stride=st.integers(1, 4),
    )
    def test_one_assignment_equals_per_record_states(self, clustered, spec, picks, window, horizon, stride):
        """Records cut to 1-70 cycles, so some are shorter than the window:
        one ``assign_states`` call over all of them gives each record's
        windows bit for bit as its own ``record_states`` call does."""
        normalized, models = clustered
        model, cfg = models[spec], TrainConfig(window=window, horizon=horizon, stride=stride)
        records = [dataclasses.replace(normalized[i], op_settings=normalized[i].op_settings[:n],
                                       sensors=normalized[i].sensors[:n]) for i, n in picks]
        got = windows_for_records(records, model, cfg)
        assert len(got) == len(records)
        for rec, ds in zip(records, got):
            want = D.make_windows(rec, D.record_states(rec, model), window, horizon, stride, cfg.rul_cap)
            for field in dataclasses.fields(ds):
                a, b = getattr(ds, field.name), getattr(want, field.name)
                if field.name == "window":
                    assert a == b
                else:
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name

    def test_no_records_give_no_datasets(self, clustered):
        assert windows_for_records([], clustered[1]["settings"], TrainConfig()) == []

    @pytest.mark.parametrize("states", [
        np.zeros(9, dtype=np.int64),                # one short
        np.zeros((10, 1), dtype=np.int64),          # not flat
        np.zeros(10),                               # float
        np.zeros(10, dtype=bool),
    ])
    def test_make_windows_rejects_bad_state_ids(self, states):
        with pytest.raises(ContractError, match=r"unit 1: expected \(10,\) integer state ids"):
            D.make_windows(make_record(length=10, n_sensors=11), states, window=4, horizon=2)


class TestTruncate:
    def test_exact_half(self):
        rec = make_record(length=100)
        truncated, residual = D.truncate_at_fraction(rec, 0.5)
        assert truncated.length == 50 and residual == 50
        assert truncated.sensors.base is rec.sensors and truncated.op_settings.base is rec.op_settings

    def test_floor_arithmetic_low(self):
        truncated, residual = D.truncate_at_fraction(make_record(length=137), 0.1)
        assert truncated.length == 13 and residual == 124

    def test_floor_arithmetic_high(self):
        truncated, residual = D.truncate_at_fraction(make_record(length=137), 0.9)
        assert truncated.length == 123 and residual == 14

    def test_fraction_bounds(self):
        with pytest.raises(ContractError):
            D.truncate_at_fraction(make_record(), 1.0)


class TestSplit:
    def test_split_disjoint_and_seeded(self):
        records = [make_record(unit=i) for i in range(1, 11)]
        tr1, va1 = D.split_by_engine(records, 0.2, seed=3)
        tr2, va2 = D.split_by_engine(records, 0.2, seed=3)
        assert [r.unit_id for r in tr1] == [r.unit_id for r in tr2]
        assert {r.unit_id for r in tr1} & {r.unit_id for r in va1} == set()
        assert len(va1) == 2

