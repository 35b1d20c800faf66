import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mafn import data as D
from mafn.cluster import ClusterModel
from mafn.errors import ContractError, DataError, ParseError
from mafn.synthetic import SynthSpec, generate


def make_record(unit=1, length=10, n_sensors=21, sensor_fn=None, settings=None):
    sensors = np.zeros((length, n_sensors))
    for col in range(n_sensors):
        sensors[:, col] = (sensor_fn or (lambda c, t: float(c + 1)))(col, np.arange(length))
    return D.EngineRecord(
        unit_id=unit,
        cycle_index=np.arange(1, length + 1),
        op_settings=settings if settings is not None else np.zeros((length, 3)),
        sensors=sensors,
        sensor_ids=tuple(range(1, n_sensors + 1)),
    )


def single_state_cluster():
    return ClusterModel(k=1, centroids=np.zeros((1, 3)), inertia=0.0, feature_spec="settings")


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
            np.testing.assert_array_equal(a.cycle_index, b.cycle_index)
            np.testing.assert_array_equal(a.op_settings, b.op_settings)
            np.testing.assert_array_equal(a.sensors, b.sensors)

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


class TestSelectSensors:
    def test_channel_count(self):
        reduced = D.select_sensors(make_record())
        assert reduced.sensors.shape[1] == 11
        assert reduced.sensor_ids == D.SELECTED_SENSORS

    def test_dropped_set(self):
        kept = set(D.SELECTED_SENSORS)
        dropped = set(D.DROPPED_SENSORS)
        assert kept | dropped == set(range(1, 22))
        assert kept & dropped == set()

    def test_sensor2_lands_in_channel0(self):
        rec = make_record(sensor_fn=lambda c, t: 7.7 if c == 1 else 0.0)
        reduced = D.select_sensors(rec)
        assert (reduced.sensors[:, 0] == 7.7).all()

    def test_constant_channels_by_hand(self):
        rec = make_record(sensor_fn=lambda c, t: float(c + 1))
        reduced = D.select_sensors(rec)
        np.testing.assert_array_equal(reduced.sensors[0], list(D.SELECTED_SENSORS))


class TestNormalization:
    def test_min_max_definition(self):
        rec = make_record(length=3, n_sensors=21, sensor_fn=lambda c, t: np.array([2.0, 4.0, 10.0]))
        sel = D.select_sensors(rec)
        stats = D.fit_normalization([sel])
        assert stats.mins[0] == 2.0 and stats.maxs[0] == 10.0

    def test_degenerate_flagged(self):
        rec = D.select_sensors(make_record(length=3, sensor_fn=lambda c, t: 5.0))
        stats = D.fit_normalization([rec])
        assert stats.degenerate.all()
        np.testing.assert_array_equal(D.normalize_values(np.full(11, 5.0), stats), np.zeros(11))

    def test_union_of_two_engines(self):
        r1 = D.select_sensors(make_record(unit=1, length=4, sensor_fn=lambda c, t: 1.0 + t))
        r2 = D.select_sensors(make_record(unit=2, length=4, sensor_fn=lambda c, t: 10.0 + t))
        stats = D.fit_normalization([r1, r2])
        assert stats.mins[0] == 1.0 and stats.maxs[0] == 13.0

    def test_endpoints(self):
        stats = D.NormalizationStats(sensor_ids=(2,), mins=np.array([2.0]), maxs=np.array([10.0]))
        assert D.normalize_values(np.array([2.0]), stats)[0] == 0.0
        assert D.normalize_values(np.array([10.0]), stats)[0] == 1.0
        assert D.normalize_values(np.array([6.0]), stats)[0] == 0.5

    def test_no_clipping_outside_train_range(self):
        stats = D.NormalizationStats(sensor_ids=(2,), mins=np.array([0.0]), maxs=np.array([1.0]))
        assert D.normalize_values(np.array([2.0]), stats)[0] == 2.0

    def test_denormalize_inverts(self, rng):
        stats = D.NormalizationStats(
            sensor_ids=tuple(range(11)), mins=rng.normal(size=11), maxs=rng.normal(size=11) + 5.0
        )
        v = rng.normal(size=(4, 11))
        np.testing.assert_allclose(
            D.normalize_values(D.denormalize_values(v, stats), stats), v, atol=1e-12
        )

    def test_empty_train_set(self):
        with pytest.raises(ContractError):
            D.fit_normalization([])

    def test_overflowing_span_names_sensor(self):
        def readings(col, t):                # sensor 7 reads 1e308, then -1e308
            return np.where(t == 0, 1e308, -1e308) if col == 6 else np.zeros(len(t))

        rec = D.select_sensors(make_record(length=2, sensor_fn=readings))
        with pytest.raises(DataError, match="sensor 7:"):
            D.fit_normalization([rec])


def reference_windows(record, cluster_model, window, horizon, stride, rul_cap):
    """The per-window loop that ``make_windows`` replaces with strided views:
    one window at a time, written into preallocated packed arrays."""
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


class TestWindows:
    def test_count_formula(self):
        rec = D.select_sensors(make_record(length=200))
        ds = D.make_windows(rec, single_state_cluster(), window=30, horizon=5, stride=1)
        assert len(ds) == 171

    def test_rul_capping(self):
        rec = D.select_sensors(make_record(length=220))
        ds = D.make_windows(rec, single_state_cluster(), window=30, horizon=5, rul_cap=125)
        # stride 1: window i ends at cycle 30 + i
        assert ds.rul[100 - 30] == 120.0
        assert ds.rul[50 - 30] == 125.0

    def test_mask_prefix_structure(self):
        rec = D.select_sensors(make_record(length=40))
        ds = D.make_windows(rec, single_state_cluster(), window=30, horizon=8)
        assert len(ds) == 11
        for m in ds.mask:
            first_zero = int(np.argmin(m)) if (m == 0).any() else len(m)
            assert (m[:first_zero] == 1).all() and (m[first_zero:] == 0).all()

    def test_short_record_empty(self):
        rec = D.select_sensors(make_record(length=5))
        ds = D.make_windows(rec, single_state_cluster(), window=30, horizon=5)
        assert len(ds) == 0
        assert ds.inputs.shape == (0, 30, 11) and ds.future_sensors.shape == (0, 5, 11)
        assert ds.states.shape == (0, 30) and ds.future_states.shape == (0, 5)
        assert ds.mask.shape == (0, 5)

    def test_targets_are_true_future_values(self):
        rec = D.select_sensors(make_record(length=50, sensor_fn=lambda c, t: t.astype(float)))
        ds = D.make_windows(rec, single_state_cluster(), window=10, horizon=3)
        # cutoff at cycle 10 -> future rows 10, 11, 12 (0-based)
        np.testing.assert_array_equal(ds.future_sensors[0, :, 0], [10.0, 11.0, 12.0])
        np.testing.assert_array_equal(ds.mask[0], [1.0, 1.0, 1.0])

    @given(
        length=st.integers(1, 300),
        window=st.integers(1, 50),
        stride=st.integers(1, 7),
    )
    def test_count_property(self, length, window, stride):
        rec = D.select_sensors(make_record(length=length))
        ds = D.make_windows(rec, single_state_cluster(), window=window, horizon=4, stride=stride)
        expected = 0 if length < window else (length - window) // stride + 1
        assert len(ds) == expected

    def test_rul_bounds_invariant(self):
        rec = D.select_sensors(make_record(length=150))
        ds = D.make_windows(rec, single_state_cluster(), window=20, horizon=5, rul_cap=125)
        assert ((ds.rul >= 0.0) & (ds.rul <= 125.0)).all()

    @given(
        length=st.integers(1, 300),
        window=st.integers(1, 50),
        horizon=st.integers(1, 8),
        stride=st.integers(1, 7),
        rul_cap=st.sampled_from([3.0, 40.0, 125.0]),
    )
    def test_matches_per_window_reference(self, length, window, horizon, stride, rul_cap):
        t = np.arange(length)
        settings = np.zeros((length, 3))
        settings[:, 0] = 2.0 * ((t * 7) % 3)       # centroid j sits at 2j: states 0, 1, 2, 0, ...
        rec = D.select_sensors(
            make_record(length=length, sensor_fn=lambda c, t: np.sin(0.37 * t + c) - 0.5, settings=settings)
        )
        cluster = ClusterModel(k=3, centroids=np.array([[0.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]]),
                               inertia=0.0, feature_spec="settings")
        ds = D.pack_windows([D.make_windows(rec, cluster, window, horizon, stride, rul_cap)])
        expected = reference_windows(rec, cluster, window, horizon, stride, rul_cap)
        for name, want in expected.items():
            got = getattr(ds, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name

    def test_pack_concatenates_records_into_fresh_arrays(self):
        recs = [D.select_sensors(make_record(unit=u, length=20 + u)) for u in (1, 2)]
        parts = [D.make_windows(r, single_state_cluster(), window=10, horizon=3) for r in recs]
        ds = D.pack_windows(parts)
        assert len(ds) == len(parts[0]) + len(parts[1]) == 12 + 13
        for f in fields(D.WindowDataset):
            got = getattr(ds, f.name)
            np.testing.assert_array_equal(got, np.concatenate([getattr(p, f.name) for p in parts]))
            assert got.flags.c_contiguous and got.flags.owndata
        ds.inputs[:] = -1.0                        # the packed arrays share no memory with the records
        assert (recs[0].sensors >= 0).all() and (parts[1].inputs >= 0).all()

    def test_pack_empty_list_rejected(self):
        with pytest.raises(ContractError, match="empty window list"):
            D.pack_windows([])

    def test_windows_have_one_form(self):
        assert not hasattr(D, "WindowSample")
        assert [f.name for f in fields(D.WindowDataset)] == [
            "inputs", "states", "future_states", "future_sensors", "mask", "rul",
        ]


class TestTruncate:
    def test_exact_half(self):
        rec = make_record(length=100)
        truncated, residual = D.truncate_at_fraction(rec, 0.5)
        assert truncated.length == 50 and residual == 50

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

