import tempfile
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


class TestWindows:
    def test_count_formula(self):
        rec = D.select_sensors(make_record(length=200))
        samples = D.make_windows(rec, single_state_cluster(), window=30, horizon=5, stride=1)
        assert len(samples) == 171

    def test_rul_capping(self):
        rec = D.select_sensors(make_record(length=220))
        samples = D.make_windows(rec, single_state_cluster(), window=30, horizon=5, rul_cap=125)
        by_cut = {s.cutoff_cycle: s for s in samples}
        assert by_cut[100].rul == 120.0
        assert by_cut[50].rul == 125.0

    def test_mask_prefix_structure(self):
        rec = D.select_sensors(make_record(length=40))
        for s in D.make_windows(rec, single_state_cluster(), window=30, horizon=8):
            m = s.mask
            first_zero = int(np.argmin(m)) if (m == 0).any() else len(m)
            assert (m[:first_zero] == 1).all() and (m[first_zero:] == 0).all()

    def test_short_record_empty(self):
        rec = D.select_sensors(make_record(length=5))
        assert D.make_windows(rec, single_state_cluster(), window=30, horizon=5) == []

    def test_targets_are_true_future_values(self):
        rec = D.select_sensors(make_record(length=50, sensor_fn=lambda c, t: t.astype(float)))
        samples = D.make_windows(rec, single_state_cluster(), window=10, horizon=3)
        s = samples[0]   # cutoff at cycle 10 -> future rows 10, 11, 12 (0-based)
        np.testing.assert_array_equal(s.future_sensors[:, 0], [10.0, 11.0, 12.0])
        np.testing.assert_array_equal(s.mask, [1.0, 1.0, 1.0])

    @given(
        length=st.integers(1, 300),
        window=st.integers(1, 50),
        stride=st.integers(1, 7),
    )
    def test_count_property(self, length, window, stride):
        rec = D.select_sensors(make_record(length=length))
        samples = D.make_windows(rec, single_state_cluster(), window=window, horizon=4, stride=stride)
        expected = 0 if length < window else (length - window) // stride + 1
        assert len(samples) == expected

    def test_rul_bounds_invariant(self):
        rec = D.select_sensors(make_record(length=150))
        for s in D.make_windows(rec, single_state_cluster(), window=20, horizon=5, rul_cap=125):
            assert 0.0 <= s.rul <= 125.0


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

