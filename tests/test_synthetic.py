import numpy as np
import pytest

from mafn.config import parse_fields
from mafn.data import DROPPED_SENSORS, SELECTED_SENSORS, parse_cmapss, write_cmapss
from mafn.errors import ContractError, DataError
from mafn.synthetic import (
    SynthSpec,
    default_synth_spec_text,
    generate,
    sensor_base,
    trend_curve,
)


class TestGenerate:
    def test_noise_free_single_state_is_pure_trend(self):
        spec = SynthSpec(engines=1, k_states=1, offsets=(0.5,), noise_sigma=0.0,
                         life_min=50, life_max=50, dwell_min=500, dwell_max=500, seed=1)
        records, truth = generate(spec)
        rec = records[0]
        trend = np.asarray(truth["engines"][0]["trend"])
        col = list(range(1, 22)).index(SELECTED_SENSORS[0])
        np.testing.assert_allclose(
            rec.sensors[:, col], sensor_base(SELECTED_SENSORS[0]) + trend + 0.5, atol=1e-12
        )

    def test_two_state_square_wave(self):
        spec = SynthSpec(engines=1, k_states=2, offsets=(-1.0, 1.0), noise_sigma=0.0,
                         life_min=80, life_max=80, dwell_min=20, dwell_max=20, seed=3)
        records, truth = generate(spec)
        states = np.asarray(truth["engines"][0]["states"])
        trend = np.asarray(truth["engines"][0]["trend"])
        col = list(range(1, 22)).index(7)
        signal = records[0].sensors[:, col] - sensor_base(7) - trend
        np.testing.assert_allclose(signal, np.where(states == 0, -1.0, 1.0), atol=1e-12)
        assert len(np.unique(states)) == 2
        # dwell 20 means switches exactly every 20 cycles
        switch_points = np.nonzero(np.diff(states))[0] + 1
        np.testing.assert_array_equal(switch_points % 20, np.zeros(len(switch_points)))

    def test_roundtrips_through_parser(self, tmp_path):
        records, _ = generate(SynthSpec(engines=3, life_min=30, life_max=40, seed=9))
        path = tmp_path / "synth.txt"
        write_cmapss(records, path)
        parsed = parse_cmapss(path)
        assert len(parsed) == 3
        assert parsed[0].sensors.shape[1] == 21

    def test_dropped_sensors_constant(self):
        records, _ = generate(SynthSpec(engines=2, life_min=30, life_max=40, seed=9))
        for rec in records:
            for sid in DROPPED_SENSORS:
                col = sid - 1
                assert np.ptp(rec.sensors[:, col]) == 0.0

    def test_deterministic(self):
        a, _ = generate(SynthSpec(engines=2, seed=42))
        b, _ = generate(SynthSpec(engines=2, seed=42))
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.sensors, rb.sensors)

    def test_rul_truth(self):
        records, truth = generate(SynthSpec(engines=1, life_min=25, life_max=25, seed=0))
        rul = truth["engines"][0]["rul"]
        assert rul[0] == 24 and rul[-1] == 0

    def test_offsets_must_match_states(self):
        with pytest.raises(ContractError):
            generate(SynthSpec(k_states=3, offsets=(0.0, 1.0)))

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", float("nan")), ("trend_amplitude", float("inf")),
        ("setting_jitter", float("-inf")), ("offsets", (-1.0, float("nan"))),
    ])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ContractError, match=f"{field} must be finite"):
            generate(SynthSpec(**{field: value}))

    def test_negative_setting_jitter_rejected(self):
        with pytest.raises(ContractError, match="setting_jitter must be >= 0"):
            generate(SynthSpec(setting_jitter=-1.0))

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError, match="seed must be >= 0"):
            generate(SynthSpec(seed=-1))


class TestTrend:
    def test_linear_endpoints(self):
        t = trend_curve(11, "linear", 4.0)
        assert t[0] == 0.0 and t[-1] == 4.0
        assert (np.diff(t) > 0).all()

    def test_quadratic_monotone(self):
        t = trend_curve(50, "quadratic", 2.0)
        assert (np.diff(t) >= 0).all()
        assert t[-1] == pytest.approx(2.0)


class TestSpecText:
    def test_default_text_roundtrip(self):
        spec = parse_fields(SynthSpec, default_synth_spec_text(), "<string>", "synthesis")
        assert spec == SynthSpec()

    def test_overrides(self):
        text = "engines = 7\noffsets = -2,2\nnoise_sigma = 0\nk_states = 2"
        spec = parse_fields(SynthSpec, text, "<string>", "synthesis")
        assert spec.engines == 7
        assert spec.offsets == (-2.0, 2.0)
        assert spec.noise_sigma == 0.0

    @pytest.mark.parametrize("line", ["validate = 3", "__init__ = 1", "no_such_knob = 2"])
    def test_only_field_names_are_keys(self, line):
        with pytest.raises(DataError, match="unknown synthesis key"):
            parse_fields(SynthSpec, line, "<string>", "synthesis")

    def test_bad_value_names_path_line_and_field(self):
        with pytest.raises(DataError, match=r"^synth\.spec:2: synthesis field engines: "):
            parse_fields(SynthSpec, "seed = 1\nengines = many\n", "synth.spec", "synthesis")
