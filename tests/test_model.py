import functools
import json
import re
import struct
from collections import OrderedDict
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafn import losses as L
from mafn import pipeline
from mafn import tensor as T
from mafn.checkpoint import CheckpointBundle, load_checkpoint, save_checkpoint
from mafn.cluster import ClusterModel, assign_states
from mafn.config import TrainConfig
from mafn.data import NormalizationStats, make_windows, record_states
from mafn.errors import ContractError, DataError, DimensionError, MafnError, NumericError
from mafn.gradcheck import check_gradients
from mafn.model import MafnModel, PreprocessBundle, clamp_rul, forecast_trajectory, predict_rul, prepare_window
from mafn.synthetic import SynthSpec, generate
from mafn.tensor import Tensor
from tests.test_data import make_record
from tests.test_fused_ops import assert_bits_equal


def tiny_config(**overrides):
    base = dict(
        window=4, horizon=3, k_states=2, embedding_dim=2, kernel_size=3, n_filters=3,
        lstm_hidden=3, trend_dim=2, fusion_widths=(4,), rul_widths=(4, 3),
        batch_size=4, max_epochs=2, patience=1,
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


def tiny_model(seed=0, n_sensors=2, **overrides):
    cfg = tiny_config(**overrides)
    return MafnModel(cfg, n_sensors, np.random.default_rng(seed)), cfg


class TestForward:
    def test_output_shape_contract(self, rng):
        model, cfg = tiny_model()
        out = model.forward(rng.random((1, cfg.window, 2)), rng.integers(0, 2, (1, cfg.window)))
        assert out.state_logits.shape == (1, cfg.horizon, cfg.k_states)
        assert out.degradation.shape == (1, cfg.horizon)
        assert out.forecast.shape == (1, cfg.horizon, 2)
        assert out.rul.shape == (1,)
        for field in (out.state_logits, out.degradation, out.forecast, out.rul):
            assert np.isfinite(field.data).all()

    def test_batched_shapes(self, rng):
        model, cfg = tiny_model()
        out = model.forward(rng.random((5, cfg.window, 2)), rng.integers(0, 2, (5, cfg.window)))
        assert out.state_logits.shape == (5, cfg.horizon, cfg.k_states)
        assert out.forecast.shape == (5, cfg.horizon, 2)
        assert out.rul.shape == (5,)

    def test_attention_weights_sum_to_one(self, rng):
        model, cfg = tiny_model()
        _, weights = model.encode(rng.random((1, cfg.window, 2)), rng.integers(0, 2, (1, cfg.window)))
        assert weights.shape == (1, cfg.window)
        assert weights.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_forward_deterministic(self, rng):
        x = rng.random((1, 4, 2))
        s = rng.integers(0, 2, (1, 4))
        model, _ = tiny_model(seed=3)
        a = model.forward(x, s)
        b = model.forward(x, s)
        assert np.array_equal(a.forecast.data, b.forecast.data)
        assert np.array_equal(a.rul.data, b.rul.data)

    def test_fusion_width_is_trend_plus_embedding(self):
        model, cfg = tiny_model()
        first = model.fusion_layers[0]
        assert first.W.shape[0] == cfg.trend_dim + cfg.embedding_dim

    def test_teacher_forcing_changes_fusion_path(self, rng):
        model, cfg = tiny_model(seed=1)
        x = rng.random((1, cfg.window, 2))
        s = rng.integers(0, 2, (1, cfg.window))
        free = model.forward(x, s)
        predicted = free.state_logits.data.argmax(axis=-1)
        forced_other = model.forward(x, s, future_states=1 - predicted)
        assert not np.allclose(free.forecast.data, forced_other.forecast.data)

    def test_bad_channel_count_names_stage(self, rng):
        model, cfg = tiny_model()
        with pytest.raises(DimensionError, match="encoder"):
            model.forward(rng.random((1, cfg.window, 5)), rng.integers(0, 2, (1, cfg.window)))

    def test_unbatched_window_rejected(self, rng):
        model, cfg = tiny_model()
        with pytest.raises(DimensionError, match=r"\(B, T, D\)"):
            model.forward(rng.random((cfg.window, 2)), rng.integers(0, 2, cfg.window))

    def test_full_model_gradient_check(self, rng):
        model, cfg = tiny_model(seed=11)
        x = rng.random((2, cfg.window, 2))
        s = rng.integers(0, 2, (2, cfg.window))
        fs = rng.integers(0, 2, (2, cfg.horizon))
        fx = rng.random((2, cfg.horizon, 2))
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        rul = np.array([0.3, 0.8])
        weights = L.LossWeights()

        def loss():
            out = model.forward(x, s, future_states=fs)
            comps = {
                "state": L.state_loss(out.state_logits, fs, mask),
                "degradation": L.degradation_loss(out.degradation, cfg.lambda_smooth),
                "forecast": L.forecast_loss(out.forecast, fx, mask),
                "rul": L.rul_loss(out.rul, rul, cfg.lambda_late, cfg.lambda_early),
            }
            return L.total_loss(comps, weights)

        params = list(model.parameters().values())
        worst = check_gradients(loss, params, eps=1e-5, tol=1e-3)
        assert worst < 1e-3


class TestParameterRegistry:
    """The checkpoint names and the tensors Adam updates come from the layers
    the model built; the golden checkpoint covers only two fusion layers."""

    def test_names_in_build_order_and_each_layer_tensor_once(self):
        model, _ = tiny_model(fusion_widths=(8, 6, 4))
        params = model.parameters()
        assert list(params) == [
            "embedding.W", "conv.W", "conv.b",
            "encoder.fwd.W_x", "encoder.fwd.W_h", "encoder.fwd.b",
            "encoder.bwd.W_x", "encoder.bwd.W_h", "encoder.bwd.b",
            "attention.Wh", "attention.Ws", "attention.v", "attention.s",
            "rul.l1.W", "rul.l1.b", "rul.l2.W", "rul.l2.b", "rul.out.W", "rul.out.b",
            "trend.init.W", "trend.init.b", "trend.cell.W_x", "trend.cell.W_h", "trend.cell.b",
            "trend.proj.W", "trend.proj.b",
            "state.init.W", "state.init.b", "state.cell.W_x", "state.cell.W_h", "state.cell.b",
            "state.proj.W", "state.proj.b",
            "fusion.l1.W", "fusion.l1.b", "fusion.l2.W", "fusion.l2.b", "fusion.l3.W", "fusion.l3.b",
            "fusion.out.W", "fusion.out.b",
        ]
        layer_tensors = [tensor for attr, obj in vars(model).items() if not attr.startswith("_")
                         for layer in (obj if isinstance(obj, list) else [obj]) if hasattr(layer, "parameters")
                         for _, tensor in layer.parameters()]
        assert len(layer_tensors) == len(params)
        for tensor in layer_tensors:
            assert sum(p is tensor for p in params.values()) == 1


class TestPrediction:
    def _bundle(self, cfg):
        cluster = ClusterModel(
            k=cfg.k_states,
            centroids=np.arange(cfg.k_states * 3, dtype=float).reshape(cfg.k_states, 3),
            inertia=0.0,
            feature_spec="settings",
        )
        stats = NormalizationStats(
            sensor_ids=(2, 3), mins=np.zeros(2), maxs=np.ones(2)
        )
        return PreprocessBundle(config=cfg, cluster=cluster, stats=stats)

    def test_clamp_rules(self):
        assert clamp_rul(-3.0, 125.0) == 0.0
        assert clamp_rul(140.0, 125.0) == 125.0
        assert clamp_rul(60.0, 125.0) == 60.0

    @pytest.mark.parametrize("raw", [np.nan, np.inf, -np.inf])
    def test_clamp_rejects_non_finite(self, raw):
        with pytest.raises(NumericError):
            clamp_rul(raw, 125.0)

    def test_prediction_in_range(self, rng):
        model, cfg = tiny_model()
        bundle = self._bundle(cfg)
        rec = make_record(length=10, n_sensors=21, sensor_fn=lambda c, t: rng.random(len(t)))
        value = predict_rul(rec, model, bundle)
        assert 0.0 <= value <= cfg.rul_cap

    def test_preselected_record_with_other_ids_names_both(self):
        """A record of two sensor columns is not raw, whichever ids they
        held: the error names the record's unit and width."""
        model, cfg = tiny_model()
        rec = make_record(unit=3, length=10, n_sensors=2)
        with pytest.raises(ContractError, match=re.escape("unit 3: record holds 2 sensor channels, not the raw 21")):
            predict_rul(rec, model, self._bundle(cfg))

    @pytest.mark.parametrize("ids, lacking", [((2, 99), "[99]"), ((0, 3), "[0]")])
    def test_raw_record_lacking_a_checkpoint_id(self, tmp_path, ids, lacking):
        """A raw record holds every id in 1..21, so only stats that name an
        id outside it could ask for a sensor the record lacks; the loader
        refuses such a checkpoint, naming the id, before any record is read.
        Stats refuse the ids when built, so the header is rewritten."""
        model, cfg = tiny_model()
        path = tmp_path / "model.ckpt"
        bundle = self._bundle(cfg)
        save_checkpoint(CheckpointBundle(config=cfg, cluster=bundle.cluster, stats=bundle.stats,
                                         params=model.state_arrays()), path)
        path.write_bytes(with_header(path.read_bytes(), lambda h: h.update(sensor_ids=list(ids))))
        with pytest.raises(DataError, match=rf"sensor_ids \[.*{lacking[1:-1]}.*\] are not distinct ids in 1\.\.21"):
            load_checkpoint(path)

    def test_raw_record_window_equals_the_preselected_one(self, rng):
        """The window of a raw record is its columns ``id - 1``, here under
        stats of [0, 1] that leave each value as it is; a record of those
        columns alone is not raw and is refused."""
        rec = make_record(unit=7, length=10, sensor_fn=lambda c, t: rng.random(len(t)))
        chosen = replace(rec, sensors=rec.sensors[:, [1, 2]])        # sensors 2 and 3
        for cfg in (tiny_config(), tiny_config(window=12, pad_short=True)):
            bundle = self._bundle(cfg)
            rows = np.maximum(np.arange(rec.length - cfg.window, rec.length), 0)
            sensors, states = prepare_window(rec, bundle)
            assert sensors.tobytes() == chosen.sensors[rows].tobytes()
            np.testing.assert_array_equal(states, assign_states(rec.op_settings[rows], bundle.cluster))
            with pytest.raises(ContractError, match="unit 7: record holds 2 sensor channels"):
                prepare_window(chosen, bundle)

    def test_short_history_raises_with_policy_hint(self):
        model, cfg = tiny_model()
        bundle = self._bundle(cfg)
        rec = make_record(length=2)
        with pytest.raises(ContractError, match="pad_short"):
            prepare_window(rec, bundle)

    def test_short_history_padded_when_enabled(self):
        model, cfg = tiny_model(pad_short=True)
        bundle = self._bundle(cfg)
        rec = make_record(length=2)
        inputs, states = prepare_window(rec, bundle)
        assert inputs.shape == (cfg.window, 2)
        np.testing.assert_array_equal(inputs[0], inputs[1])   # repeated first cycle


class TestForecastTrajectory:
    def test_recovers_state_offsets_on_switching_data(self):
        # noise-free two-state data: the forecast must land on trend + state
        # offset (within 0.5 raw units, compared in normalized units), and
        # predicted states must match the cluster's labeling of the true
        # future settings
        from mafn.cluster import assign_states
        from mafn.data import truncate_at_fraction
        from mafn.model import forecast_trajectory
        from mafn.synthetic import SynthSpec, generate, sensor_base

        spec = SynthSpec(
            engines=8, k_states=2, offsets=(-1.0, 1.0), noise_sigma=0.0,
            trend_amplitude=2.0, life_min=70, life_max=90, dwell_min=30,
            dwell_max=40, seed=5,
        )
        records, truth = generate(spec)
        cfg = TrainConfig(
            window=12, horizon=4, stride=2, k_states=2, embedding_dim=3,
            kernel_size=3, n_filters=6, lstm_hidden=10, trend_dim=2,
            fusion_widths=(10,), rul_widths=(10, 6), batch_size=64,
            max_epochs=50, patience=50, learning_rate=3e-3, seed=2,
        ).validate()
        bundle, _ = pipeline.train_run(records, cfg)
        cluster, stats = bundle.cluster, bundle.stats
        model = MafnModel(cfg, 11, np.random.default_rng(cfg.seed))
        model.load_state(bundle.params)

        for rec, eng in zip(records, truth["engines"]):
            truncated, _ = truncate_at_fraction(rec, 0.6)
            cut = truncated.length
            states = np.asarray(eng["states"])
            trend = np.asarray(eng["trend"])
            forecast, pred_states, rul = forecast_trajectory(truncated, model, bundle)
            assert rul == predict_rul(truncated, model, bundle)
            offsets = np.where(states[cut : cut + 4] == 0, -1.0, 1.0)
            span = stats.maxs[0] - stats.mins[0]
            expected = (sensor_base(2) + trend[cut : cut + 4] + offsets - stats.mins[0]) / span
            assert np.abs(forecast[:, 0] - expected).max() < 0.5 / span
            cluster_truth = assign_states(rec.op_settings[cut : cut + 4], cluster)
            np.testing.assert_array_equal(pred_states, cluster_truth)


@functools.lru_cache(maxsize=None)
def walkthrough_prep(cluster_features: str):
    """The walkthrough's raw engines, their normalized copies, the default
    config's preprocessing fitted on them while clustering
    ``cluster_features``, and an untrained model of that config."""
    records = generate(SynthSpec())[0]
    cfg = TrainConfig(cluster_features=cluster_features).validate()
    cluster, stats, normalized = pipeline.fit_pipeline(records, cfg)
    bundle = PreprocessBundle(config=cfg, cluster=cluster, stats=stats)
    return records, normalized, bundle, MafnModel(cfg, bundle.n_sensors, np.random.default_rng(cfg.seed))


class TestInferenceWindow:
    @settings(max_examples=60)
    @given(st.sampled_from(["settings", "sensors"]), st.data())
    def test_equals_the_training_window(self, features, data):
        """A raw history truncated at cycle ``c >= window`` gives, bit for
        bit, the inputs and state ids of the training window that ends at
        ``c`` on the normalized whole record."""
        records, normalized, bundle, _ = walkthrough_prep(features)
        cfg = bundle.config
        i = data.draw(st.integers(0, len(records) - 1), label="engine")
        cut = data.draw(st.integers(cfg.window, records[i].length), label="cycle")
        raw = records[i]
        inputs, states = prepare_window(replace(raw, op_settings=raw.op_settings[:cut], sensors=raw.sensors[:cut]),
                                        bundle)
        ds = make_windows(normalized[i], record_states(normalized[i], bundle.cluster), cfg.window, cfg.horizon, 1, cfg.rul_cap)
        (at,) = np.flatnonzero(ds.starts == cut - cfg.window)
        window = ds.batch([at])
        assert_bits_equal(inputs, window["inputs"][0])
        assert_bits_equal(states, window["states"][0])


class TestFarOutReading:
    @settings(max_examples=40)
    @given(st.data())
    def test_predictions_warn_not(self, data):
        """One setting or selected sensor in the last window at a finite
        value of magnitude 1e3-1e300 overflows the nearest-state distances
        or the LSTM gates.  Called directly, ``predict_rul`` and
        ``forecast_trajectory`` each return a RUL in [0, rul_cap] or raise a
        MafnError; a numpy warning fails the test."""
        records, _, bundle, model = walkthrough_prep("settings")
        cfg = bundle.config
        rec = records[data.draw(st.integers(0, len(records) - 1), label="engine")]
        row = data.draw(st.integers(rec.length - cfg.window, rec.length - 1), label="row")
        column = data.draw(st.sampled_from([("setting", j) for j in range(3)]
                                           + [("sensor", s - 1) for s in bundle.stats.sensor_ids]), label="column")
        value = data.draw(st.floats(3.0, 300.0).map(lambda e: 10.0 ** e), label="magnitude")
        value *= data.draw(st.sampled_from([1.0, -1.0]), label="sign")
        op_settings, sensors = rec.op_settings.copy(), rec.sensors.copy()
        (op_settings if column[0] == "setting" else sensors)[row, column[1]] = value
        edited = replace(rec, op_settings=op_settings, sensors=sensors)
        for predict in (predict_rul, lambda *args: forecast_trajectory(*args)[2]):
            try:
                rul = predict(edited, model, bundle)
            except MafnError:
                continue
            assert 0.0 <= rul <= cfg.rul_cap


def with_header(blob, edit):
    """A checkpoint's bytes with ``edit`` applied to its JSON header, under a
    matching length prefix; the arrays' bytes are kept as they are."""
    (hlen,) = struct.unpack("<Q", blob[12:20])
    header = json.loads(blob[20:20 + hlen])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return blob[:12] + struct.pack("<Q", len(text)) + text + blob[20 + hlen:]


def _set(key, value):
    return lambda blob: with_header(blob, lambda h: h.update({key: value}))


def _edit_array(index, edit):
    return lambda blob: with_header(blob, lambda h: edit(h["arrays"], h["arrays"][index]))


# each damages a checkpoint's layout; without a check of the layout before
# the reads, a negative dimension raised a read error, and every other case
# loaded or raised MemoryError
DAMAGED_LAYOUTS = {
    "8 bytes appended": (lambda blob: blob + bytes(8), "8 bytes after the last array"),
    "length prefix 2**44": (lambda blob: blob[:12] + struct.pack("<Q", 2**44) + blob[20:],
                            r"truncated checkpoint \(header\)"),
    "dimension 2**44": (_edit_array(3, lambda arrays, a: a["shape"].__setitem__(0, 2**44)),
                        r"truncated checkpoint \(array param\."),
    "negative dimension": (_edit_array(3, lambda arrays, a: a["shape"].__setitem__(0, -1)),
                           "negative dimension"),
    "array outside the groups": (_edit_array(3, lambda arrays, a: a.update(name="weights.x")),
                                 "'weights.x' is unknown or repeated"),
    "array named twice": (_edit_array(4, lambda arrays, a: a.update(name=arrays[3]["name"])),
                          "unknown or repeated"),
    "sensor id 0": (_set("sensor_ids", [0, 3]), r"sensor_ids \[0, 3\]"),
    "sensor id 22": (_set("sensor_ids", [2, 22]), r"sensor_ids \[2, 22\]"),
    "sensor id repeated": (_set("sensor_ids", [3, 3]), r"sensor_ids \[3, 3\]"),
    "sensor ids descending": (_set("sensor_ids", [3, 2]), r"sensor_ids \[3, 2\]"),
}


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        model, cfg = tiny_model(seed=5)
        cluster = ClusterModel(
            k=2, centroids=rng.normal(size=(2, 3)), inertia=1.25, feature_spec="settings"
        )
        stats = NormalizationStats(sensor_ids=(2, 3), mins=np.array([0.0, 1.0]), maxs=np.array([2.0, 9.0]))
        bundle = CheckpointBundle(
            config=cfg, params=model.state_arrays(), cluster=cluster, stats=stats
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.cluster.k == 2
        assert loaded.cluster.feature_spec == "settings"
        np.testing.assert_array_equal(loaded.cluster.centroids, cluster.centroids)
        np.testing.assert_array_equal(loaded.stats.mins, stats.mins)
        assert list(loaded.params) == list(bundle.params)
        for name in bundle.params:
            np.testing.assert_array_equal(loaded.params[name], bundle.params[name])

    def _saved(self, tmp_path):
        model, cfg = tiny_model(seed=5)
        cluster = ClusterModel(k=2, centroids=np.zeros((2, 3)), inertia=0.0, feature_spec="settings")
        stats = NormalizationStats(sensor_ids=(2, 3), mins=np.zeros(2), maxs=np.ones(2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(CheckpointBundle(config=cfg, params=model.state_arrays(), cluster=cluster, stats=stats), path)
        return path.read_bytes()

    def test_load_predictor_returns_the_loaded_bundle(self, tmp_path, monkeypatch):
        """The checkpoint ``load_checkpoint`` builds is, unchanged and frozen,
        the preprocessing bundle ``load_predictor`` returns."""
        self._saved(tmp_path)
        built = []
        monkeypatch.setattr(pipeline, "load_checkpoint", lambda path: built.append(load_checkpoint(path)) or built[0])
        model, prep = pipeline.load_predictor(tmp_path / "model.ckpt")
        assert prep is built[0] and isinstance(prep, PreprocessBundle)
        assert prep.n_sensors == model.n_sensors == 2
        with pytest.raises(FrozenInstanceError):
            prep.stats = None

    def test_every_prefix_loads_or_raises_data_error(self, tmp_path):
        blob = self._saved(tmp_path)
        cut = tmp_path / "cut.ckpt"
        for n in range(0, len(blob), 3):
            cut.write_bytes(blob[:n])
            with pytest.raises(DataError):
                load_checkpoint(cut)
        cut.write_bytes(blob)
        load_checkpoint(cut)

    def test_corrupt_header_raises_data_error(self, tmp_path):
        blob = bytearray(self._saved(tmp_path))
        blob[20] = ord("x")                   # first byte of the JSON header
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="header"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("case", sorted(DAMAGED_LAYOUTS))
    def test_layout_checked_before_reading(self, tmp_path, case):
        damage, message = DAMAGED_LAYOUTS[case]
        blob = self._saved(tmp_path)
        assert with_header(blob, lambda h: None) == blob
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(damage(blob))
        with pytest.raises(DataError, match=message):
            load_checkpoint(bad)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        before = self._saved(tmp_path)
        model, cfg = tiny_model(seed=6)
        params = model.state_arrays()
        params["zz.bad"] = np.array(["not a number"])    # fails after the other arrays are written
        cluster = ClusterModel(k=2, centroids=np.zeros((2, 3)), inertia=0.0, feature_spec="settings")
        stats = NormalizationStats(sensor_ids=(2, 3), mins=np.zeros(2), maxs=np.ones(2))
        with pytest.raises(ValueError):
            save_checkpoint(CheckpointBundle(config=cfg, params=params, cluster=cluster, stats=stats),
                            tmp_path / "model.ckpt")
        assert (tmp_path / "model.ckpt").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_serialization_deterministic(self, tmp_path, rng):
        model, cfg = tiny_model(seed=5)
        cluster = ClusterModel(k=2, centroids=np.zeros((2, 3)), inertia=0.0, feature_spec="settings")
        stats = NormalizationStats(sensor_ids=(2, 3), mins=np.zeros(2), maxs=np.ones(2))
        bundle = CheckpointBundle(config=cfg, params=model.state_arrays(), cluster=cluster, stats=stats)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(bundle, p1)
        save_checkpoint(bundle, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_state_reproduces_outputs(self, tmp_path, rng):
        model, cfg = tiny_model(seed=5)
        x = rng.random((1, cfg.window, 2))
        s = rng.integers(0, 2, (1, cfg.window))
        base = model.forward(x, s).forecast.data
        fresh, _ = tiny_model(seed=99)
        assert not np.allclose(fresh.forward(x, s).forecast.data, base)
        fresh.load_state(model.state_arrays())
        np.testing.assert_array_equal(fresh.forward(x, s).forecast.data, base)

    def test_old_format_version_rejected(self, tmp_path):
        blob = bytearray(self._saved(tmp_path))
        blob[8:12] = (1).to_bytes(4, "little")     # the version field after the magic
        old = tmp_path / "old.ckpt"
        old.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version 1"):
            load_checkpoint(old)

    def test_load_state_extra_parameter(self):
        model, _ = tiny_model()
        params = model.state_arrays()
        params["encoder.fwd.W_xi"] = np.zeros((3, 3))
        with pytest.raises(ContractError, match="encoder.fwd.W_xi"):
            model.load_state(params)

    def test_load_state_shape_mismatch(self):
        model, _ = tiny_model()
        params = model.state_arrays()
        bad = OrderedDict(params)
        bad["conv.W"] = np.zeros((1, 1, 1))
        with pytest.raises(DimensionError, match="conv.W"):
            model.load_state(bad)
