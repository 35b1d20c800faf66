from collections import OrderedDict

import numpy as np
import pytest

from mafn import losses as L
from mafn import tensor as T
from mafn.checkpoint import CheckpointBundle, load_checkpoint, save_checkpoint
from mafn.cluster import ClusterModel
from mafn.config import TrainConfig
from mafn.data import NormalizationStats
from mafn.errors import ContractError, DataError, DimensionError
from mafn.gradcheck import check_gradients
from mafn.model import MafnModel, PreprocessBundle, clamp_rul, predict_rul, prepare_window
from mafn.tensor import Tensor
from tests.test_data import make_record


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
        out = model.forward(rng.random((cfg.window, 2)), rng.integers(0, 2, cfg.window))
        assert out.state_logits.shape == (cfg.horizon, cfg.k_states)
        assert out.degradation.shape == (cfg.horizon,)
        assert out.forecast.shape == (cfg.horizon, 2)
        assert out.rul.shape == ()
        assert out.attention_weights.shape == (cfg.window,)
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
        out = model.forward(rng.random((cfg.window, 2)), rng.integers(0, 2, cfg.window))
        assert out.attention_weights.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_forward_deterministic(self, rng):
        x = rng.random((4, 2))
        s = rng.integers(0, 2, 4)
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
        x = rng.random((cfg.window, 2))
        s = rng.integers(0, 2, cfg.window)
        free = model.forward(x, s)
        predicted = free.state_logits.data.argmax(axis=-1)
        forced_other = model.forward(x, s, future_states=1 - predicted)
        assert not np.allclose(free.forecast.data, forced_other.forecast.data)

    def test_bad_channel_count_names_stage(self, rng):
        model, cfg = tiny_model()
        with pytest.raises(DimensionError, match="encoder"):
            model.forward(rng.random((cfg.window, 5)), rng.integers(0, 2, cfg.window))

    def test_horizon_override(self, rng):
        model, cfg = tiny_model()
        out = model.forward(rng.random((cfg.window, 2)), rng.integers(0, 2, cfg.window), horizon=1)
        assert out.forecast.shape == (1, 2)

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

    def test_prediction_in_range(self, rng):
        model, cfg = tiny_model()
        bundle = self._bundle(cfg)
        rec = make_record(length=10, n_sensors=21, sensor_fn=lambda c, t: rng.random(len(t)))
        value = predict_rul(rec, model, bundle)
        assert 0.0 <= value <= cfg.rul_cap

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
        # offset, and predicted states must match the cluster's labeling of
        # the true future settings
        from mafn.pipeline import fit_pipeline, windows_for_records
        from mafn.cluster import assign_states
        from mafn.data import pack_windows, split_by_engine, truncate_at_fraction
        from mafn.model import forecast_trajectory
        from mafn.synthetic import SynthSpec, generate, sensor_base
        from mafn.training import train

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
        cluster, stats, normalized = fit_pipeline(records, cfg)
        tr, vl = split_by_engine(normalized, cfg.val_fraction, cfg.seed)
        result = train(
            pack_windows(windows_for_records(tr, cluster, cfg)),
            pack_windows(windows_for_records(vl, cluster, cfg)),
            cfg, 11,
        )
        model = MafnModel(cfg, 11, np.random.default_rng(cfg.seed))
        model.load_state(result.params)
        bundle = PreprocessBundle(config=cfg, cluster=cluster, stats=stats)

        for rec, eng in zip(records, truth["engines"]):
            truncated, _ = truncate_at_fraction(rec, 0.6)
            cut = truncated.length
            states = np.asarray(eng["states"])
            trend = np.asarray(eng["trend"])
            forecast, pred_states = forecast_trajectory(truncated, model, bundle)
            offsets = np.where(states[cut : cut + 4] == 0, -1.0, 1.0)
            expected = sensor_base(2) + trend[cut : cut + 4] + offsets
            assert np.abs(forecast[:, 0] - expected).max() < 0.5
            cluster_truth = assign_states(rec.op_settings[cut : cut + 4], cluster)
            np.testing.assert_array_equal(pred_states, cluster_truth)


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
        x = rng.random((cfg.window, 2))
        s = rng.integers(0, 2, cfg.window)
        base = model.forward(x, s).forecast.data
        fresh, _ = tiny_model(seed=99)
        assert not np.allclose(fresh.forward(x, s).forecast.data, base)
        fresh.load_state(model.state_arrays())
        np.testing.assert_array_equal(fresh.forward(x, s).forecast.data, base)

    def test_load_state_shape_mismatch(self):
        model, _ = tiny_model()
        params = model.state_arrays()
        bad = OrderedDict(params)
        bad["conv.W"] = np.zeros((1, 1, 1))
        with pytest.raises(DimensionError, match="conv.W"):
            model.load_state(bad)
