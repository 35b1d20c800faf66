"""``predict_rul`` runs the encoder and the RUL head on a window cut before
normalization; the reference below is the path it replaced: normalize the
whole history, cut its trailing window, run the full ``forward`` and clamp
the RUL.  Both must give the same bits."""
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafn import tensor as T
from mafn.cluster import ClusterModel
from mafn.data import (
    N_RAW_SENSORS,
    EngineRecord,
    NormalizationStats,
    normalize_values,
    record_states,
)
from mafn.errors import ContractError
from mafn.model import MafnModel, PreprocessBundle, clamp_rul, forecast_trajectory, predict_rul
from tests.test_data import make_record
from tests.test_model import tiny_config, tiny_model


def reference_prepare(record, bundle):
    """Normalize the full history, left-pad it when short, cut the window.
    A raw record's column j is sensor j + 1."""
    cfg = bundle.config
    cols = [s - 1 for s in bundle.stats.sensor_ids]
    record = replace(record, sensors=normalize_values(record.sensors[:, cols], bundle.stats))
    if record.length < cfg.window:
        pad = cfg.window - record.length
        record = replace(
            record,
            sensors=np.concatenate([np.repeat(record.sensors[:1], pad, axis=0), record.sensors]),
            op_settings=np.concatenate([np.repeat(record.op_settings[:1], pad, axis=0), record.op_settings]),
        )
    states = record_states(record, bundle.cluster)
    return record.sensors[-cfg.window :], states[-cfg.window :]


def reference_forward(record, model, bundle):
    """Full forward on the reference window: (RUL in cycles, normalized
    forecast, states)."""
    inputs, states = reference_prepare(record, bundle)
    with T.no_grad():
        out = model.forward(inputs[None], states[None])
    cap = bundle.config.rul_cap
    return clamp_rul(out.rul.item() * cap, cap), out.forecast.data[0], out.state_logits.data[0].argmax(axis=-1)


@st.composite
def cases(draw):
    window = draw(st.integers(3, 7))
    pad_short = draw(st.booleans())
    feature_spec = draw(st.sampled_from(["settings", "sensors"]))
    cfg = tiny_config(
        window=window, horizon=draw(st.integers(2, 4)), k_states=draw(st.integers(1, 3)),
        lstm_hidden=draw(st.integers(2, 4)), pad_short=pad_short, cluster_features=feature_spec,
    )
    seed = draw(st.integers(0, 2**16))
    g = np.random.default_rng(seed)
    sensor_ids = tuple(sorted(g.choice(np.arange(1, N_RAW_SENSORS + 1), size=draw(st.integers(1, 4)),
                                       replace=False).tolist()))
    n = len(sensor_ids)
    mins = g.normal(size=n)
    maxs = mins + g.uniform(0.5, 2.0, size=n)
    if draw(st.booleans()):
        maxs[0] = mins[0]                                  # a degenerate channel
    stats = NormalizationStats(sensor_ids=sensor_ids, mins=mins, maxs=maxs)
    n_features = 3 if feature_spec == "settings" else n
    cluster = ClusterModel(k=cfg.k_states, centroids=g.normal(size=(cfg.k_states, n_features)),
                           inertia=0.0, feature_spec=feature_spec)
    bundle = PreprocessBundle(config=cfg, cluster=cluster, stats=stats)

    length = draw(st.integers(1, 3 * window))
    raw = draw(st.booleans())
    record = EngineRecord(
        unit_id=1,
        op_settings=g.normal(size=(length, 3)),
        sensors=g.normal(size=(length, N_RAW_SENSORS if raw else n)) * 2.0,
    )
    model = MafnModel(cfg, n, np.random.default_rng(seed + 1))
    return record, model, bundle


class TestPredictOracle:
    @settings(max_examples=80, deadline=None)
    @given(cases())
    def test_rul_only_path_matches_full_forward(self, case):
        record, model, bundle = case
        if record.length < bundle.config.window and not bundle.config.pad_short:
            with pytest.raises(ContractError, match="pad_short"):
                predict_rul(record, model, bundle)
            return
        if record.sensors.shape[1] != N_RAW_SENSORS:       # a record of the stats' sensors only
            message = re.escape(f"unit 1: record holds {record.sensors.shape[1]} sensor channels, not the raw 21")
            for run in (predict_rul, forecast_trajectory):
                with pytest.raises(ContractError, match=message):
                    run(record, model, bundle)
            return
        rul, forecast, states = reference_forward(record, model, bundle)
        got = predict_rul(record, model, bundle)
        assert got == rul
        sensors, predicted_states, traj_rul = forecast_trajectory(record, model, bundle)
        assert traj_rul == got
        assert np.array_equal(sensors, forecast)
        assert np.array_equal(predicted_states, states)

    def test_predict_skips_the_decoders(self, monkeypatch, rng):
        model, cfg = tiny_model(seed=4)
        stats = NormalizationStats(sensor_ids=(2, 3), mins=np.zeros(2), maxs=np.ones(2))
        cluster = ClusterModel(k=2, centroids=rng.normal(size=(2, 3)), inertia=0.0, feature_spec="settings")
        bundle = PreprocessBundle(config=cfg, cluster=cluster, stats=stats)
        record = make_record(length=10, sensor_fn=lambda c, t: rng.random(len(t)))
        calls = []
        scan = T.lstm_scan

        def counting(*args, **kwargs):
            calls.append(1)
            return scan(*args, **kwargs)

        monkeypatch.setattr(T, "lstm_scan", counting)
        predict_rul(record, model, bundle)
        assert len(calls) == 1                             # the BiLSTM, both directions in one scan
        calls.clear()
        forecast_trajectory(record, model, bundle)
        assert len(calls) == 3                             # plus the trend and state decoders
