import dataclasses
import functools
import hashlib
import logging
import re
import warnings
from collections import Counter, OrderedDict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mafn import losses as L
from mafn import tensor as T
from mafn import training
from mafn.pipeline import fit_pipeline, train_run, windows_for_records
from mafn.config import TrainConfig
from mafn.data import WindowDataset, pack_windows, parse_cmapss, split_by_engine, truncate_at_fraction, write_cmapss
from mafn.errors import ContractError, NumericError
from mafn.model import MafnModel, PreprocessBundle, forecast_trajectory, predict_rul
from mafn.synthetic import SynthSpec, generate
from tests.taped import sum_of_squares
from mafn.training import (
    CUTOFF_GRID,
    Adam,
    _batch_losses,
    _predicted,
    clip_gradients,
    evaluate_cutoffs,
    evaluate_testset,
    format_log_csv,
    train,
)


def small_config(**overrides):
    base = dict(
        window=15, horizon=4, stride=3, k_states=2, embedding_dim=3, kernel_size=3,
        n_filters=6, lstm_hidden=8, trend_dim=3, fusion_widths=(8,), rul_widths=(8, 6),
        batch_size=16, max_epochs=3, patience=2, learning_rate=2e-3, seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


def small_datasets(cfg, engines=5, seed=2):
    spec = SynthSpec(engines=engines, life_min=40, life_max=60, noise_sigma=0.05, seed=seed)
    records, _ = generate(spec)
    cluster, stats, normalized = fit_pipeline(records, cfg)
    tr, vl = split_by_engine(normalized, cfg.val_fraction, cfg.seed)
    train_ds = pack_windows(windows_for_records(tr, cluster, cfg))
    val_ds = pack_windows(windows_for_records(vl, cluster, cfg))
    return train_ds, val_ds


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = T.parameter([1.0, -2.0])
        params = OrderedDict(p0=p)
        opt = Adam(params, lr=0.1)
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        p = T.parameter([0.0])
        opt = Adam(OrderedDict(p0=p), lr=0.05)
        p.grad = np.ones(1)
        opt.step()
        assert abs(p.data[0] + 0.05) < 1e-8   # moved by ~lr against the gradient

    def test_quadratic_bowl_convergence(self):
        p = T.parameter([5.0])
        opt = Adam(OrderedDict(x=p), lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            loss = sum_of_squares(p)
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_lr_zero_identity(self, rng):
        p = T.parameter(rng.normal(size=4))
        opt = Adam(OrderedDict(p0=p), lr=0.0)
        p.grad = rng.normal(size=4)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_missing_grad_names_parameter(self):
        opt = Adam(OrderedDict(weight=T.parameter([1.0])), lr=0.1)
        with pytest.raises(ContractError, match="weight"):
            opt.step()

    def test_failed_step_changes_nothing(self):
        a, b = T.parameter([1.0, 2.0]), T.parameter([3.0])
        opt = Adam(OrderedDict(a=a, b=b), lr=0.1)
        a.grad = np.array([1.0, -1.0])
        with pytest.raises(ContractError, match="'b' has no gradient"):
            opt.step()
        assert opt.step_count == 0 and not opt.m.any() and not opt.v.any()
        np.testing.assert_array_equal(a.data, [1.0, 2.0])
        np.testing.assert_array_equal(b.data, [3.0])
        # the next good step is a fresh optimizer's first, bit for bit
        b.grad = np.array([0.5])
        opt.step()
        fresh_a, fresh_b = T.parameter([1.0, 2.0]), T.parameter([3.0])
        fresh = Adam(OrderedDict(a=fresh_a, b=fresh_b), lr=0.1)
        fresh_a.grad, fresh_b.grad = np.array([1.0, -1.0]), np.array([0.5])
        fresh.step()
        assert opt.step_count == fresh.step_count == 1
        for got, want in ((a.data, fresh_a.data), (b.data, fresh_b.data), (opt.m, fresh.m), (opt.v, fresh.v)):
            assert got.tobytes() == want.tobytes()

    @given(st.integers(0, 2**32 - 1))
    def test_bits_match_per_parameter_loop(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(3, 4), (4,), (2, 1, 3), (1,)]
        params = OrderedDict((f"p{i}", T.parameter(rng.normal(size=s))) for i, s in enumerate(shapes))
        ref = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros_like(p) for name, p in ref.items()}
        v = {name: np.zeros_like(p) for name, p in ref.items()}
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        opt = Adam(params, lr, b1, b2, eps)
        for t in range(1, 6):
            for name, p in params.items():
                p.grad = rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 3)
                # the update as one loop per parameter
                g = p.grad
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                m_hat, v_hat = m[name] / (1.0 - b1 ** t), v[name] / (1.0 - b2 ** t)
                ref[name] = ref[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step()
            for name, p in params.items():
                assert p.data.shape == ref[name].shape and p.data.tobytes() == ref[name].tobytes()

    def test_clip_rescales_to_max_norm(self):
        p = T.parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        params = OrderedDict(p0=p)
        norm = clip_gradients(params, 5.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)


class TestTrainLoop:
    def test_same_seed_identical_logs(self):
        cfg = small_config()
        train_ds, val_ds = small_datasets(cfg)
        r1 = train(train_ds, val_ds, cfg, 11)
        r2 = train(train_ds, val_ds, cfg, 11)
        assert r1.log_rows == r2.log_rows
        for name in r1.params:
            np.testing.assert_array_equal(r1.params[name], r2.params[name])

    def test_patience_zero_stops_first_non_improvement(self):
        cfg = small_config(patience=0, max_epochs=40, learning_rate=0.05)
        train_ds, val_ds = small_datasets(cfg)
        result = train(train_ds, val_ds, cfg, 11)
        if result.stop_reason == "early_stop":
            vals = [r["val_total"] for r in result.log_rows]
            # stop happened exactly at the first epoch that failed to improve
            assert all(b < a for a, b in zip(vals[:-2], vals[1:-1]))
            assert vals[-1] >= min(vals[:-1])

    def test_best_checkpoint_not_worse_than_any_epoch(self):
        cfg = small_config(max_epochs=6, patience=5)
        train_ds, val_ds = small_datasets(cfg)
        result = train(train_ds, val_ds, cfg, 11)
        vals = [r["val_total"] for r in result.log_rows]
        assert result.best_val == pytest.approx(min(vals))

    def test_repeated_batch_loss_non_increasing(self):
        cfg = small_config(learning_rate=1e-4)
        train_ds, _ = small_datasets(cfg)
        model = MafnModel(cfg, 11, np.random.default_rng(cfg.seed))
        opt = Adam(model.parameters(), cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
        idx = np.arange(min(8, len(train_ds)))
        losses = []
        for _ in range(5):
            opt.zero_grad()
            comps = _batch_losses(model, train_ds, idx, cfg)
            losses.append(comps["total"].item())
            comps["total"].backward()
            opt.step()
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_log_csv_schema(self):
        cfg = small_config(max_epochs=2)
        train_ds, val_ds = small_datasets(cfg)
        result = train(train_ds, val_ds, cfg, 11)
        text = format_log_csv(result.log_rows)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,L_state,L_degradation,L_forecast,L_RUL,L_total,val_total"
        assert len(lines) == 1 + result.epochs_run

    def test_nan_loss_aborts_naming_component_and_batch(self):
        cfg = small_config(max_epochs=3)
        train_ds, val_ds = small_datasets(cfg)
        # poison a zero target row past a record's end: it feeds no input,
        # only masked forecast targets, which a NaN still reaches
        i = int(np.flatnonzero(train_ds.mask[:, -1] == 0)[0])
        train_ds.sensors[train_ds.starts[i] + cfg.window + cfg.horizon - 1, 0] = np.nan
        with pytest.raises(NumericError, match=r"forecast.*epoch 1, batch \d"):
            train(train_ds, val_ds, cfg, 11)


def training_step_digest():
    """sha256 of the four component losses of three ``train``-loop steps
    (zero_grad, losses, backward, clipping, Adam) and of every parameter
    after them: a default-config model (seed 0) on fixed synthetic windows,
    two in five horizons cut short and one window in five fully masked."""
    cfg = TrainConfig()
    rng = np.random.default_rng(3)
    n_windows, n_sensors = 3 * cfg.batch_size, 14
    rows = n_windows + cfg.window + cfg.horizon
    mask = np.ones((n_windows, cfg.horizon))
    mask[::3, 2:] = 0.0
    mask[1::5] = 0.0
    ds = WindowDataset(sensors=rng.normal(size=(rows, n_sensors)),
                       state_ids=rng.integers(0, cfg.k_states, size=rows),
                       starts=np.arange(n_windows), mask=mask,
                       rul=rng.uniform(0.0, cfg.rul_cap, size=n_windows), window=cfg.window)
    model = MafnModel(cfg, n_sensors, np.random.default_rng(0))
    params = model.parameters()
    opt = Adam(params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
    digest = hashlib.sha256()
    for idx in rng.permutation(n_windows).reshape(3, cfg.batch_size):
        opt.zero_grad()
        components = _batch_losses(model, ds, idx, cfg)
        components["total"].backward()
        clip_gradients(params, cfg.grad_clip)
        opt.step()
        for name in ("state", "forecast", "degradation", "rul"):
            digest.update(components[name].data.tobytes())
    for p in params.values():
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def test_training_step_bits():
    # the losses and Adam, bit for bit: a change to their arithmetic shows
    # here before it reaches the golden checkpoint hashes
    assert training_step_digest() == "b0516cf56b11367b1a27f4ee6abf6a06874239ece17d682a835c22f90b88b700"


def test_training_step_tape_census():
    # one node per stage of the network and per loss: a default-config step
    # at batch 64 records no generic elementwise node
    cfg = TrainConfig()
    rng = np.random.default_rng(3)
    rows, n_sensors = cfg.batch_size + cfg.window + cfg.horizon, 14
    ds = WindowDataset(sensors=rng.normal(size=(rows, n_sensors)),
                       state_ids=rng.integers(0, cfg.k_states, size=rows),
                       starts=np.arange(cfg.batch_size), mask=np.ones((cfg.batch_size, cfg.horizon)),
                       rul=rng.uniform(0.0, cfg.rul_cap, size=cfg.batch_size), window=cfg.window)
    model = MafnModel(cfg, n_sensors, np.random.default_rng(0))
    total = _batch_losses(model, ds, np.arange(cfg.batch_size), cfg)["total"]
    census = Counter(node._op for node in T.topo_order(total) if node._parents)
    assert census == Counter(dense=10, lstm_scan=3, embed_beside=2, reshape=2, conv1d=1,
                             additive_attention=1, state_loss=1, forecast_loss=1, degradation_loss=1, rul_loss=1,
                             total_loss=1)
    assert census.total() == 24


# four engines of 20-24 cycles: every window ending at end of life has an
# all-zero horizon mask, so small batches are often entirely masked
SHORT_CFG = small_config(window=15, horizon=4, stride=1, batch_size=1, max_epochs=1)


@functools.lru_cache(maxsize=None)
def short_datasets():
    spec = SynthSpec(engines=4, life_min=20, life_max=24, dwell_min=5, dwell_max=10, seed=3)
    records, _ = generate(spec)
    cluster, _, normalized = fit_pipeline(records, SHORT_CFG)
    tr, vl = split_by_engine(normalized, SHORT_CFG.val_fraction, SHORT_CFG.seed)
    return (pack_windows(windows_for_records(tr, cluster, SHORT_CFG)),
            pack_windows(windows_for_records(vl, cluster, SHORT_CFG)))


class TestBatchSizes:
    @given(st.data())
    def test_train_succeeds_for_every_batch_size(self, data):
        train_ds, val_ds = short_datasets()
        assert (train_ds.mask.sum(axis=1) == 0).any()
        batch_size = data.draw(st.integers(1, len(train_ds)))
        cfg = dataclasses.replace(SHORT_CFG, batch_size=batch_size)
        result = train(train_ds, val_ds, cfg, 11)
        row = result.log_rows[0]
        assert all(np.isfinite(row[col]) for col in row)


def oracle_bundle(window):
    """A bundle that carries only the config the evaluators read: the
    predictors below stand in for ``predict_rul``."""
    return PreprocessBundle(config=small_config(window=window), cluster=None, stats=None)


class TestEvaluate:
    def test_perfect_oracle_zero_metrics(self, monkeypatch):
        spec = SynthSpec(engines=6, life_min=60, life_max=90, seed=4)
        records, _ = generate(spec)
        lengths = {r.unit_id: r.length for r in records}

        def oracle(truncated, model, bundle):
            full = lengths[truncated.unit_id]
            return min(float(full - truncated.length), 125.0)

        monkeypatch.setattr(training, "predict_rul", oracle)
        rows = evaluate_cutoffs(records, None, oracle_bundle(6))
        assert len(rows) == 9
        for pct, r, e, s in rows:
            assert r == pytest.approx(0.0, abs=1e-12)
            assert s == pytest.approx(0.0, abs=1e-12)

    def test_cutoff_grid_is_nine_rows(self, monkeypatch):
        spec = SynthSpec(engines=3, life_min=80, life_max=90, seed=4)
        records, _ = generate(spec)
        monkeypatch.setattr(training, "predict_rul", lambda rec, model, bundle: 50.0)
        rows = evaluate_cutoffs(records, None, oracle_bundle(5))
        assert [row[0] for row in rows] == [round(0.1 * i, 1) for i in range(1, 10)]

    def test_short_truncations_counted(self, caplog, monkeypatch):
        spec = SynthSpec(engines=3, life_min=40, life_max=50, seed=4)
        records, _ = generate(spec)
        monkeypatch.setattr(training, "predict_rul", lambda rec, model, bundle: 10.0)
        with caplog.at_level(logging.WARNING, logger="mafn.training"):
            evaluate_cutoffs(records, None, oracle_bundle(20))
        found = [re.fullmatch(r"evaluate_cutoffs skipped (\d+) short truncations", m) for m in caplog.messages]
        counts = [int(m.group(1)) for m in found if m]
        assert len(counts) == 1 and counts[0] > 0

    def test_testset_schema_and_capping(self, monkeypatch):
        spec = SynthSpec(engines=4, life_min=60, life_max=70, seed=4)
        records, _ = generate(spec)
        truth = np.array([10.0, 50.0, 130.0, 60.0])   # 130 gets capped to 125
        monkeypatch.setattr(training, "predict_rul", lambda rec, model, bundle: 125.0)
        rmse, score = evaluate_testset(records, truth, None, oracle_bundle(6))
        assert rmse == pytest.approx(np.sqrt(np.mean((125.0 - np.array([10, 50, 125, 60])) ** 2)))

    def test_testset_length_mismatch(self, monkeypatch):
        spec = SynthSpec(engines=4, life_min=60, life_max=70, seed=4)
        records, _ = generate(spec)
        monkeypatch.setattr(training, "predict_rul", lambda rec, model, bundle: 0.0)
        with pytest.raises(ContractError):
            evaluate_testset(records, np.array([1.0]), None, oracle_bundle(6))


def reference_cutoff_rows(records, model, bundle):
    """The cutoff protocol one truncation at a time: cut, skip a history
    shorter than the window unless ``pad_short``, predict, cap the residual."""
    cfg = bundle.config
    rows = []
    for pct in CUTOFF_GRID:
        preds, truths = [], []
        for rec in records:
            truncated, residual = truncate_at_fraction(rec, pct)
            if truncated.length < cfg.window and not cfg.pad_short:
                continue
            preds.append(predict_rul(truncated, model, bundle))
            truths.append(min(float(residual), cfg.rul_cap))
        if preds:
            p, t = np.asarray(preds), np.asarray(truths)
            rows.append((pct, L.rmse(p, t), L.relative_error(p, t), L.score(p, t)))
    return rows


class TestEvaluateRealModel:
    @pytest.mark.parametrize("pad_short", [False, True])
    def test_cutoff_rows_match_the_reference_loop(self, pad_short):
        """A trained model's rows hold every bit of the per-truncation
        reference.  The window is longer than the early truncations, so
        without ``pad_short`` some are skipped and with it none is; the cap
        is below the longest residual lives, so some truths are capped."""
        cfg = small_config(window=8, stride=2, rul_cap=25.0, max_epochs=5, learning_rate=1e-2, pad_short=pad_short)
        records, _ = generate(SynthSpec(engines=4, life_min=20, life_max=40, seed=6))
        bundle, _ = train_run(records, cfg)
        model = MafnModel(cfg, bundle.n_sensors, np.random.default_rng(cfg.seed))
        model.load_state(bundle.params)
        rows = evaluate_cutoffs(records, model, bundle)
        want = reference_cutoff_rows(records, model, bundle)
        assert (len(rows) == 9) == pad_short
        assert [(pct, *map(float.hex, metrics)) for pct, *metrics in rows] == \
            [(pct, *map(float.hex, metrics)) for pct, *metrics in want]
        middle = {predict_rul(truncate_at_fraction(rec, 0.5)[0], model, bundle) for rec in records}
        assert len(middle) == len(records)          # not every prediction clamped to one bound


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The walkthrough's engines, read back from the file ``mafn synthesize``
    writes, and its two-epoch model with the checkpoint bundle."""
    path = tmp_path_factory.mktemp("walkthrough") / "synthetic_train.txt"
    write_cmapss(generate(SynthSpec())[0], path)
    records = parse_cmapss(path)
    bundle, _ = train_run(records, TrainConfig(max_epochs=2))
    model = MafnModel(bundle.config, bundle.n_sensors, np.random.default_rng(bundle.config.seed))
    model.load_state(bundle.params)
    return records, model, bundle


class TestOutOfRangeInput:
    @pytest.mark.parametrize("value", [1e6, 1e20])
    def test_inference_raises_no_numpy_warning(self, walkthrough, value):
        """One mid-life sensor-7 reading far above the training range
        overflows exp in the LSTM gates.  Neither protocol scoring nor the
        forecast warns, and every RUL stays in [0, rul_cap]."""
        records, model, bundle = walkthrough
        rec = records[0]
        sensors = rec.sensors.copy()
        sensors[int(0.55 * rec.length), 6] = value          # column j is sensor j + 1
        drifted = dataclasses.replace(rec, sensors=sensors)
        cut = [truncate_at_fraction(drifted, pct) for pct in (0.6, 0.7, 0.8, 0.9)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = evaluate_cutoffs([drifted], model, bundle)
            preds, _ = _predicted([t for t, _ in cut], [r for _, r in cut], model, bundle)
            _, _, rul = forecast_trajectory(cut[0][0], model, bundle)
        assert np.isfinite([metric for row in rows for metric in row]).all()
        assert ((preds >= 0) & (preds <= bundle.config.rul_cap)).all()
        assert 0 <= rul <= bundle.config.rul_cap
