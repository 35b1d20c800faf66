import dataclasses
import functools
import logging
import re
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mafn import tensor as T
from mafn.pipeline import fit_pipeline, windows_for_records
from mafn.config import TrainConfig
from mafn.data import pack_windows, split_by_engine
from mafn.errors import ContractError, NumericError
from mafn.losses import LossWeights
from mafn.model import MafnModel
from mafn.synthetic import SynthSpec, generate
from mafn.training import (
    Adam,
    _batch_losses,
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
            loss = T.square(p).sum()
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
            comps = _batch_losses(model, train_ds, idx, cfg, LossWeights.from_config(cfg))
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


class TestEvaluate:
    def test_perfect_oracle_zero_metrics(self):
        spec = SynthSpec(engines=6, life_min=60, life_max=90, seed=4)
        records, _ = generate(spec)
        lengths = {r.unit_id: r.length for r in records}

        def oracle(truncated):
            full = lengths[truncated.unit_id]
            return min(float(full - truncated.length), 125.0)

        rows = evaluate_cutoffs(records, oracle, window=6, rul_cap=125.0)
        assert len(rows) == 9
        for pct, r, e, s in rows:
            assert r == pytest.approx(0.0, abs=1e-12)
            assert s == pytest.approx(0.0, abs=1e-12)

    def test_cutoff_grid_is_nine_rows(self):
        spec = SynthSpec(engines=3, life_min=80, life_max=90, seed=4)
        records, _ = generate(spec)
        rows = evaluate_cutoffs(records, lambda rec: 50.0, window=5, rul_cap=125.0)
        assert [row[0] for row in rows] == [round(0.1 * i, 1) for i in range(1, 10)]

    def test_short_truncations_counted(self, caplog):
        spec = SynthSpec(engines=3, life_min=40, life_max=50, seed=4)
        records, _ = generate(spec)
        with caplog.at_level(logging.WARNING, logger="mafn.training"):
            evaluate_cutoffs(records, lambda rec: 10.0, window=20, rul_cap=125.0)
        found = [re.fullmatch(r"evaluate_cutoffs skipped (\d+) short truncations", m) for m in caplog.messages]
        counts = [int(m.group(1)) for m in found if m]
        assert len(counts) == 1 and counts[0] > 0

    def test_testset_schema_and_capping(self):
        spec = SynthSpec(engines=4, life_min=60, life_max=70, seed=4)
        records, _ = generate(spec)
        truth = np.array([10.0, 50.0, 130.0, 60.0])   # 130 gets capped to 125
        rmse, score = evaluate_testset(records, truth, lambda rec: 125.0, rul_cap=125.0)
        assert rmse == pytest.approx(np.sqrt(np.mean((125.0 - np.array([10, 50, 125, 60])) ** 2)))

    def test_testset_length_mismatch(self):
        spec = SynthSpec(engines=4, life_min=60, life_max=70, seed=4)
        records, _ = generate(spec)
        with pytest.raises(ContractError):
            evaluate_testset(records, np.array([1.0]), lambda rec: 0.0, rul_cap=125.0)
