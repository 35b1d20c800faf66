"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two criteria that
need the FD002 dataset skip cleanly when it is absent; point
``MAFN_CMAPSS_DIR`` at a directory holding train_FD002.txt / test_FD002.txt /
RUL_FD002.txt to enable them.
"""
import dataclasses
import functools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mafn import layers as nn
from mafn import losses as L
from mafn import tensor as T
from mafn.cli import main
from mafn.pipeline import fit_pipeline, windows_for_records
from mafn.cluster import assign_states, fit_single_restart, kmeans_fit
from mafn.config import TrainConfig
from mafn.data import (
    SELECTED_SENSORS,
    make_windows,
    normalize_record,
    pack_windows,
    parse_cmapss,
    record_states,
    split_by_engine,
)
from mafn.errors import ContractError
from mafn.gradcheck import check_gradients
from mafn.model import MafnModel, PreprocessBundle, clamp_rul
from mafn.synthetic import SynthSpec, generate
from mafn.training import evaluate_cutoffs, train
from mafn.tensor import Tensor
from tests.taped import sum_of_squares
from tests.test_layers import naive_conv1d


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as e:
                print(f"\n[criterion {number}] SKIP ({e}) - {description}")
                raise
            except BaseException:
                print(f"\n[criterion {number}] FAIL - {description}")
                raise
            print(f"\n[criterion {number}] PASS ({time.time() - start:.1f}s) - {description}")

        return run

    return wrap


def fd002_files():
    candidates = []
    env = os.environ.get("MAFN_CMAPSS_DIR")
    if env:
        candidates.append(Path(env))
    candidates += [Path("data"), Path("CMAPSSData")]
    for root in candidates:
        if (root / "train_FD002.txt").exists():
            return (
                root / "train_FD002.txt",
                root / "test_FD002.txt",
                root / "RUL_FD002.txt",
            )
    return None


# -- criterion 1: gradient suite --------------------------------------------------


def _instance_rngs(n=20):
    return [np.random.default_rng(1000 + i) for i in range(n)]


@criterion(1, "finite-difference gradient suite over every layer and loss")
def test_criterion_1_gradient_suite():
    start = time.time()

    for g in _instance_rngs():
        table = nn.EmbeddingTable(g, 3, 2)
        ids = g.integers(0, 3, size=4)
        check_gradients(lambda: sum_of_squares(table(ids)), [table.weights])

    for i, g in enumerate(_instance_rngs()):
        conv = nn.Conv1d(g, 2, 2, kernel=1 + i % 3)
        x = T.parameter(g.normal(size=(1, 5, 2)))
        check_gradients(lambda: sum_of_squares(conv(x)), [x, conv.W, conv.b])

    for g in _instance_rngs():
        cell = nn.LstmCell(g, 2, 2)
        x = T.parameter(g.normal(size=(1, 2)))
        hc0 = Tensor(np.zeros((1, 4)))

        def scan_loss():
            # two steps of a constant input: the second step's h reads the first step's c
            h = T.lstm_scan([(x, cell.W_x, hc0, cell.W_h, cell.b)], 2)
            return sum_of_squares(h)

        check_gradients(scan_loss, [x] + [t for _, t in cell.parameters()])

    for g in _instance_rngs():
        fwd, bwd = nn.LstmCell(g, 2, 2), nn.LstmCell(g, 2, 2)
        x = T.parameter(g.normal(size=(1, 3, 2)))
        params = [t for _, t in fwd.parameters()] + [t for _, t in bwd.parameters()]
        check_gradients(lambda: sum_of_squares(nn.bilstm(x, fwd, bwd)), [x] + params)

    for g in _instance_rngs():
        attn = nn.Attention(g, 4, 3)
        h = T.parameter(g.normal(size=(1, 3, 4)))

        def attn_loss():
            context, _ = attn(h)
            return sum_of_squares(context)

        check_gradients(attn_loss, [h] + [t for _, t in attn.parameters()])

    for g in _instance_rngs():
        layer = nn.Dense(g, 3, 2, relu=True)
        x = T.parameter(g.normal(size=(2, 3)))
        check_gradients(lambda: sum_of_squares(layer(x)), [x, layer.W, layer.b])

    for g in _instance_rngs():
        logits = T.parameter(g.normal(size=(4, 3)))
        targets = g.integers(0, 3, size=4)
        mask = np.zeros(4)
        mask[: int(g.integers(1, 5))] = 1.0
        check_gradients(lambda: L.state_loss(logits, targets, mask), [logits])

    for g in _instance_rngs():
        trend = T.parameter(g.normal(size=5))
        check_gradients(lambda: L.degradation_loss(trend, 0.3), [trend])

    for g in _instance_rngs():
        pred = T.parameter(g.normal(size=(3, 2)))
        target = g.normal(size=(3, 2))
        mask = np.array([1.0, 1.0, 0.0])
        check_gradients(lambda: L.forecast_loss(pred, target, mask), [pred])

    for g in _instance_rngs():
        pred = T.parameter(g.normal(size=5))
        target = g.normal(size=5)
        check_gradients(lambda: L.rul_loss(pred, target, 2.0, 1.0), [pred])

    weights = L.LossWeights()
    for g in _instance_rngs():
        logits = T.parameter(g.normal(size=(3, 2)))
        trend = T.parameter(g.normal(size=4))
        pred = T.parameter(g.normal(size=(3, 2)))
        rul_pred = T.parameter(g.normal(size=4))
        targets = g.integers(0, 2, size=3)
        mask = np.array([1.0, 1.0, 0.0])
        fx = g.normal(size=(3, 2))
        rt = g.normal(size=4)

        def total():
            comps = {
                "state": L.state_loss(logits, targets, mask),
                "degradation": L.degradation_loss(trend, 0.1),
                "forecast": L.forecast_loss(pred, fx, mask),
                "rul": L.rul_loss(rul_pred, rt, 2.0, 1.0),
            }
            return L.total_loss(comps, weights)

        check_gradients(total, [logits, trend, pred, rul_pred])

    # end-to-end check on the tiny configuration
    cfg = TrainConfig(
        window=4, horizon=3, k_states=2, embedding_dim=2, kernel_size=3, n_filters=3,
        lstm_hidden=3, trend_dim=2, fusion_widths=(4,), rul_widths=(4, 3),
    ).validate()
    g = np.random.default_rng(42)
    model = MafnModel(cfg, 2, g)
    x = g.random((2, 4, 2))
    s = g.integers(0, 2, (2, 4))
    fs = g.integers(0, 2, (2, 3))
    fx = g.random((2, 3, 2))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    rul = np.array([0.3, 0.8])

    def full_loss():
        out = model.forward(x, s, future_states=fs)
        comps = {
            "state": L.state_loss(out.state_logits, fs, mask),
            "degradation": L.degradation_loss(out.degradation, cfg.lambda_smooth),
            "forecast": L.forecast_loss(out.forecast, fx, mask),
            "rul": L.rul_loss(out.rul, rul, cfg.lambda_late, cfg.lambda_early),
        }
        return L.total_loss(comps, weights)

    check_gradients(full_loss, list(model.parameters().values()), eps=1e-5, tol=1e-3)

    assert time.time() - start < 120.0


# -- criterion 2: loss-formula oracle -----------------------------------------------


@criterion(2, "loss and metric formulas reproduce hand-derived values")
def test_criterion_2_loss_formulas():
    assert abs(L.degradation_loss(Tensor([0.0, 2.0, 1.0]), 0.5).item() - 1.75) <= 1e-12
    assert abs(L.rul_loss(Tensor([15.0]), [10.0], 2.0, 1.0).item() - 50.0) <= 1e-12
    assert abs(L.rul_loss(Tensor([5.0]), [10.0], 2.0, 1.0).item() - 25.0) <= 1e-12
    e_minus_1 = np.e - 1.0
    assert abs(L.score([20.0], [10.0]) - e_minus_1) <= 1e-9
    assert abs(L.score([0.0], [13.0]) - e_minus_1) <= 1e-9
    # RE divides by truth + 1e-8 exactly
    assert L.relative_error([1.0], [0.0]) == pytest.approx(1e8, rel=1e-9)
    assert L.relative_error([2.0], [1.0]) == pytest.approx(1.0 / (1.0 + 1e-8), rel=1e-12)


# -- criterion 3: k-means oracle ------------------------------------------------------


def exhaustive_inertia(points, k):
    """Optimal within-cluster SS by enumerating every assignment (vectorized)."""
    n, d = points.shape
    codes = np.arange(k ** n)
    labels = (codes[:, None] // (k ** np.arange(n)[None, :])) % k
    onehot = np.eye(k)[labels]
    counts = onehot.sum(axis=1)
    sums = np.einsum("ank,nd->akd", onehot, points)
    sq = (sums ** 2).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_cluster = np.where(counts > 0, sq / counts, 0.0)
    return float(((points ** 2).sum() - per_cluster.sum(axis=1)).min())


@criterion(3, "k-means matches the exhaustive partition optimum; objective monotone")
def test_criterion_3_kmeans_oracle():
    start = time.time()
    rng = np.random.default_rng(20260810)
    for i in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 11))
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        model = kmeans_fit(pts, k, seed=1000 + i, restarts=10)
        best = exhaustive_inertia(pts, k)
        assert model.inertia - best <= 1e-9, f"instance {i}: {model.inertia} vs optimal {best}"
        for r in range(10):
            _, _, _, history = fit_single_restart(pts.T, k, 1000 + i + r, 100, 1e-8)
            assert (np.diff(history) <= 1e-9).all(), f"objective increased, instance {i} restart {r}"
    assert time.time() - start < 60.0


# -- criterion 4: structural oracles ---------------------------------------------------


@criterion(4, "conv/bilstm/attention match structural oracles")
def test_criterion_4_structural_oracles():
    start = time.time()
    rng = np.random.default_rng(7)
    for kernel in (1, 2, 3, 4, 5):
        conv = nn.Conv1d(rng, 3, 4, kernel)
        x = rng.normal(size=(7, 3))
        np.testing.assert_allclose(
            conv(Tensor(x[None])).data[0], naive_conv1d(x, conv.W.data, conv.b.data, kernel), atol=0
        )

    fwd, bwd = nn.LstmCell(rng, 2, 3), nn.LstmCell(rng, 2, 3)
    x = rng.normal(size=(6, 2))
    base = nn.bilstm(Tensor(x[None]), fwd, bwd).data[0]
    for t in range(5):
        perturbed = x.copy()
        perturbed[t + 1] += 0.7
        after = nn.bilstm(Tensor(perturbed[None]), fwd, bwd).data[0]
        np.testing.assert_array_equal(base[: t + 1, :3], after[: t + 1, :3])
        np.testing.assert_array_equal(base[t + 2 :, 3:], after[t + 2 :, 3:])

    attn = nn.Attention(rng, 4, 3)
    for _ in range(50):
        _, weights = attn(Tensor(rng.normal(size=(1, 6, 4)) * 5.0))
        assert abs(weights.data.sum() - 1.0) <= 1e-12
    h_same = np.tile(rng.normal(size=(1, 1, 4)), (1, 5, 1))
    _, weights = attn(Tensor(h_same))
    np.testing.assert_allclose(weights.data, np.full((1, 5), 0.2), atol=1e-12)
    assert time.time() - start < 60.0


# -- criterion 5: preprocessing conformance on FD002 -------------------------------------


@criterion(5, "FD002 preprocessing conformance (engine counts, sensors, caps, clusters)")
def test_criterion_5_fd002_preprocessing():
    files = fd002_files()
    if files is None:
        pytest.skip("FD002 dataset not present")
    train_path, test_path, _ = files
    start = time.time()
    train_records = parse_cmapss(train_path)
    test_records = parse_cmapss(test_path)
    assert len(train_records) == 260
    assert len(test_records) == 259

    cfg = TrainConfig()
    cluster_model, stats, normalized = fit_pipeline(train_records, cfg)
    assert stats.sensor_ids == (2, 3, 4, 7, 8, 11, 12, 15, 17, 20, 21)
    for rec in normalized:
        assert rec.sensors.min() >= 0.0 and rec.sensors.max() <= 1.0

    windows = make_windows(normalized[0], record_states(normalized[0], cluster_model), cfg.window, cfg.horizon, 1, 125.0)
    assert len(windows) > 0 and ((windows.rul >= 0.0) & (windows.rul <= 125.0)).all()

    points = np.concatenate([r.op_settings for r in train_records], axis=0)
    from mafn.cluster import assign_states

    counts = np.bincount(assign_states(points, cluster_model), minlength=6)
    assert cluster_model.k == 6 and (counts > 0).all()
    assert time.time() - start < 60.0


# FD002's shape: 260 engines, six operating states, lives of 128-378 cycles
FD002_SHAPED = SynthSpec(seed=5, engines=260, k_states=6, offsets=(-1.5, -1.0, -0.5, 0.5, 1.0, 1.5),
                         life_min=128, life_max=378)


@criterion(5, "FD002-shaped synthetic preprocessing conformance (sensors, caps, clusters)")
def test_criterion_5_fd002_shaped_preprocessing():
    """Criterion 5's checks, except the file's engine counts, on synthetic
    data of FD002's shape; and a normalized record is never read as raw."""
    start = time.time()
    train_records, _ = generate(FD002_SHAPED)

    cfg = TrainConfig()
    cluster_model, stats, normalized = fit_pipeline(train_records, cfg)
    assert stats.sensor_ids == (2, 3, 4, 7, 8, 11, 12, 15, 17, 20, 21)
    for rec in normalized:
        assert rec.sensors.min() >= 0.0 and rec.sensors.max() <= 1.0
        with pytest.raises(ContractError, match=f"unit {rec.unit_id}: record holds 11 sensor channels, not the raw 21"):
            normalize_record(rec, stats)

    windows = make_windows(normalized[0], record_states(normalized[0], cluster_model), cfg.window, cfg.horizon, 1, 125.0)
    assert len(windows) > 0 and ((windows.rul >= 0.0) & (windows.rul <= 125.0)).all()

    points = np.concatenate([r.op_settings for r in train_records], axis=0)
    counts = np.bincount(assign_states(points, cluster_model), minlength=6)
    assert cluster_model.k == 6 and (counts > 0).all()
    assert time.time() - start < 60.0


# -- criterion 6: overfit smoke test -----------------------------------------------------


@criterion(6, "10-window overfit: total loss drops >=90%, train RUL RMSE < 2 cycles")
def test_criterion_6_overfit():
    start = time.time()
    spec = SynthSpec(engines=2, life_min=60, life_max=70, noise_sigma=0.05, seed=21)
    records, _ = generate(spec)
    cfg = TrainConfig(
        window=16, horizon=4, stride=1, k_states=2, embedding_dim=3, kernel_size=3,
        n_filters=6, lstm_hidden=10, trend_dim=3, fusion_widths=(12,), rul_widths=(12, 8),
        batch_size=10, max_epochs=500, patience=10_000, learning_rate=3e-3, seed=5,
    ).validate()
    cluster_model, stats, normalized = fit_pipeline(records, cfg)
    windows = pack_windows(windows_for_records(normalized, cluster_model, cfg))
    picks = np.linspace(0, len(windows) - 1, 10).astype(int)
    ds = dataclasses.replace(windows, starts=windows.starts[picks], mask=windows.mask[picks],
                             rul=windows.rul[picks])
    assert len(ds) == 10

    result = train(ds, ds, cfg, 11)
    assert result.epochs_run == 500
    first = result.log_rows[0]["L_total"]
    last = result.log_rows[-1]["L_total"]
    assert last <= 0.1 * first, f"loss only fell {first:.4f} -> {last:.4f}"

    model = MafnModel(cfg, 11, np.random.default_rng(cfg.seed))
    model.load_state(result.params)
    with T.no_grad():
        out = model.forward(ds.inputs, ds.states)
    preds = np.array([clamp_rul(v * cfg.rul_cap, cfg.rul_cap) for v in out.rul.data])
    rmse_cycles = float(np.sqrt(np.mean((preds - ds.rul) ** 2)))
    assert rmse_cycles < 2.0, f"train RUL RMSE {rmse_cycles:.3f} cycles"
    assert time.time() - start < 120.0


# -- criterion 7: decomposition recovery --------------------------------------------------


@criterion(7, "synthetic decomposition: state accuracy, trend monotonicity, forecast vs persistence")
def test_criterion_7_decomposition_recovery():
    start = time.time()
    # 40 engines, 2 states with offsets +-1, linear trend, noise 0.05; states are
    # constant per engine (dwell exceeds life): switches inside the horizon are
    # unpredictable by construction and would dilute the persistence comparison
    # identically for model and baseline.
    spec = SynthSpec(
        engines=40, k_states=2, offsets=(-1.0, 1.0), trend="linear", trend_amplitude=4.0,
        noise_sigma=0.05, life_min=100, life_max=140, dwell_min=500, dwell_max=600, seed=77,
    )
    records, _ = generate(spec)
    cfg = TrainConfig(
        window=20, horizon=5, stride=2, k_states=2, embedding_dim=4, kernel_size=3,
        n_filters=8, lstm_hidden=16, trend_dim=3, fusion_widths=(16,), rul_widths=(16, 8),
        batch_size=64, max_epochs=40, patience=8, learning_rate=2e-3, seed=13,
    ).validate()
    cluster_model, stats, normalized = fit_pipeline(records, cfg)
    train_recs, val_recs = split_by_engine(normalized, cfg.val_fraction, cfg.seed)
    train_ds = pack_windows(windows_for_records(train_recs, cluster_model, cfg))
    val_ds = pack_windows(windows_for_records(val_recs, cluster_model, cfg))

    result = train(train_ds, val_ds, cfg, 11)
    model = MafnModel(cfg, 11, np.random.default_rng(cfg.seed))
    model.load_state(result.params)
    with T.no_grad():
        out = model.forward(val_ds.inputs, val_ds.states)   # free-running heads

    val = val_ds.batch(np.arange(len(val_ds)))
    mask = val["mask"]
    pred_states = out.state_logits.data.argmax(axis=-1)
    accuracy = float((pred_states == val["future_states"])[mask == 1].mean())
    assert accuracy > 0.90, f"future-state accuracy {accuracy:.3f}"

    diffs = np.diff(out.degradation.data, axis=1)
    monotone_fraction = float((diffs.min(axis=1) >= -1e-3).mean())
    assert monotone_fraction >= 0.99, f"monotone windows {monotone_fraction:.3f}"

    target = val["future_sensors"]
    model_mse = float((((out.forecast.data - target) ** 2).sum(axis=2) * mask).sum() / mask.sum())
    persistence = np.repeat(val["inputs"][:, -1:, :], cfg.horizon, axis=1)
    persistence_mse = float((((persistence - target) ** 2).sum(axis=2) * mask).sum() / mask.sum())
    assert model_mse <= 0.7 * persistence_mse, (
        f"model MSE {model_mse:.6f} vs persistence {persistence_mse:.6f}"
    )
    assert time.time() - start < 600.0


# -- criterion 8: qualitative cutoff trend on FD002 ----------------------------------------


@criterion(8, "FD002 subset: evaluation RMSE strictly improves across cutoffs 20/50/80%")
def test_criterion_8_fd002_cutoff_trend():
    files = fd002_files()
    if files is None:
        pytest.skip("FD002 dataset not present")
    train_path, _, _ = files
    start = time.time()
    records = parse_cmapss(train_path)[:50]
    cfg = TrainConfig(
        window=24, horizon=5, stride=2, k_states=6, embedding_dim=6, kernel_size=3,
        n_filters=10, lstm_hidden=20, trend_dim=4, fusion_widths=(24,), rul_widths=(24, 12),
        batch_size=64, max_epochs=25, patience=6, learning_rate=2e-3, seed=5,
    ).validate()
    cluster_model, stats, normalized = fit_pipeline(records, cfg)
    train_recs, val_recs = split_by_engine(normalized, cfg.val_fraction, cfg.seed)
    train_ds = pack_windows(windows_for_records(train_recs, cluster_model, cfg))
    val_ds = pack_windows(windows_for_records(val_recs, cluster_model, cfg))
    result = train(train_ds, val_ds, cfg, 11)

    model = MafnModel(cfg, 11, np.random.default_rng(cfg.seed))
    model.load_state(result.params)
    bundle = PreprocessBundle(config=cfg, cluster=cluster_model, stats=stats)
    val_ids = {r.unit_id for r in val_recs}
    held_out = [r for r in records if r.unit_id in val_ids]
    rows = evaluate_cutoffs(held_out, model, bundle)
    rmses = [row[1] for row in rows if row[0] in (0.2, 0.5, 0.8)]
    assert len(rmses) == 3
    assert rmses[0] > rmses[1] > rmses[2], f"cutoff RMSEs not improving: {rmses}"
    assert time.time() - start < 1800.0


# -- criterion 9: determinism ----------------------------------------------------------------


@criterion(9, "identical train commands produce byte-identical checkpoints and logs")
def test_criterion_9_determinism(tmp_path):
    spec_text = (
        "engines = 4\nk_states = 2\noffsets = -1,1\nnoise_sigma = 0.05\n"
        "life_min = 40\nlife_max = 50\ndwell_min = 15\ndwell_max = 25\nseed = 3\n"
    )
    cfg_text = (
        "window = 12\nhorizon = 3\nstride = 4\nk_states = 2\nembedding_dim = 3\n"
        "kernel_size = 3\nn_filters = 4\nlstm_hidden = 6\ntrend_dim = 2\n"
        "fusion_widths = 8\nrul_widths = 8,6\nbatch_size = 16\nmax_epochs = 2\n"
        "patience = 1\nseed = 7\n"
    )
    (tmp_path / "synth.spec").write_text(spec_text)
    (tmp_path / "smoke.cfg").write_text(cfg_text)
    assert main(["synthesize", "--spec", str(tmp_path / "synth.spec"), "--out", str(tmp_path / "data")]) == 0
    data = str(tmp_path / "data" / "synthetic_train.txt")
    for run in ("run1", "run2"):
        code = main(
            ["train", "--data", data, "--config", str(tmp_path / "smoke.cfg"),
             "--out", str(tmp_path / run), "--quiet"]
        )
        assert code == 0
    ck1 = (tmp_path / "run1" / "model.ckpt").read_bytes()
    ck2 = (tmp_path / "run2" / "model.ckpt").read_bytes()
    assert ck1 == ck2
    log1 = (tmp_path / "run1" / "training_log.csv").read_bytes()
    log2 = (tmp_path / "run2" / "training_log.csv").read_bytes()
    assert log1 == log2
