"""The preprocessing pipeline between parsed records and the model.

Fits state clusters and normalization on training records, cuts their
windows, runs the whole training run on parsed records (``train_run``), and
rebuilds a ready-to-predict model from a checkpoint.  The CLI, the tests and
the benchmark share these functions.
"""
from __future__ import annotations

import numpy as np

from .checkpoint import CheckpointBundle, load_checkpoint
from .cluster import assign_states, kmeans_fit, relabel_canonical
from .config import TrainConfig
from .data import fit_normalization, make_windows, normalize_record, pack_windows, split_by_engine, state_features
from .errors import DataError, MafnError
from .model import MafnModel
from .training import train


def fit_pipeline(records, cfg: TrainConfig):
    """Normalize raw training records in the sensors that ``fit_normalization``
    chooses, and cluster them.

    Returns (cluster_model, stats, processed_records).  Clustering runs on
    the raw operational settings, or on the normalized selected sensors when
    ``cluster_features = sensors``.
    """
    stats = fit_normalization(records)
    normalized = [normalize_record(r, stats) for r in records]
    points = np.concatenate([state_features(r, cfg.cluster_features) for r in normalized], axis=0)
    model = kmeans_fit(
        points,
        cfg.k_states,
        max_iter=cfg.cluster_max_iter,
        tol=cfg.cluster_tol,
        seed=cfg.seed,
        restarts=cfg.cluster_restarts,
        feature_spec=cfg.cluster_features,
    )
    model = relabel_canonical(model, points)
    return model, stats, normalized


def windows_for_records(records, cluster_model, cfg: TrainConfig):
    """One window dataset per record, as ``make_windows`` cuts it under
    ``cfg``, from state ids that one ``assign_states`` call gives all records."""
    if not records:
        return []
    points = np.concatenate([state_features(rec, cluster_model.feature_spec) for rec in records])
    states = np.split(assign_states(points, cluster_model), np.cumsum([rec.length for rec in records[:-1]]))
    return [
        make_windows(rec, ids, cfg.window, cfg.horizon, cfg.stride, cfg.rul_cap)
        for rec, ids in zip(records, states)
    ]


def train_run(records, cfg: TrainConfig, progress=None):
    """The whole training run on parsed records: cluster, normalize, split by engine, window, train.
    Returns ``(CheckpointBundle, TrainResult)``; an error names its ``[stage preprocess|split|window|train]``."""
    stage = "preprocess"
    try:
        cluster_model, stats, normalized = fit_pipeline(records, cfg)
        stage = "split"
        splits = split_by_engine(normalized, cfg.val_fraction, cfg.seed)
        stage = "window"
        train_ds, val_ds = (pack_windows(windows_for_records(recs, cluster_model, cfg)) for recs in splits)
        if not len(train_ds) or not len(val_ds):
            raise DataError(f"no usable windows (window={cfg.window}); engines may be too short")
        stage = "train"
        result = train(train_ds, val_ds, cfg, len(stats.sensor_ids), progress)
    except MafnError as e:
        raise type(e)(f"[stage {stage}] {e}") from e
    return CheckpointBundle(config=cfg, params=result.params, cluster=cluster_model, stats=stats), result


def load_predictor(path):
    """The model of the checkpoint at ``path``, and the checkpoint as its preprocessing bundle."""
    bundle = load_checkpoint(path)
    cfg = bundle.config
    model = MafnModel(cfg, bundle.n_sensors, np.random.default_rng(cfg.seed))
    model.load_state(bundle.params)
    return model, bundle
