"""The preprocessing pipeline between parsed records and the model.

Fits state clusters and normalization on training records, cuts their
windows, and rebuilds a ready-to-predict model from a checkpoint.  The CLI,
the tests and the benchmark share these functions.
"""
from __future__ import annotations

import numpy as np

from .checkpoint import CheckpointBundle
from .cluster import kmeans_fit, relabel_canonical
from .config import TrainConfig
from .data import fit_normalization, make_windows, normalize_record, select_sensors, state_features
from .model import MafnModel, PreprocessBundle


def fit_pipeline(records, cfg: TrainConfig):
    """Cluster, select, and normalize training records.

    Returns (cluster_model, stats, processed_records).  Clustering runs on
    the raw operational settings, or on the normalized selected sensors when
    ``cluster_features = sensors``.
    """
    selected = [select_sensors(r) for r in records]
    stats = fit_normalization(selected)
    normalized = [normalize_record(r, stats) for r in selected]
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
    """One window dataset per record, as ``make_windows`` cuts it under ``cfg``."""
    return [
        make_windows(rec, cluster_model, cfg.window, cfg.horizon, cfg.stride, cfg.rul_cap)
        for rec in records
    ]


def load_predictor(bundle: CheckpointBundle):
    """The model and preprocessing bundle a checkpoint describes."""
    cfg = bundle.config
    model = MafnModel(cfg, bundle.n_sensors, np.random.default_rng(cfg.seed))
    model.load_state(bundle.params)
    prep = PreprocessBundle(config=cfg, cluster=bundle.cluster, stats=bundle.stats)
    return model, prep
