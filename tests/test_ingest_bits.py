"""Bit pins of the ingest path: K-Means fits and the packed window datasets.

Each test hashes, with sha256, what the FD002-shaped ingest computes, so a
change that claims to keep every bit of clustering or windowing is checked
here, and not only by the row-major references of ``test_cluster.py``.
"""
import hashlib

import numpy as np
import pytest

from mafn.cluster import kmeans_fit
from mafn.config import TrainConfig
from mafn.data import fit_normalization, normalize_record, pack_windows, split_by_engine
from mafn.pipeline import fit_pipeline, windows_for_records
from mafn.synthetic import SynthSpec, generate

# FD002's shape: six operating states, lives of 128 to 378 cycles
FD002_SHAPE = dict(k_states=6, offsets=(-1.5, -1.0, -0.5, 0.5, 1.0, 1.5), life_min=128, life_max=378)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def fit_digest(model) -> str:
    return digest(model.centroids, np.float64(model.inertia))


SETTINGS_FITS = {
    11: "959f9e357b1b8b8a368e821045012ef190195c4711bd359ad24e8d43ec853752",
    12: "fc9ee8f40ba0966cf53b7bfe721b3258cf4a3424d183c63d21516ff131acc823",
    13: "73d991c8795c1a4771dd6548507c4928057fff628946206156d84d192888dde8",
}
SENSORS_FIT = "1099fa58a483654269e3085888cdb8c7b22db3ea18ff79301b9020a1308b62db"
PACKED_WINDOWS = ["effccf88e21eeca57b689db28c1ecf65ca90a139f30d5fbeba52890216a6f747",   # train
                  "6a421e3e65c6f7ef9c9aefa53fbe78605498d41242ceebe0c309a502e1724f23"]   # validation


@pytest.mark.parametrize("seed", sorted(SETTINGS_FITS))
def test_fd002_settings_fit_bits(seed):
    """The 10-restart ``settings`` fit of 260 FD002-shaped engines (~66k points)."""
    records, _ = generate(SynthSpec(seed=seed, engines=260, **FD002_SHAPE))
    points = np.concatenate([r.op_settings for r in records])
    assert fit_digest(kmeans_fit(points, 6, seed=seed)) == SETTINGS_FITS[seed]


def test_sensors_fit_bits():
    """A ``sensors`` fit of 24 engines' normalized selected sensors, over
    more than one distance block, where the polish moves points."""
    records, _ = generate(SynthSpec(seed=14, engines=24, **FD002_SHAPE))
    stats = fit_normalization(records)
    points = np.concatenate([normalize_record(r, stats).sensors for r in records])
    assert fit_digest(kmeans_fit(points, 6, seed=14, restarts=3, feature_spec="sensors")) == SENSORS_FIT


def test_fd002_packed_windows_bits():
    """The train and validation windows of an FD002-shaped ingest, as
    ``fit_pipeline``, ``split_by_engine`` and ``windows_for_records`` cut
    them under the default config, packed."""
    records, _ = generate(SynthSpec(seed=41, engines=260, **FD002_SHAPE))
    cfg = TrainConfig()
    cluster, _, normalized = fit_pipeline(records, cfg)
    packed = [pack_windows(windows_for_records(recs, cluster, cfg))
              for recs in split_by_engine(normalized, cfg.val_fraction, cfg.seed)]
    assert [digest(ds.sensors, ds.state_ids, ds.starts, ds.mask, ds.rul) for ds in packed] == PACKED_WINDOWS
