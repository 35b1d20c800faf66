"""Single-file versioned checkpoint: parameters, cluster model,
normalization statistics, and the training config snapshot.

Layout: magic, format version, a length-prefixed JSON header describing
every array (name, shape), then the arrays as flat little-endian float64
bytes in header order.  Serialization is fully deterministic: identical
bundles produce identical bytes.
"""
from __future__ import annotations

import json
import struct
from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from .cluster import ClusterModel
from .config import TrainConfig
from .data import NormalizationStats, atomic_write
from .errors import ContractError, DataError

MAGIC = b"MAFNCKPT"
FORMAT_VERSION = 2


@dataclass
class CheckpointBundle:
    config: TrainConfig
    params: "OrderedDict[str, np.ndarray]"
    cluster: ClusterModel
    stats: NormalizationStats

    @property
    def n_sensors(self) -> int:
        return len(self.stats.sensor_ids)


def _f64le(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(bundle: CheckpointBundle, path):
    arrays = [
        ("cluster.centroids", bundle.cluster.centroids),
        ("stats.mins", bundle.stats.mins),
        ("stats.maxs", bundle.stats.maxs),
    ]
    arrays += [(f"param.{name}", arr) for name, arr in bundle.params.items()]
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(bundle.config),
        "cluster": {
            "k": bundle.cluster.k,
            "inertia": bundle.cluster.inertia,
            "feature_spec": bundle.cluster.feature_spec,
        },
        "sensor_ids": list(bundle.stats.sensor_ids),
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            fh.write(_f64le(arr))


def _read(fh, n: int, path, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise DataError(f"{path}: truncated checkpoint ({what})")
    return buf


def load_checkpoint(path) -> CheckpointBundle:
    """Read a checkpoint; a truncated or corrupt file, an array holding NaN
    or inf, or a config that fails ``TrainConfig.validate`` raises DataError."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", _read(fh, 4, path, "version"))
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<Q", _read(fh, 8, path, "header length"))
        try:
            header = json.loads(_read(fh, hlen, path, "header"))
            arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
            for meta in header["arrays"]:
                shape = tuple(meta["shape"])
                buf = _read(fh, int(np.prod(shape)) * 8, path, f"array {meta['name']}")
                arrays[meta["name"]] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
                if not np.isfinite(arrays[meta["name"]]).all():
                    raise DataError(f"{path}: checkpoint array {meta['name']} holds NaN or inf")
            config = TrainConfig(
                **{k: tuple(v) if isinstance(v, list) else v for k, v in header["config"].items()}
            ).validate()
            cluster = ClusterModel(
                k=header["cluster"]["k"],
                centroids=arrays.pop("cluster.centroids"),
                inertia=header["cluster"]["inertia"],
                feature_spec=header["cluster"]["feature_spec"],
            )
            stats = NormalizationStats(
                sensor_ids=tuple(header["sensor_ids"]),
                mins=arrays.pop("stats.mins"),
                maxs=arrays.pop("stats.maxs"),
            )
        except (ValueError, KeyError, TypeError, ContractError) as e:
            raise DataError(f"{path}: corrupt checkpoint header: {e!r}") from None
    params = OrderedDict(
        (name[len("param.") :], arr) for name, arr in arrays.items() if name.startswith("param.")
    )
    return CheckpointBundle(config=config, params=params, cluster=cluster, stats=stats)
