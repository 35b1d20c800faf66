"""Single-file versioned checkpoint: parameters, cluster model,
normalization statistics, and the training config snapshot.

Layout: magic, format version, a length-prefixed JSON header describing
every array (name, shape), then the arrays as flat little-endian float64
bytes in header order.  Serialization is fully deterministic: identical
bundles produce identical bytes.
"""
from __future__ import annotations

import json
import math
import os
import struct
from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from .cluster import ClusterModel
from .config import TrainConfig, decode_fields, decoded_value
from .data import N_SETTINGS, NormalizationStats, atomic_write
from .errors import ContractError, DataError
from .model import PreprocessBundle

MAGIC = b"MAFNCKPT"
FORMAT_VERSION = 2
_ARRAY_GROUPS = ("cluster.", "stats.", "param.")


@dataclass(frozen=True)
class CheckpointBundle(PreprocessBundle):
    """The preprocessing bundle and the trained parameters it feeds."""

    params: "OrderedDict[str, np.ndarray]"


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


def _array_layout(metas, left: int, path, where: str) -> "OrderedDict[str, tuple]":
    """Each array's shape by name, once the names are known and distinct and
    the arrays' bytes fill the ``left`` bytes after the header exactly."""
    layout: "OrderedDict[str, tuple]" = OrderedDict()
    for meta in metas:
        name = decoded_value(meta["name"], "", where, "array name")
        shape = decoded_value(meta["shape"], (0,), where, f"array {name} shape")
        if not name.startswith(_ARRAY_GROUPS) or name in layout:
            raise DataError(f"{where}: array {name!r} is unknown or repeated")
        if min(shape, default=0) < 0:
            raise DataError(f"{where}: array {name} has a negative dimension {list(shape)}")
        left -= 8 * math.prod(shape)
        if left < 0:
            raise DataError(f"{path}: truncated checkpoint (array {name})")
        layout[name] = shape
    if left:
        raise DataError(f"{path}: {left} bytes after the last array")
    return layout


def load_checkpoint(path) -> CheckpointBundle:
    """Read a checkpoint; a truncated or corrupt file, bytes after the last
    array, an array holding NaN or inf, named twice or outside ``cluster.*``,
    ``stats.*`` and ``param.*``, sensor ids that are not distinct raw ids in
    ascending order, a header value not of its field's type, a config
    that fails ``TrainConfig.validate``, or a cluster whose ``k``,
    ``feature_spec`` or centroid width is not the config's raises
    DataError.  The header length and every array's size are checked
    against the bytes left in the file before anything is read."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", _read(fh, 4, path, "version"))
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<Q", _read(fh, 8, path, "header length"))
        left -= len(MAGIC) + 12 + hlen
        if left < 0:
            raise DataError(f"{path}: truncated checkpoint (header)")
        where = f"{path}: checkpoint header"
        try:
            header = json.loads(_read(fh, hlen, path, "header"))
            arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
            for name, shape in _array_layout(header["arrays"], left, path, where).items():
                buf = _read(fh, 8 * math.prod(shape), path, f"array {name}")
                arrays[name] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
                if not np.isfinite(arrays[name]).all():
                    raise DataError(f"{path}: checkpoint array {name} holds NaN or inf")
            config = decode_fields(TrainConfig, header["config"], where, "config").validate()
            cluster = ClusterModel(
                k=decoded_value(header["cluster"]["k"], 0, where, "cluster.k"),
                centroids=arrays.pop("cluster.centroids"),
                inertia=decoded_value(header["cluster"]["inertia"], 0.0, where, "cluster.inertia"),
                feature_spec=decoded_value(header["cluster"]["feature_spec"], "", where, "cluster.feature_spec"),
            )
            stats = NormalizationStats(
                sensor_ids=decoded_value(header["sensor_ids"], (0,), where, "sensor_ids"),
                mins=arrays.pop("stats.mins"),
                maxs=arrays.pop("stats.maxs"),
            )
            width = N_SETTINGS if config.cluster_features == "settings" else len(stats.sensor_ids)
            for what, found, wanted in (("k", cluster.k, config.k_states),
                                        ("feature_spec", cluster.feature_spec, config.cluster_features),
                                        ("centroid width", cluster.centroids.shape[1], width)):
                if found != wanted:
                    raise DataError(f"{where}: cluster {what} {found!r} does not match the config's {wanted!r}")
        except (ValueError, KeyError, TypeError, AttributeError, ContractError) as e:
            raise DataError(f"{path}: corrupt checkpoint header: {e!r}") from None
    params = OrderedDict(
        (name[len("param.") :], arr) for name, arr in arrays.items() if name.startswith("param.")
    )
    return CheckpointBundle(config=config, params=params, cluster=cluster, stats=stats)
