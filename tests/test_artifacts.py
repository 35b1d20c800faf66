"""The artifact contract: the README walkthrough writes the same bytes.

The walkthrough runs in-process through ``mafn.cli.main`` in a temporary
directory, with the README's relative paths (manifests record them) and
``MAFN_MAX_EPOCHS=2``.  Three more runs follow it: a second ``train`` that
clusters sensors and pads short histories, a forecast from that checkpoint
at a cutoff that leaves fewer cycles than the window, and a test-set
evaluation against a made-up RUL file.  The sha256 of every file they all
write must equal the one in ``tests/golden/walkthrough.sha256``.

Float bits can differ with the numpy version, the BLAS build and the CPU,
so the golden file records all three; on another environment the test
skips and names the difference.  A change that moves a hash on purpose
regenerates the file with ``python tests/test_artifacts.py`` and names the
file and the cause in CHANGES.md.
"""
import contextlib
import hashlib
import io
import os
import platform
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mafn.cli import main

GOLDEN = Path(__file__).parent / "golden" / "walkthrough.sha256"

WALKTHROUGH = [
    ["config", "init", "--out", "mafn.cfg"],
    ["synth-spec", "--out", "synth.spec"],
    ["synthesize", "--spec", "synth.spec", "--out", "data/"],
    ["cluster", "--data", "data/synthetic_train.txt", "--config", "mafn.cfg", "--out", "clusters/"],
    ["train", "--data", "data/synthetic_train.txt", "--config", "mafn.cfg", "--out", "run/"],
    ["evaluate", "--checkpoint", "run/model.ckpt", "--data", "data/synthetic_train.txt",
     "--mode", "cutoffs", "--out", "eval/"],
    ["forecast", "--checkpoint", "run/model.ckpt", "--data", "data/synthetic_train.txt",
     "--unit", "12", "--cutoff", "0.7", "--sensor", "7", "--out", "plots/"],
]

# after the walkthrough: the environment each run adds, and its arguments
EXTRA_RUNS = [
    ({"MAFN_CLUSTER_FEATURES": "sensors", "MAFN_PAD_SHORT": "true"},
     ["train", "--data", "data/synthetic_train.txt", "--config", "mafn.cfg", "--out", "run-sensors/"]),
    # a cutoff of 0.2 leaves 20-28 cycles of the 30-cycle window
    ({}, ["forecast", "--checkpoint", "run-sensors/model.ckpt", "--data", "data/synthetic_train.txt",
          "--unit", "3", "--cutoff", "0.2", "--sensor", "11", "--out", "plots-short/"]),
    ({}, ["evaluate", "--checkpoint", "run-sensors/model.ckpt", "--data", "data/synthetic_train.txt",
          "--mode", "testset", "--rul", "rul.txt", "--out", "eval-testset/"]),
]

# one made-up RUL value per walkthrough engine (the default spec has 40)
RUL_TEXT = "".join(f"{(37 * i) % 120 + 1}\n" for i in range(40))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no ``mode``; an unknown BLAS skips
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cpu_model": cpu_model(),
    }


def run_walkthrough(root: Path) -> dict:
    """Run the walkthrough in ``root``; the sha256 of every file, by path."""
    old = Path.cwd()
    os.chdir(root)
    try:
        Path("rul.txt").write_text(RUL_TEXT)
        for env, argv in [({}, argv) for argv in WALKTHROUGH] + EXTRA_RUNS:
            with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code == 0, f"{' '.join(argv)} exited {code}: {err.getvalue()}"
    finally:
        os.chdir(old)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def read_golden() -> tuple:
    """``(environment, hashes)`` from the golden file: ``# key: value``
    header lines, then ``sha256  path`` lines."""
    env, hashes = {}, {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            env[key] = value
        elif line:
            digest, path = line.split("  ", 1)
            hashes[path] = digest
    return env, hashes


def write_golden(env: dict, hashes: dict):
    lines = [f"# {key}: {value}" for key, value in env.items()]
    lines += [f"{digest}  {path}" for path, digest in sorted(hashes.items())]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")


def test_walkthrough_bytes_match_golden(tmp_path, monkeypatch):
    golden_env, golden = read_golden()
    differs = [f"{key} {value!r} (golden {golden_env.get(key)!r})"
               for key, value in environment().items() if golden_env.get(key) != value]
    if differs:
        pytest.skip("golden hashes were made on another environment: " + "; ".join(differs))
    for name in [n for n in os.environ if n.startswith("MAFN_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("MAFN_MAX_EPOCHS", "2")
    hashes = run_walkthrough(tmp_path)
    assert sorted(hashes) == sorted(golden)
    changed = [path for path in sorted(golden) if hashes[path] != golden[path]]
    assert not changed, f"artifacts changed bytes: {changed}"


if __name__ == "__main__":
    # regenerate the golden file on this environment
    import tempfile

    for name in [n for n in os.environ if n.startswith("MAFN_")]:
        del os.environ[name]
    os.environ["MAFN_MAX_EPOCHS"] = "2"
    with tempfile.TemporaryDirectory() as tmp:
        found = run_walkthrough(Path(tmp))
    write_golden(environment(), found)
    print(f"wrote {len(found)} hashes to {GOLDEN}", file=sys.stderr)
