"""Every small config either works or fails cleanly through ``mafn.cli.main``.

A hypothesis property draws small configs (windows longer than any engine,
horizons past the end of life, single-unit layers, batch sizes from 1 to
1000, a ``rul_cap`` down to 1e-300, both cluster feature sets, both
``pad_short`` values) and runs ``train`` on one of three tiny synthetic data
sets, then ``evaluate`` and ``forecast`` on the checkpoint it wrote.  Every
command exits 0, 2 or 3; a failure prints exactly one ``mafn:`` line, and no
output holds a traceback.
"""
import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafn.cli import main

# 4 engines of 8-20 cycles; one operating state; no noise and no jitter
SPECS = {
    "short": "engines = 4\nlife_min = 8\nlife_max = 20\ndwell_min = 2\ndwell_max = 5\nseed = 1\n",
    "one_state": "engines = 4\nk_states = 1\noffsets = 0\nlife_min = 20\nlife_max = 30\n"
                 "dwell_min = 5\ndwell_max = 10\nseed = 2\n",
    "noiseless": "engines = 4\nnoise_sigma = 0\nsetting_jitter = 0\nlife_min = 15\nlife_max = 25\n"
                 "dwell_min = 4\ndwell_max = 8\nseed = 3\n",
}

CONFIGS = st.fixed_dictionaries({
    "window": st.one_of(st.integers(1, 8), st.integers(9, 40)),   # most engines are shorter than 20
    "horizon": st.integers(1, 50),
    "stride": st.sampled_from([1, 3, 100]),
    "k_states": st.sampled_from([1, 2, 3, 40]),
    "kernel_size": st.integers(1, 4),
    "embedding_dim": st.integers(1, 3),
    "n_filters": st.integers(1, 3),
    "lstm_hidden": st.integers(1, 3),
    "trend_dim": st.integers(1, 2),
    "fusion_widths": st.sampled_from(["1", "2,1"]),
    "rul_widths": st.sampled_from(["1,1", "3,2"]),
    "batch_size": st.sampled_from([1, 2, 7, 1000]),
    "rul_cap": st.sampled_from(["1e-300", "1", "125"]),
    "cluster_features": st.sampled_from(["settings", "sensors"]),
    "pad_short": st.sampled_from(["true", "false"]),
})


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("robust")
    paths = {}
    for name, spec in SPECS.items():
        (root / f"{name}.spec").write_text(spec)
        assert main(["synthesize", "--spec", str(root / f"{name}.spec"), "--out", str(root / name)]) == 0
        paths[name] = root / name / "synthetic_train.txt"
    return paths


def run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue() + err.getvalue()
    assert "Traceback" not in text, text
    assert code in (0, 2, 3), (argv, code, text)
    if code:
        assert sum(line.startswith("mafn:") for line in err.getvalue().splitlines()) == 1, text
    return code


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SPECS)), CONFIGS)
def test_small_configs_work_or_fail_cleanly(datasets, data_name, fields):
    text = "".join(f"{key} = {value}\n" for key, value in fields.items())
    text += "max_epochs = 1\ncluster_restarts = 1\nseed = 5\n"
    data = str(datasets[data_name])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "mafn.cfg").write_text(text)
        if run(["train", "--data", data, "--config", str(tmp / "mafn.cfg"), "--out", str(tmp / "run"),
                "--quiet"]):
            return
        checkpoint = str(tmp / "run" / "model.ckpt")
        run(["evaluate", "--checkpoint", checkpoint, "--data", data, "--mode", "cutoffs",
             "--out", str(tmp / "eval")])
        run(["forecast", "--checkpoint", checkpoint, "--data", data, "--unit", "1", "--cutoff", "0.5",
             "--sensor", "7", "--out", str(tmp / "plots")])
