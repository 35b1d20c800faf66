import contextlib
import io
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mafn
from mafn import cli
from mafn import tensor as T
from mafn.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from mafn.cli import OUT_DIR_COMMANDS, main
from mafn.config import (
    MAX_ARRAY_VALUES,
    TrainConfig,
    default_config_text,
    load_config,
    model_sizes,
    parse_fields,
)
from mafn.data import NormalizationStats, normalize_values, parse_cmapss, truncate_at_fraction, write_cmapss
from mafn.errors import ContractError, DataError
from mafn.model import MafnModel, prepare_window
from mafn.pipeline import load_predictor, train_run
from mafn.svgplot import LineChart, _nice_ticks
from mafn.training import format_log_csv
from tests.taped import add, tsum
from tests.test_model import with_header


SMOKE_CONFIG = """
window = 12
horizon = 3
stride = 4
k_states = 2
embedding_dim = 3
kernel_size = 3
n_filters = 4
lstm_hidden = 6
trend_dim = 2
fusion_widths = 8
rul_widths = 8,6
batch_size = 16
max_epochs = 2
patience = 1
seed = 7
"""

SYNTH_SPEC = """
engines = 5
k_states = 2
offsets = -1,1
noise_sigma = 0.05
life_min = 40
life_max = 55
dwell_min = 15
dwell_max = 25
seed = 11
"""

# each was accepted once: inf trained and scored inf, nan disabled clipping
# or failed mid-training, beta1 = 1.5 and adam_eps = -1 trained, horizon = 1
# failed only at the degradation loss, after parsing, clustering and windowing
BAD_CONFIG_LINES = [
    "rul_cap = inf", "grad_clip = nan", "learning_rate = nan", "lambda_smooth = nan",
    "adam_eps = -inf", "adam_eps = 0", "adam_eps = -1", "beta1 = 1.5", "beta1 = -0.1", "beta2 = 1.0",
    "seed = -1", "horizon = 1", "grad_clip = -1",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data plus a trained smoke checkpoint, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "smoke.cfg").write_text(SMOKE_CONFIG)
    (root / "synth.spec").write_text(SYNTH_SPEC)
    assert main(["synthesize", "--spec", str(root / "synth.spec"), "--out", str(root / "data")]) == 0
    assert (
        main(
            [
                "train", "--data", str(root / "data" / "synthetic_train.txt"),
                "--config", str(root / "smoke.cfg"), "--out", str(root / "run1"), "--quiet",
            ]
        )
        == 0
    )
    return root


class TestConfig:
    def test_default_text_parses_to_defaults(self):
        assert parse_fields(TrainConfig, default_config_text(), "<string>", "config") == TrainConfig()

    def test_config_init_roundtrip(self, tmp_path):
        path = tmp_path / "mafn.cfg"
        assert main(["config", "init", "--out", str(path)]) == 0
        assert load_config(path) == TrainConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown config key"):
            parse_fields(TrainConfig, "no_such_knob = 3", "<string>", "config")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "mafn.cfg"
        path.write_bytes(b"\xff\xfes\x00e\x00e\x00d\x00")
        with pytest.raises(DataError, match=r"mafn\.cfg:1: not UTF-8"):
            load_config(path)

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "mafn.cfg"
        path.write_text("seed = 1\n")
        monkeypatch.setenv("MAFN_SEED", "99")
        monkeypatch.setenv("MAFN_BATCH_SIZE", "17")
        cfg = load_config(path)
        assert cfg.seed == 99
        assert cfg.batch_size == 17

    def test_bad_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("MAFN_SEED", "x")
        with pytest.raises(DataError, match=r"^MAFN_SEED: config field seed: "):
            load_config()

    def test_bad_file_value_names_path_and_line(self, tmp_path):
        path = tmp_path / "mafn.cfg"
        path.write_text("# comment\nseed = 1\nbatch_size = lots\n")
        with pytest.raises(DataError, match=r"mafn\.cfg:3: config field batch_size: "):
            load_config(path)

    def test_seed_argument_beats_env_beats_file(self, tmp_path, monkeypatch):
        path = tmp_path / "mafn.cfg"
        path.write_text("seed = 1\nwindow = 20\n")
        monkeypatch.setenv("MAFN_SEED", "2")
        assert load_config(path).seed == 2
        assert load_config(path, seed=3) == replace(TrainConfig(), window=20, seed=3)

    def test_validation_failure(self):
        with pytest.raises(Exception, match="lambda_late"):
            parse_fields(TrainConfig, "lambda_late = 1.0\nlambda_early = 2.0", "<string>", "config").validate()

    @pytest.mark.parametrize("line", BAD_CONFIG_LINES)
    def test_non_finite_or_out_of_range_value_rejected(self, tmp_path, line):
        path = tmp_path / "mafn.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ContractError, match=line.split()[0]):
            load_config(path)


    def test_window_shorter_than_kernel_rejected(self, tmp_path):
        path = tmp_path / "mafn.cfg"
        path.write_text("window = 2\nkernel_size = 3\n")
        with pytest.raises(ContractError, match="window 2 is shorter than kernel_size 3"):
            load_config(path)
        path.write_text("window = 3\nkernel_size = 3\n")
        assert load_config(path).window == 3

    # each would allocate gigabytes; validate() rejects them from the config alone
    @pytest.mark.parametrize("fields,what", [
        ({"embedding_dim": 100_000_000}, "parameters"),
        ({"lstm_hidden": 10_000}, "parameters"),
        ({"fusion_widths": (8, 100_000, 100_000)}, "parameters"),
        ({"k_states": 10_000_000}, "parameters"),
        ({"batch_size": 10_000_000}, "activation"),
        ({"window": 100_000_000}, "activation"),
        ({"horizon": 100_000_000}, "activation"),
    ])
    def test_oversized_layers_rejected(self, fields, what):
        with pytest.raises(ContractError, match=f"{what}.*more than the bound of 33,554,432"):
            TrainConfig(**fields).validate()

    def test_default_config_far_below_size_bound(self):
        params, activation = model_sizes(TrainConfig())
        assert max(params, activation) * 90 < MAX_ARRAY_VALUES

    def test_activation_bound_covers_the_encoder_scan(self, monkeypatch):
        """Every buffer ``tensor`` allocates with ``np.empty`` in one training
        step fits the activation estimate: the encoder scan holds both
        directions' gates, ``window x 8H`` values per window."""
        cfg = TrainConfig(window=9, horizon=3, k_states=2, embedding_dim=2, kernel_size=3, n_filters=3,
                          lstm_hidden=5, trend_dim=2, fusion_widths=(4,), rul_widths=(4, 3),
                          batch_size=6).validate()
        sizes = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape, *args, **kwargs):
                sizes.append(int(np.prod(shape)))
                return np.empty(shape, *args, **kwargs)

        model = MafnModel(cfg, 2, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x, s = rng.random((cfg.batch_size, cfg.window, 2)), rng.integers(0, 2, (cfg.batch_size, cfg.window))
        monkeypatch.setattr(T, "np", RecordingNumpy())
        out = model.forward(x, s)
        add(add(add(tsum(out.rul), tsum(out.degradation)), tsum(out.forecast)), tsum(out.state_logits)).backward()
        assert max(sizes) == cfg.batch_size * cfg.window * 8 * cfg.lstm_hidden
        assert max(sizes) <= model_sizes(cfg, 2)[1]

    @pytest.mark.parametrize("n_sensors", [2, 11, 21])
    @pytest.mark.parametrize("fields", [
        {},
        {"window": 7, "horizon": 9, "k_states": 3, "embedding_dim": 5, "kernel_size": 5, "n_filters": 6,
         "lstm_hidden": 7, "trend_dim": 2, "fusion_widths": (4, 9, 3), "rul_widths": (5, 4)},
    ])
    def test_model_sizes_counts_the_parameters(self, fields, n_sensors):
        cfg = TrainConfig(**fields)
        model = MafnModel(cfg, n_sensors, np.random.default_rng(0))
        assert model_sizes(cfg, n_sensors)[0] == sum(p.size for p in model.parameters().values())

    def test_oversized_config_exits_2_before_data_work(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("embedding_dim = 100000000\n")
        code = main(["train", "--data", str(tmp_path / "missing.txt"), "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mafn: error: ") and err.count("\n") == 1 and "bound" in err
        assert not (tmp_path / "out").exists()


class TestFileBoundary:
    """A path argument naming the wrong kind of file fails as one ``mafn:``
    line with exit 2, never as a traceback."""

    @pytest.mark.parametrize("case", [
        "train --out file", "train --out under-file", "train --data dir", "train --config dir",
        "evaluate --out file", "evaluate --checkpoint dir", "evaluate --data dir",
        "synthesize --out file", "synthesize --spec dir", "cluster --out file", "forecast --out file",
    ])
    def test_clean_error(self, workspace, tmp_path, capsys, monkeypatch, case):
        command, flag, kind = case.split()
        if flag == "--out":                        # --out is checked before any input is read

            def no_parse(path):
                raise AssertionError(f"parsed {path} before checking --out")

            monkeypatch.setattr(cli, "parse_cmapss", no_parse)
        a_file = tmp_path / "a_file"
        a_file.write_text("x\n")
        (tmp_path / "a_dir").mkdir()
        bad = {"file": a_file, "under-file": a_file / "sub", "dir": tmp_path / "a_dir"}[kind]
        data, out = str(workspace / "data" / "synthetic_train.txt"), str(tmp_path / "out")
        args = {
            "train": {"--data": data, "--config": str(workspace / "smoke.cfg"), "--out": out},
            "evaluate": {"--checkpoint": str(workspace / "run1" / "model.ckpt"), "--data": data,
                         "--mode": "cutoffs", "--out": out},
            "forecast": {"--checkpoint": str(workspace / "run1" / "model.ckpt"), "--data": data,
                         "--unit": "1", "--cutoff": "0.5", "--sensor": "7", "--out": out},
            "cluster": {"--data": data, "--config": str(workspace / "smoke.cfg"), "--out": out},
            "synthesize": {"--spec": str(workspace / "synth.spec"), "--out": out},
        }[command]
        args[flag] = str(bad)
        assert main([command, *(token for pair in args.items() for token in pair)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("mafn: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("existed", [False, True])
    @pytest.mark.parametrize("command", ["train", "cluster", "evaluate", "forecast"])
    def test_failed_run_removes_only_the_out_dir_it_made(self, workspace, tmp_path, capsys,
                                                          command, existed):
        """Each command fails after making --out: a bad token in the data, or
        an unknown unit.  It removes the empty directories it made, parents
        included, and never a directory that was there before."""
        bad = tmp_path / "bad.txt"
        bad.write_text(_with_bad_token(workspace / "data" / "synthetic_train.txt"))
        out = tmp_path / "new" / "out"
        if existed:
            out.mkdir(parents=True)
        ckpt, good = str(workspace / "run1" / "model.ckpt"), str(workspace / "data" / "synthetic_train.txt")
        argv = {
            "train": ["--data", str(bad), "--config", str(workspace / "smoke.cfg"), "--quiet"],
            "cluster": ["--data", str(bad), "--config", str(workspace / "smoke.cfg")],
            "evaluate": ["--checkpoint", ckpt, "--data", str(bad), "--mode", "cutoffs"],
            "forecast": ["--checkpoint", ckpt, "--data", good, "--unit", "999", "--cutoff", "0.5",
                         "--sensor", "7"],
        }[command]
        assert main([command, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mafn: error: ") and err.count("\n") == 1
        assert out.is_dir() == existed and (tmp_path / "new").exists() == existed
        if existed:
            assert not any(out.iterdir())


def _with_bad_token(data_path) -> str:
    """The data file's text with one token on its third line made unreadable."""
    lines = Path(data_path).read_text().splitlines()
    lines[2] = lines[2].replace(" ", " x", 1)
    return "\n".join(lines) + "\n"


# each path argument of each command, and the values a property test gives it
PATH_ARGS = {
    "train": ("--data", "--config", "--out"),
    "cluster": ("--data", "--config", "--out"),
    "evaluate": ("--checkpoint", "--data", "--rul", "--out"),
    "forecast": ("--checkpoint", "--data", "--out"),
    "synthesize": ("--spec", "--out"),
}
PATH_KINDS = ("missing", "dir", "file", "bad-data", "good", "name-too-long")
OTHER_ARGS = {
    "train": ["--quiet"],
    "evaluate": ["--mode", "testset"],
    "forecast": ["--unit", "1", "--cutoff", "0.5", "--sensor", "7"],
}


class TestFileBoundaryProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(PATH_ARGS)).flatmap(
        lambda command: st.tuples(
            st.just(command),
            st.fixed_dictionaries({flag: st.sampled_from(PATH_KINDS) for flag in PATH_ARGS[command]}),
        )
    ))
    @example(("synthesize", {"--spec": "good", "--out": "name-too-long"}))
    def test_any_path_fails_cleanly(self, workspace, case):
        """Every path argument of every command, given a missing path, a
        directory, an existing file, a data file with a bad token, a good
        path or a name too long for the file system under a missing
        directory: a failure exits 1, 2 or 3 with one ``mafn:`` line on
        stderr, and leaves no directory it made."""
        command, kinds = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "a_dir").mkdir()
            (tmp / "a_file").write_text("x\n")
            (tmp / "bad.txt").write_text(_with_bad_token(workspace / "data" / "synthetic_train.txt"))
            (tmp / "rul.txt").write_text("20\n" * 5)
            good = {
                "--data": workspace / "data" / "synthetic_train.txt",
                "--config": workspace / "smoke.cfg",
                "--checkpoint": workspace / "run1" / "model.ckpt",
                "--spec": workspace / "synth.spec",
                "--rul": tmp / "rul.txt",
                "--out": tmp / "out",
            }
            argv = [command, *OTHER_ARGS.get(command, [])]
            for flag, kind in kinds.items():
                path = {"missing": tmp / "missing" / "path", "dir": tmp / "a_dir",
                        "file": tmp / "a_file", "bad-data": tmp / "bad.txt", "good": good[flag],
                        "name-too-long": tmp / "missing" / ("x" * 300)}[kind]
                argv += [flag, str(path)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue()
            assert "Traceback" not in err
            if code:
                assert code in (1, 2, 3)
                assert err.startswith("mafn: ") and err.count("\n") == 1, err
                assert not (tmp / "missing").exists() and not (tmp / "out").exists()
            else:
                assert err == ""


def _directory_run(workspace, command, out) -> list:
    """argv of a run of ``command`` on the workspace that writes into ``out``."""
    data, ckpt = str(workspace / "data" / "synthetic_train.txt"), str(workspace / "run1" / "model.ckpt")
    argv = {
        "cluster": ["--data", data, "--config", str(workspace / "smoke.cfg")],
        "train": ["--data", data, "--config", str(workspace / "smoke.cfg"), "--quiet"],
        "evaluate": ["--checkpoint", ckpt, "--data", data, "--mode", "cutoffs"],
        "forecast": ["--checkpoint", ckpt, "--data", data, "--unit", "1", "--cutoff", "0.5", "--sensor", "7"],
        "synthesize": ["--spec", str(workspace / "synth.spec")],
    }[command]
    return [command, *argv, "--out", str(out)]


class TestOutputRecord:
    """Each directory command records the files it writes: the manifest
    lists them, and a failed run removes them and the directories it made."""

    @pytest.mark.parametrize("command", OUT_DIR_COMMANDS)
    def test_manifest_lists_the_other_files(self, workspace, tmp_path, command):
        out = tmp_path / "out"
        assert main(_directory_run(workspace, command, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")

    @pytest.mark.parametrize("command", OUT_DIR_COMMANDS)
    def test_failed_run_leaves_only_what_was_there(self, workspace, tmp_path, capsys, command):
        """The manifest cannot be written over a directory of its name: the
        run exits 2 after writing its other files, and removes them."""
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        (out / "keep.txt").write_text("kept\n")
        assert main(_directory_run(workspace, command, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("mafn: error: ") and err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt", "manifest.json"]
        assert (out / "manifest.json").is_dir() and (out / "keep.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["cluster", "train", "synthesize"])
    def test_out_checked_before_config_or_spec(self, tmp_path, capsys, command):
        """An ``--out`` that cannot be a directory fails before the config
        or spec is read, as it does before ``evaluate`` and ``forecast``
        read a checkpoint."""
        a_file = tmp_path / "a_file"
        a_file.write_text("x\n")
        source = ["--spec"] if command == "synthesize" else ["--data", str(tmp_path / "no.txt"), "--config"]
        assert main([command, *source, str(tmp_path / "no.cfg"), "--out", str(a_file / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mafn: error: ") and "a_file" in err and "no.cfg" not in err


class TestSynthesizeCommand:
    def test_outputs_exist(self, workspace):
        out = workspace / "data"
        assert (out / "synthetic_train.txt").exists()
        assert (out / "truth.json").exists()
        assert (out / "manifest.json").exists()

    def test_truth_matches_engine_count(self, workspace):
        truth = json.loads((workspace / "data" / "truth.json").read_text())
        assert len(truth["engines"]) == 5

    def test_non_utf8_spec_clean_error(self, tmp_path, capsys):
        spec = tmp_path / "synth.spec"
        spec.write_bytes(b"\xff\xfee\x00\n")
        assert main(["synthesize", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "synth.spec:1: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["setting_jitter = -1", "setting_jitter = nan", "noise_sigma = inf",
                                      "trend_amplitude = nan", "offsets = -1,inf", "seed = -1",
                                      "validate = 3"])
    def test_bad_spec_value_clean_error(self, tmp_path, capsys, line):
        spec = tmp_path / "synth.spec"
        spec.write_text(SYNTH_SPEC + line + "\n")
        assert main(["synthesize", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "o" / "synthetic_train.txt").exists()

    @pytest.mark.parametrize("command", ["synthesize", "cluster", "train"])
    def test_negative_seed_clean_error(self, workspace, tmp_path, capsys, command):
        data = ["--data", str(workspace / "data" / "synthetic_train.txt")] if command != "synthesize" else []
        out = tmp_path / "o"
        assert main([command, *data, "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("mafn: error: ") and err.count("\n") == 1 and "seed must be >= 0" in err
        assert not out.exists()


class TestTrainCommand:
    def test_artifacts(self, workspace):
        run = workspace / "run1"
        assert (run / "model.ckpt").exists()
        assert (run / "training_log.csv").exists()
        manifests = list(run.glob("manifest.json"))
        assert len(manifests) == 1
        log = (run / "training_log.csv").read_text().strip().split("\n")
        assert log[0].startswith("epoch,")
        assert len(log) >= 2

    def test_rerun_is_byte_identical(self, workspace):
        root = workspace
        assert (
            main(
                [
                    "train", "--data", str(root / "data" / "synthetic_train.txt"),
                    "--config", str(root / "smoke.cfg"), "--out", str(root / "run2"), "--quiet",
                ]
            )
            == 0
        )
        ck1 = (root / "run1" / "model.ckpt").read_bytes()
        ck2 = (root / "run2" / "model.ckpt").read_bytes()
        assert ck1 == ck2
        log1 = (root / "run1" / "training_log.csv").read_bytes()
        log2 = (root / "run2" / "training_log.csv").read_bytes()
        assert log1 == log2

    def test_missing_data_file_clean_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert main(["train", "--out", "somewhere"]) == 1
        assert main(["no-such-command"]) == 1

    def test_output_layout(self, workspace):
        run = workspace / "run1"
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["artifacts"] == ["model.ckpt", "training_log.csv"]
        assert sorted(p.name for p in run.iterdir()) == ["manifest.json", "model.ckpt", "training_log.csv"]

    def test_non_finite_token_clean_error(self, workspace, tmp_path, capsys):
        lines = (workspace / "data" / "synthetic_train.txt").read_text().splitlines()
        parts = lines[2].split()
        parts[6] = "nan"
        lines[2] = " ".join(parts)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert "bad.txt:3: non-finite" in capsys.readouterr().err

    def test_non_utf8_data_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe1\x00\n")
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert "bad.txt:1: not UTF-8" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, workspace, tmp_path, capsys):
        # a step size this large sends the first Adam step to 1e300 and the
        # next forward to NaN: a genuine divergence, exit 3
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(SMOKE_CONFIG + "learning_rate = 1e300\n")
        code = main(
            ["train", "--data", str(workspace / "data" / "synthetic_train.txt"), "--config", str(cfg),
             "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 3
        assert "numeric" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.ckpt").exists()   # partial outputs removed

    @pytest.mark.parametrize("line", BAD_CONFIG_LINES)
    def test_bad_config_value_clean_error(self, workspace, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE_CONFIG + line + "\n")
        code = main(
            ["train", "--data", str(workspace / "data" / "synthetic_train.txt"), "--config", str(cfg),
             "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.ckpt").exists()

    def test_no_usable_windows_clean_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(SMOKE_CONFIG + "window = 200\n")      # every engine is shorter
        code = main(
            ["train", "--data", str(workspace / "data" / "synthetic_train.txt"), "--config", str(cfg),
             "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 2
        assert "[stage window] no usable windows (window=200)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.ckpt").exists()

    def test_window_shorter_than_kernel_fails_before_data_work(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(SMOKE_CONFIG + "window = 1\n")
        code = main(
            ["train", "--data", str(workspace / "data" / "synthetic_train.txt"), "--config", str(cfg),
             "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "window 1 is shorter than kernel_size 3" in err and "[stage" not in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_sensor_span_clean_error(self, workspace, tmp_path, capsys):
        # finite readings whose span overflows float64 would normalize to NaN
        source = (workspace / "data" / "synthetic_train.txt").read_text().splitlines()
        poisoned = []
        for i, line in enumerate(source):
            parts = line.split()
            if i < 2:
                parts[6] = ("1e308", "-1e308")[i]
            poisoned.append(" ".join(parts))
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(poisoned) + "\n")
        code = main(
            ["train", "--data", str(bad), "--config", str(workspace / "smoke.cfg"),
             "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 2
        assert "[stage preprocess] sensor 2:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.ckpt").exists()


class TestTrainRun:
    """``pipeline.train_run`` is everything ``mafn train`` does between
    parsing the data and writing the files."""

    def test_bundle_and_log_are_the_cli_artifacts(self, workspace, tmp_path):
        records = parse_cmapss(workspace / "data" / "synthetic_train.txt")
        bundle, result = train_run(records, load_config(workspace / "smoke.cfg"))
        save_checkpoint(bundle, tmp_path / "model.ckpt")
        assert (tmp_path / "model.ckpt").read_bytes() == (workspace / "run1" / "model.ckpt").read_bytes()
        assert format_log_csv(result.log_rows) == (workspace / "run1" / "training_log.csv").read_text()

    def test_no_usable_windows_names_the_stage(self, workspace):
        records = parse_cmapss(workspace / "data" / "synthetic_train.txt")
        with pytest.raises(DataError) as err:
            train_run(records, replace(load_config(workspace / "smoke.cfg"), window=200))
        assert str(err.value).startswith("[stage window] no usable windows (window=200)")

    def test_one_engine_names_the_stage(self, workspace):
        records = parse_cmapss(workspace / "data" / "synthetic_train.txt")
        with pytest.raises(ContractError) as err:
            train_run(records[:1], load_config(workspace / "smoke.cfg"))
        assert str(err.value) == "[stage split] need at least 2 engines to split"

    def test_write_failure_removes_written_files(self, workspace, tmp_path, monkeypatch, capsys):
        def no_manifest(*args):
            raise DataError("manifest refused")

        monkeypatch.setattr(cli, "_write_manifest", no_manifest)
        code = main(["train", "--data", str(workspace / "data" / "synthetic_train.txt"),
                     "--config", str(workspace / "smoke.cfg"), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert "[stage write] manifest refused" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_interrupt_prints_one_line_and_removes_out(self, workspace, tmp_path, monkeypatch, capsys):
        """Ctrl-C in training (here a KeyboardInterrupt from the epoch
        callback once the first epoch ends) exits 130 with one stderr line
        and leaves nothing of the run's ``--out``."""
        epochs = []

        def interrupt(row):
            epochs.append(row["epoch"])
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_print_epoch", lambda args: interrupt)
        code = main(["train", "--data", str(workspace / "data" / "synthetic_train.txt"),
                     "--config", str(workspace / "smoke.cfg"), "--out", str(tmp_path / "new" / "out")])
        assert code == 130 and epochs == [1]
        assert capsys.readouterr().err == "mafn: interrupted\n"
        assert list(tmp_path.iterdir()) == []

    def test_sigterm_prints_one_line_and_removes_out(self, workspace, tmp_path):
        """SIGTERM, sent once the first epoch line is out, takes Ctrl-C's
        path: exit 143, one stderr line, and nothing left of ``--out`` or of
        the parent directory the run made for it."""
        config = tmp_path / "long.cfg"
        config.write_text(SMOKE_CONFIG + "max_epochs = 10000\npatience = 10000\n")
        src = str(Path(mafn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   PYTHONUNBUFFERED="1")
        run = tmp_path / "run"
        run.mkdir()
        proc = subprocess.Popen(
            [sys.executable, "-m", "mafn.cli", "train", "--data", str(workspace / "data" / "synthetic_train.txt"),
             "--config", str(config), "--out", str(run / "new" / "out")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().startswith("epoch    1 ")
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 143
        assert err == "mafn: interrupted\n"
        assert list(run.iterdir()) == []

    def test_sigterm_handler_restored(self, tmp_path):
        previous = signal.getsignal(signal.SIGTERM)
        assert main(["config", "init", "--out", str(tmp_path / "mafn.cfg")]) == 0
        assert signal.getsignal(signal.SIGTERM) is previous


def overflowing_case(workspace, tmp_path):
    """run1's checkpoint with sensor 7's training range narrowed to 0.5, and
    the walkthrough data with unit 1's sensor 7 at 1e308 in the first cycle
    after a 0.5 cutoff, which overflows in normalization.  Returns the two
    paths and that cycle."""
    bundle = load_checkpoint(workspace / "run1" / "model.ckpt")
    j = bundle.stats.sensor_ids.index(7)
    maxs = bundle.stats.maxs.copy()
    maxs[j] = bundle.stats.mins[j] + 0.5
    ckpt = tmp_path / "narrow.ckpt"
    save_checkpoint(replace(bundle, stats=NormalizationStats(bundle.stats.sensor_ids, bundle.stats.mins, maxs)), ckpt)
    records = parse_cmapss(workspace / "data" / "synthetic_train.txt")
    record = next(r for r in records if r.unit_id == 1)
    cut = truncate_at_fraction(record, 0.5)[0].length
    record.sensors[cut, 6] = 1e308                 # column j is sensor j + 1
    data = tmp_path / "huge.txt"
    write_cmapss(records, data)
    return ckpt, data, cut + 1


class TestEvaluateCommand:
    def test_overflowing_reading_fails_with_one_line(self, workspace, tmp_path, capsys):
        """A finite reading that overflows in normalization is a data error
        where it is read, not a NaN inside the network (exit 3)."""
        ckpt, data, cycle = overflowing_case(workspace, tmp_path)
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                     "--mode", "cutoffs", "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("mafn: error:"), err
        assert f"unit 1: sensor 7 reads 1e+308 at cycle {cycle}, too far outside its training range" in err[0]

    def test_data_without_engines_names_that_alone(self, workspace, tmp_path):
        """A data file of blank lines holds no engine: one error line says
        so, where nine "every truncation shorter than the window" warnings
        and "no engine long enough at any cutoff" were printed before.  A
        fresh interpreter, so that the warnings reach stderr as they would."""
        data = tmp_path / "empty.txt"
        data.write_text("\n  \n")
        src = str(Path(mafn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mafn.cli", "evaluate", "--checkpoint", str(workspace / "run1" / "model.ckpt"),
             "--data", str(data), "--mode", "cutoffs", "--out", str(tmp_path / "eval")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["mafn: error: no engine to evaluate: the data holds no engine records"]
        assert not (tmp_path / "eval").exists()

    def test_truncated_checkpoint_clean_error(self, workspace, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((workspace / "run1" / "model.ckpt").read_bytes()[:501])
        code = main(
            [
                "evaluate", "--checkpoint", str(cut),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--mode", "cutoffs", "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_invalid_checkpoint_config_clean_error(self, workspace, tmp_path, capsys):
        blob = (workspace / "run1" / "model.ckpt").read_bytes()
        assert blob.count(b'"rul_cap":125.0') == 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob.replace(b'"rul_cap":125.0', b'"rul_cap":1e999'))   # same length, parses as inf
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate", "--checkpoint", str(bad),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--mode", "cutoffs", "--out", str(out),
            ]
        )
        assert code == 2
        assert "rul_cap must be finite" in capsys.readouterr().err
        assert not (out / "evaluation_cutoffs.csv").exists()

    @pytest.mark.parametrize("old, new, field", [
        (b'"window":12', b'"window":12.5', "config field window"),
        (b'"pad_short":false', b'"pad_short":"no"', "config field pad_short"),
        (b'"k":2', b'"k":true', "cluster.k"),
        (b'"sensor_ids":[2', b'"sensor_ids":[2.0', "sensor_ids"),
    ])
    def test_mistyped_header_value_clean_error(self, workspace, tmp_path, capsys, old, new, field):
        """Each header value must be of its field's type, as in a config
        file: a fractional window or a string for a bool names its field."""
        blob = (workspace / "run1" / "model.ckpt").read_bytes()
        start = len(MAGIC) + 4
        (hlen,) = struct.unpack("<Q", blob[start:start + 8])
        header = blob[start + 8:start + 8 + hlen]
        assert header.count(old) == 1
        header = header.replace(old, new)
        bad = tmp_path / "typed.ckpt"
        bad.write_bytes(blob[:start] + struct.pack("<Q", len(header)) + header + blob[start + 8 + hlen:])
        code = main(
            [
                "evaluate", "--checkpoint", str(bad),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--mode", "cutoffs", "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("mafn: error:") and field in err[0], err

    def test_cutoffs_schema(self, workspace, tmp_path):
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate", "--checkpoint", str(workspace / "run1" / "model.ckpt"),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--mode", "cutoffs", "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "evaluation_cutoffs.csv").read_text().strip().split("\n")
        assert lines[0] == "cutoff_pct,rmse,re,score"
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 4
            float(parts[1]), float(parts[2]), float(parts[3])

    def test_testset_schema(self, workspace, tmp_path):
        rul_path = tmp_path / "rul.txt"
        rul_path.write_text("".join("20\n" for _ in range(5)))
        out = tmp_path / "eval2"
        code = main(
            [
                "evaluate", "--checkpoint", str(workspace / "run1" / "model.ckpt"),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--mode", "testset", "--rul", str(rul_path), "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "evaluation_testset.csv").read_text().strip().split("\n")
        assert lines[0] == "rmse,score"
        assert len(lines) == 2

    def test_testset_short_engine_fails_whole(self, workspace, tmp_path, capsys):
        """A test engine shorter than the window fails the run: none is
        dropped, so every prediction stays paired with its RUL line."""
        records = parse_cmapss(workspace / "data" / "synthetic_train.txt")
        records[2] = replace(records[2], op_settings=records[2].op_settings[:10], sensors=records[2].sensors[:10])
        data = tmp_path / "test.txt"
        write_cmapss(records, data)
        rul_path = tmp_path / "rul.txt"
        rul_path.write_text("".join("20\n" for _ in records))
        out = tmp_path / "eval" / "testset"
        code = main(
            [
                "evaluate", "--checkpoint", str(workspace / "run1" / "model.ckpt"), "--data", str(data),
                "--mode", "testset", "--rul", str(rul_path), "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("mafn: error: "), err
        assert f"unit {records[2].unit_id}: history of 10 cycles is shorter than the window (12)" in err[0]
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_testset_non_finite_rul_clean_error(self, workspace, tmp_path, capsys, token):
        rul_path = tmp_path / "rul.txt"
        rul_path.write_text(f"20\n20\n{token}\n20\n20\n")
        out = tmp_path / "eval3"
        code = main(
            [
                "evaluate", "--checkpoint", str(workspace / "run1" / "model.ckpt"),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--mode", "testset", "--rul", str(rul_path), "--out", str(out),
            ]
        )
        assert code == 2
        assert "rul.txt:3: non-finite" in capsys.readouterr().err
        assert not (out / "evaluation_testset.csv").exists()

    def test_testset_negative_rul_clean_error(self, workspace, tmp_path, capsys):
        rul_path = tmp_path / "rul.txt"
        rul_path.write_text("20\n20\n-40\n20\n20\n")
        out = tmp_path / "eval3"
        code = main(
            [
                "evaluate", "--checkpoint", str(workspace / "run1" / "model.ckpt"),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--mode", "testset", "--rul", str(rul_path), "--out", str(out),
            ]
        )
        assert code == 2
        assert "rul.txt:3: negative value -40.0" in capsys.readouterr().err
        assert not (out / "evaluation_testset.csv").exists()


def rewrite_checkpoint(path, out, edit):
    """The checkpoint at ``path`` with its header and arrays passed through
    ``edit(header, arrays)``, written to ``out`` with a valid length prefix
    and each array's shape taken from the edited array."""
    blob = Path(path).read_bytes()
    start = len(MAGIC) + 4
    (hlen,) = struct.unpack("<Q", blob[start:start + 8])
    header = json.loads(blob[start + 8:start + 8 + hlen])
    arrays, offset = {}, start + 8 + hlen
    for meta in header["arrays"]:
        n = int(np.prod(meta["shape"]))
        arrays[meta["name"]] = np.frombuffer(blob, "<f8", n, offset).reshape(meta["shape"])
        offset += 8 * n
    edit(header, arrays)
    header["arrays"] = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()]
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = b"".join(np.ascontiguousarray(arr, "<f8").tobytes() for arr in arrays.values())
    Path(out).write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(text)) + text + body)
    return out


def _set_first_sensor_id(value):
    def edit(header, arrays):
        header["sensor_ids"][0] = value
    return edit


# parts of a checkpoint that disagree with each other; each escaped
# ``mafn evaluate`` as a traceback: an IndexError in assign_states, a
# broadcast ValueError in normalization, a tuple.index ValueError
DISAGREEING_CHECKPOINTS = {
    "k centroids of one value": lambda header, arrays: arrays.update(
        {"cluster.centroids": arrays["cluster.centroids"][:, 0]}),
    "3 normalization bounds": lambda header, arrays: arrays.update(
        {"stats.mins": arrays["stats.mins"][:3], "stats.maxs": arrays["stats.maxs"][:3]}),
    "sensor id 99": _set_first_sensor_id(99),
    "sensor id 0": _set_first_sensor_id(0),
}


class TestDisagreeingCheckpoint:
    @pytest.mark.parametrize("case", sorted(DISAGREEING_CHECKPOINTS))
    def test_clean_error(self, workspace, tmp_path, capsys, case):
        ckpt = rewrite_checkpoint(workspace / "run1" / "model.ckpt", tmp_path / "bad.ckpt",
                                  DISAGREEING_CHECKPOINTS[case])
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", str(ckpt),
                     "--data", str(workspace / "data" / "synthetic_train.txt"),
                     "--mode", "cutoffs", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("mafn: error:"), err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [99, 0])
    def test_sensor_id_rejected_before_the_data(self, workspace, tmp_path, capsys, value):
        ckpt = rewrite_checkpoint(workspace / "run1" / "model.ckpt", tmp_path / "bad.ckpt",
                                  _set_first_sensor_id(value))
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(tmp_path / "absent.txt"),
                     "--mode", "cutoffs", "--out", str(tmp_path / "eval")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"sensor_ids [{value}," in err and "absent.txt" not in err, err

    def test_unchanged_rewrite_is_byte_identical(self, workspace, tmp_path):
        ckpt = workspace / "run1" / "model.ckpt"
        copy = rewrite_checkpoint(ckpt, tmp_path / "copy.ckpt", lambda header, arrays: None)
        assert copy.read_bytes() == ckpt.read_bytes()


def mutate(blob: bytes, kind: str, *args) -> bytes:
    """``blob``, a checkpoint's bytes, damaged one way: truncated at a
    position, a tail appended, one bit of the magic, version, length prefix
    or JSON header flipped, the length prefix replaced, or one array
    dimension in the header replaced under a matching length prefix."""
    start = len(MAGIC) + 4                          # the length prefix
    (hlen,) = struct.unpack("<Q", blob[start:start + 8])
    body = start + 8 + hlen
    if kind == "truncated":
        return blob[:args[0] % len(blob)]
    if kind == "appended":
        return blob + args[0]
    if kind == "header bit flipped":
        at = args[0] % body
        return blob[:at] + bytes([blob[at] ^ 1 << args[1]]) + blob[at + 1:]
    if kind == "length prefix":
        return blob[:start] + struct.pack("<Q", args[0]) + blob[start + 8:]
    assert kind == "array dimension"

    def edit(header):
        meta = header["arrays"][args[0] % len(header["arrays"])]
        meta["shape"][args[1] % len(meta["shape"])] = args[2]
    return with_header(blob, edit)


MUTATIONS = st.one_of(
    st.tuples(st.just("truncated"), st.integers(0, 10**6)),
    st.tuples(st.just("appended"),
              st.sampled_from([1, 8, 800]).flatmap(lambda n: st.binary(min_size=n, max_size=n))),
    st.tuples(st.just("header bit flipped"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(st.just("length prefix"), st.integers(2**44, 2**64 - 1)),
    st.tuples(st.just("array dimension"), st.integers(0, 100), st.integers(0, 1), st.integers(2**44, 2**70)),
)


@settings(max_examples=60, deadline=None)
@given(mutation=MUTATIONS, command=st.sampled_from(["forecast", "evaluate"]))
def test_mutated_checkpoint_loads_or_fails_cleanly(workspace, mutation, command):
    """A damaged checkpoint exits 0 or 2 through ``main`` with at most one
    ``mafn:`` line and no traceback.  Only a header bit flip may leave a
    loadable file; every other mutation breaks the layout and exits 2."""
    blob = mutate((workspace / "run1" / "model.ckpt").read_bytes(), *mutation)
    extra = (["--mode", "cutoffs"] if command == "evaluate"
             else ["--unit", "2", "--cutoff", "0.7", "--sensor", "7"])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "mutated.ckpt"
        ckpt.write_bytes(blob)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--checkpoint", str(ckpt),
                         "--data", str(workspace / "data" / "synthetic_train.txt"),
                         *extra, "--out", str(Path(tmp) / "out")])
    text = out.getvalue() + err.getvalue()
    assert "Traceback" not in text, text
    assert sum(line.startswith("mafn:") for line in err.getvalue().splitlines()) <= 1, text
    assert code in ((0, 2) if mutation[0] == "header bit flipped" else (2,)), (code, text)


NON_FINITE_CHECKPOINTS = {
    # each loaded once: nan scored nan rows, inf clamped every prediction,
    # a nan normalization bound failed deep in the forward with exit 3
    "nan rul bias": ("param.rul.out.b", np.nan),
    "inf rul bias": ("param.rul.out.b", np.inf),
    "nan stats max": ("stats.maxs", np.nan),
}


class TestNonFiniteCheckpoint:
    @staticmethod
    def _poisoned(workspace, tmp_path, array, value):
        bundle = load_checkpoint(workspace / "run1" / "model.ckpt")
        if array == "stats.maxs":
            maxs = bundle.stats.maxs.copy()
            maxs[0] = value
            bundle = replace(bundle, stats=replace(bundle.stats, maxs=maxs))
        else:
            params = dict(bundle.params)
            params[array[len("param."):]] = np.full_like(params[array[len("param."):]], value)
            bundle = replace(bundle, params=params)
        path = tmp_path / "poisoned.ckpt"
        save_checkpoint(bundle, path)
        return path

    @pytest.mark.parametrize("command", ["evaluate", "forecast"])
    @pytest.mark.parametrize("case", sorted(NON_FINITE_CHECKPOINTS))
    def test_rejected_at_load(self, workspace, tmp_path, capsys, command, case):
        array, value = NON_FINITE_CHECKPOINTS[case]
        ckpt = self._poisoned(workspace, tmp_path, array, value)
        out = tmp_path / "out"
        extra = (["--mode", "cutoffs"] if command == "evaluate"
                 else ["--unit", "2", "--cutoff", "0.7", "--sensor", "7"])
        code = main([command, "--checkpoint", str(ckpt),
                     "--data", str(workspace / "data" / "synthetic_train.txt"),
                     *extra, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("mafn: error:") and array in err[0]
        assert not out.exists()


def _cluster_edits():
    """Each edit of run1's settings cluster (k 2, three columns) and config,
    and what the loader names.  Each loaded once: a third centroid that no
    point is nearest to scored, one that state 0's points are nearest to
    failed in ``embed_beside``, and the rest failed in ``assign_states`` or
    ``state_features``, all after the data was parsed."""
    def extra_centroid(where):
        def edit(bundle):
            c = bundle.cluster.centroids
            far = c[:1] + 1e6
            rows = [c, far] if where == "unused" else [far, c[1:], c[:1]]
            return replace(bundle, cluster=replace(bundle.cluster, k=3, centroids=np.vstack(rows)))
        return edit

    def cluster(**fields):
        return lambda bundle: replace(bundle, cluster=replace(bundle.cluster, **fields))

    def widened(bundle):
        c = bundle.cluster.centroids
        return replace(bundle, cluster=replace(bundle.cluster, centroids=np.hstack([c, c[:, :1]])))

    def sensors_config(bundle):
        return replace(bundle, config=replace(bundle.config, cluster_features="sensors"),
                       cluster=replace(bundle.cluster, feature_spec="sensors"))

    return {
        "unused third centroid": (extra_centroid("unused"), "cluster k 3 does not match the config's 2"),
        "third centroid on a state": (extra_centroid("state"), "cluster k 3 does not match the config's 2"),
        "sensors on a settings cluster": (cluster(feature_spec="sensors"),
                                          "cluster feature_spec 'sensors' does not match the config's 'settings'"),
        "unknown feature_spec": (cluster(feature_spec="bogus"),
                                 "cluster feature_spec 'bogus' does not match the config's 'settings'"),
        "four settings columns": (widened, "cluster centroid width 4 does not match the config's 3"),
        "settings columns under sensors": (sensors_config, "cluster centroid width 3 does not match the config's 11"),
    }


class TestCheckpointClusterAgreesWithConfig:
    @pytest.mark.parametrize("command", ["evaluate", "forecast"])
    @pytest.mark.parametrize("case", sorted(_cluster_edits()))
    def test_refused_before_the_data_is_read(self, workspace, tmp_path, capsys, command, case):
        """The loader refuses the checkpoint with exit 2, naming the file,
        before it opens the data: the data path here does not exist."""
        edit, message = _cluster_edits()[case]
        ckpt = tmp_path / "edited.ckpt"
        save_checkpoint(edit(load_checkpoint(workspace / "run1" / "model.ckpt")), ckpt)
        extra = (["--mode", "cutoffs"] if command == "evaluate"
                 else ["--unit", "2", "--cutoff", "0.7", "--sensor", "7"])
        out = tmp_path / "out"
        code = main([command, "--checkpoint", str(ckpt), "--data", str(tmp_path / "absent.txt"),
                     *extra, "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(err) == 1, err
        assert err[0].startswith(f"mafn: error: {ckpt}: checkpoint header: ") and message in err[0]
        assert not out.exists()


class TestForecastCommand:
    def test_svg_and_csv(self, workspace, tmp_path):
        out = tmp_path / "fc"
        code = main(
            [
                "forecast", "--checkpoint", str(workspace / "run1" / "model.ckpt"),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--unit", "2", "--cutoff", "0.7", "--sensor", "7", "--out", str(out),
            ]
        )
        assert code == 0
        svg = next(out.glob("*.svg"))
        tree = ET.parse(svg)                      # well-formed XML
        assert tree.getroot().tag.endswith("svg")
        text = svg.read_text()
        assert text.count("polyline") >= 3        # history, forecast, truth
        assert text.count("stroke-dasharray") >= 2  # two TTF markers

        csv_path = next(out.glob("*.csv"))
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "cycle,history,forecast,truth"
        # rows = truncated history length + horizon (cutoff 0.7 of this unit)
        truth = json.loads((workspace / "data" / "truth.json").read_text())
        life = next(e["length"] for e in truth["engines"] if e["unit_id"] == 2)
        assert len(lines) - 1 == int(0.7 * life) + 3

    def test_unknown_unit_lists_available(self, workspace, tmp_path, capsys):
        code = main(
            [
                "forecast", "--checkpoint", str(workspace / "run1" / "model.ckpt"),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--unit", "99", "--cutoff", "0.7", "--sensor", "7", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "available" in capsys.readouterr().err

    def test_excessive_cutoff_clean_error(self, workspace, tmp_path):
        code = main(
            [
                "forecast", "--checkpoint", str(workspace / "run1" / "model.ckpt"),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--unit", "2", "--cutoff", "0.05", "--sensor", "7", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    @staticmethod
    def _pad_short_checkpoint(workspace, tmp_path):
        bundle = load_checkpoint(workspace / "run1" / "model.ckpt")
        path = tmp_path / "pad.ckpt"
        save_checkpoint(replace(bundle, config=replace(bundle.config, pad_short=True)), path)
        return path

    def test_short_cutoff_padded_with_pad_short(self, workspace, tmp_path):
        out = tmp_path / "fc"
        code = main(
            [
                "forecast", "--checkpoint", str(self._pad_short_checkpoint(workspace, tmp_path)),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--unit", "2", "--cutoff", "0.05", "--sensor", "7", "--out", str(out),
            ]
        )
        assert code == 0
        truth = json.loads((workspace / "data" / "truth.json").read_text())
        life = next(e["length"] for e in truth["engines"] if e["unit_id"] == 2)
        cut = int(0.05 * life)
        assert 1 <= cut < 12                      # shorter than the smoke window
        rows = (out / "forecast_unit2_sensor7.csv").read_text().strip().split("\n")[1:]
        history = [r for r in rows if r.split(",")[1]]
        forecast = [r for r in rows if r.split(",")[2]]
        assert len(history) == cut and len(forecast) == 3 and len(rows) == cut + 3
        ET.parse(out / "forecast_unit2_sensor7.svg")

    @staticmethod
    def _subset_checkpoint(workspace, tmp_path):
        """run1's checkpoint with its stats cut to sensors (2, 3, 4) and
        parameters sized for three sensors."""
        bundle = load_checkpoint(workspace / "run1" / "model.ckpt")
        keep = [bundle.stats.sensor_ids.index(s) for s in (2, 3, 4)]
        stats = NormalizationStats((2, 3, 4), bundle.stats.mins[keep], bundle.stats.maxs[keep])
        params = MafnModel(bundle.config, 3, np.random.default_rng(0)).state_arrays()
        path = tmp_path / "subset.ckpt"
        save_checkpoint(replace(bundle, stats=stats, params=params), path)
        return path

    @pytest.mark.parametrize("checkpoint, unit, cutoff, sensor", [
        (False, 1, 0.5, 2), (False, 3, 0.9, 21), (False, 5, 0.7, 11),
        (True, 2, 0.05, 7), (True, 4, 0.15, 15),   # 2 and 6-8 cycles: shorter than the window
        ("subset", 2, 0.5, 3),
    ])
    def test_forecast_column_is_the_model_output(self, workspace, tmp_path, checkpoint, unit, cutoff, sensor):
        """The CSV's forecast column prints the model's normalized forecast
        on the window ``prepare_window`` cuts, with no conversion between;
        its history and truth columns are the record normalized in the
        checkpoint's own sensors.  ``checkpoint`` is run1's (False), run1's
        with ``pad_short`` (True), or run1's cut to three sensors."""
        ckpt = (self._subset_checkpoint(workspace, tmp_path) if checkpoint == "subset"
                else self._pad_short_checkpoint(workspace, tmp_path) if checkpoint
                else workspace / "run1" / "model.ckpt")
        data = workspace / "data" / "synthetic_train.txt"
        out = tmp_path / "fc"
        assert main(["forecast", "--checkpoint", str(ckpt), "--data", str(data), "--unit", str(unit),
                     "--cutoff", str(cutoff), "--sensor", str(sensor), "--out", str(out)]) == 0
        model, prep = load_predictor(ckpt)
        record = next(r for r in parse_cmapss(data) if r.unit_id == unit)
        truncated, _ = truncate_at_fraction(record, cutoff)
        assert (truncated.length < prep.config.window) == prep.config.pad_short
        inputs, states = prepare_window(truncated, prep)
        with T.no_grad():
            forecast = model.forward(inputs[None], states[None]).forecast.data[0]
        col = prep.stats.sensor_ids.index(sensor)
        rows = (out / f"forecast_unit{unit}_sensor{sensor}.csv").read_text().splitlines()[1:]
        history, column, truth = ([row.split(",")[i] for row in rows if row.split(",")[i]] for i in (1, 2, 3))
        assert column == [format(v, ".6f") for v in forecast[:, col]]
        cols = [s - 1 for s in prep.stats.sensor_ids]
        seen = normalize_values(record.sensors[:, cols], prep.stats)[:, col]
        cut = truncated.length
        assert history == [format(v, ".6f") for v in seen[:cut]]
        assert truth == [format(v, ".6f") for v in seen[cut:cut + prep.config.horizon]]

    def test_overflowing_truth_fails_with_one_line(self, workspace, tmp_path, capsys):
        """A finite reading past the window normalizes to inf in the plotted
        truth: the command exits 2 on the reading alone, with no numpy
        warning from the normalization (pytest makes one an exception)."""
        ckpt, data, cycle = overflowing_case(workspace, tmp_path)
        code = main(["forecast", "--checkpoint", str(ckpt), "--data", str(data),
                     "--unit", "1", "--cutoff", "0.5", "--sensor", "7", "--out", str(tmp_path / "fc")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(err) == 1 and f"unit 1: sensor 7 reads 1e+308 at cycle {cycle}," in err[0]

    def test_empty_cutoff_rejected_with_pad_short(self, workspace, tmp_path, capsys):
        out = tmp_path / "fc"
        code = main(
            [
                "forecast", "--checkpoint", str(self._pad_short_checkpoint(workspace, tmp_path)),
                "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--unit", "2", "--cutoff", "0.01", "--sensor", "7", "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("mafn: error:")
        assert "cutoff 0.01: unit 2: history of 0 cycles; pad_short needs at least 1 cycle" in err[0]
        assert not out.exists()


class TestClusterCommand:
    def test_blob_recovery(self, workspace, tmp_path):
        out = tmp_path / "cl"
        code = main(
            [
                "cluster", "--data", str(workspace / "data" / "synthetic_train.txt"),
                "--config", str(workspace / "smoke.cfg"), "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "clusters.csv").read_text().strip().split("\n")
        assert len(lines) == 3                    # header + 2 clusters
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert all(c > 0 for c in counts)
        model = json.loads((out / "cluster.json").read_text())
        assert model["k"] == 2

    def test_far_out_setting_prints_no_raw_warning(self, workspace, tmp_path):
        """One operational setting at 1e200 squares to +inf in every distance
        to it.  Both commands fit it as its own one-cycle cluster and exit 0,
        with nothing from numpy on stderr; each printed ``cluster.py:71:
        RuntimeWarning: overflow encountered in multiply`` before."""
        rows = (workspace / "data" / "synthetic_train.txt").read_text().splitlines()
        fields = rows[30].split()
        fields[2] = "1e200"
        rows[30] = " ".join(fields)
        data = tmp_path / "far.txt"
        data.write_text("\n".join(rows) + "\n")
        src = str(Path(mafn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for command in ("cluster", "train"):
            proc = subprocess.run(
                [sys.executable, "-m", "mafn.cli", command, "--data", str(data),
                 "--config", str(workspace / "smoke.cfg"), "--out", str(tmp_path / command)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            assert "Warning" not in proc.stderr, proc.stderr
        counts = [int(line.split(",")[1]) for line in (tmp_path / "cluster" / "clusters.csv").read_text().split()[1:]]
        assert sorted(counts) == [1, len(rows) - 1]


def fresh_python(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this mafn."""
    src = str(Path(mafn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("first", ["mafn.checkpoint", "mafn.model", "mafn.pipeline", "mafn.training"])
def test_library_modules_do_not_load_the_cli(first):
    """Imported first in a fresh interpreter, each library module loads
    the others without an import cycle and without the CLI."""
    code = (f"import sys, {first}, mafn.checkpoint, mafn.model, mafn.pipeline, mafn.training; "
            "print('mafn.cli' in sys.modules)")
    assert fresh_python(code) == "False"


def test_cli_import_loads_no_network_modules():
    """No command needs either module; ``xml.sax.saxutils``, imported for
    the SVG labels' ``escape``, pulled both in at every start-up."""
    code = "import sys, mafn.cli; print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))"
    assert fresh_python(code) == "[]"


def test_config_import_loads_no_autodiff():
    """``TrainConfig.validate`` checks the loss settings itself, so reading
    a config loads neither the losses nor the tensor tape."""
    code = "import sys, mafn.config; print(sorted({'mafn.losses', 'mafn.tensor'} & set(sys.modules)))"
    assert fresh_python(code) == "[]"


def test_cli_leaves_the_training_pipeline_to_the_library():
    """``mafn train`` parses, calls ``pipeline.train_run`` and writes; the
    steps between are the library's.  ``fit_pipeline`` stays: it is all of
    ``mafn cluster``'s library work."""
    names = {"split_by_engine", "pack_windows", "windows_for_records", "train", "CheckpointBundle"}
    assert fresh_python(f"import mafn.cli; print(sorted({names!r} & set(vars(mafn.cli))))") == "[]"


def test_cli_reads_records_through_normalize_record():
    """``mafn forecast`` plots its history and truth as ``normalize_record``
    gives them, the path that training and scoring read through."""
    names = {"normalize_values"}
    assert fresh_python(f"import mafn.cli; print(sorted({names!r} & set(vars(mafn.cli))))") == "[]"


class TestSvgDeterminism:
    def test_identical_inputs_identical_bytes(self):
        def build():
            chart = LineChart("t", "x", "y")
            chart.add_series("a", [0, 1, 2], [1.0, 4.0, 2.0], "#112233")
            chart.add_vline(1.5, "marker", "#445566")
            return chart.render()

        assert build() == build()

    @pytest.mark.parametrize("ys", [[0.0, 1e300, 0.5], [1e300, 1e300, 1e300]])
    def test_huge_finite_span_renders(self, ys):
        """A 1e300 span, or none at 1e300, ticks and places points without
        overflow or an endless tick loop: no RuntimeWarning, no inf or nan
        coordinate."""
        chart = LineChart("t", "x", "y")
        chart.add_series("a", [1, 2, 3], ys, "#000000")
        text = chart.render()
        ET.fromstring(text)
        assert "inf" not in text and "nan" not in text and ">1e+300<" in text

    def test_span_past_the_largest_float_rejected(self):
        chart = LineChart("t", "x", "y")
        chart.add_series("a", [1, 2], [-1e308, 1e308], "#000000")
        with pytest.raises(ContractError, match="span .* is not finite"):
            chart.render()

    @pytest.mark.parametrize("xs,ys", [([1, 2, 3], [0.0, np.nan, 1.0]), ([1, np.nan, 3], [0.0, 0.5, 1.0])])
    def test_nan_in_series_rejected(self, xs, ys):
        """``min`` and ``max`` pass over a NaN that is not first, so it would
        reach the markup as a ``nan`` coordinate."""
        chart = LineChart("t", "x", "y")
        with pytest.raises(ContractError, match="series 'history' has a NaN value"):
            chart.add_series("history", xs, ys, "#000000")

    def test_nan_vline_rejected(self):
        chart = LineChart("t", "x", "y")
        chart.add_series("a", [1, 2], [0.0, 1.0], "#000000")
        with pytest.raises(ContractError, match="line 'cutoff' is at NaN"):
            chart.add_vline(np.nan, "cutoff", "#000000")

    @given(lo=st.floats(-1e6, -1e-6), hi=st.floats(1e-6, 1e6))
    @example(lo=-0.1, hi=1.0)
    def test_no_negative_zero_tick(self, lo, hi):
        """A span across zero ticks 0 as ``0``: ``np.ceil`` of a small negative
        quotient is -0.0, which ``:g`` prints as ``-0``."""
        ticks = _nice_ticks(lo, hi)
        assert not any(t == 0 and np.signbit(t) for t in ticks), ticks
        chart = LineChart("t", "x", "y")
        chart.add_series("a", [1, 2], [lo, hi], "#000000")
        assert ">-0<" not in chart.render()

    def test_escapes_labels(self):
        chart = LineChart("a < b & c", "x", "y")
        chart.add_series("s<1>", [0, 1], [0, 1], "#000000")
        text = chart.render()
        ET.fromstring(text)
        assert "a &lt; b &amp; c" in text
