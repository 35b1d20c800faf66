import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mafn
from mafn import cli
from mafn.checkpoint import load_checkpoint, save_checkpoint
from mafn.cli import main
from mafn.config import (
    MAX_ARRAY_VALUES,
    TrainConfig,
    default_config_text,
    load_config,
    model_sizes,
    parse_config_text,
)
from mafn.errors import ContractError, DataError
from mafn.model import MafnModel
from mafn.svgplot import LineChart


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
# or failed mid-training, beta1 = 1.5 and adam_eps = -1 trained
BAD_CONFIG_LINES = [
    "rul_cap = inf", "grad_clip = nan", "learning_rate = nan", "lambda_smooth = nan",
    "adam_eps = -inf", "adam_eps = 0", "adam_eps = -1", "beta1 = 1.5", "beta1 = -0.1", "beta2 = 1.0",
    "seed = -1",
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
        assert parse_config_text(default_config_text()) == TrainConfig()

    def test_config_init_roundtrip(self, tmp_path):
        path = tmp_path / "mafn.cfg"
        assert main(["config", "init", "--out", str(path)]) == 0
        assert load_config(path) == TrainConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown config key"):
            parse_config_text("no_such_knob = 3")

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
            parse_config_text("lambda_late = 1.0\nlambda_early = 2.0").validate()

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
        assert max(params, activation) * 100 < MAX_ARRAY_VALUES

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
PATH_KINDS = ("missing", "dir", "file", "bad-data", "good")
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
    def test_any_path_fails_cleanly(self, workspace, case):
        """Every path argument of every command, given a missing path, a
        directory, an existing file, a data file with a bad token or a good
        path: a failure exits 1, 2 or 3 with one ``mafn:`` line on stderr,
        and leaves no directory it made."""
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
                        "file": tmp / "a_file", "bad-data": tmp / "bad.txt", "good": good[flag]}[kind]
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


class TestEvaluateCommand:
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
        assert "leaves 0 cycles" in capsys.readouterr().err
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


def test_library_modules_do_not_load_the_cli():
    src = str(Path(mafn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, mafn.pipeline, mafn.training, mafn.model; print('mafn.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestSvgDeterminism:
    def test_identical_inputs_identical_bytes(self):
        def build():
            chart = LineChart("t", "x", "y")
            chart.add_series("a", [0, 1, 2], [1.0, 4.0, 2.0], "#112233")
            chart.add_vline(1.5, "marker", "#445566")
            return chart.render()

        assert build() == build()

    def test_escapes_labels(self):
        chart = LineChart("a < b & c", "x", "y")
        chart.add_series("s<1>", [0, 1], [0, 1], "#000000")
        text = chart.render()
        ET.fromstring(text)
        assert "a &lt; b &amp; c" in text
