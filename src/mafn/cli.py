"""Command-line entry point: cluster, train, evaluate, forecast, synthesize,
and config subcommands.

Exit codes: 0 success, 1 usage error, 2 data/contract error, 3 numeric
failure.  Every command that writes an output directory drops exactly one
``manifest.json`` recording the config snapshot, input file hashes, seed,
and artifact list; re-running with an identical manifest reproduces the
artifacts byte for byte.  A command that fails removes the files it wrote
and every directory it made; files it did not write are never touched.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import signal
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import save_checkpoint
from .config import default_config_text, load_config, read_fields
from .cluster import assign_states
from .data import (atomic_write, normalize_record, parse_cmapss, parse_rul_file, state_features,
                   truncate_at_fraction, write_cmapss)
from .errors import ContractError, DataError, MafnError, NumericError
from .model import forecast_trajectory
from .pipeline import fit_pipeline, load_predictor, train_run
from .svgplot import LineChart
from .synthetic import SynthSpec, default_synth_spec_text, generate, write_truth
from .training import evaluate_cutoffs, evaluate_testset, format_log_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_text(text: str, path):
    with atomic_write(path) as fh:
        fh.write(text)


class _OutDir:
    """The ``--out`` directory of one run: the directories the run made and
    the files it wrote, which the manifest lists and a failed run removes."""

    def __init__(self, path):
        self.path = Path(path)
        self.made = []                          # directories this run made, outermost first
        self.names = []                         # files this run wrote, each once it is in place

    def make(self):
        """Make the directory and its missing parents, each recorded as it is
        made, so that ``undo`` removes them after a failure part way."""
        for path in reversed((self.path, *self.path.parents)):
            if not path.is_dir():
                path.mkdir()
                self.made.append(path)

    def write(self, name: str, content, writer=_write_text) -> Path:
        """``writer(content, path)`` writes the file ``name``, then it joins the record."""
        path = self.path / name
        writer(content, path)
        self.names.append(name)
        return path

    def undo(self):
        for name in self.names:
            with contextlib.suppress(OSError):
                (self.path / name).unlink()
        for path in reversed(self.made):
            with contextlib.suppress(OSError):  # not empty: it holds files this run did not write
                path.rmdir()


def _write_manifest(out: _OutDir, command: str, spec, data_files):
    """``spec`` is the TrainConfig or SynthSpec the command ran with."""
    manifest = {
        "tool_version": __version__,
        "command": command,
        "seed": spec.seed,
        "config": dataclasses.asdict(spec),
        "data_files": {str(p): _sha256(p) for p in data_files},
        "artifacts": sorted(out.names),
    }
    out.write("manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


# -- subcommands --------------------------------------------------------------------


def _emit_text(text: str, out) -> int:
    if out:
        _write_text(text, out)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_config(args) -> int:
    return _emit_text(default_config_text(), args.out)


def cmd_cluster(args) -> int:
    cfg = load_config(args.config, args.seed)
    records = parse_cmapss(args.data)
    model, _, normalized = fit_pipeline(records, cfg)
    labels = assign_states(np.concatenate([state_features(r, model.feature_spec) for r in normalized]), model)
    counts = np.bincount(labels, minlength=model.k)
    report_lines = ["cluster,count," + ",".join(f"c{i}" for i in range(model.centroids.shape[1]))]
    for j in range(model.k):
        coords = ",".join(format(v, ".12g") for v in model.centroids[j])
        report_lines.append(f"{j},{counts[j]},{coords}")
    args.out.write("clusters.csv", "\n".join(report_lines) + "\n")
    args.out.write(
        "cluster.json",
        json.dumps(
            {
                "k": model.k,
                "feature_spec": model.feature_spec,
                "inertia": model.inertia,
                "centroids": model.centroids.tolist(),
            },
            sort_keys=True,
        )
        + "\n"
    )
    _write_manifest(args.out, "cluster", cfg, [args.data])
    for j in range(model.k):
        print(f"cluster {j}: {counts[j]} cycles")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    try:
        records = parse_cmapss(args.data)
    except MafnError as e:
        raise type(e)(f"[stage parse] {e}") from e
    bundle, result = train_run(records, cfg, _print_epoch(args))
    try:
        args.out.write("model.ckpt", bundle, save_checkpoint)
        args.out.write("training_log.csv", format_log_csv(result.log_rows))
        _write_manifest(args.out, "train", cfg, [args.data])
    except MafnError as e:
        raise type(e)(f"[stage write] {e}") from e
    print(
        f"trained {result.epochs_run} epochs ({result.stop_reason}); "
        f"best val {result.best_val:.6f} at epoch {result.best_epoch}"
    )
    return 0


def _print_epoch(args):
    if getattr(args, "quiet", False):
        return None

    def emit(row):
        print(
            f"epoch {row['epoch']:4d}  train {row['L_total']:.5f}  val {row['val_total']:.5f}"
        )

    return emit


def cmd_evaluate(args) -> int:
    model, prep = load_predictor(args.checkpoint)
    records = parse_cmapss(args.data)
    if args.mode == "cutoffs":
        rows = evaluate_cutoffs(records, model, prep)
        lines = ["cutoff_pct,rmse,re,score"]
        for pct, r, e, s in rows:
            lines.append(f"{pct:g},{r:.6f},{e:.6f},{s:.6f}")
        path = args.out.write("evaluation_cutoffs.csv", "\n".join(lines) + "\n")
        data_files = [args.data, args.checkpoint]
    else:
        if not args.rul:
            raise ContractError("testset mode needs --rul with the ground-truth file")
        rul_truth = parse_rul_file(args.rul)
        r, s = evaluate_testset(records, rul_truth, model, prep)
        path = args.out.write("evaluation_testset.csv", "rmse,score\n" + f"{r:.6f},{s:.6f}\n")
        data_files = [args.data, args.rul, args.checkpoint]
    _write_manifest(args.out, "evaluate", prep.config, data_files)
    print(f"wrote {path}")
    return 0


def cmd_forecast(args) -> int:
    model, prep = load_predictor(args.checkpoint)
    cfg = prep.config
    records = parse_cmapss(args.data)
    by_unit = {r.unit_id: r for r in records}
    if args.unit not in by_unit:
        raise DataError(
            f"unknown unit {args.unit}; available: {sorted(by_unit)[:20]}{'...' if len(by_unit) > 20 else ''}"
        )
    if args.sensor not in prep.stats.sensor_ids:
        raise DataError(f"sensor {args.sensor} not in selected set {prep.stats.sensor_ids}")
    record = by_unit[args.unit]
    truncated, residual = truncate_at_fraction(record, args.cutoff)
    try:
        forecast, _, predicted_rul = forecast_trajectory(truncated, model, prep)
    except ContractError as e:
        raise ContractError(f"cutoff {args.cutoff:g}: {e}") from e
    cut = truncated.length
    horizon = cfg.horizon
    # history and held-out truth read as prepare_window reads the window
    col = prep.stats.sensor_ids.index(args.sensor)
    seen = normalize_record(record, prep.stats, slice(cut + horizon)).sensors[:, col]
    history, truth = seen[:cut], seen[cut:]

    rows = ["cycle,history,forecast,truth"]
    for t in range(cut):
        rows.append(f"{t + 1},{history[t]:.6f},,")
    for h in range(horizon):
        truth_val = f"{truth[h]:.6f}" if h < len(truth) else ""
        rows.append(f"{cut + h + 1},,{forecast[h, col]:.6f},{truth_val}")
    stem = f"forecast_unit{args.unit}_sensor{args.sensor}"
    args.out.write(f"{stem}.csv", "\n".join(rows) + "\n")

    chart = LineChart(
        title=f"Unit {args.unit}, sensor {args.sensor}: cutoff at {args.cutoff:.0%}",
        xlabel="cycle",
        ylabel=f"sensor {args.sensor} (normalized)",
    )
    chart.add_series("history", range(1, cut + 1), history, "#1f77b4")
    chart.add_series("forecast", range(cut + 1, cut + horizon + 1), forecast[:, col], "#ff7f0e")
    chart.add_series("truth", range(cut + 1, cut + len(truth) + 1), truth, "#2ca02c")  # dropped when empty
    chart.add_vline(cut + predicted_rul, "predicted TTF", "#d62728")
    chart.add_vline(record.length, "true TTF", "#1f77b4")
    args.out.write(f"{stem}.svg", chart.render())
    _write_manifest(args.out, "forecast", cfg, [args.data, args.checkpoint])
    print(f"unit {args.unit}: predicted RUL {predicted_rul:.1f}, true residual {residual}")
    return 0


def cmd_synthesize(args) -> int:
    spec = read_fields(SynthSpec, args.spec, "synthesis")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    records, truth = generate(spec)
    data_path = args.out.write("synthetic_train.txt", records, write_cmapss)
    args.out.write("truth.json", truth, write_truth)
    _write_manifest(args.out, "synthesize", spec, [args.spec] if args.spec else [])
    print(f"wrote {data_path} ({len(records)} engines)")
    return 0


# -- argument wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mafn", description="RUL prognostics with an attention fusion network")
    parser.add_argument("--version", action="version", version=f"mafn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="configuration helpers")
    csub = p.add_subparsers(dest="config_command", required=True)
    ci = csub.add_parser("init", help="write the default config file")
    ci.add_argument("--out", help="destination path (stdout when omitted)")
    ci.set_defaults(func=cmd_config)

    p = sub.add_parser("cluster", help="fit the operational-state clusters")
    p.add_argument("--data", required=True, help="training data file")
    p.add_argument("--config", help="config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="run the full training pipeline")
    p.add_argument("--data", required=True, help="training data file")
    p.add_argument("--config", help="config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="evaluation data file")
    p.add_argument("--mode", choices=("cutoffs", "testset"), required=True)
    p.add_argument("--rul", help="ground-truth RUL file (testset mode)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("forecast", help="plot history, forecast, and truth for one engine")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="run-to-failure data file")
    p.add_argument("--unit", type=int, required=True)
    p.add_argument("--cutoff", type=float, required=True, help="fraction of life observed, in (0,1)")
    p.add_argument("--sensor", type=int, required=True, help="sensor id to plot")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("synthesize", help="generate a synthetic dataset with known truth")
    p.add_argument("--spec", help="synthesis spec file (defaults when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("synth-spec", help="write the default synthesis spec")
    p.add_argument("--out", help="destination path (stdout when omitted)")
    p.set_defaults(func=cmd_synth_spec)

    return parser


def cmd_synth_spec(args) -> int:
    return _emit_text(default_synth_spec_text(), args.out)


# the commands whose --out names a directory
OUT_DIR_COMMANDS = ("cluster", "train", "evaluate", "forecast", "synthesize")


def main(argv=None) -> int:
    parser = build_parser()
    out = None                                  # the --out record of a directory command
    code = 1                                    # until a command returns; an escaping error fails
    def terminate(signum, frame):               # SIGTERM takes Ctrl-C's path, exit code 128 + signum
        raise KeyboardInterrupt(128 + signum)
    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        args = parser.parse_args(argv)
        if args.command in OUT_DIR_COMMANDS:
            args.out = out = _OutDir(args.out)
            out.make()
        code = args.func(args)
    except SystemExit as e:
        code = int(e.code or 0)
    except KeyboardInterrupt as e:
        print("mafn: interrupted", file=sys.stderr)
        code = e.args[0] if e.args else 130
    except NumericError as e:
        print(f"mafn: numeric failure: {e}", file=sys.stderr)
        code = 3
    except (MafnError, OSError) as e:           # OSError: a path missing or of the wrong kind
        print(f"mafn: error: {e}", file=sys.stderr)
        code = 2
    finally:
        if code and out is not None:            # a failed run leaves nothing of its own
            out.undo()
        signal.signal(signal.SIGTERM, previous)
    return code


if __name__ == "__main__":
    sys.exit(main())
