"""Command-line entry point: cluster, train, evaluate, forecast, synthesize,
and config subcommands.

Exit codes: 0 success, 1 usage error, 2 data/contract error, 3 numeric
failure.  Every command that writes an output directory drops exactly one
``manifest.json`` recording the config snapshot, input file hashes, seed,
and artifact list; re-running with an identical manifest reproduces the
artifacts byte for byte.  A command that fails removes the output directory
it made, and the parents it made, while they are empty.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import CheckpointBundle, load_checkpoint, save_checkpoint
from .config import default_config_text, load_config, read_fields
from .data import (
    atomic_write,
    normalize_record,
    normalize_values,
    pack_windows,
    parse_cmapss,
    parse_rul_file,
    record_states,
    select_sensors,
    split_by_engine,
    truncate_at_fraction,
    write_cmapss,
)
from .errors import ContractError, DataError, MafnError, NumericError
from .model import forecast_trajectory, min_history, predict_rul
from .pipeline import fit_pipeline, load_predictor, windows_for_records
from .svgplot import LineChart
from .synthetic import SynthSpec, default_synth_spec_text, generate, write_truth
from .training import evaluate_cutoffs, evaluate_testset, format_log_csv, train


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


def _write_text(path, text: str):
    with atomic_write(path) as fh:
        fh.write(text)


def _write_manifest(out_dir: Path, command: str, spec, data_files, artifacts):
    """``spec`` is the TrainConfig or SynthSpec the command ran with."""
    manifest = {
        "tool_version": __version__,
        "command": command,
        "seed": spec.seed,
        "config": dataclasses.asdict(spec),
        "data_files": {str(p): _sha256(p) for p in data_files},
        "artifacts": sorted(str(a) for a in artifacts),
    }
    path = out_dir / "manifest.json"
    with atomic_write(path) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _prepare_out(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands --------------------------------------------------------------------


def _emit_text(text: str, out) -> int:
    if out:
        _write_text(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_config(args) -> int:
    return _emit_text(default_config_text(), args.out)


def cmd_cluster(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = _prepare_out(args.out)
    records = parse_cmapss(args.data)
    model, _, normalized = fit_pipeline(records, cfg)
    labels = np.concatenate([record_states(r, model) for r in normalized])
    counts = np.bincount(labels, minlength=model.k)
    report_lines = ["cluster,count," + ",".join(f"c{i}" for i in range(model.centroids.shape[1]))]
    for j in range(model.k):
        coords = ",".join(format(v, ".12g") for v in model.centroids[j])
        report_lines.append(f"{j},{counts[j]},{coords}")
    report_path = out / "clusters.csv"
    _write_text(report_path, "\n".join(report_lines) + "\n")
    model_path = out / "cluster.json"
    _write_text(
        model_path,
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
    _write_manifest(out, "cluster", cfg, [args.data], [report_path.name, model_path.name])
    for j in range(model.k):
        print(f"cluster {j}: {counts[j]} cycles")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = _prepare_out(args.out)
    created = []
    stage = "parse"
    try:
        records = parse_cmapss(args.data)
        stage = "preprocess"
        cluster_model, stats, normalized = fit_pipeline(records, cfg)
        stage = "split"
        train_recs, val_recs = split_by_engine(normalized, cfg.val_fraction, cfg.seed)
        stage = "window"
        train_ds = pack_windows(windows_for_records(train_recs, cluster_model, cfg))
        val_ds = pack_windows(windows_for_records(val_recs, cluster_model, cfg))
        if not len(train_ds) or not len(val_ds):
            raise DataError(
                f"no usable windows (window={cfg.window}); engines may be too short"
            )
        stage = "train"
        n_sensors = len(stats.sensor_ids)
        result = train(train_ds, val_ds, cfg, n_sensors, progress=_print_epoch(args))
        stage = "write"
        ckpt_path = out / "model.ckpt"
        save_checkpoint(
            CheckpointBundle(config=cfg, params=result.params, cluster=cluster_model, stats=stats),
            ckpt_path,
        )
        created.append(ckpt_path)
        log_path = out / "training_log.csv"
        _write_text(log_path, format_log_csv(result.log_rows))
        created.append(log_path)
        _write_manifest(out, "train", cfg, [args.data], [p.name for p in created])
        print(
            f"trained {result.epochs_run} epochs ({result.stop_reason}); "
            f"best val {result.best_val:.6f} at epoch {result.best_epoch}"
        )
        return 0
    except MafnError as e:
        for p in created:
            p.unlink(missing_ok=True)
        raise type(e)(f"[stage {stage}] {e}") from e


def _print_epoch(args):
    if getattr(args, "quiet", False):
        return None

    def emit(row):
        print(
            f"epoch {row['epoch']:4d}  train {row['L_total']:.5f}  val {row['val_total']:.5f}"
        )

    return emit


def cmd_evaluate(args) -> int:
    out = _prepare_out(args.out)
    bundle = load_checkpoint(args.checkpoint)
    model, prep = load_predictor(bundle)
    records = parse_cmapss(args.data)
    cfg = bundle.config

    def predict(rec):
        return predict_rul(rec, model, prep)

    if args.mode == "cutoffs":
        report = evaluate_cutoffs(records, predict, min_history(cfg), cfg.rul_cap)
        lines = ["cutoff_pct,rmse,re,score"]
        for pct, r, e, s in report.rows:
            lines.append(f"{pct:g},{r:.6f},{e:.6f},{s:.6f}")
        path = out / "evaluation_cutoffs.csv"
        _write_text(path, "\n".join(lines) + "\n")
        data_files = [args.data, args.checkpoint]
    else:
        if not args.rul:
            raise ContractError("testset mode needs --rul with the ground-truth file")
        rul_truth = parse_rul_file(args.rul)
        r, s = evaluate_testset(records, rul_truth, predict, cfg.rul_cap)
        path = out / "evaluation_testset.csv"
        _write_text(path, "rmse,score\n" + f"{r:.6f},{s:.6f}\n")
        data_files = [args.data, args.rul, args.checkpoint]
    _write_manifest(out, "evaluate", cfg, data_files, [path.name])
    print(f"wrote {path}")
    return 0


def cmd_forecast(args) -> int:
    out = _prepare_out(args.out)
    bundle = load_checkpoint(args.checkpoint)
    model, prep = load_predictor(bundle)
    cfg = bundle.config
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
    if truncated.length < min_history(cfg):
        raise DataError(f"cutoff {args.cutoff:g} leaves {truncated.length} cycles, fewer than "
                        + ("1" if cfg.pad_short else f"the window ({cfg.window})"))
    col = prep.stats.sensor_ids.index(args.sensor)
    sel = select_sensors(record)
    normalized_full = normalize_record(sel, prep.stats)
    cut = truncated.length
    horizon = cfg.horizon
    forecast_sensors, _, predicted_rul = forecast_trajectory(truncated, model, prep)
    forecast_norm = normalize_values(forecast_sensors, prep.stats)[:, col]
    history = normalized_full.sensors[:cut, col]
    truth_n = min(horizon, record.length - cut)
    truth = normalized_full.sensors[cut : cut + truth_n, col]

    rows = ["cycle,history,forecast,truth"]
    for t in range(cut):
        rows.append(f"{t + 1},{history[t]:.6f},,")
    for h in range(horizon):
        truth_val = f"{truth[h]:.6f}" if h < truth_n else ""
        rows.append(f"{cut + h + 1},,{forecast_norm[h]:.6f},{truth_val}")
    csv_path = out / f"forecast_unit{args.unit}_sensor{args.sensor}.csv"
    _write_text(csv_path, "\n".join(rows) + "\n")

    chart = LineChart(
        title=f"Unit {args.unit}, sensor {args.sensor}: cutoff at {args.cutoff:.0%}",
        xlabel="cycle",
        ylabel=f"sensor {args.sensor} (normalized)",
    )
    chart.add_series("history", range(1, cut + 1), history, "#1f77b4")
    chart.add_series(
        "forecast", range(cut + 1, cut + horizon + 1), forecast_norm, "#ff7f0e"
    )
    if truth_n:
        chart.add_series("truth", range(cut + 1, cut + truth_n + 1), truth, "#2ca02c")
    chart.add_vline(cut + predicted_rul, "predicted TTF", "#d62728")
    chart.add_vline(record.length, "true TTF", "#1f77b4")
    svg_path = out / f"forecast_unit{args.unit}_sensor{args.sensor}.svg"
    _write_text(svg_path, chart.render())
    _write_manifest(out, "forecast", cfg, [args.data, args.checkpoint], [csv_path.name, svg_path.name])
    print(f"unit {args.unit}: predicted RUL {predicted_rul:.1f}, true residual {residual}")
    return 0


def cmd_synthesize(args) -> int:
    spec = read_fields(SynthSpec, args.spec, "synthesis")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    records, truth = generate(spec)
    out = _prepare_out(args.out)
    data_path = out / "synthetic_train.txt"
    write_cmapss(records, data_path)
    truth_path = out / "truth.json"
    write_truth(truth, truth_path)
    inputs = [args.spec] if args.spec else []
    _write_manifest(out, "synthesize", spec, inputs, [data_path.name, truth_path.name])
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


def _missing_dirs(path) -> list:
    """``path`` and those of its parents that do not exist yet, deepest first."""
    path = Path(path)
    return list(itertools.takewhile(lambda p: not p.exists(), (path, *path.parents)))


def main(argv=None) -> int:
    parser = build_parser()
    made = []                                   # output directories this run creates
    code = 1                                    # until a command returns; an escaping error fails
    try:
        args = parser.parse_args(argv)
        if args.command in OUT_DIR_COMMANDS:
            made = _missing_dirs(args.out)
        code = args.func(args)
    except SystemExit as e:
        code = int(e.code or 0)
    except NumericError as e:
        print(f"mafn: numeric failure: {e}", file=sys.stderr)
        code = 3
    except (MafnError, OSError) as e:           # OSError: a path missing or of the wrong kind
        print(f"mafn: error: {e}", file=sys.stderr)
        code = 2
    finally:
        if code:                                # a failed run leaves no empty directory of its own
            for path in made:
                try:
                    path.rmdir()
                except OSError:                 # not empty, or never made
                    break
    return code


if __name__ == "__main__":
    sys.exit(main())
