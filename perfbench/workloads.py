"""The benchmark's workloads: train, evaluate and ingest.

Each workload is one closed loop in one process.  ``setup`` builds the
seeded inputs and returns a fingerprint of what it built (set-up runs
several times per run; the fingerprints must agree).  ``body`` does the
measured work and returns observations; ``end_to_end`` and ``named`` turn
those into metrics.  Outputs are checked as they are produced, and every
check counts as one attempted operation in the run's tally.

The workloads call mafn only through the surfaces users call: the CLI entry
point ``mafn.cli.main`` run in-process, documented library functions, and
``mafn.model.predict_rul``.  Functions are looked up on their module at call
time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import mafn.checkpoint as C
import mafn.cli as CLI
import mafn.cluster as K
import mafn.data as D
import mafn.losses as L
import mafn.model as M
import mafn.synthetic as S
import mafn.tensor as T
import mafn.training as R
from mafn.config import TrainConfig
from mafn.errors import MafnError
from mafn.gradcheck import check_gradients

from reference import Pieces, Reference
from tracing import Patcher, grad_enabled

SETUP_REPEATS = 3
# The train workload runs a fixed number of epochs so that its validation loss
# is bit-stable: one epoch per this many seconds of run length.
SECONDS_PER_EPOCH = 4
# Closed-loop predictions on evaluate run until the run length is used up, but
# at least this many, so the 90th percentile has ten samples above it.
MIN_REQUESTS = 100
# The evaluate checkpoint is a fixed fixture: it is trained on walkthrough data
# of this seed, while the engines it scores come from the workload seed.
CHECKPOINT_DATA_SEED = 0
# FD002 has 260 training engines, six operating conditions and lives of
# 128 to 378 cycles.
FD002_SPEC = dict(engines=260, k_states=6, offsets=(-1.5, -1.0, -0.5, 0.5, 1.0, 1.5),
                  life_min=128, life_max=378)


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def pipeline(name):
    """A preprocessing function from the library module that holds it."""
    for module in ("mafn.pipeline", "mafn.cli"):
        try:
            fn = getattr(importlib.import_module(module), name, None)
        except ImportError:
            continue
        if fn is not None:
            return fn
    raise AttributeError(f"no mafn module provides {name}")


# Calls that cut a measured stretch into pieces, each corrected by the host's
# speed at its own time: K-Means restarts, per-engine windowing, training
# steps and predictions.
CUT_POINTS = ((K, "fit_single_restart"), (D, "make_windows"), (R.Adam, "step"), (M, "predict_rul"))


@contextlib.contextmanager
def measured(ref: Reference):
    """Time the block as :class:`Pieces` cut before every call in CUT_POINTS."""
    region = Pieces(ref)
    patcher = Patcher()

    def cut_before(orig):
        def wrapper(*args, **kwargs):
            region.cut()
            return orig(*args, **kwargs)
        return wrapper

    for owner, name in CUT_POINTS:
        if isinstance(owner, type):
            patcher.method(owner, name, cut_before)
        else:
            patcher.function(owner, name, cut_before)
    region.cut()
    try:
        yield region
    finally:
        region.close()
        patcher.restore()


def per(total, count):
    return total / count if count else 0.0


def finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def quantile_ms(seconds, q):
    return float(np.percentile(np.asarray(seconds) * 1000.0, q)) if seconds else 0.0


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def quiet_cli(argv) -> int:
    """Run the mafn CLI in-process with its chatter sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return CLI.main([str(a) for a in argv])


def gradcheck(tally: Tally):
    """Full-model finite-difference gradient check on a tiny config.

    The point is fixed, not drawn from the workload seed: where a ReLU's input
    is exactly 0 (a dead unit behind a zero-initialized bias, which some seeds
    give) central differences measure a one-sided slope while the tape takes
    the documented subgradient 0.  This point is differentiable.
    """
    cfg = TrainConfig(window=4, horizon=3, k_states=2, embedding_dim=2, kernel_size=3,
                      n_filters=3, lstm_hidden=3, trend_dim=2, fusion_widths=(4,),
                      rul_widths=(4, 3)).validate()
    model = M.MafnModel(cfg, 2, np.random.default_rng(11))
    rng = np.random.default_rng(12345)
    x = rng.random((2, cfg.window, 2))
    s = rng.integers(0, 2, (2, cfg.window))
    fs = rng.integers(0, 2, (2, cfg.horizon))
    fx = rng.random((2, cfg.horizon, 2))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    rul = np.array([0.3, 0.8])
    weights = L.LossWeights()

    def loss():
        out = model.forward(x, s, future_states=fs)
        return L.total_loss({
            "state": L.state_loss(out.state_logits, fs, mask),
            "degradation": L.degradation_loss(out.degradation, cfg.lambda_smooth),
            "forecast": L.forecast_loss(out.forecast, fx, mask),
            "rul": L.rul_loss(out.rul, rul, cfg.lambda_late, cfg.lambda_early),
        }, weights)

    try:
        check_gradients(loss, list(model.parameters().values()), eps=1e-5, tol=1e-3)
        ok, what = True, ""
    except AssertionError as e:
        ok, what = False, f"gradient check: {e}"
    tally.check(ok, what)


class StepClock:
    """Training-step and validation timing from hooks on the optimizer.

    A step runs from ``Adam.zero_grad`` to the end of ``Adam.step``; the
    validation pass runs between an epoch's last step and the progress
    callback, and each of its batches is one ``MafnModel.forward`` with the
    tape off.  The reference is probed before each step and each validation
    batch, and the times are corrected by it.  ``Tensor.backward`` is hooked
    to check that every loss is finite.
    """

    def __init__(self, tally: Tally, ref: Reference):
        self.tally = tally
        self.ref = ref
        self.steps = []                  # (wall seconds, probe index)
        self.vals = []
        self.val_batches = []            # (wall seconds, probe index, windows)
        self.rows = []
        self._start = None
        self._probe = None
        self._last_end = None
        self._patcher = Patcher()

    def install(self):
        clock, p = self, self._patcher

        def zero_grad(orig):
            def hooked(opt):
                clock._probe = clock.ref.probe()
                clock._start = time.perf_counter()
                return orig(opt)
            return hooked

        def step(orig):
            def hooked(opt):
                result = orig(opt)
                clock._last_end = time.perf_counter()
                clock.steps.append((clock._last_end - clock._start, clock._probe))
                return result
            return hooked

        def backward(orig):
            def hooked(loss):
                value = float(loss.data.reshape(-1)[0])
                clock.tally.check(math.isfinite(value), f"training loss {value}")
                return orig(loss)
            return hooked

        def forward(orig):
            def hooked(model, windows, *args, **kwargs):
                if grad_enabled():
                    return orig(model, windows, *args, **kwargs)
                index = clock.ref.probe()
                start = time.perf_counter()
                out = orig(model, windows, *args, **kwargs)
                clock.val_batches.append((time.perf_counter() - start, index, len(windows)))
                return out
            return hooked

        p.method(R.Adam, "zero_grad", zero_grad)
        p.method(M.MafnModel, "forward", forward)
        p.method(R.Adam, "step", step)
        p.method(T.Tensor, "backward", backward)

    def uninstall(self):
        self._patcher.restore()

    def step_s(self):
        return [self.ref.corrected(*m) for m in self.steps]

    def val_s(self):
        return [self.ref.corrected(*m) for m in self.vals]

    def val_windows_per_s(self):
        """Median over validation batches of windows per second of forward."""
        rates = [n / self.ref.corrected(t, i) for t, i, n in self.val_batches]
        return statistics.median(rates) if rates else 0.0

    def epoch_end(self, row):
        self.vals.append((time.perf_counter() - self._last_end, self._probe))
        self.rows.append(row)
        self.tally.check(all(finite(float(v)) for v in row.values()), f"epoch row {row}")


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int, workdir: Path, tally: Tally, ref: Reference):
        self.seed = seed
        self.seconds = seconds
        self.dir = workdir
        self.tally = tally
        self.ref = ref

    def write_walkthrough_data(self, seed: int, name="synthetic_train.txt") -> Path:
        """The README walkthrough data: the default synthetic spec, seeded."""
        records, _ = S.generate(S.SynthSpec(seed=seed))
        path = self.dir / name
        D.write_cmapss(records, path)
        return path


class Train(Workload):
    name = "train"

    def setup(self):
        cfg = TrainConfig(max_epochs=max(1, self.seconds // SECONDS_PER_EPOCH)).validate()
        records = D.parse_cmapss(self.write_walkthrough_data(self.seed))
        cluster, stats, normalized = pipeline("fit_pipeline")(records, cfg)
        train_recs, val_recs = D.split_by_engine(normalized, cfg.val_fraction, cfg.seed)
        windows = pipeline("windows_for_records")
        self.train_ds = D.pack_windows(windows(train_recs, cluster, cfg))
        self.val_ds = D.pack_windows(windows(val_recs, cluster, cfg))
        self.cfg = cfg
        self.n_sensors = len(stats.sensor_ids)
        return digest(self.train_ds.inputs, self.train_ds.states, self.train_ds.rul,
                      self.val_ds.inputs, self.val_ds.rul)

    def body(self):
        clock = StepClock(self.tally, self.ref)
        clock.install()
        try:
            R.train(self.train_ds, self.val_ds, self.cfg, self.n_sensors, progress=clock.epoch_end)
        except MafnError as e:
            # the step that raised never reached Adam.step: count it as failed
            self.tally.check(False, f"training step {len(clock.steps) + 1}: {e}")
        finally:
            clock.uninstall()
        step_s, val_s = clock.step_s(), clock.val_s()
        n, bs = len(self.train_ds), self.cfg.batch_size
        sizes = [min(bs, n - s) for s in range(0, n, bs)] * self.cfg.max_epochs
        windows = sum(sizes[: len(step_s)])
        return {
            "latency_s": step_s,
            "val_s": val_s,
            "throughput": windows / sum(step_s) if step_s else 0.0,
            "val_windows_per_s": clock.val_windows_per_s(),
            "val_loss": clock.rows[-1]["val_total"] if clock.rows else math.nan,
        }

    def end_to_end(self, obs):
        return {
            "throughput_per_s": obs["throughput"],
            "latency_ms_p50": quantile_ms(obs["latency_s"], 50),
            "latency_ms_p90": quantile_ms(obs["latency_s"], 90),
            "secondary_per_s": obs["val_windows_per_s"],
            "quality": obs["val_loss"],
        }

    def named(self, e2e, obs):
        return [
            ("train.windows_per_s", e2e["throughput_per_s"], "1/s", "higher"),
            ("train.step_ms_p50", e2e["latency_ms_p50"], "ms", "lower"),
            ("train.step_ms_p90", e2e["latency_ms_p90"], "ms", "lower"),
            ("train.val_windows_per_s", e2e["secondary_per_s"], "1/s", "higher"),
            ("train.val_loss", e2e["quality"], "1", "lower"),
        ], f"{len(obs['latency_s'])} steps of batch {self.cfg.batch_size}, {len(obs['val_s'])} validation passes"


class Evaluate(Workload):
    name = "evaluate"

    def setup(self):
        self.data = self.write_walkthrough_data(self.seed)
        self.records = {r.unit_id: r for r in D.parse_cmapss(self.data)}
        train_data = self.write_walkthrough_data(CHECKPOINT_DATA_SEED, "checkpoint_train.txt")
        config = self.dir / "evaluate.cfg"
        config.write_text("max_epochs = 1\n")
        run_dir = self.dir / "run"
        code = quiet_cli(["train", "--data", train_data, "--config", config, "--out", run_dir, "--quiet"])
        if code != 0:
            raise RuntimeError(f"evaluate set-up: mafn train exited with {code}")
        self.checkpoint = run_dir / "model.ckpt"
        bundle = C.load_checkpoint(self.checkpoint)
        cfg = bundle.config
        self.model = M.MafnModel(cfg, bundle.n_sensors, np.random.default_rng(cfg.seed))
        self.model.load_state(bundle.params)
        self.prep = M.PreprocessBundle(config=cfg, cluster=bundle.cluster, stats=bundle.stats)
        self.cap = cfg.rul_cap
        rng = np.random.default_rng(self.seed)
        engines = list(self.records.values())
        self.requests = [
            D.truncate_at_fraction(engines[int(rng.integers(len(engines)))], float(rng.uniform(0.3, 0.95)))[0]
            for _ in range(256)
        ]
        return file_digest(self.checkpoint)

    def _in_range(self, y):
        return finite(y) and 0.0 <= y <= self.cap

    def body(self):
        made = []
        patcher = Patcher()
        ref = self.ref

        def record(orig):
            def recorded(rec, *args, **kwargs):
                y = orig(rec, *args, **kwargs)
                made.append((rec.unit_id, rec.length, y))
                return y
            return recorded

        patcher.function(M, "predict_rul", record)
        out = self.dir / "eval"
        t0 = time.perf_counter()
        try:
            with measured(ref) as cli_run:
                code = quiet_cli(["evaluate", "--checkpoint", self.checkpoint, "--data", self.data,
                                  "--mode", "cutoffs", "--out", out])
        finally:
            patcher.restore()
        self.tally.check(code == 0, f"mafn evaluate exited with {code}")
        for unit, length, y in made:
            self.tally.check(self._in_range(y), f"unit {unit} at {length} cycles: prediction {y}")
        rmse = self._check_report(out / "evaluation_cutoffs.csv", made) if code == 0 else math.nan

        requests = []
        while len(requests) < MIN_REQUESTS or time.perf_counter() - t0 < self.seconds:
            rec = self.requests[len(requests) % len(self.requests)]
            index = ref.probe()
            start = time.perf_counter()
            try:
                y = M.predict_rul(rec, self.model, self.prep)
            except MafnError as e:
                y = f"error: {e}"
            requests.append((time.perf_counter() - start, index))
            self.tally.check(self._in_range(y), f"request {len(requests)}: prediction {y}")
        latencies = [ref.corrected(*m) for m in requests]
        return {
            "throughput": len(made) / cli_run.seconds(),
            "latency_s": latencies,
            "requests_per_s": len(latencies) / sum(latencies),
            "rmse": rmse,
            "cutoff_predictions": len(made),
        }

    def _check_report(self, path, made):
        """Overall RMSE in cycles, after checking each row of the CLI report
        against the recorded predictions."""
        by_cut = {(unit, length): y for unit, length, y in made}
        errors = []
        lines = path.read_text().splitlines()[1:]
        for line in lines:
            pct, rmse = (float(v) for v in line.split(",")[:2])
            sq = []
            for unit, rec in self.records.items():
                keep = int(np.floor(pct * rec.length))
                if (unit, keep) in by_cut:
                    sq.append((by_cut[(unit, keep)] - min(rec.length - keep, self.cap)) ** 2)
            row_rmse = math.sqrt(sum(sq) / len(sq)) if sq else math.nan
            self.tally.check(abs(row_rmse - rmse) <= 1e-6 * max(1.0, rmse),
                             f"cutoff {pct}: report rmse {rmse}, recomputed {row_rmse}")
            errors += sq
        self.tally.check(len(errors) == len(made), f"report covers {len(errors)} of {len(made)} predictions")
        return math.sqrt(sum(errors) / len(errors)) if errors else math.nan

    def end_to_end(self, obs):
        return {
            "throughput_per_s": obs["throughput"],
            "latency_ms_p50": quantile_ms(obs["latency_s"], 50),
            "latency_ms_p90": quantile_ms(obs["latency_s"], 90),
            "secondary_per_s": obs["requests_per_s"],
            "quality": obs["rmse"],
        }

    def named(self, e2e, obs):
        return [
            ("evaluate.predictions_per_s", e2e["throughput_per_s"], "1/s", "higher"),
            ("evaluate.predict_ms_p50", e2e["latency_ms_p50"], "ms", "lower"),
            ("evaluate.predict_ms_p90", e2e["latency_ms_p90"], "ms", "lower"),
            ("evaluate.requests_per_s", e2e["secondary_per_s"], "1/s", "higher"),
            ("evaluate.rmse", e2e["quality"], "cycles", "lower"),
        ], f"{obs['cutoff_predictions']} engine-cutoffs, {len(obs['latency_s'])} one-engine requests"


class Ingest(Workload):
    name = "ingest"

    def setup(self):
        records, truth = S.generate(S.SynthSpec(seed=self.seed, **FD002_SPEC))
        self.data = self.dir / "fd002_like.txt"
        D.write_cmapss(records, self.data)
        self.true_states = np.concatenate([np.asarray(e["states"]) for e in truth["engines"]])
        self.cfg = TrainConfig().validate()
        return file_digest(self.data)

    def one_pass(self):
        """One ingest; returns the records, the cluster model, the window
        count, and the measured parse and rest of the pass."""
        cfg = self.cfg
        with measured(self.ref) as parse:
            records = D.parse_cmapss(self.data)
        with measured(self.ref) as rest:
            cluster, _, normalized = pipeline("fit_pipeline")(records, cfg)
            train_recs, val_recs = D.split_by_engine(normalized, cfg.val_fraction, cfg.seed)
            windows = pipeline("windows_for_records")
            train_ds = D.pack_windows(windows(train_recs, cluster, cfg))
            val_ds = D.pack_windows(windows(val_recs, cluster, cfg))
            save_cache = getattr(D, "save_window_cache", None)   # the cache is never read back
            if save_cache is not None:
                key = D.window_config_key({"window": cfg.window, "horizon": cfg.horizon,
                                           "stride": cfg.stride, "seed": cfg.seed,
                                           "data": file_digest(self.data)})
                save_cache(train_ds, self.dir / f"windows-{key}.bin", key)
        return records, cluster, len(train_ds) + len(val_ds), parse, rest

    def _check(self, records, cluster, n_windows):
        states = np.concatenate([D.record_states(r, cluster) for r in records])
        k = cluster.k
        table = np.zeros((k, k), dtype=np.int64)
        np.add.at(table, (states, self.true_states), 1)
        mapping = table.argmax(axis=1)
        agree = int(table[np.arange(k), mapping].sum())
        self.tally.check(len(set(mapping.tolist())) == k and agree == len(states),
                         f"K-Means states agree with truth on {agree} of {len(states)} cycles")
        expected = sum(max(0, r.length - self.cfg.window + 1) for r in records)
        self.tally.check(n_windows == expected, f"{n_windows} windows, expected {expected}")

    def body(self):
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < self.seconds:
            records, cluster, n_windows, parse, rest = self.one_pass()
            rows = sum(r.length for r in records)
            passes.append((parse, rest))
            self._check(records, cluster, n_windows)
            engines, inertia_per_cycle = len(records), cluster.inertia / rows
            del records, cluster
        pass_s = [parse.seconds() + rest.seconds() for parse, rest in passes]
        parse_rates = [rows / parse.seconds() for parse, _ in passes]
        return {
            "latency_s": pass_s,
            "passes": len(pass_s),
            "throughput": engines * len(pass_s) / sum(pass_s),
            "rows_per_s": statistics.median(parse_rates),
            "inertia": inertia_per_cycle,
            "windows": n_windows,
        }

    def end_to_end(self, obs):
        return {
            "throughput_per_s": obs["throughput"],
            "latency_ms_p50": quantile_ms(obs["latency_s"], 50),
            "latency_ms_p90": quantile_ms(obs["latency_s"], 90),
            "secondary_per_s": obs["rows_per_s"],
            "quality": obs["inertia"],
        }

    def named(self, e2e, obs):
        return [
            ("ingest.engines_per_s", e2e["throughput_per_s"], "1/s", "higher"),
            ("ingest.pass_ms_p50", e2e["latency_ms_p50"], "ms", "lower"),
            ("ingest.pass_ms_p90", e2e["latency_ms_p90"], "ms", "lower"),
            ("ingest.rows_per_s", e2e["secondary_per_s"], "1/s", "higher"),
            ("ingest.inertia_per_cycle", e2e["quality"], "1", "lower"),
        ], f"{obs['passes']} ingest passes of {obs['windows']} windows"


WORKLOADS = {w.name: w for w in (Train, Evaluate, Ingest)}


def per_layer(tracer, obs, overhead_pct):
    """Every per-layer metric of BENCHMARK.json from one traced body.

    Times are self times.  Training figures are per step, prediction
    figures per ``predict_rul`` call, ingest figures per pass; a layer the
    workload does not exercise reads 0.
    """
    steps = tracer.call_count("training.adam_step")
    predictions = tracer.call_count("model.predict_rul", modes=("predict",))
    passes = obs.get("passes", 0)
    any_mode = ("", "val", "predict")
    both = ("setup", "run")

    def step_ms(name):
        return 1000.0 * per(tracer.self_time(name), steps)

    def pass_s(name):
        return per(tracer.self_time(name), passes)

    def call_ms(name, phases=("run",)):
        return 1000.0 * per(tracer.self_time(name, any_mode, phases), tracer.call_count(name, any_mode, phases))

    nodes, by_op = tracer.census()
    m = {
        "tensor.backward_ms": step_ms("tensor.backward"),
        "tensor.topo_order_ms": step_ms("tensor.topo_order"),
        "tensor.tape_nodes": nodes,
    }
    for op in ("add", "matmul", "mul", "sigmoid", "tanh", "getitem", "stack", "concat"):
        m[f"tensor.tape_nodes.{op}"] = by_op.get(op, 0)
    m["tensor.ops_per_prediction"] = per(tracer.predict_ops, predictions)
    for layer in ("embedding", "conv1d", "bilstm", "attention"):
        m[f"layers.{layer}.fwd_ms"] = step_ms(f"layers.{layer}")
        m[f"layers.{layer}.bwd_ms"] = step_ms(f"bwd:layers.{layer}")
    m["layers.bilstm.predict_ms"] = 1000.0 * per(tracer.self_time("layers.bilstm", ("predict",)), predictions)
    m["model.forward_ms"] = step_ms("model.forward")
    for head in ("trend_decoder", "state_decoder", "fusion", "rul_head"):
        m[f"model.{head}.fwd_ms"] = step_ms(f"model.{head}")
        m[f"model.{head}.bwd_ms"] = step_ms(f"bwd:model.{head}")
    m["model.predict_forward_ms"] = 1000.0 * per(tracer.total_time("model.forward", ("predict",)), predictions)
    m["model.prepare_window_ms"] = 1000.0 * per(tracer.self_time("model.prepare_window", ("predict",)), predictions)
    for loss in ("state", "forecast", "degradation", "rul"):
        m[f"losses.{loss}_ms"] = step_ms(f"losses.{loss}")
    m["losses.bwd_ms"] = step_ms("bwd:losses")
    m["training.adam_step_ms"] = step_ms("training.adam_step")
    m["training.clip_ms"] = step_ms("training.clip")
    m["training.steps"] = steps
    m["training.clipped_batches"] = tracer.clipped
    m["training.validation_s"] = statistics.mean(obs["val_s"]) if obs.get("val_s") else 0.0
    m["checkpoint.save_ms"] = call_ms("checkpoint.save", both)
    m["checkpoint.load_ms"] = call_ms("checkpoint.load", both)
    m["checkpoint.bytes"] = tracer.file_bytes.get("checkpoint", 0)
    m["data.truncate_ms"] = call_ms("data.truncate")
    m["data.parse_s"] = pass_s("data.parse")
    m["data.normalize_s"] = pass_s("data.normalize")
    m["data.make_windows_s"] = pass_s("data.make_windows")
    m["data.pack_windows_s"] = pass_s("data.pack_windows")
    m["data.window_cache_write_s"] = pass_s("data.window_cache_write")
    m["data.window_cache_bytes"] = tracer.file_bytes.get("window_cache", 0) if passes else 0
    m["data.windows"] = obs.get("windows", 0)
    m["cluster.assign_states_ms"] = call_ms("cluster.assign_states")
    m["cluster.assign_states_calls"] = per(tracer.call_count("cluster.assign_states", ("predict",)), predictions)
    m["cluster.kmeans_fit_s"] = pass_s("cluster.kmeans_fit")
    m["cluster.lloyd_iterations"] = per(tracer.lloyd_iterations, passes)
    m["cluster.relabel_s"] = pass_s("cluster.relabel")
    m["trace.overhead_pct"] = overhead_pct
    return m
