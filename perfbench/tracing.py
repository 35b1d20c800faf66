"""In-memory spans around calls into mafn's public functions and methods.

Nothing under ``src/`` is changed: a :class:`Patcher` swaps module and class
attributes for wrappers and puts the originals back.  A function is replaced
in every ``mafn`` module that holds a reference to it, so calls made through
``from .x import f`` names are seen as well.

A span's self time is its duration minus the part covered by child spans.
Backward time is attributed to layers by tagging each tape node with the
layer span that created it and timing its gradient closure as a child span
of ``Tensor.backward``.
"""
from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# Layer groups of a MafnModel, keyed by attribute name.  Dense layers and LSTM
# cells are shared classes, so the instance decides which group a call is in.
MODEL_GROUPS = {
    "embedding": "layers.embedding",
    "conv": "layers.conv1d",
    "enc_fwd": "layers.bilstm",
    "enc_bwd": "layers.bilstm",
    "attention": "layers.attention",
    "rul_l1": "model.rul_head",
    "rul_l2": "model.rul_head",
    "rul_out": "model.rul_head",
    "trend_init": "model.trend_decoder",
    "trend_cell": "model.trend_decoder",
    "trend_proj": "model.trend_decoder",
    "state_init": "model.state_decoder",
    "state_cell": "model.state_decoder",
    "state_proj": "model.state_decoder",
    "fusion_layers": "model.fusion",
    "fusion_out": "model.fusion",
}


def mafn_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mafn" or name.startswith("mafn."))]


class Patcher:
    """Replace attributes and restore them in reverse order."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make_wrapper):
        """Wrap ``module.name`` in every mafn module that references it."""
        orig = getattr(module, name, None)
        if orig is None:                 # gone after a refactor: not traced
            return
        wrapper = make_wrapper(orig)
        for mod in mafn_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name, make_wrapper):
        orig = cls.__dict__.get(name)
        if orig is None:
            return
        self._undo.append((cls, name, orig))
        setattr(cls, name, make_wrapper(orig))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def grad_enabled() -> bool:
    import mafn.tensor as T
    return bool(getattr(T, "_grad_enabled", True))


class Tracer:
    """Spans, tape census and per-layer backward attribution.

    Span keys are ``(phase, mode, name)``: phase is ``setup`` or ``run``;
    mode is ``predict`` inside ``predict_rul``, ``val`` for other work with
    the tape off, and ``""`` otherwise.
    """

    def __init__(self):
        self.phase = "run"
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.groups = {}                     # id(layer object) -> group name
        self.stack = []                      # frames: [key, tag, start, child_s]
        self.predict_depth = 0
        self.predict_ops = 0
        self.in_step = False
        self.step_nodes = Counter()
        self.step_census = []                # one Counter of tape nodes per step
        self.lloyd_iterations = 0
        self.clipped = 0
        self.file_bytes = {}
        self._patcher = None

    # -- spans ----------------------------------------------------------------

    def _mode(self):
        if self.predict_depth:
            return "predict"
        return "" if grad_enabled() else "val"

    def enter(self, name, tag=None):
        if tag is None and self.stack:
            tag = self.stack[-1][1]
        self.stack.append([(self.phase, self._mode(), name), tag, time.perf_counter(), 0.0])

    def exit(self):
        key, _, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.self_s[key] += dur - child
        self.total_s[key] += dur
        self.calls[key] += 1
        if self.stack:
            self.stack[-1][3] += dur

    def span(self, name, tag=None, group_of_self=False, after=None):
        """Wrapper factory: time calls under ``name`` (or the instance's group)."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                label, label_tag = name, tag
                if group_of_self:
                    label = label_tag = tracer.groups.get(id(args[0]), name)
                tracer.enter(label, label_tag)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit()
                if after is not None:
                    after(result, args, kwargs)
                return result
            return wrapper
        return make

    # -- installation -----------------------------------------------------------

    def install(self, phase):
        import mafn.checkpoint as C
        import mafn.cluster as K
        import mafn.data as D
        import mafn.layers as N
        import mafn.losses as L
        import mafn.model as M
        import mafn.tensor as T
        import mafn.training as R

        self.phase = phase
        p = self._patcher = Patcher()
        p.function(T, "_make", self._wrap_make)
        p.method(T.Tensor, "backward", self.span("tensor.backward"))
        p.function(T, "topo_order", self.span("tensor.topo_order"))

        p.method(N.EmbeddingTable, "__call__", self.span("layers.embedding", "layers.embedding"))
        p.method(N.Conv1d, "__call__", self.span("layers.conv1d", "layers.conv1d"))
        p.function(N, "bilstm", self.span("layers.bilstm", "layers.bilstm"))
        p.method(N.Attention, "__call__", self.span("layers.attention", "layers.attention"))
        p.method(N.Dense, "__call__", self.span("layers.dense", group_of_self=True))
        p.method(N.LstmCell, "step", self.span("layers.lstm_cell", group_of_self=True))

        p.method(M.MafnModel, "__init__", self._wrap_model_init)
        p.method(M.MafnModel, "forward", self.span("model.forward"))
        p.function(M, "prepare_window", self.span("model.prepare_window"))
        p.function(M, "predict_rul", self._wrap_predict)

        for name in ("state", "forecast", "degradation", "rul", "total"):
            p.function(L, f"{name}_loss", self.span(f"losses.{name}", "losses"))

        p.method(R.Adam, "zero_grad", self._wrap_zero_grad)
        p.method(R.Adam, "step", self._wrap_adam_step)
        p.function(R, "clip_gradients", self.span("training.clip", after=self._count_clip))

        p.function(C, "save_checkpoint", self.span("checkpoint.save", after=self._size_of("checkpoint")))
        p.function(C, "load_checkpoint", self.span("checkpoint.load"))

        p.function(D, "parse_cmapss", self.span("data.parse"))
        for name in ("select_sensors", "fit_normalization", "normalize_record"):
            p.function(D, name, self.span("data.normalize"))
        p.function(D, "make_windows", self.span("data.make_windows"))
        p.function(D, "pack_windows", self.span("data.pack_windows"))
        p.function(D, "save_window_cache",
                   self.span("data.window_cache_write", after=self._size_of("window_cache")))
        p.function(D, "truncate_at_fraction", self.span("data.truncate"))

        p.function(K, "kmeans_fit", self.span("cluster.kmeans_fit"))
        p.function(K, "lloyd_iterations", self._wrap_lloyd)
        p.function(K, "relabel_canonical", self.span("cluster.relabel"))
        p.function(K, "assign_states", self.span("cluster.assign_states"))

    def uninstall(self):
        if self._patcher is not None:
            self._patcher.restore()
            self._patcher = None

    # -- special wrappers ---------------------------------------------------------

    def _wrap_make(self, orig):
        tracer = self

        def make(data, parents, grad_fn, op):
            out = orig(data, parents, grad_fn, op)
            if tracer.predict_depth:
                tracer.predict_ops += 1
            if out.requires_grad:
                if tracer.in_step:
                    tracer.step_nodes[op] += 1
                tag = tracer.stack[-1][1] if tracer.stack else None
                if tag is not None and out._grad_fn is not None:
                    out._grad_fn = tracer._timed_grad(out._grad_fn, "bwd:" + tag)
            return out
        return make

    def _timed_grad(self, grad_fn, name):
        def timed(g):
            self.enter(name)
            try:
                return grad_fn(g)
            finally:
                self.exit()
        return timed

    def _wrap_model_init(self, orig):
        tracer = self

        def init(model, *args, **kwargs):
            orig(model, *args, **kwargs)
            for attr, group in MODEL_GROUPS.items():
                obj = getattr(model, attr, None)
                for layer in obj if isinstance(obj, list) else [obj]:
                    if layer is not None:
                        tracer.groups[id(layer)] = group
        return init

    def _wrap_predict(self, orig):
        inner = self.span("model.predict_rul")(orig)

        def predict(*args, **kwargs):
            self.predict_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.predict_depth -= 1
        return predict

    def _wrap_zero_grad(self, orig):
        def zero_grad(opt):
            if self.phase == "run":
                self.in_step = True
                self.step_nodes = Counter()
            return orig(opt)
        return zero_grad

    def _wrap_adam_step(self, orig):
        inner = self.span("training.adam_step")(orig)

        def step(opt):
            try:
                return inner(opt)
            finally:
                if self.in_step:
                    self.step_census.append(self.step_nodes)
                    self.in_step = False
        return step

    def _wrap_lloyd(self, orig):
        def lloyd(*args, **kwargs):
            result = orig(*args, **kwargs)
            if self.phase == "run":
                self.lloyd_iterations += len(result[3]) - 1    # history holds one final entry
            return result
        return lloyd

    def _count_clip(self, norm, args, kwargs):
        max_norm = kwargs.get("max_norm", args[1] if len(args) > 1 else 0.0)
        if self.phase == "run" and max_norm > 0 and norm > max_norm:
            self.clipped += 1

    def _size_of(self, label):
        def after(_result, args, kwargs):
            path = kwargs.get("path", args[1] if len(args) > 1 else None)
            if path is not None and os.path.exists(path):
                self.file_bytes[label] = os.path.getsize(path)
        return after

    # -- queries ----------------------------------------------------------------------

    def self_time(self, name, modes=("",), phases=("run",)):
        return sum(v for (ph, md, nm), v in self.self_s.items()
                   if nm == name and md in modes and ph in phases)

    def total_time(self, name, modes=("",), phases=("run",)):
        return sum(v for (ph, md, nm), v in self.total_s.items()
                   if nm == name and md in modes and ph in phases)

    def call_count(self, name, modes=("",), phases=("run",)):
        return sum(v for (ph, md, nm), v in self.calls.items()
                   if nm == name and md in modes and ph in phases)

    def census(self):
        """Median tape-node count per training step, in total and by op."""
        if not self.step_census:
            return 0, {}
        ops = sorted({op for c in self.step_census for op in c})
        by_op = {op: statistics.median_low([c.get(op, 0) for c in self.step_census]) for op in ops}
        return statistics.median_low([sum(c.values()) for c in self.step_census]), by_op

