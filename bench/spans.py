"""Spans around the package's layer boundaries, for the traced run.

The tracer replaces names that the package's modules look up at call time
(``training.adam_step``, ``autodiff.linear``, ``Tensor.backward`` ...) with
wrappers that record a span: name, start, end and parent span.  Tape ops
also get their backward closures wrapped, so the backward time of
``linear`` or ``matmul`` is charged to that op.  Spans stay in memory in
flat arrays and are written out once, when the run ends.  Nothing under
``src/`` changes; ``uninstall`` puts every original back.
"""

import time
from array import array
from pathlib import Path

import numpy as np

from symplectic_ml import (analysis, autodiff, checkpoint, cli, datapipe, lstm,
                           models, nets, training)
from symplectic_ml.autodiff import Tensor

TAPE_OPS = ("add", "sub", "mul", "scale", "add_scaled", "matmul", "linear", "tanh",
            "sigmoid", "square", "one_minus_sq", "sum_all", "sum_sq_diff",
            "concat_cols", "slice_cols", "segment")


def _rows(x):
    return int(np.shape(x.data if isinstance(x, Tensor) else x)[0])


def _linear_flops(args):
    x, w = args[0], args[1]
    n_out, n_in = np.shape(w.data if isinstance(w, Tensor) else w)
    fwd = 2 * _rows(x) * n_in * n_out
    grads = sum(isinstance(t, Tensor) and t.requires_grad for t in (x, w))
    return fwd, fwd * grads


def _learned_flow(args):
    return isinstance(args[0], models.SeparableModel)


class Tracer:
    """Records spans while ``active``; the wrappers pass straight through
    otherwise."""

    def __init__(self):
        self.active = False
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.attr = {}
        self.taped_nodes = 0
        self._stack = [-1]
        self._undo = []

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, nid):
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _finish(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._nid(name))

    def wrap(self, owner, attr, name, measure=None):
        """Replace ``owner.attr`` by a spanning wrapper.  ``measure(args,
        out)`` gives a number stored with the span (rows, steps, ...).  A
        name the package no longer has is left alone; its metrics read 0."""
        orig = owner.__dict__.get(attr)
        if orig is None:
            return
        nid = self._nid(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            sid = tracer._begin(nid)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._finish(sid)
            if measure is not None:
                tracer.attr[sid] = measure(args, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def wrap_op(self, op):
        """Span a tape op and the backward closure it leaves on its output."""
        orig = autodiff.__dict__.get(op)
        if orig is None:
            return
        nid, bw_nid = self._nid(f"autodiff.{op}"), self._nid(f"autodiff.{op}.backward")
        tracer = self
        flops = op == "linear"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            sid = tracer._begin(nid)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._finish(sid)
            if flops:
                fwd, bwd = _linear_flops(args)
                tracer.attr[sid] = fwd
            bw = out._backward
            if bw is None:
                return out
            tracer.taped_nodes += 1

            def timed_backward():
                bsid = tracer._begin(bw_nid)
                try:
                    bw()
                finally:
                    tracer._finish(bsid)
                if flops:
                    tracer.attr[bsid] = bwd

            out._backward = timed_backward
            return out

        setattr(autodiff, op, wrapper)
        self._undo.append((autodiff, op, orig))

    def install(self):
        w = self.wrap
        for op in TAPE_OPS:
            self.wrap_op(op)
        w(Tensor, "backward", "autodiff.backward")
        w(nets, "grad_params_through", "nets.grad_params_through")
        w(nets, "net_input_gradient", "nets.input_gradient", lambda a, o: _rows(a[2]))
        w(models, "_srnn_loss_graph", "models.srnn_loss_graph", lambda a, o: o[1])
        w(models, "_taped_rollout", "models.taped_rollout")
        w(models, "_baseline_loss_graph", "models.baseline_loss_graph")
        w(models, "integrate", "models.integrate", lambda a, o: a[2])
        w(models, "separable_grad_v", "models.separable_grad_v")
        w(models, "separable_grad_k", "models.separable_grad_k")
        w(lstm, "_encoder_loss_graph", "lstm.encoder_loss_graph")
        w(lstm, "_encode_graph", "lstm.encode")
        w(lstm, "lstm_step", "lstm.cell")
        w(training, "window_dataset", "datapipe.window_dataset")
        w(training, "adam_step", "training.adam_step")
        w(training, "clip_gradient", "training.clip_gradient")
        w(training, "_eval_loss", "training.validation")
        w(checkpoint, "build_checkpoint", "checkpoint.build")
        w(checkpoint, "save_checkpoint", "checkpoint.save")
        w(checkpoint, "load_checkpoint", "checkpoint.load")
        w(datapipe, "generate_dataset", "datapipe.generate")
        w(datapipe, "sample_initial_condition", "datapipe.sample")
        w(datapipe, "integrate_batch", "dynamics.integrate_batch",
          lambda a, o: a[0].shape[0] * a[4])
        w(datapipe, "window_dataset", "datapipe.window_dataset")
        w(datapipe, "save_dataset", "datapipe.save", lambda a, o: _dir_bytes(a[1]))
        w(datapipe, "load_dataset", "datapipe.load")
        w(cli, "integrate", "dynamics.integrate", lambda a, o: a[2])
        w(analysis, "lyapunov_spectrum", "analysis.lyapunov",
          lambda a, o: (_learned_flow(a), a[4]))
        w(analysis, "_seed_rows", "analysis.seed_rows",
          lambda a, o: o.shape[0] / a[0].shape[0])
        w(analysis, "leapfrog_batch", "dynamics.leapfrog_batch", lambda a, o: a[0].shape[0])
        w(analysis, "separable_grad_v", "models.separable_grad_v")
        w(analysis, "separable_grad_k", "models.separable_grad_k")

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def save(self, path):
        """Write every span to a compressed ``.npz``."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32))

    def table(self):
        return SpanTable(self)


class _Span:
    def __init__(self, tracer, nid):
        self.tracer, self.nid, self.sid = tracer, nid, None

    def __enter__(self):
        if self.tracer.active:
            self.sid = self.tracer._begin(self.nid)
        return self

    def __exit__(self, *exc):
        if self.sid is not None:
            self.tracer._finish(self.sid)


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).iterdir())


class SpanTable:
    """Aggregates over recorded spans by name, with self times."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.name = np.frombuffer(tracer.name, np.int32)
        self.parent = np.frombuffer(tracer.parent, np.int32)
        self.dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.in_val = self.within("training.validation")

    def within(self, name):
        """Mask of the ``name`` spans and every span below one."""
        root = self.tracer._name_ids.get(name, -1)
        inside = np.zeros(self.name.size, dtype=bool)
        for i, p in enumerate(self.parent):
            inside[i] = self.name[i] == root or (p >= 0 and inside[p])
        return inside

    def mask(self, *names, training_only=False):
        ids = [self.tracer._name_ids[n] for n in names if n in self.tracer._name_ids]
        m = np.isin(self.name, ids)
        return m & ~self.in_val if training_only else m

    def count(self, *names, **kw):
        return int(self.mask(*names, **kw).sum())

    def time(self, *names, **kw):
        return float(self.dur[self.mask(*names, **kw)].sum())

    def self_time_of(self, *names):
        return float(self.self_time[self.mask(*names)].sum())

    def attrs(self, *names):
        return [self.tracer.attr[int(i)] for i in np.flatnonzero(self.mask(*names))
                if int(i) in self.tracer.attr]


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(tab, rounds, commands, checkpoint_commands, checkpoint_bytes):
    """The per-layer metrics of BENCHMARK.json from one traced section.

    A *step* is one Adam update where the workload trains, and one learned
    leapfrog step where it only runs inference.  ``rounds`` counts the
    traced rounds; ``commands`` and ``checkpoint_commands`` the CLI commands
    run in them, and those given a checkpoint.
    """
    ops = [f"autodiff.{op}" for op in TAPE_OPS]
    bws = [f"{o}.backward" for o in ops]
    elementwise = [o for o in ops + bws if ".linear" not in o and ".matmul" not in o]
    lyap = tab.attrs("analysis.lyapunov")
    lyap_spans = np.flatnonzero(tab.mask("analysis.lyapunov"))
    learned_lyap_steps = sum(steps for learned, steps in lyap if learned)
    analytic_lyap_steps = sum(steps for learned, steps in lyap if not learned)
    learned_lyap_time = sum(tab.dur[i] for i, (learned, _) in zip(lyap_spans, lyap) if learned)
    analytic_lyap_time = sum(tab.dur[i] for i, (learned, _) in zip(lyap_spans, lyap)
                             if not learned)
    rollout_steps = sum(tab.attrs("models.integrate"))
    train_steps = tab.count("training.adam_step")
    steps = train_steps or rollout_steps + learned_lyap_steps
    linear_time = tab.time("autodiff.linear", "autodiff.linear.backward")
    batch_row_steps = (sum(tab.attrs("dynamics.integrate_batch"))
                       + sum(tab.attrs("dynamics.leapfrog_batch")))
    generates = tab.count("datapipe.generate")
    sample_mask = tab.mask("datapipe.sample") & tab.within("datapipe.generate")
    saves = tab.attrs("datapipe.save")
    return {
        "autodiff.op_calls_per_step": ("count", _ratio(tab.count(*ops), steps)),
        "autodiff.graph_nodes_per_step": ("count", _ratio(tab.tracer.taped_nodes, steps)),
        "autodiff.linear_ms_per_step": ("ms", 1e3 * _ratio(linear_time, steps)),
        "autodiff.matmul_ms_per_step": (
            "ms", 1e3 * _ratio(tab.time("autodiff.matmul", "autodiff.matmul.backward"), steps)),
        "autodiff.elementwise_ms_per_step": (
            "ms", 1e3 * _ratio(tab.time(*elementwise), steps)),
        "autodiff.backward_ms_per_step": (
            "ms", 1e3 * _ratio(tab.time("autodiff.backward"), steps)),
        "autodiff.linear_gflop_per_s": (
            "GFLOP/s", 1e-9 * _ratio(sum(tab.attrs("autodiff.linear", "autodiff.linear.backward")),
                                     linear_time)),
        "nets.input_grad_calls_per_step": (
            "count", _ratio(tab.count("nets.input_gradient"), steps)),
        "nets.input_grad_us_per_row": (
            "us", 1e6 * _ratio(tab.time("nets.input_gradient"),
                               sum(tab.attrs("nets.input_gradient")))),
        "models.rollouts_per_loss": (
            "count", _ratio(tab.count("models.taped_rollout"),
                            tab.count("models.srnn_loss_graph"))),
        "models.diverged_windows": (
            "count", _ratio(sum(tab.attrs("models.srnn_loss_graph")), rounds)),
        "models.learned_step_us": (
            "us", 1e6 * _ratio(tab.time("models.integrate"), rollout_steps)),
        "lstm.encode_ms_per_step": (
            "ms", 1e3 * _ratio(tab.time("lstm.encode", training_only=True), train_steps)),
        "lstm.cell_calls_per_step": (
            "count", _ratio(tab.count("lstm.cell", training_only=True), train_steps)),
        "training.forward_ms_per_step": (
            "ms", 1e3 * _ratio(tab.time("models.srnn_loss_graph", "models.baseline_loss_graph",
                                        "lstm.encoder_loss_graph", training_only=True),
                               train_steps)),
        "training.adam_ms_per_step": (
            "ms", 1e3 * _ratio(tab.time("training.adam_step"), train_steps)),
        "training.validation_s_per_epoch": (
            "s", _ratio(tab.time("training.validation"), tab.count("training.validation"))),
        "dynamics.scalar_step_us": (
            "us", 1e6 * _ratio(tab.time("dynamics.integrate"),
                               sum(tab.attrs("dynamics.integrate")))),
        "dynamics.batch_row_step_ns": (
            "ns", 1e9 * _ratio(tab.time("dynamics.integrate_batch", "dynamics.leapfrog_batch"),
                               batch_row_steps)),
        "datapipe.integrate_rounds": (
            "count", _ratio(tab.count("dynamics.integrate_batch"), generates)),
        "datapipe.sample_ms": ("ms", 1e3 * _ratio(float(tab.dur[sample_mask].sum()), generates)),
        "datapipe.window_s": (
            "s", _ratio(tab.time("datapipe.window_dataset"), tab.count("datapipe.window_dataset"))),
        "datapipe.save_mb_per_s": ("MB/s", 1e-6 * _ratio(sum(saves), tab.time("datapipe.save"))),
        "analysis.lyapunov_rows_per_seed": (
            "count", _ratio(sum(tab.attrs("analysis.seed_rows")), tab.count("analysis.seed_rows"))),
        "analysis.lyapunov_learned_step_ms": (
            "ms", 1e3 * _ratio(learned_lyap_time, learned_lyap_steps)),
        "analysis.lyapunov_analytic_step_us": (
            "us", 1e6 * _ratio(analytic_lyap_time, analytic_lyap_steps)),
        "checkpoint.bytes": ("bytes", float(checkpoint_bytes)),
        "checkpoint.loads_per_command": (
            "count", _ratio(tab.count("checkpoint.load"), checkpoint_commands)),
        "checkpoint.load_ms": (
            "ms", 1e3 * _ratio(tab.time("checkpoint.load"), tab.count("checkpoint.load"))),
        "cli.self_ms_per_command": ("ms", 1e3 * _ratio(tab.self_time_of("cli.main"), commands)),
    }
