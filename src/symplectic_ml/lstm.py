"""Recurrent encoder that reconstructs hidden phase-space coordinates.

A single LSTM cell reads a window of partial observations ``(q_x, p_x)`` one
step at a time; an affine head on the final hidden state emits the hidden
coordinates at the window's last step together with the potential parameters:
``(q_y, p_y, alpha)`` or ``(q_y, p_y, alpha, beta)``.

Flat parameter order: for each gate in (forget, input, output, candidate):
input weights U (hidden x input, row-major), recurrent weights V
(hidden x hidden, row-major), bias; then the head weights
(n_outputs x hidden) and head bias.  :func:`encoder_parts` states it once,
as views that stack the gates into U (4, h, 2), V (4, h, h) and b (4, 1, h):
the init writes through them, a step computes all four gates from one
stacked product (Appleyard, Kocisky & Blunsom, arXiv:1604.01946), and the
gradient is added into the same views of one zeroed flat vector.  Hidden
and cell states start at zero for every window.

One numpy cell, :func:`lstm_step`, serves training, validation and
inference; it works in place on a (6, B, h) block whose rows are f, i, o,
g, c and tanh(c'), and its sigmoid runs in place too.  The training loss on
a window batch is one node on the flat parameters,
:func:`_encoder_loss_graph`, which training and the tests call directly;
its backward runs backpropagation through time in closed form (Werbos 1990;
Hochreiter & Schmidhuber 1997), bit-identical to the same cell built op by
op on the reference tape of the tests.  Following Appleyard et al., a
training pass projects the inputs of all steps with one product, keeps
every step's block in one (window_len + 1, 6, B, h) activation buffer and
its hidden states in one (window_len + 1, B, h) buffer, and forms the
weight gradients of all steps after the backward sweep, one batched
product per weight stack.  Both buffers come from a
:class:`~symplectic_ml.models.Workspace` that training keeps from batch to
batch.  Inference keeps one block for all steps, so its memory does not
grow with the window.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from . import nets
from .dynamics import PhaseState, PotentialParams
from .errors import EmptyBatch, ShapeMismatch, TooShort, WindowLengthMismatch
from .models import Workspace, rollout

INPUT_SIZE = 2


@dataclass
class EncoderModel:
    """LSTM cell plus affine head mapping observation windows to
    (q_y, p_y, parameters)."""

    hidden_size: int
    window_len: int
    param_outputs: int
    params: np.ndarray

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")
        if self.param_outputs not in (1, 2):
            raise ValueError("param_outputs must be 1 or 2")
        self.params = np.asarray(self.params, dtype=np.float64)
        expected = encoder_param_count(self.hidden_size, self.param_outputs)
        if self.params.shape != (expected,):
            raise ShapeMismatch(
                f"expected {expected} parameters, got shape {self.params.shape}"
            )

    @property
    def n_outputs(self):
        return 2 + self.param_outputs


def encoder_param_count(hidden_size, param_outputs):
    h = hidden_size
    n_out = 2 + param_outputs
    return 4 * (h * INPUT_SIZE + h * h + h) + n_out * h + n_out


def init_encoder_params(hidden_size, param_outputs, seed):
    """Scaled-uniform weights drawn in the flat order, zero biases;
    deterministic per seed."""
    flat = np.zeros(encoder_param_count(hidden_size, param_outputs))
    u, v, _, wh, _ = encoder_parts(flat, hidden_size, param_outputs)
    nets.fill_scaled_uniform(np.random.default_rng(seed),
                             [m for pair in zip(u, v) for m in pair] + [wh])
    return flat


def encoder_parts(flat, hidden_size, param_outputs):
    """Views of a flat parameter array, the one statement of its order:
    the gate stacks ``U`` (4, h, 2), ``V`` (4, h, h) and ``b`` (4, 1, h),
    gates in the order f, i, o, c, then the head ``Wh`` (n_out, h) and
    ``bh`` (n_out,)."""
    h, n_out = hidden_size, 2 + param_outputs
    nu, nv = h * INPUT_SIZE, h * h
    gates = flat[: 4 * (nu + nv + h)].reshape(4, nu + nv + h)
    head = flat[4 * (nu + nv + h) :]
    return (gates[:, :nu].reshape(4, h, INPUT_SIZE), gates[:, nu : nu + nv].reshape(4, h, h),
            gates[:, nu + nv :].reshape(4, 1, h), head[: n_out * h].reshape(n_out, h),
            head[n_out * h :])


def lstm_step(parts, x, h, c, rows=None, h_out=None, c_out=None):
    """One LSTM cell update on (batch, ·) arrays, all four gates from one
    stacked pre-activation, in place on ``rows``, a (6, B, h) block: rows
    0–3 end as the gates f, i, o, g and row 5 as tanh(c'); row 4 is the
    caller's (training keeps c there).  With ``x`` None, rows 0–3 must
    already hold ``x @ Uᵀ + b``.  ``h'`` and ``c'`` are written to ``h_out``
    and ``c_out``, which may be ``h`` and ``c`` (new arrays when None).
    Returns ``(h', c', rows)``."""
    u, v, b = parts[:3]
    if rows is None:
        rows = np.empty((6, *h.shape))
    z, s = rows[:4], rows[:3]
    if x is not None:
        np.matmul(x, u.transpose(0, 2, 1), out=z)
        z += b
    z += h @ v.transpose(0, 2, 1)
    # 1 / (1 + exp(-a)), op by op in place
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    np.tanh(rows[3], out=rows[3])
    c_new = np.multiply(rows[0], c, out=c_out)
    c_new += rows[1] * rows[3]
    np.tanh(c_new, out=rows[5])
    return np.multiply(rows[2], rows[5], out=h_out), c_new, rows


def _encode_graph(model, params, windows, need_grad=False, work=None):
    """Head outputs for a (B, window_len, 2) batch of observation windows
    under the flat ``params``, and the pullback that maps the outputs'
    gradient to the flat parameter gradient.

    With ``need_grad``, one product projects the inputs of all steps into a
    (window_len + 1, 6, B, h) activation buffer, whose block t ends as step
    t's rows f, i, o, g, c, tanh(c') (the last block holds the final c'),
    and the hidden states go to a (window_len + 1, B, h) buffer.  Both come
    from ``work`` (a new :class:`~symplectic_ml.models.Workspace` if None),
    reset here, so the pullback must run before its next reset.  Without
    it, the pullback is None and every step reuses one (6, B, h) block, so
    memory does not grow with the window length.
    """
    n, length, width = windows.shape
    if length != model.window_len or width != INPUT_SIZE:
        raise WindowLengthMismatch(
            f"windows must be (B, {model.window_len}, {INPUT_SIZE}), got "
            f"{windows.shape}"
        )
    hid = model.hidden_size
    parts = u, _, b, wh, bh = encoder_parts(params, hid, model.param_outputs)
    if need_grad:
        work = Workspace() if work is None else work
        work.reset()
        acts = work.empty((length + 1, 6, n, hid))
        hs = work.empty((length + 1, n, hid))
        z = acts[:length, :4]
        np.matmul(windows.transpose(1, 0, 2)[:, None], u.transpose(0, 2, 1), out=z)
        z += b
        hs[0] = acts[0, 4] = 0.0
        for t in range(length):
            lstm_step(parts, None, hs[t], acts[t, 4], acts[t], hs[t + 1], acts[t + 1, 4])
        h = hs[length]
    else:
        rows = np.empty((6, n, hid))
        h, c = np.zeros((n, hid)), rows[4]
        c[...] = 0.0
        for t in range(length):
            lstm_step(parts, windows[:, t], h, c, rows, h, c)
    out = h @ wh.T + bh
    if not need_grad:
        return out, None
    return out, lambda g: _bptt(model, parts, windows, acts, hs, work, g)


def _bptt(model, parts, windows, acts, hs, work, g_out):
    """Backpropagation through time: the flat parameter gradient, given the
    gradient ``g_out`` of the head outputs, added into the
    :func:`encoder_parts` views of one zeroed flat array.

    ``acts`` and ``hs`` are the forward's buffers.  The sweep runs from the
    last step to the first, each elementwise op on a stack of gates
    (``1 - [f, i, o]``, ``[g, tanh(c')]²``, ``dc·[c, g]``), and writes step
    t's gate gradients ``dz`` (rows f, i, o, c) over step t + 1's gates in
    ``acts``, which the sweep has used; the hidden state's gradient is one
    batched ``dz @ V``.  After the sweep, one batched product each forms the
    U and V terms of every step, and one reduction over the batch axis the
    bias terms; the terms are then added into the gradient from the last
    step back to the first.  That order, and every expression, is the taped
    cell's, so the result is bit-identical to it; the hidden state's
    gradient adds the gates in the taped order o, f, i, c.  The sweep's
    temporaries come from ``work`` too.
    """
    hid = model.hidden_size
    n, length = windows.shape[:2]
    grad = np.zeros(encoder_param_count(hid, model.param_outputs))
    _, _, _, dwh, dbh = encoder_parts(grad, hid, model.param_outputs)
    _, v, _, wh, _ = parts
    dwh += g_out.T @ hs[length]
    dbh += g_out.sum(axis=0)
    dh = g_out @ wh
    dzs = acts[1:, :4]  # step t's gradients go over step t + 1's gates
    om = work.empty((3, n, hid))   # 1 - [f, i, o]
    sq = work.empty((2, n, hid))   # 1 - [g², tanh(c')²]
    dc = work.empty((n, hid))      # the cell state's gradient
    tmp = work.empty((n, hid))
    dhv = work.empty((4, n, hid))
    dc[...] = 0.0
    for t in range(length - 1, -1, -1):
        a, dz = acts[t], dzs[t]
        f, i, o, _, _, tc = a
        np.subtract(1.0, a[:3], out=om)
        np.multiply(a[3::2], a[3::2], out=sq)
        np.subtract(1.0, sq, out=sq)
        np.multiply(dh, o, out=tmp)
        tmp *= sq[1]
        dc += tmp
        np.multiply(dc, a[4:2:-1], out=dz[:2])  # dc·[c, g]
        dz[:2] *= a[:2]
        dz[:2] *= om[:2]
        np.multiply(dh, tc, out=dz[2])
        dz[2] *= o
        dz[2] *= om[2]
        np.multiply(dc, i, out=dz[3])
        dz[3] *= sq[0]
        np.matmul(dz, v, out=dhv)
        np.add(dhv[2], 0.0, out=dh)  # 0.0 + o + f + i + c, as on the tape
        dh += dhv[0]
        dh += dhv[1]
        dh += dhv[3]
        dc *= f
    nu, nv = hid * INPUT_SIZE, hid * hid
    terms = work.empty((length, 4, nu + nv + hid))
    dz_t = dzs.transpose(0, 1, 3, 2)
    np.matmul(dz_t, windows.transpose(1, 0, 2)[:, None],
              out=terms[:, :, :nu].reshape(length, 4, hid, INPUT_SIZE))
    np.matmul(dz_t, hs[:length, None], out=terms[:, :, nu : nu + nv].reshape(length, 4, hid, hid))
    # summed in place over the batch axis, as the tape sums each step: numpy
    # sums a lone unit's column pairwise, so a B-major copy would not keep hidden 1's bits
    dzs.sum(axis=2, out=terms[:, :, nu + nv :])
    gates = grad[: 4 * (nu + nv + hid)].reshape(4, nu + nv + hid)
    for t in range(length - 1, -1, -1):
        gates += terms[t]
    return grad


def encode_window(model, window):
    """Reconstruct (q_y, p_y) at the window's last step plus the parameter
    estimates, from one (window_len, 2) block of (q_x, p_x) rows."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ShapeMismatch(f"window must be 2-D, got shape {window.shape}")
    out = _encode_graph(model, model.params, window[None, :, :])[0][0]
    return out[0], out[1], out[2:].copy()


def _encoder_loss_graph(model, theta, windows, targets, work=None):
    """Mean over the batch of summed squared output errors, as one node on
    ``theta``; its backward pulls the head's costate back through
    :func:`_bptt`.

    ``windows`` is (B, window_len, 2); ``targets`` is (B, 2 + param_outputs)
    holding (q_y, p_y, parameters) at each window's last step; ``work``
    holds the buffers of a pass that records gradients (:func:`_encode_graph`).
    """
    if windows.shape[0] == 0:
        raise EmptyBatch("encoder loss over an empty batch")
    if targets.shape != (windows.shape[0], model.n_outputs):
        raise ShapeMismatch(
            f"targets must be ({windows.shape[0]}, {model.n_outputs}), got "
            f"{targets.shape}"
        )
    out, pullback = _encode_graph(model, theta.data, windows, theta.requires_grad, work)
    diff = out - targets
    c = 1.0 / windows.shape[0]
    # adding 0.0 turns a negative zero of the costate positive, as on the tape
    return ad.node((diff * diff).sum() * c, theta,
                   lambda g_out: pullback(np.add(g_out * c * 2.0 * diff, 0.0)))


@dataclass(frozen=True)
class ParamEstimate:
    """Ensemble statistics of per-window parameter estimates."""

    mean: np.ndarray
    std: np.ndarray
    n_windows: int
    samples: np.ndarray


def infer_param_ensemble(model, observed, stride=1):
    """Parameter estimates from every window of an observed series.

    ``observed`` is (T, 2) rows of (q_x, p_x).  Windows start at
    0, stride, 2*stride, ...; there are floor((T - window_len) / stride) + 1
    of them.  Returns per-channel mean and population standard deviation.
    """
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim != 2 or observed.shape[1] != INPUT_SIZE:
        raise ShapeMismatch(f"observed must be (T, 2), got {observed.shape}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    w = model.window_len
    t_total = observed.shape[0]
    if t_total < w:
        raise TooShort(f"need at least {w} observations, got {t_total}")
    # (windows, w, 2) views of the series, one per start
    windows = sliding_window_view(observed, w, axis=0)[::stride].transpose(0, 2, 1)
    samples = _encode_graph(model, model.params, windows)[0][:, 2:]
    return ParamEstimate(
        mean=samples.mean(axis=0),
        std=samples.std(axis=0),
        n_windows=len(windows),
        samples=samples,
    )


@dataclass(frozen=True)
class PartialPrediction:
    """Reconstructed full state, parameter estimates, and the rollout."""

    state0: PhaseState
    estimate: ParamEstimate
    trajectory: "Trajectory"


def predict_from_partial(encoder, model, observed, dt, horizon, stride=1):
    """Reconstruct the full state from partial observations and roll forward.

    The parameter estimate is the ensemble mean over all observation windows;
    the hidden coordinates come from the final window (targets sit at the
    window's last step, i.e. the last observed time).  The model then rolls
    ``horizon`` steps forward through ``models.rollout``: the leapfrog for a
    force field, RK4 for a derivative model.
    """
    observed = np.asarray(observed, dtype=np.float64)
    estimate = infer_param_ensemble(encoder, observed, stride)
    q_y, p_y, _ = encode_window(encoder, observed[-encoder.window_len :])
    state0 = PhaseState(
        q=np.array([observed[-1, 0], q_y]), p=np.array([observed[-1, 1], p_y])
    )
    if encoder.param_outputs == 1:
        pot = PotentialParams.single(estimate.mean[0])
    else:
        pot = PotentialParams(alpha=float(estimate.mean[0]), beta=float(estimate.mean[1]))
    traj = rollout(model, state0, pot, dt, horizon)
    return PartialPrediction(state0=state0, estimate=estimate, trajectory=traj)
