"""Recurrent encoder that reconstructs hidden phase-space coordinates.

A single LSTM cell reads a window of partial observations ``(q_x, p_x)`` one
step at a time; an affine head on the final hidden state emits the hidden
coordinates at the window's last step together with the potential parameters:
``(q_y, p_y, alpha)`` or ``(q_y, p_y, alpha, beta)``.

Flat parameter order: for each gate in (forget, input, output, candidate):
input weights U (hidden x input, row-major), recurrent weights V
(hidden x hidden, row-major), bias; then the head weights
(n_outputs x hidden) and head bias.  Hidden and cell states start at zero
for every window.

One numpy cell, :func:`lstm_step`, serves training, validation and
inference.  For training, the loss on a whole unrolled window batch is one
node on the flat parameters: its forward keeps each step's gates and its
backward runs backpropagation through time in closed form (Werbos 1990;
Hochreiter & Schmidhuber 1997), bit-identical to the same cell built op by
op on the reference tape of the tests.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dynamics import PhaseState, PotentialParams
from .errors import EmptyBatch, ShapeMismatch, TooShort, WindowLengthMismatch
from .models import asrnn_rollout

INPUT_SIZE = 2
GATES = ("f", "i", "o", "c")


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
    """Scaled-uniform weights per matrix, zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    h = hidden_size
    n_out = 2 + param_outputs
    flat = []
    for _ in GATES:
        r_u = np.sqrt(6.0 / (INPUT_SIZE + h))
        flat.append(rng.uniform(-r_u, r_u, size=h * INPUT_SIZE))
        r_v = np.sqrt(6.0 / (h + h))
        flat.append(rng.uniform(-r_v, r_v, size=h * h))
        flat.append(np.zeros(h))
    r_w = np.sqrt(6.0 / (h + n_out))
    flat.append(rng.uniform(-r_w, r_w, size=n_out * h))
    flat.append(np.zeros(n_out))
    return np.concatenate(flat)


def encoder_parts(flat, hidden_size, param_outputs):
    """Views of a flat parameter array: the gate arrays ``U{g}``, ``V{g}``,
    ``b{g}`` and the head ``Wh``, ``bh``, in the flat order."""
    h, n_out = hidden_size, 2 + param_outputs
    shapes = {}
    for gate in GATES:
        shapes.update({f"U{gate}": (h, INPUT_SIZE), f"V{gate}": (h, h), f"b{gate}": (h,)})
    shapes.update(Wh=(n_out, h), bh=(n_out,))
    parts, i = {}, 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        parts[name], i = flat[i : i + n].reshape(shape), i + n
    return parts


def _gate(parts, k, x, h):
    z = (x @ parts[f"U{k}"].T + parts[f"b{k}"]) + h @ parts[f"V{k}"].T
    return np.tanh(z) if k == "c" else 1.0 / (1.0 + np.exp(-z))


def lstm_step(parts, x, h, c):
    """One LSTM cell update on (batch, input) arrays.  Returns ``(h', c',
    gates)``, where ``gates = (f, i, o, g, tanh(c'))`` are the activations
    backpropagation through time reuses."""
    f, i, o, g = (_gate(parts, k, x, h) for k in GATES)
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (f, i, o, g, tc)


def _encode_graph(model, params, windows, need_grad=False):
    """Head outputs for a (B, window_len, 2) batch of observation windows
    under the flat ``params``, and the pullback that maps the outputs'
    gradient to the flat parameter gradient; with ``need_grad`` false no
    step's gates are kept and the pullback is None."""
    b, length, width = windows.shape
    if length != model.window_len or width != INPUT_SIZE:
        raise WindowLengthMismatch(
            f"windows must be (B, {model.window_len}, {INPUT_SIZE}), got "
            f"{windows.shape}"
        )
    parts = encoder_parts(params, model.hidden_size, model.param_outputs)
    h = c = np.zeros((b, model.hidden_size))
    steps = []
    for t in range(length):
        x = windows[:, t, :]
        h_new, c_new, gates = lstm_step(parts, x, h, c)
        if need_grad:
            steps.append((x, h, c, gates))
        h, c = h_new, c_new
    out = h @ parts["Wh"].T + parts["bh"]
    return out, (lambda g: _bptt(parts, steps, h, g)) if need_grad else None


def _bptt(parts, steps, h_last, g_out):
    """Backpropagation through time: the flat parameter gradient, given the
    gradient ``g_out`` of the head outputs.

    The expressions and their summation order are the taped cell's, so the
    result is bit-identical to it: each parameter's gradient accumulates
    from the last step back to the first, and the gates add to the hidden
    state's gradient in the order o, f, i, c.
    """
    grads = {"Wh": g_out.T @ h_last, "bh": g_out.sum(axis=0)}
    dh, dc_next = g_out @ parts["Wh"], 0.0
    for x, h, c, (f, i, o, g, tc) in reversed(steps):
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dz = {"o": dh * tc * o * (1.0 - o), "f": dc * c * f * (1.0 - f),
              "i": dc * g * i * (1.0 - i), "c": dc * i * (1.0 - g * g)}
        dh = 0.0
        for k, z in dz.items():
            for name, gz in ((f"U{k}", z.T @ x), (f"b{k}", z.sum(axis=0)), (f"V{k}", z.T @ h)):
                grads[name] = grads[name] + gz if name in grads else gz
            dh = dh + z @ parts[f"V{k}"]
        dc_next = dc * f
    return np.concatenate([grads[name].ravel() for name in parts])


def encode_window(model, window):
    """Reconstruct (q_y, p_y) at the window's last step plus the parameter
    estimates, from one (window_len, 2) block of (q_x, p_x) rows."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ShapeMismatch(f"window must be 2-D, got shape {window.shape}")
    out = _encode_graph(model, model.params, window[None, :, :])[0][0]
    return out[0], out[1], out[2:].copy()


def encoder_loss(model, windows, targets):
    """Mean over the batch of summed squared output errors.

    ``windows`` is (B, window_len, 2); ``targets`` is (B, 2 + param_outputs)
    holding (q_y, p_y, parameters) at each window's last step.
    """
    windows = np.asarray(windows, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if windows.shape[0] == 0:
        raise EmptyBatch("encoder loss over an empty batch")
    theta = Tensor(model.params)
    return _encoder_loss_graph(model, theta, windows, targets).item()


def _encoder_loss_graph(model, theta, windows, targets):
    """:func:`encoder_loss` as one node on ``theta``; its backward
    pulls the head's costate back through :func:`_bptt`."""
    if targets.shape != (windows.shape[0], model.n_outputs):
        raise ShapeMismatch(
            f"targets must be ({windows.shape[0]}, {model.n_outputs}), got "
            f"{targets.shape}"
        )
    out, pullback = _encode_graph(model, theta.data, windows, theta.requires_grad)
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
    starts = np.arange(0, t_total - w + 1, stride)
    windows = np.stack([observed[s : s + w] for s in starts])
    samples = _encode_graph(model, model.params, windows)[0][:, 2:]
    return ParamEstimate(
        mean=samples.mean(axis=0),
        std=samples.std(axis=0),
        n_windows=len(starts),
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
    window's last step, i.e. the last observed time).  The rollout then runs
    ``horizon`` leapfrog steps under the learned Hamiltonian.
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
    traj = asrnn_rollout(model, state0, pot, dt, horizon)
    return PartialPrediction(state0=state0, estimate=estimate, trajectory=traj)
