"""Learned-dynamics models over the dense networks.

Three families, all operating on the ``(q_x, q_y, p_x, p_y)`` state layout:

* ``HnnModel`` — a scalar energy surrogate H(q, p).  Time derivatives come
  from its input gradient: dq/dt = dH/dp, dp/dt = -dH/dq.
* ``SeparableModel`` — two scalar networks K(p) and V(q) rolled out with the
  same leapfrog kernel as the ground truth; training matches whole rollout
  windows, so only time series are needed, never derivative labels.
* ``BaselineModel`` — a plain derivative regressor (q, p) -> (dq/dt, dp/dt),
  rolled out with a classic fourth-order Runge-Kutta step.

Adaptable variants append the potential parameters to the network input —
for the separable model only to V's input, so K stays parameter-blind.

Inference (derivatives, energies, rollouts) runs the untaped numpy networks
of ``nets``; only the training and validation loss graphs use the tape.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nets
from .autodiff import Tensor
from .dynamics import (
    ESCAPE_RADIUS,
    DerivativeField,
    Trajectory,
    integrate,
    kinetic_grad_columns,
)
from .errors import (
    EmptyBatch,
    IntegrationDiverged,
    ShapeMismatch,
    WindowLengthMismatch,
)


def _check_channels(adaptable, param_channels):
    if adaptable and param_channels not in (1, 2):
        raise ValueError("adaptable models need 1 or 2 parameter channels")
    if not adaptable and param_channels != 0:
        raise ValueError("non-adaptable models take 0 parameter channels")


@dataclass
class HnnModel:
    """Scalar energy surrogate H(q, p[, params]) with in-graph derivatives."""

    spec: nets.DenseNetSpec
    params: np.ndarray
    adaptable: bool = False
    param_channels: int = 0

    def __post_init__(self):
        _check_channels(self.adaptable, self.param_channels)
        if self.spec.n_inputs != 4 + self.param_channels:
            raise ShapeMismatch(
                f"H net needs {4 + self.param_channels} inputs, spec has {self.spec.n_inputs}"
            )
        if self.spec.n_outputs != 1:
            raise ShapeMismatch("H net must have a single output")
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (nets.param_count(self.spec),):
            raise ShapeMismatch("parameter vector does not match the layer sizes")


def _with_channels(x, pot_params, param_channels):
    """Append constant parameter channels to each row of a (B, n) array."""
    if param_channels == 0:
        return x
    chan = pot_params.channels(param_channels)
    return np.concatenate([x, np.broadcast_to(chan, (x.shape[0], param_channels))], axis=1)


def hnn_derivatives(model, state, pot_params):
    """(dq/dt, dp/dt) of one state under the learned Hamiltonian."""
    x = _with_channels(state.vec()[None, :], pot_params, model.param_channels)
    g = nets.grad_inputs(model.spec, model.params, x)[0]
    return g[2:4].copy(), -g[0:2]


def hnn_energy(model, states, pot_params):
    """H values over an (N, 4) block of states."""
    x = _with_channels(states, pot_params, model.param_channels)
    return nets.forward(model.spec, model.params, x)[:, 0]


def hnn_loss(model, states, qdot, pdot, channels=None):
    """Mean over the batch of the summed squared derivative mismatch.

    ``states`` is (B, 4); ``qdot``/``pdot`` are the true derivatives (B, 2).
    ``channels`` is the per-row parameter matrix (B, n_channels) for
    adaptable models.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.shape[0] == 0:
        raise EmptyBatch("hnn_loss over an empty batch")
    theta = Tensor(model.params)
    loss = _hnn_loss_graph(model.spec, theta, model.param_channels,
                           states, qdot, pdot, channels)
    return loss.item()


def _hnn_loss_graph(spec, theta, param_channels, states, qdot, pdot, channels):
    x = states if param_channels == 0 else np.concatenate([states, channels], axis=1)
    layers = nets.segment_layers(spec, theta) if theta.requires_grad else [
        (Tensor(w), Tensor(b)) for w, b in nets.unflatten_params(spec, theta.data)
    ]
    _, g = nets.net_value_and_input_gradient(spec, layers, Tensor(x))
    gq = ad.slice_cols(g, 0, 2)
    gp = ad.slice_cols(g, 2, 4)
    loss = ad.add(ad.sum_sq_diff(gp, qdot), ad.sum_sq_diff(gq, -np.asarray(pdot)))
    return ad.scale(loss, 1.0 / states.shape[0])


@dataclass
class SeparableModel:
    """Separable surrogate K(p) + V(q[, params]) for leapfrog rollouts.

    The flat parameter vector concatenates the kinetic net's parameters then
    the potential net's.  With ``fixed_kinetic`` the kinetic energy is pinned
    to |p|^2 / 2 and only V is learned.
    """

    kinetic_spec: nets.DenseNetSpec
    potential_spec: nets.DenseNetSpec
    params: np.ndarray
    adaptable: bool = False
    param_channels: int = 0
    fixed_kinetic: bool = False

    def __post_init__(self):
        _check_channels(self.adaptable, self.param_channels)
        if not self.fixed_kinetic:
            if self.kinetic_spec.n_inputs != 2 or self.kinetic_spec.n_outputs != 1:
                raise ShapeMismatch("K net must map 2 inputs to 1 output")
        if self.potential_spec.n_inputs != 2 + self.param_channels:
            raise ShapeMismatch(
                f"V net needs {2 + self.param_channels} inputs, spec has "
                f"{self.potential_spec.n_inputs}"
            )
        if self.potential_spec.n_outputs != 1:
            raise ShapeMismatch("V net must have a single output")
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (self.param_count(),):
            raise ShapeMismatch("parameter vector does not match the layer sizes")

    def kinetic_count(self):
        return 0 if self.fixed_kinetic else nets.param_count(self.kinetic_spec)

    def param_count(self):
        return self.kinetic_count() + nets.param_count(self.potential_spec)

    @property
    def kinetic_params(self):
        return self.params[: self.kinetic_count()]

    @property
    def potential_params(self):
        return self.params[self.kinetic_count():]


def separable_grad_v(model, q, pot_params):
    """dV/dq over a (B, 2) block of positions."""
    x = _with_channels(np.asarray(q, dtype=np.float64), pot_params, model.param_channels)
    return nets.grad_inputs(model.potential_spec, model.potential_params, x)[:, :2]


def separable_grad_k(model, p):
    """dK/dp over a (B, 2) block of momenta."""
    p = np.asarray(p, dtype=np.float64)
    if model.fixed_kinetic:
        return p.copy()
    return nets.grad_inputs(model.kinetic_spec, model.kinetic_params, p)


def _gradient_columns(spec, params, pot_params=None, param_channels=0):
    """Column form of a scalar net's gradient in its first two inputs, with
    the layers unflattened once, not on every step."""
    layers = nets.unflatten_params(spec, params)

    def grad(a, b):
        x = _with_channels(np.column_stack((a, b)), pot_params, param_channels)
        g = nets.numpy_input_gradient(spec, layers, x)
        return (g[0, 0], g[0, 1]) if np.ndim(a) == 0 else (g[:, 0], g[:, 1])

    return grad


def separable_columns(model, pot_params):
    """Column form ``(grad_v, grad_k)`` of the learned field for the kernel."""
    grad_v = _gradient_columns(model.potential_spec, model.potential_params,
                               pot_params, model.param_channels)
    if model.fixed_kinetic:
        return grad_v, kinetic_grad_columns
    return grad_v, _gradient_columns(model.kinetic_spec, model.kinetic_params)


def separable_field(model):
    """Adapter exposing the learned gradients as a DerivativeField."""
    return DerivativeField(
        grad_v=lambda q, pp: separable_grad_v(model, q[None, :], pp)[0],
        grad_k=lambda p: separable_grad_k(model, p[None, :])[0],
        columns=lambda pp: separable_columns(model, pp),
    )


def asrnn_rollout(model, state0, pot_params, dt, n_steps,
                  escape_radius=ESCAPE_RADIUS):
    """Leapfrog rollout under the learned K and V; the ground truth's kernel,
    so for analytic stand-ins the sequences match exactly."""
    return integrate(state0, dt, n_steps, separable_field(model), pot_params,
                     escape_radius)


def conserved_quantity(model, traj, pot_params):
    """K + V evaluated along a trajectory — the quantity rollouts conserve."""
    q, p = traj.q, traj.p
    v_in = _with_channels(q, pot_params, model.param_channels)
    v = nets.forward(model.potential_spec, model.potential_params, v_in)[:, 0]
    if model.fixed_kinetic:
        k = 0.5 * np.sum(p * p, axis=1)
    else:
        k = nets.forward(model.kinetic_spec, model.kinetic_params, p)[:, 0]
    return k + v


class _TapedSeparable:
    """Taped K/V gradients for training rollouts, sharing one flat theta."""

    def __init__(self, model, theta):
        self.model = model
        nk = model.kinetic_count()
        if theta.requires_grad:
            flat_k = ad.segment(theta, 0, nk, (nk,)) if nk else None
            flat_v = ad.segment(theta, nk, theta.data.size, (theta.data.size - nk,))
            self.k_layers = (
                None if model.fixed_kinetic
                else nets.segment_layers(model.kinetic_spec, flat_k)
            )
            self.v_layers = nets.segment_layers(model.potential_spec, flat_v)
        else:
            self.k_layers = (
                None if model.fixed_kinetic
                else [(Tensor(w), Tensor(b)) for w, b in
                      nets.unflatten_params(model.kinetic_spec, theta.data[:nk])]
            )
            self.v_layers = [(Tensor(w), Tensor(b)) for w, b in
                             nets.unflatten_params(model.potential_spec,
                                                   theta.data[nk:])]

    def grad_v(self, q, chan):
        x = q if chan is None else ad.concat_cols([q, chan])
        _, g = nets.net_value_and_input_gradient(
            self.model.potential_spec, self.v_layers, x)
        return ad.slice_cols(g, 0, 2) if chan is not None else g

    def grad_k(self, p):
        if self.model.fixed_kinetic:
            return p
        _, g = nets.net_value_and_input_gradient(
            self.model.kinetic_spec, self.k_layers, p)
        return g


def _taped_rollout(taped, q0, p0, chan, dt, n_steps):
    """Leapfrog rollout on the tape; returns lists of q and p Tensors."""
    half = 0.5 * dt
    qs, ps = [q0], [p0]
    q, p = q0, p0
    gv = taped.grad_v(q, chan)
    for _ in range(n_steps):
        p_half = ad.add_scaled(p, gv, -half)
        q = ad.add_scaled(q, taped.grad_k(p_half), dt)
        gv = taped.grad_v(q, chan)
        p = ad.add_scaled(p_half, gv, -half)
        qs.append(q)
        ps.append(p)
    return qs, ps


def srnn_loss(model, window, pot_params, dt):
    """Squared rollout mismatch of one window of states.

    ``window`` is (L, 4): the first row seeds the rollout, the remaining
    L - 1 rows are targets.  The loss sums squared position and momentum
    errors over all predicted steps.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[1] != 4 or window.shape[0] < 2:
        raise WindowLengthMismatch(f"window must be (L>=2, 4), got {window.shape}")
    theta = Tensor(model.params)
    chan = pot_params.channels(model.param_channels) if model.adaptable else None
    channels = None if chan is None else chan[None, :]
    loss, n_diverged = _srnn_loss_graph(
        model, theta, window[None, :, :], channels, dt)
    return loss.item()


DIVERGENCE_PENALTY = 1e6


def _srnn_loss_graph(model, theta, windows, channels, dt,
                     escape_radius=ESCAPE_RADIUS):
    """Batched rollout loss graph.  ``windows`` is (B, L, 4).

    Windows whose rollout leaves the escape radius are excluded from the
    graph and contribute a constant penalty instead: the divergence penalty
    plus the squared distance at the last finite step.  The rollout runs
    once; only when some window diverged is the taped rollout rerun over the
    others, since a non-finite row would poison the gradient.  Returns
    (loss, n_diverged).
    """
    b, length, _ = windows.shape
    if b == 0:
        raise EmptyBatch("rollout loss over an empty batch")
    n_steps = length - 1
    taped = _TapedSeparable(model, theta)
    chan = None if channels is None else np.asarray(channels, dtype=np.float64)

    def rollout(rows):
        q, p = Tensor(windows[rows, 0, :2]), Tensor(windows[rows, 0, 2:])
        return _taped_rollout(taped, q, p, None if chan is None else Tensor(chan[rows]),
                              dt, n_steps)

    with np.errstate(over="ignore", invalid="ignore"):
        qs, ps = rollout(slice(None))
    pred = np.stack(
        [np.concatenate([qt.data, pt.data], axis=1) for qt, pt in zip(qs, ps)],
        axis=1,
    )
    finite = np.all(np.isfinite(pred), axis=2)
    inside = finite & (
        np.max(np.abs(np.where(finite[:, :, None], pred[:, :, :2], 0.0)), axis=2)
        <= escape_radius
    )
    ok = np.all(inside, axis=1)
    penalty = 0.0
    for i in np.flatnonzero(~ok):
        last = max(int(np.argmin(inside[i])) - 1, 0)
        d = pred[i, last] - windows[i, last]
        penalty += DIVERGENCE_PENALTY + float(np.sum(d * d))

    idx = np.flatnonzero(ok)
    n_diverged = int(b - idx.size)
    if idx.size == 0:
        return Tensor(penalty / b), n_diverged
    if not theta.requires_grad:
        diff = pred[idx, 1:] - windows[idx, 1:]
        return Tensor(float(np.sum(diff * diff)) / b + penalty / b), n_diverged

    if n_diverged:
        qs, ps = rollout(idx)
    total = None
    for t in range(1, n_steps + 1):
        term = ad.add(
            ad.sum_sq_diff(qs[t], windows[idx, t, :2]),
            ad.sum_sq_diff(ps[t], windows[idx, t, 2:]),
        )
        total = term if total is None else ad.add(total, term)
    loss = ad.scale(total, 1.0 / b)
    if penalty:
        loss = ad.add(loss, Tensor(penalty / b))
    return loss, n_diverged


@dataclass
class BaselineModel:
    """Unstructured derivative regressor (q, p[, params]) -> (dq/dt, dp/dt)."""

    spec: nets.DenseNetSpec
    params: np.ndarray
    adaptable: bool = False
    param_channels: int = 0

    def __post_init__(self):
        _check_channels(self.adaptable, self.param_channels)
        if self.spec.n_inputs != 4 + self.param_channels:
            raise ShapeMismatch(
                f"baseline net needs {4 + self.param_channels} inputs, spec has "
                f"{self.spec.n_inputs}"
            )
        if self.spec.n_outputs != 4:
            raise ShapeMismatch("baseline net must have 4 outputs")
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (nets.param_count(self.spec),):
            raise ShapeMismatch("parameter vector does not match the layer sizes")


def baseline_derivatives(model, states, pot_params):
    """Predicted (B, 4) derivatives for a (B, 4) block of states."""
    x = _with_channels(np.asarray(states, dtype=np.float64), pot_params,
                       model.param_channels)
    return nets.forward(model.spec, model.params, x)


def baseline_loss(model, states, derivs, channels=None):
    """Mean squared error over batch rows and the four components."""
    states = np.asarray(states, dtype=np.float64)
    if states.shape[0] == 0:
        raise EmptyBatch("baseline loss over an empty batch")
    theta = Tensor(model.params)
    return _baseline_loss_graph(model.spec, theta, model.param_channels,
                                states, derivs, channels).item()


def _baseline_loss_graph(spec, theta, param_channels, states, derivs, channels):
    x = states if param_channels == 0 else np.concatenate([states, channels], axis=1)
    layers = nets.segment_layers(spec, theta) if theta.requires_grad else [
        (Tensor(w), Tensor(b)) for w, b in nets.unflatten_params(spec, theta.data)
    ]
    out = nets.net_apply(spec, layers, Tensor(x))
    return ad.scale(ad.sum_sq_diff(out, derivs), 1.0 / (states.shape[0] * 4))


def baseline_rollout(model, state0, pot_params, dt, n_steps,
                     escape_radius=ESCAPE_RADIUS):
    """Classic RK4 rollout of the learned derivative field."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    data = np.empty((n_steps + 1, 4))
    data[0] = state0.vec()
    cur = data[0][None, :]
    layers = nets.unflatten_params(model.spec, model.params)

    def f(x):
        return nets.numpy_forward(
            model.spec, layers, _with_channels(x, pot_params, model.param_channels))

    for i in range(1, n_steps + 1):
        k1 = f(cur)
        k2 = f(cur + 0.5 * dt * k1)
        k3 = f(cur + 0.5 * dt * k2)
        k4 = f(cur + dt * k3)
        cur = cur + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        row = cur[0]
        if not np.all(np.isfinite(row)) or np.max(np.abs(row[:2])) > escape_radius:
            raise IntegrationDiverged(f"baseline rollout diverged at step {i}", step=i)
        data[i] = row
    return Trajectory(dt=dt, data=data, params=pot_params)
