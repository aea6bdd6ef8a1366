"""Learned-dynamics models over the dense networks.

Three families, all operating on the ``(q_x, q_y, p_x, p_y)`` state layout:

* ``HnnModel`` — a scalar energy surrogate H(q, p).  Time derivatives come
  from its input gradient: dq/dt = dH/dp, dp/dt = -dH/dq.
* ``SeparableModel`` — two scalar networks K(p) and V(q) rolled out with the
  same leapfrog as the ground truth; training matches whole rollout windows,
  so only time series are needed, never derivative labels.  The model is its
  own force field, as ``dynamics.HH_FIELD`` is: ``columns(pot_params)``
  gives the float form that steps one orbit, ``block_force(pot_params)`` the
  block form that steps a batch.
* ``BaselineModel`` — a plain derivative regressor (q, p) -> (dq/dt, dp/dt),
  rolled out with a classic fourth-order Runge-Kutta step.

Adaptable variants append the potential parameters to the network input —
for the separable model only to V's input, so K stays parameter-blind —
through the one helper :func:`_with_channels`.  Rollouts and the rollout
loss judge divergence by ``dynamics.outside``, the package's one
bounded-regime rule.

Inference (derivatives, energies, rollouts) runs the numpy networks of
``nets``.  Each training loss is one closed-form tape node on the flat
parameter vector.  The rollout loss steps its windows as one (4, B) block,
in place, through ``dynamics.advance``, keeping each network call's input
(a fresh copy of the block's rows), activations and chain.  Its backward is
the discrete adjoint of the leapfrog — itself a reverse kick-drift-kick on
the costates (Sanz-Serna, SIAM Review 58, 2016) — with each call pulled
back through ``nets.input_gradient_vjp``.  Chen et al. (ICLR 2020) train the
same model by backpropagation through the unrolled leapfrog, which this
reproduces bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nets
from .autodiff import Tensor
from .dynamics import Trajectory, advance, integrate, kinetic_grad_columns, outside
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


def _with_channels(x, channels):
    """A (B, n) array with parameter channels appended to each row:
    ``channels`` is None (none appended), a (k,) vector for every row, or a
    (B, k) block."""
    if channels is None:
        return x
    return np.concatenate(
        [x, np.broadcast_to(channels, (x.shape[0], np.shape(channels)[-1]))], axis=1)


def _channels(model, pot_params):
    """The parameter channels ``model`` reads under ``pot_params``, or None."""
    return pot_params.channels(model.param_channels) if model.param_channels else None


def hnn_derivatives(model, state, pot_params):
    """(dq/dt, dp/dt) of one state under the learned Hamiltonian."""
    x = _with_channels(state.vec()[None, :], _channels(model, pot_params))
    g = nets.grad_inputs(model.spec, model.params, x)[0]
    return g[2:4].copy(), -g[0:2]


def hnn_energy(model, states, pot_params):
    """H values over an (N, 4) block of states."""
    x = _with_channels(states, _channels(model, pot_params))
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
    """The derivative-matching loss as one tape node on ``theta``; its
    backward is the second-order VJP of the network's input gradient."""
    x = _with_channels(states, channels if param_channels else None)
    layers = nets.unflatten_params(spec, theta.data)
    acts = nets.hidden_activations(spec, layers, x)
    g, chain = nets.input_gradient(spec, layers, x, acts)
    neg_pdot = -np.asarray(pdot)
    d_q = g[:, 2:4] - qdot
    d_p = g[:, 0:2] - neg_pdot
    c = 1.0 / states.shape[0]

    def backward(g_out):
        scale = g_out * c * 2.0
        u = np.zeros_like(g)
        u[:, 0:2] = scale * d_p
        u[:, 2:4] = scale * d_q
        grads = nets.new_gradients(layers)
        nets.input_gradient_vjp(spec, layers, x, acts, chain, u, grads, need_x=False)
        return (nets.flatten_params(grads),)

    return ad.node(((d_q * d_q).sum() + (d_p * d_p).sum()) * c, (theta,), backward)


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

    def columns(self, pot_params):
        """The learned field in the float form ``(grad_v, grad_k)``."""
        k_layers, v_layers = _separable_layers(self, self.params)
        grad_v = _gradient_columns(self.potential_spec, v_layers, _channels(self, pot_params))
        if self.fixed_kinetic:
            return grad_v, kinetic_grad_columns
        return grad_v, _gradient_columns(self.kinetic_spec, k_layers)

    def block_force(self, pot_params):
        """The learned field in the block form ``(grad_v, grad_k)`` of
        ``dynamics.advance``; ``grad_k`` None with a fixed kinetic energy."""
        k_layers, v_layers = _separable_layers(self, self.params)
        grad_v = _gradient_block(self.potential_spec, v_layers, _channels(self, pot_params))
        if self.fixed_kinetic:
            return grad_v, None
        return grad_v, _gradient_block(self.kinetic_spec, k_layers)


def _net_gradient(spec, layers, channels=None, record=None, calls=None):
    """A scalar net's input gradient as ``grad(x)`` of a fresh (B, 2) array.

    ``channels`` — a (k,) vector for every row, or a (B, k) block — fills the
    remaining inputs.  With a ``record``, each call appends its input,
    activations and chain to the record's list ``calls``, in arrays the
    record supplies, for the rollout's adjoint.
    """
    empty = np.empty if record is None else record.empty

    def grad(x):
        x = _with_channels(x, channels)
        acts = nets.hidden_activations(spec, layers, x, empty)
        g, chain = nets.input_gradient(spec, layers, x, acts, empty=empty)
        if calls is not None:
            calls.append((x, acts, chain))
        return g

    return grad


def _gradient_columns(spec, layers, channels=None):
    """Float form of :func:`_net_gradient`: ``(g_x, g_y)`` of two floats,
    or of two (B,) columns."""
    grad = _net_gradient(spec, layers, channels)

    def columns(a, b):
        g = grad(np.column_stack((a, b)))
        return (g[0, 0], g[0, 1]) if np.ndim(a) == 0 else (g[:, 0], g[:, 1])

    return columns


def _gradient_block(spec, layers, channels=None, record=None, calls=None):
    """Block binder of :func:`_net_gradient` for ``dynamics.advance``.  Each
    call reads its (2, B) input block through a fresh (B, 2) copy, so a
    recorded call never holds a view of the block the next step writes."""
    grad = _net_gradient(spec, layers, channels, record, calls)

    def bind(x, out):
        def call():
            out[...] = grad(x.T.copy())[:, :2].T

        return call

    return bind


def _separable_layers(model, flat):
    """``(K layers or None, V layers)`` of a flat separable parameter vector."""
    nk = model.kinetic_count()
    k_layers = (None if model.fixed_kinetic
                else nets.unflatten_params(model.kinetic_spec, flat[:nk]))
    return k_layers, nets.unflatten_params(model.potential_spec, flat[nk:])


def asrnn_rollout(model, state0, pot_params, dt, n_steps):
    """Leapfrog rollout under the learned K and V; the ground truth's kernel,
    so for analytic stand-ins the sequences match exactly."""
    return integrate(state0, dt, n_steps, model, pot_params)


def conserved_quantity(model, traj, pot_params):
    """K + V evaluated along a trajectory — the quantity rollouts conserve."""
    q, p = traj.q, traj.p
    v_in = _with_channels(q, _channels(model, pot_params))
    v = nets.forward(model.potential_spec, model.potential_params, v_in)[:, 0]
    if model.fixed_kinetic:
        k = 0.5 * np.sum(p * p, axis=1)
    else:
        k = nets.forward(model.kinetic_spec, model.kinetic_params, p)[:, 0]
    return k + v


class ArrayPool:
    """Arrays recycled from one training step to the next.

    A rollout node keeps about 50 MB of activations at the acceptance size.
    Freed all at once after each backward, that memory goes back to the
    system and the next step faults every page in again, which cost more
    than the node saved.  Borrowed from a pool through a lease, the arrays
    are allocated once per run.
    """

    def __init__(self):
        self._free, self._taken = {}, set()

    def take(self, shape):
        self._taken.add(shape)
        stack = self._free.get(shape)
        return stack.pop() if stack else np.empty(shape)

    def give_back(self, arrays):
        for a in arrays:
            self._free.setdefault(a.shape, []).append(a)

    def prune(self):
        """Drop the kept arrays of shapes not taken since the last prune."""
        self._free = {s: v for s, v in self._free.items() if s in self._taken}
        self._taken = set()


class _Lease:
    """Arrays borrowed from ``pool`` (plain new arrays without one), all
    handed back by ``release``, after which they must not be read."""

    def __init__(self, pool=None):
        self.pool, self._lent = pool, []

    def empty(self, shape):
        a = np.empty(shape) if self.pool is None else self.pool.take(shape)
        self._lent.append(a)
        return a

    def release(self):
        if self.pool is not None:
            self.pool.give_back(self._lent)
        self._lent = []


class _CallRecord(_Lease):
    """The V and K gradient calls of one training rollout in time order;
    their arrays are borrowed through this lease."""

    def __init__(self, pool=None):
        super().__init__(pool)
        self.v_calls, self.k_calls = [], []

    def release(self):
        self.v_calls, self.k_calls = [], []
        super().release()
        if self.pool is not None:
            self.pool.prune()


def _window_rollout(model, layers, starts, channels, dt, n_steps, record=None):
    """Kernel rollout of (B, 4) start rows; the (B, n_steps + 1, 4) states.

    A ``_CallRecord`` receives each V and K gradient call for
    :func:`_rollout_adjoint`.
    """
    k_layers, v_layers = layers
    v_calls, k_calls = (None, None) if record is None else (record.v_calls, record.k_calls)
    grad_v = _gradient_block(model.potential_spec, v_layers, channels, record, v_calls)
    grad_k = (None if model.fixed_kinetic
              else _gradient_block(model.kinetic_spec, k_layers, None, record, k_calls))
    block = starts.T.copy()
    states = np.empty((n_steps + 1,) + block.shape)
    states[0] = block
    advance(block, dt, n_steps, grad_v, grad_k, out=states[1:])
    return np.ascontiguousarray(states.transpose(2, 0, 1))


def _rollout_adjoint(model, layers, record, resid, scale, dt):
    """Flat parameter gradient of the window loss by the discrete adjoint of
    the leapfrog: a reverse kick-drift-kick on the costates of (q, p).

    ``resid`` is the (B, n + 1, 4) rollout minus its targets and ``scale``
    the loss's derivative per unit of residual.  Each V and K call's costate
    is pulled back through ``nets.input_gradient_vjp``; its H·u output feeds
    the costate of the position or momentum the call read.  The sums keep
    the order of the op-by-op tape, so the gradient is bit-identical to it:
    the position costate adds the target's term, the next position's and
    then V's; the calls accumulate newest first when each gradient depends
    on the state, and oldest first otherwise.
    """
    k_layers, v_layers = layers
    v_calls, k_calls = record.v_calls, record.k_calls
    v_spec, k_spec = model.potential_spec, model.kinetic_spec
    v_grads = nets.new_gradients(v_layers)
    k_grads = None if model.fixed_kinetic else nets.new_gradients(k_layers)
    coupled = v_spec.activation == "tanh" and len(v_layers) > 1
    deferred = []

    def pull(spec, net_layers, call, u, grads, need_x=True):
        if not coupled:
            deferred.append((spec, net_layers, call, u, grads))
            return None
        scratch = _Lease(record.pool)
        x, acts, chain = call
        hu = nets.input_gradient_vjp(spec, net_layers, x, acts, chain, u, grads, need_x,
                                     scratch.empty)
        scratch.release()
        return hu

    def padded(g):  # V's gradient output costate, zero in the channel columns
        if v_spec.n_inputs == 2:
            return g
        u = np.zeros((g.shape[0], v_spec.n_inputs))
        u[:, :2] = g
        return u

    half = 0.5 * dt
    lam_q = lam_h = None  # costates of the next position and next half-kick
    for t in range(len(v_calls) - 1, 0, -1):
        g_p = scale * resid[:, t, 2:]
        if lam_h is not None:
            g_p = g_p + lam_h
        g_f = -half * g_p
        if lam_h is not None:
            g_f = g_f + -half * lam_h
        hu = pull(v_spec, v_layers, v_calls[t], padded(g_f), v_grads)
        g_q = scale * resid[:, t, :2]
        if lam_q is not None:
            g_q = g_q + lam_q
        if hu is not None:
            g_q = g_q + hu[:, :2]
        g_k = dt * g_q
        if model.fixed_kinetic:
            lam_h = g_p + g_k
        else:
            hk = pull(k_spec, k_layers, k_calls[t - 1], g_k, k_grads)
            lam_h = g_p if hk is None else g_p + hk
        lam_q = g_q
    pull(v_spec, v_layers, v_calls[0], padded(-half * lam_h), v_grads, need_x=False)
    for spec, net_layers, (x, acts, chain), u, grads in reversed(deferred):
        nets.input_gradient_vjp(spec, net_layers, x, acts, chain, u, grads, need_x=False)
    flat = nets.flatten_params(v_grads)
    return flat if k_grads is None else np.concatenate([nets.flatten_params(k_grads), flat])


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
    chan = _channels(model, pot_params)
    channels = None if chan is None else chan[None, :]
    loss, n_diverged = _srnn_loss_graph(
        model, theta, window[None, :, :], channels, dt)
    return loss.item()


DIVERGENCE_PENALTY = 1e6


def _srnn_loss_graph(model, theta, windows, channels, dt, pool=None):
    """Batched rollout loss as one tape node on ``theta``.  ``windows`` is
    (B, L, 4).

    Windows whose rollout leaves the bounded regime are excluded and
    contribute a constant penalty instead: the divergence penalty plus the
    squared distance at the last finite step.  The rollout runs once; only
    when some window diverged is it rerun over the others, so that the loss
    and gradient of the finite rows are those of a batch without them.  The
    loss sums each step's squared position and momentum errors in time
    order; training and validation read the same value.  The node's
    backward is :func:`_rollout_adjoint`; ``pool``, an :class:`ArrayPool`,
    lends the arrays that keep the activations between forward and
    backward.  Returns (loss, n_diverged).
    """
    b, length, _ = windows.shape
    if b == 0:
        raise EmptyBatch("rollout loss over an empty batch")
    n_steps = length - 1
    layers = _separable_layers(model, theta.data)
    chan = None if channels is None else np.asarray(channels, dtype=np.float64)

    def rollout(rows):
        record = _CallRecord(pool) if theta.requires_grad else None
        with np.errstate(over="ignore", invalid="ignore"):
            pred = _window_rollout(model, layers, windows[rows, 0],
                                   None if chan is None else chan[rows], dt, n_steps, record)
        return pred, record

    pred, record = rollout(slice(None))
    inside = ~outside(pred)
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
    if n_diverged:
        if record is not None:
            record.release()
        pred, record = rollout(idx)
    resid = pred - windows[idx]
    total = None
    for t in range(1, n_steps + 1):
        d_q, d_p = resid[:, t, :2], resid[:, t, 2:]
        term = (d_q * d_q).sum() + (d_p * d_p).sum()
        total = term if total is None else total + term
    c = 1.0 / b
    value = total * c
    if penalty:
        value = value + penalty / b

    def backward(g_out):
        grad = _rollout_adjoint(model, layers, record, resid, g_out * c * 2.0, dt)
        record.release()
        return (grad,)

    return ad.node(value, (theta,), backward), n_diverged


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
    x = _with_channels(np.asarray(states, dtype=np.float64), _channels(model, pot_params))
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
    """Mean squared derivative error as one tape node on ``theta``."""
    x = _with_channels(states, channels if param_channels else None)
    layers = nets.unflatten_params(spec, theta.data)
    acts = nets.hidden_activations(spec, layers, x)
    out = nets.numpy_forward(spec, layers, x, acts)
    if out.shape != np.shape(derivs):
        raise ShapeMismatch(f"targets must be {out.shape}, got {np.shape(derivs)}")
    diff = out - derivs
    c = 1.0 / (states.shape[0] * 4)

    def backward(g_out):
        grads = nets.new_gradients(layers)
        nets.forward_vjp(spec, layers, x, acts, g_out * c * 2.0 * diff, grads)
        return (nets.flatten_params(grads),)

    return ad.node((diff * diff).sum() * c, (theta,), backward)


def baseline_rollout(model, state0, pot_params, dt, n_steps):
    """Classic RK4 rollout of the learned derivative field."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    data = np.empty((n_steps + 1, 4))
    data[0] = state0.vec()
    cur = data[0][None, :]
    layers = nets.unflatten_params(model.spec, model.params)
    chan = _channels(model, pot_params)

    def f(x):
        return nets.numpy_forward(model.spec, layers, _with_channels(x, chan))

    for i in range(1, n_steps + 1):
        k1 = f(cur)
        k2 = f(cur + 0.5 * dt * k1)
        k3 = f(cur + 0.5 * dt * k2)
        k4 = f(cur + dt * k3)
        cur = cur + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        row = cur[0]
        if outside(row):
            raise IntegrationDiverged(f"baseline rollout diverged at step {i}", step=i)
        data[i] = row
    return Trajectory(dt=dt, data=data, params=pot_params)
