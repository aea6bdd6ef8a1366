"""Learned-dynamics models over the dense networks.

Three families, all operating on the ``(q_x, q_y, p_x, p_y)`` state layout:

* ``HnnModel`` — a scalar energy surrogate H(q, p).  Time derivatives come
  from its input gradient: dq/dt = dH/dp, dp/dt = -dH/dq.
* ``SeparableModel`` — two scalar networks K(p) and V(q) rolled out with the
  same leapfrog as the ground truth; training matches whole rollout windows,
  so only time series are needed, never derivative labels.  The model is its
  own force field, as ``dynamics.HH_FIELD`` is: ``block_force(pot_params)``
  gives the block binders of :func:`_gradient_block` with which
  ``dynamics.advance`` steps one orbit or a batch.
* ``BaselineModel`` — a plain derivative regressor (q, p) -> (dq/dt, dp/dt).

``HnnModel`` and ``BaselineModel`` share one validated body, one dense net
over (q, p[, params]); they differ only in the net's name, output count and
the (dq/dt, dp/dt) their ``derivative_field`` reads from it.  :func:`rollout`
steps every model: a force field by the leapfrog of ``dynamics.integrate``,
the other two by classic fourth-order Runge-Kutta, as Greydanus, Dzamba &
Yosinski (NeurIPS 2019) roll out HNNs.  Adaptable variants append the
potential parameters to the network input — for the separable model only to
V's input, so K stays parameter-blind — through the one helper
:func:`_with_channels`.  Rollouts and the rollout loss judge divergence by
``dynamics.outside``, the package's one bounded-regime rule.

Inference (derivatives, energies, rollouts) runs the numpy networks of
``nets``.  Each training loss is one closed-form node on the flat
parameter vector (``autodiff.node``), one per model kind —
:func:`_hnn_loss_graph`, :func:`_baseline_loss_graph` and
:func:`_srnn_loss_graph`, which training and the tests call directly: its
value and a backward that returns the flat gradient.  The two
derivative-pair nodes take ``(spec, theta, states, derivs, channels)``.
The rollout loss steps its windows as one (4, B) block, in place, through
``dynamics.advance``, keeping each network call's input (a copy of the
block's rows), activations and chain, the chain only what took a matrix
product.  Every learned-force call takes its arrays from
:class:`Workspace` objects, which hand the same arrays out again pass after
pass: the bound force's transient one, reset at each call, and in training
the loss's kept one, reset at each rollout, for what the backward reads.
The rollout loss's backward is the discrete adjoint of the leapfrog —
itself a reverse kick-drift-kick on the costates (Sanz-Serna, SIAM Review
58, 2016) — with each call pulled back through ``nets.input_gradient_vjp``,
which rebuilds the call's elementwise terms.
Chen et al. (ICLR 2020) train the same model by backpropagation through the
unrolled leapfrog, which this reproduces bit for bit; the op-by-op tape it
is checked against is in the tests.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nets
from .autodiff import Tensor
from .dynamics import Trajectory, _diverged, advance, integrate, outside, states_array
from .errors import EmptyBatch, ShapeMismatch, WindowLengthMismatch


def _check_channels(adaptable, param_channels):
    if adaptable and param_channels not in (1, 2):
        raise ValueError("adaptable models need 1 or 2 parameter channels")
    if not adaptable and param_channels != 0:
        raise ValueError("non-adaptable models take 0 parameter channels")


@dataclass
class _DenseModel:
    """One dense net over (q, p[, params]); subclasses name it and fix its outputs."""

    spec: nets.DenseNetSpec
    params: np.ndarray
    adaptable: bool = False
    param_channels: int = 0

    def __post_init__(self):
        _check_channels(self.adaptable, self.param_channels)
        if self.spec.n_inputs != 4 + self.param_channels:
            raise ShapeMismatch(f"{self.net_name} needs {4 + self.param_channels} inputs, "
                                f"spec has {self.spec.n_inputs}")
        if self.spec.n_outputs != self.n_outputs:
            many = "a single output" if self.n_outputs == 1 else f"{self.n_outputs} outputs"
            raise ShapeMismatch(f"{self.net_name} must have {many}")
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (nets.param_count(self.spec),):
            raise ShapeMismatch("parameter vector does not match the layer sizes")

    def derivative_field(self, pot_params):
        """The learned field as ``f(states)``: the (B, 4) block of
        (dq/dt, dp/dt) at a (B, 4) block of states, with the layers and
        parameter channels bound once."""
        layers = nets.unflatten_params(self.spec, self.params)
        chan = _channels(self, pot_params)
        return lambda states: self._derivatives(layers, _with_channels(states, chan))


class HnnModel(_DenseModel):
    """Scalar energy surrogate H(q, p[, params]); its derivatives are the
    symplectic gradient of H."""

    net_name, n_outputs = "H net", 1

    def _derivatives(self, layers, x):
        g = nets.numpy_input_gradient(self.spec, layers, x)
        return np.concatenate([g[:, 2:4], -g[:, 0:2]], axis=1)


def _with_channels(x, channels, out=None):
    """A (B, n) array with parameter channels appended to each row:
    ``channels`` is None (none appended), a (k,) vector for every row, or a
    (B, k) block.  Written into ``out`` when given, a copy even without
    channels."""
    if out is None:
        if channels is None:
            return x
        out = np.empty((x.shape[0], x.shape[1] + np.shape(channels)[-1]))
    n = x.shape[1]
    out[:, :n] = x
    if channels is not None:
        out[:, n:] = channels
    return out


def _channels(model, pot_params):
    """The parameter channels ``model`` reads under ``pot_params``, or None."""
    return pot_params.channels(model.param_channels) if model.param_channels else None


def _hnn_loss_graph(spec, theta, states, derivs, channels):
    """Mean over the batch of the summed squared derivative mismatch, as
    one node on ``theta``; its backward is the second-order VJP of the
    network's input gradient.

    ``states`` is (B, 4); ``derivs`` the true (dq/dt, dp/dt), (B, 4).
    ``channels`` is the per-row parameter matrix (B, n_channels) that an
    adaptable net reads, or None.
    """
    if len(states) == 0:
        raise EmptyBatch("hnn loss over an empty batch")
    x = _with_channels(states, channels)
    layers = nets.unflatten_params(spec, theta.data)
    acts = nets.hidden_activations(spec, layers, x)
    g, chain = nets.input_gradient(spec, layers, x, acts)
    qdot, neg_pdot = derivs[:, :2], -derivs[:, 2:]
    d_q = g[:, 2:4] - qdot
    d_p = g[:, 0:2] - neg_pdot
    c = 1.0 / states.shape[0]

    def backward(g_out):
        scale = g_out * c * 2.0
        u = np.zeros_like(g)
        u[:, 0:2] = scale * d_p
        u[:, 2:4] = scale * d_q
        grad = np.zeros(theta.data.size)
        nets.input_gradient_vjp(layers, x, acts, chain, u, nets.unflatten_params(spec, grad),
                                need_x=False)
        return grad

    return ad.node(((d_q * d_q).sum() + (d_p * d_p).sum()) * c, theta, backward)


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

    def block_force(self, pot_params):
        """The learned field in the block form ``(grad_v, grad_k)`` of
        ``dynamics.advance``; ``grad_k`` None with a fixed kinetic energy."""
        return _bound_force(self, _separable_layers(self, self.params),
                            _channels(self, pot_params))


class Workspace:
    """Work arrays reused by position from one pass to the next.

    After :meth:`reset`, the k-th :meth:`empty` request returns the array
    the k-th request got in the previous pass when the shapes agree, and a
    new array otherwise (after a divergence rerun, or on a short last
    batch); a reset drops the arrays the previous pass did not request.  An
    array is valid until the next reset.  Allocated anew at every call,
    arrays of the acceptance size can go back to the system when freed and
    have every page faulted in again: a 320-row rollout at hidden
    (256, 256) took about 16 000 minor faults that way.
    """

    def __init__(self):
        self.arrays, self.n_taken = [], 0

    def reset(self):
        del self.arrays[self.n_taken:]
        self.n_taken = 0

    def empty(self, shape):
        k = self.n_taken
        self.n_taken += 1
        if k == len(self.arrays):
            self.arrays.append(np.empty(shape))
        elif self.arrays[k].shape != shape:
            self.arrays[k] = np.empty(shape)
        return self.arrays[k]


def _gradient_block(spec, layers, work, channels=None, record=None, calls=None):
    """A scalar net's input gradient as a block binder for
    ``dynamics.advance``: the one path by which every learned force is read.

    Each call resets ``work``, its bound force's transient workspace, and
    copies its (2, B) input block into the first two columns of a
    (B, n_inputs) input; ``channels`` — a (k,) vector for every row, or a
    (B, k) block — fills the remaining columns.  The input, activations and
    chain come from ``work`` too, unless a ``record`` (a
    :class:`_CallRecord`) keeps them: then they come from its kept
    workspace, so a recorded call never holds a view of the block the next
    step writes, and the call appends them to the record's list ``calls``
    for the rollout's adjoint.
    """
    empty = work.empty if record is None else record.kept.empty

    def bind(block, out):
        def call():
            work.reset()
            x = _with_channels(block.T, channels, empty((block.shape[1], spec.n_inputs)))
            acts = nets.hidden_activations(spec, layers, x, empty)
            g, chain = nets.input_gradient(spec, layers, x, acts, empty=empty, work=work.empty)
            if calls is not None:
                calls.append((x, acts, chain))
            out[...] = g[:, :2].T

        return call

    return bind


def _bound_force(model, layers, channels, record=None):
    """``(grad_v, grad_k)`` of a separable ``model`` at ``(K layers, V
    layers)``: block binders sharing one transient workspace, for they are
    called one at a time; ``grad_k`` None with a fixed kinetic energy.  A
    ``record`` receives each V and K call."""
    k_layers, v_layers = layers
    work = Workspace()
    v_calls, k_calls = (None, None) if record is None else (record.v_calls, record.k_calls)
    grad_v = _gradient_block(model.potential_spec, v_layers, work, channels, record, v_calls)
    if model.fixed_kinetic:
        return grad_v, None
    return grad_v, _gradient_block(model.kinetic_spec, k_layers, work, None, record, k_calls)


def _separable_layers(model, flat):
    """``(K layers or None, V layers)`` of a flat separable parameter vector."""
    nk = model.kinetic_count()
    k_layers = (None if model.fixed_kinetic
                else nets.unflatten_params(model.kinetic_spec, flat[:nk]))
    return k_layers, nets.unflatten_params(model.potential_spec, flat[nk:])


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


class _CallRecord:
    """The V and K gradient calls of one training rollout in time order;
    their inputs, activations and chains live in the workspace ``kept``,
    which a new record resets."""

    def __init__(self, kept):
        kept.reset()
        self.kept, self.v_calls, self.k_calls = kept, [], []


def _window_rollout(model, layers, starts, channels, dt, n_steps, record=None):
    """Kernel rollout of (B, 4) start rows; the (B, n_steps + 1, 4) states.

    A ``_CallRecord`` receives each V and K gradient call for
    :func:`_rollout_adjoint`.
    """
    grad_v, grad_k = _bound_force(model, layers, channels, record)
    block = starts.T.copy()
    states = np.empty((n_steps + 1,) + block.shape)
    states[0] = block
    advance(block, dt, n_steps, grad_v, grad_k, out=states[1:])
    return np.ascontiguousarray(states.transpose(2, 0, 1))


def _rollout_adjoint(model, layers, record, resid, scale, dt, scratch):
    """Flat parameter gradient of the window loss by the discrete adjoint of
    the leapfrog: a reverse kick-drift-kick on the costates of (q, p).

    ``resid`` is the (B, n + 1, 4) rollout minus its targets and ``scale``
    the loss's derivative per unit of residual.  Each V and K call's costate
    is pulled back through ``nets.input_gradient_vjp``; its H·u output feeds
    the costate of the position or momentum the call read.  The sums keep
    the order of the op-by-op tape, so the gradient is bit-identical to it:
    the position costate adds the target's term, the next position's and
    then V's.  The rule is per net: a call of a net with a hidden layer is
    pulled as the sweep reaches it, newest first, each pull's temporaries in
    the workspace ``scratch``, which it resets; a linear net's input
    gradient does not depend on its input, so its H·u is zero, and its calls
    are pulled after the sweep, oldest first.
    """
    k_layers, v_layers = layers
    v_calls, k_calls = record.v_calls, record.k_calls
    n_v_inputs = model.potential_spec.n_inputs
    grad = np.zeros(model.param_count())
    k_grads, v_grads = _separable_layers(model, grad)
    deferred = []

    def pull(net_layers, call, u, grads, need_x=True):
        if len(net_layers) == 1:
            deferred.append((net_layers, call, u, grads))
            return None
        scratch.reset()
        return nets.input_gradient_vjp(net_layers, *call, u, grads, need_x, scratch.empty)

    def padded(g):  # V's gradient output costate, zero in the channel columns
        if n_v_inputs == 2:
            return g
        u = np.zeros((g.shape[0], n_v_inputs))
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
        hu = pull(v_layers, v_calls[t], padded(g_f), v_grads)
        g_q = scale * resid[:, t, :2]
        if lam_q is not None:
            g_q = g_q + lam_q
        if hu is not None:
            g_q = g_q + hu[:, :2]
        g_k = dt * g_q
        if model.fixed_kinetic:
            lam_h = g_p + g_k
        else:
            hk = pull(k_layers, k_calls[t - 1], g_k, k_grads)
            lam_h = g_p if hk is None else g_p + hk
        lam_q = g_q
    pull(v_layers, v_calls[0], padded(-half * lam_h), v_grads, need_x=False)
    for net_layers, call, u, grads in reversed(deferred):
        nets.input_gradient_vjp(net_layers, *call, u, grads, need_x=False)
    return grad


DIVERGENCE_PENALTY = 1e6


def _srnn_loss_graph(model, theta, windows, channels, dt, kept=None, scratch=None):
    """Batched rollout loss as one node on ``theta``.  ``windows`` is
    (B, L, 4).

    Windows whose rollout leaves the bounded regime are excluded and
    contribute a constant penalty instead: the divergence penalty plus the
    squared distance at the last finite step.  The rollout runs once; only
    when some window diverged is it rerun over the others, so that the loss
    and gradient of the finite rows are those of a batch without them.  The
    loss sums each step's squared position and momentum errors in time
    order; training and validation read the same value.  The node's
    backward is :func:`_rollout_adjoint`.  Two workspaces (new ones when not
    given) hold its arrays: ``kept``, reset at each recorded rollout, the
    record the backward reads; ``scratch``, reset at each adjoint pull, that
    pull's temporaries.  Passed from one step to the next, they are
    allocated once per run.  Returns (loss, n_diverged).
    """
    if windows.ndim != 3 or windows.shape[1] < 2 or windows.shape[2] != 4:
        raise WindowLengthMismatch(f"windows must be (B, L>=2, 4), got {windows.shape}")
    b, length, _ = windows.shape
    if b == 0:
        raise EmptyBatch("rollout loss over an empty batch")
    n_steps = length - 1
    layers = _separable_layers(model, theta.data)
    chan = None if channels is None else np.asarray(channels, dtype=np.float64)
    kept = Workspace() if kept is None else kept
    scratch = Workspace() if scratch is None else scratch

    def rollout(rows):
        record = _CallRecord(kept) if theta.requires_grad else None
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
        return _rollout_adjoint(model, layers, record, resid, g_out * c * 2.0, dt, scratch)

    return ad.node(value, theta, backward), n_diverged


class BaselineModel(_DenseModel):
    """Unstructured derivative regressor (q, p[, params]) -> (dq/dt, dp/dt)."""

    net_name, n_outputs = "baseline net", 4

    def _derivatives(self, layers, x):
        return nets.numpy_forward(self.spec, layers, x)


def _baseline_loss_graph(spec, theta, states, derivs, channels):
    """Mean squared derivative error over batch rows and the four
    components, as one node on ``theta``."""
    if len(states) == 0:
        raise EmptyBatch("baseline loss over an empty batch")
    x = _with_channels(states, channels)
    layers = nets.unflatten_params(spec, theta.data)
    acts = nets.hidden_activations(spec, layers, x)
    out = nets.numpy_forward(spec, layers, x, acts)
    if out.shape != np.shape(derivs):
        raise ShapeMismatch(f"targets must be {out.shape}, got {np.shape(derivs)}")
    diff = out - derivs
    c = 1.0 / (states.shape[0] * 4)

    def backward(g_out):
        grad = np.zeros(theta.data.size)
        nets.forward_vjp(layers, x, acts, g_out * c * 2.0 * diff,
                         nets.unflatten_params(spec, grad))
        return grad

    return ad.node((diff * diff).sum() * c, theta, backward)


def rollout(model, state0, pot_params, dt, n_steps):
    """One orbit of a model: a force field (with ``block_force``) by the
    leapfrog of :func:`integrate`, a derivative model by classic RK4 over its
    ``derivative_field``.  Both raise IntegrationDiverged, ``diverged at step
    i: <why>``, at the first state :func:`outside` the bounded regime."""
    if hasattr(model, "block_force"):
        return integrate(state0, dt, n_steps, model, pot_params)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    data = states_array((n_steps + 1, 4), f"n_steps {n_steps}")
    data[0] = state0.vec()
    cur = data[0][None, :]
    f = model.derivative_field(pot_params)
    for i in range(1, n_steps + 1):
        k1 = f(cur)
        k2 = f(cur + 0.5 * dt * k1)
        k3 = f(cur + 0.5 * dt * k2)
        k4 = f(cur + dt * k3)
        cur = cur + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        row = cur[0]
        if outside(row):
            raise _diverged(i, row[0], row[1])
        data[i] = row
    return Trajectory(dt=dt, data=data, params=pot_params)
