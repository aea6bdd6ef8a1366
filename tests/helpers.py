"""Shared fixtures-in-spirit: small builders, gradient-check utilities, the
per-trajectory windowing reference and the op-by-op reference tape."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import strategies as st

from symplectic_ml import autodiff as ad
from symplectic_ml import models, nets
from symplectic_ml import (
    ESCAPE_RADIUS,
    Dataset,
    GenerationConfig,
    HH_FIELD,
    PhaseState,
    PotentialParams,
    ShapeMismatch,
    Trajectory,
    generate_dataset,
    grad_params_through,
    integrate,
)
from symplectic_ml.datapipe import DerivativePairs, EncoderWindows, RolloutWindows
from symplectic_ml.dynamics import hh_grad_v_columns, outside


# any JSON document a hand-edited or corrupted store could hold
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


def finite_diff_grad(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        g[i] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return g


def finite_diff_check(f, x, eps=1e-6):
    """Max relative disagreement between analytic and central-diff gradients.

    ``f`` maps a flat vector to ``(value, gradient)``.  Each component's
    error is read against its analytic magnitude, floored at 1e-4 times the
    gradient's largest component (and at 1e-8): central differences round
    off by about eps_mach * |f| / eps in every component, which a component
    far below the gradient's scale would misread as a relative error.
    """
    _, analytic = f(x)
    numeric = finite_diff_grad(lambda v: f(v)[0], x, eps)
    scale = float(np.max(np.abs(analytic), initial=0.0))
    denom = np.maximum(np.abs(analytic), max(1e-4 * scale, 1e-8))
    return float(np.max(np.abs(numeric - analytic) / denom))


def param_grad_check(build_graph, theta0, eps=1e-6):
    """Max relative disagreement between a taped parameter gradient and
    central finite differences.

    ``build_graph(theta_tensor)`` must return a scalar loss Tensor whose
    graph hangs off the given parameter Tensor.
    """

    def f(flat):
        theta = Tensor(flat, requires_grad=True)
        loss = build_graph(theta)
        grad = grad_params_through(loss, theta)
        return loss.item(), grad

    return finite_diff_check(f, np.asarray(theta0, dtype=np.float64), eps)


def input_grad_check(build_graph, x0, eps=1e-6):
    """Like param_grad_check, but differentiates with respect to a flat
    input vector that ``build_graph`` may reshape as it likes."""

    def f(flat):
        x = Tensor(flat, requires_grad=True)
        loss = build_graph(x)
        grad = grad_params_through(loss, x)
        return loss.item(), grad

    return finite_diff_check(f, np.asarray(x0, dtype=np.float64), eps)


def numeric_jacobian(step, x, eps=1e-6):
    """Central-difference Jacobian of a (4,) -> (4,) map."""
    x = np.asarray(x, dtype=np.float64)
    jac = np.empty((4, 4))
    for i in range(4):
        d = np.zeros(4)
        d[i] = eps
        jac[:, i] = (step(x + d) - step(x - d)) / (2.0 * eps)
    return jac


def small_dataset(alphas=(0.5,), energies=(1 / 12,), n_per_cell=2,
                  series_length=40, transient=4, seed=5, **kw):
    """A quickly generated dataset: default 2 trajectories of 36 states at
    coarse spacing 0.1."""
    config = GenerationConfig.single_parameter(
        alphas=alphas,
        energies=energies,
        n_per_cell=n_per_cell,
        series_length=series_length,
        transient=transient,
        seed=seed,
        **kw,
    )
    return generate_dataset(config)


def fabricated_dataset(n_trajectories, length, dt=0.1, alpha=1.0, energy=1 / 12,
                       seed=9, couplings=None, config=None):
    """A dataset assembled from genuine integrator output, without running
    the full generation pipeline: ``n_trajectories`` trajectories of
    ``length`` states; ``couplings``, one (alpha, beta) pair per trajectory,
    the couplings each is integrated under (default: ``alpha`` for both)."""
    if couplings is None:
        couplings = [(float(alpha), float(alpha))] * n_trajectories
    rng = np.random.default_rng(seed)
    states = np.empty((n_trajectories, length, 4))
    for j, (a, b) in enumerate(couplings):
        q = rng.uniform(-0.1, 0.1, size=2)
        p = rng.uniform(-0.2, 0.2, size=2)
        states[j] = integrate(PhaseState(q=q, p=p), dt, length - 1, HH_FIELD,
                              PotentialParams(a, b)).data
    states.flags.writeable = False
    alpha, beta = (np.array(c, dtype=np.float64) for c in zip(*couplings))
    return Dataset(states, PotentialParams(alpha, beta), np.full(n_trajectories, energy), dt,
                   config)


def windows_by_trajectory(dataset, kind, window_len=None, stride=None):
    """The windows of :func:`datapipe.window_dataset` cut trajectory by
    trajectory and concatenated, as a list of trajectories was windowed: the
    reference its one-block cuts are held to, bytes and layout alike."""
    k = dataset.param_channels
    rows = [(d, PotentialParams(a, b)) for d, a, b in zip(
        dataset.states, dataset.params.alpha.tolist(), dataset.params.beta.tolist())]
    if kind == "derivative-pairs":
        states, derivs, channels = [], [], []
        for d, pot in rows:
            qx, qy, px, py = d[:, 0], d[:, 1], d[:, 2], d[:, 3]
            gx, gy = hh_grad_v_columns(pot.alpha, pot.beta)(qx, qy)
            states.append(d)
            derivs.append(np.stack([px, py, -gx, -gy], axis=1))
            channels.append(np.tile(pot.channels(k), (len(d), 1)))
        return DerivativePairs(states=np.concatenate(states), derivs=np.concatenate(derivs),
                               channels=np.concatenate(channels))
    if kind == "rollout":
        length = 11 if window_len is None else window_len
        step = length if stride is None else stride
        windows, channels = [], []
        for d, pot in rows:
            cut = sliding_window_view(d, length, axis=0)[::step].transpose(0, 2, 1)
            windows.append(cut)
            channels.append(np.broadcast_to(pot.channels(k), (cut.shape[0], k)))
        return RolloutWindows(windows=np.concatenate(windows),
                              channels=np.ascontiguousarray(np.concatenate(channels)),
                              dt=dataset.dt)
    length = 30 if window_len is None else window_len
    step = 1 if stride is None else stride
    inputs, targets = [], []
    for d, pot in rows:
        inputs.append(sliding_window_view(d[:, 0::2], length, axis=0)[::step])
        lasts = d[length - 1 :: step, 1::2]
        chan = np.broadcast_to(pot.channels(k), (lasts.shape[0], k))
        targets.append(np.concatenate([lasts, chan], axis=1))
    return EncoderWindows(inputs=np.ascontiguousarray(np.concatenate(inputs)).transpose(0, 2, 1),
                          targets=np.ascontiguousarray(np.concatenate(targets)), dt=dataset.dt)


def separable_gradients(model, pot):
    """``(grad_v(q), grad_k(p))`` of a separable model over (B, 2) blocks,
    through ``nets.grad_inputs``: a reference independent of the block
    binders the kernel calls."""
    chan = pot.channels(model.param_channels) if model.param_channels else None

    def grad_v(q):
        x = q if chan is None else np.concatenate(
            [q, np.broadcast_to(chan, (q.shape[0], chan.size))], axis=1)
        return nets.grad_inputs(model.potential_spec, model.potential_params, x)[:, :2]

    def grad_k(p):
        if model.fixed_kinetic:
            return p
        return nets.grad_inputs(model.kinetic_spec, model.kinetic_params, p)

    return grad_v, grad_k


def linear_separable(k_w, v_w):
    """A separable model whose K and V are linear nets, with no hidden layer:
    grad K = ``k_w`` and grad V = ``v_w`` everywhere."""
    spec = nets.DenseNetSpec((2, 1))
    params = np.concatenate([nets.flatten_params([(np.array([w], dtype=float), np.zeros(1))])
                             for w in (k_w, v_w)])
    return models.SeparableModel(kinetic_spec=spec, potential_spec=spec, params=params)


def manual_leapfrog(model, state, pot, dt, n_steps):
    """Kick-drift-kick of one state through :func:`separable_gradients`,
    each force evaluated afresh.  Returns the (k + 1, 4) states up to the
    first step ``k`` that is ``outside`` the bounded regime, and ``k`` (None
    if every step stayed inside)."""
    grad_v, grad_k = separable_gradients(model, pot)
    half = 0.5 * dt
    q, p = state.q[None, :], state.p[None, :]
    rows = [state.vec()]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            p = p - half * grad_v(q)
            q = q + dt * grad_k(p)
            p = p - half * grad_v(q)
            rows.append(np.concatenate([q[0], p[0]]))
            if outside(rows[-1]):
                return np.array(rows), i
    return np.array(rows), None


def constant_trajectory(row, n, dt=0.1, params=None):
    """A trajectory whose every sample is the same state row."""
    params = params or PotentialParams.single(0.0)
    data = np.tile(np.asarray(row, dtype=np.float64), (n, 1))
    return Trajectory(dt=dt, data=data, params=params)


def tanh_ids(name, cases):
    """Parametrize ids ``<name><i>-tanh``, one per case: each case is a tanh
    net, and its id names the activation."""
    return [f"{name}{i}-tanh" for i in range(len(cases))]


# ---------------------------------------------------------------------------
# The op-by-op tape that trained every model before the losses became
# closed-form nodes, kept as the reference the bit-identity tests hold those
# nodes to.  A reference ``Tensor`` adds parent links to the package's, and
# its ``backward`` walks the graph in reverse topological order,
# accumulating into every parent that requires gradients; the package's
# Tensors serve as leaves.  Each op is a :func:`node` with that tape's
# forward and backward expressions and parent order, so a graph built from
# them accumulates its gradients in the same order.


class Tensor(ad.Tensor):
    """A node of the reference tape.  Graphs are single-use: ``backward``
    consumes the graph as it walks it, dropping each node's closure and
    parent links once the node has passed its gradient on, so reference
    counting frees the intermediates during the reverse pass."""

    __slots__ = ("_prev",)

    def __init__(self, data, requires_grad=False):
        super().__init__(data, requires_grad)
        self._prev = ()

    def backward(self):
        if self.data.size != 1:
            raise ShapeMismatch(f"backward() needs a scalar root, got shape {self.data.shape}")
        topo = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while topo:
            n = topo.pop()
            if n._backward is not None:
                n._backward(n.grad)
                n._backward = None
            if isinstance(n, Tensor):
                n._prev = ()


def _topo_order(root):
    """Nodes reachable from ``root``, each after all of its parents."""
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            topo.append(n)
        elif n not in visited:
            visited.add(n)
            stack.append((n, True))
            stack.extend((p, False) for p in getattr(n, "_prev", ()) if p not in visited)
    return topo


def node(data, parents, backward):
    """A reference node of value ``data``: ``backward(g)`` returns one
    gradient per entry of ``parents``, each accumulated into its parent when
    that parent requires gradients.  Without such a parent the node is a
    constant and keeps no closure."""
    parents = tuple(_t(p) for p in parents)
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(p for p in parents if p.requires_grad)

        def _bw(g_out):
            for p, g in zip(parents, backward(g_out)):
                if p.requires_grad:
                    p._accum(g)

        out._backward = _bw
    return out


def leaf_grads(loss, leaves):
    """One reverse pass from ``loss``; each leaf's gradient, zeros where the
    leaf never entered the graph."""
    loss.backward()
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in leaves]


def _t(x):
    return x if isinstance(x, ad.Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _scatter(shape, index, g):
    full = np.zeros(shape)
    full[index] = g
    return full


def add(a, b):
    a, b = _t(a), _t(b)
    return node(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b):
    a, b = _t(a), _t(b)
    return node(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)))


def add_scaled(a, b, c):
    """Fused ``a + c * b`` with a python float ``c``."""
    a, b, c = _t(a), _t(b), float(c)
    return node(a.data + c * b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(c * g, b.data.shape)))


def matmul(a, b):
    a, b = _t(a), _t(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}")
    return node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def linear(x, w, b=None):
    """Affine map ``x @ w.T (+ b)`` of a (batch, fan_in) input."""
    x, w = _t(x), _t(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeMismatch(f"linear: input {x.data.shape}, weight {w.data.shape}")
    z = x.data @ w.data.T
    if b is None:
        return node(z, (x, w), lambda g: (g @ w.data, g.T @ x.data))
    b = _t(b)
    return node(z + b.data, (x, w, b), lambda g: (g @ w.data, g.T @ x.data, g.sum(axis=0)))


def scale(a, c):
    """Multiply by a python float."""
    a, c = _t(a), float(c)
    return node(a.data * c, (a,), lambda g: (g * c,))


def sum_sq_diff(a, b):
    """Fused ``sum((a - b)**2)`` over all entries; ``b`` may be a constant."""
    a, b = _t(a), _t(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"sum_sq_diff shapes disagree: {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data

    def backward(g_out):
        g = g_out * 2.0 * diff
        return g, (-g if b.requires_grad else None)

    return node((diff * diff).sum(), (a, b), backward)


def tanh(a):
    a = _t(a)
    out = np.tanh(a.data)
    return node(out, (a,), lambda g: (g * (1.0 - out * out),))


def one_minus_sq(a):
    """``1 - a**2``, the tanh derivative expressed from the activation."""
    a = _t(a)
    return node(1.0 - a.data * a.data, (a,), lambda g: (g * (-2.0) * a.data,))


def concat_cols(parts):
    parts = [_t(p) for p in parts]
    edges = np.cumsum([0] + [p.data.shape[1] for p in parts])
    return node(np.concatenate([p.data for p in parts], axis=1), parts, lambda g: tuple(
        g[:, j0:j1] for j0, j1 in zip(edges[:-1], edges[1:])))


def slice_cols(a, j0, j1):
    a = _t(a)
    return node(a.data[:, j0:j1], (a,), lambda g: (
        _scatter(a.data.shape, (slice(None), slice(j0, j1)), g),))


def segment(a, i0, i1, shape):
    """Slice ``a[i0:i1]`` of a flat tensor, reshaped to ``shape``."""
    a = _t(a)
    if a.data.ndim != 1 or i1 - i0 != int(np.prod(shape)) or i1 > a.data.size:
        raise ShapeMismatch(f"segment [{i0}:{i1}] with shape {shape} from {a.data.size}")
    return node(a.data[i0:i1].reshape(shape), (a,), lambda g: (
        _scatter(a.data.size, slice(i0, i1), g.ravel()),))


def taped_layers(spec, theta):
    """A flat parameter Tensor sliced into taped [(W, b)] pairs."""
    layers, i = [], 0
    for (fan_out, fan_in), _ in nets.layer_shapes(spec):
        w = segment(theta, i, i + fan_out * fan_in, (fan_out, fan_in))
        i += fan_out * fan_in
        layers.append((w, segment(theta, i, i + fan_out, (fan_out,))))
        i += fan_out
    return layers


def taped_value_and_input_gradient(spec, layers, x):
    """The taped forward output and the taped closed-form input gradient of
    its first component."""
    acts, h = [], _t(x)
    for w, b in layers[:-1]:
        z = linear(h, w, b)
        h = tanh(z)
        acts.append(h)
    out = linear(h, *layers[-1])
    seed = np.zeros((x.shape[0], spec.n_outputs))
    seed[:, 0] = 1.0
    g = Tensor(seed)
    for (w, _), h in zip(reversed(layers[1:]), reversed(acts)):
        g = matmul(g, w)
        g = mul(g, one_minus_sq(h))
    return out, matmul(g, layers[0][0])


def taped_hnn_loss(spec, theta, states, derivs, channels):
    x = states if channels is None else np.concatenate([states, channels], axis=1)
    _, g = taped_value_and_input_gradient(spec, taped_layers(spec, theta), x)
    loss = add(sum_sq_diff(slice_cols(g, 2, 4), derivs[:, :2]),
               sum_sq_diff(slice_cols(g, 0, 2), -derivs[:, 2:]))
    return scale(loss, 1.0 / states.shape[0])


def taped_baseline_loss(spec, theta, states, derivs, channels):
    x = states if channels is None else np.concatenate([states, channels], axis=1)
    out, _ = taped_value_and_input_gradient(spec, taped_layers(spec, theta), x)
    return scale(sum_sq_diff(out, derivs), 1.0 / (states.shape[0] * 4))


def taped_rollout(model, theta, q0, p0, chan, dt, n_steps):
    """The leapfrog unrolled on the tape; lists of q and p Tensors."""
    nk = model.kinetic_count()
    v_layers = taped_layers(model.potential_spec,
                            segment(theta, nk, theta.data.size, (theta.data.size - nk,)))
    k_layers = None if model.fixed_kinetic else taped_layers(
        model.kinetic_spec, segment(theta, 0, nk, (nk,)))

    def grad_v(q):
        x = q if chan is None else concat_cols([q, chan])
        g = taped_value_and_input_gradient(model.potential_spec, v_layers, x)[1]
        return g if chan is None else slice_cols(g, 0, 2)

    def grad_k(p):
        if k_layers is None:
            return p
        return taped_value_and_input_gradient(model.kinetic_spec, k_layers, p)[1]

    half = 0.5 * dt
    qs, ps = [q0], [p0]
    q, p = q0, p0
    gv = grad_v(q)
    for _ in range(n_steps):
        p_half = add_scaled(p, gv, -half)
        q = add_scaled(q, grad_k(p_half), dt)
        gv = grad_v(q)
        p = add_scaled(p_half, gv, -half)
        qs.append(q)
        ps.append(p)
    return qs, ps


def taped_srnn_loss(model, theta, windows, channels, dt):
    """The window loss as the tape built it: a taped rollout of every
    window, the divergence penalty for those that left the escape radius,
    and a rerun over the others when some did; (loss, n_diverged)."""
    b, length, _ = windows.shape

    def rollout(rows):
        chan = None if channels is None else Tensor(channels[rows])
        return taped_rollout(model, theta, Tensor(windows[rows, 0, :2]),
                             Tensor(windows[rows, 0, 2:]), chan, dt, length - 1)

    with np.errstate(over="ignore", invalid="ignore"):
        qs, ps = rollout(slice(None))
    pred = np.stack([np.concatenate([q.data, p.data], axis=1) for q, p in zip(qs, ps)],
                    axis=1)
    finite = np.all(np.isfinite(pred), axis=2)
    inside = finite & (np.max(np.abs(np.where(finite[:, :, None], pred[:, :, :2], 0.0)),
                              axis=2) <= ESCAPE_RADIUS)
    ok = np.all(inside, axis=1)
    penalty = 0.0
    for i in np.flatnonzero(~ok):
        last = max(int(np.argmin(inside[i])) - 1, 0)
        d = pred[i, last] - windows[i, last]
        penalty += models.DIVERGENCE_PENALTY + float(np.sum(d * d))
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        return Tensor(penalty / b), b
    if idx.size < b:
        qs, ps = rollout(idx)
    total = None
    for t in range(1, length):
        term = add(sum_sq_diff(qs[t], windows[idx, t, :2]),
                   sum_sq_diff(ps[t], windows[idx, t, 2:]))
        total = term if total is None else add(total, term)
    loss = scale(total, 1.0 / b)
    if penalty:
        loss = add(loss, Tensor(penalty / b))
    return loss, int(b - idx.size)
