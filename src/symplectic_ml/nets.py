"""Dense feed-forward networks in numpy, with closed-form reverse sweeps.

Canonical flat parameter order, used by every model and checkpoint in this
package: for each layer from input to output, all entries of the weight
matrix (shape ``(fan_out, fan_in)``, row-major), then the bias vector.

One forward pass serves inference and training: :func:`hidden_activations`
keeps each hidden layer's output, :func:`numpy_forward` adds the output
layer, and :func:`input_gradient` gives the gradient of one output in the
inputs in closed form — the reverse sweep of the chain rule written as
successive matrix products with activation derivatives.

Training losses are closed-form tape nodes built on two reverse sweeps:
:func:`forward_vjp`, the vector-Jacobian product of the output, and
:func:`input_gradient_vjp`, the second-order one of ``u · ∇ₓf``, which also
gives the Hessian-vector product H·u (Pearlmutter, Neural Computation 1994).
Both add into per-layer accumulators with the expressions, and in the
order, of the same network built op by op on the tape, so the gradients are
bit-identical to it.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import grad_params_through
from .errors import ShapeMismatch

ACTIVATIONS = ("tanh", "identity")


@dataclass(frozen=True)
class DenseNetSpec:
    """Layer widths (input first, output last) and hidden activation."""

    layer_sizes: tuple
    activation: str = "tanh"

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("a network needs at least input and output layers")
        if any(n < 1 for n in sizes):
            raise ValueError(f"layer sizes must be >= 1, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def n_inputs(self):
        return self.layer_sizes[0]

    @property
    def n_outputs(self):
        return self.layer_sizes[-1]


def layer_shapes(spec):
    """[(weight_shape, bias_shape)] per layer, input to output."""
    sizes = spec.layer_sizes
    return [((sizes[i + 1], sizes[i]), (sizes[i + 1],)) for i in range(len(sizes) - 1)]


def param_count(spec):
    return sum(w[0] * w[1] + b[0] for w, b in layer_shapes(spec))


def init_params(spec, seed):
    """Scaled-uniform weights, U(-r, r) with r = sqrt(6 / (fan_in + fan_out));
    zero biases.  Deterministic per seed."""
    rng = np.random.default_rng(seed)
    flat = []
    for (fan_out, fan_in), _ in layer_shapes(spec):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        flat.append(rng.uniform(-r, r, size=fan_out * fan_in))
        flat.append(np.zeros(fan_out))
    return np.concatenate(flat)


def unflatten_params(spec, flat):
    """Flat vector -> [(W, b)] ndarray pairs (views where possible)."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (param_count(spec),):
        raise ShapeMismatch(
            f"expected {param_count(spec)} parameters, got shape {flat.shape}"
        )
    layers = []
    i = 0
    for (fan_out, fan_in), _ in layer_shapes(spec):
        w = flat[i : i + fan_out * fan_in].reshape(fan_out, fan_in)
        i += fan_out * fan_in
        b = flat[i : i + fan_out]
        i += fan_out
        layers.append((w, b))
    return layers


def flatten_params(layers):
    """[(W, b)] pairs -> flat vector in canonical order."""
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])


def new_gradients(layers):
    """Zeroed per-layer ``[dW, db]`` accumulators for the VJPs below;
    ``flatten_params`` flattens them.  Adding a first term to zero gives
    the term itself, a negative zero turned positive as on the tape."""
    return [[np.zeros_like(w), np.zeros_like(b)] for w, b in layers]


def hidden_activations(spec, layers, x, empty=np.empty):
    """Each hidden layer's output for a (batch, n_inputs) array, input side
    first; ``empty(shape)`` supplies the arrays they are written into."""
    if x.ndim != 2 or x.shape[1] != spec.n_inputs:
        raise ShapeMismatch(f"input must be (batch, {spec.n_inputs}), got {x.shape}")
    acts = []
    h = x
    for w, b in layers[:-1]:
        h = np.matmul(h, w.T, out=empty((x.shape[0], w.shape[0])))
        h += b
        if spec.activation == "tanh":
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def numpy_forward(spec, layers, x, acts=None):
    """Output for a (batch, n_inputs) array over ``[(W, b)]``; ``acts`` from
    :func:`hidden_activations` are reused when given."""
    if acts is None:
        acts = hidden_activations(spec, layers, x)
    w, b = layers[-1]
    return (acts[-1] if acts else x) @ w.T + b


def input_gradient(spec, layers, x, acts, output_index=0, empty=np.empty):
    """Gradient of one output component in the inputs, (batch, n_inputs),
    and the chain that :func:`input_gradient_vjp` reads.

    A one-hot row on the output is pulled back through each layer as
    ``g @ W`` times the activation derivative ``1 - h*h``.  The chain holds
    each layer's left operand in that product and, per hidden layer, the
    product and the derivative it was multiplied by; ``empty(shape)``
    supplies their arrays.
    """
    n = len(layers)
    lefts, products, derivs = [None] * n, [None] * (n - 1), [None] * (n - 1)
    g = np.zeros((x.shape[0], spec.n_outputs))
    g[:, output_index] = 1.0
    lefts[n - 1] = g
    for i in range(n - 2, -1, -1):
        w = layers[i + 1][0]
        if i < n - 2:
            g = np.matmul(g, w, out=empty(acts[i].shape))
        elif spec.activation == "tanh":
            g = w[output_index]  # the one-hot row times w, bit for bit
        else:
            g = np.broadcast_to(w[output_index], acts[i].shape).copy()
        if spec.activation == "tanh":
            m = np.multiply(acts[i], acts[i], out=empty(acts[i].shape))
            products[i], derivs[i] = g, np.subtract(1.0, m, out=m)
            g = np.multiply(g, m, out=empty(acts[i].shape))
        lefts[i] = g
    return g @ layers[0][0], (lefts, products, derivs)


def numpy_input_gradient(spec, layers, x, output_index=0):
    """Input gradient of one output component; (batch, n_inputs)."""
    return input_gradient(spec, layers, x, hidden_activations(spec, layers, x),
                          output_index)[0]


def forward_vjp(spec, layers, x, acts, g_out, grads, need_x=False):
    """Pull the output costate ``g_out`` back through the net: adds the
    parameter gradient into ``grads`` and returns the input costate, or
    None without ``need_x``."""
    return _sweep(spec, layers, x, acts, len(layers) - 1, g_out, grads, need_x, np.empty)


def input_gradient_vjp(spec, layers, x, acts, chain, u, grads, need_x=True,
                       empty=np.empty):
    """Second-order VJP: pull back the costate ``u`` of :func:`input_gradient`.

    Adds the parameter gradient of ``u · ∇ₓf`` into ``grads`` — per layer,
    the product's term first, then the forward layer's — and returns the
    Hessian-vector product H·u, (batch, n_inputs).  It returns None when the
    input gradient does not depend on the input (no hidden layer, or the
    identity activation) or without ``need_x``.  ``empty(shape)`` supplies
    the temporaries, none of which is returned.
    """
    lefts, products, derivs = chain
    n = len(layers)
    tanh = spec.activation == "tanh"
    pulled = [None] * (n - 1)  # costates of the hidden outputs through 1 - h*h
    g = u
    for i in range(n):
        w = layers[i][0]
        if i < n - 1:
            g_left = np.matmul(g, w.T, out=empty((g.shape[0], w.shape[0])))
        grads[i][0] += np.matmul(lefts[i].T, g, out=empty(w.shape))
        if i == n - 1:
            break
        if tanh:
            pulled[i] = np.multiply(g_left, products[i], out=empty(g_left.shape))
            pulled[i] *= -2.0
            pulled[i] *= acts[i]
            g_left *= derivs[i]
        g = g_left
    if not (tanh and n > 1):
        return None
    return _sweep(spec, layers, x, acts, n - 2, pulled[-1], grads, need_x, empty,
                  pulled, derivs)


def _sweep(spec, layers, x, acts, top, g, grads, need_x, empty, pulled=None, derivs=None):
    """Reverse sweep of the forward pass from layer ``top`` down, ``g`` the
    costate of that layer's output; ``pulled`` adds the costates that reach
    the hidden outputs from elsewhere."""
    for i in range(top, -1, -1):
        w = layers[i][0]
        if i < len(acts) and spec.activation == "tanh":
            m = derivs[i] if derivs is not None else 1.0 - acts[i] * acts[i]
            g = np.multiply(g, m, out=g if i < top else empty(g.shape))
        grads[i][0] += np.matmul(g.T, acts[i - 1] if i else x, out=empty(w.shape))
        grads[i][1] += g.sum(axis=0)
        if i == 0:
            return g @ w if need_x else None
        g = np.matmul(g, w, out=empty((g.shape[0], w.shape[1])))
        if pulled is not None:
            g += pulled[i - 1]


def _as_batch(x, n):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape != (n,):
            raise ShapeMismatch(f"input must have {n} components, got {x.shape}")
        return x[None, :], True
    if x.ndim == 2 and x.shape[1] == n:
        return x, False
    raise ShapeMismatch(f"input must be ({n},) or (batch, {n}), got {x.shape}")


def forward(spec, params, x):
    """Evaluate the network; accepts a single input row or a batch."""
    xb, squeeze = _as_batch(x, spec.n_inputs)
    out = numpy_forward(spec, unflatten_params(spec, params), xb)
    return out[0] if squeeze else out


def grad_inputs(spec, params, x, output_index=0):
    """Input gradient of one output component; row or batch input."""
    xb, squeeze = _as_batch(x, spec.n_inputs)
    g = numpy_input_gradient(spec, unflatten_params(spec, params), xb, output_index)
    return g[0] if squeeze else g


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


__all__ = [
    "ACTIVATIONS",
    "DenseNetSpec",
    "layer_shapes",
    "param_count",
    "init_params",
    "unflatten_params",
    "flatten_params",
    "new_gradients",
    "hidden_activations",
    "numpy_forward",
    "input_gradient",
    "numpy_input_gradient",
    "forward_vjp",
    "input_gradient_vjp",
    "forward",
    "grad_inputs",
    "grad_params_through",
    "finite_diff_grad",
    "finite_diff_check",
]
