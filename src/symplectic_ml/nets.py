"""Dense feed-forward networks in numpy, with closed-form reverse sweeps.

Canonical flat parameter order, used by every model and checkpoint in this
package: for each layer from input to output, all entries of the weight
matrix (shape ``(fan_out, fan_in)``, row-major), then the bias vector.
:func:`unflatten_params` states it once, as views through which the init
writes, the forward reads and the reverse sweeps add gradients.

Every hidden layer is tanh, as in every network this package trains.  One
forward pass serves inference and training: :func:`hidden_activations`
keeps each hidden layer's output, :func:`numpy_forward` adds the output
layer, and :func:`input_gradient` gives the gradient of the first output in
the inputs in closed form — the reverse sweep of the chain rule written as
successive matrix products with the tanh derivatives ``1 - h*h``.

Each training loss is one closed-form node on the flat parameters, its
backward built on two reverse sweeps: :func:`forward_vjp`, the
vector-Jacobian product of the output, and :func:`input_gradient_vjp`, the
second-order one of ``u · ∇ₓf``, which also gives the Hessian-vector product
H·u (Pearlmutter, Neural Computation 1994).  Both add into the layer
views of one zeroed flat gradient, with the expressions, and in the order,
of the same network built op by op on the reference tape of the tests, so
the gradients are bit-identical to it.  Between the two passes a training
node keeps the input, the hidden activations and the chain of
:func:`input_gradient`, which holds only what took a matrix product: the
one-hot output row and one product ``g @ W`` per hidden layer.  The
elementwise rest, each ``1 - h*h`` and left operand, is rebuilt by
:func:`input_gradient_vjp` with the forward's own operations — the usual
reverse-mode trade of storing products and recomputing elementwise terms
(Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008).
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import grad_params_through
from .errors import ShapeMismatch

INIT_SCHEME = "scaled-uniform"  # the weights of fill_scaled_uniform, as checkpoints name them


@dataclass(frozen=True)
class DenseNetSpec:
    """Layer widths, input first, output last; every hidden layer is tanh."""

    layer_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("a network needs at least input and output layers")
        if any(n < 1 for n in sizes):
            raise ValueError(f"layer sizes must be >= 1, got {sizes}")

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


def fill_scaled_uniform(rng, weights):
    """Fill each (fan_out, fan_in) weight matrix in turn, row-major, with
    draws of U(-r, r) from ``rng``, r = sqrt(6 / (fan_in + fan_out))."""
    for w in weights:
        r = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-r, r, size=w.shape)


def init_params(spec, seed):
    """Scaled-uniform weights (:func:`fill_scaled_uniform`), input layer
    first; zero biases.  Deterministic per seed."""
    flat = np.zeros(param_count(spec))
    fill_scaled_uniform(np.random.default_rng(seed), [w for w, _ in unflatten_params(spec, flat)])
    return flat


def unflatten_params(spec, flat):
    """Flat float64 vector -> ``[W, b]`` per layer, views that write through."""
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
        layers.append([w, b])
    return layers


def flatten_params(layers):
    """[(W, b)] pairs -> flat vector in canonical order."""
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])


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


def input_gradient(spec, layers, x, acts, empty=np.empty, work=np.empty):
    """Gradient of the first output component in the inputs, (batch,
    n_inputs), and the chain that :func:`input_gradient_vjp` reads; every
    net whose input gradient this package reads (H, K, V) is scalar.

    A one-hot row on the output is pulled back through each layer as
    ``g @ W`` times the activation derivative ``1 - h*h``.  The chain keeps
    only what took a matrix product: the one-hot row and, per hidden layer,
    the product ``g @ W``; ``empty(shape)`` supplies the products below the
    top hidden layer.  ``work(shape)`` supplies the transient arrays: each
    derivative, with the left operand it makes, which
    :func:`input_gradient_vjp` rebuilds, and the returned gradient.
    """
    n = len(layers)
    one_hot = np.zeros((x.shape[0], spec.n_outputs))
    one_hot[:, 0] = 1.0
    products = [None] * (n - 1)
    g = one_hot
    for i in range(n - 2, -1, -1):
        w = layers[i + 1][0]
        if i < n - 2:
            g = np.matmul(g, w, out=empty(acts[i].shape))
        else:
            g = w[0]  # the one-hot row times w, bit for bit
        products[i] = g
        m = _tanh_derivative(acts[i], work(acts[i].shape))
        g = np.multiply(g, m, out=m)
    return np.matmul(g, layers[0][0], out=work(x.shape)), (one_hot, products)


def _tanh_derivative(h, out):
    """``1 - h*h`` written into ``out``."""
    np.multiply(h, h, out=out)
    return np.subtract(1.0, out, out=out)


def numpy_input_gradient(spec, layers, x):
    """Input gradient of the first output component; (batch, n_inputs)."""
    return input_gradient(spec, layers, x, hidden_activations(spec, layers, x))[0]


def forward_vjp(layers, x, acts, g_out, grads, need_x=False):
    """Pull the output costate ``g_out`` back through the net: adds the
    parameter gradient into ``grads`` and returns the input costate, or
    None without ``need_x``."""
    return _sweep(layers, x, acts, len(layers) - 1, g_out, grads, need_x, np.empty)


def input_gradient_vjp(layers, x, acts, chain, u, grads, need_x=True, empty=np.empty):
    """Second-order VJP: pull back the costate ``u`` of :func:`input_gradient`.

    Adds the parameter gradient of ``u · ∇ₓf`` into ``grads`` — per layer,
    the product's term first, then the forward layer's — and returns the
    Hessian-vector product H·u, (batch, n_inputs).  It returns None when the
    input gradient does not depend on the input (no hidden layer) or without
    ``need_x``.  Layer by layer, it rebuilds what the chain does not keep,
    each hidden layer's derivative ``1 - h*h`` and left operand
    ``(g @ W)·(1 - h*h)``, by the forward's own operations, so the bits are
    the forward's.  ``empty(shape)`` supplies those arrays
    and the temporaries, none of which is returned.
    """
    one_hot, products = chain
    n = len(layers)
    derivs = [None] * (n - 1)
    pulled = [None] * (n - 1)  # costates of the hidden outputs through 1 - h*h
    g = u
    for i in range(n - 1):
        w = layers[i][0]
        derivs[i] = _tanh_derivative(acts[i], empty(acts[i].shape))
        left = np.multiply(products[i], derivs[i], out=empty(acts[i].shape))
        g_left = np.matmul(g, w.T, out=empty((g.shape[0], w.shape[0])))
        grads[i][0] += np.matmul(left.T, g, out=empty(w.shape))
        pulled[i] = np.multiply(g_left, products[i], out=empty(g_left.shape))
        pulled[i] *= -2.0
        pulled[i] *= acts[i]
        g_left *= derivs[i]
        g = g_left
    grads[-1][0] += np.matmul(one_hot.T, g, out=empty(layers[-1][0].shape))
    if n == 1:
        return None
    return _sweep(layers, x, acts, n - 2, pulled[-1], grads, need_x, empty, pulled, derivs)


def _sweep(layers, x, acts, top, g, grads, need_x, empty, pulled=None, derivs=None):
    """Reverse sweep of the forward pass from layer ``top`` down, ``g`` the
    costate of that layer's output; ``pulled`` adds the costates that reach
    the hidden outputs from elsewhere."""
    for i in range(top, -1, -1):
        w = layers[i][0]
        if i < len(acts):
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


def grad_inputs(spec, params, x):
    """Input gradient of the first output component; row or batch input."""
    xb, squeeze = _as_batch(x, spec.n_inputs)
    g = numpy_input_gradient(spec, unflatten_params(spec, params), xb)
    return g[0] if squeeze else g


__all__ = [
    "DenseNetSpec",
    "layer_shapes",
    "param_count",
    "INIT_SCHEME",
    "fill_scaled_uniform",
    "init_params",
    "unflatten_params",
    "flatten_params",
    "hidden_activations",
    "numpy_forward",
    "input_gradient",
    "numpy_input_gradient",
    "forward_vjp",
    "input_gradient_vjp",
    "forward",
    "grad_inputs",
    "grad_params_through",
]
