"""Dense feed-forward networks: a taped path for training, one numpy path
for inference.

Canonical flat parameter order, used by every model and checkpoint in this
package: for each layer from input to output, all entries of the weight
matrix (shape ``(fan_out, fan_in)``, row-major), then the bias vector.

Input gradients are computed in closed form — the reverse sweep of the chain
rule written as successive matrix products with activation derivatives.
For training they are built out of taped primitives, so the gradient is
itself a graph node and losses containing input gradients back-propagate
exactly into the parameters with a single reverse pass.  Every inference
path runs ``numpy_forward`` and ``numpy_input_gradient`` instead: the same
expressions in the same order, so bit-identical to the tape.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_params_through
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


def segment_layers(spec, theta):
    """Slice a flat parameter Tensor into taped [(W, b)] pairs."""
    if theta.data.shape != (param_count(spec),):
        raise ShapeMismatch(
            f"expected {param_count(spec)} parameters, got shape {theta.data.shape}"
        )
    layers = []
    i = 0
    for (fan_out, fan_in), _ in layer_shapes(spec):
        w = ad.segment(theta, i, i + fan_out * fan_in, (fan_out, fan_in))
        i += fan_out * fan_in
        b = ad.segment(theta, i, i + fan_out, (fan_out,))
        i += fan_out
        layers.append((w, b))
    return layers


def net_apply(spec, layers, x):
    """Forward pass on a (batch, n_inputs) Tensor; returns the output Tensor."""
    out, _ = net_apply_cached(spec, layers, x)
    return out


def net_apply_cached(spec, layers, x):
    """Forward pass returning (output, hidden activations) for reuse."""
    if x.data.ndim != 2 or x.data.shape[1] != spec.n_inputs:
        raise ShapeMismatch(
            f"input must be (batch, {spec.n_inputs}), got {x.data.shape}"
        )
    acts = []
    h = x
    for w, b in layers[:-1]:
        z = ad.linear(h, w, b)
        h = ad.tanh(z) if spec.activation == "tanh" else z
        acts.append(h)
    w, b = layers[-1]
    return ad.linear(h, w, b), acts


def net_input_gradient(spec, layers, x, acts, output_index=0):
    """Gradient of one output component with respect to the inputs.

    Reverse sweep in closed form: seed a one-hot row on the output, pull it
    back through each layer as ``g @ W`` times the activation derivative.
    Returns a (batch, n_inputs) Tensor that is itself differentiable with
    respect to the layer parameters.
    """
    batch = x.data.shape[0]
    seed = np.zeros((batch, spec.n_outputs))
    seed[:, output_index] = 1.0
    g = Tensor(seed)
    for (w, _), h in zip(reversed(layers[1:]), reversed(acts)):
        g = ad.matmul(g, w)
        if spec.activation == "tanh":
            g = ad.mul(g, ad.one_minus_sq(h))
    return ad.matmul(g, layers[0][0])


def net_value_and_input_gradient(spec, layers, x, output_index=0):
    """Forward output together with the input gradient, sharing one pass."""
    out, acts = net_apply_cached(spec, layers, x)
    return out, net_input_gradient(spec, layers, x, acts, output_index)


def _hidden(spec, layers, x):
    acts = []
    h = x
    for w, b in layers[:-1]:
        z = h @ w.T + b
        h = np.tanh(z) if spec.activation == "tanh" else z
        acts.append(h)
    return acts


def numpy_forward(spec, layers, x):
    """Untaped forward pass of a (batch, n_inputs) array over ``[(W, b)]``."""
    acts = _hidden(spec, layers, x)
    w, b = layers[-1]
    return (acts[-1] if acts else x) @ w.T + b


def numpy_input_gradient(spec, layers, x, output_index=0):
    """Untaped input gradient of one output component; (batch, n_inputs)."""
    acts = _hidden(spec, layers, x)
    g = np.zeros((x.shape[0], spec.n_outputs))
    g[:, output_index] = 1.0
    for (w, _), h in zip(reversed(layers[1:]), reversed(acts)):
        g = g @ w
        if spec.activation == "tanh":
            g = g * (1.0 - h * h)
    return g @ layers[0][0]


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

    ``f`` maps a flat vector to ``(value, gradient)``.  The relative error of
    each component uses a floor of 1e-8 on the analytic magnitude.
    """
    _, analytic = f(x)
    numeric = finite_diff_grad(lambda v: f(v)[0], x, eps)
    denom = np.maximum(np.abs(analytic), 1e-8)
    return float(np.max(np.abs(numeric - analytic) / denom))


__all__ = [
    "ACTIVATIONS",
    "DenseNetSpec",
    "layer_shapes",
    "param_count",
    "init_params",
    "unflatten_params",
    "flatten_params",
    "segment_layers",
    "net_apply",
    "net_apply_cached",
    "net_input_gradient",
    "net_value_and_input_gradient",
    "numpy_forward",
    "numpy_input_gradient",
    "forward",
    "grad_inputs",
    "grad_params_through",
    "finite_diff_grad",
    "finite_diff_check",
]
