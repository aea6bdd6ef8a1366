"""Reverse-mode automatic differentiation on float64 numpy arrays.

A ``Tensor`` wraps an ndarray and records, when gradients are requested, the
operation that produced it as a backward closure plus references to its parent
nodes.  Calling :func:`backward` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients into every node that was
created with ``requires_grad=True``.

Every op accepts plain ndarrays or scalars in place of tensors and wraps
them as constant (non-gradient) nodes.  Graphs are single-use: build the
expression, call ``backward`` once, read the leaf gradients.  ``backward``
consumes the graph as it walks it, dropping each node's closure and parent
links once the node has passed its gradient on, so reference counting frees
the intermediate arrays during the reverse pass; a second call on the same
graph is not supported.  Ops on tensors that do not require gradients skip
closure creation entirely, so inference-time code pays only the array
arithmetic.

Gradients of gradients: ops here are sufficient to express the input-gradient
of a dense network in closed form (a chain of matrix products and activation
derivatives).  Building that closed form out of these primitives makes the
input-gradient itself a differentiable node, so a single reverse pass yields
exact parameter gradients of losses that contain input-gradients.

Custom nodes: :func:`node` records a value computed outside the tape
together with a closed-form backward that returns one gradient per parent.
A composite with a textbook reverse pass (the LSTM encoder's unrolled
window, backpropagation through time) is then one node instead of hundreds.
"""

import numpy as np

from .errors import ShapeMismatch


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._prev = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self):
        """Back-propagate from this scalar through the recorded graph.

        Consumes the graph: each node's closure and parent links are dropped
        once it has run, so intermediates are freed during the walk.
        """
        if self.data.size != 1:
            raise ShapeMismatch(
                f"backward() needs a scalar root, got shape {self.data.shape}"
            )
        topo = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
                node._backward = None
            node._prev = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _topo_order(root):
    """Nodes reachable from ``root``, each after all of its parents."""
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for child in node._prev:
            if child not in visited:
                stack.append((child, False))
    return topo


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def node(data, parents, backward):
    """A node of value ``data`` whose gradient ``backward`` computes.

    ``backward(g)`` receives the node's output gradient and returns one
    gradient per entry of ``parents``; each is accumulated into its parent
    when that parent requires gradients.  Without such a parent the node is
    a constant and ``backward`` is never kept.
    """
    parents = tuple(_wrap(p) for p in parents)
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(p for p in parents if p.requires_grad)

        def _bw():
            for p, g in zip(parents, backward(out.grad)):
                if p.requires_grad:
                    p._accum(g)

        out._backward = _bw
    return out


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data + b.data)
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._prev = tuple(t for t in (a, b) if t.requires_grad)

        def _bw():
            g = out.grad
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.data.shape))

        out._backward = _bw
    return out


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data * b.data)
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._prev = tuple(t for t in (a, b) if t.requires_grad)
        a_data, b_data = a.data, b.data

        def _bw():
            g = out.grad
            if a.requires_grad:
                a._accum(_unbroadcast(g * b_data, a_data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a_data, b_data.shape))

        out._backward = _bw
    return out


def scale(a, c):
    """Multiply by a python float."""
    a = _wrap(a)
    c = float(c)
    out = Tensor(a.data * c)
    if a.requires_grad:
        out.requires_grad = True
        out._prev = (a,)

        def _bw():
            a._accum(out.grad * c)

        out._backward = _bw
    return out


def add_scaled(a, b, c):
    """Fused ``a + c * b`` with a python float ``c`` (axpy)."""
    a, b = _wrap(a), _wrap(b)
    c = float(c)
    out = Tensor(a.data + c * b.data)
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._prev = tuple(t for t in (a, b) if t.requires_grad)

        def _bw():
            g = out.grad
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(c * g, b.data.shape))

        out._backward = _bw
    return out


def matmul(a, b):
    """Matrix product of two 2-D tensors."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(
            f"matmul inner dims disagree: {a.data.shape} @ {b.data.shape}"
        )
    out = Tensor(a.data @ b.data)
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._prev = tuple(t for t in (a, b) if t.requires_grad)
        a_data, b_data = a.data, b.data

        def _bw():
            g = out.grad
            if a.requires_grad:
                a._accum(g @ b_data.T)
            if b.requires_grad:
                b._accum(a_data.T @ g)

        out._backward = _bw
    return out


def linear(x, w, b=None):
    """Affine map ``x @ w.T (+ b)`` for a (batch, fan_in) input.

    ``w`` has shape (fan_out, fan_in); ``b``, if given, shape (fan_out,).
    """
    x, w = _wrap(x), _wrap(w)
    if b is not None:
        b = _wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeMismatch("linear expects 2-D input and weight")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeMismatch(
            f"linear: input width {x.data.shape[1]} != fan_in {w.data.shape[1]}"
        )
    if b is not None and b.data.shape != (w.data.shape[0],):
        raise ShapeMismatch(
            f"linear: bias shape {b.data.shape} != ({w.data.shape[0]},)"
        )
    z = x.data @ w.data.T
    if b is not None:
        z = z + b.data
    out = Tensor(z)
    inputs = (x, w) if b is None else (x, w, b)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._prev = tuple(t for t in inputs if t.requires_grad)
        x_data, w_data = x.data, w.data

        def _bw():
            g = out.grad
            if x.requires_grad:
                x._accum(g @ w_data)
            if w.requires_grad:
                w._accum(g.T @ x_data)
            if b is not None and b.requires_grad:
                b._accum(g.sum(axis=0))

        out._backward = _bw
    return out


def tanh(a):
    a = _wrap(a)
    out = Tensor(np.tanh(a.data))
    if a.requires_grad:
        out.requires_grad = True
        out._prev = (a,)
        out_data = out.data

        def _bw():
            a._accum(out.grad * (1.0 - out_data * out_data))

        out._backward = _bw
    return out


def square(a):
    a = _wrap(a)
    out = Tensor(a.data * a.data)
    if a.requires_grad:
        out.requires_grad = True
        out._prev = (a,)
        a_data = a.data

        def _bw():
            a._accum(out.grad * 2.0 * a_data)

        out._backward = _bw
    return out


def one_minus_sq(a):
    """``1 - a**2`` — the tanh derivative expressed from the activation."""
    a = _wrap(a)
    out = Tensor(1.0 - a.data * a.data)
    if a.requires_grad:
        out.requires_grad = True
        out._prev = (a,)
        a_data = a.data

        def _bw():
            a._accum(out.grad * (-2.0) * a_data)

        out._backward = _bw
    return out


def sum_all(a):
    """Sum of all entries, as a scalar tensor."""
    a = _wrap(a)
    out = Tensor(a.data.sum())
    if a.requires_grad:
        out.requires_grad = True
        out._prev = (a,)

        def _bw():
            a._accum(np.broadcast_to(out.grad, a.data.shape))

        out._backward = _bw
    return out


def sum_sq_diff(a, b):
    """Fused ``sum((a - b)**2)`` over all entries; ``b`` may be a constant."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(
            f"sum_sq_diff shapes disagree: {a.data.shape} vs {b.data.shape}"
        )
    diff = a.data - b.data
    out = Tensor((diff * diff).sum())
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._prev = tuple(t for t in (a, b) if t.requires_grad)

        def _bw():
            g = out.grad * 2.0 * diff
            if a.requires_grad:
                a._accum(g)
            if b.requires_grad:
                b._accum(-g)

        out._backward = _bw
    return out


def concat_cols(parts):
    """Concatenate (batch, n_i) tensors along the column axis."""
    parts = [_wrap(t) for t in parts]
    widths = [t.data.shape[1] for t in parts]
    out = Tensor(np.concatenate([t.data for t in parts], axis=1))
    if any(t.requires_grad for t in parts):
        out.requires_grad = True
        out._prev = tuple(t for t in parts if t.requires_grad)
        offsets = np.cumsum([0] + widths)

        def _bw():
            g = out.grad
            for t, j0, j1 in zip(parts, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    t._accum(g[:, j0:j1])

        out._backward = _bw
    return out


def slice_cols(a, j0, j1):
    """Column slice ``a[:, j0:j1]`` of a 2-D tensor."""
    a = _wrap(a)
    out = Tensor(a.data[:, j0:j1])
    if a.requires_grad:
        out.requires_grad = True
        out._prev = (a,)
        shape = a.data.shape

        def _bw():
            g_full = np.zeros(shape)
            g_full[:, j0:j1] = out.grad
            a._accum(g_full)

        out._backward = _bw
    return out


def segment(a, i0, i1, shape):
    """Slice ``a[i0:i1]`` of a flat tensor, reshaped to ``shape``."""
    a = _wrap(a)
    n = int(np.prod(shape))
    if a.data.ndim != 1 or i1 - i0 != n or i1 > a.data.size:
        raise ShapeMismatch(
            f"segment [{i0}:{i1}] with shape {shape} from flat size {a.data.size}"
        )
    out = Tensor(a.data[i0:i1].reshape(shape))
    if a.requires_grad:
        out.requires_grad = True
        out._prev = (a,)
        size = a.data.size

        def _bw():
            g_full = np.zeros(size)
            g_full[i0:i1] = out.grad.ravel()
            a._accum(g_full)

        out._backward = _bw
    return out


def grad_params_through(loss, params):
    """Gradient of a scalar loss with respect to one or more leaf tensors.

    Runs a single reverse pass.  ``params`` is a Tensor or a sequence of
    Tensors created with ``requires_grad=True``; returns the matching ndarray
    (or list of ndarrays), zeros where the leaf never entered the graph.
    The graph is single-use: call once per constructed loss.
    """
    single = isinstance(params, Tensor)
    leaves = [params] if single else list(params)
    loss.backward()
    grads = [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in leaves
    ]
    return grads[0] if single else grads
