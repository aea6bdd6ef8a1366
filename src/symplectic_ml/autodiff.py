"""Reverse-mode automatic differentiation on float64 numpy arrays.

A ``Tensor`` wraps an ndarray and records, when gradients are requested, the
operation that produced it as a backward closure plus references to its parent
nodes.  Calling :func:`backward` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients into every node that was
created with ``requires_grad=True``.

The tape records closed-form nodes only.  :func:`node` records a value
computed outside the tape together with a closed-form backward that returns
one gradient per parent: each training loss of the package — the rollout
window through the leapfrog's discrete adjoint, the derivative-matching
losses through the networks' vector-Jacobian products, the LSTM encoder
through backpropagation through time — is one such node on the flat
parameter vector.  :func:`scale` and :func:`sum_sq_diff`, which the
encoder's loss still composes, are such nodes too: :func:`node` is the
tape's only recorder.

Ops accept plain ndarrays or scalars in place of tensors and wrap them as
constant (non-gradient) nodes.  Graphs are single-use: build the
expression, call ``backward`` once, read the leaf gradients.  ``backward``
consumes the graph as it walks it, dropping each node's closure and parent
links once the node has passed its gradient on, so reference counting frees
the intermediate arrays during the reverse pass; a second call on the same
graph is not supported.  A node on tensors that do not require gradients
keeps no closure, so inference-time code pays only the array arithmetic.
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


def scale(a, c):
    """Multiply by a python float."""
    a = _wrap(a)
    c = float(c)
    return node(a.data * c, (a,), lambda g: (g * c,))


def sum_sq_diff(a, b):
    """Fused ``sum((a - b)**2)`` over all entries; ``b`` may be a constant."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(
            f"sum_sq_diff shapes disagree: {a.data.shape} vs {b.data.shape}"
        )
    diff = a.data - b.data

    def backward(g_out):
        g = g_out * 2.0 * diff
        return g, (-g if b.requires_grad else None)

    return node((diff * diff).sum(), (a, b), backward)


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
