"""Reverse mode for losses that are one closed-form node on one leaf.

Every training loss of the package is a scalar computed in numpy from one
flat parameter vector, with a closed-form backward: the rollout window
through the leapfrog's discrete adjoint, the derivative-matching losses
through the networks' vector-Jacobian products, the LSTM encoder through
backpropagation through time.  :func:`node` records such a value on its
leaf ``Tensor``; ``backward`` runs the closure once and adds the flat
gradient it returns into the leaf's ``grad``.  A node on a leaf that does
not require gradients keeps no closure, so inference pays only the array
arithmetic.  The op-by-op tape these nodes reproduce bit for bit lives with
the tests, as their reference.
"""

import numpy as np

from .errors import ShapeMismatch


class Tensor:
    """A float64 array: a parameter leaf, or a loss recorded by :func:`node`."""

    __slots__ = ("data", "grad", "requires_grad", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def _accum(self, g):
        # the first term is added to 0.0, so a negative zero reads +0
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self):
        """Run the recorded backward once, from a unit output gradient."""
        if self.data.size != 1:
            raise ShapeMismatch(f"backward() needs a scalar root, got shape {self.data.shape}")
        backward, self._backward = self._backward, None
        if backward is not None:
            backward(np.ones_like(self.data))


def node(value, theta, backward):
    """A loss of value ``value`` on the leaf ``theta``: ``backward(g)`` maps
    its output gradient to the flat gradient of ``theta``, and is kept only
    when ``theta`` requires gradients."""
    out = Tensor(value)
    if theta.requires_grad:
        out.requires_grad = True
        out._backward = lambda g: theta._accum(backward(g))
    return out


def grad_params_through(loss, theta):
    """Gradient of a scalar loss in the leaf ``theta``; zeros when the loss
    holds no backward, as a constant does.  Call once per loss."""
    loss.backward()
    return np.zeros_like(theta.data) if theta.grad is None else theta.grad.copy()
