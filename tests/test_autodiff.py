"""Tape engine: reverse-mode gradients and graph hygiene, exercised through
the reference ops of the op-by-op tape (``helpers``) that the bit-identity
tests compare the closed-form nodes against."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symplectic_ml import ShapeMismatch, Tensor, grad_params_through
from symplectic_ml import autodiff as ad

import helpers as H
from helpers import input_grad_check


def test_add_and_mul_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([10.0, 20.0])
    assert np.array_equal(H.add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])
    assert np.array_equal(H.mul(a, b).data, [[10.0, 40.0], [30.0, 80.0]])


def test_matmul_and_linear_values():
    x = Tensor([[1.0, 2.0]])
    w = Tensor([[3.0, 4.0], [5.0, 6.0]])  # (out=2, in=2)
    b = Tensor([0.5, -0.5])
    assert np.array_equal(H.matmul(x, Tensor(w.data.T)).data, [[11.0, 17.0]])
    assert np.array_equal(H.linear(x, w, b).data, [[11.5, 16.5]])
    assert np.array_equal(H.linear(x, w).data, [[11.0, 17.0]])


def test_elementwise_values():
    x = Tensor([0.0, 0.5, -1.0])
    assert np.allclose(H.tanh(x).data, np.tanh([0.0, 0.5, -1.0]))
    assert np.array_equal(ad.scale(x, 2.0).data, [0.0, 1.0, -2.0])
    h = np.tanh([0.0, 0.5, -1.0])
    assert np.allclose(H.one_minus_sq(Tensor(h)).data, 1.0 - h * h)


def test_reductions_and_slicing_values():
    a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert ad.sum_sq_diff(a, np.zeros((2, 3))).item() == 91.0
    assert np.array_equal(H.slice_cols(a, 1, 3).data, [[2.0, 3.0], [5.0, 6.0]])
    both = H.concat_cols([a, Tensor([[7.0], [8.0]])])
    assert np.array_equal(both.data, [[1.0, 2.0, 3.0, 7.0], [4.0, 5.0, 6.0, 8.0]])
    flat = Tensor(np.arange(6.0))
    seg = H.segment(flat, 2, 6, (2, 2))
    assert np.array_equal(seg.data, [[2.0, 3.0], [4.0, 5.0]])


def test_add_scaled_is_fused_axpy():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[10.0, -4.0]])
    assert np.array_equal(H.add_scaled(a, b, 0.5).data, [[6.0, 0.0]])


@pytest.mark.parametrize(
    "name,build,n",
    [
        ("add", lambda x: ad.sum_sq_diff(H.add(_m(x, 6, (2, 3)), np.ones(3)), _T6), 6),
        ("mul", lambda x: ad.sum_sq_diff(H.mul(_m(x, 6, (2, 3)), _C3), _T6), 6),
        ("scale", lambda x: ad.sum_sq_diff(ad.scale(_m(x, 6, (2, 3)), -1.7), _T6), 6),
        ("add_scaled", lambda x: ad.sum_sq_diff(H.add_scaled(_m(x, 6, (2, 3)), _C23, 0.3), _T6), 6),
        ("matmul", lambda x: ad.sum_sq_diff(H.matmul(_m(x, 6, (2, 3)), _W32), _T4), 6),
        ("linear", lambda x: ad.sum_sq_diff(H.linear(_m(x, 6, (2, 3)), _W23, _B2), _T4), 6),
        ("tanh", lambda x: ad.sum_sq_diff(H.tanh(_m(x, 6, (2, 3))), _T6), 6),
        ("one_minus_sq", lambda x: ad.sum_sq_diff(H.one_minus_sq(_m(x, 6, (2, 3))), _T6), 6),
        ("sum_sq_diff_pair", lambda x: ad.sum_sq_diff(_m(x, 6, (2, 3)), ad.scale(_m(x, 6, (2, 3)), 0.5)), 6),
        ("concat_cols", lambda x: ad.sum_sq_diff(H.concat_cols([_m(x, 6, (2, 3)), H.tanh(_m(x, 6, (2, 3)))]), _T26), 6),
        ("slice_cols", lambda x: ad.sum_sq_diff(H.slice_cols(_m(x, 6, (2, 3)), 1, 3), _T4), 6),
        ("segment", lambda x: ad.sum_sq_diff(H.segment(x, 1, 5, (2, 2)), _T4), 6),
    ],
)
def test_backward_matches_finite_differences(name, build, n):
    rng = np.random.default_rng(hash(name) % 2**32)
    x0 = rng.uniform(-0.9, 0.9, size=n)
    assert input_grad_check(build, x0) < 1e-6


def _m(x, n, shape):
    return H.segment(x, 0, n, shape)


_T6 = np.arange(6.0).reshape(2, 3) / 10.0
_T4 = np.array([[0.1, -0.2], [0.3, 0.4]])
_T26 = np.arange(12.0).reshape(2, 6) / 10.0
_C3 = np.array([0.5, -1.5, 2.0])
_C23 = np.array([[1.0, 0.5, -0.5], [2.0, -1.0, 0.25]])
_W32 = np.array([[0.2, -0.3], [0.4, 0.1], [-0.5, 0.6]])
_W23 = np.array([[0.2, -0.3, 0.4], [0.1, -0.5, 0.6]])
_B2 = np.array([0.05, -0.15])


def test_broadcast_bias_gradient_sums_over_batch():
    x = Tensor(np.ones((3, 2)))
    b = Tensor(np.zeros(2), requires_grad=True)
    loss = ad.scale(ad.sum_sq_diff(H.add(x, b), np.zeros((3, 2))), 0.5)
    grad = grad_params_through(loss, b)
    assert np.array_equal(grad, [3.0, 3.0])


def test_reused_leaf_accumulates_gradient():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = H.add(H.mul(x, x), x)
    loss = ad.scale(ad.sum_sq_diff(y, np.zeros(1)), 0.5)  # d/dx y^2/2 = y (2x + 1)
    grad = grad_params_through(loss, x)
    assert np.allclose(grad, [30.0])


def test_grad_of_unused_leaf_is_zero():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    loss = ad.sum_sq_diff(x, np.zeros(3))
    gx, gy = grad_params_through(loss, [x, y])
    assert np.array_equal(gx, 2.0 * np.ones(3))
    assert np.array_equal(gy, np.zeros(3))


def test_backward_rejects_nonscalar_root():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        ad.scale(x, 2.0).backward()


def test_backward_frees_the_graph_without_the_cycle_collector():
    theta = Tensor(np.linspace(-0.5, 0.5, 13), requires_grad=True)
    x = np.linspace(-1.0, 1.0, 8).reshape(4, 2)
    gc.disable()
    try:
        hidden = H.tanh(H.linear(x, H.segment(theta, 0, 6, (3, 2)),
                                 H.segment(theta, 6, 9, (3,))))
        out = H.linear(hidden, H.segment(theta, 9, 12, (1, 3)),
                       H.segment(theta, 12, 13, (1,)))
        loss = ad.sum_sq_diff(out, np.zeros((4, 1)))
        # Tensor has no weakref slot; its activation array lives exactly as
        # long as the node and the closures that read it
        node = weakref.ref(hidden.data)
        del hidden, out
        grad = grad_params_through(loss, theta)
        del loss
        assert node() is None
    finally:
        gc.enable()
    assert np.any(grad != 0.0)


def test_backward_consumes_the_graph():
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    loss = ad.sum_sq_diff(H.tanh(x), np.zeros(2))
    loss.backward()
    assert loss._prev == () and loss._backward is None


def test_first_accumulation_adds_positive_zero():
    # zeros + g and g + 0.0 agree bit for bit, a negative-zero gradient included
    x = Tensor(np.array([1.0, 0.0]), requires_grad=True)
    grad = grad_params_through(ad.sum_sq_diff(ad.scale(x, -0.0), np.zeros(2)), x)
    assert np.array_equal(grad, [0.0, 0.0])
    assert not np.any(np.signbit(grad))


def test_deep_chain_backward_is_iterative():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(3000):
        y = H.add(y, x)
    grad = grad_params_through(ad.scale(y, 1.0), x)
    assert grad[0] == 3001.0


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        H.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_linear_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        H.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_segment_range_mismatch():
    with pytest.raises(ShapeMismatch):
        H.segment(Tensor(np.ones(5)), 0, 4, (2, 3))


def test_sum_sq_diff_value_against_manual():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert ad.sum_sq_diff(Tensor(a), b).item() == pytest.approx(
        float(np.sum((a - b) ** 2)), rel=1e-15
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
def test_tanh_range(values):
    x = Tensor(np.array(values))
    assert np.all(np.abs(H.tanh(x).data) < 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
@example(rows=5, inner=4, seed=8388608)  # a component 4.5e4 times below max|g|
def test_matmul_gradient_property(rows, inner, seed):
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(-1, 1, size=rows * inner)
    w = rng.uniform(-1, 1, size=(inner, 2))
    target = rng.uniform(-1, 1, size=(rows, 2))

    def build(x):
        return ad.sum_sq_diff(H.matmul(H.segment(x, 0, rows * inner, (rows, inner)), Tensor(w)), target)

    assert input_grad_check(build, a0) < 1e-5
