"""Dense networks: shapes, initialisation, forward values, the closed-form
input gradient, and the reverse sweeps the training nodes are built on —
bit-identical to the same networks built op by op on the tape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplectic_ml import autodiff as ad
from symplectic_ml import nets
from symplectic_ml.autodiff import Tensor
from symplectic_ml.errors import ShapeMismatch
from symplectic_ml.nets import (
    DenseNetSpec,
    flatten_params,
    forward,
    grad_inputs,
    hidden_activations,
    init_params,
    input_gradient,
    layer_shapes,
    numpy_forward,
    numpy_input_gradient,
    param_count,
    unflatten_params,
)

import helpers as H
from helpers import finite_diff_check, finite_diff_grad, param_grad_check

TANH_HALF = 0.46211715726000974  # tanh(0.5)


# ---------------------------------------------------------------------------
# specs and parameter bookkeeping


def test_spec_rejects_too_few_layers():
    with pytest.raises(ValueError):
        DenseNetSpec((4,))


def test_spec_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        DenseNetSpec((4, 0, 1))


def test_spec_rejects_unknown_activation():
    with pytest.raises(ValueError):
        DenseNetSpec((4, 4, 1), activation="relu")


def test_spec_coerces_sizes_to_ints():
    spec = DenseNetSpec((np.int64(4), np.int64(8), np.int64(1)))
    assert spec.layer_sizes == (4, 8, 1)
    assert spec.n_inputs == 4
    assert spec.n_outputs == 1


def test_layer_shapes_order_and_values():
    spec = DenseNetSpec((2, 8, 8, 1))
    assert layer_shapes(spec) == [
        ((8, 2), (8,)),
        ((8, 8), (8,)),
        ((1, 8), (1,)),
    ]


def test_param_count_wide_single_hidden():
    assert param_count(DenseNetSpec((4, 256, 1))) == 1537


def test_param_count_two_hidden():
    assert param_count(DenseNetSpec((2, 8, 8, 1))) == 105


def test_init_params_deterministic_and_seed_sensitive():
    spec = DenseNetSpec((4, 16, 1))
    a = init_params(spec, 3)
    b = init_params(spec, 3)
    c = init_params(spec, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_params_scaled_uniform_with_zero_biases():
    spec = DenseNetSpec((2, 8, 8, 1))
    flat = init_params(spec, 0)
    assert flat.shape == (param_count(spec),)
    for (w, b), ((fan_out, fan_in), _) in zip(
        unflatten_params(spec, flat), layer_shapes(spec)
    ):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) < r)
        assert np.any(w != 0.0)
        assert np.array_equal(b, np.zeros(fan_out))


def test_flatten_unflatten_round_trip():
    spec = DenseNetSpec((3, 5, 2))
    flat = init_params(spec, 11)
    again = flatten_params(unflatten_params(spec, flat))
    assert np.array_equal(flat, again)


def test_unflatten_rejects_wrong_length():
    spec = DenseNetSpec((3, 5, 2))
    with pytest.raises(ShapeMismatch):
        unflatten_params(spec, np.zeros(param_count(spec) + 1))


@given(sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_round_trip_preserves_any_vector(sizes):
    spec = DenseNetSpec(tuple(sizes))
    flat = np.arange(param_count(spec), dtype=np.float64) * 0.25 - 3.0
    assert np.array_equal(flatten_params(unflatten_params(spec, flat)), flat)


# ---------------------------------------------------------------------------
# forward evaluation


def test_forward_affine_single_layer():
    spec = DenseNetSpec((1, 1), activation="identity")
    out = forward(spec, np.array([2.0, 1.0]), np.array([3.0]))
    assert out.shape == (1,)
    assert out[0] == 7.0


def test_forward_tanh_hidden_oracle():
    # hidden = tanh(1*x + 0), output = 2*hidden + 0.25, evaluated at x = 0.5
    spec = DenseNetSpec((1, 1, 1))
    params = np.array([1.0, 0.0, 2.0, 0.25])
    out = forward(spec, params, np.array([0.5]))
    assert out[0] == pytest.approx(2.0 * TANH_HALF + 0.25, rel=1e-15)


def test_forward_row_matches_batch():
    spec = DenseNetSpec((3, 8, 2))
    params = init_params(spec, 1)
    batch = np.random.default_rng(2).normal(size=(5, 3))
    stacked = forward(spec, params, batch)
    assert stacked.shape == (5, 2)
    for i, row in enumerate(batch):
        # row and batch evaluation may use different BLAS kernels, so ask
        # for agreement to rounding noise rather than bitwise identity
        np.testing.assert_allclose(forward(spec, params, row), stacked[i],
                                   rtol=1e-13, atol=1e-15)


def test_forward_rejects_wrong_width():
    spec = DenseNetSpec((3, 8, 2))
    params = init_params(spec, 1)
    with pytest.raises(ShapeMismatch):
        forward(spec, params, np.zeros(4))
    with pytest.raises(ShapeMismatch):
        forward(spec, params, np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# input gradients


@pytest.mark.parametrize(
    "sizes, output_index",
    [((4, 16, 1), 0), ((3, 8, 8, 2), 1)],
)
def test_grad_inputs_matches_finite_differences(sizes, output_index):
    spec = DenseNetSpec(sizes)
    params = init_params(spec, 7)
    x = np.random.default_rng(8).normal(size=spec.n_inputs)

    analytic = grad_inputs(spec, params, x, output_index)
    numeric = finite_diff_grad(
        lambda v: forward(spec, params, v)[output_index], x
    )
    denom = np.maximum(np.abs(analytic), 1e-8)
    assert np.max(np.abs(numeric - analytic) / denom) <= 1e-5


def test_grad_inputs_of_affine_net_is_weight_row():
    spec = DenseNetSpec((3, 2), activation="identity")
    w = np.array([[1.0, -2.0, 0.5], [4.0, 0.25, -1.0]])
    params = flatten_params([(w, np.array([9.0, -9.0]))])
    x = np.array([0.3, -0.7, 1.1])
    assert np.array_equal(grad_inputs(spec, params, x, 0), w[0])
    assert np.array_equal(grad_inputs(spec, params, x, 1), w[1])


def test_grad_inputs_batch_rows_match_single_rows():
    spec = DenseNetSpec((4, 8, 1))
    params = init_params(spec, 3)
    batch = np.random.default_rng(4).normal(size=(6, 4))
    stacked = grad_inputs(spec, params, batch)
    assert stacked.shape == (6, 4)
    for i, row in enumerate(batch):
        np.testing.assert_allclose(grad_inputs(spec, params, row), stacked[i],
                                   rtol=1e-13, atol=1e-15)


def _input_gradient_loss(spec, theta, x, target):
    """``sum((∇ₓf - target)**2)`` as one node, its backward the
    second-order VJP."""
    layers = unflatten_params(spec, theta.data)
    acts = hidden_activations(spec, layers, x)
    g, chain = input_gradient(spec, layers, x, acts)
    diff = g - target

    def backward(g_out):
        grads = nets.new_gradients(layers)
        nets.input_gradient_vjp(spec, layers, x, acts, chain, g_out * 2.0 * diff, grads,
                                need_x=False)
        return nets.flatten_params(grads)

    return ad.node((diff * diff).sum(), theta, backward)


def test_loss_on_input_gradient_backpropagates_into_params():
    # Second-order check: a loss built from the input gradient must have
    # correct parameter derivatives.
    spec = DenseNetSpec((4, 8, 1))
    theta0 = init_params(spec, 5)
    x = np.random.default_rng(6).normal(size=(3, 4))
    target = np.random.default_rng(7).normal(size=(3, 4))
    assert param_grad_check(lambda theta: _input_gradient_loss(spec, theta, x, target),
                            theta0) <= 1e-4


def test_value_and_gradient_share_consistent_forward():
    spec = DenseNetSpec((2, 8, 1))
    params = init_params(spec, 9)
    x = np.array([[0.2, -0.4]])
    layers = unflatten_params(spec, params)
    acts = hidden_activations(spec, layers, x)
    assert numpy_forward(spec, layers, x, acts)[0, 0] == forward(spec, params, x[0])[0]
    grad, _ = input_gradient(spec, layers, x, acts)
    assert np.array_equal(grad[0], grad_inputs(spec, params, x[0]))


def test_hidden_activations_reject_wrong_width():
    spec = DenseNetSpec((3, 4, 1))
    layers = unflatten_params(spec, init_params(spec, 0))
    with pytest.raises(ShapeMismatch):
        hidden_activations(spec, layers, np.zeros((2, 4)))


@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("batch", [1, 9])
@pytest.mark.parametrize("sizes", [(3, 16, 8, 1), (4, 8, 3), (5, 2)])
def test_numpy_path_matches_tape_bit_for_bit(activation, batch, sizes):
    spec = DenseNetSpec(sizes, activation)
    params = init_params(spec, 17)
    params[-sizes[-1]:] = np.linspace(-0.3, 0.4, sizes[-1])  # non-zero output bias
    x = np.random.default_rng(batch).normal(size=(batch, sizes[0]))
    layers = unflatten_params(spec, params)
    taped = [(Tensor(w), Tensor(b)) for w, b in layers]
    value = numpy_forward(spec, layers, x)
    for k in range(spec.n_outputs):
        ref_value, ref_grad = H.taped_value_and_input_gradient(spec, taped, x, k)
        assert np.array_equal(value, ref_value.data)
        assert np.array_equal(numpy_input_gradient(spec, layers, x, k), ref_grad.data)
        assert np.array_equal(grad_inputs(spec, params, x, k), ref_grad.data)
    assert np.array_equal(forward(spec, params, x), value)


def _costate(t, g):
    """A scalar root that hands ``t`` the costate ``g`` exactly."""
    return H.node(0.0, (t,), lambda _: (g,))


_VJP_SIZES = [(3,), (3, 5), (3, 5, 4), (3, 4, 6, 5)]


@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("hidden", _VJP_SIZES)
@pytest.mark.parametrize("batch", [1, 3, 100])
def test_forward_vjp_matches_tape_bit_for_bit(activation, hidden, batch):
    spec = DenseNetSpec((*hidden, 2), activation)
    rng = np.random.default_rng(batch + len(hidden))
    theta0 = 0.5 * rng.normal(size=param_count(spec))
    x, g_out = rng.normal(size=(batch, 3)), rng.normal(size=(batch, 2))
    theta, xt = Tensor(theta0.copy(), requires_grad=True), Tensor(x, requires_grad=True)
    out, _ = H.taped_value_and_input_gradient(spec, H.taped_layers(spec, theta), xt)
    ref_theta, ref_x = H.leaf_grads(_costate(out, g_out), [theta, xt])
    layers = unflatten_params(spec, theta0)
    grads = nets.new_gradients(layers)
    g_x = nets.forward_vjp(spec, layers, x, hidden_activations(spec, layers, x), g_out,
                           grads, need_x=True)
    assert nets.flatten_params(grads).tobytes() == ref_theta.tobytes()
    assert np.add(g_x, 0.0).tobytes() == ref_x.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("hidden", _VJP_SIZES)
@pytest.mark.parametrize("batch", [1, 3, 100])
def test_input_gradient_vjp_matches_tape_bit_for_bit(activation, hidden, batch):
    # the parameter gradient of u·∇ₓf and the Hessian-vector product H·u
    spec = DenseNetSpec((*hidden, 1), activation)
    rng = np.random.default_rng(batch + len(hidden))
    theta0 = 0.5 * rng.normal(size=param_count(spec))
    x, u = rng.normal(size=(batch, 3)), rng.normal(size=(batch, 3))
    theta, xt = Tensor(theta0.copy(), requires_grad=True), Tensor(x, requires_grad=True)
    _, g = H.taped_value_and_input_gradient(spec, H.taped_layers(spec, theta), xt)
    ref_theta, ref_x = H.leaf_grads(_costate(g, u), [theta, xt])
    layers = unflatten_params(spec, theta0)
    acts = hidden_activations(spec, layers, x)
    _, chain = input_gradient(spec, layers, x, acts)
    grads = nets.new_gradients(layers)
    hu = nets.input_gradient_vjp(spec, layers, x, acts, chain, u, grads)
    assert nets.flatten_params(grads).tobytes() == ref_theta.tobytes()
    if hu is None:
        assert not np.any(ref_x)
    else:
        assert np.add(hu, 0.0).tobytes() == ref_x.tobytes()


# ---------------------------------------------------------------------------
# the finite-difference harness itself


def test_finite_diff_check_accepts_correct_gradient():
    def f(v):
        return float(np.sum(v**2)), 2.0 * v

    assert finite_diff_check(f, np.array([0.3, -1.2, 2.0])) <= 1e-8


def test_finite_diff_check_flags_wrong_gradient():
    def f(v):
        return float(np.sum(v**2)), 3.0 * v

    assert finite_diff_check(f, np.array([0.3, -1.2, 2.0])) > 0.3
