"""Recurrent encoder: cell arithmetic, window encoding, ensemble parameter
estimates, and full-state reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplectic_ml import autodiff as ad
from symplectic_ml import lstm
from symplectic_ml.autodiff import Tensor
from symplectic_ml.dynamics import PotentialParams
from symplectic_ml.errors import (
    EmptyBatch,
    ShapeMismatch,
    TooShort,
    WindowLengthMismatch,
)
from symplectic_ml.lstm import (
    EncoderModel,
    encode_window,
    encoder_loss,
    encoder_param_count,
    infer_param_ensemble,
    init_encoder_params,
    lstm_step,
    predict_from_partial,
)
from symplectic_ml.models import SeparableModel, asrnn_rollout
from symplectic_ml.nets import DenseNetSpec, param_count

import helpers as H
from helpers import param_grad_check

TANH_ONE = 0.7615941559557649  # tanh(1)


def _flat_params(hidden, param_outputs, head_bias=None, gate_biases=None):
    """All-zero parameter vector with optional bias overrides."""
    flat = np.zeros(encoder_param_count(hidden, param_outputs))
    per_gate = 2 * hidden + hidden * hidden + hidden
    if gate_biases is not None:
        for k in range(4):
            offset = k * per_gate + 2 * hidden + hidden * hidden
            flat[offset : offset + hidden] = gate_biases
    if head_bias is not None:
        flat[-(2 + param_outputs) :] = head_bias
    return flat


def _parts(flat, hidden, param_outputs):
    return lstm.encoder_parts(flat, hidden, param_outputs)


def _encoder(hidden=4, window=10, param_outputs=1, seed=0):
    return EncoderModel(
        hidden_size=hidden,
        window_len=window,
        param_outputs=param_outputs,
        params=init_encoder_params(hidden, param_outputs, seed),
    )


def _drift_model():
    """Fixed-kinetic model with a zero potential net: momenta frozen,
    positions drifting linearly."""
    v_spec = DenseNetSpec((2, 4, 1))
    return SeparableModel(
        kinetic_spec=DenseNetSpec((2, 4, 1)),
        potential_spec=v_spec,
        params=np.zeros(param_count(v_spec)),
        fixed_kinetic=True,
    )


# ---------------------------------------------------------------------------
# construction and parameter layout


def test_param_count_reference_size():
    # hidden 9, one parameter output: 4*(18 + 81 + 9) + 3*9 + 3
    assert encoder_param_count(9, 1) == 462


def test_param_count_two_parameter_outputs():
    assert encoder_param_count(3, 2) == 4 * (6 + 9 + 3) + 4 * 3 + 4


def test_model_validation():
    with pytest.raises(ValueError):
        EncoderModel(hidden_size=0, window_len=5, param_outputs=1,
                     params=np.zeros(1))
    with pytest.raises(ValueError):
        EncoderModel(hidden_size=2, window_len=0, param_outputs=1,
                     params=np.zeros(encoder_param_count(2, 1)))
    with pytest.raises(ValueError):
        EncoderModel(hidden_size=2, window_len=5, param_outputs=3,
                     params=np.zeros(encoder_param_count(2, 1)))
    with pytest.raises(ShapeMismatch):
        EncoderModel(hidden_size=2, window_len=5, param_outputs=1,
                     params=np.zeros(7))


def test_n_outputs_counts_hidden_coordinates_and_parameters():
    assert _encoder(param_outputs=1).n_outputs == 3
    model = EncoderModel(hidden_size=2, window_len=5, param_outputs=2,
                         params=np.zeros(encoder_param_count(2, 2)))
    assert model.n_outputs == 4


def test_init_params_deterministic_with_zero_biases():
    a = init_encoder_params(3, 1, 5)
    b = init_encoder_params(3, 1, 5)
    c = init_encoder_params(3, 1, 6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (encoder_param_count(3, 1),)
    # biases (gate and head) start at zero
    zero_mask = _flat_params(3, 1, head_bias=np.ones(3), gate_biases=np.ones(3))
    assert np.array_equal(a[zero_mask == 1.0], np.zeros(int(zero_mask.sum())))
    assert np.all(a[zero_mask == 0.0] != 0.0)


# ---------------------------------------------------------------------------
# cell arithmetic


def test_zero_parameter_step_halves_cell_state():
    hidden = 3
    parts = _parts(_flat_params(hidden, 1), hidden, 1)
    x = np.array([[0.7, -1.3]])
    h0 = np.zeros((1, hidden))
    c0 = np.array([[1.0, -2.0, 0.5]])
    h1, c1, _ = lstm_step(parts, x, h0, c0)
    # every gate sits at 1/2, the candidate at zero
    assert np.array_equal(c1, 0.5 * c0)
    assert np.array_equal(h1, 0.5 * np.tanh(0.5 * c0))


def test_zero_parameter_step_from_zero_state_stays_zero():
    hidden = 2
    parts = _parts(_flat_params(hidden, 1), hidden, 1)
    h1, c1, _ = lstm_step(parts, np.array([[3.0, -4.0]]),
                          np.zeros((1, hidden)), np.zeros((1, hidden)))
    assert np.array_equal(c1, np.zeros((1, hidden)))
    assert np.array_equal(h1, np.zeros((1, hidden)))


def test_candidate_bias_reveals_input_gate():
    # only the candidate bias is lifted: c' = i * tanh(20) with i = 1/2
    hidden = 2
    flat = _flat_params(hidden, 1)
    per_gate = 2 * hidden + hidden * hidden + hidden
    offset = 3 * per_gate + 2 * hidden + hidden * hidden  # candidate gate bias
    flat[offset : offset + hidden] = 20.0
    parts = _parts(flat, hidden, 1)
    h1, c1, _ = lstm_step(parts, np.zeros((1, 2)),
                          np.zeros((1, hidden)), np.zeros((1, hidden)))
    assert np.array_equal(c1, np.full((1, hidden), 0.5 * np.tanh(20.0)))


def test_saturated_biases_drive_hidden_state_to_tanh_one():
    hidden = 3
    flat = _flat_params(hidden, 1, gate_biases=np.full(hidden, 20.0))
    parts = _parts(flat, hidden, 1)
    h1, c1, _ = lstm_step(parts, np.zeros((1, 2)),
                          np.zeros((1, hidden)), np.zeros((1, hidden)))
    assert np.max(np.abs(h1 - TANH_ONE)) <= 1e-6
    assert np.max(np.abs(c1 - 1.0)) <= 1e-6


def test_cell_parameter_gradients_match_finite_differences():
    # one cell step plus the head: every parameter but the recurrent weights
    # V (which meet the zero initial state) moves the loss
    hidden = 3
    model = EncoderModel(hidden_size=hidden, window_len=1, param_outputs=1,
                         params=init_encoder_params(hidden, 1, 2))
    windows = np.array([[[0.4, -0.9]]])
    targets = np.array([[0.3, -0.1, 0.6]])

    def build(theta):
        return lstm._encoder_loss_graph(model, theta, windows, targets)

    assert param_grad_check(build, model.params.copy()) <= 1e-5


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    c_scale=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=25, deadline=None)
def test_cell_state_growth_is_bounded(seed, c_scale):
    hidden = 3
    rng = np.random.default_rng(seed)
    flat = rng.normal(scale=1.5, size=encoder_param_count(hidden, 1))
    parts = _parts(flat, hidden, 1)
    c0 = c_scale * rng.normal(size=(2, hidden))
    h1, c1, _ = lstm_step(parts, rng.normal(size=(2, 2)),
                          rng.normal(size=(2, hidden)), c0)
    # forget and input gates are strict contractions: |c'| <= |c| + 1
    assert np.all(np.abs(c1) <= np.abs(c0) + 1.0)
    assert np.all(np.abs(h1) < 1.0)


# ---------------------------------------------------------------------------
# window encoding


def test_zero_parameter_encoding_returns_head_bias():
    model = EncoderModel(
        hidden_size=4, window_len=6, param_outputs=1,
        params=_flat_params(4, 1, head_bias=np.array([0.3, -0.2, 0.7])),
    )
    rng = np.random.default_rng(0)
    first = encode_window(model, rng.normal(size=(6, 2)))
    second = encode_window(model, rng.normal(size=(6, 2)))
    for q_y, p_y, params in (first, second):
        assert q_y == 0.3
        assert p_y == -0.2
        assert np.array_equal(params, [0.7])


def test_encode_window_rejects_wrong_length():
    model = _encoder(window=10)
    with pytest.raises(WindowLengthMismatch):
        encode_window(model, np.zeros((9, 2)))
    with pytest.raises(WindowLengthMismatch):
        encode_window(model, np.zeros((10, 3)))
    with pytest.raises(ShapeMismatch):
        encode_window(model, np.zeros(20))


def test_encoder_loss_zero_net_oracle():
    model = EncoderModel(hidden_size=3, window_len=4, param_outputs=1,
                         params=_flat_params(3, 1))
    windows = np.random.default_rng(1).normal(size=(2, 4, 2))
    targets = np.tile([0.0, 0.0, 0.5], (2, 1))
    assert encoder_loss(model, windows, targets) == 0.25


def test_encoder_loss_batch_permutation_invariance():
    model = _encoder(hidden=5, window=7, seed=3)
    rng = np.random.default_rng(4)
    windows = rng.normal(size=(6, 7, 2))
    targets = rng.normal(size=(6, 3))
    perm = rng.permutation(6)
    a = encoder_loss(model, windows, targets)
    b = encoder_loss(model, windows[perm], targets[perm])
    assert a == pytest.approx(b, rel=1e-12)


def test_encoder_loss_rejects_empty_batch():
    model = _encoder(window=4)
    with pytest.raises(EmptyBatch):
        encoder_loss(model, np.empty((0, 4, 2)), np.empty((0, 3)))


def test_encoder_loss_rejects_wrong_targets():
    model = _encoder(hidden=3, window=4)
    with pytest.raises(ShapeMismatch):
        encoder_loss(model, np.zeros((2, 4, 2)), np.zeros((2, 4)))


def test_unrolled_gradients_match_finite_differences():
    hidden, window, batch = 3, 5, 2
    model = EncoderModel(hidden_size=hidden, window_len=window, param_outputs=1,
                         params=init_encoder_params(hidden, 1, 7))
    rng = np.random.default_rng(8)
    windows = rng.normal(scale=0.5, size=(batch, window, 2))
    targets = rng.normal(size=(batch, 3))

    def build(theta):
        return lstm._encoder_loss_graph(model, theta, windows, targets)

    assert param_grad_check(build, model.params.copy()) <= 1e-4


# ---------------------------------------------------------------------------
# the encoder node against the taped cell


def _taped_sigmoid(a):
    return H.node(s := 1.0 / (1.0 + np.exp(-a.data)), (a,), lambda g: (g * s * (1.0 - s),))


def _taped_encode(theta, windows, hidden, param_outputs):
    """Head outputs built op by op on the tape: one taped cell per step."""
    n_out = 2 + param_outputs
    layout = [(f"{m}{k}", shape) for k in "fioc"
              for m, shape in zip("UVb", ((hidden, 2), (hidden, hidden), (hidden,)))]
    p, i = {}, 0
    for name, shape in layout + [("Wh", (n_out, hidden)), ("bh", (n_out,))]:
        size = int(np.prod(shape))
        p[name] = H.segment(theta, i, i + size, shape)
        i += size
    h = Tensor(np.zeros((windows.shape[0], hidden)))
    c = Tensor(np.zeros((windows.shape[0], hidden)))
    for t in range(windows.shape[1]):
        x = Tensor(windows[:, t, :])

        def gate(k, act):
            return act(H.add(H.linear(x, p[f"U{k}"], p[f"b{k}"]), H.linear(h, p[f"V{k}"])))

        f, i_gate, o, g = (gate("f", _taped_sigmoid), gate("i", _taped_sigmoid),
                           gate("o", _taped_sigmoid), gate("c", H.tanh))
        c = H.add(H.mul(f, c), H.mul(i_gate, g))
        h = H.mul(o, H.tanh(c))
    return H.linear(h, p["Wh"], p["bh"])


def _loss_and_grad(build, flat):
    theta = Tensor(flat, requires_grad=True)
    loss = build(theta)
    return loss.item(), ad.grad_params_through(loss, theta)


@pytest.mark.parametrize("batch", [1, 3, 128])
@pytest.mark.parametrize("hidden", [3, 9])
@pytest.mark.parametrize("param_outputs", [1, 2])
@pytest.mark.parametrize("window", [1, 30])
def test_encoder_node_matches_taped_cell_bit_for_bit(batch, hidden, param_outputs, window):
    model = EncoderModel(hidden_size=hidden, window_len=window, param_outputs=param_outputs,
                         params=init_encoder_params(hidden, param_outputs, 31))
    rng = np.random.default_rng(batch * 1000 + hidden * 10 + window)
    model.params = model.params + rng.normal(scale=0.3, size=model.params.size)
    observed = rng.normal(scale=0.4, size=(batch + window - 1, 2))
    windows = np.stack([observed[s : s + window] for s in range(batch)])
    targets = rng.normal(size=(batch, model.n_outputs))

    def reference(theta):
        out = _taped_encode(theta, windows, hidden, param_outputs)
        return H.scale(H.sum_sq_diff(out, targets), 1.0 / batch)

    loss, grad = _loss_and_grad(
        lambda theta: lstm._encoder_loss_graph(model, theta, windows, targets), model.params)
    ref_loss, ref_grad = _loss_and_grad(reference, model.params)
    assert loss == ref_loss
    assert grad.tobytes() == ref_grad.tobytes()

    # inference: the same forward on the same rows, with no node kept
    ref_out = _taped_encode(Tensor(model.params), windows, hidden, param_outputs).data
    assert infer_param_ensemble(model, observed).samples.tobytes() == ref_out[:, 2:].tobytes()
    ref_last = _taped_encode(Tensor(model.params), windows[-1:], hidden, param_outputs).data
    q_y, p_y, params = encode_window(model, windows[-1])
    assert np.concatenate([[q_y, p_y], params]).tobytes() == ref_last[0].tobytes()


def test_encoder_batch_loss_is_one_tape_node():
    model = _encoder(hidden=9, window=30, seed=4)
    rng = np.random.default_rng(12)
    theta = Tensor(model.params, requires_grad=True)
    loss = lstm._encoder_loss_graph(model, theta, rng.normal(size=(128, 30, 2)),
                                    rng.normal(size=(128, 3)))
    # a package node on the leaf itself, not a reference-tape graph
    assert type(loss) is ad.Tensor and loss._backward is not None
    loss.backward()
    assert loss._backward is None and theta.grad.shape == theta.shape


def test_inference_keeps_no_node():
    model = _encoder(hidden=3, window=5)
    out, pullback = lstm._encode_graph(model, model.params, np.zeros((2, 5, 2)))
    assert pullback is None and out.shape == (2, 3)
    loss = lstm._encoder_loss_graph(model, Tensor(model.params), np.zeros((2, 5, 2)),
                                    np.zeros((2, 3)))
    assert loss._backward is None


# ---------------------------------------------------------------------------
# ensemble parameter estimates


def test_constant_encoder_has_zero_spread():
    model = EncoderModel(
        hidden_size=3, window_len=30, param_outputs=1,
        params=_flat_params(3, 1, head_bias=np.array([0.0, 0.0, 0.42])),
    )
    observed = np.random.default_rng(5).normal(size=(90, 2))
    est = infer_param_ensemble(model, observed, stride=30)
    assert est.n_windows == 3
    assert np.array_equal(est.mean, [0.42])
    assert np.array_equal(est.std, [0.0])
    assert est.samples.shape == (3, 1)


@pytest.mark.parametrize(
    "t_total, stride, expected",
    [(90, 30, 3), (65, 7, 6), (31, 1, 2), (30, 1, 1), (30, 999, 1)],
)
def test_window_counts_follow_stride_formula(t_total, stride, expected):
    model = _encoder(hidden=2, window=30, seed=1)
    observed = np.random.default_rng(6).normal(size=(t_total, 2))
    est = infer_param_ensemble(model, observed, stride=stride)
    assert est.n_windows == expected
    assert est.samples.shape == (expected, 1)


def test_ensemble_rejects_short_series():
    model = _encoder(hidden=2, window=30)
    with pytest.raises(TooShort):
        infer_param_ensemble(model, np.zeros((29, 2)))


def test_ensemble_validates_inputs():
    model = _encoder(hidden=2, window=5)
    with pytest.raises(ShapeMismatch):
        infer_param_ensemble(model, np.zeros((40, 3)))
    with pytest.raises(ValueError):
        infer_param_ensemble(model, np.zeros((40, 2)), stride=0)


def test_ensemble_statistics_match_samples():
    model = _encoder(hidden=4, window=8, seed=9)
    observed = np.random.default_rng(10).normal(size=(40, 2))
    est = infer_param_ensemble(model, observed, stride=3)
    assert np.array_equal(est.mean, est.samples.mean(axis=0))
    assert np.array_equal(est.std, est.samples.std(axis=0))
    assert est.samples.min() <= est.mean[0] <= est.samples.max()


# ---------------------------------------------------------------------------
# full-state reconstruction


def test_reconstruction_assembles_state_and_rolls_forward():
    encoder = EncoderModel(
        hidden_size=4, window_len=10, param_outputs=1,
        params=_flat_params(4, 1, head_bias=np.array([0.25, -0.4, 0.8])),
    )
    model = _drift_model()
    observed = np.random.default_rng(11).normal(scale=0.3, size=(25, 2))
    pred = predict_from_partial(encoder, model, observed, dt=0.1, horizon=5)

    assert np.array_equal(pred.state0.q, [observed[-1, 0], 0.25])
    assert np.array_equal(pred.state0.p, [observed[-1, 1], -0.4])
    assert np.array_equal(pred.estimate.mean, [0.8])
    assert np.array_equal(pred.estimate.std, [0.0])

    manual = asrnn_rollout(model, pred.state0, PotentialParams.single(0.8),
                           0.1, 5)
    assert np.array_equal(pred.trajectory.data, manual.data)
    # zero learned potential: momenta frozen, positions drift linearly
    assert np.array_equal(pred.trajectory.p[-1], pred.state0.p)


def test_reconstruction_with_two_parameter_channels():
    encoder = EncoderModel(
        hidden_size=3, window_len=6, param_outputs=2,
        params=_flat_params(3, 2, head_bias=np.array([0.1, 0.2, 0.6, 0.9])),
    )
    model = _drift_model()
    observed = np.zeros((12, 2))
    pred = predict_from_partial(encoder, model, observed, dt=0.1, horizon=3)
    # the ensemble mean is an average of identical samples, so it matches the
    # head bias to rounding
    assert pred.trajectory.params.alpha == pytest.approx(0.6, rel=1e-12)
    assert pred.trajectory.params.beta == pytest.approx(0.9, rel=1e-12)
