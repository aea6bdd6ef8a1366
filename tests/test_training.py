"""Optimizers, deterministic splits, and the minibatch training loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplectic_ml import nets, training
from symplectic_ml.autodiff import Tensor
from symplectic_ml.errors import DivergedTraining
from symplectic_ml.lstm import EncoderModel
from symplectic_ml.models import HnnModel, SeparableModel, hnn_derivatives
from symplectic_ml.training import (
    GRAD_CLIP_NORM,
    TrainConfig,
    adam_step,
    clip_gradient,
    init_adam,
    save_history_csv,
    split_dataset,
    train,
)

from helpers import small_dataset

from symplectic_ml.dynamics import PhaseState, PotentialParams, hh_grad_v


# ---------------------------------------------------------------------------
# optimizers


def test_adam_zero_gradient_leaves_params_unchanged():
    state = init_adam(3, lr=0.05)
    params = np.array([1.0, -2.0, 0.5])
    state, new = adam_step(state, params, np.zeros(3))
    assert np.array_equal(new, params)
    assert state.t == 1


def test_adam_first_step_has_learning_rate_magnitude():
    lr = 0.01
    grad = np.array([0.5, -2.0, 1e-3])
    state = init_adam(3, lr=lr)
    _, new = adam_step(state, np.zeros(3), grad)
    step = new - np.zeros(3)
    # bias correction makes the very first update lr * g / (|g| + eps)
    assert np.all(np.sign(step) == -np.sign(grad))
    assert np.all(np.abs(step) / lr >= 1.0 - 1e-4)
    assert np.all(np.abs(step) / lr <= 1.0 + 1e-12)


def test_adam_is_deterministic():
    grads = [np.array([0.3, -0.1]), np.array([-0.2, 0.4]), np.array([0.05, 0.0])]

    def run():
        state = init_adam(2, lr=0.02)
        params = np.array([0.5, -0.5])
        for g in grads:
            state, params = adam_step(state, params, g)
        return params

    assert np.array_equal(run(), run())


def test_adam_rejects_mismatched_shapes():
    state = init_adam(3)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(3), np.zeros(4))


@given(
    data=st.lists(
        st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=2, max_size=2),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=40, deadline=None)
def test_adam_second_moment_stays_nonnegative(data):
    state = init_adam(2, lr=0.1)
    params = np.zeros(2)
    first = None
    for row in data:
        state, params = adam_step(state, params, np.array(row))
        if first is None:
            first = params.copy()
        assert np.all(state.v >= 0.0)
    # the very first update can never exceed the learning rate
    assert np.all(np.abs(first) <= 0.1 * (1.0 + 1e-12))


def test_clip_gradient_rescales_to_max_norm():
    g = np.array([30.0, 40.0])  # norm 50
    clipped = clip_gradient(g)
    assert np.linalg.norm(clipped) == pytest.approx(GRAD_CLIP_NORM, rel=1e-12)
    assert np.allclose(clipped / np.linalg.norm(clipped), g / 50.0, rtol=1e-12)


def test_clip_gradient_passes_small_gradients_through():
    g = np.array([0.3, -0.4])
    assert np.array_equal(clip_gradient(g), g)
    assert np.array_equal(clip_gradient(np.zeros(3)), np.zeros(3))


def test_clip_gradient_honours_custom_norm():
    g = np.array([6.0, 8.0])
    assert np.linalg.norm(clip_gradient(g, max_norm=5.0)) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# dataset splitting


def test_split_is_disjoint_and_covers_everything():
    train_idx, val_idx = split_dataset(30, 0.2, seed=4)
    assert len(val_idx) == 6
    assert len(train_idx) == 24
    assert np.array_equal(np.sort(np.concatenate([train_idx, val_idx])),
                          np.arange(30))
    assert np.array_equal(train_idx, np.sort(train_idx))
    assert np.array_equal(val_idx, np.sort(val_idx))


def test_split_half_and_half():
    train_idx, val_idx = split_dataset(10, 0.5, seed=0)
    assert len(train_idx) == 5 and len(val_idx) == 5


def test_split_accepts_sized_sequences():
    a = split_dataset(list(range(12)), 0.25, seed=1)
    b = split_dataset(12, 0.25, seed=1)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_deterministic_and_seed_sensitive():
    a = split_dataset(30, 0.2, seed=7)
    b = split_dataset(30, 0.2, seed=7)
    c = split_dataset(30, 0.2, seed=8)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])


def test_split_actually_shuffles():
    train_idx, val_idx = split_dataset(100, 0.3, seed=2)
    assert not np.array_equal(val_idx, np.arange(30))


def test_split_zero_fraction_gives_empty_validation():
    train_idx, val_idx = split_dataset(8, 0.0, seed=0)
    assert val_idx.size == 0
    assert np.array_equal(train_idx, np.arange(8))


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        split_dataset(10, 1.0, seed=0)
    with pytest.raises(ValueError):
        split_dataset(10, -0.1, seed=0)


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TrainConfig(model_kind="transformer")


def test_config_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        TrainConfig(model_kind="hnn", epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(model_kind="hnn", batch_size=0)


def test_config_coerces_hidden_to_int_tuple():
    config = TrainConfig(model_kind="hnn", hidden=[16.0, 8])
    assert config.hidden == (16, 8)


def test_config_round_trips_through_dict():
    config = TrainConfig(model_kind="asrnn", epochs=7, hidden=(32, 16),
                         lr=2e-3, fixed_kinetic=True)
    again = TrainConfig(**config.to_dict())
    assert again == config


# ---------------------------------------------------------------------------
# the training loop


@pytest.fixture(scope="module")
def tiny_dataset():
    return small_dataset()


def _hnn_config(**kw):
    base = dict(model_kind="hnn", epochs=3, batch_size=16, hidden=(8,),
                lr=1e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.mark.parametrize("kind", ["baseline", "hnn", "asrnn", "encoder"])
def test_build_problem_contract(tiny_dataset, kind):
    # the benchmark builds its gradient check on exactly these names
    config = TrainConfig(model_kind=kind, hidden=(8, 8), window_len=5, encoder_window=10)
    n, theta0, loss_graph, build_model = training._build_problem(config, tiny_dataset)
    assert n >= 8 and theta0.ndim == 1
    theta = Tensor(theta0, requires_grad=True)
    grad = nets.grad_params_through(loss_graph(theta, np.arange(8)), theta)
    assert grad.shape == theta0.shape
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)
    assert np.isfinite(loss_graph(Tensor(theta0), np.arange(8)).item())
    assert np.array_equal(build_model(theta0).params, theta0)


def test_train_smoke_produces_history_and_checkpoint(tiny_dataset):
    report = train(_hnn_config(), tiny_dataset)
    assert len(report.train_losses) == 3
    assert len(report.val_losses) == 3
    assert all(np.isfinite(report.train_losses))
    assert all(np.isfinite(report.val_losses))
    assert report.n_train + report.n_val == 72  # 2 trajectories x 36 states
    assert isinstance(report.model, HnnModel)
    assert report.checkpoint["model_kind"] == "ahnn"
    assert report.checkpoint["metrics"]["final_val_loss"] == report.val_losses[-1]
    assert report.checkpoint["training_config"]["epochs"] == 3
    assert report.wall_time > 0.0


def test_train_is_bit_reproducible(tiny_dataset):
    a = train(_hnn_config(), tiny_dataset)
    b = train(_hnn_config(), tiny_dataset)
    assert a.train_losses == b.train_losses
    assert a.val_losses == b.val_losses
    assert np.array_equal(a.model.params, b.model.params)
    assert a.checkpoint["params"] == b.checkpoint["params"]


def test_train_seed_changes_the_run(tiny_dataset):
    a = train(_hnn_config(), tiny_dataset)
    b = train(_hnn_config(seed=1), tiny_dataset)
    assert not np.array_equal(a.model.params, b.model.params)


def test_train_does_not_mutate_the_dataset(tiny_dataset):
    before = [traj.data.copy() for traj in tiny_dataset.trajectories]
    train(_hnn_config(), tiny_dataset)
    for snap, traj in zip(before, tiny_dataset.trajectories):
        assert np.array_equal(snap, traj.data)


def test_train_empty_validation_falls_back_to_train_split(tiny_dataset):
    report = train(_hnn_config(val_fraction=0.0, epochs=1), tiny_dataset)
    assert report.n_val == report.n_train == 72
    assert np.isfinite(report.val_losses[0])


def test_train_rollout_model_smoke(tiny_dataset):
    config = TrainConfig(model_kind="asrnn", epochs=2, batch_size=8,
                         hidden=(6,), window_len=5, fixed_kinetic=True, seed=3)
    report = train(config, tiny_dataset)
    assert isinstance(report.model, SeparableModel)
    assert report.model.fixed_kinetic
    assert report.checkpoint["model_kind"] == "asrnn"
    assert report.checkpoint["spec"]["kinetic_layers"] is None
    assert all(np.isfinite(report.val_losses))


def test_train_encoder_smoke(tiny_dataset):
    config = TrainConfig(model_kind="encoder", epochs=1, batch_size=8,
                         encoder_hidden=4, encoder_window=10, encoder_stride=5,
                         seed=4)
    report = train(config, tiny_dataset)
    assert isinstance(report.model, EncoderModel)
    assert report.model.hidden_size == 4
    assert report.checkpoint["model_kind"] == "lstm-encoder"
    assert report.checkpoint["activation"] == "lstm-gates"


def test_train_baseline_reduces_validation_loss():
    dataset = small_dataset(alphas=(0.0,), n_per_cell=2, series_length=60,
                            seed=6)
    config = TrainConfig(model_kind="baseline", epochs=25, batch_size=32,
                         hidden=(16,), lr=1e-2, seed=5)
    report = train(config, dataset)
    assert report.val_losses[-1] < report.val_losses[0]
    assert report.val_losses[-1] < 0.05


@pytest.mark.parametrize("kind", ["baseline", "hnn", "asrnn", "encoder"])
def test_train_flags_divergence(kind):
    # asrnn's divergence penalty keeps its validation loss finite, so its
    # non-finite parameters are what give it away
    dataset = small_dataset()
    config = TrainConfig(model_kind=kind, epochs=2, batch_size=64,
                         hidden=(8,), lr=1e200, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedTraining):
            train(config, dataset)


def test_trained_model_approximates_potential_gradient():
    # a modest run on one parameter cell should pin the derivative field
    # to a few percent
    dataset = small_dataset(alphas=(0.5,), n_per_cell=8, series_length=120,
                            transient=10, seed=12)
    config = TrainConfig(model_kind="hnn", epochs=200, batch_size=64,
                         hidden=(48,), lr=1e-2, lr_decay=0.99, seed=2)
    report = train(config, dataset)
    pot = PotentialParams.single(0.5)
    rng = np.random.default_rng(13)
    states = np.concatenate([traj.data for traj in dataset.trajectories])
    sample = states[rng.choice(len(states), size=64, replace=False)]
    err = 0.0
    ref = 0.0
    for row in sample:
        state = PhaseState(q=row[:2], p=row[2:])
        qdot, pdot = hnn_derivatives(report.model, state, pot)
        true_qdot = row[2:]
        true_pdot = -hh_grad_v(row[:2], pot)
        err += np.sum((qdot - true_qdot) ** 2) + np.sum((pdot - true_pdot) ** 2)
        ref += np.sum(true_qdot**2) + np.sum(true_pdot**2)
    assert np.sqrt(err / ref) <= 0.05


# ---------------------------------------------------------------------------
# history serialization


def test_history_csv_round_trips(tmp_path, tiny_dataset):
    report = train(_hnn_config(epochs=2), tiny_dataset)
    path = tmp_path / "history.csv"
    save_history_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 3
    for i, line in enumerate(lines[1:]):
        epoch, tr, va = line.split(",")
        assert int(epoch) == i
        assert float(tr) == report.train_losses[i]
        assert float(va) == report.val_losses[i]
