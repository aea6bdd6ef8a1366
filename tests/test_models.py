"""Learned-dynamics models: energy-surrogate derivatives, separable rollouts
with the divergence penalty, and the unstructured baseline."""

import numpy as np
import pytest

from symplectic_ml import autodiff as ad
from symplectic_ml import models, nets
from symplectic_ml.autodiff import Tensor
from symplectic_ml.dynamics import (
    HH_FIELD,
    ORBIT_CHUNK,
    PhaseState,
    PotentialParams,
    integrate,
)
from symplectic_ml.errors import (
    EmptyBatch,
    IntegrationDiverged,
    ShapeMismatch,
    WindowLengthMismatch,
)
from symplectic_ml.models import (
    BaselineModel,
    DIVERGENCE_PENALTY,
    HnnModel,
    SeparableModel,
    asrnn_rollout,
    baseline_derivatives,
    baseline_loss,
    baseline_rollout,
    conserved_quantity,
    hnn_derivatives,
    hnn_energy,
    hnn_loss,
    srnn_loss,
)
from symplectic_ml.nets import DenseNetSpec, flatten_params, init_params, param_count

import helpers as H
from helpers import param_grad_check

POT = PotentialParams.single(1.0)


def _hnn(sizes=(4, 8, 1), seed=0, **kw):
    spec = DenseNetSpec(sizes)
    return HnnModel(spec=spec, params=init_params(spec, seed), **kw)


def _separable(k_sizes=(2, 4, 1), v_sizes=(2, 4, 1), seed=0, scale=1.0, **kw):
    k_spec = DenseNetSpec(k_sizes)
    v_spec = DenseNetSpec(v_sizes)
    fixed = kw.get("fixed_kinetic", False)
    n = (0 if fixed else param_count(k_spec)) + param_count(v_spec)
    rng = np.random.default_rng(seed)
    return SeparableModel(
        kinetic_spec=k_spec,
        potential_spec=v_spec,
        params=scale * rng.normal(size=n),
        **kw,
    )


def _baseline(sizes=(4, 8, 4), seed=0, **kw):
    spec = DenseNetSpec(sizes)
    return BaselineModel(spec=spec, params=init_params(spec, seed), **kw)


def _true_window(length, dt=0.1, alpha=1.0, q=(0.1, -0.05), p=(0.2, 0.1)):
    pot = PotentialParams.single(alpha)
    traj = integrate(PhaseState(q=q, p=p), dt, length - 1, HH_FIELD, pot)
    return traj.data, pot


# ---------------------------------------------------------------------------
# model construction rules


def test_hnn_rejects_wrong_input_width():
    spec = DenseNetSpec((3, 8, 1))
    with pytest.raises(ShapeMismatch):
        HnnModel(spec=spec, params=init_params(spec, 0))


def test_hnn_rejects_vector_output():
    spec = DenseNetSpec((4, 8, 2))
    with pytest.raises(ShapeMismatch):
        HnnModel(spec=spec, params=init_params(spec, 0))


def test_hnn_rejects_wrong_param_vector():
    spec = DenseNetSpec((4, 8, 1))
    with pytest.raises(ShapeMismatch):
        HnnModel(spec=spec, params=np.zeros(3))


def test_adaptable_needs_channels():
    spec = DenseNetSpec((5, 8, 1))
    with pytest.raises(ValueError):
        HnnModel(spec=spec, params=init_params(spec, 0), adaptable=True,
                 param_channels=0)
    with pytest.raises(ValueError):
        HnnModel(spec=spec, params=init_params(spec, 0), adaptable=False,
                 param_channels=1)


def test_adaptable_hnn_input_width_includes_channels():
    spec = DenseNetSpec((5, 8, 1))
    model = HnnModel(spec=spec, params=init_params(spec, 0), adaptable=True,
                     param_channels=1)
    assert model.spec.n_inputs == 5


def test_separable_rejects_bad_kinetic_spec():
    with pytest.raises(ShapeMismatch):
        _separable(k_sizes=(4, 4, 1))


def test_separable_param_slicing():
    model = _separable(k_sizes=(2, 3, 1), v_sizes=(2, 5, 1), seed=2)
    nk = param_count(DenseNetSpec((2, 3, 1)))
    assert model.kinetic_count() == nk
    assert np.array_equal(model.kinetic_params, model.params[:nk])
    assert np.array_equal(model.potential_params, model.params[nk:])


def test_fixed_kinetic_ignores_kinetic_spec_params():
    model = _separable(fixed_kinetic=True)
    assert model.kinetic_count() == 0
    assert model.param_count() == param_count(DenseNetSpec((2, 4, 1)))
    assert model.block_force(POT)[1] is None  # dynamics.advance: grad K = p


# ---------------------------------------------------------------------------
# energy-surrogate derivatives


def test_linear_energy_gives_constant_derivatives():
    # H = a*q_x + b*q_y + c*p_x + d*p_y + e  =>  dq/dt = (c, d), dp/dt = (-a, -b)
    spec = DenseNetSpec((4, 1), activation="identity")
    w = np.array([[0.7, -0.3, 1.5, 0.25]])
    model = HnnModel(spec=spec, params=flatten_params([(w, np.array([2.0]))]))
    qdot, pdot = hnn_derivatives(model, PhaseState(q=[0.1, 0.2], p=[0.3, 0.4]), POT)
    assert np.array_equal(qdot, [1.5, 0.25])
    assert np.array_equal(pdot, [-0.7, 0.3])


def test_hnn_energy_matches_forward():
    model = _hnn(seed=4)
    states = np.random.default_rng(1).normal(size=(5, 4))
    vals = hnn_energy(model, states, POT)
    expected = nets.forward(model.spec, model.params, states)[:, 0]
    assert np.array_equal(vals, expected)


def test_hnn_loss_of_zero_net_is_target_power():
    spec = DenseNetSpec((4, 8, 1))
    model = HnnModel(spec=spec, params=np.zeros(param_count(spec)))
    states = np.array([[1.0, 0.0, 0.0, 0.0]])
    loss = hnn_loss(model, states, qdot=np.array([[0.0, 0.0]]),
                    pdot=np.array([[-1.0, 0.0]]))
    assert loss == 1.0


def test_hnn_loss_gradient_matches_finite_differences():
    spec = DenseNetSpec((4, 8, 1))
    theta0 = init_params(spec, 3)
    rng = np.random.default_rng(5)
    states = rng.normal(size=(3, 4))
    qdot = rng.normal(size=(3, 2))
    pdot = rng.normal(size=(3, 2))

    def build(theta):
        return models._hnn_loss_graph(spec, theta, 0, states, qdot, pdot, None)

    assert param_grad_check(build, theta0) <= 1e-4


def test_adaptable_hnn_loss_gradient_matches_finite_differences():
    spec = DenseNetSpec((5, 6, 1))
    theta0 = init_params(spec, 8)
    rng = np.random.default_rng(9)
    states = rng.normal(size=(4, 4))
    channels = rng.uniform(0.2, 1.0, size=(4, 1))

    def build(theta):
        return models._hnn_loss_graph(spec, theta, 1, states,
                                      rng.standard_normal((4, 2)) * 0.0,
                                      np.zeros((4, 2)), channels)

    assert param_grad_check(build, theta0) <= 1e-4


def test_adaptable_derivatives_vary_smoothly_with_parameter():
    model = _hnn(sizes=(5, 16, 1), seed=7, adaptable=True, param_channels=1)
    state = PhaseState(q=[0.1, -0.2], p=[0.3, 0.05])
    qdot_a, pdot_a = hnn_derivatives(model, state, PotentialParams.single(0.5))
    qdot_b, pdot_b = hnn_derivatives(model, state, PotentialParams.single(0.5 + 1e-6))
    assert np.max(np.abs(qdot_b - qdot_a)) <= 1e-3
    assert np.max(np.abs(pdot_b - pdot_a)) <= 1e-3
    qdot_c, _ = hnn_derivatives(model, state, PotentialParams.single(2.0))
    assert not np.array_equal(qdot_a, qdot_c)


def test_hnn_loss_rejects_empty_batch():
    with pytest.raises(EmptyBatch):
        hnn_loss(_hnn(), np.empty((0, 4)), np.empty((0, 2)), np.empty((0, 2)))


# ---------------------------------------------------------------------------
# separable model gradients and rollouts


def test_linear_potential_gradient_is_constant_row():
    v_spec = DenseNetSpec((2, 1), activation="identity")
    w = np.array([[0.4, -1.1]])
    k_spec = DenseNetSpec((2, 4, 1))
    model = SeparableModel(
        kinetic_spec=k_spec,
        potential_spec=v_spec,
        params=flatten_params([(w, np.array([3.0]))]),
        fixed_kinetic=True,
    )
    q = np.array([[0.0, 5.0], [0.0, -2.0]])
    f = np.empty_like(q)
    model.block_force(POT)[0](q, f)()
    assert np.array_equal(f.T, np.tile(w, (2, 1)))


def test_adaptable_potential_gradient_drops_channel_column():
    v_spec = DenseNetSpec((3, 1), activation="identity")
    w = np.array([[0.4, -1.1, 9.9]])
    model = SeparableModel(
        kinetic_spec=DenseNetSpec((2, 4, 1)),
        potential_spec=v_spec,
        params=flatten_params([(w, np.array([0.0]))]),
        adaptable=True,
        param_channels=1,
        fixed_kinetic=True,
    )
    f = np.empty((2, 3))
    model.block_force(PotentialParams.single(0.7))[0](np.zeros((2, 3)), f)()
    assert np.array_equal(f.T, np.tile(w[:, :2], (3, 1)))


def test_rollout_matches_manual_leapfrog():
    model = _separable(seed=12, scale=0.3)
    dt, n = 0.05, 20
    q = np.array([0.1, -0.2])
    p = np.array([0.15, 0.3])
    traj = asrnn_rollout(model, PhaseState(q=q, p=p), POT, dt, n)

    grad_v, grad_k = H.separable_gradients(model, POT)
    half = 0.5 * dt
    rows = [np.concatenate([q, p])]
    for _ in range(n):
        p_half = p - half * grad_v(q[None, :])[0]
        q = q + dt * grad_k(p_half[None, :])[0]
        p = p_half - half * grad_v(q[None, :])[0]
        rows.append(np.concatenate([q, p]))
    assert np.array_equal(traj.data, np.array(rows))


@pytest.mark.parametrize("kw, channels", [
    ({"fixed_kinetic": True}, 0),
    ({}, 0),
    ({"adaptable": True, "param_channels": 1}, 1),
    ({"adaptable": True, "param_channels": 2}, 2),
])
@pytest.mark.parametrize("stride", [1, 4])
def test_integrate_orbit_is_the_window_rollout_bytewise(monkeypatch, kw, channels, stride):
    model = _separable(v_sizes=(2 + channels, 8, 8, 1), seed=15, scale=0.4, **kw)
    pot = PotentialParams(alpha=0.7, beta=0.4)
    state = PhaseState(q=[0.1, -0.2], p=[0.15, 0.3])
    calls = []
    block = models._gradient_block

    def spy(*args, **kwargs):
        calls.append(args[0])
        return block(*args, **kwargs)

    monkeypatch.setattr(models, "_gradient_block", spy)
    dt, n = 0.05, 2 * ORBIT_CHUNK + 12  # three chunks, the last one short
    traj = integrate(state, dt, n, model, pot, stride=stride)
    n_orbit_calls = len(calls)
    chan = models._channels(model, pot)
    window = models._window_rollout(model, models._separable_layers(model, model.params),
                                    state.vec()[None, :], None if chan is None else chan[None],
                                    dt, n)
    # both read V (and K, unless fixed) through _gradient_block
    assert n_orbit_calls == len(calls) - n_orbit_calls == (1 if model.fixed_kinetic else 2)
    assert traj.data.tobytes() == window[0, ::stride].tobytes()


@pytest.mark.parametrize("k_w, v_w, why", [
    ((0.5, 0.0), (0.0, 0.0), "position left the bounded regime (|q| > 10.0)"),
    ((0.0, 0.0), (1e307, 0.0), "momentum became non-finite"),
])
def test_learned_integrate_diverges_at_the_manual_leapfrog_step(monkeypatch, k_w, v_w, why):
    model = H.linear_separable(k_w, v_w)
    state, dt, n = PhaseState(q=[0.1, -0.2], p=[0.15, 0.3]), 0.1, 1000
    ref, step = H.manual_leapfrog(model, state, POT, dt, n)
    assert step is not None and step > ORBIT_CHUNK
    calls = []
    input_gradient = nets.input_gradient
    monkeypatch.setattr(nets, "input_gradient",
                        lambda *a, **kw: calls.append(1) or input_gradient(*a, **kw))
    with pytest.raises(IntegrationDiverged) as exc:
        integrate(state, dt, n, model, POT)
    assert exc.value.step == step
    assert str(exc.value) == f"diverged at step {step}: {why}"
    n_diverged = len(calls)
    stopped = integrate(state, dt, step - 1, model, POT)
    assert stopped.data.tobytes() == ref[:-1].tobytes()
    # past the step, at most one chunk's V and K calls and its start force
    assert n_diverged - (len(calls) - n_diverged) <= 2 * ORBIT_CHUNK + 1


def _taped_gradient(spec, params, x):
    """Input gradient through the tape, as the training graphs compute it."""
    layers = [(Tensor(w), Tensor(b)) for w, b in nets.unflatten_params(spec, params)]
    return H.taped_value_and_input_gradient(spec, layers, x)[1].data


@pytest.mark.parametrize("fixed_kinetic", [False, True])
def test_rollout_carrying_the_force_matches_three_gradient_stepper(fixed_kinetic):
    model = _separable(k_sizes=(2, 16, 16, 1), v_sizes=(3, 16, 16, 1), seed=14,
                       scale=0.3, adaptable=True, param_channels=1,
                       fixed_kinetic=fixed_kinetic)
    pot = PotentialParams.single(0.7)
    dt, n = 0.05, 40
    q, p = np.array([0.1, -0.2]), np.array([0.15, 0.3])
    traj = asrnn_rollout(model, PhaseState(q=q, p=p), pot, dt, n)

    def grad_v(q):
        x = np.array([[q[0], q[1], 0.7]])
        return _taped_gradient(model.potential_spec, model.potential_params, x)[0, :2]

    def grad_k(p):
        if fixed_kinetic:
            return p
        return _taped_gradient(model.kinetic_spec, model.kinetic_params, p[None, :])[0]

    half = 0.5 * dt
    rows = [np.concatenate([q, p])]
    for _ in range(n):
        p_half = p - half * grad_v(q)
        q = q + dt * grad_k(p_half)
        p = p_half - half * grad_v(q)
        rows.append(np.concatenate([q, p]))
    assert np.array_equal(traj.data, np.array(rows))


def test_conserved_quantity_is_kinetic_plus_potential():
    model = _separable(seed=6, fixed_kinetic=True)
    window, pot = _true_window(8)
    traj = asrnn_rollout(model, PhaseState(q=window[0, :2], p=window[0, 2:]),
                         pot, 0.02, 35)
    values = conserved_quantity(model, traj, pot)
    v = nets.forward(model.potential_spec, model.potential_params, traj.q)[:, 0]
    k = 0.5 * np.sum(traj.p**2, axis=1)
    assert np.array_equal(values, k + v)
    # the rollout approximately conserves its own surrogate energy
    assert np.max(np.abs(values - values[0])) < 1e-3


def test_rollout_conserves_surrogate_not_true_energy():
    model = _separable(seed=13, scale=0.5)
    window, pot = _true_window(3)
    traj = asrnn_rollout(model, PhaseState(q=window[0, :2], p=window[0, 2:]),
                         pot, 0.1, 40)
    surrogate = conserved_quantity(model, traj, pot)
    assert np.max(np.abs(surrogate - surrogate[0])) < 1e-2


# ---------------------------------------------------------------------------
# rollout training loss


def test_rollout_loss_on_own_trajectory_is_zero():
    model = _separable(seed=21, scale=0.4)
    window, pot = _true_window(6)
    own = asrnn_rollout(model, PhaseState(q=window[0, :2], p=window[0, 2:]),
                        pot, 0.1, 5)
    assert srnn_loss(model, own.data, pot, 0.1) <= 1e-20


def test_rollout_loss_rejects_short_window():
    with pytest.raises(WindowLengthMismatch):
        srnn_loss(_separable(), np.zeros((1, 4)), POT, 0.1)
    with pytest.raises(WindowLengthMismatch):
        srnn_loss(_separable(), np.zeros((4, 3)), POT, 0.1)


def test_rollout_loss_gradient_matches_finite_differences():
    model = _separable(seed=30, scale=0.3)
    window, pot = _true_window(3)
    windows = window[None, :, :]

    def build(theta):
        loss, _ = models._srnn_loss_graph(model, theta, windows, None, 0.1)
        return loss

    assert param_grad_check(build, model.params.copy()) <= 1e-4


def test_adaptable_rollout_loss_gradient_matches_finite_differences():
    model = _separable(v_sizes=(3, 4, 1), seed=31, scale=0.3,
                       adaptable=True, param_channels=1)
    window, pot = _true_window(3, alpha=0.6)
    windows = window[None, :, :]
    channels = np.array([[0.6]])

    def build(theta):
        loss, _ = models._srnn_loss_graph(model, theta, windows, channels, 0.1)
        return loss

    assert param_grad_check(build, model.params.copy()) <= 1e-4


def test_escaping_rollout_pays_constant_penalty():
    # zero potential net: momenta stay put and positions drift by dt * p
    v_spec = DenseNetSpec((2, 4, 1))
    model = SeparableModel(
        kinetic_spec=DenseNetSpec((2, 4, 1)),
        potential_spec=v_spec,
        params=np.zeros(param_count(v_spec)),
        fixed_kinetic=True,
    )
    window = np.zeros((5, 4))
    window[0] = [9.0, 9.0, 5.0, 5.0]
    loss = srnn_loss(model, window, POT, 0.1)
    # drift leaves the allowed region at step 3; the last inside state is
    # (10, 10, 5, 5) against a zero target row
    assert loss == DIVERGENCE_PENALTY + 250.0


def test_all_escaped_batch_has_zero_gradient():
    v_spec = DenseNetSpec((2, 4, 1))
    model = SeparableModel(
        kinetic_spec=DenseNetSpec((2, 4, 1)),
        potential_spec=v_spec,
        params=np.zeros(param_count(v_spec)),
        fixed_kinetic=True,
    )
    windows = np.zeros((2, 5, 4))
    windows[:, 0] = [9.0, 9.0, 5.0, 5.0]
    theta = Tensor(model.params.copy(), requires_grad=True)
    loss, n_diverged = models._srnn_loss_graph(model, theta, windows, None, 0.1)
    assert n_diverged == 2
    assert loss.item() >= DIVERGENCE_PENALTY
    grad = ad.grad_params_through(loss, theta)
    assert np.array_equal(grad, np.zeros_like(model.params))


def test_mixed_batch_keeps_surviving_window_gradient():
    model = _separable(seed=33, scale=0.3)
    good, pot = _true_window(5)
    bad = np.zeros((5, 4))
    bad[0] = [11.0, 0.0, 0.0, 0.0]  # seeded outside the allowed region
    windows = np.stack([good, bad])
    theta = Tensor(model.params.copy(), requires_grad=True)
    loss, n_diverged = models._srnn_loss_graph(model, theta, windows, None, 0.1)
    assert n_diverged == 1
    assert np.isfinite(loss.item())
    assert loss.item() >= DIVERGENCE_PENALTY / 2
    grad = ad.grad_params_through(loss, theta)
    assert np.all(np.isfinite(grad))
    assert np.any(grad != 0.0)


def _finite_and_diverged_batches():
    good, _ = _true_window(5)
    other, _ = _true_window(5, q=(0.05, 0.1), p=(-0.1, 0.2))
    bad = np.zeros((5, 4))
    bad[0] = [11.0, 0.0, 0.0, 0.0]  # seeded outside the allowed region
    return {"finite": np.stack([good, other]), "diverged": np.stack([good, bad, other])}


def _count_rollout_rows(monkeypatch):
    rows = []
    real = models._window_rollout

    def counting(model, layers, starts, *args):
        rows.append(starts.shape[0])
        return real(model, layers, starts, *args)

    monkeypatch.setattr(models, "_window_rollout", counting)
    return rows


@pytest.mark.parametrize("batch,expected", [
    ("finite", [2]),
    ("diverged", [3, 2]),  # rerun over the two surviving windows only
])
def test_rollout_loss_reruns_the_tape_only_after_divergence(monkeypatch, batch, expected):
    model = _separable(seed=33, scale=0.3)
    windows = _finite_and_diverged_batches()[batch]
    rows = _count_rollout_rows(monkeypatch)
    theta = Tensor(model.params.copy(), requires_grad=True)
    _, n_diverged = models._srnn_loss_graph(model, theta, windows, None, 0.1)
    assert n_diverged == (batch == "diverged")
    assert rows == expected
    rows.clear()
    # validation computes the same loss, so it reruns over the same rows
    models._srnn_loss_graph(model, Tensor(model.params), windows, None, 0.1)
    assert rows == expected


def test_taped_rollout_states_match_untaped_bit_for_bit():
    model = _separable(seed=33, scale=0.3, v_sizes=(3, 4, 1), adaptable=True,
                       param_channels=1)
    windows = _finite_and_diverged_batches()["finite"]
    q, p = Tensor(windows[:, 0, :2]), Tensor(windows[:, 0, 2:])
    chan = np.full((2, 1), 0.7)
    theta = Tensor(model.params.copy(), requires_grad=True)
    qs, ps = H.taped_rollout(model, theta, q, p, Tensor(chan), 0.1, 4)
    plain = models._window_rollout(model, models._separable_layers(model, model.params),
                                   windows[:, 0], chan, 0.1, 4)
    for t, (q_t, p_t) in enumerate(zip(qs, ps)):
        assert np.array_equal(q_t.data, plain[:, t, :2])
        assert np.array_equal(p_t.data, plain[:, t, 2:])


@pytest.mark.parametrize("fixed_kinetic", [False, True])
def test_recorded_rollout_calls_never_hold_a_view_of_the_block(monkeypatch, fixed_kinetic):
    model = _separable(seed=33, scale=0.3, fixed_kinetic=fixed_kinetic)
    blocks = []
    real = models.advance

    def spy(block, *args, **kw):
        blocks.append(block)
        return real(block, *args, **kw)

    monkeypatch.setattr(models, "advance", spy)
    windows = _finite_and_diverged_batches()["finite"]
    record = models._CallRecord()
    models._window_rollout(model, models._separable_layers(model, model.params),
                           windows[:, 0], None, 0.1, 4, record)
    (block,) = blocks
    assert len(record.v_calls) == 5
    assert len(record.k_calls) == (0 if fixed_kinetic else 4)
    for x, _, _ in record.v_calls + record.k_calls:
        assert not np.shares_memory(x, block)


@pytest.mark.parametrize("batch", ["finite", "diverged"])
def test_training_and_validation_losses_agree(batch):
    model = _separable(seed=33, scale=0.3)
    windows = _finite_and_diverged_batches()[batch]
    theta = Tensor(model.params.copy(), requires_grad=True)
    taped, n_taped = models._srnn_loss_graph(model, theta, windows, None, 0.1)
    plain, n_plain = models._srnn_loss_graph(model, Tensor(model.params), windows,
                                             None, 0.1)
    assert n_taped == n_plain
    assert np.float64(taped.item()).tobytes() == np.float64(plain.item()).tobytes()


def _diverging_start(fixed_kinetic, length):
    """A start row whose rollout leaves the escape radius: mid-window under
    the fixed kinetic energy, at the start otherwise."""
    if fixed_kinetic and length > 2:
        return [9.0, 9.0, 6.0, 6.0]
    return [10.5, 0.0, 0.0, 0.0]


# (hidden, activation, fixed_kinetic, channels, window length, batch, diverged)
_SRNN_CASES = [
    ((), "tanh", False, 1, 11, 3, 0),
    ((6,), "tanh", False, 1, 11, 3, 0),
    ((6, 6), "tanh", False, 1, 11, 3, 0),
    ((4, 5, 6), "tanh", False, 1, 11, 3, 0),
    ((), "identity", False, 1, 11, 3, 0),
    ((6,), "identity", False, 1, 11, 3, 0),
    ((4, 5, 6), "identity", True, 1, 11, 3, 0),
    ((6, 6), "tanh", False, 0, 11, 3, 0),
    ((6, 6), "tanh", False, 2, 11, 3, 0),
    ((6, 6), "tanh", True, 0, 11, 3, 0),
    ((6, 6), "tanh", True, 2, 2, 3, 0),
    ((6, 6), "identity", True, 2, 2, 3, 0),
    ((6, 6), "tanh", False, 1, 2, 3, 0),
    ((6, 6), "tanh", False, 1, 11, 1, 0),
    ((6, 6), "tanh", False, 1, 11, 1, 1),
    ((6, 6), "tanh", False, 1, 11, 3, 1),
    ((6, 6), "tanh", True, 1, 11, 3, 2),
    ((6, 6), "identity", False, 0, 11, 3, 2),
    ((6, 6), "tanh", False, 1, 11, 100, 0),
    ((6, 6), "tanh", True, 2, 11, 100, 1),
    ((6, 6), "tanh", False, 1, 11, 100, 30),
    ((6,), "identity", True, 2, 2, 100, 30),
    ((16, 16), "tanh", False, 1, 11, 128, 0),
    ((16, 16), "tanh", False, 1, 11, 128, 1),
    ((4, 5, 6), "tanh", True, 2, 11, 128, 50),
    ((), "identity", False, 0, 2, 128, 50),
]


@pytest.mark.parametrize("hidden,activation,fixed,channels,length,batch,n_div", _SRNN_CASES)
def test_rollout_loss_matches_tape_bit_for_bit(hidden, activation, fixed, channels, length,
                                              batch, n_div):
    model = _separable(k_sizes=(2, *hidden, 1), v_sizes=(2 + channels, *hidden, 1),
                       seed=batch + length + len(hidden), scale=0.3, fixed_kinetic=fixed,
                       adaptable=channels > 0, param_channels=channels)
    model.kinetic_spec = DenseNetSpec(model.kinetic_spec.layer_sizes, activation)
    model.potential_spec = DenseNetSpec(model.potential_spec.layer_sizes, activation)
    rng = np.random.default_rng(batch * length)
    windows = rng.uniform(-0.5, 0.5, size=(batch, length, 4))
    windows[rng.permutation(batch)[:n_div], 0] = _diverging_start(fixed, length)
    chan = rng.uniform(0.2, 1.0, size=(batch, channels)) if channels else None
    theta = Tensor(model.params.copy(), requires_grad=True)
    loss, n_diverged = models._srnn_loss_graph(model, theta, windows, chan, 0.1)
    grad = ad.grad_params_through(loss, theta)
    ref_theta = Tensor(model.params.copy(), requires_grad=True)
    ref, ref_diverged = H.taped_srnn_loss(model, ref_theta, windows, chan, 0.1)
    ref_grad = ad.grad_params_through(ref, ref_theta)
    assert n_diverged == ref_diverged == n_div
    assert np.float64(loss.item()).tobytes() == np.float64(ref.item()).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    assert n_div == batch or np.any(grad != 0.0)


def test_pooled_steps_match_unpooled_bit_for_bit():
    # one pool across steps that reuse its arrays, rerun after divergence
    # and change the batch size; a reused array read too late would show
    model = _separable(k_sizes=(2, 8, 8, 1), v_sizes=(3, 8, 8, 1), seed=40, scale=0.3,
                       adaptable=True, param_channels=1)
    rng = np.random.default_rng(41)
    pool = models.ArrayPool()
    for step, (batch, n_div) in enumerate([(6, 0), (6, 0), (6, 2), (4, 0), (6, 0)]):
        windows = rng.uniform(-0.5, 0.5, size=(batch, 11, 4))
        windows[:n_div, 0] = [10.5, 0.0, 0.0, 0.0]
        chan = rng.uniform(0.2, 1.0, size=(batch, 1))
        params = model.params + 0.01 * step
        results = []
        for kw in ({"pool": pool}, {}):
            theta = Tensor(params.copy(), requires_grad=True)
            loss, _ = models._srnn_loss_graph(model, theta, windows, chan, 0.1, **kw)
            grad = ad.grad_params_through(loss, theta)
            results.append((np.float64(loss.item()).tobytes(), grad.tobytes()))
        assert results[0] == results[1], step


def test_array_pool_keeps_only_shapes_in_use():
    pool = models.ArrayPool()
    a, b = pool.take((3, 2)), pool.take((5, 2))
    pool.give_back([a, b])
    pool.prune()
    assert pool.take((3, 2)) is a
    pool.give_back([a])
    pool.prune()  # (5, 2) was not taken since the last prune
    assert pool.take((5, 2)) is not b


@pytest.mark.parametrize("kind", ["hnn", "baseline"])
@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("hidden", [(), (6,), (6, 6), (4, 5, 6)])
def test_derivative_losses_match_tape_bit_for_bit(kind, activation, hidden):
    node, taped = {"hnn": (models._hnn_loss_graph, H.taped_hnn_loss),
                   "baseline": (models._baseline_loss_graph, H.taped_baseline_loss)}[kind]
    for channels in (0, 1, 2):
        for batch in (1, 3, 100, 128):
            spec = DenseNetSpec((4 + channels, *hidden, 1 if kind == "hnn" else 4),
                                activation)
            rng = np.random.default_rng(batch + 7 * channels)
            theta0 = 0.5 * rng.normal(size=param_count(spec))
            states, derivs = rng.normal(size=(batch, 4)), rng.normal(size=(batch, 4))
            chan = rng.uniform(0.2, 1.0, size=(batch, channels)) if channels else None
            args = ((states, derivs[:, :2], derivs[:, 2:], chan) if kind == "hnn"
                    else (states, derivs, chan))
            results = []
            for build in (node, taped):
                theta = Tensor(theta0.copy(), requires_grad=True)
                loss = build(spec, theta, channels, *args)
                grad = ad.grad_params_through(loss, theta)
                results.append((np.float64(loss.item()).tobytes(), grad.tobytes()))
            assert results[0] == results[1], (channels, batch)


def test_rollout_loss_rejects_empty_batch():
    model = _separable()
    with pytest.raises(EmptyBatch):
        models._srnn_loss_graph(model, Tensor(model.params),
                                np.empty((0, 3, 4)), None, 0.1)


# ---------------------------------------------------------------------------
# baseline


def test_baseline_rejects_wrong_output_width():
    spec = DenseNetSpec((4, 8, 2))
    with pytest.raises(ShapeMismatch):
        BaselineModel(spec=spec, params=init_params(spec, 0))


def test_baseline_loss_of_zero_net_is_mean_square_target():
    spec = DenseNetSpec((4, 8, 4))
    model = BaselineModel(spec=spec, params=np.zeros(param_count(spec)))
    states = np.zeros((2, 4))
    derivs = np.full((2, 4), 0.5)
    assert baseline_loss(model, states, derivs) == 0.25


def test_baseline_linear_net_is_exact_on_linear_field():
    # weights hard-coded to the simple-oscillator field dq/dt = p, dp/dt = -q
    spec = DenseNetSpec((4, 4), activation="identity")
    w = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    model = BaselineModel(spec=spec, params=flatten_params([(w, np.zeros(4))]))
    states = np.random.default_rng(3).normal(size=(6, 4))
    derivs = np.concatenate([states[:, 2:], -states[:, :2]], axis=1)
    assert np.allclose(baseline_derivatives(model, states, POT), derivs,
                       rtol=1e-15, atol=1e-15)
    assert baseline_loss(model, states, derivs) <= 1e-28


def test_baseline_loss_gradient_matches_finite_differences():
    spec = DenseNetSpec((4, 6, 4))
    theta0 = init_params(spec, 14)
    rng = np.random.default_rng(15)
    states = rng.normal(size=(3, 4))
    derivs = rng.normal(size=(3, 4))

    def build(theta):
        return models._baseline_loss_graph(spec, theta, 0, states, derivs, None)

    assert param_grad_check(build, theta0) <= 1e-4


def test_baseline_rollout_single_step_matches_fourth_order_taylor():
    spec = DenseNetSpec((4, 4), activation="identity")
    w = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    model = BaselineModel(spec=spec, params=flatten_params([(w, np.zeros(4))]))
    dt = 0.1
    traj = baseline_rollout(model, PhaseState(q=[1.0, 0.0], p=[0.0, 0.0]),
                            POT, dt, 1)
    # the classic four-stage step on a linear field reproduces the
    # fourth-order Taylor polynomial of the rotation exactly
    q_x = 1.0 - dt**2 / 2.0 + dt**4 / 24.0
    p_x = -(dt - dt**3 / 6.0)
    assert traj.data[1, 0] == pytest.approx(q_x, rel=1e-12)
    assert traj.data[1, 2] == pytest.approx(p_x, rel=1e-12)
    assert traj.data[1, 1] == 0.0
    assert traj.data[1, 3] == 0.0


def test_baseline_rollout_reports_divergence_step():
    spec = DenseNetSpec((4, 4), activation="identity")
    w = np.zeros((4, 4))
    model = BaselineModel(spec=spec,
                          params=flatten_params([(w, np.array([100.0, 0.0, 0.0, 0.0]))]))
    with pytest.raises(IntegrationDiverged) as exc:
        baseline_rollout(model, PhaseState(q=[0.0, 0.0], p=[0.0, 0.0]), POT, 1.0, 5)
    assert exc.value.step == 1


def test_baseline_rollout_rejects_zero_steps():
    with pytest.raises(ValueError):
        baseline_rollout(_baseline(sizes=(4, 4, 4)), PhaseState(q=[0, 0], p=[0, 0]),
                         POT, 0.1, 0)


def test_baseline_loss_rejects_empty_batch():
    with pytest.raises(EmptyBatch):
        baseline_loss(_baseline(sizes=(4, 4, 4)), np.empty((0, 4)), np.empty((0, 4)))
