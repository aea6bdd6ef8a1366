"""Tests for trajectory diagnostics: energy errors, Lyapunov spectra, and
surface-of-section extraction."""

import numpy as np
import pytest

from symplectic_ml import (
    HH_FIELD,
    DegenerateR,
    DenseNetSpec,
    LengthMismatch,
    PhaseState,
    PotentialParams,
    SeparableModel,
    ShapeMismatch,
    Trajectory,
    ZeroEnergy,
    boundedness_check,
    energy_drift,
    init_params,
    integrate,
    lyapunov_spectra,
    mean_energy_error,
    poincare_section,
    relative_energy_error,
    secular_growth_ratio,
)
from symplectic_ml.dynamics import advance

from symplectic_ml import analysis, nets
from symplectic_ml.autodiff import Tensor

import helpers as H
from helpers import constant_trajectory

FREE = PotentialParams.single(0.0)
COUPLED = PotentialParams.single(1.0)


def _orbit(params, energy_qx, n_steps=200, dt=0.02, q=(0.0, 0.1)):
    state = PhaseState(q=np.asarray(q), p=np.array([energy_qx, 0.0]))
    return integrate(state, dt, n_steps, HH_FIELD, params)


def _traj(rows, dt=0.1, params=FREE):
    return Trajectory(dt=dt, data=np.asarray(rows, dtype=np.float64), params=params)


# ---------------------------------------------------------------------------
# relative / mean energy error


def test_identical_trajectories_have_zero_error():
    traj = _orbit(COUPLED, 0.3)
    err = relative_energy_error(traj, traj)
    assert err.shape == (len(traj),)
    assert np.all(err == 0.0)
    assert mean_energy_error(traj, traj) == 0.0


def test_two_percent_energy_offset():
    # Truth sits at E = 1/2 (pure displacement along q_x without coupling);
    # the prediction's displacement is inflated so its energy is 1.02 * E.
    truth = constant_trajectory([1.0, 0.0, 0.0, 0.0], n=4)
    pred = constant_trajectory([np.sqrt(1.02), 0.0, 0.0, 0.0], n=4)
    err = relative_energy_error(pred, truth)
    assert err == pytest.approx([2.0] * 4, rel=1e-12)
    assert mean_energy_error(pred, truth) == pytest.approx(2.0, rel=1e-12)


def test_mean_energy_error_averages_pointwise_errors():
    truth = constant_trajectory([1.0, 0.0, 0.0, 0.0], n=3)
    pred = _traj(
        [
            [np.sqrt(1.01), 0.0, 0.0, 0.0],
            [np.sqrt(1.02), 0.0, 0.0, 0.0],
            [np.sqrt(1.03), 0.0, 0.0, 0.0],
        ]
    )
    err = relative_energy_error(pred, truth)
    assert err == pytest.approx([1.0, 2.0, 3.0], rel=1e-10)
    assert mean_energy_error(pred, truth) == pytest.approx(2.0, rel=1e-10)


def test_energy_error_is_evaluated_under_supplied_parameters():
    # Same positions, all the energy mismatch lives in the coupling term:
    # at (q, p) = ((1, 1), 0) the free energy is 1 while the coupled energy
    # picks up alpha * qx^2 * qy - beta * qy^3 / 3 = 1 - 1/3.
    truth = constant_trajectory([1.0, 1.0, 0.0, 0.0], n=2, params=FREE)
    pred = constant_trajectory([0.0, 0.0, np.sqrt(2.0), 0.0], n=2, params=FREE)
    assert mean_energy_error(pred, truth) == pytest.approx(0.0, abs=1e-13)
    coupled = relative_energy_error(pred, truth, params=COUPLED)
    assert coupled == pytest.approx([40.0, 40.0], rel=1e-12)


def test_energy_error_length_mismatch():
    with pytest.raises(LengthMismatch):
        relative_energy_error(
            constant_trajectory([1.0, 0.0, 0.0, 0.0], n=3),
            constant_trajectory([1.0, 0.0, 0.0, 0.0], n=4),
        )


def test_energy_error_rejects_zero_true_energy():
    truth = constant_trajectory([0.0, 0.0, 0.0, 0.0], n=3)
    pred = constant_trajectory([1.0, 0.0, 0.0, 0.0], n=3)
    with pytest.raises(ZeroEnergy):
        relative_energy_error(pred, truth)


# ---------------------------------------------------------------------------
# energy drift


def test_energy_drift_zero_on_constant_trajectory():
    assert energy_drift(constant_trajectory([0.4, -0.2, 0.1, 0.3], n=8)) == 0.0


def test_energy_drift_matches_hand_computation():
    traj = _traj([[1.0, 0.0, 0.0, 0.0], [np.sqrt(1.02), 0.0, 0.0, 0.0]])
    assert energy_drift(traj) == pytest.approx(0.02, rel=1e-12)


def test_energy_drift_rejects_zero_initial_energy():
    with pytest.raises(ZeroEnergy):
        energy_drift(constant_trajectory([0.0, 0.0, 0.0, 0.0], n=4))


def test_energy_drift_small_for_integrated_orbit():
    traj = _orbit(COUPLED, 0.4, n_steps=2000, dt=0.01)
    assert energy_drift(traj) < 1e-4


def test_energy_drift_honours_parameter_override():
    # Constant state, so drift is zero under any fixed parameter choice.
    traj = constant_trajectory([0.3, 0.2, 0.0, 0.0], n=5, params=FREE)
    assert energy_drift(traj, params=COUPLED) == 0.0


# ---------------------------------------------------------------------------
# secular growth ratio


@pytest.mark.parametrize(
    "errors,expected",
    [
        ([1.0] * 6, 1.0),
        ([1.0, 1.0, 1.0, 2.0, 2.0, 2.0], 2.0),
        (np.zeros(4), 1.0),
        (np.arange(10.0), 2.25),
        ([2.0, 1.0, 1.0, 0.5], 0.5),
    ],
)
def test_secular_growth_ratio_values(errors, expected):
    assert secular_growth_ratio(errors) == expected


def test_secular_growth_ratio_infinite_when_flat_then_growing():
    assert np.isinf(secular_growth_ratio([0.0, 0.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# boundedness


def test_bounded_orbit_reports_true():
    traj = _orbit(COUPLED, 0.3, n_steps=500)
    assert boundedness_check(traj) == (True, None)


def test_unbounded_trajectory_reports_first_escape_index():
    data = np.tile([0.1, 0.0, 0.0, 0.0], (6, 1))
    data[3, 0] = 10.5
    data[5, 0] = 25.0
    assert boundedness_check(_traj(data)) == (False, 3)


def test_position_exactly_on_radius_counts_as_bounded():
    data = np.tile([10.0, 0.0, 0.0, 0.0], (4, 1))
    assert boundedness_check(_traj(data)) == (True, None)


def test_nonfinite_sample_is_flagged_even_with_small_position():
    data = np.tile([0.1, 0.0, 0.2, 0.0], (5, 1))
    data[2, 2] = np.nan
    assert boundedness_check(_traj(data)) == (False, 2)


def test_nonfinite_position_is_flagged():
    data = np.tile([0.1, 0.0, 0.2, 0.0], (5, 1))
    data[4, 1] = np.inf
    assert boundedness_check(_traj(data)) == (False, 4)


def test_boundedness_custom_radius():
    data = np.asarray(
        [
            [0.05, 0.0, 0.0, 0.0],
            [0.15, 0.0, 0.0, 0.0],
            [0.25, 0.0, 0.0, 0.0],
        ]
    )
    assert boundedness_check(_traj(data), radius=0.2) == (False, 2)
    assert boundedness_check(_traj(data), radius=0.3) == (True, None)


# ---------------------------------------------------------------------------
# Lyapunov spectra


def test_harmonic_spectrum_is_near_zero():
    state = np.array([0.3, -0.2, 0.1, 0.4])
    spectra = lyapunov_spectra(HH_FIELD, state, FREE, dt=0.01, n_steps=20_000)
    assert spectra.shape == (1, 4)
    assert np.all(np.abs(spectra) <= 1e-3)
    assert np.all(np.diff(spectra[0]) <= 0.0)


def test_chaotic_spectrum_pairs_and_sums_to_zero():
    # Energy 1/8 orbit of the coupled system; the symplectic structure forces
    # exponents into +/- pairs regardless of the orbit's character.
    q = np.array([0.0, 0.25])
    px = np.sqrt(2.0 * (0.125 - (0.5 * 0.25**2 - 0.25**3 / 3.0)))
    state = np.array([q[0], q[1], px, 0.0])
    spectra = lyapunov_spectra(HH_FIELD, state, COUPLED, dt=0.01, n_steps=20_000)
    lam = spectra[0]
    assert np.all(np.diff(lam) <= 0.0)
    assert abs(lam[0] + lam[3]) <= 0.01
    assert abs(lam[1] + lam[2]) <= 0.01
    assert abs(np.sum(lam)) <= 0.02


def _stepped(step, rows, n_steps):
    for _ in range(n_steps):
        rows = step(rows)
    return rows


def test_analytic_flow_over_an_interval_matches_single_steps():
    # the estimator advances each interval in one call, carrying the force
    # from step to step; one step per call evaluates it afresh
    dt = 0.01
    force = HH_FIELD.block_force(COUPLED)
    step = lambda rows: advance(rows.T.copy(), dt, 1, *force).T  # noqa: E731
    rows = analysis._seed_rows(np.array([[0.05, 0.1, 0.3, -0.2]]))
    via_field = advance(rows.T.copy(), dt, 10, *force).T
    assert np.array_equal(via_field, _stepped(step, rows, 10))


def test_separable_model_flow_matches_explicit_stepper():
    spec = DenseNetSpec((2, 8, 1))
    model = SeparableModel(
        kinetic_spec=spec,
        potential_spec=spec,
        params=0.5 * init_params(spec, seed=3),
        fixed_kinetic=True,
    )
    dt = 0.05
    grad_v, grad_k = H.separable_gradients(model, FREE)

    def step(rows):
        q, p = rows[:, :2], rows[:, 2:]
        p1 = p - 0.5 * dt * grad_v(q)
        q2 = q + dt * grad_k(p1)
        p2 = p1 - 0.5 * dt * grad_v(q2)
        return np.concatenate([q2, p2], axis=1)

    state = np.array([0.1, -0.05, 0.2, 0.15])
    rows = analysis._seed_rows(state[None, :])
    via_model = advance(rows.T.copy(), dt, 100, *model.block_force(FREE)).T
    np.testing.assert_allclose(via_model, _stepped(step, rows, 100), rtol=1e-12, atol=1e-15)
    spectra = lyapunov_spectra(model, state, FREE, dt=dt, n_steps=100, renorm_interval=0.5)
    assert spectra.shape == (1, 4)
    assert np.all(np.isfinite(spectra))
    assert np.all(np.diff(spectra[0]) <= 0.0)


@pytest.mark.parametrize("channels", [0, 1])
def test_learned_flow_matches_taped_stepper_bit_for_bit(channels):
    k_spec = DenseNetSpec((2, 8, 1))
    v_spec = DenseNetSpec((2 + channels, 8, 8, 1))
    n = nets.param_count(k_spec) + nets.param_count(v_spec)
    model = SeparableModel(kinetic_spec=k_spec, potential_spec=v_spec,
                           params=0.4 * np.random.default_rng(5).normal(size=n),
                           adaptable=channels > 0, param_channels=channels)
    pot = PotentialParams.single(0.6)
    dt, half = 0.05, 0.025

    def taped_gradient(spec, params, x):
        layers = [(Tensor(w), Tensor(b)) for w, b in nets.unflatten_params(spec, params)]
        return H.taped_value_and_input_gradient(spec, layers, x)[1].data

    def grad_v(q):
        x = np.concatenate([q, np.full((q.shape[0], channels), 0.6)], axis=1)
        return taped_gradient(v_spec, model.potential_params, x)[:, :2]

    def step(rows):
        q, p = rows[:, :2], rows[:, 2:]
        p1 = p - half * grad_v(q)
        q2 = q + dt * taped_gradient(k_spec, model.kinetic_params, p1)
        return np.concatenate([q2, p1 - half * grad_v(q2)], axis=1)

    states = np.array([[0.1, -0.05, 0.2, 0.15], [0.0, 0.1, -0.2, 0.1]])
    rows = analysis._seed_rows(states)
    via_model = advance(rows.T.copy(), dt, 60, *model.block_force(pot)).T
    assert np.array_equal(via_model, _stepped(step, rows, 60))


def test_spectra_batch_matches_individual_seeds():
    states = np.array(
        [
            [0.3, -0.2, 0.1, 0.4],
            [0.0, 0.25, 0.44, 0.0],
        ]
    )
    batch = lyapunov_spectra(HH_FIELD, states, COUPLED, dt=0.02, n_steps=300)
    assert batch.shape == (2, 4)
    for i in range(2):
        solo = lyapunov_spectra(HH_FIELD, states[i], COUPLED, dt=0.02, n_steps=300)
        assert np.array_equal(batch[i], solo[0])


SEED_STATES = np.array([
    [0.3, -0.2, 0.1, 0.4],
    [0.0, 0.25, 0.44, 0.0],
    [0.1, 0.1, -0.3, 0.2],
    [-0.2, 0.05, 0.2, -0.25],
])
SEED_PARAMS = [PotentialParams.single(0.0), PotentialParams.single(0.5),
               PotentialParams.single(1.0), PotentialParams(alpha=0.7, beta=0.3)]


def test_per_seed_couplings_match_each_seed_alone_bit_for_bit():
    batch = lyapunov_spectra(HH_FIELD, SEED_STATES, SEED_PARAMS, dt=0.02, n_steps=300,
                             renorm_interval=0.2)
    assert batch.shape == (4, 4)
    for state, pot, row in zip(SEED_STATES, SEED_PARAMS, batch):
        solo = lyapunov_spectra(HH_FIELD, state, pot, dt=0.02, n_steps=300,
                                renorm_interval=0.2)
        assert np.array_equal(row, solo[0])
    # the couplings reach the field: the uncoupled seed is regular, the others differ
    assert np.all(np.abs(batch[0]) < 0.05)
    assert len({tuple(row) for row in batch}) == 4


@pytest.mark.parametrize("channels", [1, 2])
def test_learned_per_seed_couplings_match_each_seed_alone(channels):
    k_spec = DenseNetSpec((2, 16, 1))
    v_spec = DenseNetSpec((2 + channels, 16, 16, 1))
    n = nets.param_count(k_spec) + nets.param_count(v_spec)
    model = SeparableModel(kinetic_spec=k_spec, potential_spec=v_spec,
                           params=0.4 * np.random.default_rng(7).normal(size=n),
                           adaptable=True, param_channels=channels)
    batch = lyapunov_spectra(model, SEED_STATES, SEED_PARAMS, dt=0.05, n_steps=80,
                             renorm_interval=0.5)
    solo = np.concatenate([
        lyapunov_spectra(model, state, pot, dt=0.05, n_steps=80, renorm_interval=0.5)
        for state, pot in zip(SEED_STATES, SEED_PARAMS)])
    assert np.all(np.isfinite(batch))
    np.testing.assert_allclose(batch, solo, rtol=0.0, atol=1e-9)
    # each seed's network saw its own couplings
    shared = lyapunov_spectra(model, SEED_STATES, SEED_PARAMS[1], dt=0.05, n_steps=80,
                              renorm_interval=0.5)
    assert not np.allclose(batch[[0, 2, 3]], shared[[0, 2, 3]], rtol=0.0, atol=1e-6)


def test_per_seed_params_must_match_the_seed_count():
    with pytest.raises(ShapeMismatch):
        lyapunov_spectra(HH_FIELD, SEED_STATES, SEED_PARAMS[:3], dt=0.02, n_steps=100)


def test_renorm_interval_shorter_than_step_uses_single_step():
    state = np.array([0.3, -0.2, 0.1, 0.4])
    per_step = lyapunov_spectra(HH_FIELD, state, FREE, dt=0.01, n_steps=2000,
                                renorm_interval=0.0)
    assert np.all(np.abs(per_step) <= 1e-3)


def test_spectra_default_to_a_unit_interval_and_drop_a_partial_one():
    state = np.array([0.1, 0.05, 0.2, -0.1])
    default = lyapunov_spectra(HH_FIELD, state, FREE, dt=0.02, n_steps=500)
    unit = lyapunov_spectra(HH_FIELD, state, FREE, dt=0.02, n_steps=500, renorm_interval=1.0)
    # 549 steps hold ten 50-step intervals; the last 49 steps are not taken
    partial = lyapunov_spectra(HH_FIELD, state, FREE, dt=0.02, n_steps=549)
    assert np.array_equal(default, unit)
    assert np.array_equal(default, partial)


def test_spectra_rejects_bad_state_shape():
    with pytest.raises(ShapeMismatch):
        lyapunov_spectra(HH_FIELD, np.zeros((2, 3)), FREE, dt=0.01, n_steps=100)


def test_spectra_rejects_horizon_shorter_than_interval():
    with pytest.raises(ValueError):
        lyapunov_spectra(HH_FIELD, np.zeros(4) + 0.1, FREE, dt=0.01, n_steps=5,
                         renorm_interval=1.0)


class _ConstantField:
    """A force field whose force, and velocity unless it is None (grad K =
    p), is one constant at every row."""

    def __init__(self, force, velocity=None):
        self.force, self.velocity = force, velocity

    def block_force(self, params):
        def binder(value):  # bind(block, out) -> a call that fills ``out``
            return lambda _, out: lambda: out.fill(value)

        return binder(self.force), None if self.velocity is None else binder(self.velocity)


def test_degenerate_flow_raises():
    # a drift of 1e11 per step rounds the 1e-7 position probes away: the
    # interval map loses rank
    with pytest.raises(DegenerateR, match="zero or non-finite diagonal"):
        lyapunov_spectra(_ConstantField(0.0, 1e12), np.array([0.1, 0.0, 0.0, 0.0]), FREE,
                         dt=0.1, n_steps=10)


def test_nonfinite_flow_raises():
    with pytest.raises(DegenerateR, match="non-finite probe rows"):
        lyapunov_spectra(_ConstantField(np.nan), np.array([0.1, 0.0, 0.0, 0.0]), FREE,
                         dt=0.1, n_steps=10)


def test_an_exponent_that_overflows_raises():
    # a span of 1e-319 time units: log growth over it overflows float64
    with pytest.raises(DegenerateR, match="not finite"):
        lyapunov_spectra(HH_FIELD, np.array([0.1, 0.0, 0.0, 0.3]), COUPLED,
                         dt=1e-320, n_steps=10, renorm_interval=1e-320)


def test_uninterpretable_flow_raises_type_error():
    with pytest.raises(TypeError):
        lyapunov_spectra(42, np.zeros(4) + 0.1, FREE, dt=0.1, n_steps=10)


# ---------------------------------------------------------------------------
# Poincaré section


def test_section_empty_when_plane_never_crossed():
    pts = poincare_section(constant_trajectory([1.0, 0.2, 0.3, 0.0], n=50))
    assert pts.n == 0
    for arr in (pts.q_y, pts.p_y, pts.p_x, pts.times):
        assert arr.size == 0


def test_section_interpolates_linearly():
    # q_x runs -1 -> +1 while everything else ramps linearly, so the
    # crossing sits exactly halfway through the first step.
    traj = _traj([[-1.0, 0.0, 2.0, 4.0], [1.0, 1.0, 2.0, 6.0]], dt=0.1)
    pts = poincare_section(traj)
    assert pts.n == 1
    assert pts.q_y[0] == 0.5
    assert pts.p_x[0] == 2.0
    assert pts.p_y[0] == 5.0
    assert pts.times[0] == pytest.approx(0.05, rel=1e-15)


def test_section_keeps_only_positive_px():
    traj = _traj(
        [
            [-1.0, 0.3, 2.0, 0.0],
            [1.0, 0.3, 2.0, 0.0],
            [-1.0, 0.7, -2.0, 0.0],
            [1.0, 0.7, -2.0, 0.0],
        ],
        dt=0.1,
    )
    pts = poincare_section(traj)
    assert pts.n == 1
    assert np.all(pts.p_x > 0.0)
    assert pts.q_y[0] == pytest.approx(0.3)


def test_section_handles_samples_exactly_on_plane():
    traj = _traj(
        [
            [0.0, 0.3, 1.0, 0.0],
            [0.0, 0.6, 1.0, 0.0],
            [1.0, 0.9, 1.0, 0.0],
        ],
        dt=0.1,
    )
    pts = poincare_section(traj)
    assert pts.n == 2
    assert np.array_equal(pts.q_y, [0.3, 0.6])
    assert np.array_equal(pts.times, [0.0, 0.1])


def test_section_of_harmonic_orbit_hits_known_points():
    # For the uncoupled oscillator started at q = (1, 0.5), p = 0, q_x(t)
    # crosses zero with positive p_x at t = 3*pi/2 + 2*pi*k, where the
    # remaining coordinates are q_y = 0, p_x = 1, p_y = 0.5.
    state = PhaseState(q=np.array([1.0, 0.5]), p=np.zeros(2))
    traj = integrate(state, 0.01, 5000, HH_FIELD, FREE)
    pts = poincare_section(traj)
    expected_times = 1.5 * np.pi + 2.0 * np.pi * np.arange(8)
    assert pts.n == 8
    np.testing.assert_allclose(pts.times, expected_times, atol=2e-3)
    np.testing.assert_allclose(pts.p_x, np.ones(8), atol=1e-3)
    np.testing.assert_allclose(pts.q_y, np.zeros(8), atol=1e-3)
    np.testing.assert_allclose(pts.p_y, 0.5 * np.ones(8), atol=1e-3)
    # Negative-p_x crossings (the other half of each period) are dropped.
    qx = traj.data[:, 0]
    n_crossings = int(np.count_nonzero((qx[:-1] * qx[1:] < 0) | (qx[:-1] == 0)))
    assert pts.n == n_crossings // 2


def test_section_converges_under_step_refinement():
    state = PhaseState(q=np.array([1.0, 0.5]), p=np.zeros(2))
    coarse = poincare_section(integrate(state, 0.02, 1000, HH_FIELD, FREE))
    fine = poincare_section(integrate(state, 0.01, 2000, HH_FIELD, FREE))
    assert coarse.n == fine.n > 0
    np.testing.assert_allclose(coarse.times, fine.times, atol=1e-3)
    np.testing.assert_allclose(coarse.q_y, fine.q_y, atol=1e-3)
    np.testing.assert_allclose(coarse.p_y, fine.p_y, atol=1e-3)
