"""Ground-truth dynamics: energies, gradients, and the leapfrog integrator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplectic_ml import (
    BadFactor,
    HH_FIELD,
    IntegrationDiverged,
    PhaseState,
    PotentialParams,
    ShapeMismatch,
    Trajectory,
    hh_energy,
    hh_energy_batch,
    hh_grad_v,
    hh_potential,
    integrate,
    integrate_batch,
    leapfrog_step,
)
from symplectic_ml.dynamics import (
    ESCAPE_RADIUS,
    advance,
    hh_grad_v_block,
    hh_grad_v_columns,
    outside,
)

from helpers import numeric_jacobian

UNIT = PotentialParams.single(1.0)


def test_potential_value_at_sample_point():
    # 0.5*(0.01+0.04) + 0.01*0.2 - 0.008/3 = 73/3000
    assert hh_potential(np.array([0.1, 0.2]), UNIT) == pytest.approx(73 / 3000, rel=1e-14)


def test_energy_adds_kinetic_term():
    state = PhaseState(q=[0.1, 0.2], p=[0.3, 0.4])
    assert hh_energy(state, UNIT) == pytest.approx(73 / 3000 + 0.125, rel=1e-14)


def test_energy_batch_of_a_per_row_block_matches_the_row_formula_bit_for_bit():
    # the formula dataset generation once kept for (B, M, 4) blocks, written out
    rng = np.random.default_rng(3)
    block = rng.uniform(-0.6, 0.6, size=(5, 7, 4))
    alpha, beta = rng.uniform(0.0, 1.0, 5), rng.uniform(0.0, 1.0, 5)
    qx, qy, px, py = block[:, :, 0], block[:, :, 1], block[:, :, 2], block[:, :, 3]
    expected = (0.5 * (px * px + py * py) + 0.5 * (qx * qx + qy * qy)
                + alpha[:, None] * qx * qx * qy - beta[:, None] * (qy * qy * qy) / 3.0)
    got = hh_energy_batch(block, PotentialParams(alpha[:, None], beta[:, None]))
    assert got.shape == (5, 7)
    assert np.array_equal(got, expected)


def test_energy_batch_matches_scalar():
    rng = np.random.default_rng(0)
    rows = rng.uniform(-0.5, 0.5, size=(6, 4))
    pot = PotentialParams(alpha=0.7, beta=1.3)
    batch = hh_energy_batch(rows, pot)
    for i in range(6):
        assert batch[i] == pytest.approx(
            hh_energy(PhaseState(q=rows[i, :2], p=rows[i, 2:]), pot), rel=1e-14
        )


def test_potential_gradient_symmetric_couplings():
    g = hh_grad_v(np.array([0.1, 0.2]), UNIT)
    assert g == pytest.approx([0.14, 0.17], rel=1e-14)


def test_potential_gradient_independent_couplings():
    g = hh_grad_v(np.array([0.1, 0.2]), PotentialParams(alpha=0.5, beta=2.0))
    assert g == pytest.approx([0.12, 0.125], rel=1e-14)


def test_potential_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    pot = PotentialParams(alpha=0.8, beta=1.1)
    for _ in range(5):
        q = rng.uniform(-0.8, 0.8, size=2)
        eps = 1e-6
        for i in range(2):
            d = np.zeros(2)
            d[i] = eps
            fd = (hh_potential(q + d, pot) - hh_potential(q - d, pot)) / (2 * eps)
            assert hh_grad_v(q, pot)[i] == pytest.approx(fd, abs=1e-8)


def test_kinetic_gradient_is_momentum():
    grad_k = HH_FIELD.columns(UNIT)[1]
    assert grad_k(0.3, -0.4) == (0.3, -0.4)


def test_leapfrog_step_decoupled_oscillator():
    # alpha = beta = 0, q = (1, 0), p = (0, 0), dt = 0.1:
    # p_half = -0.05, q' = 0.995, p' = -0.09975
    state = leapfrog_step(
        PhaseState(q=[1.0, 0.0], p=[0.0, 0.0]), 0.1, HH_FIELD,
        PotentialParams.single(0.0),
    )
    assert state.q == pytest.approx([0.995, 0.0], abs=1e-15)
    assert state.p == pytest.approx([-0.09975, 0.0], abs=1e-15)


def test_integrate_matches_harmonic_solution():
    pot = PotentialParams.single(0.0)
    traj = integrate(PhaseState(q=[1.0, 0.0], p=[0.0, 0.5]), 0.001, 1000, HH_FIELD, pot)
    t = traj.times
    assert np.allclose(traj.q[:, 0], np.cos(t), atol=1e-5)
    assert np.allclose(traj.p[:, 0], -np.sin(t), atol=1e-5)
    assert np.allclose(traj.q[:, 1], 0.5 * np.sin(t), atol=1e-5)


def test_halving_dt_quarters_global_error():
    pot = PotentialParams.single(0.0)
    exact = np.array([np.cos(0.1), 0.0, -np.sin(0.1), 0.0])

    def error_at_fixed_horizon(dt):
        steps = int(round(0.1 / dt))
        traj = integrate(PhaseState(q=[1.0, 0.0], p=[0.0, 0.0]), dt, steps, HH_FIELD, pot)
        return np.max(np.abs(traj.data[-1] - exact))

    ratio = error_at_fixed_horizon(0.01) / error_at_fixed_horizon(0.005)
    assert 3.5 < ratio < 4.5


def test_step_reversibility_with_negated_dt():
    pot = PotentialParams.single(1.0)
    state0 = PhaseState(q=[0.2, -0.1], p=[0.3, 0.15])
    forward = leapfrog_step(state0, 0.05, HH_FIELD, pot)
    back = leapfrog_step(forward, -0.05, HH_FIELD, pot)
    assert np.max(np.abs(back.vec() - state0.vec())) < 1e-14


def test_trajectory_reversibility_via_momentum_flip():
    pot = PotentialParams.single(1.0)
    state0 = PhaseState(q=[0.2, -0.1], p=[0.3, 0.15])
    forward = integrate(state0, 0.05, 100, HH_FIELD, pot)
    last = PhaseState.from_vec(forward.data[-1])
    flipped = PhaseState(q=last.q, p=-last.p)
    back = integrate(flipped, 0.05, 100, HH_FIELD, pot)
    final = PhaseState.from_vec(back.data[-1])
    assert np.max(np.abs(final.q - state0.q)) < 1e-10
    assert np.max(np.abs(-final.p - state0.p)) < 1e-10


def test_step_jacobian_determinant_is_one():
    pot = PotentialParams.single(1.0)

    def step(vec):
        out = leapfrog_step(PhaseState(q=vec[:2], p=vec[2:]), 0.1, HH_FIELD, pot)
        return out.vec()

    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, size=4)
        det = np.linalg.det(numeric_jacobian(step, x))
        assert det == pytest.approx(1.0, abs=1e-6)


def test_energy_stays_bounded_over_long_run():
    pot = PotentialParams.single(1.0)
    traj = integrate(PhaseState(q=[0.1, -0.15], p=[0.3, 0.2]), 0.01, 20000, HH_FIELD, pot)
    energies = traj.energies()
    drift = np.max(np.abs(energies - energies[0]) / abs(energies[0]))
    assert drift < 1e-4


def test_escape_raises_with_step_index():
    pot = PotentialParams.single(1.0)
    with pytest.raises(IntegrationDiverged) as exc:
        integrate(PhaseState(q=[0.0, 0.0], p=[1000.0, 0.0]), 0.1, 5, HH_FIELD, pot)
    assert exc.value.step == 1


def _float_rule_outside(qx, qy, px, py):
    """The bounded-regime test that ``integrate`` applies to each step's floats."""
    huge = np.finfo(float).max
    return not (abs(qx) <= ESCAPE_RADIUS and abs(qy) <= ESCAPE_RADIUS
                and abs(px) <= huge and abs(py) <= huge)


_EDGE_COMPONENTS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, ESCAPE_RADIUS, -ESCAPE_RADIUS,
                     np.nextafter(ESCAPE_RADIUS, np.inf),
                     -np.nextafter(ESCAPE_RADIUS, np.inf),
                     np.nextafter(ESCAPE_RADIUS, 0.0), 0.0, -0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2 * ESCAPE_RADIUS, 2 * ESCAPE_RADIUS),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[_EDGE_COMPONENTS] * 4), min_size=1, max_size=12))
def test_outside_agrees_with_the_float_rule_row_by_row(rows):
    block = np.array(rows, dtype=np.float64)
    expected = [_float_rule_outside(*row) for row in rows]
    for shape in [(len(rows),), (1, len(rows)), (len(rows), 1, 1)]:
        got = outside(block.reshape(*shape, 4))
        assert got.shape == shape and got.dtype == bool
        assert got.ravel().tolist() == expected


def _reference_orbit(state, dt, n_steps, pot, radius=10.0):
    """Kick-drift-kick on PhaseState arrays, grad V evaluated twice per step.
    Returns the states and the step whose position left ``radius`` (or None)."""
    half = 0.5 * dt
    rows = [state.vec()]
    for i in range(1, n_steps + 1):
        p1 = state.p - half * hh_grad_v(state.q, pot)
        q2 = state.q + dt * p1
        if not np.all(np.isfinite(q2)) or np.max(np.abs(q2)) > radius:
            return np.array(rows), i
        state = PhaseState(q=q2, p=p1 - half * hh_grad_v(q2, pot))
        rows.append(state.vec())
    return np.array(rows), None


def test_integrate_matches_per_step_reference_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(4):
        state = PhaseState(q=rng.uniform(-0.4, 0.4, 2), p=rng.uniform(-0.4, 0.4, 2))
        pot = PotentialParams(alpha=rng.uniform(0, 1), beta=rng.uniform(0, 1))
        ref, escape = _reference_orbit(state, 0.03, 500, pot)
        assert escape is None
        assert np.array_equal(integrate(state, 0.03, 500, HH_FIELD, pot).data, ref)


def test_integrate_reports_the_reference_escape_step():
    # above the escape energy (1/6 at alpha = beta = 1) the orbit leaves
    state = PhaseState(q=[0.0, 0.2], p=[0.3, 0.8])
    ref, escape = _reference_orbit(state, 0.05, 400, UNIT)
    assert escape is not None and escape > 5
    with pytest.raises(IntegrationDiverged) as exc:
        integrate(state, 0.05, 400, HH_FIELD, UNIT)
    assert exc.value.step == escape
    stopped = integrate(state, 0.05, escape - 1, HH_FIELD, UNIT)
    assert np.array_equal(stopped.data, ref)


def test_integrate_stride_keeps_every_stride_th_state():
    state = PhaseState(q=[0.1, -0.2], p=[0.25, 0.1])
    full = integrate(state, 0.01, 300, HH_FIELD, UNIT)
    sub = integrate(state, 0.01, 300, HH_FIELD, UNIT, stride=100)
    assert np.array_equal(sub.data, full.data[::100])
    assert sub.dt == 0.01 * 100
    with pytest.raises(BadFactor):
        integrate(state, 0.01, 300, HH_FIELD, UNIT, stride=7)


def _reference_batch_row(row, alpha, beta, dt, n_steps, stride, radius=10.0):
    """One row of integrate_batch, stepped alone: record every stride-th
    state; a recorded state that is non-finite or outside ``radius`` marks
    the escape and freezes the row at zero."""
    pot = PotentialParams(alpha=alpha, beta=beta)
    half = 0.5 * dt
    q, p = row[:2].copy(), row[2:].copy()
    out, escaped = [row.copy()], -1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps // stride + 1):
            for _ in range(stride):
                p = p - half * hh_grad_v(q, pot)
                q = q + dt * p
                p = p - half * hh_grad_v(q, pot)
            out.append(np.concatenate([q, p]))
            if not np.all(np.isfinite(out[-1])) or np.max(np.abs(q)) > radius:
                escaped = k if escaped < 0 else escaped
                q, p = np.zeros(2), np.zeros(2)
    return np.array(out), escaped


def test_integrate_batch_matches_per_row_reference_with_frozen_rows():
    states = np.array([
        [0.1, -0.05, 0.2, 0.1],
        [0.0, 0.0, 300.0, 0.0],   # leaves at the first record
        [0.0, 0.2, 0.3, 0.8],     # leaves after some records
        [-0.2, 0.1, 0.0, -0.3],
    ])
    alphas = np.array([0.5, 1.0, 1.0, 0.9])
    betas = np.array([0.7, 1.0, 1.0, 0.4])
    coarse, escaped = integrate_batch(states, alphas, betas, 0.05, 400, stride=5)
    for i in range(4):
        ref, ref_escaped = _reference_batch_row(states[i], alphas[i], betas[i], 0.05, 400, 5)
        assert escaped[i] == ref_escaped
        assert np.array_equal(coarse[i], ref, equal_nan=True)
    assert escaped[0] == escaped[3] == -1 and escaped[1] == 1 and escaped[2] > 1
    assert np.all(coarse[2, escaped[2] + 1:] == 0.0)


def test_integrate_rejects_zero_steps():
    with pytest.raises(ValueError):
        integrate(PhaseState(q=[0.1, 0.0], p=[0.0, 0.0]), 0.1, 0, HH_FIELD, UNIT)


def test_phase_state_validation():
    with pytest.raises(ShapeMismatch):
        PhaseState(q=[1.0, 2.0, 3.0], p=[0.0, 0.0])
    with pytest.raises(ValueError):
        PhaseState(q=[np.nan, 0.0], p=[0.0, 0.0])
    v = PhaseState(q=[1.0, 2.0], p=[3.0, 4.0]).vec()
    assert np.array_equal(v, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(PhaseState.from_vec(v).vec(), v)
    with pytest.raises(ShapeMismatch):
        PhaseState.from_vec(np.ones(5))


def test_potential_params_channels():
    pot = PotentialParams(alpha=0.3, beta=0.9)
    assert np.array_equal(pot.channels(1), [0.3])
    assert np.array_equal(pot.channels(2), [0.3, 0.9])
    with pytest.raises(ShapeMismatch):
        pot.channels(3)
    single = PotentialParams.single(0.4)
    assert single.alpha == single.beta == 0.4
    with pytest.raises(ValueError):
        PotentialParams(alpha=np.inf, beta=0.0)


def test_per_row_potential_params_give_a_channel_block():
    rows = PotentialParams(alpha=np.array([0.1, 0.2, 0.3]), beta=np.array([0.4, 0.5, 0.6]))
    assert np.array_equal(rows.channels(1), [[0.1], [0.2], [0.3]])
    assert np.array_equal(rows.channels(2), [[0.1, 0.4], [0.2, 0.5], [0.3, 0.6]])
    with pytest.raises(ValueError):
        PotentialParams(alpha=np.array([0.1, np.nan]), beta=np.zeros(2))


def test_trajectory_validation_and_views():
    pot = PotentialParams.single(1.0)
    data = np.array([[0.1, 0.0, 0.0, 0.2], [0.1, 0.0, 0.0, 0.19]])
    traj = Trajectory(dt=0.1, data=data, params=pot)
    assert len(traj) == 2
    assert np.array_equal(traj.q, data[:, :2])
    assert np.array_equal(traj.p, data[:, 2:])
    assert np.allclose(traj.times, [0.0, 0.1])
    with pytest.raises(ShapeMismatch):
        Trajectory(dt=0.1, data=np.zeros((0, 4)), params=pot)
    for dt in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            Trajectory(dt=dt, data=data, params=pot)


def test_batch_step_matches_scalar_step_bitwise():
    rng = np.random.default_rng(3)
    states = rng.uniform(-0.5, 0.5, size=(8, 4))
    alphas = rng.uniform(0.0, 1.0, size=8)
    betas = rng.uniform(0.0, 1.0, size=8)
    out = advance(states.T.copy(), 0.07, 1, hh_grad_v_block(alphas, betas)).T
    for i in range(8):
        pot = PotentialParams(alpha=alphas[i], beta=betas[i])
        ref = leapfrog_step(
            PhaseState(q=states[i, :2], p=states[i, 2:]), 0.07, HH_FIELD, pot
        )
        assert np.array_equal(out[i], ref.vec())


# a quiet NaN with its own payload, apart from np.nan and -np.nan
ODD_NAN = np.uint64(0x7FF8_0000_0000_0F0F).view(np.float64)


@pytest.mark.parametrize("per_row", [False, True])
def test_block_force_matches_columns_bytewise(per_row):
    rng = np.random.default_rng(12)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, ODD_NAN])
    q = rng.uniform(-2.0, 2.0, size=(2, 200))
    mask = rng.random(q.shape) < 0.3
    q[mask] = rng.choice(special, size=int(mask.sum()))
    if per_row:
        alpha, beta = rng.uniform(-1.0, 1.0, size=(2, 200))
        for c in (alpha, beta):
            c[:7] = special
            c[rng.random(200) < 0.1] = -0.0
    else:
        alpha, beta = 0.7, -1.3
    f = np.empty_like(q)
    with np.errstate(invalid="ignore", over="ignore"):
        hh_grad_v_block(alpha, beta)(q, f)()
        gx, gy = hh_grad_v_columns(alpha, beta)(q[0], q[1])
    assert f.tobytes() == np.stack([gx, gy]).tobytes()


def test_integrate_batch_matches_scalar_integrate_bitwise():
    rng = np.random.default_rng(4)
    states = rng.uniform(-0.4, 0.4, size=(3, 4))
    coarse, escaped = integrate_batch(states, 0.6, 0.6, 0.05, 40, stride=1)
    assert np.array_equal(escaped, [-1, -1, -1])
    pot = PotentialParams.single(0.6)
    for i in range(3):
        ref = integrate(PhaseState(q=states[i, :2], p=states[i, 2:]), 0.05, 40,
                        HH_FIELD, pot)
        assert np.array_equal(coarse[i], ref.data)


def test_integrate_batch_stride_subsamples():
    rng = np.random.default_rng(5)
    states = rng.uniform(-0.4, 0.4, size=(2, 4))
    full, _ = integrate_batch(states, 1.0, 1.0, 0.02, 40, stride=1)
    sub, _ = integrate_batch(states, 1.0, 1.0, 0.02, 40, stride=10)
    assert np.array_equal(sub, full[:, ::10])
    with pytest.raises(BadFactor):
        integrate_batch(states, 1.0, 1.0, 0.02, 41, stride=10)


def test_integrate_batch_flags_escaped_rows_and_freezes_them():
    states = np.array(
        [[0.0, 0.0, 200.0, 0.0], [0.1, 0.0, 0.0, 0.1]]  # row 0 escapes at once
    )
    coarse, escaped = integrate_batch(states, 1.0, 1.0, 0.1, 3, stride=1)
    assert escaped[0] == 1
    assert escaped[1] == -1
    # the bounded row is unaffected by its escaped neighbour
    pot = PotentialParams.single(1.0)
    ref = integrate(PhaseState(q=[0.1, 0.0], p=[0.0, 0.1]), 0.1, 3, HH_FIELD, pot)
    assert np.array_equal(coarse[1], ref.data)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(0.005, 0.15),
)
def test_leapfrog_reversibility_property(seed, dt):
    rng = np.random.default_rng(seed)
    state0 = PhaseState(q=rng.uniform(-0.4, 0.4, 2), p=rng.uniform(-0.4, 0.4, 2))
    pot = PotentialParams(alpha=rng.uniform(0, 1), beta=rng.uniform(0, 1))
    forward = leapfrog_step(state0, dt, HH_FIELD, pot)
    back = leapfrog_step(forward, -dt, HH_FIELD, pot)
    assert np.max(np.abs(back.vec() - state0.vec())) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_leapfrog_volume_preservation_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, size=4)
    pot = PotentialParams(alpha=rng.uniform(0, 1), beta=rng.uniform(0, 1))

    def step(vec):
        return leapfrog_step(
            PhaseState(q=vec[:2], p=vec[2:]), 0.08, HH_FIELD, pot
        ).vec()

    det = np.linalg.det(numeric_jacobian(step, x))
    assert det == pytest.approx(1.0, abs=1e-5)
