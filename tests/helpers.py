"""Shared fixtures-in-spirit: small builders and gradient-check utilities."""

import numpy as np
from hypothesis import strategies as st

from symplectic_ml import (
    Dataset,
    GenerationConfig,
    HH_FIELD,
    PhaseState,
    PotentialParams,
    Tensor,
    Trajectory,
    TrajectoryRecord,
    finite_diff_check,
    generate_dataset,
    grad_params_through,
    integrate,
)


# any JSON document a hand-edited or corrupted store could hold
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


def param_grad_check(build_graph, theta0, eps=1e-6):
    """Max relative disagreement between a taped parameter gradient and
    central finite differences.

    ``build_graph(theta_tensor)`` must return a scalar loss Tensor whose
    graph hangs off the given parameter Tensor.
    """

    def f(flat):
        theta = Tensor(flat, requires_grad=True)
        loss = build_graph(theta)
        grad = grad_params_through(loss, theta)
        return loss.item(), grad

    return finite_diff_check(f, np.asarray(theta0, dtype=np.float64), eps)


def input_grad_check(build_graph, x0, eps=1e-6):
    """Like param_grad_check, but differentiates with respect to a flat
    input vector that ``build_graph`` may reshape as it likes."""

    def f(flat):
        x = Tensor(flat, requires_grad=True)
        loss = build_graph(x)
        grad = grad_params_through(loss, x)
        return loss.item(), grad

    return finite_diff_check(f, np.asarray(x0, dtype=np.float64), eps)


def numeric_jacobian(step, x, eps=1e-6):
    """Central-difference Jacobian of a (4,) -> (4,) map."""
    x = np.asarray(x, dtype=np.float64)
    jac = np.empty((4, 4))
    for i in range(4):
        d = np.zeros(4)
        d[i] = eps
        jac[:, i] = (step(x + d) - step(x - d)) / (2.0 * eps)
    return jac


def small_dataset(alphas=(0.5,), energies=(1 / 12,), n_per_cell=2,
                  series_length=40, transient=4, seed=5, **kw):
    """A quickly generated dataset: default 2 trajectories of 36 states at
    coarse spacing 0.1."""
    config = GenerationConfig.single_parameter(
        alphas=alphas,
        energies=energies,
        n_per_cell=n_per_cell,
        series_length=series_length,
        transient=transient,
        seed=seed,
        **kw,
    )
    return generate_dataset(config)


def fabricated_dataset(n_states_list, dt=0.1, alpha=1.0, energy=1 / 12,
                       seed=9, dts=None):
    """A dataset assembled from genuine integrator output, without running
    the full generation pipeline.  ``n_states_list`` gives each trajectory's
    stored length."""
    pot = PotentialParams.single(alpha)
    rng = np.random.default_rng(seed)
    trajectories, records = [], []
    for j, n in enumerate(n_states_list):
        q = rng.uniform(-0.1, 0.1, size=2)
        p = rng.uniform(-0.2, 0.2, size=2)
        step = dt if dts is None else dts[j]
        traj = integrate(PhaseState(q=q, p=p), step, n - 1, HH_FIELD, pot)
        trajectories.append(traj)
        records.append(TrajectoryRecord(alpha=alpha, beta=alpha, energy=energy))
    return Dataset(trajectories, records, config=None)


def constant_trajectory(row, n, dt=0.1, params=None):
    """A trajectory whose every sample is the same state row."""
    params = params or PotentialParams.single(0.0)
    data = np.tile(np.asarray(row, dtype=np.float64), (n, 1))
    return Trajectory(dt=dt, data=data, params=params)
