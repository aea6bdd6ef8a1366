"""Trajectory diagnostics: energy drift, Lyapunov spectra, surface sections.

The Lyapunov estimator is the classic tangent-evolution scheme: propagate an
orthonormal frame through the flow-map Jacobian over fixed re-normalisation
intervals, re-orthonormalise by QR, and average the log diagonal of R.  The
Jacobian of each interval map is measured by central finite differences of
the flow itself, so the same estimator runs unchanged on the analytic
integrator and on learned models.  A flow is a force field — the analytic
field or a separable model, through ``block_force(params)``, the one form a
field has — whose probe rows step together as one (4, B) block, in place,
through ``dynamics.advance``, carrying the force from step to step within
each interval; or a callable that steps (B, 4) rows once.  A force field may
give each seed its own couplings: they are repeated over the seed's probe
rows, so the analytic field and the networks see one coupling pair per row.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import ESCAPE_RADIUS, PhaseState, PotentialParams, advance, outside
from .errors import (DegenerateR, LengthMismatch, ShapeMismatch, SymplecticMlError,
                     ZeroEnergy)

FD_EPS = 1e-7


def relative_energy_error(pred, truth, params=None):
    """Pointwise |E_pred - E_true| / E_true, in percent.

    Both trajectories are evaluated under the same analytic energy
    (``params`` defaults to the truth trajectory's own).  Raises
    LengthMismatch on unequal lengths and ZeroEnergy if any true energy
    vanishes.
    """
    if len(pred) != len(truth):
        raise LengthMismatch(f"trajectory lengths differ: {len(pred)} vs {len(truth)}")
    params = params or truth.params
    e_pred = pred.energies(params)
    e_true = truth.energies(params)
    if np.any(e_true == 0.0):
        raise ZeroEnergy("true energy vanishes somewhere along the trajectory")
    return np.abs(e_pred - e_true) / np.abs(e_true) * 100.0


def mean_energy_error(pred, truth, params=None):
    """Mean of the pointwise relative energy error, in percent."""
    return float(np.mean(relative_energy_error(pred, truth, params)))


def energy_drift(traj, params=None):
    """Max |E(t) - E(0)| / |E(0)| over a trajectory (fractional, not %)."""
    e = traj.energies(params or traj.params)
    if e[0] == 0.0:
        raise ZeroEnergy("initial energy is zero")
    return float(np.max(np.abs(e - e[0]) / np.abs(e[0])))


def secular_growth_ratio(errors):
    """Max error over the second half divided by max over the first half.

    Bounded-oscillation sequences sit near 1; linear drift doubles.
    """
    errors = np.asarray(errors, dtype=np.float64)
    half = errors.size // 2
    first = float(np.max(errors[:half]))
    second = float(np.max(errors[half:]))
    if first == 0.0:
        return 1.0 if second == 0.0 else float("inf")
    return second / first


def boundedness_check(traj, radius=ESCAPE_RADIUS):
    """(bounded, first_escape_index) for a trajectory.

    Bounded means no sample is :func:`dynamics.outside` the bounded regime
    of ``radius``.  The index of the first offending sample is returned for
    unbounded trajectories, None otherwise.
    """
    bad = outside(traj.data, radius)
    if not np.any(bad):
        return True, None
    return False, int(np.argmax(bad))


@dataclass(frozen=True)
class LyapunovResult:
    """Estimated spectrum (descending) and the estimation settings."""

    exponents: np.ndarray
    dt: float
    n_steps: int
    renorm_interval: float

    @property
    def maximal(self):
        return float(self.exponents[0])


def _row_params(params, block):
    """Each seed's couplings repeated over its ``block`` probe rows, as one
    PotentialParams of (rows,) arrays; ``params`` itself when it is one pair
    for every seed."""
    if isinstance(params, PotentialParams):
        return params
    return PotentialParams(alpha=np.repeat([p.alpha for p in params], block),
                           beta=np.repeat([p.beta for p in params], block))


def _advancer(flow, params, dt, block):
    """Normalise a flow argument into ``advance(rows, n)``: (B, 4) rows after
    ``n`` steps."""
    if hasattr(flow, "block_force"):
        grad_v, grad_k = flow.block_force(_row_params(params, block))

        def step(rows, n):
            return advance(rows.T.copy(), dt, n, grad_v, grad_k).T

        return step
    if callable(flow):
        if not isinstance(params, PotentialParams):
            raise SymplecticMlError(
                "a callable flow steps rows under its own couplings; per-seed "
                "potential params need a force field")

        def repeat(rows, n):
            for _ in range(n):
                rows = flow(rows)
            return rows

        return repeat
    raise TypeError(f"cannot interpret {type(flow).__name__} as a flow")


def renorm_steps(dt, renorm_interval):
    """Integrator steps per re-normalisation interval (at least one)."""
    return max(1, int(round(renorm_interval / dt)))


def _seed_rows(states):
    """FD probe rows per seed: the point itself, then +/- eps per axis."""
    s, d = states.shape
    rows = np.repeat(states, 1 + 2 * d, axis=0)
    for i in range(d):
        rows[1 + 2 * i :: 1 + 2 * d, i] += FD_EPS
        rows[2 + 2 * i :: 1 + 2 * d, i] -= FD_EPS
    return rows


def lyapunov_spectra(flow, states0, params, dt, n_steps, renorm_interval=1.0):
    """Lyapunov spectra of several seeds at once; returns (S, 4) exponents.

    ``params`` is one PotentialParams for every seed, or a sequence of one
    per seed (a force field only: a callable flow raises
    SymplecticMlError).  ``n_steps`` counts integrator steps; the frame is
    re-orthonormalised every ``renorm_interval`` time units (at least one
    step).  Intervals that do not fit are dropped.  Raises DegenerateR if a
    probe row turns non-finite or any re-orthonormalisation loses rank.
    """
    states0 = np.atleast_2d(np.asarray(states0, dtype=np.float64))
    if states0.ndim != 2 or states0.shape[1] != 4:
        raise ShapeMismatch(f"states must be (S, 4), got {states0.shape}")
    s, d = states0.shape
    if not isinstance(params, PotentialParams) and len(params) != s:
        raise ShapeMismatch(f"got {len(params)} potential params for {s} seeds")
    block = 1 + 2 * d
    advance_rows = _advancer(flow, params, dt, block)
    interval_steps = renorm_steps(dt, renorm_interval)
    n_intervals = n_steps // interval_steps
    if n_intervals < 1:
        raise ValueError("n_steps must cover at least one renorm interval")
    frames = np.broadcast_to(np.eye(d), (s, d, d)).copy()
    sums = np.zeros((s, d))
    rows = _seed_rows(states0)
    for _ in range(n_intervals):
        # an escaping orbit overflows on its way out; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            rows = advance_rows(rows, interval_steps)
        if not np.all(np.isfinite(rows)):
            raise DegenerateR("flow produced non-finite probe rows")
        jac = np.empty((s, d, d))
        for i in range(d):
            jac[:, :, i] = (
                rows[1 + 2 * i :: block] - rows[2 + 2 * i :: block]
            ) / (2.0 * FD_EPS)
        z = jac @ frames
        q, r = np.linalg.qr(z)
        diag = np.einsum("sii->si", r)
        if np.any(~np.isfinite(diag)) or np.any(diag == 0.0):
            raise DegenerateR("QR produced a zero or non-finite diagonal")
        signs = np.sign(diag)
        q = q * signs[:, None, :]
        sums += np.log(diag * signs)
        frames = q
        rows = _seed_rows(rows[0::block])
    spectra = sums / (n_intervals * interval_steps * dt)
    return -np.sort(-spectra, axis=1)


def lyapunov_spectrum(flow, state0, params, dt, n_steps, renorm_interval=1.0):
    """Full spectrum for a single initial state."""
    vec = state0.vec() if isinstance(state0, PhaseState) else np.asarray(state0)
    spectra = lyapunov_spectra(flow, vec[None, :], params, dt, n_steps,
                               renorm_interval)
    return LyapunovResult(
        exponents=spectra[0], dt=dt, n_steps=n_steps,
        renorm_interval=renorm_interval,
    )


def maximal_lyapunov(flow, state0, params, dt, n_steps, renorm_interval=1.0):
    return lyapunov_spectrum(flow, state0, params, dt, n_steps,
                             renorm_interval).maximal


@dataclass(frozen=True)
class SectionPoints:
    """Crossings of the q_x = 0 plane with positive p_x."""

    q_y: np.ndarray
    p_y: np.ndarray
    p_x: np.ndarray
    times: np.ndarray

    @property
    def n(self):
        return self.q_y.size


def poincare_section(traj):
    """Linear-interpolated crossings of q_x = 0 with p_x > 0."""
    qx = traj.data[:, 0]
    sign_change = (qx[:-1] * qx[1:] < 0.0) | (qx[:-1] == 0.0)
    idx = np.flatnonzero(sign_change)
    if idx.size == 0:
        return SectionPoints(*(np.empty(0),) * 4)
    denom = qx[idx] - qx[idx + 1]
    theta = np.where(denom != 0.0, qx[idx] / np.where(denom == 0.0, 1.0, denom), 0.0)
    interp = traj.data[idx] + theta[:, None] * (traj.data[idx + 1] - traj.data[idx])
    times = (idx + theta) * traj.dt
    keep = interp[:, 2] > 0.0
    return SectionPoints(
        q_y=interp[keep, 1], p_y=interp[keep, 3], p_x=interp[keep, 2],
        times=times[keep],
    )
