"""Ground-truth dynamics: a two-degree-of-freedom oscillator with cubic
coupling, its conserved energy, and the symplectic leapfrog.

The Hamiltonian is separable, H = K(p) + V(q), with unit masses and unit
linear frequencies:

    K = (p_x^2 + p_y^2) / 2
    V = (q_x^2 + q_y^2) / 2 + alpha * q_x^2 q_y - beta * q_y^3 / 3

``alpha == beta`` recovers the single-parameter family; bounded motion exists
below an escape energy (1/6 at alpha = beta = 1).  The energy has one
formula, :func:`hh_energy_batch`.

Phase-space layout used everywhere in the package: a state vector is
``(q_x, q_y, p_x, p_y)`` and batches stack such rows.  A state has left
the bounded regime when a component is non-finite or its position lies
beyond :data:`ESCAPE_RADIUS` in sup-norm; :func:`outside` is that rule, for
every integrator, training loss and diagnostic of the package.

Every leapfrog in the package, analytic or learned, steps one C-contiguous
(4, B) block in place through :func:`advance`: rows 0-1 are q, rows 2-3 are
p, grad V is carried in a (2, B) buffer, and a step makes 11 ufunc calls
into preallocated arrays.  A force field has one form, ``block_force(params)``,
the block pair ``(grad_v, grad_k)`` of binders (see :func:`hh_grad_v_block`).
The analytic :data:`HH_FIELD` and a learned ``models.SeparableModel`` are the
two fields.  One orbit of the analytic field alone also steps in Python
floats, where a step costs less than one array call; :func:`integrate`
picks that loop by the field's type.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadFactor, IntegrationDiverged, ShapeMismatch

ESCAPE_RADIUS = 10.0


def outside(states, radius=ESCAPE_RADIUS):
    """Whether each state of a (..., 4) block has left the bounded regime: a
    non-finite component, or a position beyond ``radius`` in sup-norm.  A
    bool array over the leading axes."""
    states = np.asarray(states)
    return (~np.all(np.isfinite(states), axis=-1)
            | (np.max(np.abs(states[..., :2]), axis=-1) > radius))


@dataclass(frozen=True)
class PotentialParams:
    """Coupling strengths of the cubic potential terms: scalars, or (B,)
    arrays giving one pair per row of a batch (such params are not
    comparable or hashable)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.beta))):
            raise ValueError("potential parameters must be finite")

    @classmethod
    def single(cls, alpha):
        """Single-parameter family: beta locked to alpha."""
        return cls(alpha=float(alpha), beta=float(alpha))

    def channels(self, n):
        """The parameters fed to adaptable networks, 1 or 2 channels: an (n,)
        vector for scalar couplings, a (B, n) block for per-row ones."""
        if n not in (1, 2):
            raise ShapeMismatch(f"parameter channel count must be 1 or 2, got {n}")
        return np.stack([self.alpha, self.beta][:n], axis=-1)


@dataclass(frozen=True)
class PhaseState:
    """One point in phase space: positions ``q`` and momenta ``p``."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        p = np.asarray(self.p, dtype=np.float64)
        if q.shape != (2,) or p.shape != (2,):
            raise ShapeMismatch(f"state needs q, p of shape (2,), got {q.shape}, {p.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("state components must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def vec(self):
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_vec(cls, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (4,):
            raise ShapeMismatch(f"state vector must have shape (4,), got {v.shape}")
        return cls(q=v[:2], p=v[2:])


def hh_potential(q, params):
    """Potential energy at position ``q``: the energy of ``(q, 0, 0)``."""
    return hh_energy_batch(np.array([q[0], q[1], 0.0, 0.0]), params)


def hh_energy(state, params):
    """Total energy of one state: :func:`hh_energy_batch` of its vector."""
    return hh_energy_batch(state.vec(), params)


def hh_grad_v_columns(alpha, beta):
    """Gradient of the potential as ``grad_v(q_x, q_y) -> (g_x, g_y)``;
    couplings scalar or one per entry."""
    two_alpha = 2.0 * alpha

    def grad_v(qx, qy):
        return qx + two_alpha * qx * qy, qy + alpha * qx * qx - beta * qy * qy

    return grad_v


def hh_grad_v_block(alpha, beta):
    """Gradient of the potential in block form, couplings scalar or (B,):
    ``bind(q, f)`` takes a (2, B) position block and a (2, B) output block
    and returns a call that writes grad V at ``q``'s current values into
    ``f``.  Row 0 is ``2 alpha * q_x * q_y`` and row 1 ``alpha * q_x * q_x``,
    each added to its own ``q`` row, then row 1 less ``beta * q_y * q_y``:
    the products and sums of :func:`hh_grad_v_columns` with their operands in
    the same order, so the two agree bit for bit, NaN payloads included."""
    coef = np.reshape(np.array([2.0 * alpha, alpha], dtype=np.float64), (2, -1))
    beta = np.asarray(beta, dtype=np.float64)

    def bind(q, f):
        qx, qy, swapped, fy = q[0], q[1], q[::-1], f[1]
        work = np.empty_like(qy)

        def grad_v():
            np.multiply(coef, qx, f)
            np.multiply(f, swapped, f)
            np.add(q, f, f)
            np.multiply(beta, qy, work)
            np.multiply(work, qy, work)
            np.subtract(fy, work, fy)

        return grad_v

    return bind


def hh_grad_v(q, params):
    """Gradient of the potential with respect to ``q``."""
    return np.array(hh_grad_v_columns(params.alpha, params.beta)(q[0], q[1]))


class AnalyticField:
    """The analytic force field; its ``grad_k`` None is grad K = p."""

    def block_force(self, params):
        return hh_grad_v_block(params.alpha, params.beta), None


HH_FIELD = AnalyticField()


class Trajectory:
    """A uniformly sampled trajectory: (N, 4) state rows at spacing ``dt``
    under the couplings ``params``."""

    def __init__(self, dt, data, params):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != 4 or data.shape[0] < 1:
            raise ShapeMismatch(f"trajectory data must be (N>=1, 4), got {data.shape}")
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        self.dt = float(dt)
        self.data = data
        self.params = params

    def __len__(self):
        return self.data.shape[0]

    @property
    def q(self):
        return self.data[:, :2]

    @property
    def p(self):
        return self.data[:, 2:]

    @property
    def times(self):
        return np.arange(len(self)) * self.dt

    def energies(self, params=None):
        """Total energy at every sample, under ``params`` (default: own)."""
        return hh_energy_batch(self.data, params or self.params)


def hh_energy_batch(states, params):
    """Energies of a (..., 4) block of states; the couplings broadcast
    against the leading axes, so (B, 1) ones give each row of a (B, M, 4)
    block its own."""
    qx, qy, px, py = states[..., 0], states[..., 1], states[..., 2], states[..., 3]
    return (
        0.5 * (px * px + py * py)
        + 0.5 * (qx * qx + qy * qy)
        + params.alpha * qx * qx * qy
        - params.beta * (qy * qy * qy) / 3.0
    )


def advance(block, dt, n_steps, grad_v, grad_k=None, out=None):
    """``n_steps`` leapfrog steps of a C-contiguous (4, B) block, in place.

    ``grad_v`` and ``grad_k`` are block binders (see :func:`hh_grad_v_block`)
    of the positions and momenta; ``grad_k`` None means grad K = p.  The
    force is evaluated at the block's start, then carried from step to step,
    and each step is a kick of ``dt / 2``, a drift of ``dt`` and a kick of
    ``dt / 2``: second order, symplectic, and time-reversible for separable
    fields.  ``out``, an (n_steps, 4, B) array, receives the block after each
    step.  Returns ``block``.
    """
    q, p = block[:2], block[2:]
    f, t = np.empty_like(q), np.empty_like(q)
    force = grad_v(q, f)
    velocity = None if grad_k is None else grad_k(p, t)
    # 0-d arrays: a Python float operand costs each call a conversion
    dt, half = np.array(dt), np.array(0.5 * dt)
    force()
    np.multiply(half, f, t)
    for k in range(n_steps):
        np.subtract(p, t, p)
        if velocity is None:
            np.multiply(dt, p, t)
        else:
            velocity()
            np.multiply(dt, t, t)
        np.add(q, t, q)
        force()
        np.multiply(half, f, t)
        np.subtract(p, t, p)
        if out is not None:
            out[k] = block
    return block


def _diverged(step, qx, qy):
    """IntegrationDiverged for an :func:`outside` state at position ``(qx, qy)``."""
    why = ("momentum became non-finite"
           if abs(qx) <= ESCAPE_RADIUS and abs(qy) <= ESCAPE_RADIUS
           else f"position left the bounded regime (|q| > {ESCAPE_RADIUS})")
    return IntegrationDiverged(f"diverged at step {step}: {why}", step=step)


def _analytic_orbit(state0, dt, n_steps, params, stride):
    """Every ``stride``-th state of one orbit of the analytic field, stepped
    in Python floats with grad K = p.

    Each step is checked against :func:`outside`'s rule, spelled out on the
    four floats: an array call would cost more than the step itself.
    """
    grad_v = hh_grad_v_columns(params.alpha, params.beta)
    half, huge = 0.5 * dt, sys.float_info.max
    qx, qy, px, py = (float(x) for x in state0.vec())
    rows = [(qx, qy, px, py)]
    with np.errstate(over="ignore", invalid="ignore"):
        fx, fy = grad_v(qx, qy)
        for i in range(1, n_steps + 1):
            px = px - half * fx
            py = py - half * fy
            qx = qx + dt * px
            qy = qy + dt * py
            fx, fy = grad_v(qx, qy)
            px = px - half * fx
            py = py - half * fy
            if not (abs(qx) <= ESCAPE_RADIUS and abs(qy) <= ESCAPE_RADIUS
                    and abs(px) <= huge and abs(py) <= huge):
                raise _diverged(i, qx, qy)
            if i % stride == 0:
                rows.append((qx, qy, px, py))
    return np.array(rows)


# steps per advance of a one-orbit block: a diverged orbit stops within one
# chunk of the step that left the bounded regime
ORBIT_CHUNK = 64


def _orbit(state0, dt, n_steps, field, params, stride):
    """Every ``stride``-th state of one orbit: the analytic field's stepped
    in floats, any other's as a (4, 1) block through :func:`advance` in
    chunks of :data:`ORBIT_CHUNK` steps, each chunk checked by :func:`outside`."""
    if isinstance(field, AnalyticField):
        return _analytic_orbit(state0, dt, n_steps, params, stride)
    grad_v, grad_k = field.block_force(params)
    data = np.empty((n_steps + 1, 4))
    data[0] = state0.vec()
    block = data[0][:, None].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n_steps, ORBIT_CHUNK):
            steps = data[k + 1 : k + 1 + ORBIT_CHUNK]
            advance(block, dt, len(steps), grad_v, grad_k, out=steps[:, :, None])
            bad = outside(steps)
            if bad.any():
                i = int(np.argmax(bad))
                raise _diverged(k + 1 + i, steps[i, 0], steps[i, 1])
    return np.ascontiguousarray(data[::stride])


def integrate(state0, dt, n_steps, field, params, stride=1):
    """Integrate ``n_steps`` leapfrog steps of one orbit under ``field``,
    anything with a ``block_force(params)`` method.

    Returns every ``stride``-th state (``n_steps // stride + 1`` samples at
    spacing ``dt * stride``); ``stride`` must divide ``n_steps``.  Raises
    IntegrationDiverged, with the step index, once a state is :func:`outside`
    the bounded regime.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not isinstance(stride, (int, np.integer)) or stride < 1 or n_steps % stride:
        raise BadFactor(f"stride {stride!r} must be a positive divisor of {n_steps}")
    return Trajectory(dt=dt * stride, data=_orbit(state0, dt, n_steps, field, params, stride),
                      params=params)


def leapfrog_step(state, dt, field, params):
    """One leapfrog step of one state; diverges as :func:`integrate` does."""
    return PhaseState.from_vec(_orbit(state, dt, 1, field, params, 1)[-1])


def integrate_batch(states0, alpha, beta, dt, n_steps, stride=1):
    """Integrate a batch, recording every ``stride``-th step.

    ``states0`` is (B, 4); ``alpha``/``beta`` scalar or (B,).  ``stride`` must
    divide ``n_steps``.  Returns ``(coarse, escaped)`` where ``coarse`` is
    (B, n_steps // stride + 1, 4) and ``escaped[b]`` is the first recorded
    index at which row ``b`` was :func:`outside` the bounded regime (-1 for
    rows that stayed bounded).  Rows keep integrating after escape;
    their later samples are garbage and must be discarded by the caller.
    """
    if n_steps % stride != 0:
        raise BadFactor(f"stride {stride} must divide n_steps {n_steps}")
    n_coarse = n_steps // stride
    b = states0.shape[0]
    coarse = np.empty((b, n_coarse + 1, 4))
    coarse[:, 0] = states0
    escaped = np.full(b, -1, dtype=np.int64)
    grad_v = hh_grad_v_block(alpha, beta)
    block = np.array(states0.T, dtype=np.float64, order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_coarse + 1):
            advance(block, dt, stride, grad_v)
            cur = coarse[:, k]
            cur[:] = block.T
            bad = outside(cur)
            newly = bad & (escaped < 0)
            escaped[newly] = k
            if np.any(bad):
                # freeze escaped rows so overflow cannot poison the batch; the
                # next advance evaluates the force at the frozen position
                block[:, bad] = 0.0
    return coarse, escaped
