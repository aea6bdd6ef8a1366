"""Correctness checks computed apart from the program.

Every check here reads what the program wrote (files, losses, gradients) and
compares it with a computation of the benchmark's own, or with a property
the method must have.  None of them compares with a stored copy of an
earlier output.  Each check returns ``(ok, detail)`` where ``detail`` is a
short dict of the figures it judged, so a failing run says why.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# The generator's documented audit: kept rows drift at most this far in
# relative energy from the sampled energy shell.
CONSERVATION_TOL = 1e-4
# Own rollout vs the program's: both are kick-drift-kick in float64 over a
# short horizon, so they agree to round-off.
ROLLOUT_TOL = 1e-9
# Leapfrog is second order: halving dt over a fixed horizon divides the
# energy error by four, up to higher-order terms.
SECOND_ORDER_RANGE = (3.5, 4.5)
# Finite differences of the loss along a direction against the taped
# gradient, relative to the gradient's scale along random directions.
GRAD_TOL = 1e-4


def read_csv_rows(path):
    """Numeric rows of a CSV written by the CLI (``#`` metadata, one header)."""
    rows = []
    header = None
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(x) for x in line.split(",")])
    return header, np.array(rows, dtype=np.float64)


def hh_energy(states, alpha, beta):
    """Energy of the cubic-coupling oscillator over (N, 4) state rows."""
    qx, qy, px, py = states[:, 0], states[:, 1], states[:, 2], states[:, 3]
    return (0.5 * (px * px + py * py) + 0.5 * (qx * qx + qy * qy)
            + alpha * qx * qx * qy - beta * qy * qy * qy / 3.0)


def check_dataset_dir(path):
    """SHA-256 of ``states.bin`` against the manifest, and every stored row's
    energy within the conservation tolerance of its record's energy."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    blob = (path / "states.bin").read_bytes()
    digest_ok = hashlib.sha256(blob).hexdigest() == manifest["checksum_sha256"]
    rows = np.frombuffer(blob, dtype="<f8").reshape(-1, 4)
    worst = 0.0
    covered = 0
    for rec in manifest["records"]:
        block = rows[rec["offset"]: rec["offset"] + rec["length"]]
        covered += block.shape[0]
        e = hh_energy(block, rec["alpha"], rec["beta"])
        worst = max(worst, float(np.max(np.abs(e - rec["energy"]) / abs(rec["energy"]))))
    ok = (digest_ok and covered == rows.shape[0] == manifest["totals"]["states"]
          and worst <= CONSERVATION_TOL * (1 + 1e-9))
    return ok, {"sha256_ok": digest_ok, "max_drift": worst, "rows": int(rows.shape[0])}


class TanhMlp:
    """A dense tanh network rebuilt from checkpoint JSON, with its value and
    closed-form input gradient written out in numpy."""

    def __init__(self, sizes, flat):
        self.layers = []
        i = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = flat[i: i + fan_in * fan_out].reshape(fan_out, fan_in)
            i += fan_in * fan_out
            self.layers.append((w, flat[i: i + fan_out]))
            i += fan_out
        if i != flat.size:
            raise ValueError("parameter count does not match the layer sizes")

    def value_and_grad(self, x):
        acts = []
        h = x
        for w, b in self.layers[:-1]:
            h = np.tanh(h @ w.T + b)
            acts.append(h)
        w, b = self.layers[-1]
        value = (h @ w.T + b)[:, 0]
        g = np.ones((x.shape[0], 1))
        for (w, _), a in zip(reversed(self.layers[1:]), reversed(acts)):
            g = (g @ w) * (1.0 - a * a)
        return value, g @ self.layers[0][0]


class SeparableNets:
    """K(p) and V(q, alpha) of a one-channel separable checkpoint."""

    def __init__(self, checkpoint_path):
        doc = json.loads(Path(checkpoint_path).read_text())
        spec = doc["spec"]
        if doc["model_kind"] != "asrnn" or spec["param_channels"] != 1:
            raise ValueError("expected a one-channel asrnn checkpoint")
        flat = np.array(doc["params"], dtype=np.float64)
        k_sizes, v_sizes = spec["kinetic_layers"], spec["potential_layers"]
        nk = sum(a * b + b for a, b in zip(k_sizes[:-1], k_sizes[1:]))
        self.k = TanhMlp(k_sizes, flat[:nk])
        self.v = TanhMlp(v_sizes, flat[nk:])

    def _v_in(self, q, alpha):
        return np.concatenate([q, np.full((q.shape[0], 1), alpha)], axis=1)

    def grad_v(self, q, alpha):
        return self.v.value_and_grad(self._v_in(q, alpha))[1][:, :2]

    def grad_k(self, p):
        return self.k.value_and_grad(p)[1]

    def energy(self, states, alpha):
        k = self.k.value_and_grad(states[:, 2:])[0]
        v = self.v.value_and_grad(self._v_in(states[:, :2], alpha))[0]
        return k + v

    def rollout(self, state0, alpha, dt, n_steps):
        """Kick-drift-kick under the learned gradients; (n_steps + 1, 4)."""
        out = np.empty((n_steps + 1, 4))
        out[0] = state0
        q, p = state0[None, :2], state0[None, 2:]
        half = 0.5 * dt
        for i in range(1, n_steps + 1):
            p = p - half * self.grad_v(q, alpha)
            q = q + dt * self.grad_k(p)
            p = p - half * self.grad_v(q, alpha)
            out[i, :2], out[i, 2:] = q[0], p[0]
        return out


def check_rollout(nets, rows, alpha, dt, energy):
    """A ``predict`` CSV (t, q_x, q_y, p_x, p_y) against the own rollout from
    its first state, which must lie on the requested energy shell."""
    states = rows[:, 1:]
    n = states.shape[0] - 1
    own = nets.rollout(states[0], alpha, dt, n)
    err = float(np.max(np.abs(own - states) / np.maximum(1.0, np.abs(own))))
    t_err = float(np.max(np.abs(rows[:, 0] - np.arange(n + 1) * dt)))
    e0 = float(hh_energy(states[:1], alpha, alpha)[0])
    shell = abs(e0 - energy) / energy
    ok = err <= ROLLOUT_TOL and t_err <= 1e-9 and shell <= 1e-12
    return ok, {"max_rel_state_err": err, "shell_err": shell}


def check_second_order(nets, coarse_rows, fine_rows, alpha):
    """The learned K + V error over the same horizon at dt and dt / 2:
    leapfrog's energy error must shrink four-fold."""
    def worst(rows):
        h = nets.energy(rows[:, 1:], alpha)
        return float(np.max(np.abs(h - h[0])))

    coarse, fine = worst(coarse_rows), worst(fine_rows)
    ratio = coarse / fine if fine > 0 else math.inf
    lo, hi = SECOND_ORDER_RANGE
    return lo <= ratio <= hi, {"error_ratio": ratio}


def fine_reference(state0, alpha, dt, n_steps, factor=100):
    """Analytic-field leapfrog at dt / factor in Python floats, keeping every
    ``factor``-th state; (n_steps + 1, 4)."""
    qx, qy, px, py = (float(v) for v in state0)
    h = dt / factor
    half = 0.5 * h
    out = np.empty((n_steps + 1, 4))
    out[0] = state0
    for i in range(1, n_steps + 1):
        for _ in range(factor):
            px = px - half * (qx + 2.0 * alpha * qx * qy)
            py = py - half * (qy + alpha * qx * qx - alpha * qy * qy)
            qx = qx + h * px
            qy = qy + h * py
            px = px - half * (qx + 2.0 * alpha * qx * qy)
            py = py - half * (qy + alpha * qx * qx - alpha * qy * qy)
        out[i] = (qx, qy, px, py)
    return out


def check_energy_error(err_rows, predict_rows, alpha, dt):
    """The ``eval-energy`` CSV against |E_pred - E_true| / E_true in percent,
    from the ``predict`` states of the same arguments and the own fine-step
    reference."""
    states = predict_rows[:, 1:]
    truth = fine_reference(states[0], alpha, dt, states.shape[0] - 1)
    e_true = hh_energy(truth, alpha, alpha)
    own = np.abs(hh_energy(states, alpha, alpha) - e_true) / np.abs(e_true) * 100.0
    if err_rows.shape[0] != own.size:
        return False, {"rows": int(err_rows.shape[0]), "expected": int(own.size)}
    diff = float(np.max(np.abs(err_rows[:, 1] - own)))
    ok = diff <= 1e-9 + 1e-6 * float(np.max(own))
    return ok, {"max_abs_diff_pct": diff}


def check_lyapunov_analytic(rows):
    """At alpha = 0 the system is two uncoupled harmonic oscillators, so every
    exponent vanishes; at alpha = 1 below the escape energy the estimate
    must be positive."""
    by_alpha = {float(a): lam for a, _, lam in rows}
    ok = abs(by_alpha[0.0]) <= 1e-3 and by_alpha[1.0] > 0.0
    return ok, {"lambda_alpha0": by_alpha[0.0], "lambda_alpha1": by_alpha[1.0]}


def check_lyapunov_learned(rows):
    """The CLI reports only the maximal exponent, so the symplectic pairing
    of the full spectrum cannot be judged here; the exponents must be
    finite."""
    lams = rows[:, 2]
    return bool(np.all(np.isfinite(lams))), {"lambda_max": [float(x) for x in lams]}


def check_directional_gradient(loss_value, theta, grad, directions, eps=1e-5):
    """Taped gradient against central differences of the same loss along each
    direction.  ``loss_value`` maps a parameter vector to a float."""
    scale = float(np.linalg.norm(grad)) / math.sqrt(grad.size)
    worst = 0.0
    for d in directions:
        numeric = (loss_value(theta + eps * d) - loss_value(theta - eps * d)) / (2 * eps)
        analytic = float(grad @ d)
        worst = max(worst, abs(numeric - analytic) / max(abs(analytic), scale))
    return worst <= GRAD_TOL, {"max_rel_err": worst}


def check_loss_history(train_losses, val_losses):
    """Every epoch loss finite, and the last epoch's mean training loss below
    the first's.  Validation loss is no judge this early: the baseline sits
    on its plateau after one epoch and Adam noise moves it either way, and
    the asrnn's first steps at this learning rate overshoot the loss of its
    initial parameters."""
    finite = all(math.isfinite(x) for x in [*train_losses, *val_losses])
    ok = finite and len(train_losses) >= 2 and train_losses[-1] < train_losses[0]
    return ok, {"train_first": train_losses[0], "train_last": train_losses[-1]}


def check_same_losses(reference, losses):
    """Bit-identical loss sequences from two trainings on the same seed."""
    same = len(reference) == len(losses) and all(
        a.hex() == b.hex() for a, b in zip(reference, losses))
    return same, {"epochs": len(losses)}
