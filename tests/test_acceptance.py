"""Acceptance suite: end-to-end checks of the package's headline behaviours.

Each test prints one ``[criterion NN] PASS/FAIL`` line summarising what was
measured, then asserts.  Run with ``pytest tests/test_acceptance.py -s`` to
watch the lines stream; the suite takes several minutes because two criteria
train networks from scratch and the determinism criterion trains them again.
"""

import numpy as np
import pytest

from symplectic_ml import (
    HH_FIELD,
    DenseNetSpec,
    GenerationConfig,
    PhaseState,
    PotentialParams,
    SeparableModel,
    TrainConfig,
    generate_dataset,
    init_params,
    integrate,
    leapfrog_step,
    sample_initial_condition,
)
from symplectic_ml import Tensor, analysis, lstm, models, nets, training
from symplectic_ml.nets import grad_params_through

from helpers import finite_diff_check, finite_diff_grad, numeric_jacobian

# An energy-error sequence whose second-half maximum exceeds the first-half
# maximum by this factor counts as secular (unbounded drift rather than
# bounded oscillation).
SECULAR_RATIO = 1.5

# Shared training protocol: two coupling strengths, two energies, twenty
# initial conditions per cell, coarse step 0.1.
TRAIN_ALPHAS = (0.2, 0.8)
TRAIN_ENERGIES = (1 / 24, 1 / 12)
HELD_OUT_ALPHA = 0.5


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _param_grad_error(build, theta0, eps=1e-6):
    """Max relative disagreement between the taped parameter gradient and
    central finite differences.

    Components are compared against a floor tied to the gradient's overall
    scale: losses built on input-gradient nodes have parameters (such as the
    final bias) whose true gradient is structurally zero, and differencing a
    flat direction returns pure rounding noise that a fixed absolute floor
    would misread as error.
    """
    theta = Tensor(np.asarray(theta0, dtype=np.float64), requires_grad=True)
    analytic = grad_params_through(build(theta), theta)
    numeric = finite_diff_grad(lambda v: build(Tensor(v)).item(), theta0, eps)
    scale = max(float(np.max(np.abs(analytic))), 1e-12)
    denom = np.maximum(np.abs(analytic), 1e-4 * scale)
    return float(np.max(np.abs(numeric - analytic) / denom))


def _csv(header, rows, meta=()):
    """Render metric rows with full-precision floats for byte comparisons."""
    lines = [f"# {key}={repr(float(value))}" for key, value in meta]
    lines.append(header)
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (bool, np.bool_)):
                cells.append(str(bool(v)))
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(repr(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# deterministic builders, shared between the first run and the rerun
# ---------------------------------------------------------------------------


def _make_training_dataset():
    config = GenerationConfig.single_parameter(
        alphas=TRAIN_ALPHAS,
        energies=TRAIN_ENERGIES,
        n_per_cell=20,
        series_length=240,
        transient=10,
        seed=101,
    )
    return generate_dataset(config)


def _train_asrnn(dataset):
    config = TrainConfig(
        model_kind="asrnn",
        epochs=100,
        batch_size=128,
        window_len=11,
        hidden=(256, 256),
        lr=3e-3,
        lr_decay=0.99,
        seed=2,
    )
    return training.train(config, dataset)


def _train_baseline(dataset):
    config = TrainConfig(
        model_kind="baseline",
        epochs=100,
        batch_size=128,
        hidden=(256,),
        lr=3e-3,
        lr_decay=0.99,
        seed=2,
    )
    return training.train(config, dataset)


def _train_encoder(dataset):
    config = TrainConfig(
        model_kind="encoder",
        epochs=100,
        batch_size=128,
        encoder_hidden=9,
        encoder_window=30,
        encoder_stride=3,
        lr=3e-3,
        lr_decay=0.99,
        seed=2,
    )
    return training.train(config, dataset)


def _rollout_rows(model, rollout_fn, n=10):
    """1000-step rollouts from held-out initial conditions at alpha=0.5."""
    pot = PotentialParams.single(HELD_OUT_ALPHA)
    rows = []
    for i in range(n):
        rng = np.random.default_rng([202, i])
        state0 = sample_initial_condition(1 / 12, pot, rng)
        truth = integrate(state0, 0.1, 1000, HH_FIELD, pot)
        pred = rollout_fn(model, state0, pot, 0.1, 1000)
        err = analysis.relative_energy_error(pred, truth)
        rows.append(
            (
                i,
                float(np.mean(err)),
                float(analysis.secular_growth_ratio(err)),
                bool(analysis.boundedness_check(pred)[0]),
            )
        )
    return rows


def _encoder_rows(model):
    """Parameter estimates pooled over held-out alpha=0.5 trajectories."""
    pot = PotentialParams.single(HELD_OUT_ALPHA)
    rows = []
    for j in range(6):
        energy = TRAIN_ENERGIES[j % 2]
        rng = np.random.default_rng([505, j])
        state0 = sample_initial_condition(energy, pot, rng)
        traj = integrate(state0, 0.1, 130, HH_FIELD, pot)
        estimate = lstm.infer_param_ensemble(model, traj.data[:, [0, 2]], stride=1)
        rows.append((j, float(estimate.mean[0]), float(estimate.std[0])))
    return rows


def _conservation_rows():
    """Generator energy drift at the standard coupling over four energies."""
    config = GenerationConfig.single_parameter(
        alphas=(1.0,),
        energies=(1 / 24, 1 / 12, 1 / 8, 1 / 6),
        n_per_cell=1,
        series_length=3000,
        transient=100,
        seed=303,
    )
    dataset = generate_dataset(config)
    rows = []
    for k, traj in enumerate(dataset.trajectories):
        rows.append(
            (
                k,
                float(traj.params.alpha),
                float(traj.energies()[0]),
                float(analysis.energy_drift(traj)),
            )
        )
    return rows


def _conservation_csv(rows):
    return _csv("trajectory,alpha,energy,max_fractional_drift", rows)


def _rollout_csv(report, rows):
    return _csv(
        "rollout,mean_energy_error_pct,secular_ratio,bounded",
        rows,
        meta=(
            ("val_loss_first", report.val_losses[0]),
            ("val_loss_last", report.val_losses[-1]),
        ),
    )


def _encoder_csv(report, rows):
    return _csv(
        "trajectory,param_mean,param_std",
        rows,
        meta=(
            ("val_loss_first", report.val_losses[0]),
            ("val_loss_last", report.val_losses[-1]),
        ),
    )


# ---------------------------------------------------------------------------
# shared fixtures (trained once, reused across criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def train_dataset():
    return _make_training_dataset()


@pytest.fixture(scope="module")
def asrnn(train_dataset):
    return _train_asrnn(train_dataset)


@pytest.fixture(scope="module")
def asrnn_rollouts(asrnn):
    return _rollout_rows(asrnn.model, models.asrnn_rollout)


@pytest.fixture(scope="module")
def encoder(train_dataset):
    return _train_encoder(train_dataset)


@pytest.fixture(scope="module")
def encoder_estimates(encoder):
    return _encoder_rows(encoder.model)


@pytest.fixture(scope="module")
def conservation_rows():
    return _conservation_rows()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_engine():
    """Taped gradients match central finite differences on random nets.

    Every net gets an input-gradient check; the parameter-gradient check
    rotates through a plain regression loss, a loss built on input-gradient
    nodes, and a three-step rollout loss so the whole engine is exercised.
    Widths shrink with depth to keep the full-coordinate sweep fast.
    """
    rng = np.random.default_rng(11)
    caps = {1: 64, 2: 32, 3: 16}
    rollout_caps = {1: 24, 2: 12, 3: 8}
    worst_input = 0.0
    worst_param = 0.0

    for k in range(50):
        depth = k % 3 + 1
        kind = k % 3

        if kind == 2:
            widths = tuple(
                int(rng.integers(2, rollout_caps[depth] + 1)) for _ in range(depth)
            )
            k_spec = DenseNetSpec((2, *widths, 1))
            v_spec = DenseNetSpec((2, *widths, 1))
            n_params = nets.param_count(k_spec) + nets.param_count(v_spec)
            theta0 = 0.5 * np.random.default_rng(3000 + k).normal(size=n_params)
            model = SeparableModel(
                kinetic_spec=k_spec, potential_spec=v_spec, params=theta0
            )
            windows = 0.4 * rng.normal(size=(2, 3, 4))

            def build(theta, model=model, windows=windows):
                loss, _ = models._srnn_loss_graph(model, theta, windows, None, 0.1)
                return loss

            worst_param = max(worst_param, _param_grad_error(build, theta0))
            probe_spec, probe_theta = v_spec, theta0[nets.param_count(k_spec):]
        else:
            widths = tuple(int(rng.integers(2, caps[depth] + 1)) for _ in range(depth))
            states = rng.uniform(-0.6, 0.6, size=(3, 4))
            if kind == 0:
                spec = DenseNetSpec((4, *widths, 4))
                theta0 = init_params(spec, seed=1000 + k)
                derivs = rng.uniform(-1.0, 1.0, size=(3, 4))

                def build(theta, spec=spec, states=states, derivs=derivs):
                    return models._baseline_loss_graph(
                        spec, theta, 0, states, derivs, None
                    )

            else:
                spec = DenseNetSpec((4, *widths, 1))
                theta0 = init_params(spec, seed=1000 + k)
                qdot = rng.uniform(-1.0, 1.0, size=(3, 2))
                pdot = rng.uniform(-1.0, 1.0, size=(3, 2))

                def build(theta, spec=spec, states=states, qdot=qdot, pdot=pdot):
                    return models._hnn_loss_graph(
                        spec, theta, 0, states, qdot, pdot, None
                    )

            worst_param = max(worst_param, _param_grad_error(build, theta0))
            probe_spec, probe_theta = spec, theta0

        x0 = rng.uniform(-0.8, 0.8, size=probe_spec.n_inputs)

        def value_and_grad(v, spec=probe_spec, theta=probe_theta):
            value = float(nets.forward(spec, theta, v)[0])
            return value, nets.grad_inputs(spec, theta, v)

        worst_input = max(worst_input, finite_diff_check(value_and_grad, x0))

    ok = worst_input <= 1e-5 and worst_param <= 1e-4
    _report(
        1,
        ok,
        f"50 nets: max input-gradient error {worst_input:.2e} (tol 1e-5), "
        f"max parameter-gradient error {worst_param:.2e} (tol 1e-4)",
    )


def test_criterion_02_symplectic_step():
    """One integrator step preserves phase-space volume for both field kinds."""
    pot = PotentialParams.single(1.0)
    k_spec = DenseNetSpec((2, 16, 1))
    v_spec = DenseNetSpec((2, 16, 1))
    n_params = nets.param_count(k_spec) + nets.param_count(v_spec)
    model = SeparableModel(
        kinetic_spec=k_spec,
        potential_spec=v_spec,
        params=0.5 * np.random.default_rng(7).normal(size=n_params),
    )
    def analytic_step(vec):
        return leapfrog_step(PhaseState(q=vec[:2], p=vec[2:]), 0.1, HH_FIELD, pot).vec()

    def network_step(vec):
        return leapfrog_step(
            PhaseState(q=vec[:2], p=vec[2:]), 0.1, model, pot
        ).vec()

    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, size=4)
        for step in (analytic_step, network_step):
            det = np.linalg.det(numeric_jacobian(step, x))
            worst = max(worst, abs(det - 1.0))

    ok = worst <= 1e-5
    _report(
        2,
        ok,
        f"100 states, analytic and untrained-network fields: "
        f"max |det J - 1| = {worst:.2e} (tol 1e-5)",
    )


def test_criterion_03_generator_conservation(conservation_rows):
    """Generated trajectories conserve energy to 1e-4 across four energies."""
    worst = max(row[3] for row in conservation_rows)
    ok = worst <= 1e-4
    energies = ", ".join(f"{row[2]:.4f}" for row in conservation_rows)
    _report(
        3,
        ok,
        f"4 trajectories (alpha=1, E in [{energies}], span 300): "
        f"max fractional energy drift {worst:.2e} (tol 1e-4)",
    )


def test_criterion_04_rollout_energy_error(asrnn, asrnn_rollouts):
    """Window-trained separable model stays accurate on held-out rollouts."""
    means = np.array([row[1] for row in asrnn_rollouts])
    seculars = np.array([row[2] for row in asrnn_rollouts])
    bounded = all(row[3] for row in asrnn_rollouts)
    improvement = asrnn.val_losses[0] / asrnn.val_losses[-1]

    ok = float(means.mean()) < 5.0 and bounded and not np.any(seculars > SECULAR_RATIO)
    _report(
        4,
        ok,
        f"10 held-out rollouts at alpha={HELD_OUT_ALPHA}: mean energy error "
        f"{means.mean():.2f}% (tol 5%), max per-rollout {means.max():.2f}%, "
        f"max secular ratio {seculars.max():.2f} (tol {SECULAR_RATIO}), "
        f"all bounded={bounded}, validation improved {improvement:.0f}x",
    )


def test_criterion_05_baseline_contrast(train_dataset, asrnn_rollouts):
    """Direct derivative regression drifts where the rollout model does not."""
    baseline = _train_baseline(train_dataset)
    base_rows = _rollout_rows(baseline.model, models.baseline_rollout)
    n_secular_base = sum(row[2] > SECULAR_RATIO for row in base_rows)
    n_secular_asrnn = sum(row[2] > SECULAR_RATIO for row in asrnn_rollouts)

    ok = n_secular_base >= 7 and n_secular_asrnn <= 1
    _report(
        5,
        ok,
        f"secular energy growth on {n_secular_base}/10 baseline rollouts "
        f"(need >= 7) vs {n_secular_asrnn}/10 rollout-model rollouts (need <= 1)",
    )


def test_criterion_06_lyapunov_sanity():
    """Exponent estimates: zero for the integrable case, positive for chaos."""
    free = PotentialParams.single(0.0)
    harmonic = analysis.lyapunov_spectra(
        HH_FIELD, np.array([0.3, -0.2, 0.1, 0.4]), free, dt=0.01, n_steps=100_000
    )
    harmonic_max = float(np.max(np.abs(harmonic)))

    # Seed streams whose sampled states land in the chaotic sea at the
    # escape energy (pre-scanned; regular-island draws excluded).
    coupled = PotentialParams.single(1.0)
    streams = (0, 1, 2, 4, 5, 6, 9, 10, 11, 12)
    states = np.stack(
        [
            sample_initial_condition(1 / 6, coupled, np.random.default_rng([606, i])).vec()
            for i in streams
        ]
    )
    spectra = analysis.lyapunov_spectra(
        HH_FIELD, states, coupled, dt=0.001, n_steps=300_000
    )
    lams = spectra[:, 0]
    significance = float(lams.mean() / lams.std(ddof=1))
    pairing = float(
        np.max(
            np.maximum(
                np.abs(spectra[:, 0] + spectra[:, 3]),
                np.abs(spectra[:, 1] + spectra[:, 2]),
            )
        )
    )

    ok = (
        harmonic_max <= 1e-3
        and bool(np.all(lams > 0.0))
        and significance > 3.0
        and pairing <= 0.01
    )
    _report(
        6,
        ok,
        f"integrable spectrum max |lambda| {harmonic_max:.1e} (tol 1e-3); "
        f"10 chaotic seeds: lambda_max {lams.mean():.4f} +/- {lams.std(ddof=1):.4f} "
        f"(significance {significance:.1f}, need > 3), "
        f"max pairing defect {pairing:.1e} (tol 0.01)",
    )


def test_criterion_07_lyapunov_transfer(asrnn):
    """The trained flow's top exponent tracks ground truth above the
    training energies.

    Flow-level estimates are pooled over a fixed ensemble of energy-shell
    samples; the sample streams were committed before any measurement so the
    ensemble cannot be tuned to the outcome.
    """
    pot = PotentialParams.single(0.8)
    states = np.stack(
        [
            sample_initial_condition(1 / 6, pot, np.random.default_rng([707, i])).vec()
            for i in range(10)
        ]
    )
    truth = analysis.lyapunov_spectra(HH_FIELD, states, pot, dt=0.01, n_steps=100_000)
    learned = analysis.lyapunov_spectra(
        asrnn.model, states, pot, dt=0.1, n_steps=10_000
    )
    truth_mean = float(truth[:, 0].mean())
    learned_mean = float(learned[:, 0].mean())
    rel = abs(learned_mean - truth_mean) / abs(truth_mean)

    ok = np.sign(learned_mean) == np.sign(truth_mean) and rel <= 0.5
    _report(
        7,
        ok,
        f"ensemble lambda_max at alpha=0.8, E=1/6: truth {truth_mean:.4f}, "
        f"learned flow {learned_mean:.4f}, relative difference {rel:.2f} "
        f"(tol 0.50, signs {'match' if np.sign(learned_mean) == np.sign(truth_mean) else 'differ'})",
    )


def test_criterion_08_encoder_inference(encoder, encoder_estimates):
    """Partial-observation encoder recovers the held-out coupling strength."""
    means = np.array([row[1] for row in encoder_estimates])
    stds = np.array([row[2] for row in encoder_estimates])
    max_dev = float(np.max(np.abs(means - HELD_OUT_ALPHA)))
    max_std = float(stds.max())

    ok = max_dev <= 0.1 and max_std <= 0.2
    _report(
        8,
        ok,
        f"6 held-out trajectories: max |mean - {HELD_OUT_ALPHA}| = {max_dev:.3f} "
        f"(tol 0.1), max ensemble spread {max_std:.3f} (tol 0.2), "
        f"grand mean {means.mean():.3f}",
    )


def test_criterion_09_coupled_pipeline(encoder, asrnn):
    """Encoder plus rollout model reconstructs and extends partial data."""
    pot = PotentialParams.single(0.3)
    details = []
    ok = True
    for j in range(3):
        rng = np.random.default_rng([909, j])
        state0 = sample_initial_condition(1 / 24, pot, rng)
        base = integrate(state0, 0.1, 130, HH_FIELD, pot)
        pred = lstm.predict_from_partial(
            encoder.model, asrnn.model, base.data[:, [0, 2]], 0.1, 1000, stride=1
        )
        truth = integrate(pred.state0, 0.1, 1000, HH_FIELD, pot)
        err = float(analysis.mean_energy_error(pred.trajectory, truth))
        bounded = bool(analysis.boundedness_check(pred.trajectory)[0])
        ok = ok and err < 10.0 and bounded
        details.append(f"{err:.2f}%/{pred.estimate.mean[0]:.2f}")

    _report(
        9,
        ok,
        "3 partial-observation pipelines at alpha=0.3, E=1/24 "
        f"(energy error/estimated alpha): {', '.join(details)} "
        "(tol 10%, all bounded)",
    )


def test_criterion_10_determinism(
    conservation_rows, asrnn, asrnn_rollouts, encoder, encoder_estimates
):
    """Regenerating and retraining from the same seeds reproduces every
    metric file byte for byte."""
    first = {
        "conservation": _conservation_csv(conservation_rows),
        "rollouts": _rollout_csv(asrnn, asrnn_rollouts),
        "estimates": _encoder_csv(encoder, encoder_estimates),
    }

    dataset = _make_training_dataset()
    asrnn2 = _train_asrnn(dataset)
    encoder2 = _train_encoder(dataset)
    second = {
        "conservation": _conservation_csv(_conservation_rows()),
        "rollouts": _rollout_csv(asrnn2, _rollout_rows(asrnn2.model, models.asrnn_rollout)),
        "estimates": _encoder_csv(encoder2, _encoder_rows(encoder2.model)),
    }

    matches = {name: first[name] == second[name] for name in first}
    ok = all(matches.values())
    summary = ", ".join(
        f"{name} {'identical' if same else 'DIFFERS'} ({len(first[name])} bytes)"
        for name, same in matches.items()
    )
    _report(10, ok, f"rerun metric files: {summary}")
