"""The benchmark's three workloads.

Each workload has a set-up, which the run repeats and times on its own, and
rounds of the same jobs.  A job is one user-visible call into the package
(``training.train`` or ``cli.main``); its wall time is measured with tracing
off unless the run is the traced one.  After the jobs of a round, checks
judge their outputs (see ``checks.py``).  Every job and every check counts as
one operation.  All inputs derive from the run's ``--seed``.
"""

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from symplectic_ml import checkpoint, cli, datapipe, models, nets, training
from symplectic_ml.autodiff import Tensor

# The acceptance suite's training protocol: two couplings, two energies,
# twenty initial conditions per cell, 240 coarse samples of spacing 0.1.
FULL = {
    "data": dict(alphas="0.2,0.8", energies="1/24,1/12", n_per_cell=20,
                 series_length=240, transient=10),
    "asrnn": dict(hidden=(256, 256), window_len=11, epochs=2),
    "baseline": dict(hidden=(256,), epochs=4),
    "encoder": dict(encoder_hidden=9, encoder_window=30, encoder_stride=3, epochs=2),
    "grad_batch": 32,
    "sim_hidden": (256, 256),
    "rollout_steps": 300,
    "lyapunov_analytic_steps": 10_000,
    "lyapunov_learned_steps": 200,
}
# A few seconds per round in all, for the benchmark's own smoke tests.
TINY = {
    "data": dict(alphas="0.2,0.8", energies="1/24,1/12", n_per_cell=2,
                 series_length=60, transient=4),
    "asrnn": dict(hidden=(16, 16), window_len=11, epochs=2),
    "baseline": dict(hidden=(16,), epochs=2),
    "encoder": dict(encoder_hidden=9, encoder_window=30, encoder_stride=3, epochs=2),
    "grad_batch": 8,
    "sim_hidden": (16, 16),
    "rollout_steps": 40,
    "lyapunov_analytic_steps": 2_000,
    "lyapunov_learned_steps": 20,
}

FINE_FACTOR = 100  # generation's default fine steps per stored sample
GRAD_DIRECTIONS = 3


def eval_fraction(text):
    num, _, den = text.partition("/")
    return float(num) / float(den) if den else float(num)


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = []

    def record(self, name, ok, detail=None, wrong=True):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += wrong
            if len(self.reasons) < 20:
                self.reasons.append(f"{name}: {detail}")
                print(f"operation failed: {name}: {detail}", file=sys.stderr)


class Workload:
    """Shared plumbing: timed jobs, tracing hooks and check bookkeeping."""

    def __init__(self, seed, size, work_dir, tracer, ledger):
        self.seed = seed
        self.size = size
        self.work = Path(work_dir)
        self.tracer = tracer
        self.ledger = ledger
        self.tracing = False
        self.job_seconds = 0.0
        self.commands = 0
        self.checkpoint_commands = 0
        self.checkpoint_bytes = 0
        self.reference = {}
        self.problems = {}

    def timed(self, name, span, fn):
        """Run one job under a span named ``span``; returns (seconds, result),
        the result None when the job failed."""
        self.tracer.active = self.tracing
        t0 = time.perf_counter()
        try:
            with self.tracer.span(span):
                out = fn()
        except Exception as err:  # a failing job is counted, not fatal
            self.ledger.record(name, False, f"{type(err).__name__}: {err}", wrong=False)
            out = None
        finally:
            self.tracer.active = False
        seconds = time.perf_counter() - t0
        self.job_seconds += seconds
        if out is not None:
            self.ledger.record(name, True)
        return seconds, out

    def check(self, name, fn, *args):
        try:
            ok, detail = fn(*args)
        except Exception as err:  # a check that cannot run has failed
            ok, detail = False, f"{type(err).__name__}: {err}"
        self.ledger.record(name, ok, detail)


class TrainWorkload(Workload):
    """Train the workload's model ``kinds`` on the acceptance-protocol
    dataset, cut into its ``window_kinds`` at set-up."""

    def generation_config(self):
        d = self.size["data"]
        return datapipe.GenerationConfig.single_parameter(
            alphas=[eval_fraction(x) for x in d["alphas"].split(",")],
            energies=[eval_fraction(x) for x in d["energies"].split(",")],
            n_per_cell=d["n_per_cell"], series_length=d["series_length"],
            transient=d["transient"], seed=self.seed)

    def setup(self):
        """Generate the dataset and cut the windows the models train on."""
        self.dataset = datapipe.generate_dataset(self.generation_config())
        for kind, kw in self.window_kinds:
            datapipe.window_dataset(self.dataset, kind, **kw)

    def config(self, kind):
        kw = dict(self.size[kind])
        return training.TrainConfig(model_kind=kind, batch_size=128, lr=3e-3,
                                    lr_decay=0.99, seed=self.seed, **kw)

    def round(self):
        rates = {}
        reports = {}
        for kind in self.kinds:
            config = self.config(kind)
            seconds, report = self.timed(f"train-{kind}", f"train.{kind}",
                                         lambda: training.train(config, self.dataset))
            reports[kind] = report
            if report is not None:
                rates[kind] = (report.n_train * config.epochs, seconds)
        return rates, reports

    def check_round(self, reports):
        for kind in self.kinds:
            report = reports[kind]
            if report is None:
                for what in ("gradient", "history", "determinism"):
                    self.ledger.record(f"{kind}-{what}", False, "training failed",
                                       wrong=False)
                continue
            self.check(f"{kind}-gradient", self.gradient_check, kind)
            self.check(f"{kind}-history", checks.check_loss_history,
                       report.train_losses, report.val_losses)
            losses = report.train_losses + report.val_losses
            if kind in self.reference:
                self.check(f"{kind}-determinism", checks.check_same_losses,
                           self.reference[kind], losses)
            else:
                self.reference[kind] = losses

    def problem(self, kind):
        """Row count, initial parameters and the loss closure the training
        loop minimises; built once per run."""
        if kind not in self.problems:
            self.problems[kind] = training._build_problem(self.config(kind),
                                                          self.dataset)[:3]
        return self.problems[kind]

    def gradient_check(self, kind):
        """Taped gradient at the initial parameters on a fixed batch, against
        central differences of the same loss."""
        n, theta0, loss_graph = self.problem(kind)
        batch = np.arange(min(self.size["grad_batch"], n))
        theta = Tensor(theta0, requires_grad=True)
        grad = nets.grad_params_through(loss_graph(theta, batch), theta)
        rng = np.random.default_rng([self.seed, 99])
        dirs = rng.standard_normal((GRAD_DIRECTIONS, theta0.size))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return checks.check_directional_gradient(
            lambda v: loss_graph(Tensor(v), batch).item(), theta0, grad, dirs)


class TrainWide(TrainWorkload):
    kinds = ("asrnn", "baseline")
    window_kinds = (("rollout", dict(window_len=11)), ("derivative-pairs", {}))
    rate_names = {"asrnn": ("asrnn_windows_per_s", "windows/s"),
                  "baseline": ("baseline_rows_per_s", "rows/s")}


class TrainEncoder(TrainWorkload):
    kinds = ("encoder",)
    window_kinds = (("encoder", dict(window_len=30, stride=3)),)
    rate_names = {"encoder": ("encoder_windows_per_s", "windows/s")}


class Simulate(Workload):
    """Inference only, through ``cli.main``: generation, learned rollouts,
    the energy-error evaluation and Lyapunov exponents."""

    rate_names = {
        "generate": ("generate_fine_steps_per_s", "row-steps/s"),
        "predict": ("predict_steps_per_s", "steps/s"),
        "eval-energy": ("eval_energy_s", "s"),
        "lyapunov-analytic": ("lyapunov_analytic_steps_per_s", "seed-steps/s"),
        "lyapunov-learned": ("lyapunov_learned_steps_per_s", "seed-steps/s"),
    }
    ALPHA = 0.5
    ENERGY = "1/12"
    DT = 0.02

    def setup(self):
        """A checkpoint of the acceptance asrnn architecture, weights from
        ``nets.init_params``: a step costs the same for any weights."""
        hidden = self.size["sim_hidden"]
        k_spec = nets.DenseNetSpec((2, *hidden, 1))
        v_spec = nets.DenseNetSpec((3, *hidden, 1))
        k_seed, v_seed = np.random.SeedSequence([self.seed, 1]).spawn(2)
        theta = np.concatenate([nets.init_params(k_spec, k_seed),
                                nets.init_params(v_spec, v_seed)])
        model = models.SeparableModel(kinetic_spec=k_spec, potential_spec=v_spec,
                                      params=theta, adaptable=True, param_channels=1)
        self.checkpoint = self.work / "model.json"
        checkpoint.save_checkpoint(model, self.checkpoint, seed=self.seed)
        self.checkpoint_bytes = self.checkpoint.stat().st_size

    def cli(self, name, argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--seed", str(self.seed)])
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return code

        seconds, code = self.timed(name, "cli.main", run)
        if self.tracing:
            self.commands += 1
            self.checkpoint_commands += "--checkpoint" in argv
        return None if code is None else seconds

    def round(self):
        s = self.size
        w = self.work
        d = s["data"]
        steps = s["rollout_steps"]
        ck = str(self.checkpoint)
        roll = ["--checkpoint", ck, "--alpha", str(self.ALPHA), "--energy", self.ENERGY]
        times = {
            "generate": self.cli("generate", [
                "generate", "--out", str(w / "dataset"), "--alphas", d["alphas"],
                "--energies", d["energies"], "--n-per-cell", str(d["n_per_cell"]),
                "--series-length", str(d["series_length"]),
                "--transient", str(d["transient"])]),
            "predict": self.cli("predict", [
                "predict", *roll, "--dt", str(self.DT), "--steps", str(steps),
                "--out", str(w / "predict.csv")]),
            "predict-half-dt": self.cli("predict-half-dt", [
                "predict", *roll, "--dt", str(self.DT / 2), "--steps", str(2 * steps),
                "--out", str(w / "predict-half.csv")]),
            "eval-energy": self.cli("eval-energy", [
                "eval-energy", *roll, "--dt", str(self.DT), "--steps", str(steps),
                "--out", str(w / "energy.csv")]),
            "lyapunov-analytic": self.cli("lyapunov-analytic", [
                "lyapunov", "--alphas", "0,1", "--energy", "1/8", "--dt", "0.01",
                "--steps", str(s["lyapunov_analytic_steps"]),
                "--out", str(w / "lyapunov.csv")]),
            "lyapunov-learned": self.cli("lyapunov-learned", [
                "lyapunov", "--alphas", "0.2,0.8", "--energy", "1/12", "--dt", "0.1",
                "--steps", str(s["lyapunov_learned_steps"]), "--checkpoint", ck,
                "--out", str(w / "lyapunov-learned.csv")]),
        }
        n_traj = 4 * d["n_per_cell"]
        work = {
            "generate": n_traj * (d["series_length"] - 1) * FINE_FACTOR,
            "lyapunov-analytic": 2 * s["lyapunov_analytic_steps"],
            "lyapunov-learned": 2 * s["lyapunov_learned_steps"],
        }
        rates = {k: (work[k], times[k]) for k in work if times[k] is not None}
        if times["predict"] is not None and times["predict-half-dt"] is not None:
            rates["predict"] = (3 * steps, times["predict"] + times["predict-half-dt"])
        if times["eval-energy"] is not None:
            rates["eval-energy"] = (None, times["eval-energy"])
        return rates, times

    def check_round(self, times):
        w = self.work
        alpha = self.ALPHA
        energy = eval_fraction(self.ENERGY)

        def guarded(name, needs, fn, *args):
            if any(times[n] is None for n in needs):
                self.ledger.record(name, False, "its command failed", wrong=False)
            else:
                self.check(name, fn, *args)

        guarded("dataset", ["generate"], checks.check_dataset_dir, w / "dataset")
        if not hasattr(self, "nets"):
            self.nets = checks.SeparableNets(self.checkpoint)
        nets_ = self.nets

        def rows(name):
            return checks.read_csv_rows(w / name)[1]

        guarded("predict-rollout", ["predict"],
                lambda: checks.check_rollout(nets_, rows("predict.csv"), alpha, self.DT, energy))
        guarded("predict-second-order", ["predict", "predict-half-dt"],
                lambda: checks.check_second_order(
                    nets_, rows("predict.csv"), rows("predict-half.csv"), alpha))
        guarded("eval-energy", ["predict", "eval-energy"],
                lambda: checks.check_energy_error(
                    rows("energy.csv"), rows("predict.csv"), alpha, self.DT))
        guarded("lyapunov-analytic", ["lyapunov-analytic"],
                lambda: checks.check_lyapunov_analytic(rows("lyapunov.csv")))
        guarded("lyapunov-learned", ["lyapunov-learned"],
                lambda: checks.check_lyapunov_learned(rows("lyapunov-learned.csv")))


WORKLOADS = {"train-wide": TrainWide, "train-encoder": TrainEncoder, "simulate": Simulate}


def rate_metrics(workload_cls, rounds):
    """Median over rounds of each job's rate (or time), by name and unit."""
    out = {}
    for key, (name, unit) in workload_cls.rate_names.items():
        values = []
        for rates in rounds:
            if key in rates:
                work, seconds = rates[key]
                values.append(seconds if work is None else work / seconds)
        if values:
            out[name] = {"value": statistics.median(values), "unit": unit}
    return out
