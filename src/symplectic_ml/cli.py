"""Command-line interface.

Subcommands: generate, train, predict, predict-partial, eval-energy,
lyapunov, poincare, infer-params.  Exit codes: 0 on success, 1 on usage
errors, 2 on runtime failures, a request too large to allocate among them
(with a structured cause on stderr).

Every CSV output begins with ``# key=value`` metadata lines recording the
tool version, the seed, and a hash of the effective configuration.  The
seed comes from ``--seed`` when given, else the ``SYMPLECTIC_ML_SEED``
environment variable, else 0.  ``--jobs`` bounds worker processes where
supported; results are independent of the worker count.  ``lyapunov``
samples each grid point's initial condition from its own stream, then
estimates the grid in fixed chunks of ``LYAPUNOV_CHUNK`` points: one
batched ``analysis.lyapunov_spectra`` pass per chunk, each point with its
own couplings, and one worker task per chunk.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis, checkpoint, datapipe, lstm, models, training
from .dynamics import HH_FIELD, PhaseState, PotentialParams, integrate
from .errors import SymplecticMlError

SEED_ENV_VAR = "SYMPLECTIC_ML_SEED"
MAX_GRID_POINTS = 100_000
# grid points per batched Lyapunov estimate, and per worker task; fixed, so
# that the rows each network call sees, and so the output, never depend on --jobs
LYAPUNOV_CHUNK = 32


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return 0


def _parse_number(text):
    """A finite float, allowing exact fractions like 1/12."""
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise _UsageError(f"cannot parse number {text!r}")
    if not math.isfinite(value):
        raise _UsageError(f"number must be finite, got {text!r}")
    return value


def _parse_energy(text):
    energy = _parse_number(text)
    if energy < 0:
        raise _UsageError(f"--energy must be >= 0, got {text!r}")
    return energy


def _checked(parse, ok, requirement):
    """An argparse type: ``parse``, then reject values failing ``ok``."""

    def convert(text):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    convert.__name__ = parse.__name__  # argparse names it in "invalid float value"
    return convert


_positive = _checked(float, lambda x: math.isfinite(x) and x > 0, "finite and > 0")
_finite = _checked(float, math.isfinite, "finite")
_count = _checked(int, lambda n: n >= 1, ">= 1")


def _parse_list(text):
    return [_parse_number(x) for x in text.split(",") if x.strip()]


def _parse_overrides(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise _UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _config_hash(obj):
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_csv(path, names, rows, meta):
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _meta(seed, config_obj):
    return {
        "tool": "symplectic-ml",
        "version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config_obj),
    }


def _read_observed(path):
    """(T, 2) of (q_x, p_x) from a CSV.

    Blank lines and ``#`` comments are skipped, and one header line may come
    before the first numeric row.  Any other row must start with two finite
    numbers; one that does not raises, naming the file and line.
    """
    rows = []
    header_seen = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                row = [float(parts[0]), float(parts[1])]
            except (ValueError, IndexError):
                row = None
            if row is None and not rows and not header_seen:
                header_seen = True
            elif row is not None and all(math.isfinite(x) for x in row):
                rows.append(row)
            else:
                raise SymplecticMlError(
                    f"{path}, line {lineno}: expected two finite numbers q_x,p_x, "
                    f"got {line!r}")
    if not rows:
        raise SymplecticMlError(f"no numeric rows in {path}")
    return np.array(rows)


def _load_config(path):
    """The JSON object of a ``--config`` file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise _UsageError(f"{path} is not valid JSON: {err}")
    if not isinstance(doc, dict):
        raise _UsageError(f"{path} must hold a JSON object, got {json.dumps(doc)[:40]}")
    return doc


def _sample_state(energy, pot, seed):
    rng = np.random.default_rng([seed, 0])
    return datapipe.sample_initial_condition(energy, pot, rng)


def _pot_from_args(args):
    alpha = args.alpha
    beta = args.beta if args.beta is not None else alpha
    return PotentialParams(alpha=alpha, beta=beta)


def _truth_trajectory(state0, pot, dt, n_steps, fine_factor=100):
    """High-accuracy reference: integrate at ``dt / fine_factor``, keeping
    every ``fine_factor``-th state so the grid matches the requested dt."""
    return integrate(state0, dt / fine_factor, n_steps * fine_factor, HH_FIELD, pot,
                     stride=fine_factor)


def _cmd_generate(args):
    seed = _resolve_seed(args)
    if args.config:
        cfg_dict = _load_config(args.config)
    else:
        cfg_dict = {
            "param_values": [[a, a] for a in _parse_list(args.alphas)],
            "energies": _parse_list(args.energies),
            "n_per_cell": args.n_per_cell,
            "series_length": args.series_length,
            "transient": args.transient,
        }
    cfg_dict.update(_parse_overrides(args.set))
    cfg_dict["seed"] = seed
    try:
        config = datapipe.GenerationConfig.from_dict(cfg_dict)
    except (TypeError, ValueError, OverflowError) as err:
        raise _UsageError(f"bad generation config: {err}")
    dataset = datapipe.generate_dataset(config)
    datapipe.save_dataset(dataset, args.out)
    print(
        f"generated {len(dataset)} trajectories "
        f"({dataset.n_states} states) -> {args.out} "
        f"[config_hash={_config_hash(config.to_dict())}]"
    )
    return 0


def _cmd_train(args):
    seed = _resolve_seed(args)
    cfg_dict = _load_config(args.config) if args.config else {}
    cfg_dict.update(_parse_overrides(args.set))
    cfg_dict["model_kind"] = args.model
    cfg_dict["seed"] = seed
    try:
        config = training.TrainConfig(**cfg_dict)
    except (TypeError, ValueError, OverflowError) as err:
        raise _UsageError(f"bad training config: {err}")
    dataset = datapipe.load_dataset(args.dataset)
    report = training.train(config, dataset)
    checkpoint.write_checkpoint(report.checkpoint, args.out)
    if args.history:
        training.save_history_csv(report, args.history)
    print(
        f"trained {args.model} for {config.epochs} epochs in "
        f"{report.wall_time:.1f}s: train_loss={report.train_losses[-1]:.6g} "
        f"val_loss={report.val_losses[-1]:.6g} -> {args.out}"
    )
    return 0


def _state_from_args(args, pot, seed):
    if args.ic:
        vals = _parse_list(args.ic)
        if len(vals) != 4:
            raise _UsageError("--ic needs q_x,q_y,p_x,p_y")
        return PhaseState(q=np.array(vals[:2]), p=np.array(vals[2:]))
    if args.energy is None:
        raise _UsageError("need --energy or --ic")
    return _sample_state(_parse_energy(args.energy), pot, seed)


def _rollout(args):
    """The shared start of ``predict``, ``poincare`` and ``eval-energy``:
    ``(state0, pot, traj, meta)``, the initial state and couplings, their
    rollout (under ``--checkpoint``, else analytic) and the CSV metadata."""
    seed = _resolve_seed(args)
    pot = _pot_from_args(args)
    state0 = _state_from_args(args, pot, seed)
    if not args.checkpoint:
        traj = integrate(state0, args.dt, args.steps, HH_FIELD, pot)
    else:
        model, _ = checkpoint.load_checkpoint(args.checkpoint)
        if isinstance(model, models.SeparableModel):
            traj = models.asrnn_rollout(model, state0, pot, args.dt, args.steps)
        elif isinstance(model, models.BaselineModel):
            traj = models.baseline_rollout(model, state0, pot, args.dt, args.steps)
        else:
            raise SymplecticMlError(
                f"checkpoint holds a {checkpoint.model_kind(model)}; need a rollout model")
    cfg = {
        "checkpoint": args.checkpoint, "alpha": pot.alpha, "beta": pot.beta,
        "dt": args.dt, "steps": args.steps,
    }
    return state0, pot, traj, _meta(seed, cfg)


def _cmd_predict(args):
    _, _, traj, meta = _rollout(args)
    rows = [(i * traj.dt, *traj.data[i]) for i in range(len(traj))]
    _write_csv(args.out, ("t", "q_x", "q_y", "p_x", "p_y"), rows, meta)
    print(f"wrote {len(traj)} states -> {args.out}")
    return 0


def _cmd_eval_energy(args):
    state0, pot, traj, meta = _rollout(args)
    truth = _truth_trajectory(state0, pot, args.dt, args.steps)
    err = analysis.relative_energy_error(traj, truth)
    rows = [(i * traj.dt, err[i]) for i in range(err.size)]
    _write_csv(args.out, ("t", "energy_error_pct"), rows, meta)
    print(
        f"mean energy error {float(np.mean(err)):.4f}% over {args.steps} steps "
        f"-> {args.out}"
    )
    return 0


def _lyapunov_task(task):
    """One chunk of grid points, the first at index ``start``: sample each
    point's IC from its own stream, then estimate every maximal exponent in
    one batched pass."""
    (alphas, start, energy, seed, dt, steps, renorm, flow) = task
    pots = [PotentialParams(alpha=a, beta=a) for a in alphas]
    states = np.array([
        datapipe.sample_initial_condition(
            energy, pot, np.random.default_rng([seed, start + i])).vec()
        for i, pot in enumerate(pots)])
    spectra = analysis.lyapunov_spectra(flow, states, pots, dt, steps, renorm)
    return [(a, a, lam) for a, lam in zip(alphas, spectra[:, 0])]


def _cmd_lyapunov(args):
    seed = _resolve_seed(args)
    if args.grid:
        bounds = [_parse_number(x) for x in args.grid.split(":")]
        if len(bounds) != 3 or not (bounds[2] > 0 and bounds[1] >= bounds[0]):
            raise _UsageError(f"--grid needs lo:hi:step with step > 0 and hi >= lo, "
                              f"got {args.grid!r}")
        lo, hi, step = bounds
        stop = hi + 0.5 * step
        if not (stop - lo) / step <= MAX_GRID_POINTS:  # np.arange's point count
            raise _UsageError(f"--grid {args.grid!r} has more than {MAX_GRID_POINTS} points")
        alphas = list(np.arange(lo, stop, step))
    else:
        alphas = _parse_list(args.alphas)
        if not alphas:
            raise _UsageError(f"--alphas needs at least one value, got {args.alphas!r}")
    energy = _parse_energy(args.energy)
    interval = args.renorm / args.dt  # may overflow to inf
    if math.isfinite(interval):
        interval = analysis.renorm_steps(args.dt, args.renorm)
    if args.steps < interval:
        raise _UsageError(
            f"--steps {args.steps} is shorter than one renorm interval ({interval} steps)")
    flow = HH_FIELD
    if args.checkpoint:
        flow = checkpoint.load_checkpoint(args.checkpoint)[0]
        if not hasattr(flow, "block_force"):
            raise SymplecticMlError(
                f"checkpoint holds a {checkpoint.model_kind(flow)}; "
                "lyapunov needs a separable rollout model")
    tasks = [
        (alphas[i : i + LYAPUNOV_CHUNK], i, energy, seed, args.dt, args.steps,
         args.renorm, flow)
        for i in range(0, len(alphas), LYAPUNOV_CHUNK)
    ]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            chunks = list(pool.map(_lyapunov_task, tasks))
    else:
        chunks = [_lyapunov_task(t) for t in tasks]
    results = [row for chunk in chunks for row in chunk]
    cfg = {
        "alphas": alphas, "energy": energy, "dt": args.dt, "steps": args.steps,
        "renorm": args.renorm, "checkpoint": args.checkpoint,
    }
    _write_csv(args.out, ("alpha", "beta", "lambda_max"), results, _meta(seed, cfg))
    print(f"wrote {len(results)} exponents -> {args.out}")
    return 0


def _cmd_poincare(args):
    _, _, traj, meta = _rollout(args)
    section = analysis.poincare_section(traj)
    rows = list(zip(section.times, section.q_y, section.p_y, section.p_x))
    _write_csv(args.out, ("t", "q_y", "p_y", "p_x"), rows, meta)
    print(f"wrote {section.n} section points -> {args.out}")
    return 0


def _load_encoder(path):
    """The ``--encoder`` checkpoint's model, which must be an LSTM encoder."""
    model, _ = checkpoint.load_checkpoint(path)
    if not isinstance(model, lstm.EncoderModel):
        raise SymplecticMlError("--encoder must point at an lstm-encoder checkpoint")
    return model


def _cmd_infer_params(args):
    seed = _resolve_seed(args)
    model = _load_encoder(args.encoder)
    observed = _read_observed(args.observed)
    est = lstm.infer_param_ensemble(model, observed, stride=args.stride)
    cfg = {"encoder": args.encoder, "observed": args.observed, "stride": args.stride}
    rows = [
        (i, est.mean[i], est.std[i], est.n_windows) for i in range(est.mean.size)
    ]
    _write_csv(args.out, ("channel", "mean", "std", "n_windows"), rows,
               _meta(seed, cfg))
    pretty = ", ".join(
        f"channel {i}: {est.mean[i]:.4f} +/- {est.std[i]:.4f}"
        for i in range(est.mean.size)
    )
    print(f"{pretty} over {est.n_windows} windows -> {args.out}")
    return 0


def _cmd_predict_partial(args):
    seed = _resolve_seed(args)
    encoder = _load_encoder(args.encoder)
    model, _ = checkpoint.load_checkpoint(args.checkpoint)
    if not isinstance(model, models.SeparableModel):
        raise SymplecticMlError("--checkpoint must point at a rollout model")
    observed = _read_observed(args.observed)
    pred = lstm.predict_from_partial(
        encoder, model, observed, args.dt, args.horizon, stride=args.stride)
    traj = pred.trajectory
    cfg = {
        "encoder": args.encoder, "checkpoint": args.checkpoint,
        "observed": args.observed, "dt": args.dt, "horizon": args.horizon,
        "stride": args.stride,
    }
    rows = [(i * traj.dt, *traj.data[i]) for i in range(len(traj))]
    _write_csv(args.out, ("t", "q_x", "q_y", "p_x", "p_y"), rows, _meta(seed, cfg))
    mean = ", ".join(f"{m:.4f}" for m in pred.estimate.mean)
    print(
        f"reconstructed state {np.round(pred.state0.vec(), 6).tolist()} "
        f"params [{mean}] -> {args.out}"
    )
    return 0


def build_parser():
    parser = _Parser(prog="symplectic-ml", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
        p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("generate", help="generate a trajectory dataset")
    common(p)
    p.add_argument("--config", help="JSON file of generation settings")
    p.add_argument("--alphas", default="1.0", help="comma list of coupling values")
    p.add_argument("--energies", default="0.125",
                   help="comma list of energies (fractions ok)")
    p.add_argument("--n-per-cell", type=int, default=50)
    p.add_argument("--series-length", type=int, default=3000)
    p.add_argument("--transient", type=int, default=500)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a model on a dataset")
    common(p)
    p.add_argument("--model", required=True,
                   choices=training.MODEL_KINDS)
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--config", help="JSON file of training settings")
    p.add_argument("--history", help="write per-epoch losses to this CSV")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_train)

    def rollout_args(p, need_checkpoint):
        common(p)
        p.add_argument("--checkpoint",
                       **({"required": True} if need_checkpoint else {}))
        p.add_argument("--alpha", type=_finite, required=True)
        p.add_argument("--beta", type=_finite, default=None)
        start = p.add_mutually_exclusive_group()
        start.add_argument("--energy", help="initial energy (fractions ok)")
        start.add_argument("--ic", help="explicit q_x,q_y,p_x,p_y")
        p.add_argument("--dt", type=_positive, default=0.1)
        p.add_argument("--steps", type=_count, default=1000)

    p = sub.add_parser("predict", help="roll a model (or the analytic system) forward")
    rollout_args(p, need_checkpoint=False)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval-energy", help="relative energy error of a rollout")
    rollout_args(p, need_checkpoint=True)
    p.set_defaults(func=_cmd_eval_energy)

    p = sub.add_parser("lyapunov", help="maximal exponents over a coupling grid")
    common(p)
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--grid", help="alpha grid lo:hi:step")
    grid.add_argument("--alphas", default="1.0", help="comma list of alphas")
    p.add_argument("--energy", required=True)
    p.add_argument("--dt", type=_positive, default=0.01)
    p.add_argument("--steps", type=_count, default=100000)
    p.add_argument("--renorm", type=_positive, default=1.0)
    p.add_argument("--checkpoint", help="separable-model checkpoint (default: analytic)")
    p.add_argument("--jobs", type=_count, default=1)
    p.set_defaults(func=_cmd_lyapunov)

    p = sub.add_parser("poincare", help="surface-of-section points of a rollout")
    rollout_args(p, need_checkpoint=False)
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("infer-params", help="parameter ensemble from observations")
    common(p)
    p.add_argument("--encoder", required=True)
    p.add_argument("--observed", required=True, help="CSV of q_x,p_x rows")
    p.add_argument("--stride", type=_count, default=1)
    p.set_defaults(func=_cmd_infer_params)

    p = sub.add_parser("predict-partial",
                       help="reconstruct the full state from observations and roll forward")
    common(p)
    p.add_argument("--encoder", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--observed", required=True)
    p.add_argument("--dt", type=_positive, default=0.1)
    p.add_argument("--horizon", type=_count, default=1000)
    p.add_argument("--stride", type=_count, default=1)
    p.set_defaults(func=_cmd_predict_partial)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SymplecticMlError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
