"""Optimizers and the minibatch training loop.

Every model kind trains a single flat parameter vector: each step builds a
fresh loss graph over a shuffled minibatch, back-propagates, clips the
gradient at a global norm, and applies Adam.  Validation loss is evaluated
once per epoch on a held-out split.  All randomness (init, split, shuffling)
derives from the config seed, so a rerun reproduces losses and parameters
bit for bit.
"""

import math
import time
from dataclasses import asdict, dataclass, replace
from numbers import Integral, Real

import numpy as np

from . import checkpoint as ckpt
from . import lstm, models, nets
from .autodiff import Tensor
from .datapipe import check_field, finite_positive, window_dataset
from .errors import DivergedTraining, EmptyBatch, ShapeMismatch
from .nets import DenseNetSpec

GRAD_CLIP_NORM = 10.0
MODEL_KINDS = ("baseline", "hnn", "asrnn", "encoder")


@dataclass
class AdamState:
    """First/second moment accumulators with bias-corrected updates."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = None
    v: np.ndarray = None


def init_adam(n_params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=0,
        m=np.zeros(n_params), v=np.zeros(n_params),
    )


def adam_step(state, params, grad):
    """One Adam update; mutates and returns the state, returns new params."""
    if grad.shape != params.shape or grad.shape != state.m.shape:
        raise ValueError("gradient, parameters, and state sizes disagree")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    return state, params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def clip_gradient(grad, max_norm=GRAD_CLIP_NORM):
    """Scale the gradient down to a global L2 norm of ``max_norm``."""
    norm = float(np.linalg.norm(grad))
    if norm > max_norm and norm > 0:
        return grad * (max_norm / norm)
    return grad


def split_dataset(items, fraction, seed):
    """Deterministic shuffled split into (train, validation) index arrays.

    ``items`` is a length or a sized sequence; the two index sets are
    disjoint and their union covers everything.
    """
    n = items if isinstance(items, (int, np.integer)) else len(items)
    if not 0 <= fraction < 1:
        raise ValueError("fraction must lie in [0, 1)")
    perm = np.random.default_rng(np.random.SeedSequence([seed, 83])).permutation(n)
    n_val = int(round(n * fraction))
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs, and nothing trajectory-specific.

    ``model_kind`` is one of :data:`MODEL_KINDS`.
    ``hidden`` sizes the dense nets; the encoder uses ``encoder_hidden``
    LSTM units instead.  ``adaptable`` appends parameter channels to the
    relevant network input (for the separable model, only the potential's).
    Every field is checked for type and range on construction; a bad one
    raises ValueError naming it.
    """

    model_kind: str
    epochs: int = 100
    batch_size: int = 128
    lr: float = 1e-3
    lr_decay: float = 1.0
    seed: int = 0
    val_fraction: float = 0.2
    hidden: tuple = (256,)
    adaptable: bool = True
    param_channels: int = 1
    window_len: int = 11
    fixed_kinetic: bool = False
    encoder_hidden: int = 9
    encoder_window: int = 30
    encoder_stride: int = 1
    grad_clip: float = GRAD_CLIP_NORM

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        for name in ("epochs", "batch_size", "encoder_hidden", "encoder_window",
                     "encoder_stride"):
            check_field(name, getattr(self, name), Integral, lambda n: n >= 1,
                        "an integer >= 1")
        check_field("window_len", self.window_len, Integral, lambda n: n >= 2,
                    "an integer >= 2")
        check_field("seed", self.seed, Integral, lambda n: n >= 0, "an integer >= 0")
        check_field("param_channels", self.param_channels, Integral, lambda n: n in (1, 2),
                    "1 or 2")
        for name in ("adaptable", "fixed_kinetic"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in ("lr", "grad_clip"):
            check_field(name, getattr(self, name), Real, finite_positive, "finite and > 0")
        check_field("lr_decay", self.lr_decay, Real, lambda x: 0 < x <= 1, "in (0, 1]")
        check_field("val_fraction", self.val_fraction, Real, lambda x: 0 <= x < 1,
                    "in [0, 1)")
        if not isinstance(self.hidden, (list, tuple)):
            raise ValueError(f"hidden must be a list of layer widths, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(
            int(check_field("hidden", h, Real,
                            lambda x: math.isfinite(x) and x >= 1 and x == int(x),
                            "a list of integers >= 1"))
            for h in self.hidden))

    def to_dict(self):
        return asdict(self)


@dataclass
class TrainReport:
    """Loss history, wall time, the trained model, and its checkpoint."""

    train_losses: list
    val_losses: list
    wall_time: float
    model: object
    checkpoint: dict
    config: TrainConfig
    n_train: int
    n_val: int


def _build_problem(config, dataset):
    """``(n, theta0, loss_graph, build_model)``: the row count, the initial
    parameters, the loss-graph closure, and the model at given parameters.

    Raises ShapeMismatch when a model that reads parameter channels (an
    adaptable one, or the encoder) asks for another count than the dataset
    holds.
    """
    k = config.param_channels if config.adaptable else 0
    if config.adaptable or config.model_kind == "encoder":
        if config.param_channels != dataset.param_channels:
            raise ShapeMismatch(
                f"param_channels is {config.param_channels}, but the dataset holds "
                f"{dataset.param_channels} parameter channel(s)")
    seq = np.random.SeedSequence([config.seed, 7])
    init_seed, init_seed2 = seq.spawn(2)

    if config.model_kind in ("baseline", "hnn"):
        pairs = window_dataset(dataset, "derivative-pairs")
        n = pairs.n
        chan = pairs.channels if config.adaptable else None
        n_out = 4 if config.model_kind == "baseline" else 1
        spec = DenseNetSpec((4 + k, *config.hidden, n_out))
        theta0 = nets.init_params(spec, init_seed)
        cls = models.BaselineModel if config.model_kind == "baseline" else models.HnnModel
        template = cls(spec=spec, params=theta0, adaptable=config.adaptable,
                       param_channels=k)

        if config.model_kind == "baseline":
            def loss_graph(theta, idx):
                return models._baseline_loss_graph(
                    spec, theta, k, pairs.states[idx], pairs.derivs[idx],
                    None if chan is None else chan[idx])
        else:
            def loss_graph(theta, idx):
                return models._hnn_loss_graph(
                    spec, theta, k, pairs.states[idx],
                    pairs.derivs[idx][:, :2], pairs.derivs[idx][:, 2:],
                    None if chan is None else chan[idx])

    elif config.model_kind == "asrnn":
        wins = window_dataset(dataset, "rollout", window_len=config.window_len)
        n = wins.n
        chan = wins.channels if config.adaptable else None
        k_spec = DenseNetSpec((2, *config.hidden, 1))
        v_spec = DenseNetSpec((2 + k, *config.hidden, 1))
        theta_k = np.empty(0) if config.fixed_kinetic else nets.init_params(k_spec, init_seed)
        theta0 = np.concatenate([theta_k, nets.init_params(v_spec, init_seed2)])
        template = models.SeparableModel(
            kinetic_spec=k_spec, potential_spec=v_spec, params=theta0,
            adaptable=config.adaptable, param_channels=k,
            fixed_kinetic=config.fixed_kinetic,
        )
        pool = models.ArrayPool()

        def loss_graph(theta, idx):
            loss, _ = models._srnn_loss_graph(
                template, theta, wins.windows[idx],
                None if chan is None else chan[idx], wins.dt, pool=pool)
            return loss

    else:
        wins = window_dataset(dataset, "encoder", window_len=config.encoder_window,
                              stride=config.encoder_stride)
        n = wins.n
        theta0 = lstm.init_encoder_params(config.encoder_hidden, config.param_channels,
                                          init_seed)
        template = lstm.EncoderModel(
            hidden_size=config.encoder_hidden, window_len=config.encoder_window,
            param_outputs=config.param_channels, params=theta0,
        )

        def loss_graph(theta, idx):
            return lstm._encoder_loss_graph(template, theta, wins.inputs[idx],
                                            wins.targets[idx])

    def build_model(theta):
        return replace(template, params=theta)

    return n, theta0, loss_graph, build_model


def _eval_loss(loss_graph, theta, idx, chunk=4096):
    """Loss over a fixed index set, in deterministic fixed-size chunks."""
    if idx.size == 0:
        return float("nan")
    total = 0.0
    for s in range(0, idx.size, chunk):
        part = idx[s : s + chunk]
        total += loss_graph(Tensor(theta), part).item() * part.size
    return total / idx.size


def train(config, dataset):
    """Train a model of ``config.model_kind`` on a generated dataset.

    Returns a TrainReport whose checkpoint document embeds the config and
    final losses.  Raises DivergedTraining if the validation loss or the
    parameters leave the finite range.
    """
    t_start = time.perf_counter()
    n, theta, loss_graph, build_model = _build_problem(config, dataset)
    if n == 0:
        raise EmptyBatch("no training rows")
    train_idx, val_idx = split_dataset(n, config.val_fraction, config.seed)
    if val_idx.size == 0:
        val_idx = train_idx
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 17]))
    adam = init_adam(theta.size, lr=config.lr)
    train_losses, val_losses = [], []
    for epoch in range(config.epochs):
        adam.lr = config.lr * (config.lr_decay ** epoch)
        perm = shuffle_rng.permutation(train_idx.size)
        total = 0.0
        for s in range(0, train_idx.size, config.batch_size):
            batch = train_idx[perm[s : s + config.batch_size]]
            theta_t = Tensor(theta, requires_grad=True)
            loss = loss_graph(theta_t, batch)
            grad = nets.grad_params_through(loss, theta_t)
            grad = clip_gradient(grad, config.grad_clip)
            adam, theta = adam_step(adam, theta, grad)
            total += loss.item() * batch.size
        train_losses.append(total / train_idx.size)
        val_losses.append(_eval_loss(loss_graph, theta, val_idx))
        if not np.isfinite(val_losses[-1]):
            raise DivergedTraining(
                f"validation loss became non-finite at epoch {epoch + 1}"
            )
        # the rollout loss's divergence penalty keeps it finite when theta is not
        if not np.all(np.isfinite(theta)):
            raise DivergedTraining(f"parameters became non-finite at epoch {epoch + 1}")
    model = build_model(theta)
    wall = time.perf_counter() - t_start
    document = ckpt.build_checkpoint(
        model,
        seed=config.seed,
        training_config=config.to_dict(),
        metrics={
            "final_train_loss": train_losses[-1],
            "final_val_loss": val_losses[-1],
            "epochs": config.epochs,
        },
    )
    return TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        wall_time=wall,
        model=model,
        checkpoint=document,
        config=config,
        n_train=int(train_idx.size),
        n_val=int(val_idx.size),
    )


def save_history_csv(report, path):
    """Write the per-epoch loss history as CSV (epoch, train, validation)."""
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for i, (tr, va) in enumerate(zip(report.train_losses, report.val_losses)):
            fh.write(f"{i},{tr!r},{va!r}\n")
