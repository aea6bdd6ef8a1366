"""Trajectory dataset generation, windowing, and persistence.

Generation integrates finely (default dt 0.001), coarse-grains (default every
100th sample), drops an initial transient, and audits energy conservation
(``dynamics.hh_energy_batch``) on everything it keeps.  Initial conditions
are rejection-sampled on a constant energy surface.  Every trajectory owns an
independent RNG stream keyed by (dataset seed, trajectory index), so results
are independent of batching or worker count.  Training rows and windows take
their parameter channels from each trajectory's own couplings
(``PotentialParams.channels``).

On disk a dataset is a directory: ``manifest.json`` (structured metadata,
one record per trajectory written from its own couplings, plus a SHA-256
checksum) and ``states.bin`` (all state rows concatenated,
little-endian float64, row order ``q_x, q_y, p_x, p_y``).
"""

import hashlib
import json
import math
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import (
    PhaseState,
    PotentialParams,
    Trajectory,
    hh_energy_batch,
    hh_grad_v_columns,
    hh_potential,
    integrate_batch,
)
from .errors import (
    CorruptRecord,
    EmptyDataset,
    FormatVersionMismatch,
    IntegrationDiverged,
    RejectionExhausted,
    TooShort,
)

FORMAT_VERSION = 1
MAX_REJECTION_TRIES = 100_000
MAX_DIVERGENCE_RETRIES = 5
CONSERVATION_TOL = 1e-4


def check_field(name, value, kind, ok, what):
    """``value`` if it is a ``kind`` (never a bool) for which ``ok`` holds;
    otherwise a ValueError naming the config field."""
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def finite_positive(x):
    return math.isfinite(x) and x > 0


@dataclass(frozen=True)
class GenerationConfig:
    """Grid of (parameters, energy) cells and integration settings.

    ``param_values`` holds (alpha, beta) pairs; ``param_channels`` is 1 for
    the single-parameter family (beta locked to alpha, networks see alpha
    only) or 2 for independent couplings.  ``series_length`` counts coarse
    samples including the initial state; the first ``transient`` of them are
    dropped from what is stored.
    """

    param_values: tuple
    energies: tuple
    n_per_cell: int
    fine_dt: float = 0.001
    coarse_factor: int = 100
    series_length: int = 3000
    transient: int = 500
    seed: int = 0
    param_channels: int = 1

    def __post_init__(self):
        pairs = self.param_values
        if not (isinstance(pairs, (list, tuple)) and pairs and all(
                isinstance(v, (list, tuple)) and len(v) == 2 for v in pairs)):
            raise ValueError("param_values must be a non-empty list of (alpha, beta) pairs")
        object.__setattr__(self, "param_values", tuple(
            tuple(float(check_field("param_values", x, Real, math.isfinite,
                                    "finite numbers")) for x in v)
            for v in pairs))
        if not (isinstance(self.energies, (list, tuple)) and self.energies):
            raise ValueError("energies must be a non-empty list")
        object.__setattr__(self, "energies", tuple(
            float(check_field("energies", e, Real, finite_positive, "finite and > 0"))
            for e in self.energies))
        for name in ("n_per_cell", "coarse_factor"):
            check_field(name, getattr(self, name), Integral, lambda n: n >= 1, "an integer >= 1")
        check_field("fine_dt", self.fine_dt, Real, finite_positive, "finite and > 0")
        check_field("series_length", self.series_length, Integral, lambda n: n >= 2,
                    "an integer >= 2")
        check_field("transient", self.transient, Integral,
                    lambda n: 0 <= n < self.series_length, "an integer in [0, series_length)")
        check_field("seed", self.seed, Integral, lambda n: n >= 0, "an integer >= 0")
        check_field("param_channels", self.param_channels, Integral, lambda n: n in (1, 2),
                    "1 or 2")
        if self.param_channels == 1 and any(a != b for a, b in self.param_values):
            raise ValueError("single-parameter datasets need alpha == beta")

    @classmethod
    def single_parameter(cls, alphas, energies, n_per_cell, **kw):
        """Convenience constructor for the beta == alpha family."""
        return cls(
            param_values=tuple((float(a), float(a)) for a in alphas),
            energies=tuple(energies),
            n_per_cell=n_per_cell,
            param_channels=1,
            **kw,
        )

    @property
    def coarse_dt(self):
        return self.fine_dt * self.coarse_factor

    @property
    def stored_length(self):
        return self.series_length - self.transient

    def cells(self):
        """All (PotentialParams, energy) cells in generation order."""
        return [
            (PotentialParams(alpha=a, beta=b), e)
            for (a, b) in self.param_values
            for e in self.energies
        ]

    def to_dict(self):
        return {
            "param_values": [list(v) for v in self.param_values],
            "energies": list(self.energies),
            "n_per_cell": self.n_per_cell,
            "fine_dt": self.fine_dt,
            "coarse_factor": self.coarse_factor,
            "series_length": self.series_length,
            "transient": self.transient,
            "seed": self.seed,
            "param_channels": self.param_channels,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["param_values"] = tuple(tuple(v) for v in d["param_values"])
        d["energies"] = tuple(d["energies"])
        return cls(**d)


class Dataset:
    """Trajectories, which carry their own couplings, and the energy of each
    one's generating cell, the one fact of its cell a trajectory lacks."""

    def __init__(self, trajectories, cell_energies, config=None):
        if len(trajectories) != len(cell_energies):
            raise CorruptRecord("trajectory and cell-energy counts disagree")
        self.trajectories = list(trajectories)
        self.cell_energies = list(cell_energies)
        self.config = config

    def __len__(self):
        return len(self.trajectories)

    @property
    def param_channels(self):
        """Channels the networks read: the config's count, 1 without one."""
        return self.config.param_channels if self.config else 1

    @property
    def n_states(self):
        return sum(len(t) for t in self.trajectories)


def sample_initial_condition(energy, params, rng):
    """A state on the energy surface: position rejection-sampled uniformly
    over [-1, 1]^2 with V(q) <= E, momentum magnitude fixed by the energy
    deficit at a uniform angle.  Exact to round-off."""
    if energy < 0:
        raise ValueError("energy must be non-negative")
    if energy == 0:
        return PhaseState(q=np.zeros(2), p=np.zeros(2))
    for _ in range(MAX_REJECTION_TRIES):
        q = rng.uniform(-1.0, 1.0, size=2)
        v = hh_potential(q, params)
        if 0 <= v <= energy:
            speed = np.sqrt(2.0 * (energy - v))
            angle = rng.uniform(0.0, 2.0 * np.pi)
            p = speed * np.array([np.cos(angle), np.sin(angle)])
            return PhaseState(q=q, p=p)
    raise RejectionExhausted(
        f"no position with V(q) <= {energy} found in {MAX_REJECTION_TRIES} tries"
    )


def generate_dataset(config):
    """Generate every trajectory of the config's (parameters, energy) grid.

    Trajectories that leave the bounded regime or fail the conservation
    audit (max relative energy drift <= 1e-4 over all kept samples) are
    resampled from their own RNG stream a bounded number of times.
    """
    cells = config.cells()
    entries = [(pot, e) for (pot, e) in cells for _ in range(config.n_per_cell)]
    n = len(entries)
    rngs = [np.random.default_rng([config.seed, i]) for i in range(n)]
    alpha = np.array([pot.alpha for pot, _ in entries])
    beta = np.array([pot.beta for pot, _ in entries])
    states0 = np.empty((n, 4))
    for i, (pot, energy) in enumerate(entries):
        states0[i] = sample_initial_condition(energy, pot, rngs[i]).vec()

    n_fine = (config.series_length - 1) * config.coarse_factor
    stored = np.empty((n, config.stored_length, 4))
    pending = np.arange(n)
    for _attempt in range(MAX_DIVERGENCE_RETRIES + 1):
        coarse, escaped = integrate_batch(
            states0[pending],
            alpha[pending],
            beta[pending],
            config.fine_dt,
            n_fine,
            stride=config.coarse_factor,
        )
        energies = hh_energy_batch(
            coarse, PotentialParams(alpha[pending, None], beta[pending, None]))
        drift = np.max(
            np.abs(energies - energies[:, :1]) / np.abs(energies[:, :1]), axis=1
        )
        good = (escaped < 0) & np.isfinite(drift) & (drift <= CONSERVATION_TOL)
        stored[pending[good]] = coarse[good, config.transient :]
        pending = pending[~good]
        if pending.size == 0:
            break
        for i in pending:
            pot, energy = entries[i]
            states0[i] = sample_initial_condition(energy, pot, rngs[i]).vec()
    else:
        raise IntegrationDiverged(
            f"{pending.size} trajectories kept diverging after "
            f"{MAX_DIVERGENCE_RETRIES} resamples"
        )

    trajectories = [Trajectory(dt=config.coarse_dt, data=stored[i], params=pot)
                    for i, (pot, _) in enumerate(entries)]
    return Dataset(trajectories, [energy for _, energy in entries], config=config)


@dataclass
class DerivativePairs:
    """States with their analytic time derivatives (training rows)."""

    states: np.ndarray
    derivs: np.ndarray
    channels: np.ndarray

    @property
    def n(self):
        return self.states.shape[0]


@dataclass
class RolloutWindows:
    """Contiguous state windows for rollout-matching training."""

    windows: np.ndarray
    channels: np.ndarray
    dt: float

    @property
    def n(self):
        return self.windows.shape[0]


@dataclass
class EncoderWindows:
    """Partial-observation windows with (q_y, p_y, parameters) targets."""

    inputs: np.ndarray
    targets: np.ndarray
    dt: float

    @property
    def n(self):
        return self.inputs.shape[0]


def window_dataset(dataset, kind, window_len=None, stride=None):
    """Cut training rows or windows out of a dataset.

    Kinds: ``derivative-pairs`` (every state with its analytic derivative),
    ``rollout`` (non-overlapping windows of ``window_len`` states, default 11,
    default stride = window_len), ``encoder`` (sliding windows of the observed
    (q_x, p_x) columns, default length 30 and stride 1, targets at each
    window's last step).  Trajectories too short for one window are skipped;
    if none is long enough, TooShort is raised.
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot window an empty dataset")
    k = dataset.param_channels
    dts = {t.dt for t in dataset.trajectories}
    if len(dts) != 1:
        raise CorruptRecord("trajectories have mixed sampling steps")
    dt = dts.pop()

    if kind == "derivative-pairs":
        states, derivs, channels = [], [], []
        for traj in dataset.trajectories:
            d, pot = traj.data, traj.params
            qx, qy, px, py = d[:, 0], d[:, 1], d[:, 2], d[:, 3]
            gx, gy = hh_grad_v_columns(pot.alpha, pot.beta)(qx, qy)
            states.append(d)
            derivs.append(np.stack([px, py, -gx, -gy], axis=1))
            channels.append(np.tile(pot.channels(k), (len(traj), 1)))
        return DerivativePairs(
            states=np.concatenate(states),
            derivs=np.concatenate(derivs),
            channels=np.concatenate(channels),
        )

    if kind == "rollout":
        length = 11 if window_len is None else int(window_len)
        if length < 2:
            raise ValueError("rollout windows need at least 2 states")
        step = length if stride is None else int(stride)
        windows, channels = [], []
        for traj in dataset.trajectories:
            chan = traj.params.channels(k)
            for s in range(0, len(traj) - length + 1, step):
                windows.append(traj.data[s : s + length])
                channels.append(chan)
        if not windows:
            raise TooShort(f"no trajectory has {length} consecutive states")
        return RolloutWindows(
            windows=np.stack(windows), channels=np.array(channels), dt=dt
        )

    if kind == "encoder":
        length = 30 if window_len is None else int(window_len)
        step = 1 if stride is None else int(stride)
        inputs, targets = [], []
        for traj in dataset.trajectories:
            d = traj.data
            if len(traj) < length:
                continue
            # (windows, 2, length) views of the observed columns, one per start
            inputs.append(sliding_window_view(d[:, 0::2], length, axis=0)[::step])
            lasts = d[length - 1 :: step, 1::2]  # hidden coordinates at each end
            chan = np.broadcast_to(traj.params.channels(k), (lasts.shape[0], k))
            targets.append(np.concatenate([lasts, chan], axis=1))
        if not inputs:
            raise TooShort(f"no trajectory has {length} consecutive states")
        # (windows, length, 2), each window stored column by column
        return EncoderWindows(
            inputs=np.ascontiguousarray(np.concatenate(inputs)).transpose(0, 2, 1),
            targets=np.ascontiguousarray(np.concatenate(targets)), dt=dt,
        )

    raise ValueError(f"unknown windowing kind {kind!r}")


def f8_bytes(arrays):
    """The arrays' little-endian float64 bytes, concatenated in C order: what
    ``states.bin`` holds and what every stored checksum covers."""
    return b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)


def save_dataset(dataset, path):
    """Write manifest.json and states.bin into directory ``path``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    blob = f8_bytes(t.data for t in dataset.trajectories)
    records = []
    offset = 0
    for traj, energy in zip(dataset.trajectories, dataset.cell_energies):
        records.append(
            {
                "offset": offset,
                "length": len(traj),
                "alpha": traj.params.alpha,
                "beta": traj.params.beta,
                "energy": energy,
                "dt": traj.dt,
            }
        )
        offset += len(traj)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "trajectory-dataset",
        "config": dataset.config.to_dict() if dataset.config else None,
        "records": records,
        "totals": {"trajectories": len(dataset), "states": offset},
        "checksum_sha256": hashlib.sha256(blob).hexdigest(),
    }
    (path / "states.bin").write_bytes(blob)
    with open(path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_dataset(path):
    """Read a dataset directory back.  Verifies the version, the checksum,
    that every stored state is finite, and that the records tile ``states.bin``
    in order, one block each, with finite couplings, ``dt`` and cell energy
    finite and > 0, ``alpha == beta`` in a one-channel dataset, and couplings
    from the config's ``param_values`` grid when there is a config.  The
    trajectories' data are read-only views of one array of the stored
    states."""
    path = Path(path)
    try:
        with open(path / "manifest.json") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CorruptRecord(f"cannot read manifest: {err}")
    if not isinstance(manifest, dict):
        raise CorruptRecord("manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"dataset format {version!r}, supported {FORMAT_VERSION}"
        )
    try:
        blob = (path / "states.bin").read_bytes()
    except OSError as err:
        raise CorruptRecord(f"cannot read states.bin: {err}")
    if hashlib.sha256(blob).hexdigest() != manifest.get("checksum_sha256"):
        raise CorruptRecord("states.bin does not match its checksum")
    # one copy of the states: every trajectory is a read-only view of the
    # bytes, which are already native float64 on a little-endian machine
    flat = np.frombuffer(blob, dtype="<f8")
    if flat.size % 4 != 0:
        raise CorruptRecord("states.bin length is not a multiple of the row size")
    rows = flat.reshape(-1, 4)
    if not np.all(np.isfinite(rows)):
        raise CorruptRecord("states.bin holds non-finite values")
    totals = manifest.get("totals")
    total = totals.get("states") if isinstance(totals, dict) else None
    if type(total) is not int or total != rows.shape[0]:
        raise CorruptRecord(
            f"manifest declares {total!r} states, file holds {rows.shape[0]}"
        )
    records_in = manifest.get("records")
    if not isinstance(records_in, list) or not all(isinstance(r, dict) for r in records_in):
        raise CorruptRecord("manifest records are not a list of objects")
    trajectories, cell_energies = [], []
    end = 0
    try:
        for k, rec in enumerate(records_in):
            offset, length = rec["offset"], rec["length"]
            counts = type(offset) is int and type(length) is int
            if not counts or offset != end or length < 1:
                raise CorruptRecord(
                    f"record {k} (offset {offset!r}, length {length!r}) does not "
                    f"start where the previous one ends ({end}) with length >= 1"
                )
            end += length
            if end > total:
                raise CorruptRecord("record extends past the end of states.bin")
            pot = PotentialParams(*(check_field(n, rec[n], Real, math.isfinite, "finite")
                                    for n in ("alpha", "beta")))
            trajectories.append(Trajectory(dt=rec["dt"], data=rows[offset:end], params=pot))
            cell_energies.append(check_field("energy", rec["energy"], Real, finite_positive,
                                             "finite and > 0"))
        if end != total:
            raise CorruptRecord(f"records cover {end} of the {total} stored states")
        config = manifest.get("config")
        config = GenerationConfig.from_dict(config) if config else None
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CorruptRecord(f"manifest is structurally invalid: {err}")
    dataset = Dataset(trajectories, cell_energies, config=config)
    uneven = [k for k, t in enumerate(trajectories) if t.params.alpha != t.params.beta]
    if uneven and dataset.param_channels == 1:
        raise CorruptRecord(f"record {uneven[0]} has alpha != beta in a dataset with "
                            "one parameter channel")
    if config:
        grid = set(config.param_values)
        for k, t in enumerate(trajectories):
            if (t.params.alpha, t.params.beta) not in grid:
                raise CorruptRecord(
                    f"record {k} couplings ({t.params.alpha!r}, {t.params.beta!r}) are "
                    "not in the config's param_values")
    return dataset
