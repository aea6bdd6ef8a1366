"""Trajectory dataset generation, windowing, and persistence.

Generation integrates finely (default dt 0.001), coarse-grains (default every
100th sample), drops an initial transient, and audits energy conservation
(``dynamics.hh_energy_batch``) on everything it keeps.  Initial conditions
are rejection-sampled on a constant energy surface, with the potential taken
as that energy at rest; an energy whose squared speed would overflow is
refused.  Every trajectory owns an independent RNG stream keyed by (dataset
seed, trajectory index), so results are independent of batching or worker
count.  A dataset is one read-only (N, L, 4) block of N trajectories of L
states at one step; training rows and windows take their parameter channels
from each row's couplings (``PotentialParams.channels``).

On disk a dataset is a directory: ``manifest.json`` (structured metadata:
the config as ``dataclasses.asdict`` of its fields, one record per
trajectory with its couplings and cell energy, and a SHA-256 checksum) and
``states.bin`` (all state rows concatenated, little-endian float64, row
order ``q_x, q_y, p_x, p_y``).  The records share one length and one step
and follow the config's cell order.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import (
    PhaseState,
    PotentialParams,
    hh_energy_batch,
    hh_grad_v_columns,
    hh_potential,
    integrate_batch,
    states_array,
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass(frozen=True, eq=False)
class Dataset:
    """N trajectories of L states as one block: ``states``, a read-only
    (N, L, 4) array sampled at the one step ``dt``; ``params``, their
    couplings as a PotentialParams of (N,) arrays; ``cell_energies``, the
    (N,) energies of their generating cells; and the config, if any.  A
    dataset holds at least one trajectory."""

    states: np.ndarray
    params: PotentialParams
    cell_energies: np.ndarray
    dt: float
    config: GenerationConfig = None

    def __post_init__(self):
        if not len(self.states) == len(self.params.alpha) == len(self.cell_energies):
            raise CorruptRecord("state, coupling and cell-energy counts disagree")
        if not len(self.states):
            raise EmptyDataset("a dataset needs at least one trajectory")

    def __len__(self):
        return self.states.shape[0]

    @property
    def param_channels(self):
        """Channels the networks read: the config's count, 1 without one."""
        return self.config.param_channels if self.config else 1

    @property
    def n_states(self):
        return self.states.shape[0] * self.states.shape[1]


def sample_initial_condition(energy, params, rng):
    """A state on the energy surface: position rejection-sampled uniformly
    over [-1, 1]^2 with V(q) <= E, momentum magnitude fixed by the energy
    deficit at a uniform angle.  Exact to round-off.  An energy whose squared
    speed 2 (E - V) would overflow raises RejectionExhausted."""
    if energy < 0:
        raise ValueError("energy must be non-negative")
    if energy == 0:
        return PhaseState(q=np.zeros(2), p=np.zeros(2))
    if energy > np.finfo(np.float64).max / 2:
        raise RejectionExhausted(f"energy {energy!r} is too large to sample: "
                                 "its squared speed overflows float64")
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
    n = len(cells) * config.n_per_cell
    stored = states_array((n, config.stored_length, 4),
                          f"series_length {config.series_length}")
    entries = [(pot, e) for (pot, e) in cells for _ in range(config.n_per_cell)]
    rngs = [np.random.default_rng([config.seed, i]) for i in range(n)]
    alpha = np.array([pot.alpha for pot, _ in entries])
    beta = np.array([pot.beta for pot, _ in entries])
    states0 = np.empty((n, 4))
    for i, (pot, energy) in enumerate(entries):
        states0[i] = sample_initial_condition(energy, pot, rngs[i]).vec()

    n_fine = (config.series_length - 1) * config.coarse_factor
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

    stored.flags.writeable = False
    return Dataset(stored, PotentialParams(alpha, beta),
                   np.array([energy for _, energy in entries]), float(config.coarse_dt), config)


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
    """Cut training rows or windows out of a dataset's (N, L, 4) block.

    Kinds: ``derivative-pairs`` (every state with its analytic derivative),
    ``rollout`` (windows of ``window_len`` states, default 11, default stride
    = window_len, so non-overlapping), ``encoder`` (windows of the observed
    (q_x, p_x) columns, default length 30 and stride 1, targets the hidden
    (q_y, p_y) at each window's last step and the couplings).  Rows and
    windows come trajectory by trajectory, and no window crosses from one
    trajectory into the next.  A window longer than the trajectories raises
    TooShort.
    """
    states, pot, k = dataset.states, dataset.params, dataset.param_channels
    chan = pot.channels(k)

    if kind == "derivative-pairs":
        qx, qy, px, py = np.moveaxis(states, 2, 0)
        gx, gy = hh_grad_v_columns(pot.alpha[:, None], pot.beta[:, None])(qx, qy)
        return DerivativePairs(states=states.reshape(-1, 4),
                               derivs=np.stack([px, py, -gx, -gy], axis=2).reshape(-1, 4),
                               channels=np.repeat(chan, states.shape[1], axis=0))
    if kind == "rollout":
        length = 11 if window_len is None else int(window_len)
        if length < 2:
            raise ValueError("rollout windows need at least 2 states")
        cut = _sliding_windows(states, length, length if stride is None else int(stride))
        windows = np.ascontiguousarray(cut.transpose(0, 1, 3, 2)).reshape(-1, length, 4)
        return RolloutWindows(windows=windows, channels=np.repeat(chan, cut.shape[1], axis=0),
                              dt=dataset.dt)
    if kind == "encoder":
        length = 30 if window_len is None else int(window_len)
        cut = _sliding_windows(states, length, 1 if stride is None else int(stride))
        chan = np.broadcast_to(chan[:, None], (*cut.shape[:2], k))
        targets = np.concatenate([cut[:, :, 1::2, -1], chan], axis=2).reshape(-1, 2 + k)
        # (windows, length, 2), each window stored column by column
        inputs = np.ascontiguousarray(cut[:, :, 0::2]).reshape(-1, 2, length).transpose(0, 2, 1)
        return EncoderWindows(inputs=inputs, targets=targets, dt=dataset.dt)
    raise ValueError(f"unknown windowing kind {kind!r}")


def _sliding_windows(states, length, step):
    """(N, windows per trajectory, 4, length) view of the (N, L, 4) block:
    windows of ``length`` states every ``step``, none crossing trajectories."""
    if states.shape[1] < length:
        raise TooShort(f"trajectories of {states.shape[1]} states hold no window of {length}")
    return sliding_window_view(states, length, axis=1)[:, ::step]


def f8_bytes(arrays):
    """The arrays' little-endian float64 bytes, concatenated in C order: what
    ``states.bin`` holds and what every stored checksum covers."""
    return b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)


def save_dataset(dataset, path):
    """Write manifest.json and states.bin into directory ``path``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    blob = f8_bytes([dataset.states])
    n, length = dataset.states.shape[:2]
    cells = zip(dataset.params.alpha.tolist(), dataset.params.beta.tolist(),
                dataset.cell_energies.tolist())
    records = [{"offset": k * length, "length": length, "alpha": a, "beta": b, "energy": e,
                "dt": dataset.dt} for k, (a, b, e) in enumerate(cells)]
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "trajectory-dataset",
        "config": dataset.config.to_dict() if dataset.config else None,
        "records": records,
        "totals": {"trajectories": n, "states": n * length},
        "checksum_sha256": hashlib.sha256(blob).hexdigest(),
    }
    (path / "states.bin").write_bytes(blob)
    with open(path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_dataset(path):
    """Read a dataset directory back as one block.  Verifies the version,
    the kind, the checksum, that every stored state is finite, and that the
    records, as many as ``totals.trajectories``, tile ``states.bin`` in
    order with record 0's length and ``dt``, finite couplings, a cell energy
    finite and > 0, and ``alpha == beta`` in a one-channel dataset.  With a
    config, the records must also hold its ``stored_length`` states at its
    coarse step, and record k the couplings and energy of the config's cell
    for k: its ``cells()`` in order, each ``n_per_cell`` times.  The states
    are a read-only (N, L, 4) view of the stored bytes."""
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
    if manifest.get("kind") != "trajectory-dataset":
        raise CorruptRecord(f"manifest kind {manifest.get('kind')!r} is not "
                            "'trajectory-dataset'")
    try:
        blob = (path / "states.bin").read_bytes()
    except OSError as err:
        raise CorruptRecord(f"cannot read states.bin: {err}")
    if hashlib.sha256(blob).hexdigest() != manifest.get("checksum_sha256"):
        raise CorruptRecord("states.bin does not match its checksum")
    # one copy of the states: the block is a read-only view of the bytes,
    # which are already native float64 on a little-endian machine
    flat = np.frombuffer(blob, dtype="<f8")
    if flat.size % 4 != 0:
        raise CorruptRecord("states.bin length is not a multiple of the row size")
    rows = flat.reshape(-1, 4)
    if not np.all(np.isfinite(rows)):
        raise CorruptRecord("states.bin holds non-finite values")
    totals = manifest.get("totals")
    totals = totals if isinstance(totals, dict) else {}
    total = totals.get("states")
    if type(total) is not int or total != rows.shape[0]:
        raise CorruptRecord(
            f"manifest declares {total!r} states, file holds {rows.shape[0]}"
        )
    records = manifest.get("records")
    if not (isinstance(records, list) and records
            and all(isinstance(r, dict) for r in records)):
        raise CorruptRecord("manifest records are not a non-empty list of objects")
    n = len(records)
    if type(totals.get("trajectories")) is not int or totals["trajectories"] != n:
        raise CorruptRecord(f"manifest declares {totals.get('trajectories')!r} "
                            f"trajectories, it holds {n} records")
    try:
        length = records[0]["length"]
        if type(length) is not int or length < 1:
            raise CorruptRecord(f"record 0 length {length!r} is not an integer >= 1")
        dt = float(check_field("dt", records[0]["dt"], Real, finite_positive,
                                "positive and finite"))
        for k, rec in enumerate(records):
            offset, size = rec["offset"], rec["length"]
            if (type(offset) is not int or type(size) is not int
                    or (offset, size, rec["dt"]) != (k * length, length, dt)):
                raise CorruptRecord(
                    f"record {k} (offset {offset!r}, length {size!r}, dt {rec['dt']!r}) is "
                    f"not block {k} of record 0's length {length} and dt {dt!r}")
        if n * length != total:
            raise CorruptRecord(f"records cover {n * length} of the {total} stored states")

        def column(name, ok=math.isfinite, what="finite"):
            return [float(check_field(name, rec[name], Real, ok, what)) for rec in records]

        found = list(zip(column("alpha"), column("beta"),
                         column("energy", finite_positive, "finite and > 0")))
        config = manifest.get("config")
        config = GenerationConfig.from_dict(config) if config else None
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CorruptRecord(f"manifest is structurally invalid: {err}")
    alpha, beta, energies = (np.array(c) for c in zip(*found))
    dataset = Dataset(rows.reshape(n, length, 4), PotentialParams(alpha, beta), energies, dt,
                      config)
    uneven = [k for k, (a, b, _) in enumerate(found) if a != b]
    if uneven and dataset.param_channels == 1:
        raise CorruptRecord(f"record {uneven[0]} has alpha != beta in a dataset with "
                            "one parameter channel")
    if config:
        if (length, dt) != (config.stored_length, config.coarse_dt):
            raise CorruptRecord(f"records hold {length} states at step {dt!r}, the config "
                                f"{config.stored_length} at {config.coarse_dt!r}")
        cells, repeat = config.cells(), config.n_per_cell
        if len(cells) * repeat != n:
            raise CorruptRecord(f"the config's grid holds {len(cells) * repeat} trajectories, "
                                f"the manifest {n} records")
        for k, rec in enumerate(found):
            pot, e = cells[k // repeat]
            if rec != (pot.alpha, pot.beta, e):
                raise CorruptRecord(f"record {k} (alpha, beta, energy) {rec} is not its "
                                    f"config cell {(pot.alpha, pot.beta, e)}")
    return dataset
