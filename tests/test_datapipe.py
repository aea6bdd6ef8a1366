"""Dataset generation, windowing, and the on-disk format."""

import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplectic_ml.datapipe import (
    CONSERVATION_TOL,
    Dataset,
    GenerationConfig,
    generate_dataset,
    load_dataset,
    sample_initial_condition,
    save_dataset,
    window_dataset,
)
from symplectic_ml.dynamics import (
    PotentialParams,
    hh_energy,
    hh_grad_v,
    hh_potential,
)
from symplectic_ml.errors import (
    CorruptRecord,
    EmptyDataset,
    FormatVersionMismatch,
    RejectionExhausted,
    TooShort,
)

from helpers import JSON_VALUES, constant_trajectory, fabricated_dataset, small_dataset


# ---------------------------------------------------------------------------
# configuration


def test_config_validation_matrix():
    ok = dict(param_values=((1.0, 1.0),), energies=(1 / 12,), n_per_cell=1)
    GenerationConfig(**ok)
    for bad in (
        dict(ok, param_values=()),
        dict(ok, energies=()),
        dict(ok, energies=(0.0,)),
        dict(ok, energies=(-1 / 12,)),
        dict(ok, n_per_cell=0),
        dict(ok, fine_dt=0.0),
        dict(ok, coarse_factor=0),
        dict(ok, series_length=1),
        dict(ok, transient=-1),
        dict(ok, transient=3000),
        dict(ok, param_channels=3),
        dict(ok, param_values=((1.0, 2.0),)),  # single family needs alpha == beta
        dict(ok, param_values=((np.inf, np.inf),)),
        dict(ok, param_values=((1.0,),)),
        dict(ok, energies=(np.nan,)),
        dict(ok, n_per_cell=1.5),
        dict(ok, n_per_cell=True),
        dict(ok, fine_dt=np.inf),
        dict(ok, coarse_factor="100"),
        dict(ok, series_length=40.0),
        dict(ok, seed=-1),
    ):
        with pytest.raises(ValueError):
            GenerationConfig(**bad)


def test_two_channel_config_allows_independent_couplings():
    config = GenerationConfig(
        param_values=((1.0, 2.0),), energies=(1 / 12,), n_per_cell=1,
        param_channels=2,
    )
    assert config.param_values == ((1.0, 2.0),)


def test_single_parameter_constructor_locks_beta():
    config = GenerationConfig.single_parameter(
        alphas=(0.2, 0.8), energies=(1 / 24, 1 / 12), n_per_cell=3
    )
    assert config.param_values == ((0.2, 0.2), (0.8, 0.8))
    assert config.param_channels == 1


def test_derived_quantities():
    config = GenerationConfig.single_parameter(
        alphas=(1.0,), energies=(1 / 12,), n_per_cell=1,
        fine_dt=0.001, coarse_factor=100, series_length=3000, transient=500,
    )
    assert config.coarse_dt == pytest.approx(0.1, rel=1e-12)
    assert config.stored_length == 2500


def test_cells_order_is_params_outer_energies_inner():
    config = GenerationConfig.single_parameter(
        alphas=(0.2, 0.8), energies=(1 / 24, 1 / 12), n_per_cell=1
    )
    cells = config.cells()
    assert [(pot.alpha, e) for pot, e in cells] == [
        (0.2, 1 / 24), (0.2, 1 / 12), (0.8, 1 / 24), (0.8, 1 / 12),
    ]


def test_config_dict_round_trip():
    config = GenerationConfig.single_parameter(
        alphas=(0.5,), energies=(1 / 12,), n_per_cell=2, seed=9,
        series_length=50, transient=5,
    )
    assert GenerationConfig.from_dict(config.to_dict()) == config


# ---------------------------------------------------------------------------
# initial conditions


@pytest.mark.parametrize("energy", [1 / 24, 1 / 12, 1 / 8, 1 / 6])
def test_sampled_states_sit_on_the_energy_surface(energy):
    pot = PotentialParams.single(1.0)
    for seed in range(8):
        state = sample_initial_condition(energy, pot, np.random.default_rng(seed))
        assert abs(hh_energy(state, pot) - energy) <= 1e-12
        assert np.max(np.abs(state.q)) < 1.0
        assert hh_potential(state.q, pot) <= energy


def test_zero_energy_gives_the_origin():
    state = sample_initial_condition(0.0, PotentialParams.single(1.0),
                                     np.random.default_rng(0))
    assert np.array_equal(state.q, np.zeros(2))
    assert np.array_equal(state.p, np.zeros(2))


def test_negative_energy_is_rejected():
    with pytest.raises(ValueError):
        sample_initial_condition(-0.1, PotentialParams.single(1.0),
                                 np.random.default_rng(0))


def test_an_energy_whose_momentum_overflows_is_refused():
    pot = PotentialParams.single(1.0)
    with pytest.raises(RejectionExhausted, match=r"energy 1e\+308 is too large"):
        sample_initial_condition(1e308, pot, np.random.default_rng(0))
    # the largest energy sampled: 2 (E - V) stays finite, and so does the state
    state = sample_initial_condition(sys.float_info.max / 2, pot, np.random.default_rng(0))
    assert np.all(np.isfinite(state.vec()))


def test_sampling_is_stream_deterministic():
    pot = PotentialParams.single(0.5)
    a = sample_initial_condition(1 / 12, pot, np.random.default_rng(42))
    b = sample_initial_condition(1 / 12, pot, np.random.default_rng(42))
    assert np.array_equal(a.vec(), b.vec())


# ---------------------------------------------------------------------------
# generation


def test_tiny_generation_shapes_and_spacing():
    config = GenerationConfig.single_parameter(
        alphas=(1.0,), energies=(1 / 12,), n_per_cell=1,
        fine_dt=0.01, coarse_factor=10, series_length=10, transient=2, seed=3,
    )
    dataset = generate_dataset(config)
    assert len(dataset) == 1
    traj = dataset.trajectories[0]
    assert traj.data.shape == (8, 4)  # series 10 minus transient 2
    assert traj.dt == pytest.approx(0.1, rel=1e-12)
    assert traj.params == PotentialParams(alpha=1.0, beta=1.0)
    assert dataset.cell_energies == [1 / 12]
    assert dataset.n_states == 8


def test_generation_covers_the_whole_grid():
    dataset = small_dataset(alphas=(0.2, 0.8), energies=(1 / 24, 1 / 12),
                            n_per_cell=2)
    assert len(dataset) == 8
    seen = [(t.params.alpha, e) for t, e in zip(dataset.trajectories, dataset.cell_energies)]
    assert seen.count((0.2, 1 / 24)) == 2
    assert seen.count((0.8, 1 / 12)) == 2


def test_generated_trajectories_conserve_energy():
    dataset = small_dataset(series_length=60, transient=6)
    for traj, cell_energy in zip(dataset.trajectories, dataset.cell_energies):
        energies = traj.energies()
        drift = np.max(np.abs(energies - energies[0]) / abs(energies[0]))
        assert drift <= CONSERVATION_TOL
        # the transient is dropped, so the first stored sample may sit
        # anywhere on the surface; its energy still matches its cell's
        assert abs(energies[0] - cell_energy) / cell_energy <= CONSERVATION_TOL


def test_generation_is_deterministic_per_seed():
    kw = dict(alphas=(0.5,), energies=(1 / 12,), n_per_cell=2,
              series_length=40, transient=4)
    a = small_dataset(seed=5, **kw)
    b = small_dataset(seed=5, **kw)
    c = small_dataset(seed=6, **kw)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta.data, tb.data)
    assert not np.array_equal(a.trajectories[0].data, c.trajectories[0].data)


def test_trajectory_streams_are_independent_of_cell_count():
    # the first trajectory of a one-cell dataset matches the first of a
    # two-cell dataset whose first cell coincides
    one = GenerationConfig.single_parameter(
        alphas=(0.5,), energies=(1 / 12,), n_per_cell=1,
        series_length=30, transient=3, seed=11,
    )
    two = GenerationConfig.single_parameter(
        alphas=(0.5,), energies=(1 / 12, 1 / 8), n_per_cell=1,
        series_length=30, transient=3, seed=11,
    )
    a = generate_dataset(one).trajectories[0]
    b = generate_dataset(two).trajectories[0]
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# windowing: derivative pairs


def test_derivative_pairs_are_states_with_analytic_derivatives():
    dataset = small_dataset(alphas=(0.5,), series_length=30, transient=3)
    pairs = window_dataset(dataset, "derivative-pairs")
    states = np.concatenate([t.data for t in dataset.trajectories])
    assert np.array_equal(pairs.states, states)
    assert np.array_equal(pairs.derivs[:, :2], states[:, 2:])
    pot = PotentialParams.single(0.5)
    for row, deriv in zip(states[:10], pairs.derivs[:10]):
        np.testing.assert_allclose(deriv[2:], -hh_grad_v(row[:2], pot),
                                   rtol=1e-15, atol=0)
    assert pairs.channels.shape == (pairs.n, 1)
    assert np.all(pairs.channels == 0.5)


def test_derivative_pairs_two_channel_dataset():
    config = GenerationConfig(
        param_values=((0.5, 1.5),), energies=(1 / 24,), n_per_cell=1,
        series_length=20, transient=2, seed=8, param_channels=2,
    )
    pairs = window_dataset(generate_dataset(config), "derivative-pairs")
    assert pairs.channels.shape == (pairs.n, 2)
    assert np.all(pairs.channels == [0.5, 1.5])


# ---------------------------------------------------------------------------
# windowing: rollout


def test_rollout_windows_are_non_overlapping_slices():
    dataset = fabricated_dataset([61])
    wins = window_dataset(dataset, "rollout", window_len=11)
    assert wins.windows.shape == (5, 11, 4)
    data = dataset.trajectories[0].data
    for j, s in enumerate(range(0, 51, 11)):
        assert np.array_equal(wins.windows[j], data[s : s + 11])
    assert wins.dt == 0.1
    assert np.all(wins.channels == 1.0)


def test_rollout_window_count_at_scale():
    wins = window_dataset(fabricated_dataset([2500]), "rollout")
    assert wins.windows.shape == (227, 11, 4)


def test_rollout_custom_stride():
    wins = window_dataset(fabricated_dataset([61]), "rollout",
                          window_len=11, stride=5)
    assert wins.n == 11  # starts 0, 5, ..., 50


def test_rollout_skips_short_trajectories():
    wins = window_dataset(fabricated_dataset([40, 8]), "rollout", window_len=10)
    assert wins.n == 4


def test_rollout_all_short_raises():
    with pytest.raises(TooShort):
        window_dataset(fabricated_dataset([8, 9]), "rollout", window_len=10)


def test_rollout_rejects_degenerate_length():
    with pytest.raises(ValueError):
        window_dataset(fabricated_dataset([20]), "rollout", window_len=1)


def test_windows_never_mix_trajectories():
    ones = constant_trajectory([1.0, 1.0, 1.0, 1.0], 25)
    twos = constant_trajectory([2.0, 2.0, 2.0, 2.0], 25)
    dataset = Dataset([ones, twos], [1.0, 1.0])
    wins = window_dataset(dataset, "rollout", window_len=10)
    assert wins.n == 4
    for w in wins.windows:
        assert len(np.unique(w)) == 1  # all rows from a single source


# ---------------------------------------------------------------------------
# windowing: encoder


def test_encoder_windows_observe_only_visible_columns():
    dataset = fabricated_dataset([61])
    wins = window_dataset(dataset, "encoder", window_len=30)
    data = dataset.trajectories[0].data
    assert wins.inputs.shape == (32, 30, 2)
    assert wins.targets.shape == (32, 3)
    assert np.array_equal(wins.inputs[0], data[:30][:, [0, 2]])
    assert np.array_equal(wins.inputs[-1], data[31:61][:, [0, 2]])
    # targets: hidden coordinates at each window's last step plus parameters
    assert np.array_equal(wins.targets[0], [data[29, 1], data[29, 3], 1.0])
    assert np.array_equal(wins.targets[-1], [data[60, 1], data[60, 3], 1.0])


def test_encoder_windows_with_stride():
    wins = window_dataset(fabricated_dataset([61]), "encoder",
                          window_len=30, stride=30)
    assert wins.n == 2


def test_encoder_window_count_one_past_window():
    wins = window_dataset(fabricated_dataset([31]), "encoder", window_len=30)
    assert wins.n == 2


def _encoder_windows_by_loop(dataset, couplings, length, step, k):
    """Encoder windows cut one start at a time, the reference layout."""
    inputs, targets = [], []
    for traj, pair in zip(dataset.trajectories, couplings):
        d = traj.data
        for s in range(0, len(traj) - length + 1, step):
            inputs.append(d[s : s + length][:, [0, 2]])
            last = d[s + length - 1]
            targets.append([last[1], last[3], *pair[:k]])
    return np.stack(inputs), np.array(targets)


# four trajectories' (alpha, beta), each pair its own and alpha != beta
COUPLINGS = [(0.3 + 0.1 * j, 0.9 - 0.2 * j) for j in range(4)]


def _config(couplings, k):
    return GenerationConfig(param_values=couplings, energies=(1 / 12,), n_per_cell=1,
                            param_channels=k)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("stride", [1, 3])
def test_encoder_windows_match_the_per_window_loop(k, stride):
    config = _config(COUPLINGS, 2) if k == 2 else None
    # 12 states is too short for a window: skipped
    dataset = fabricated_dataset([61, 12, 45, 30], couplings=COUPLINGS, config=config)
    wins = window_dataset(dataset, "encoder", window_len=30, stride=stride)
    inputs, targets = _encoder_windows_by_loop(dataset, COUPLINGS, 30, stride, k)
    assert np.array_equal(wins.inputs, inputs)
    assert np.array_equal(wins.targets, targets)
    # the same memory layout too, so that downstream arithmetic cannot differ
    assert wins.inputs.strides == inputs.strides
    assert wins.targets.strides == targets.strides


def test_encoder_too_short_raises():
    with pytest.raises(TooShort):
        window_dataset(fabricated_dataset([29]), "encoder", window_len=30)


# ---------------------------------------------------------------------------
# windowing: shared validation


def test_unknown_window_kind():
    with pytest.raises(ValueError):
        window_dataset(fabricated_dataset([20]), "fourier")


def test_empty_dataset_cannot_be_windowed():
    with pytest.raises(EmptyDataset):
        window_dataset(Dataset([], [], None), "rollout")


def test_mixed_sampling_steps_are_rejected():
    dataset = fabricated_dataset([20, 20], dts=[0.1, 0.2])
    with pytest.raises(CorruptRecord):
        window_dataset(dataset, "derivative-pairs")


def test_dataset_requires_matching_record_count():
    traj = constant_trajectory([0.0, 0.0, 0.0, 0.0], 5)
    with pytest.raises(CorruptRecord):
        Dataset([traj], [])


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    dataset = small_dataset(alphas=(0.5,), energies=(1 / 12, 1 / 8),
                            n_per_cell=2, series_length=30, transient=3)
    save_dataset(dataset, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert len(loaded) == len(dataset)
    for a, b in zip(dataset.trajectories, loaded.trajectories):
        assert np.array_equal(a.data, b.data)
        assert a.dt == b.dt
        assert a.params == b.params
    assert loaded.cell_energies == dataset.cell_energies
    assert loaded.config == dataset.config


@pytest.mark.parametrize("k", [1, 2])
def test_hand_built_round_trip_keeps_every_training_row(tmp_path, k):
    # each trajectory has couplings of its own; alpha != beta needs two channels
    couplings = COUPLINGS if k == 2 else [(a, a) for a, _ in COUPLINGS]
    dataset = fabricated_dataset([40, 25, 33, 30], couplings=couplings,
                                 config=_config(couplings, k))
    save_dataset(dataset, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert [t.params for t in loaded.trajectories] == [PotentialParams(*c) for c in couplings]
    rollout = window_dataset(loaded, "rollout", window_len=25)
    assert np.array_equal(rollout.channels, [c[:k] for c in couplings])
    for kind in ("rollout", "derivative-pairs", "encoder"):
        before, after = vars(window_dataset(dataset, kind)), vars(window_dataset(loaded, kind))
        assert before.keys() == after.keys()
        for name in before:
            assert np.array_equal(before[name], after[name]), (kind, name)


@pytest.mark.parametrize("edits, message", [
    ({"energy": 0.09}, "record 1 energy 0.09 is not in the config's energies"),
    ({"dt": 0.2}, r"record 1 dt 0.2 is not the config's coarse step 0.1"),
    ({"energy": 0.09, "dt": 0.2}, "record 1 energy 0.09"),
])
def test_record_off_its_config_is_corrupt(tmp_path, edits, message):
    # both edits loaded before the energy and the step were checked
    couplings = [(0.5, 0.5), (0.7, 0.7)]
    save_dataset(fabricated_dataset([10, 8], couplings=couplings,
                                    config=_config(couplings, 1)), tmp_path / "d")
    assert load_dataset(tmp_path / "d").trajectories[1].dt == 0.1
    _edit_manifest(tmp_path / "d", lambda m: m["records"][1].update(edits))
    with pytest.raises(CorruptRecord, match=message):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("channels", [None, 1, 2])
def test_beta_apart_from_alpha_is_corrupt_only_with_one_channel(tmp_path, channels):
    couplings = [(0.5, 0.5), (0.7, 0.7)]
    config = None if channels is None else _config(couplings, channels)
    save_dataset(fabricated_dataset([10, 8], couplings=couplings, config=config),
                 tmp_path / "d")
    _edit_manifest(tmp_path / "d", lambda m: m["records"][1].update(beta=0.9))
    if channels == 2:  # alpha != beta is allowed, but (0.7, 0.9) is off the grid
        with pytest.raises(CorruptRecord, match=r"record 1 couplings \(0.7, 0.9\) are not"):
            load_dataset(tmp_path / "d")
    else:  # a config-free dataset has one channel too
        with pytest.raises(CorruptRecord, match="record 1 has alpha != beta"):
            load_dataset(tmp_path / "d")


@pytest.mark.parametrize("row", [0, 5])
def test_non_finite_stored_state_is_corrupt(tmp_path, row):
    dataset = fabricated_dataset([10])
    dataset.trajectories[0].data[row, 2] = np.nan
    save_dataset(dataset, tmp_path / "d")
    with pytest.raises(CorruptRecord, match="non-finite"):
        load_dataset(tmp_path / "d")


def test_saved_bytes_are_deterministic(tmp_path):
    kw = dict(alphas=(0.5,), energies=(1 / 12,), n_per_cell=2,
              series_length=30, transient=3, seed=7)
    save_dataset(small_dataset(**kw), tmp_path / "a")
    save_dataset(small_dataset(**kw), tmp_path / "b")
    assert (tmp_path / "a/states.bin").read_bytes() == (tmp_path / "b/states.bin").read_bytes()
    assert (tmp_path / "a/manifest.json").read_text() == (tmp_path / "b/manifest.json").read_text()


def test_configless_dataset_round_trips(tmp_path):
    dataset = fabricated_dataset([12, 7])
    save_dataset(dataset, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert loaded.config is None
    assert len(loaded) == 2
    assert np.array_equal(loaded.trajectories[1].data, dataset.trajectories[1].data)


def test_loading_holds_the_stored_states_once(tmp_path):
    save_dataset(fabricated_dataset([8000, 4000]), tmp_path / "d")
    stored = (tmp_path / "d/states.bin").stat().st_size
    manifest = (tmp_path / "d/manifest.json").stat().st_size
    tracemalloc.start()
    try:
        dataset = load_dataset(tmp_path / "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three copies (the bytes, a float copy, a copy per trajectory) read 3.0
    assert peak < 1.5 * (stored + manifest)
    assert not any(t.data.flags.writeable for t in dataset.trajectories)


def test_truncated_states_file_is_detected(tmp_path):
    save_dataset(fabricated_dataset([10]), tmp_path / "d")
    blob = (tmp_path / "d/states.bin").read_bytes()
    (tmp_path / "d/states.bin").write_bytes(blob[:-8])
    with pytest.raises(CorruptRecord):
        load_dataset(tmp_path / "d")


def test_bit_flip_is_detected(tmp_path):
    save_dataset(fabricated_dataset([10]), tmp_path / "d")
    blob = bytearray((tmp_path / "d/states.bin").read_bytes())
    blob[13] ^= 0x40
    (tmp_path / "d/states.bin").write_bytes(bytes(blob))
    with pytest.raises(CorruptRecord):
        load_dataset(tmp_path / "d")


def test_unsupported_format_version(tmp_path):
    save_dataset(fabricated_dataset([10]), tmp_path / "d")
    manifest = json.loads((tmp_path / "d/manifest.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "d/manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatVersionMismatch):
        load_dataset(tmp_path / "d")


def test_wrong_total_count_is_detected(tmp_path):
    save_dataset(fabricated_dataset([10]), tmp_path / "d")
    manifest = json.loads((tmp_path / "d/manifest.json").read_text())
    manifest["totals"]["states"] = 11
    (tmp_path / "d/manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptRecord):
        load_dataset(tmp_path / "d")


def test_record_past_end_is_detected(tmp_path):
    save_dataset(fabricated_dataset([10]), tmp_path / "d")
    manifest = json.loads((tmp_path / "d/manifest.json").read_text())
    manifest["records"][0]["length"] = 12
    (tmp_path / "d/manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptRecord):
        load_dataset(tmp_path / "d")


def test_missing_manifest(tmp_path):
    with pytest.raises(CorruptRecord):
        load_dataset(tmp_path / "nowhere")


def test_missing_states_file(tmp_path):
    save_dataset(fabricated_dataset([10]), tmp_path / "d")
    (tmp_path / "d/states.bin").unlink()
    with pytest.raises(CorruptRecord):
        load_dataset(tmp_path / "d")


def test_invalid_manifest_json(tmp_path):
    save_dataset(fabricated_dataset([10]), tmp_path / "d")
    (tmp_path / "d/manifest.json").write_text("{not json")
    with pytest.raises(CorruptRecord):
        load_dataset(tmp_path / "d")


def test_structurally_invalid_manifest(tmp_path):
    save_dataset(fabricated_dataset([10]), tmp_path / "d")
    manifest = json.loads((tmp_path / "d/manifest.json").read_text())
    del manifest["records"]
    (tmp_path / "d/manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptRecord):
        load_dataset(tmp_path / "d")


def _edit_manifest(path, edit):
    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("field, value", [
    ("dt", 0), ("dt", float("nan")), ("dt", float("inf")), ("alpha", float("nan")),
    ("alpha", [1.0]), ("beta", True), ("energy", "x"), ("energy", 0), ("energy", None),
])
def test_record_rejected_by_its_trajectory_is_corrupt(tmp_path, field, value):
    save_dataset(fabricated_dataset([10, 8]), tmp_path / "d")
    _edit_manifest(tmp_path / "d", lambda m: m["records"][1].update({field: value}))
    with pytest.raises(CorruptRecord, match="structurally invalid"):
        load_dataset(tmp_path / "d")


def test_negative_record_offset_is_corrupt(tmp_path):
    # record 1 of a 2 x 38-row store moved to offset -40 used to load rows
    # 36..73 without complaint
    save_dataset(fabricated_dataset([38, 38]), tmp_path / "d")
    _edit_manifest(tmp_path / "d", lambda m: m["records"][1].update(offset=-40))
    with pytest.raises(CorruptRecord, match="record 1"):
        load_dataset(tmp_path / "d")


def test_overlapping_records_are_corrupt(tmp_path):
    save_dataset(fabricated_dataset([10, 8]), tmp_path / "d")

    def overlap(m):
        m["records"][1]["offset"] = 5
        m["records"][1]["length"] = 13

    _edit_manifest(tmp_path / "d", overlap)
    with pytest.raises(CorruptRecord, match="record 1"):
        load_dataset(tmp_path / "d")


def test_records_must_cover_every_stored_state(tmp_path):
    save_dataset(fabricated_dataset([10, 8]), tmp_path / "d")
    _edit_manifest(tmp_path / "d", lambda m: m["records"].pop())
    with pytest.raises(CorruptRecord, match="cover 10 of the 18"):
        load_dataset(tmp_path / "d")


def test_config_energies_that_are_not_a_list_are_corrupt(tmp_path):
    save_dataset(small_dataset(n_per_cell=1, series_length=9, transient=2), tmp_path / "d")
    _edit_manifest(tmp_path / "d", lambda m: m["config"].update(energies=0.1))
    with pytest.raises(CorruptRecord, match="energies must be a non-empty list"):
        load_dataset(tmp_path / "d")


def test_manifest_that_is_not_an_object_is_corrupt(tmp_path):
    save_dataset(fabricated_dataset([10]), tmp_path / "d")
    (tmp_path / "d/manifest.json").write_text("[]")
    with pytest.raises(CorruptRecord, match="not a JSON object"):
        load_dataset(tmp_path / "d")


# ---------------------------------------------------------------------------
# properties of the loader over a small saved dataset


def _saved_store():
    """states.bin bytes and manifest of a two-trajectory dataset with a config."""
    with tempfile.TemporaryDirectory() as d:
        save_dataset(small_dataset(n_per_cell=2, series_length=9, transient=2), d)
        return (Path(d) / "states.bin").read_bytes(), json.loads(
            (Path(d) / "manifest.json").read_text())


_BLOB, _MANIFEST = _saved_store()


def _load_edited(manifest=_MANIFEST, blob=_BLOB):
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "manifest.json").write_text(json.dumps(manifest))
        (Path(d) / "states.bin").write_bytes(blob)
        return load_dataset(d)


def _manifest_with(path, value):
    manifest = json.loads(json.dumps(_MANIFEST))
    node = manifest
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return manifest


def test_unedited_store_loads():
    assert len(_load_edited()) == 2


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(0, len(_BLOB) - 1))
def test_any_truncation_of_states_is_corrupt(cut):
    with pytest.raises(CorruptRecord):
        _load_edited(blob=_BLOB[:cut])


@settings(max_examples=40, deadline=None)
@given(at=st.integers(0, len(_BLOB) - 1), flip=st.integers(1, 255))
def test_any_changed_state_byte_is_corrupt(at, flip):
    blob = bytearray(_BLOB)
    blob[at] ^= flip
    with pytest.raises(CorruptRecord):
        _load_edited(blob=bytes(blob))


@settings(max_examples=60, deadline=None)
@given(record=st.sampled_from([0, 1]), field=st.sampled_from(["offset", "length"]),
       value=JSON_VALUES)
def test_any_changed_offset_or_length_is_corrupt(record, field, value):
    old = _MANIFEST["records"][record][field]
    if type(value) is int and value == old:
        value = old + 1
    with pytest.raises(CorruptRecord):
        _load_edited(_manifest_with(("records", record, field), value))


_MANIFEST_FIELDS = (
    [(key,) for key in _MANIFEST]
    + [("totals", key) for key in _MANIFEST["totals"]]
    + [("config", key) for key in _MANIFEST["config"]]
    + [("records", 1, key) for key in _MANIFEST["records"][1]]
)


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(_MANIFEST_FIELDS), value=JSON_VALUES)
def test_any_manifest_field_loads_or_is_rejected(path, value):
    try:
        assert isinstance(_load_edited(_manifest_with(path, value)), Dataset)
    except (CorruptRecord, FormatVersionMismatch):
        pass
