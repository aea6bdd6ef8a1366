"""End-to-end tests of the command-line interface, run in-process."""

import contextlib
import dataclasses
import io
import json
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from symplectic_ml import (
    EncoderModel,
    GenerationConfig,
    HH_FIELD,
    PhaseState,
    PotentialParams,
    SeparableModel,
    TrainConfig,
    Trajectory,
    analysis,
    cli,
    datapipe,
    models,
    training,
    integrate,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
)

from helpers import JSON_VALUES, linear_separable


def _read_csv(path):
    """(meta dict, header list, data rows as float lists)."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(x) for x in line.split(",")])
    return meta, header, rows


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data_dir(ws):
    out = ws / "dataset"
    rc = cli.main(
        [
            "generate", "--out", str(out), "--seed", "7",
            "--alphas", "0.4,0.8", "--energies", "1/12",
            "--n-per-cell", "2", "--series-length", "45", "--transient", "5",
        ]
    )
    assert rc == 0
    return out


def _train(data_dir, out, model, overrides):
    argv = ["train", "--out", str(out), "--model", model,
            "--dataset", str(data_dir)]
    for item in overrides:
        argv += ["--set", item]
    rc = cli.main(argv)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def hnn_ckpt(ws, data_dir):
    return _train(data_dir, ws / "hnn.json", "hnn",
                  ["epochs=2", "batch_size=64", "hidden=[8]"])


@pytest.fixture(scope="module")
def baseline_ckpt(ws, data_dir):
    return _train(data_dir, ws / "baseline.json", "baseline",
                  ["epochs=1", "batch_size=64", "hidden=[8]"])


@pytest.fixture(scope="module")
def asrnn_ckpt(ws, data_dir):
    return _train(
        data_dir, ws / "asrnn.json", "asrnn",
        ["epochs=2", "batch_size=64", "hidden=[8]", "window_len=5",
         "fixed_kinetic=true"],
    )


@pytest.fixture(scope="module")
def encoder_ckpt(ws, data_dir):
    return _train(
        data_dir, ws / "encoder.json", "encoder",
        ["epochs=2", "batch_size=32", "encoder_hidden=5", "encoder_window=20"],
    )


@pytest.fixture(scope="module")
def observed_csv(ws):
    """Partial observations (q_x, p_x) of a genuine trajectory."""
    pot = PotentialParams.single(0.4)
    state = PhaseState(q=np.array([0.1, -0.05]), p=np.array([0.3, 0.1]))
    traj = integrate(state, 0.1, 44, HH_FIELD, pot)
    path = ws / "observed.csv"
    lines = ["q_x,p_x"] + [
        f"{float(traj.data[i, 0])!r},{float(traj.data[i, 2])!r}"
        for i in range(len(traj))
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_loadable_dataset(data_dir, capsys):
    dataset = load_dataset(data_dir)
    assert len(dataset) == 4
    assert dataset.trajectories[0].dt == pytest.approx(0.1)
    assert all(len(t) == 40 for t in dataset.trajectories)
    alphas = sorted({t.params.alpha for t in dataset.trajectories})
    assert alphas == [0.4, 0.8]


def test_generate_is_reproducible(ws, data_dir):
    again = ws / "dataset-again"
    rc = cli.main(
        [
            "generate", "--out", str(again), "--seed", "7",
            "--alphas", "0.4,0.8", "--energies", "1/12",
            "--n-per-cell", "2", "--series-length", "45", "--transient", "5",
        ]
    )
    assert rc == 0
    for name in ("manifest.json", "states.bin"):
        assert (again / name).read_bytes() == (data_dir / name).read_bytes()


def test_generate_seed_from_environment(ws, data_dir, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    out = ws / "dataset-env"
    rc = cli.main(
        [
            "generate", "--out", str(out),
            "--alphas", "0.4,0.8", "--energies", "1/12",
            "--n-per-cell", "2", "--series-length", "45", "--transient", "5",
        ]
    )
    assert rc == 0
    assert (out / "states.bin").read_bytes() == (data_dir / "states.bin").read_bytes()


def test_generate_honours_set_overrides(ws):
    out = ws / "dataset-coarse"
    rc = cli.main(
        [
            "generate", "--out", str(out), "--seed", "3",
            "--alphas", "0.5", "--energies", "0.1",
            "--n-per-cell", "1", "--series-length", "12", "--transient", "2",
            "--set", "coarse_factor=50",
        ]
    )
    assert rc == 0
    assert load_dataset(out).trajectories[0].dt == pytest.approx(0.05)


def test_generate_from_config_file(ws, tmp_path):
    cfg = {
        "param_values": [[0.5, 0.5]],
        "energies": [0.1],
        "n_per_cell": 1,
        "series_length": 12,
        "transient": 2,
    }
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "ds"
    rc = cli.main(["generate", "--out", str(out), "--seed", "3",
                   "--config", str(cfg_path)])
    assert rc == 0
    dataset = load_dataset(out)
    assert len(dataset) == 1
    assert dataset.config.seed == 3


def test_generate_rejects_unknown_config_key(ws, capsys):
    rc = cli.main(
        ["generate", "--out", str(ws / "nope"), "--alphas", "0.5",
         "--energies", "0.1", "--set", "bogus_knob=3"]
    )
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_generate_rejects_zero_denominator_energy(ws, capsys):
    rc = cli.main(
        ["generate", "--out", str(ws / "nope2"), "--alphas", "0.5",
         "--energies", "1/0"]
    )
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ("param_values=[1,2]", "param_values must be a non-empty list of (alpha, beta) pairs"),
    ("energies=0.1", "energies must be a non-empty list"),
], ids=["param_values", "energies"])
def test_generate_config_errors_are_the_configs_own(ws, capsys, override, message):
    rc = cli.main(["generate", "--out", str(ws / "nope3"), "--set", override])
    assert rc == 1
    assert capsys.readouterr().err == f"usage error: bad generation config: {message}\n"


@pytest.mark.parametrize("command", ["generate", "train"])
def test_invalid_json_config_is_a_usage_error(ws, data_dir, tmp_path, capsys, command):
    config = tmp_path / "config.json"
    extra = ["--model", "asrnn", "--dataset", str(data_dir)] if command == "train" else []
    for text, reason in [("{oops", "not valid JSON"), ("[]", "must hold a JSON object"),
                         ("3", "must hold a JSON object"), ("null", "must hold a JSON object"),
                         ('"x"', "must hold a JSON object")]:
        config.write_text(text)
        rc = cli.main([command, "--out", str(tmp_path / "x"), "--config", str(config),
                       *extra])
        assert rc == 1, text
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and reason in err, text


def test_bad_environment_seed_is_a_usage_error(ws, monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
    rc = cli.main(["generate", "--out", str(ws / "nope3"),
                   "--alphas", "0.5", "--energies", "0.1"])
    assert rc == 1
    assert cli.SEED_ENV_VAR in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_hnn_checkpoint_roundtrips(hnn_ckpt):
    model, doc = load_checkpoint(hnn_ckpt)
    assert doc["model_kind"] == "ahnn"
    assert doc["training_config"]["epochs"] == 2


def test_train_asrnn_checkpoint_roundtrips(asrnn_ckpt):
    model, doc = load_checkpoint(asrnn_ckpt)
    assert isinstance(model, SeparableModel)
    assert model.fixed_kinetic
    assert doc["model_kind"] == "asrnn"


def test_train_encoder_checkpoint_roundtrips(encoder_ckpt):
    model, doc = load_checkpoint(encoder_ckpt)
    assert isinstance(model, EncoderModel)
    assert doc["model_kind"] == "lstm-encoder"


def test_train_checkpoint_is_byte_reproducible(ws, data_dir):
    overrides = ["epochs=2", "batch_size=64", "hidden=[8]", "window_len=5"]
    a = _train(data_dir, ws / "asrnn-a.json", "asrnn", overrides)
    b = _train(data_dir, ws / "asrnn-b.json", "asrnn", overrides)
    assert a.read_bytes() == b.read_bytes()


def test_train_writes_history_csv(ws, data_dir):
    history = ws / "history.csv"
    rc = cli.main(
        ["train", "--out", str(ws / "hnn2.json"), "--model", "hnn",
         "--dataset", str(data_dir), "--history", str(history),
         "--set", "epochs=3", "--set", "batch_size=64", "--set", "hidden=[8]"]
    )
    assert rc == 0
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 4
    assert [float(x) for x in lines[1].split(",")][0] == 0.0


def test_train_missing_dataset_is_a_runtime_error(ws, capsys):
    rc = cli.main(["train", "--out", str(ws / "x.json"), "--model", "hnn",
                   "--dataset", str(ws / "no-such-dataset")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _train_with_record_dt(ws, data_dir, dt):
    bad = ws / f"dataset-dt-{dt}"
    shutil.copytree(data_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest["records"][1]["dt"] = dt
    (bad / "manifest.json").write_text(json.dumps(manifest))
    return cli.main(["train", "--out", str(ws / "x.json"), "--model", "hnn",
                     "--dataset", str(bad)])


def test_train_on_a_corrupt_record_is_a_runtime_error(ws, data_dir, capsys):
    assert _train_with_record_dt(ws, data_dir, 0) == 2
    assert "error: CorruptRecord: manifest is structurally invalid: dt must be positive" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_train_on_a_record_with_nonfinite_dt_is_a_runtime_error(ws, data_dir, capsys, dt):
    assert _train_with_record_dt(ws, data_dir, dt) == 2
    assert "error: CorruptRecord: manifest is structurally invalid: dt must be positive" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("model", ["asrnn", "baseline", "hnn", "encoder"])
def test_train_param_channels_must_match_the_dataset(ws, data_dir, monkeypatch, capsys,
                                                     model):
    def never(*args, **kwargs):
        raise AssertionError("parameters initialised before the channel check")

    monkeypatch.setattr(training.nets, "init_params", never)
    monkeypatch.setattr(training.lstm, "init_encoder_params", never)
    out = ws / f"channels-{model}.json"
    rc = cli.main(["train", "--out", str(out), "--model", model, "--dataset",
                   str(data_dir), "--set", "param_channels=2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ShapeMismatch: param_channels is 2, but the dataset "
                          "holds 1 parameter channel(s)")
    assert "Traceback" not in err
    assert not out.exists()


def test_train_rejects_bad_config_value(ws, data_dir, capsys):
    rc = cli.main(["train", "--out", str(ws / "x.json"), "--model", "hnn",
                   "--dataset", str(data_dir), "--set", "epochs=0"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_train_rejects_unknown_config_key(ws, data_dir, capsys):
    rc = cli.main(["train", "--out", str(ws / "x.json"), "--model", "hnn",
                   "--dataset", str(data_dir), "--set", "bogus=1"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("command, override", [
    ("generate", f"energies=[{_HUGE}]"), ("generate", f"fine_dt={_HUGE}"),
    ("train", f"lr={_HUGE}"), ("train", f"hidden=[{_HUGE}]"),
], ids=["energies", "fine_dt", "lr", "hidden"])
def test_an_integer_beyond_float_range_is_a_usage_error(ws, data_dir, capsys, command,
                                                        override):
    # math.isfinite raised OverflowError, which escaped as a traceback
    extra = ["--model", "asrnn", "--dataset", str(data_dir)] if command == "train" else []
    rc = cli.main([command, "--out", str(ws / "huge"), *extra, "--set", override])
    assert rc == 1
    what = "training" if command == "train" else "generation"
    assert capsys.readouterr().err == (
        f"usage error: bad {what} config: int too large to convert to float\n")


@pytest.mark.parametrize("override", [
    "epochs=1.5", "batch_size=1e9", "lr=nan", "lr_decay=inf", "window_len=1",
    "val_fraction=2", "hidden=[0]", "hidden=5", "lr=-1", "grad_clip=-1",
])
def test_train_rejects_each_bad_field(ws, data_dir, capsys, override):
    rc = cli.main(["train", "--out", str(ws / "x.json"), "--model", "asrnn",
                   "--dataset", str(data_dir), "--set", override])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad training config: ")
    assert override.partition("=")[0] in err


_TRAIN_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]
_GENERATION_FIELDS = [f.name for f in dataclasses.fields(GenerationConfig)]
_OVERRIDE_VALUES = st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=6))


def _run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=st.sampled_from(["baseline", "hnn", "asrnn", "encoder"]),
       field=st.sampled_from(_TRAIN_FIELDS), value=_OVERRIDE_VALUES)
def test_any_train_config_value_exits_cleanly(ws, data_dir, model, field, value):
    # a valid config trains for real, cut to one epoch of small networks,
    # since a valid one may ask for any amount of work
    real_train = training.train

    def small_train(config, dataset):
        return real_train(dataclasses.replace(
            config, epochs=1, hidden=tuple(min(h, 4) for h in config.hidden),
            encoder_hidden=min(config.encoder_hidden, 4)), dataset)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.training, "train", small_train)
        rc, err = _run_quietly(["train", "--out", str(ws / "prop.json"), "--model", model,
                                "--dataset", str(data_dir), "--set", f"{field}={value}"])
    assert rc in (0, 1, 2)
    assert (rc == 1) == err.startswith("usage error: bad training config: ")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(_GENERATION_FIELDS), value=_OVERRIDE_VALUES)
def test_any_generation_config_value_is_accepted_or_a_usage_error(ws, data_dir, field, value):
    dataset = load_dataset(data_dir)

    def fake_generate(config):
        assert isinstance(config, GenerationConfig)
        return dataset

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.datapipe, "generate_dataset", fake_generate)
        rc, err = _run_quietly(["generate", "--out", str(ws / "prop-data"), "--alphas", "0.5",
                                "--energies", "1/12", "--set", f"{field}={value}"])
    assert rc in (0, 1)
    assert (rc == 1) == err.startswith("usage error: bad generation config: ")


# ---------------------------------------------------------------------------
# predict


def test_predict_analytic_rollout(ws, capsys):
    out = ws / "pred.csv"
    rc = cli.main(
        ["predict", "--out", str(out), "--seed", "5", "--alpha", "1.0",
         "--energy", "1/12", "--dt", "0.1", "--steps", "20"]
    )
    assert rc == 0
    assert "wrote 21 states" in capsys.readouterr().out
    meta, header, rows = _read_csv(out)
    assert meta["tool"] == "symplectic-ml"
    assert meta["seed"] == "5"
    assert len(meta["config_hash"]) == 12
    assert header == ["t", "q_x", "q_y", "p_x", "p_y"]
    assert len(rows) == 21
    assert rows[0][0] == 0.0
    assert rows[-1][0] == pytest.approx(2.0)


def test_predict_is_deterministic(ws):
    args = ["predict", "--seed", "5", "--alpha", "1.0", "--energy", "1/12",
            "--dt", "0.1", "--steps", "20"]
    a, b = ws / "pred-a.csv", ws / "pred-b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_predict_accepts_explicit_initial_condition(ws):
    out = ws / "pred-ic.csv"
    rc = cli.main(
        ["predict", "--out", str(out), "--alpha", "0.0",
         "--ic", "0.3,0.0,0.0,0.0", "--dt", "0.1", "--steps", "5"]
    )
    assert rc == 0
    meta, _, rows = _read_csv(out)
    assert meta["seed"] == "0"
    assert rows[0][1:] == [0.3, 0.0, 0.0, 0.0]


def test_predict_rejects_short_initial_condition(ws, capsys):
    rc = cli.main(["predict", "--out", str(ws / "x.csv"), "--alpha", "1.0",
                   "--ic", "1,2,3"])
    assert rc == 1
    assert "q_x,q_y,p_x,p_y" in capsys.readouterr().err


def test_predict_needs_energy_or_ic(ws, capsys):
    rc = cli.main(["predict", "--out", str(ws / "x.csv"), "--alpha", "1.0"])
    assert rc == 1
    assert "--energy or --ic" in capsys.readouterr().err


def test_predict_with_trained_model(ws, asrnn_ckpt):
    out = ws / "pred-model.csv"
    rc = cli.main(
        ["predict", "--out", str(out), "--checkpoint", str(asrnn_ckpt),
         "--alpha", "0.4", "--ic", "0.1,0.0,0.2,0.0", "--dt", "0.1",
         "--steps", "10"]
    )
    assert rc == 0
    _, _, rows = _read_csv(out)
    assert len(rows) == 11
    assert np.all(np.isfinite(np.asarray(rows)))


@pytest.mark.parametrize("k_w, v_w, step, why", [
    ((0.5, 0.0), (0.0, 0.0), 198, "position left the bounded regime (|q| > 10.0)"),
    ((0.0, 0.0), (1e307, 0.0), 180, "momentum became non-finite"),
], ids=["position", "momentum"])
def test_predict_of_a_diverging_learned_model_exits_2(tmp_path, capsys, k_w, v_w, step, why):
    ckpt, out = tmp_path / "linear.json", tmp_path / "x.csv"
    save_checkpoint(linear_separable(k_w, v_w), ckpt)
    rc = cli.main(["predict", "--out", str(out), "--checkpoint", str(ckpt), "--alpha", "1",
                   "--ic", "0.1,-0.2,0.15,0.3", "--dt", "0.1", "--steps", "1000"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: IntegrationDiverged: diverged at step {step}: {why}\n")
    assert not out.exists()


def test_predict_rejects_non_rollout_checkpoint(ws, encoder_ckpt, capsys):
    rc = cli.main(
        ["predict", "--out", str(ws / "x.csv"), "--checkpoint",
         str(encoder_ckpt), "--alpha", "0.4", "--ic", "0.1,0.0,0.2,0.0"]
    )
    assert rc == 2
    assert "rollout model" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval-energy


def test_eval_energy_reports_percentage_series(ws, asrnn_ckpt, capsys):
    out = ws / "energy.csv"
    rc = cli.main(
        ["eval-energy", "--out", str(out), "--checkpoint", str(asrnn_ckpt),
         "--alpha", "0.4", "--energy", "1/12", "--dt", "0.1", "--steps", "10",
         "--seed", "2"]
    )
    assert rc == 0
    assert "mean energy error" in capsys.readouterr().out
    meta, header, rows = _read_csv(out)
    assert header == ["t", "energy_error_pct"]
    assert len(rows) == 11
    err = np.asarray(rows)[:, 1]
    assert np.all(np.isfinite(err)) and np.all(err >= 0.0)


def test_eval_energy_missing_checkpoint_is_runtime_error(ws, capsys):
    rc = cli.main(
        ["eval-energy", "--out", str(ws / "x.csv"), "--checkpoint",
         str(ws / "no-such.json"), "--alpha", "0.4", "--energy", "1/12"]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["predict", "--alpha", "0.5", "--steps", "3"],
    ["poincare", "--alpha", "0.5", "--steps", "3"],
    ["eval-energy", "--alpha", "0.5", "--steps", "3"],
    ["lyapunov", "--steps", "300"],
    ["generate", "--energies"],
], ids=lambda argv: argv[0])
def test_an_energy_whose_momentum_overflows_exits_2(ws, asrnn_ckpt, capsys, argv):
    # 2 (E - V) overflowed to inf, and PhaseState's ValueError escaped as a traceback
    if argv[0] == "eval-energy":
        argv = [*argv, "--checkpoint", str(asrnn_ckpt)]
    energy = [] if argv[0] == "generate" else ["--energy"]
    rc = cli.main([*argv, *energy, "1e308", "--out", str(ws / "overflow")])
    assert rc == 2
    assert capsys.readouterr().err == ("error: RejectionExhausted: energy 1e+308 is too large "
                                       "to sample: its squared speed overflows float64\n")
    assert not (ws / "overflow").exists()


@pytest.mark.parametrize("argv", [
    # an array of 2.8 EiB and one of 1.4 EiB: beyond any address space, so
    # the allocation fails at once and nothing is written
    ["predict", "--alpha", "0.5", "--energy", "1/12", "--steps", "10" + "0" * 16],
    ["generate", "--series-length", "10" + "0" * 14],
], ids=lambda argv: argv[0])
def test_an_oversized_request_exits_2(ws, asrnn_ckpt, capsys, argv):
    if argv[0] == "predict":
        argv = [*argv, "--checkpoint", str(asrnn_ckpt)]
    rc = cli.main([*argv, "--out", str(ws / "oversized")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: MemoryError: Unable to allocate")
    assert not (ws / "oversized").exists()


# ---------------------------------------------------------------------------
# lyapunov


def test_lyapunov_over_alpha_list(ws, capsys):
    out = ws / "lyap.csv"
    rc = cli.main(
        ["lyapunov", "--out", str(out), "--seed", "4", "--alphas", "0.3,0.7",
         "--energy", "1/8", "--dt", "0.05", "--steps", "100",
         "--renorm", "0.5"]
    )
    assert rc == 0
    assert "wrote 2 exponents" in capsys.readouterr().out
    meta, header, rows = _read_csv(out)
    assert header == ["alpha", "beta", "lambda_max"]
    assert [r[0] for r in rows] == [0.3, 0.7]
    assert [r[1] for r in rows] == [0.3, 0.7]
    assert np.all(np.isfinite(np.asarray(rows)))


def test_lyapunov_grid_expansion(ws):
    out = ws / "lyap-grid.csv"
    rc = cli.main(
        ["lyapunov", "--out", str(out), "--grid", "0.2:0.6:0.2",
         "--energy", "1/8", "--dt", "0.05", "--steps", "50", "--renorm", "0.5"]
    )
    assert rc == 0
    _, _, rows = _read_csv(out)
    assert [r[0] for r in rows] == pytest.approx([0.2, 0.4, 0.6])


def test_lyapunov_worker_count_does_not_change_results(ws):
    base = ["lyapunov", "--seed", "4", "--alphas", "0.3,0.7",
            "--energy", "1/8", "--dt", "0.05", "--steps", "100",
            "--renorm", "0.5"]
    a, b = ws / "lyap-j1.csv", ws / "lyap-j2.csv"
    assert cli.main(base + ["--out", str(a), "--jobs", "1"]) == 0
    assert cli.main(base + ["--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("learned", [False, True], ids=["analytic", "learned"])
def test_lyapunov_grid_of_several_chunks_is_the_same_for_any_worker_count(
        ws, asrnn_ckpt, learned):
    base = ["lyapunov", "--seed", "6", "--grid", "0.1:0.9:0.02", "--energy", "1/12",
            "--dt", "0.05", "--steps", "40", "--renorm", "0.5"]
    if learned:
        base += ["--checkpoint", str(asrnn_ckpt)]
    a, b = ws / "lyap-chunks-j1.csv", ws / "lyap-chunks-j3.csv"
    assert cli.main(base + ["--out", str(a), "--jobs", "1"]) == 0
    assert cli.main(base + ["--out", str(b), "--jobs", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, _, rows = _read_csv(a)
    assert len(rows) == 41 > cli.LYAPUNOV_CHUNK
    if not learned:
        # the analytic kernel is elementwise per row: batching changes no bit
        for i in (0, cli.LYAPUNOV_CHUNK, 40):
            pot = PotentialParams.single(rows[i][0])
            state0 = cli.datapipe.sample_initial_condition(
                1 / 12, pot, np.random.default_rng([6, i]))
            solo = analysis.lyapunov_spectrum(HH_FIELD, state0, pot, 0.05, 40, 0.5)
            assert rows[i][2] == solo.maximal


def test_lyapunov_escaping_orbit_reports_only_the_structured_error(ws, capsys):
    out = ws / "lyap-escape.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["lyapunov", "--alphas", "1", "--energy", "1/5", "--dt", "0.1",
                       "--steps", "2000", "--out", str(out)])
    assert rc == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        "error: DegenerateR: flow produced non-finite probe rows\n")
    assert not out.exists()


def test_lyapunov_loads_the_checkpoint_once(ws, asrnn_ckpt, monkeypatch):
    loads = []
    real = cli.checkpoint.load_checkpoint

    def counting(path):
        loads.append(path)
        return real(path)

    monkeypatch.setattr(cli.checkpoint, "load_checkpoint", counting)
    base = ["lyapunov", "--seed", "4", "--alphas", "0.3,0.7", "--energy", "1/12",
            "--dt", "0.05", "--steps", "40", "--renorm", "0.5",
            "--checkpoint", str(asrnn_ckpt)]
    a, b = ws / "lyap-ckpt-j1.csv", ws / "lyap-ckpt-j2.csv"
    assert cli.main(base + ["--out", str(a), "--jobs", "1"]) == 0
    assert len(loads) == 1
    assert cli.main(base + ["--out", str(b), "--jobs", "2"]) == 0
    assert len(loads) == 2
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind, fixture", [
    ("baseline", "baseline_ckpt"), ("ahnn", "hnn_ckpt"), ("lstm-encoder", "encoder_ckpt"),
])
def test_lyapunov_rejects_a_model_without_a_force_field(ws, request, monkeypatch, capsys,
                                                       kind, fixture):
    started = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda **kw: started.append(kw))
    monkeypatch.setattr(cli, "_lyapunov_task", lambda task: started.append(task))
    out = ws / "lyap-reject.csv"
    rc = cli.main(["lyapunov", "--out", str(out), "--alphas", "0.3,0.7",
                   "--energy", "1/12", "--dt", "0.05", "--steps", "40", "--renorm", "0.5",
                   "--jobs", "2", "--checkpoint", str(request.getfixturevalue(fixture))])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SymplecticMlError:") and f"holds a {kind};" in err
    assert started == [] and not out.exists()


def test_lyapunov_uncoupled_system_is_regular(ws):
    out = ws / "lyap-free.csv"
    rc = cli.main(
        ["lyapunov", "--out", str(out), "--alphas", "0.0", "--energy", "1/12",
         "--dt", "0.01", "--steps", "5000"]
    )
    assert rc == 0
    _, _, rows = _read_csv(out)
    assert abs(rows[0][2]) < 0.05


# ---------------------------------------------------------------------------
# poincare


def test_poincare_section_of_harmonic_orbit(ws, capsys):
    out = ws / "section.csv"
    rc = cli.main(
        ["poincare", "--out", str(out), "--alpha", "0.0",
         "--ic", "1.0,0.5,0.0,0.0", "--dt", "0.05", "--steps", "400"]
    )
    assert rc == 0
    assert "section points" in capsys.readouterr().out
    _, header, rows = _read_csv(out)
    assert header == ["t", "q_y", "p_y", "p_x"]
    arr = np.asarray(rows)
    assert arr.shape[0] == 3
    assert np.all(arr[:, 3] > 0.0)
    np.testing.assert_allclose(arr[:, 3], 1.0, atol=5e-3)
    np.testing.assert_allclose(
        arr[:, 0], 1.5 * np.pi + 2 * np.pi * np.arange(3), atol=0.02)


# ---------------------------------------------------------------------------
# infer-params / predict-partial


def test_infer_params_from_observations(ws, encoder_ckpt, observed_csv, capsys):
    out = ws / "params.csv"
    rc = cli.main(
        ["infer-params", "--out", str(out), "--encoder", str(encoder_ckpt),
         "--observed", str(observed_csv)]
    )
    assert rc == 0
    assert "channel 0:" in capsys.readouterr().out
    meta, header, rows = _read_csv(out)
    assert header == ["channel", "mean", "std", "n_windows"]
    assert len(rows) == 1
    channel, mean, std, n_windows = rows[0]
    assert channel == 0.0
    assert np.isfinite(mean)
    assert std >= 0.0
    assert n_windows == 26.0  # 45 samples, window 20, stride 1


def test_infer_params_stride_thins_windows(ws, encoder_ckpt, observed_csv):
    out = ws / "params-s5.csv"
    rc = cli.main(
        ["infer-params", "--out", str(out), "--encoder", str(encoder_ckpt),
         "--observed", str(observed_csv), "--stride", "5"]
    )
    assert rc == 0
    _, _, rows = _read_csv(out)
    assert rows[0][3] == 6.0  # floor((45 - 20) / 5) + 1


def test_infer_params_rejects_short_series(ws, encoder_ckpt, tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("\n".join("0.1,0.2" for _ in range(5)) + "\n")
    rc = cli.main(
        ["infer-params", "--out", str(ws / "x.csv"),
         "--encoder", str(encoder_ckpt), "--observed", str(short)]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_infer_params_rejects_rollout_checkpoint(ws, asrnn_ckpt, observed_csv,
                                                 capsys):
    rc = cli.main(
        ["infer-params", "--out", str(ws / "x.csv"),
         "--encoder", str(asrnn_ckpt), "--observed", str(observed_csv)]
    )
    assert rc == 2
    assert "lstm-encoder" in capsys.readouterr().err


def test_predict_partial_reconstructs_and_rolls_forward(
    ws, encoder_ckpt, asrnn_ckpt, observed_csv, capsys
):
    out = ws / "partial.csv"
    rc = cli.main(
        ["predict-partial", "--out", str(out), "--encoder", str(encoder_ckpt),
         "--checkpoint", str(asrnn_ckpt), "--observed", str(observed_csv),
         "--dt", "0.1", "--horizon", "30"]
    )
    assert rc == 0
    assert "reconstructed state" in capsys.readouterr().out
    meta, header, rows = _read_csv(out)
    assert header == ["t", "q_x", "q_y", "p_x", "p_y"]
    assert len(rows) == 31
    assert "config_hash" in meta
    arr = np.asarray(rows)
    assert np.all(np.isfinite(arr))
    # The reconstruction pins the observed coordinates of the final sample.
    observed = np.loadtxt(observed_csv, delimiter=",", skiprows=1)
    assert arr[0, 1] == pytest.approx(observed[-1, 0])
    assert arr[0, 3] == pytest.approx(observed[-1, 1])


def test_read_observed_allows_one_header_and_comments(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("# observed run\nq_x,p_x\n\n0.1,0.2\n# note\n0.3,-0.4,extra\n")
    assert np.array_equal(cli._read_observed(path), [[0.1, 0.2], [0.3, -0.4]])


@pytest.mark.parametrize("lines, bad_line", [
    (["q_x,p_x", "0.1,0.2", "foo,1", "0.3,0.4"], 3),
    (["q_x,p_x", "0.1,0.2", "nan,0.3"], 3),
    (["0.1,0.2", "inf,0.3"], 2),
    (["q_x,p_x", "0.1,0.2", "0.5"], 3),
    (["q_x,p_x", "units", "0.1,0.2"], 2),
])
def test_bad_observation_rows_name_their_line(ws, encoder_ckpt, tmp_path, capsys,
                                              lines, bad_line):
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["infer-params", "--out", str(ws / "x.csv"),
                   "--encoder", str(encoder_ckpt), "--observed", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}, line {bad_line}:" in err
    assert "Traceback" not in err


def test_predict_partial_requires_encoder_checkpoint(
    ws, asrnn_ckpt, observed_csv, capsys
):
    rc = cli.main(
        ["predict-partial", "--out", str(ws / "x.csv"),
         "--encoder", str(asrnn_ckpt), "--checkpoint", str(asrnn_ckpt),
         "--observed", str(observed_csv)]
    )
    assert rc == 2
    assert "lstm-encoder" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# top-level parsing


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_argument_is_usage_error(ws, capsys):
    assert cli.main(["predict", "--alpha", "1.0"]) == 1
    assert "usage error" in capsys.readouterr().err


BAD_NUMBERS = {
    "dt": ["predict", "--alpha", "1", "--energy", "1/12", "--dt", "-0.1"],
    "dt-not-finite": ["predict", "--alpha", "1", "--energy", "1/12", "--dt", "nan"],
    "steps": ["predict", "--alpha", "1", "--energy", "1/12", "--steps", "0"],
    "horizon": ["predict-partial", "--encoder", "e.json", "--checkpoint", "c.json",
                "--observed", "o.csv", "--horizon", "0"],
    "renorm": ["lyapunov", "--energy", "1/8", "--renorm", "-1"],
    "lyapunov-steps": ["lyapunov", "--energy", "1/8", "--steps", "50", "--dt", "0.01"],
    "renorm-overflow": ["lyapunov", "--energy", "1/8", "--dt", "1e-300", "--renorm", "1e300"],
    "jobs": ["lyapunov", "--energy", "1/8", "--jobs", "0"],
    "alpha": ["predict", "--alpha", "nan", "--energy", "1/12"],
    "energy": ["predict", "--alpha", "1", "--energy", "-1"],
    "alphas": ["lyapunov", "--energy", "1/8", "--alphas", "0.5,inf"],
    "alphas-empty": ["lyapunov", "--energy", "1/8", "--alphas", ","],
    "alphas-blank": ["lyapunov", "--energy", "1/8", "--alphas", ""],
    "generate-alphas-blank": ["generate", "--alphas", "", "--energies", "0.1"],
    "generate-energies-blank": ["generate", "--alphas", "0.5", "--energies", ""],
    "grid-short": ["lyapunov", "--energy", "1/8", "--grid", "0:1"],
    "grid-step": ["lyapunov", "--energy", "1/8", "--grid", "0:1:0"],
    "grid-empty": ["lyapunov", "--energy", "1/8", "--grid", "1:0:0.1"],
    "grid-huge": ["lyapunov", "--energy", "1/8", "--grid", "0:1e30:1e-30"],
    "energy-overflow": ["predict", "--alpha", "1", "--energy", "1" + "0" * 400 + "/1"],
    "stride": ["infer-params", "--encoder", "e.json", "--observed", "o.csv",
               "--stride", "0"],
}


@pytest.mark.parametrize("argv", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_bad_numbers_are_usage_errors(ws, capsys, argv):
    out = ws / "bad-number.csv"
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err
    assert not out.exists()


# each pair of options names the same input twice; one used to win silently
CONFLICTS = {
    "lyapunov-grid-alphas": ["lyapunov", "--energy", "1/8", "--steps", "100",
                             "--grid", "0:0.2:0.1", "--alphas", "0.7"],
    "predict-ic-energy": ["predict", "--alpha", "1", "--ic", "0.1,0,0,0.1",
                          "--energy", "1/12"],
    "poincare-energy-ic": ["poincare", "--alpha", "1", "--energy", "1/12",
                           "--ic", "0.1,0,0,0.1"],
    "eval-energy-ic-energy": ["eval-energy", "--checkpoint", "c.json", "--alpha", "1",
                              "--ic", "0.1,0,0,0.1", "--energy", "1/12"],
}


@pytest.mark.parametrize("argv", CONFLICTS.values(), ids=CONFLICTS.keys())
def test_conflicting_options_are_usage_errors(ws, capsys, argv):
    out = ws / "conflict.csv"
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --")
    assert "not allowed with argument --" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# arbitrary number text

# Text that parses as a number sometimes: short arbitrary strings, float
# reprs (nan and inf among them), and exact fractions up to 400 digits long.
_NUMBER_TEXT = st.one_of(
    st.text(max_size=8),
    st.floats().map(repr),
    st.builds("{}{}/{}".format, st.integers(-9, 9),
              st.integers(0, 400).map(lambda k: "0" * k), st.integers(-9, 9)),
)
_GRID_TEXT = st.one_of(
    st.text(max_size=12),
    st.tuples(_NUMBER_TEXT, _NUMBER_TEXT, _NUMBER_TEXT).map(":".join),
)


def _grid_points(text):
    """np.arange's point count for a well-formed --grid, else None."""
    try:
        lo, hi, step = (cli._parse_number(x) for x in text.split(":"))
    except (cli._UsageError, ValueError, OverflowError):
        return None
    if not (step > 0 and hi >= lo):
        return None
    return (hi + 0.5 * step - lo) / step


@settings(max_examples=200, deadline=None)
@example("1" + "0" * 400 + "/1")
@given(text=_NUMBER_TEXT)
def test_parse_number_gives_a_finite_value_or_a_usage_error(text):
    try:
        value = cli._parse_number(text)
    except cli._UsageError:
        return
    assert isinstance(value, float) and np.isfinite(value)


def _stub_work(mp):
    """Replace sampling, integration and the Lyapunov estimate by constants,
    so a valid command costs nothing whatever numbers it was given."""
    state = PhaseState(q=np.array([0.1, 0.0]), p=np.array([0.0, 0.1]))
    mp.setattr(cli.datapipe, "sample_initial_condition", lambda energy, pot, rng: state)
    mp.setattr(cli, "integrate", lambda state0, dt, n, field, pot, **kw: Trajectory(
        dt=dt, data=state0.vec()[None, :] * 0.0, params=pot))
    mp.setattr(cli.analysis, "lyapunov_spectra",
               lambda flow, states, *a: np.zeros((len(states), 4)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(grid="0:1e30:1e-30", energy="1/8", ic="0,0,0,0")
@example(grid="0:1:1", energy="1" + "0" * 400 + "/1", ic="1" + "0" * 400 + "/1,0,0,0")
@given(grid=_GRID_TEXT, energy=_NUMBER_TEXT,
       ic=st.lists(_NUMBER_TEXT, min_size=1, max_size=5).map(",".join))
def test_any_number_text_gives_a_run_or_a_usage_error(ws, grid, energy, ic):
    # no grid of 10^3 to 10^25 points: np.arange could allocate one, were the
    # point cap ever lost, while larger counts fail before allocating
    n = _grid_points(grid)
    assume(n is None or not 1e3 < n < 1e25)
    out = str(ws / "prop-numbers.csv")
    with pytest.MonkeyPatch.context() as mp:
        _stub_work(mp)
        for argv in (["lyapunov", "--grid", grid, "--energy=" + energy, "--jobs", "1"],
                     ["predict", "--alpha", "1", "--energy=" + energy, "--steps", "1"],
                     ["predict", "--alpha", "1", "--ic=" + ic, "--steps", "1"]):
            rc, err = _run_quietly([*argv, "--out", out])
            assert rc in (0, 1), (argv, err)
            assert (rc == 1) == err.startswith("usage error: "), (argv, err)


# ---------------------------------------------------------------------------
# names the benchmark's traced run wraps on the simulate path


def test_simulate_path_contract(ws, asrnn_ckpt, monkeypatch):
    # bench/spans.py wraps exactly these names; a rename zeroes its metrics
    calls = {}

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.setdefault(f"{owner.__name__}.{name}", []).append((args, out))
            return out

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in [(models, "integrate"), (cli, "integrate"),
                        (datapipe, "integrate_batch"), (analysis, "lyapunov_spectra"),
                        (analysis, "lyapunov_spectrum"), (analysis, "_seed_rows")]:
        spy(owner, name)
    rollout = ["--alpha", "0.4", "--energy", "1/12", "--dt", "0.05", "--steps", "30",
               "--out", str(ws / "contract.csv")]
    lyap = ["lyapunov", "--alphas", "0.4,0.6", "--energy", "1/12", "--dt", "0.05",
            "--steps", "20", "--renorm", "0.5", "--out", str(ws / "contract-lyap.csv")]
    assert cli.main(["generate", "--out", str(ws / "contract-data"), "--alphas", "0.5",
                     "--energies", "1/12", "--n-per-cell", "2", "--series-length", "20",
                     "--transient", "2"]) == 0
    assert cli.main(["predict", *rollout]) == 0
    assert cli.main(["predict", "--checkpoint", str(asrnn_ckpt), *rollout]) == 0
    assert cli.main(lyap) == 0
    assert cli.main([*lyap, "--checkpoint", str(asrnn_ckpt)]) == 0

    (args, _), = calls["symplectic_ml.models.integrate"]
    assert args[2] == 30 and isinstance(args[3], SeparableModel)
    (args, _), = calls["symplectic_ml.cli.integrate"]
    assert args[2] == 30 and args[3] is HH_FIELD
    args, _ = calls["symplectic_ml.datapipe.integrate_batch"][0]
    assert args[0].shape == (2, 4) and isinstance(args[4], int)
    # one batched call per chunk of grid points, each seed with its own couplings
    (analytic, _), (learned, _) = calls["symplectic_ml.analysis.lyapunov_spectra"]
    assert analytic[0] is HH_FIELD and analytic[4] == 20
    assert isinstance(learned[0], SeparableModel) and learned[4] == 20
    for args in (analytic, learned):
        assert args[1].shape == (2, 4)
        assert [(p.alpha, p.beta) for p in args[2]] == [(0.4, 0.4), (0.6, 0.6)]
    assert "symplectic_ml.analysis.lyapunov_spectrum" not in calls
    for args, out in calls["symplectic_ml.analysis._seed_rows"]:
        assert out.shape[0] == 9 * args[0].shape[0]


def test_version_flag_prints_version(capsys):
    import symplectic_ml

    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert symplectic_ml.__version__ in capsys.readouterr().out
