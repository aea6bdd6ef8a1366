"""The benchmark's own tests: each check flags a deliberately corrupted input,
and every workload runs end to end at tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from symplectic_ml import cli, models, nets  # noqa: E402

SEED = 4


def _cli(*argv):
    assert cli.main([*argv, "--seed", str(SEED)]) == 0


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    k_spec, v_spec = nets.DenseNetSpec((2, 8, 8, 1)), nets.DenseNetSpec((3, 8, 8, 1))
    theta = np.concatenate([nets.init_params(k_spec, 1), nets.init_params(v_spec, 2)])
    model = models.SeparableModel(kinetic_spec=k_spec, potential_spec=v_spec, params=theta,
                                  adaptable=True, param_channels=1)
    path = tmp_path_factory.mktemp("model") / "model.json"
    from symplectic_ml import checkpoint
    checkpoint.save_checkpoint(model, path)
    return path


def test_dataset_check_flags_an_edited_states_byte(tmp_path):
    out = tmp_path / "ds"
    _cli("generate", "--out", str(out), "--alphas", "0.5", "--energies", "1/12",
         "--n-per-cell", "2", "--series-length", "20", "--transient", "2")
    assert checks.check_dataset_dir(out)[0]
    blob = bytearray((out / "states.bin").read_bytes())
    blob[100] ^= 0x01
    (out / "states.bin").write_bytes(bytes(blob))
    ok, detail = checks.check_dataset_dir(out)
    assert not ok and not detail["sha256_ok"]


def test_dataset_check_flags_a_row_off_its_energy_shell(tmp_path):
    out = tmp_path / "ds"
    _cli("generate", "--out", str(out), "--alphas", "0.5", "--energies", "1/12",
         "--n-per-cell", "1", "--series-length", "20", "--transient", "2")
    rows = np.frombuffer((out / "states.bin").read_bytes(), dtype="<f8").copy()
    rows[7] *= 1.01
    blob = rows.astype("<f8").tobytes()
    (out / "states.bin").write_bytes(blob)
    manifest = json.loads((out / "manifest.json").read_text())
    import hashlib
    manifest["checksum_sha256"] = hashlib.sha256(blob).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    ok, detail = checks.check_dataset_dir(out)
    assert not ok and detail["sha256_ok"] and detail["max_drift"] > checks.CONSERVATION_TOL


def _predict(model_path, out, dt, steps):
    _cli("predict", "--checkpoint", str(model_path), "--alpha", "0.5", "--energy", "1/12",
         "--dt", str(dt), "--steps", str(steps), "--out", str(out))
    return checks.read_csv_rows(out)[1]


def test_rollout_check_flags_a_perturbed_row(tmp_path, model_path):
    own = checks.SeparableNets(model_path)
    rows = _predict(model_path, tmp_path / "p.csv", 0.02, 50)
    assert checks.check_rollout(own, rows, 0.5, 0.02, 1 / 12)[0]
    rows[30, 2] += 1e-6
    assert not checks.check_rollout(own, rows, 0.5, 0.02, 1 / 12)[0]


def test_second_order_check_flags_a_first_order_error(tmp_path, model_path):
    own = checks.SeparableNets(model_path)
    coarse = _predict(model_path, tmp_path / "a.csv", 0.02, 50)
    fine = _predict(model_path, tmp_path / "b.csv", 0.01, 100)
    assert checks.check_second_order(own, coarse, fine, 0.5)[0]
    bad = fine.copy()
    bad[:, 3:] *= 1.0 + 2e-3 * np.arange(bad.shape[0])[:, None] / bad.shape[0]
    assert not checks.check_second_order(own, coarse, bad, 0.5)[0]


def test_energy_error_check_flags_a_changed_value(tmp_path, model_path):
    args = ["--checkpoint", str(model_path), "--alpha", "0.5", "--energy", "1/12",
            "--dt", "0.02", "--steps", "30"]
    _cli("predict", *args, "--out", str(tmp_path / "p.csv"))
    _cli("eval-energy", *args, "--out", str(tmp_path / "e.csv"))
    pred = checks.read_csv_rows(tmp_path / "p.csv")[1]
    err = checks.read_csv_rows(tmp_path / "e.csv")[1]
    assert checks.check_energy_error(err, pred, 0.5, 0.02)[0]
    err[10, 1] *= 1.001
    assert not checks.check_energy_error(err, pred, 0.5, 0.02)[0]


def test_gradient_check_flags_a_scaled_gradient():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    theta = rng.standard_normal(6)

    def loss(v):
        return float(np.sum(np.tanh(a @ v) ** 2))

    t = np.tanh(a @ theta)
    grad = a.T @ (2 * t * (1 - t * t))
    dirs = rng.standard_normal((3, 6))
    assert checks.check_directional_gradient(loss, theta, grad, dirs)[0]
    assert not checks.check_directional_gradient(loss, theta, 1.01 * grad, dirs)[0]


def test_lyapunov_checks_flag_wrong_exponents():
    good = np.array([[0.0, 0.0, 2e-8], [1.0, 1.0, 0.04]])
    assert checks.check_lyapunov_analytic(good)[0]
    assert not checks.check_lyapunov_analytic(good * [1, 1, 1e5])[0]
    assert not checks.check_lyapunov_learned(np.array([[0.2, 0.2, np.nan]]))[0]


def test_loss_checks_flag_bad_histories():
    assert checks.check_loss_history([2.0, 1.0], [1.5, 0.9])[0]
    assert not checks.check_loss_history([2.0, np.nan], [1.5, 0.9])[0]
    assert not checks.check_loss_history([1.0, 2.0], [0.9, 0.8])[0]
    assert not checks.check_same_losses([1.0, 0.5], [1.0, np.nextafter(0.5, 1)])[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train-wide", "train-encoder", "simulate"])
def test_tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
