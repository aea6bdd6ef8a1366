"""Checkpoint round-trips, checksums and structural validation."""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplectic_ml.checkpoint import (
    build_checkpoint,
    load_checkpoint,
    model_from_checkpoint,
    model_kind,
    save_checkpoint,
    write_checkpoint,
)
from symplectic_ml.errors import CorruptRecord, FormatVersionMismatch
from symplectic_ml.lstm import EncoderModel, encoder_param_count, init_encoder_params
from symplectic_ml.models import BaselineModel, HnnModel, SeparableModel
from symplectic_ml.nets import DenseNetSpec, init_params, param_count

from helpers import JSON_VALUES


def _hnn(adaptable=False):
    sizes = (5, 6, 1) if adaptable else (4, 6, 1)
    spec = DenseNetSpec(sizes)
    return HnnModel(spec=spec, params=init_params(spec, 1), adaptable=adaptable,
                    param_channels=1 if adaptable else 0)


def _separable(adaptable=False, fixed_kinetic=False):
    k_spec = DenseNetSpec((2, 4, 1))
    v_spec = DenseNetSpec((3, 4, 1) if adaptable else (2, 4, 1))
    nk = 0 if fixed_kinetic else param_count(k_spec)
    rng = np.random.default_rng(2)
    return SeparableModel(
        kinetic_spec=k_spec, potential_spec=v_spec,
        params=rng.normal(size=nk + param_count(v_spec)),
        adaptable=adaptable, param_channels=1 if adaptable else 0,
        fixed_kinetic=fixed_kinetic,
    )


def _baseline(adaptable=False):
    sizes = (5, 6, 4) if adaptable else (4, 6, 4)
    spec = DenseNetSpec(sizes)
    return BaselineModel(spec=spec, params=init_params(spec, 3),
                         adaptable=adaptable, param_channels=1 if adaptable else 0)


def _encoder():
    return EncoderModel(hidden_size=3, window_len=7, param_outputs=2,
                        params=init_encoder_params(3, 2, 4))


ALL_MODELS = [
    ("hnn", _hnn, {}),
    ("ahnn", _hnn, {"adaptable": True}),
    ("srnn", _separable, {}),
    ("asrnn", _separable, {"adaptable": True}),
    ("asrnn", _separable, {"adaptable": True, "fixed_kinetic": True}),
    ("baseline", _baseline, {}),
    ("baseline", _baseline, {"adaptable": True}),
    ("lstm-encoder", _encoder, {}),
]


EDGE_PARAMS = [-0.0, 5e-324, 1e-300, 1e300, 0.1, -2.5]


@pytest.mark.parametrize("params", [EDGE_PARAMS, [], None, EDGE_PARAMS * 1500],
                         ids=["finite", "empty", "fixed-k-model", "several-blocks"])
def test_written_checkpoint_is_byte_identical_to_json_dumps(tmp_path, params):
    doc = build_checkpoint(_separable(adaptable=True, fixed_kinetic=True), seed=4,
                           training_config={"hidden": [4], "note": "x"},
                           metrics={"val_loss": 0.5, "params": []})
    if params is not None:
        doc["params"] = params
    path = tmp_path / "model.json"
    write_checkpoint(doc, path)
    assert path.read_bytes() == json.dumps(doc, indent=1).encode()


@pytest.mark.parametrize("bad", [np.inf - np.inf, np.inf], ids=["sign-bit-nan", "inf"])
def test_non_finite_parameters_are_refused_at_save(tmp_path, bad):
    model = _encoder()
    model.params[3] = bad
    with pytest.raises(ValueError, match="parameter 3 is not finite"):
        save_checkpoint(model, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def test_hand_edited_non_finite_parameter_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(_encoder(), path)
    doc = json.loads(path.read_text())
    doc["params"][2] = float("nan")
    doc["params_sha256"] = hashlib.sha256(np.array(doc["params"], "<f8").tobytes()).hexdigest()
    path.write_text(json.dumps(doc, indent=1))
    assert "NaN" in path.read_text()
    with pytest.raises(CorruptRecord, match="checkpoint parameter 2 is not finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("expected_kind, factory, kw", ALL_MODELS)
def test_round_trip_preserves_everything(tmp_path, expected_kind, factory, kw):
    model = factory(**kw)
    path = tmp_path / "model.json"
    save_checkpoint(model, path, seed=11)
    loaded, doc = load_checkpoint(path)

    assert doc["model_kind"] == expected_kind
    assert doc["seed"] == 11
    assert type(loaded) is type(model)
    assert np.array_equal(loaded.params, model.params)
    if isinstance(model, EncoderModel):
        assert loaded.hidden_size == model.hidden_size
        assert loaded.window_len == model.window_len
        assert loaded.param_outputs == model.param_outputs
    elif isinstance(model, SeparableModel):
        assert loaded.potential_spec == model.potential_spec
        assert loaded.fixed_kinetic == model.fixed_kinetic
        assert loaded.adaptable == model.adaptable
        assert loaded.param_channels == model.param_channels
        if not model.fixed_kinetic:
            assert loaded.kinetic_spec == model.kinetic_spec
    else:
        assert loaded.spec == model.spec
        assert loaded.adaptable == model.adaptable
        assert loaded.param_channels == model.param_channels


@pytest.mark.parametrize("expected_kind, factory, kw", ALL_MODELS)
def test_resave_is_byte_identical(tmp_path, expected_kind, factory, kw):
    model = factory(**kw)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_checkpoint(model, first, seed=5, training_config={"epochs": 2},
                    metrics={"final_val_loss": 0.125})
    loaded, doc = load_checkpoint(first)
    save_checkpoint(loaded, second, seed=doc["seed"],
                    training_config=doc["training_config"], metrics=doc["metrics"])
    assert first.read_bytes() == second.read_bytes()


def test_two_saves_of_one_model_are_byte_identical(tmp_path):
    model = _separable(adaptable=True)
    save_checkpoint(model, tmp_path / "a.json", seed=3)
    save_checkpoint(model, tmp_path / "b.json", seed=3)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_params_checksum_covers_little_endian_bytes():
    model = _hnn()
    doc = build_checkpoint(model)
    digest = hashlib.sha256(model.params.astype("<f8").tobytes()).hexdigest()
    assert doc["params_sha256"] == digest


def test_changed_parameter_digit_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(_separable(), path)
    text = path.read_text()
    doc = json.loads(text)
    old = repr(doc["params"][5])
    i = text.index(old)
    j = i + len(old) - 1  # the last significant digit
    new_digit = "1" if text[j] != "1" else "2"
    path.write_text(text[:j] + new_digit + text[j + 1:])
    assert json.loads(path.read_text())["params"][5] != doc["params"][5]
    with pytest.raises(CorruptRecord, match="params_sha256"):
        load_checkpoint(path)


def test_missing_params_checksum_is_rejected(tmp_path):
    doc = build_checkpoint(_hnn())
    del doc["params_sha256"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptRecord, match="params_sha256"):
        load_checkpoint(path)


def test_fixed_kinetic_document_has_no_kinetic_layers():
    doc = build_checkpoint(_separable(adaptable=True, fixed_kinetic=True))
    assert doc["spec"]["kinetic_layers"] is None
    assert doc["spec"]["fixed_kinetic"] is True


def test_encoder_document_declares_gate_activation():
    doc = build_checkpoint(_encoder())
    assert doc["activation"] == "lstm-gates"
    assert doc["spec"] == {"hidden_size": 3, "window_len": 7, "param_outputs": 2}


def test_model_kind_rejects_foreign_objects():
    with pytest.raises(TypeError):
        model_kind(object())


def test_document_passthrough_fields():
    doc = build_checkpoint(_hnn(), seed=7, training_config={"lr": 0.001},
                           metrics={"epochs": 9})
    assert doc["seed"] == 7
    assert doc["training_config"] == {"lr": 0.001}
    assert doc["metrics"] == {"epochs": 9}
    assert doc["init_scheme"] == "scaled-uniform"


def test_unsupported_format_version():
    doc = build_checkpoint(_hnn())
    doc["format_version"] = 99
    with pytest.raises(FormatVersionMismatch):
        model_from_checkpoint(doc)
    del doc["format_version"]
    with pytest.raises(FormatVersionMismatch):
        model_from_checkpoint(doc)


def test_missing_params_key():
    doc = build_checkpoint(_hnn())
    del doc["params"]
    with pytest.raises(CorruptRecord):
        model_from_checkpoint(doc)


def test_wrong_parameter_count():
    doc = build_checkpoint(_hnn())
    doc["params"] = doc["params"][:-1]
    with pytest.raises(CorruptRecord):
        model_from_checkpoint(doc)


def test_unknown_model_kind():
    doc = build_checkpoint(_hnn())
    doc["model_kind"] = "transformer"
    with pytest.raises(CorruptRecord):
        model_from_checkpoint(doc)


def test_unknown_activation():
    doc = build_checkpoint(_hnn())
    doc["activation"] = "relu"
    with pytest.raises(CorruptRecord):
        model_from_checkpoint(doc)


def test_missing_file(tmp_path):
    with pytest.raises(CorruptRecord):
        load_checkpoint(tmp_path / "nothing.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    with pytest.raises(CorruptRecord):
        load_checkpoint(path)


def test_checkpoint_that_is_not_an_object_is_corrupt(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(CorruptRecord, match="not a JSON object"):
        load_checkpoint(path)


_DOCS = {kind: json.loads(json.dumps(build_checkpoint(factory(**kw), seed=1)))
         for kind, factory, kw in ALL_MODELS}
_FIELDS = sorted({(kind, key) for kind, doc in _DOCS.items() for key in doc}
                 | {(kind, "spec", key) for kind, doc in _DOCS.items() for key in doc["spec"]})


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=JSON_VALUES)
def test_any_checkpoint_field_loads_or_is_rejected(field, value):
    kind, *path = field
    doc = json.loads(json.dumps(_DOCS[kind]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as d:
        target = Path(d) / "model.json"
        target.write_text(json.dumps(doc))
        try:
            model, _ = load_checkpoint(target)
            assert model_kind(model) in _DOCS
        except (CorruptRecord, FormatVersionMismatch):
            pass
