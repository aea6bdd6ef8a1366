"""Versioned model checkpoints.

A checkpoint is one JSON file: format version, model kind, architecture
spec, activation, init scheme, seed, the flat parameter vector as decimal
floats with its SHA-256 checksum, and optional training config and metrics.
Python's shortest-repr float serialization makes the parameter round-trip
bit-exact.  The checksum covers the parameters' little-endian float64
bytes, the scheme of a dataset's ``states.bin`` checksum, and loading
rejects a document whose parameters do not match it.  One function,
``_describe``, names each model class's kind, architecture spec and
activation; ``model_from_checkpoint`` is its inverse.
"""

import hashlib
import json

import numpy as np

from .datapipe import f8_bytes
from .errors import CorruptRecord, FormatVersionMismatch, ShapeMismatch
from .lstm import EncoderModel
from .models import BaselineModel, HnnModel, SeparableModel
from .nets import DenseNetSpec

FORMAT_VERSION = 2
INIT_SCHEME = "scaled-uniform"


def params_sha256(params):
    """Hex SHA-256 of a parameter vector's little-endian float64 bytes."""
    return hashlib.sha256(f8_bytes([params])).hexdigest()


def _describe(model):
    """``(model_kind, spec, activation)``: how a checkpoint names and stores
    a model's architecture.  ``model_from_checkpoint`` is its inverse."""
    if isinstance(model, SeparableModel):
        k_layers = None if model.fixed_kinetic else list(model.kinetic_spec.layer_sizes)
        return "asrnn" if model.adaptable else "srnn", {
            "kinetic_layers": k_layers,
            "potential_layers": list(model.potential_spec.layer_sizes),
            "param_channels": model.param_channels,
            "fixed_kinetic": model.fixed_kinetic,
        }, model.potential_spec.activation
    if isinstance(model, EncoderModel):
        return "lstm-encoder", {
            "hidden_size": model.hidden_size,
            "window_len": model.window_len,
            "param_outputs": model.param_outputs,
        }, "lstm-gates"
    if isinstance(model, HnnModel):
        kind = "ahnn" if model.adaptable else "hnn"
    elif isinstance(model, BaselineModel):
        kind = "baseline"
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    spec = {"layers": list(model.spec.layer_sizes), "param_channels": model.param_channels}
    return kind, spec, model.spec.activation


def model_kind(model):
    return _describe(model)[0]


def build_checkpoint(model, seed=None, training_config=None, metrics=None):
    """The checkpoint document for a model, as a plain dict.  Raises
    ValueError if a parameter is not finite: JSON has no spelling for it."""
    bad = np.flatnonzero(~np.isfinite(model.params))
    if bad.size:
        raise ValueError(f"parameter {bad[0]} is not finite: {model.params[bad[0]]}")
    kind, spec, activation = _describe(model)
    return {
        "format_version": FORMAT_VERSION,
        "model_kind": kind,
        "spec": spec,
        "activation": activation,
        "init_scheme": INIT_SCHEME,
        "seed": seed,
        "params_sha256": params_sha256(model.params),
        "params": [float(x) for x in model.params],
        "training_config": training_config,
        "metrics": metrics,
    }


# stands in for the parameter list while the rest of the document is encoded;
# no key or value before "params" holds a NUL, so its first occurrence is that one
_PARAMS_SLOT = "\x00params\x00"
_WRITE_BLOCK = 4096  # parameters formatted per write, so the text held at once stays small


def write_checkpoint(doc, path):
    """Write a checkpoint document byte for byte as ``json.dumps(doc,
    indent=1)``, formatting its float parameter list a block at a time
    rather than token by token."""
    params = doc["params"]
    head, tail = json.dumps({**doc, "params": _PARAMS_SLOT}, indent=1).split(
        json.dumps(_PARAMS_SLOT), 1)
    with open(path, "w") as fh:
        fh.write(head)
        sep = "[\n  "
        for i in range(0, len(params), _WRITE_BLOCK):
            block = params[i : i + _WRITE_BLOCK]
            fh.write(sep + ",\n  ".join(map(float.__repr__, block)))
            sep = ",\n  "
        fh.write(("\n ]" if params else "[]") + tail)


def save_checkpoint(model, path, seed=None, training_config=None, metrics=None):
    write_checkpoint(build_checkpoint(model, seed, training_config, metrics), path)


def model_from_checkpoint(doc):
    """Rebuild the model object described by a checkpoint document."""
    if not isinstance(doc, dict):
        raise CorruptRecord("checkpoint is not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"checkpoint format {version!r}, supported {FORMAT_VERSION}"
        )
    try:
        kind = doc["model_kind"]
        spec = doc["spec"]
        if not isinstance(spec, dict):
            raise CorruptRecord("checkpoint spec is not a JSON object")
        params = np.array(doc["params"], dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(params))
        if bad.size:
            raise CorruptRecord(f"checkpoint parameter {bad[0]} is not finite")
        if "params_sha256" not in doc:
            raise CorruptRecord("checkpoint has no params_sha256 checksum")
        if doc["params_sha256"] != params_sha256(params):
            raise CorruptRecord("parameters do not match their params_sha256 checksum")
        activation = doc.get("activation", "tanh")
        if kind in ("hnn", "ahnn", "baseline"):
            net = DenseNetSpec(tuple(spec["layers"]), activation)
            channels = spec["param_channels"]
            adaptable = kind == "ahnn" or kind == "baseline" and channels > 0
            return (BaselineModel if kind == "baseline" else HnnModel)(
                spec=net, params=params, adaptable=adaptable, param_channels=channels)
        if kind in ("srnn", "asrnn"):
            fixed = spec.get("fixed_kinetic", False)
            k_layers = spec.get("kinetic_layers")
            return SeparableModel(
                kinetic_spec=DenseNetSpec(tuple(k_layers) if k_layers else (2, 1), activation),
                potential_spec=DenseNetSpec(tuple(spec["potential_layers"]), activation),
                params=params,
                adaptable=kind == "asrnn",
                param_channels=spec["param_channels"],
                fixed_kinetic=fixed,
            )
        if kind == "lstm-encoder":
            return EncoderModel(
                hidden_size=spec["hidden_size"],
                window_len=spec["window_len"],
                param_outputs=spec["param_outputs"],
                params=params,
            )
        raise CorruptRecord(f"unknown model kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError, ShapeMismatch) as err:
        if isinstance(err, (FormatVersionMismatch, CorruptRecord)):
            raise
        raise CorruptRecord(f"checkpoint is structurally invalid: {err}")


def load_checkpoint(path):
    """Read a checkpoint file; returns (model, full document)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CorruptRecord(f"cannot read checkpoint: {err}")
    return model_from_checkpoint(doc), doc
