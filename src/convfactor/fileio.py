"""Tensor and block-descriptor file formats.

Tensor files ("KTEN1"): a magic line, one JSON header line
``{"dtype": "f32"|"f64", "shape": [...], "order": "C"}`` and the raw
little-endian row-major payload.  Round trips are bitwise stable.

Block files: a JSON document describing one factorized conv layer chain
(block kind, conv spec, layer descriptors with weights stored as relative
tensor-file paths, and metrics).  All writes go through a temp file and
an atomic rename.
"""

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .convblocks import ConvSpec, LayerDescriptor
from .errors import TensorFileError

__all__ = ["Block", "read_tensor", "write_tensor", "read_block", "write_block"]

MAGIC = b"KTEN1\n"
_DTYPES = {"f32": "<f4", "f64": "<f8"}


def _atomic_write(path, data):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-kten-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(path, array):
    """Write an ndarray as a tensor file; float32 stays f32, all else f64."""
    array = np.asarray(array)
    tag = "f32" if array.dtype == np.float32 else "f64"
    header = json.dumps(
        {"dtype": tag, "shape": list(array.shape), "order": "C"}
    ).encode() + b"\n"
    payload = np.ascontiguousarray(array).astype(_DTYPES[tag], copy=False).tobytes()
    _atomic_write(path, MAGIC + header + payload)


def read_tensor(path):
    """Read a tensor file back into an ndarray (native byte order)."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise TensorFileError(f"{path}: bad magic {magic!r}")
            header_line = fh.readline()
            try:
                header = json.loads(header_line)
            except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, deep nesting
                raise TensorFileError(f"{path}: unparsable header: {e}") from None
            payload = np.fromfile(fh, dtype=np.uint8)
    except OSError as e:
        raise TensorFileError(f"{path}: {e}") from None
    if not isinstance(header, dict):
        raise TensorFileError(f"{path}: header is not a JSON object")
    dtype = header.get("dtype")
    shape = header.get("shape")
    if (
        not isinstance(dtype, str)
        or dtype not in _DTYPES
        or not isinstance(shape, list)
        or not all(type(n) is int and n >= 0 for n in shape)
    ):
        raise TensorFileError(f"{path}: invalid header {header}")
    if header.get("order", "C") != "C":
        raise TensorFileError(f"{path}: unsupported order {header.get('order')!r}")
    count = math.prod(shape)
    itemsize = np.dtype(_DTYPES[dtype]).itemsize
    if payload.size != count * itemsize:
        raise TensorFileError(
            f"{path}: payload is {payload.size} bytes, expected {count * itemsize}"
        )
    # read straight into an array: no bytes object, and no copy in native order
    data = payload.view(_DTYPES[dtype]).astype(_DTYPES[dtype][1:], copy=False)
    try:
        return data.reshape(shape)
    except ValueError as e:  # more dimensions or a larger extent than numpy allows
        raise TensorFileError(f"{path}: unsupported shape: {e}") from None


@dataclass
class Block:
    """One factorized convolution layer: kind, conv spec, layers, metrics."""

    kind: str
    spec: ConvSpec
    layers: list
    metrics: dict


def write_block(directory, block, name="block.json"):
    """Write a block descriptor plus its weight tensors into `directory`.

    Returns the path of the JSON document; weights are stored next to it
    as relative tensor-file paths.
    """
    os.makedirs(directory, exist_ok=True)
    layer_docs = []
    for i, layer in enumerate(block.layers):
        wname = f"layer_{i:02d}.kten"
        write_tensor(os.path.join(directory, wname), layer.weights)
        bname = None
        if layer.bias is not None:
            bname = f"layer_{i:02d}_bias.kten"
            write_tensor(os.path.join(directory, bname), layer.bias)
        layer_docs.append(
            {
                "in": layer.in_channels,
                "out": layer.out_channels,
                "kernel": list(layer.kernel),
                "groups": layer.groups,
                "stride": layer.stride,
                "pad": layer.pad,
                "weights": wname,
                "bias": bname,
            }
        )
    doc = {
        "block": block.kind,
        "spec": {
            "in_channels": block.spec.in_channels,
            "out_channels": block.spec.out_channels,
            "kernel_size": block.spec.kernel_size,
            "stride": block.spec.stride,
            "pad": block.spec.pad,
        },
        "layers": layer_docs,
        "metrics": block.metrics,
    }
    path = os.path.join(directory, name)
    _atomic_write(path, json.dumps(doc, indent=2).encode() + b"\n")
    return Path(path)


def read_block(path):
    """Load a block descriptor, resolving and validating its tensor files."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise TensorFileError(f"{path}: {e}") from None
    except json.JSONDecodeError as e:
        raise TensorFileError(f"{path}: unparsable block file: {e}") from None
    base = os.path.dirname(os.fspath(path))
    try:
        kind = doc["block"]
        spec = ConvSpec(**doc["spec"])
        layers = []
        for entry in doc["layers"]:
            wpath = os.path.join(base, entry["weights"])
            if not os.path.exists(wpath):
                raise TensorFileError(f"missing weights file {wpath}")
            bias = None
            if entry.get("bias"):
                bpath = os.path.join(base, entry["bias"])
                if not os.path.exists(bpath):
                    raise TensorFileError(f"missing bias file {bpath}")
                bias = read_tensor(bpath).astype(np.float64)
            layers.append(
                LayerDescriptor(
                    in_channels=entry["in"],
                    out_channels=entry["out"],
                    kernel=tuple(entry["kernel"]),
                    weights=read_tensor(wpath).astype(np.float64),
                    groups=entry["groups"],
                    stride=entry["stride"],
                    pad=entry["pad"],
                    bias=bias,
                )
            )
        metrics = doc.get("metrics", {})
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, TensorFileError):
            raise
        raise TensorFileError(f"{path}: invalid block document: {e}") from None
    for i in range(len(layers) - 1):
        if layers[i].out_channels != layers[i + 1].in_channels:
            raise TensorFileError(
                f"{path}: broken chain between layers {i} and {i + 1}"
            )
    return Block(kind, spec, layers, metrics)
