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

from .convblocks import ConvSpec, LayerDescriptor, block_factors, count_params_flops
from .errors import TensorFileError
from .tensorops import _norm_in_range

__all__ = ["Block", "read_tensor", "read_tensor_matrices", "write_tensor", "read_block",
           "write_block"]

MAGIC = b"KTEN1\n"
_DTYPES = {"f32": "<f4", "f64": "<f8"}
_SPEC_INTS = ("in_channels", "out_channels", "kernel_size", "stride", "pad")
_LAYER_INTS = ("in", "out", "groups", "stride", "pad")


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


def _read_header(fh, path):
    """Check the magic line and header of an open tensor file; returns its
    (dtype tag, shape), with `fh` at the start of the payload."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise TensorFileError(f"{path}: bad magic {magic!r}")
    header_line = fh.readline()
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, deep nesting
        raise TensorFileError(f"{path}: unparsable header: {e}") from None
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
    return dtype, tuple(shape)


def _check_payload(path, nbytes, dtype, shape):
    expected = math.prod(shape) * np.dtype(_DTYPES[dtype]).itemsize
    if nbytes != expected:
        raise TensorFileError(f"{path}: payload is {nbytes} bytes, expected {expected}")


def read_tensor(path):
    """Read a tensor file back into an ndarray (native byte order)."""
    try:
        with open(path, "rb") as fh:
            dtype, shape = _read_header(fh, path)
            payload = np.fromfile(fh, dtype=np.uint8)
    except OSError as e:
        raise TensorFileError(f"{path}: {e}") from None
    _check_payload(path, payload.size, dtype, shape)
    # read straight into an array: no bytes object, and no copy in native order
    data = payload.view(_DTYPES[dtype]).astype(_DTYPES[dtype][1:], copy=False)
    try:
        return data.reshape(shape)
    except ValueError as e:  # more dimensions or a larger extent than numpy allows
        raise TensorFileError(f"{path}: unsupported shape: {e}") from None


def read_tensor_matrices(path):
    """Read a tensor file one matrix at a time.

    Returns ``(shape, matrices)`` once the header and the payload size are
    checked.  `matrices` yields the (rows, cols) slices ``T[i, ..., :, :]``
    of an order >= 2 tensor in row-major order of the leading indices, in
    native byte order, reading each from the file as it is drawn, so the
    tensor is never held whole.  The slices of a (D, D, S, T) kernel are
    its taps, in the order of :func:`~convfactor.tensorops.reshape_kernel`.
    """
    try:
        with open(path, "rb") as fh:
            dtype, shape = _read_header(fh, path)
            offset = fh.tell()
            nbytes = os.fstat(fh.fileno()).st_size - offset
    except OSError as e:
        raise TensorFileError(f"{path}: {e}") from None
    _check_payload(path, nbytes, dtype, shape)
    if len(shape) < 2:
        raise TensorFileError(
            f"{path}: expected an order >= 2 tensor, got shape {shape}")

    def matrices():
        rows, cols = shape[-2:]
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                for _ in range(math.prod(shape[:-2])):
                    m = np.fromfile(fh, dtype=_DTYPES[dtype], count=rows * cols)
                    if m.size != rows * cols:
                        raise TensorFileError(f"{path}: payload ends early")
                    yield m.reshape(rows, cols).astype(_DTYPES[dtype][1:], copy=False)
        except OSError as e:
            raise TensorFileError(f"{path}: {e}") from None

    return shape, matrices()


@dataclass
class Block:
    """One factorized convolution layer: kind, conv spec, layers, metrics."""

    kind: str
    spec: ConvSpec
    layers: list
    metrics: dict


def write_block(directory, block):
    """Write a block descriptor plus its weight tensors into `directory`.

    Returns the path of the JSON document, ``block.json``; weights are stored next to it
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
    path = os.path.join(directory, "block.json")
    _atomic_write(path, json.dumps(doc, indent=2).encode() + b"\n")
    return Path(path)


def _require_ints(doc, keys, where):
    """Reject a present field of `doc` that is not a JSON integer: ``1.0``
    and ``true`` compare equal to 1 but break shapes and slices later."""
    for key in keys:
        if key in doc and type(doc[key]) is not int:
            raise ValueError(f"{where}.{key} {doc[key]!r} is not an integer")


def read_block(path):
    """Load a block descriptor, resolving and validating its tensor files.

    Every integer field of ``spec`` and the layers must be a JSON integer,
    not a float or a boolean.  The layer chain must fit
    ``metrics["input_hw"]`` (56x56 when absent) and realize the block's
    kind and its spec: the (D^2, S, T) shape, the product of the strides
    and the sum of the pads.  Each layer's weights and bias are held to a
    kernel's rule, :func:`~convfactor.tensorops._norm_in_range`: they may
    not hold NaN or inf, and a nonzero one's norm must be finite and inside
    ``_NORM_RANGE``.
    """
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
        _require_ints(doc["spec"], _SPEC_INTS, "spec")
        for i, entry in enumerate(doc["layers"]):
            _require_ints(entry, _LAYER_INTS, f"layers[{i}]")
            kernel = entry["kernel"]
            if not (isinstance(kernel, list) and len(kernel) == 2
                    and all(type(n) is int for n in kernel)):
                raise ValueError(f"layers[{i}].kernel {kernel!r} is not two integers")
        spec = ConvSpec(**doc["spec"])
        layers = [
            LayerDescriptor(
                in_channels=entry["in"],
                out_channels=entry["out"],
                kernel=tuple(entry["kernel"]),
                weights=read_tensor(os.path.join(base, entry["weights"])),
                groups=entry["groups"],
                stride=entry["stride"],
                pad=entry["pad"],
                bias=read_tensor(os.path.join(base, entry["bias"]))
                if entry.get("bias") else None,
            )
            for entry in doc["layers"]
        ]
        for i, layer in enumerate(layers):
            for key in ("weights", "bias"):
                array = getattr(layer, key)
                try:  # one norm; only a norm that is not finite scans the entries
                    if array is not None:
                        _norm_in_range(array.astype(np.float64, copy=False))
                except ValueError as e:
                    where = f"{path}: layers[{i}] {key}"
                    if np.isfinite(array).all():
                        raise TensorFileError(f"{where}: {e}") from None
                    raise TensorFileError(f"{where} hold non-finite values") from None
        metrics = doc.get("metrics", {})
        if not isinstance(metrics, dict):
            raise TypeError("metrics is not a JSON object")
        hw = metrics.setdefault("input_hw", [56, 56])
        if not (isinstance(hw, list) and len(hw) == 2
                and all(type(n) is int and n > 0 for n in hw)):
            raise ValueError(f"input_hw {hw!r} is not two positive integers")
        count_params_flops(layers, hw)
        d = spec.kernel_size
        found = (block_factors(layers, kind).shape,
                 math.prod(layer.stride for layer in layers),
                 sum(layer.pad for layer in layers))
        if found != ((d * d, spec.in_channels, spec.out_channels), spec.stride, spec.pad):
            raise ValueError(
                f"spec {doc['spec']} disagrees with its layers: (D^2, S, T), "
                f"stride and pad {found}"
            )
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, TensorFileError):
            raise
        raise TensorFileError(f"{path}: invalid block document: {e}") from None
    return Block(kind, spec, layers, metrics)
