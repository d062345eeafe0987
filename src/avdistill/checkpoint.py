"""Self-describing binary checkpoints for the two-tower model.

Layout (all little-endian):

    magic "XMDL" | u16 format version | u8 precision tag (1 = f64)
    | audio tower block | visual tower block | tensors in declaration order

Tower block: u32 input_dim | u32 n_hidden | n_hidden x u32 hidden dims
| u32 output_dim | f64 dropout_rate.

Tensors follow in parameters() order (audio w0, b0, ... then visual), each as
u32 rank | rank x u32 dims | values as IEEE-754 float64. Tag 1 is the only
precision written or accepted, so a save -> load -> save roundtrip
reproduces the file byte for byte.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .model import Tower, TowerSpec, TwoTowerModel
from .nn import DTYPE

XMDL_MAGIC = b"XMDL"
XMDL_VERSION = 1

_PRECISION_F64 = 1


def save_checkpoint(model: TwoTowerModel, path: str | Path) -> None:
    """Write the model to `path`, streaming each tensor's values from its own buffer.

    The bytes go to a temporary file in the same directory, which then replaces
    `path` in one rename: a save that fails part-way leaves the previous file
    whole and removes its temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(XMDL_MAGIC)
            f.write(struct.pack("<HB", XMDL_VERSION, _PRECISION_F64))
            for spec in (model.audio.spec, model.visual.spec):
                f.write(_pack_tower_spec(spec))
            for tensor in model.parameters():
                f.write(struct.pack(f"<{1 + tensor.ndim}I", tensor.ndim, *tensor.shape))
                # No copy for a C-contiguous float64 tensor on a little-endian host.
                f.write(memoryview(np.ascontiguousarray(tensor, dtype="<f8")))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once the rename succeeded


def load_checkpoint(path: str | Path) -> TwoTowerModel:
    raw = Path(path).read_bytes()
    reader = _Reader(raw)
    magic = bytes(reader.take(4, "magic"))
    if magic != XMDL_MAGIC:
        raise FormatError(
            f"bad magic {magic!r} at byte 0, expected {XMDL_MAGIC!r}"
        )
    (version,) = struct.unpack("<H", reader.take(2, "format version"))
    if version != XMDL_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}, expected {XMDL_VERSION}")
    (precision,) = struct.unpack("<B", reader.take(1, "precision tag"))
    if precision != _PRECISION_F64:
        raise FormatError(f"unknown precision tag {precision} at byte {reader.offset - 1}")

    audio_spec = _unpack_tower_spec(reader, "audio")
    visual_spec = _unpack_tower_spec(reader, "visual")

    tensors: dict[str, list[np.ndarray]] = {"audio": [], "visual": []}
    for tower_name, spec in (("audio", audio_spec), ("visual", visual_spec)):
        for i, (d_in, d_out) in enumerate(spec.layer_dims):
            w = _read_tensor(reader, f"{tower_name}.layer{i}.weights", (d_in, d_out))
            b = _read_tensor(reader, f"{tower_name}.layer{i}.bias", (d_out,))
            tensors[tower_name] += [w, b]
    if reader.remaining():
        raise FormatError(
            f"{reader.remaining()} trailing bytes after the last tensor (byte {reader.offset})"
        )
    audio = Tower.from_parameters(audio_spec, tensors["audio"])
    visual = Tower.from_parameters(visual_spec, tensors["visual"])
    return TwoTowerModel(audio, visual)


class _Reader:
    def __init__(self, raw: bytes) -> None:
        # Slices of a memoryview copy nothing; a tensor's values are copied
        # once, by `_read_tensor`'s astype.
        self.raw = memoryview(raw)
        self.offset = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.offset + n > len(self.raw):
            raise FormatError(
                f"unexpected end of file at byte {len(self.raw)} while reading {what} "
                f"(needed {self.offset + n} bytes)"
            )
        chunk = self.raw[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def remaining(self) -> int:
        return len(self.raw) - self.offset


def _pack_tower_spec(spec: TowerSpec) -> bytes:
    out = struct.pack("<II", spec.input_dim, len(spec.hidden_dims))
    out += struct.pack(f"<{len(spec.hidden_dims)}I", *spec.hidden_dims)
    out += struct.pack("<I", spec.output_dim)
    out += struct.pack("<d", spec.dropout_rate)
    return out


def _unpack_tower_spec(reader: _Reader, tower_name: str) -> TowerSpec:
    what = f"{tower_name} tower spec"
    input_dim, n_hidden = struct.unpack("<II", reader.take(8, what))
    if n_hidden == 0 or n_hidden > 64:
        raise FormatError(f"implausible hidden layer count {n_hidden} in {what}")
    hidden = struct.unpack(f"<{n_hidden}I", reader.take(4 * n_hidden, what))
    (output_dim,) = struct.unpack("<I", reader.take(4, what))
    (dropout_rate,) = struct.unpack("<d", reader.take(8, what))
    try:
        return TowerSpec(
            input_dim=input_dim,
            output_dim=output_dim,
            hidden_dims=tuple(hidden),
            dropout_rate=dropout_rate,
        )
    except Exception as e:
        raise FormatError(f"invalid {what}: {e}") from None


def _read_tensor(reader: _Reader, name: str, expected_shape: tuple[int, ...]) -> np.ndarray:
    (rank,) = struct.unpack("<I", reader.take(4, f"rank of {name}"))
    if rank != len(expected_shape):
        raise FormatError(
            f"tensor {name} has rank {rank}, expected {len(expected_shape)} "
            f"(byte {reader.offset - 4})"
        )
    dims = struct.unpack(f"<{rank}I", reader.take(4 * rank, f"dims of {name}"))
    if dims != expected_shape:
        raise FormatError(f"tensor {name} has dims {dims}, expected {expected_shape}")
    # Python ints: a crafted shape must not wrap around int64 to a small count.
    count = math.prod(dims)
    values = reader.take(8 * count, f"values of {name}")
    return np.frombuffer(values, dtype="<f8", count=count).astype(DTYPE).reshape(dims)
