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

A load streams the file: it reads the header fields, then each tensor's
values straight into that tensor's own array, so the values are copied once
and the file is never held whole. Every field's byte count is checked
against what the file has left before it is read or anything is allocated
for it, so a declared shape larger than the file fails as a truncated file.
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
    with open(path, "rb") as f:
        return _read_model(_Reader(f))


def _read_model(reader: _Reader) -> TwoTowerModel:
    magic = reader.take(4, "magic")
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
    """Reads an open file front to back, checking every read against the bytes left."""

    def __init__(self, f) -> None:
        self.f = f
        self.size = os.fstat(f.fileno()).st_size
        self.offset = 0

    def need(self, n: int, what: str) -> None:
        """Fail, naming `what`, unless the file has n more bytes."""
        if self.offset + n > self.size:
            raise FormatError(
                f"unexpected end of file at byte {self.size} while reading {what} "
                f"(needed {self.offset + n} bytes)"
            )

    def take(self, n: int, what: str) -> bytes:
        self.need(n, what)
        chunk = self.f.read(n)
        self._advance(len(chunk), n, what)
        return chunk

    def take_into(self, out: np.ndarray, what: str) -> None:
        """Fill C-contiguous `out` with the next `out.nbytes` bytes."""
        self.need(out.nbytes, what)
        self._advance(self.f.readinto(out), out.nbytes, what)

    def _advance(self, got: int, n: int, what: str) -> None:
        if got != n:  # the file shrank after its size was read
            raise FormatError(
                f"unexpected end of file at byte {self.offset + got} while reading {what} "
                f"(needed {self.offset + n} bytes)"
            )
        self.offset += n

    def remaining(self) -> int:
        return self.size - self.offset


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
    # The check comes first, so such a shape allocates nothing.
    what = f"values of {name}"
    reader.need(8 * math.prod(dims), what)
    values = np.empty(dims, dtype="<f8")
    reader.take_into(values, what)
    # No copy on a little-endian host, where "<f8" is DTYPE.
    return values.astype(DTYPE, copy=False)
