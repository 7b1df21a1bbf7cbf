"""Grayscale image files in and out of [0, 1] float fields.

Binary PGM (P5) at 8 or 16 bits is the native format: stdlib-only, exact,
and byte-stable for golden tests. 16-bit samples are big-endian per the
format. Values are scaled by maxval on read; writes clip to [0, 1] and
quantize with round-half-even. A PGM header is P5, then width, height and
maxval in ASCII digits, each after whitespace or #-to-end-of-line comments,
then one whitespace byte. PNG support piggybacks on Pillow when it is
installed and stays out of the import path otherwise.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ImageFormatError, ShapeMismatchError
from .numerics import as_field, require_finite

_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def _quantize(field, bits: int) -> np.ndarray:
    """Check a field and round it to samples 0..2**bits - 1, left as floats."""
    if bits not in (8, 16):
        raise ValueError(f"bits must be 8 or 16, got {bits}")
    arr = as_field(field)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"images are 2-D fields, got {arr.ndim}-D")
    if arr.size == 0:
        raise ShapeMismatchError(f"images need at least one pixel, got shape {arr.shape}")
    require_finite("image", arr)
    return np.rint(np.clip(arr, 0.0, 1.0) * ((1 << bits) - 1))


def _pillow():
    """The ``PIL.Image`` module, imported only when a PNG is read or written."""
    try:
        from PIL import Image
    except ImportError as exc:
        raise ImageFormatError("PNG support needs the Pillow package") from exc
    return Image


def _codec(path, codecs: dict):
    """The entry of ``codecs`` named by the extension of ``path``, in any case."""
    _, dot, ext = str(path).lower().rpartition(".")
    if not dot or ext not in codecs:
        raise ImageFormatError(f"unsupported image extension: {path}")
    return codecs[ext]


def write_pgm(path, field, bits: int = 8) -> None:
    """Write a [0, 1] field as binary PGM at 8 or 16 bits per sample."""
    quant = _quantize(field, bits)
    h, w = quant.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (w, h, (1 << bits) - 1))
        fh.write(quant.astype(np.uint8 if bits == 8 else ">u2").tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a [0, 1] float field."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ImageFormatError(f"{path}: not a binary PGM (P5) file with a valid header")
    try:
        w, h, maxval = map(int, header.groups())
    except ValueError as exc:  # more digits than int() converts
        raise ImageFormatError(f"{path}: malformed PGM header ({exc})") from exc
    if w < 1 or h < 1 or not 0 < maxval < 65536:
        raise ImageFormatError(f"{path}: invalid PGM dimensions {w}x{h}/{maxval}")
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    need = w * h * dtype.itemsize
    raw = data[header.end() : header.end() + need]
    if len(raw) < need:
        raise ImageFormatError(f"{path}: truncated pixel data "
                               f"({len(raw)} of {need} bytes)")
    pixels = np.frombuffer(raw, dtype=dtype).reshape(h, w)
    return pixels.astype(np.float64) / maxval


def write_png(path, field, bits: int = 8) -> None:
    """Write PNG through Pillow (optional dependency)."""
    pil = _pillow()
    quant = _quantize(field, bits)
    pil.fromarray(quant.astype(np.uint8 if bits == 8 else np.uint16)).save(path)


def read_png(path) -> np.ndarray:
    """Read a grayscale PNG into a [0, 1] float field (needs Pillow)."""
    with _pillow().open(path) as img:
        mode = img.mode
        arr = np.asarray(img)
    if mode in ("I", "I;16"):
        return arr.astype(np.float64) / 65535.0
    if mode != "L":
        raise ImageFormatError(f"{path}: unsupported PNG mode {mode!r}; "
                               "grayscale only")
    return arr.astype(np.float64) / 255.0


def write_image(path, field, bits: int = 8) -> None:
    """Dispatch on extension: .pgm native, .png via Pillow."""
    # Built per call, so the table holds the module attributes wrappers set.
    _codec(path, {"pgm": write_pgm, "png": write_png})(path, field, bits=bits)


def read_image(path) -> np.ndarray:
    """Dispatch on extension: .pgm native, .png via Pillow."""
    return _codec(path, {"pgm": read_pgm, "png": read_png})(path)
