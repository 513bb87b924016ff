"""Tensor file formats.

Binary ``.t3b``: a 16 byte header (4 byte magic ``T3B\\0``, u32 version,
u32 CRC-32, u32 reserved), then little-endian u64 dimensions (l, p, n),
one u8 reality flag, and l*p*n complex entries as little-endian f64
(re, im) pairs, face major and row major within a face. The checksum
covers everything after the header. Reading refuses a NaN or infinite
entry with :class:`~tubal.errors.NonFiniteInput`; writing does not check.

The JSON sidecar carries the same payload base64 encoded, for small
fixtures that want to live in version control.
"""

from __future__ import annotations

import base64
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import MalformedFile, UnknownFormat
from .tensors import Tensor3, _check_finite

MAGIC = b"T3B\x00"
VERSION = 1

#: Refuse to allocate tensors beyond this many entries when reading.
MAX_ENTRIES = 10**9

_HEADER = struct.Struct("<4sIII")
_DIMS = struct.Struct("<QQQB")


def write_file(path, data):
    """Write ``data`` (``str`` as UTF-8, or ``bytes``) over ``path`` in place
    and cut the file at its end. On ext4, truncating a file to zero on open,
    or renaming another over it, flushes it to disk: 45-85 ms a file on a
    virtual disk. The write is not atomic."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data.encode() if isinstance(data, str) else data)
        fh.truncate()


def _payload(t):
    """Dims, flag, and entry bytes in the on-disk order."""
    entries = np.moveaxis(t.data, 2, 0).astype("<c16", copy=False)  # (n, l, p)
    return _DIMS.pack(t.l, t.p, t.n, 1 if t.is_real else 0) + entries.tobytes()


def _dims(record):
    """Dimensions and flag of a body's leading dims record, range checked."""
    if len(record) < _DIMS.size:
        raise MalformedFile("truncated tensor body")
    l, p, n, flag = _DIMS.unpack_from(record)
    if min(l, p, n) < 1 or l * p * n > MAX_ENTRIES:
        raise MalformedFile(f"dimension overflow: {(l, p, n)}")
    return l, p, n, flag


def _parse(body):
    l, p, n, flag = _dims(body)
    expect = _DIMS.size + l * p * n * 16
    if len(body) != expect:
        raise MalformedFile(
            f"payload size {len(body)} does not match dimensions {(l, p, n)}"
        )
    # the entries are read as they are stored, every bit kept
    raw = np.frombuffer(body, dtype="<c16", offset=_DIMS.size).reshape(n, l, p)
    data = np.moveaxis(raw, 0, 2)
    if flag not in (0, 1):
        raise MalformedFile(f"unknown reality flag {flag}")
    if flag == 1 and np.any(data.imag):
        raise MalformedFile("reality flag set but entries carry imaginary parts")
    t = Tensor3(data, real=bool(flag))
    _check_finite(t)
    return t


def write_t3b(t, path):
    body = _payload(t)
    header = _HEADER.pack(MAGIC, VERSION, zlib.crc32(body) & 0xFFFFFFFF, 0)
    write_file(path, header + body)


def read_t3b(path):
    """Read a ``.t3b`` file. The header and the dims record are checked,
    and the file size is compared with the size the dims imply, before
    the body is read."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size + _DIMS.size)
        if len(head) < _HEADER.size:
            raise MalformedFile("file shorter than the header")
        magic, version, crc, _ = _HEADER.unpack_from(head)
        if magic != MAGIC:
            raise MalformedFile(f"bad magic {magic!r}")
        if version != VERSION:
            raise MalformedFile(f"unsupported version {version}")
        l, p, n, _ = _dims(head[_HEADER.size :])
        expect = _HEADER.size + _DIMS.size + l * p * n * 16
        size = os.fstat(fh.fileno()).st_size
        if size != expect:
            raise MalformedFile(
                f"file size {size} does not match dimensions {(l, p, n)}"
            )
        body = head[_HEADER.size :] + fh.read()
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise MalformedFile("checksum mismatch")
    return _parse(body)


def write_json(t, path):
    doc = {
        "format": "t3b-json",
        "version": VERSION,
        "dims": [t.l, t.p, t.n],
        "real": t.is_real,
        "data": base64.b64encode(_payload(t)).decode("ascii"),
    }
    write_file(path, json.dumps(doc))


def read_json(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "t3b-json":
        raise MalformedFile("missing t3b-json format marker")
    if doc.get("version") != VERSION:
        raise MalformedFile(f"unsupported version {doc.get('version')}")
    try:
        body = base64.b64decode(doc["data"], validate=True)
    except (KeyError, ValueError) as exc:
        raise MalformedFile("bad base64 payload") from exc
    t = _parse(body)
    if list(doc.get("dims", [])) != [t.l, t.p, t.n]:
        raise MalformedFile("dims field disagrees with the payload")
    return t


def write_tensor(t, path):
    """Write by file suffix: ``.t3b`` binary, ``.json`` sidecar."""
    _by_suffix(path, write_t3b, write_json)(t, path)


def read_tensor(path):
    return _by_suffix(path, read_t3b, read_json)(path)


def _by_suffix(path, t3b, sidecar):
    suffix = Path(path).suffix
    if suffix not in (".t3b", ".json"):
        raise UnknownFormat(f"unknown tensor format {suffix!r}")
    return t3b if suffix == ".t3b" else sidecar
