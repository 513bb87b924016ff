import ast
from pathlib import Path

import numpy as np
import pytest

import tubal
from conftest import random_tensor
from tubal import (
    MalformedFile, NonFiniteInput, Tensor3, TubalError, UnknownFormat, read_tensor, write_tensor,
)
from tubal.experiments import TestTensorSpec, make_tensor
from tubal import tensorio
from tubal.tensorio import read_json, read_t3b, write_file, write_json, write_t3b


def test_binary_roundtrip_is_bitwise(tmp_path, rng):
    a = random_tensor(rng, 3, 2, 5)
    path = tmp_path / "a.t3b"
    write_t3b(a, path)
    back = read_t3b(path)
    assert np.array_equal(back.data, a.data)
    assert back.is_real == a.is_real


def test_stochastic_roundtrip_bitwise(tmp_path):
    c = make_tensor(TestTensorSpec("stochastic"))
    path = tmp_path / "c.t3b"
    write_t3b(c, path)
    back = read_t3b(path)
    assert np.array_equal(back.data, c.data)
    assert back.is_real


def test_json_roundtrip(tmp_path, rng):
    a = random_tensor(rng, 2, 4, 3, real=True)
    path = tmp_path / "a.json"
    write_json(a, path)
    back = read_json(path)
    assert np.array_equal(back.data, a.data)
    assert back.is_real


def _bits(t):
    return np.ascontiguousarray(t.data).view(np.uint64)


@pytest.mark.parametrize("suffix", [".t3b", ".json"])
@pytest.mark.parametrize("real", [True, False])
def test_roundtrip_keeps_every_bit(tmp_path, suffix, real, monkeypatch):
    # signed zeros, the largest floats and subnormals: a read that rebuilds
    # re + 1j * im turns -0.0 + 0j into +0.0. An infinity or a NaN payload
    # is refused on writing; written with the write gate lifted, it is
    # refused on reading
    tiny = np.float64(5e-324)
    big = np.finfo(float).max
    entries = np.array([-0.0, 0.0, 1.0, -big, big, tiny, -tiny, -1.0])
    data = np.zeros(8, dtype=np.complex128)
    data.real = entries
    if not real:
        data.imag = np.roll(entries, 3)
    a = Tensor3(data.reshape(2, 2, 2), real=real)
    path = tmp_path / f"a{suffix}"
    write_tensor(a, path)
    back = read_tensor(path)
    assert back.is_real == real
    assert np.array_equal(_bits(back), _bits(a))
    payload_nan = np.array(0x7FF8_0000_0000_1234, dtype=np.uint64).view(np.float64)
    for bad in (np.inf, payload_nan):
        data[3] = bad
        with monkeypatch.context() as patch:
            patch.setattr(tensorio, "_check_finite", lambda *tensors: None)
            write_tensor(Tensor3(data.reshape(2, 2, 2), real=real), path)
        with pytest.raises(NonFiniteInput):
            read_tensor(path)


@pytest.mark.parametrize("suffix", [".t3b", ".json"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_refuses_non_finite_entries(tmp_path, rng, suffix, bad):
    # a file tubal writes must read back, so a non-finite tensor is refused
    # before any file is opened: a new path is not created, and an existing
    # file keeps its bytes
    good = random_tensor(rng, 3, 2, 4)
    data = good.data.copy()
    data[1, 0, 2] = bad
    fresh, old = tmp_path / f"fresh{suffix}", tmp_path / f"old{suffix}"
    write_tensor(good, old)
    before = old.read_bytes()
    for path in (fresh, old):
        with pytest.raises(NonFiniteInput):
            write_tensor(Tensor3(data), path)
    assert not fresh.exists()
    assert old.read_bytes() == before
    assert np.array_equal(read_tensor(old).data, good.data)


def test_cross_format_equality(tmp_path, rng):
    a = random_tensor(rng, 3, 3, 4)
    b1 = tmp_path / "a.t3b"
    j1 = tmp_path / "a.json"
    write_tensor(a, b1)
    write_tensor(read_tensor(b1), j1)
    assert np.array_equal(read_tensor(j1).data, a.data)


def test_truncated_file(tmp_path, rng):
    a = random_tensor(rng, 3, 2, 2)
    path = tmp_path / "a.t3b"
    write_t3b(a, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(MalformedFile):
        read_t3b(path)


def test_bad_magic(tmp_path, rng):
    a = random_tensor(rng, 2, 2, 2)
    path = tmp_path / "a.t3b"
    write_t3b(a, path)
    blob = bytearray(path.read_bytes())
    blob[0] = 0x58
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedFile):
        read_t3b(path)


def test_checksum_mismatch(tmp_path, rng):
    a = random_tensor(rng, 2, 2, 2)
    path = tmp_path / "a.t3b"
    write_t3b(a, path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedFile, match="checksum"):
        read_t3b(path)


def test_dimension_overflow(tmp_path):
    import zlib

    from tubal.tensorio import _DIMS, _HEADER, MAGIC, VERSION

    body = _DIMS.pack(2**40, 2**40, 2**40, 0)
    header = _HEADER.pack(MAGIC, VERSION, zlib.crc32(body) & 0xFFFFFFFF, 0)
    path = tmp_path / "huge.t3b"
    path.write_bytes(header + body)
    with pytest.raises(MalformedFile, match="overflow"):
        read_t3b(path)


def test_size_checked_before_body_is_read(tmp_path, rng, monkeypatch):
    import zlib

    from tubal.tensorio import _DIMS, _HEADER, MAGIC, VERSION

    a = random_tensor(rng, 2, 2, 2)
    path = tmp_path / "a.t3b"
    write_t3b(a, path)
    blob = path.read_bytes()
    # claim one more row than the entries the file holds
    body = _DIMS.pack(3, 2, 2, 0) + blob[_HEADER.size + _DIMS.size :]
    header = _HEADER.pack(MAGIC, VERSION, zlib.crc32(body) & 0xFFFFFFFF, 0)
    path.write_bytes(header + body)

    def refuse(self):
        raise AssertionError("the body was read before the size check")

    monkeypatch.setattr(type(path), "read_bytes", refuse)
    with pytest.raises(MalformedFile, match="does not match dimensions"):
        read_t3b(path)


def test_json_rejects_garbage(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{not json")
    with pytest.raises(MalformedFile):
        read_json(path)
    path.write_text('{"format": "something-else"}')
    with pytest.raises(MalformedFile):
        read_json(path)


def test_unknown_suffix(tmp_path, rng):
    a = random_tensor(rng, 2, 2, 2)
    with pytest.raises(ValueError) as write_err:
        write_tensor(a, tmp_path / "a.npz")
    with pytest.raises(ValueError) as read_err:
        read_tensor(tmp_path / "a.npz")
    for err in (write_err, read_err):
        assert isinstance(err.value, TubalError)
        assert isinstance(err.value, UnknownFormat)
    assert not (tmp_path / "a.npz").exists()


@pytest.mark.parametrize(
    "first, second",
    [
        ("a longer first text\n" * 50, b"short"),
        (b"\x00\xff" * 4096, "short, \u00e9\n"),
        ("0123456789", ""),
        (b"", b"grown"),
    ],
    ids=["bytes-over-text", "text-over-bytes", "empty", "longer"],
)
def test_write_file_leaves_exactly_the_new_bytes(tmp_path, first, second):
    path = tmp_path / "f"
    write_file(path, first)
    write_file(str(path), second)
    expect = second.encode("utf-8") if isinstance(second, str) else second
    assert path.read_bytes() == expect


@pytest.mark.parametrize("suffix", [".t3b", ".json"])
def test_write_tensor_twice_roundtrips(tmp_path, rng, suffix):
    big = random_tensor(rng, 6, 5, 7)
    small = random_tensor(rng, 2, 3, 2, real=True)
    path = tmp_path / f"a{suffix}"
    for t in (big, small, big, small):
        write_tensor(t, path)
        back = read_tensor(path)
        assert back.is_real == t.is_real
        assert np.array_equal(_bits(back), _bits(t))
    fresh = tmp_path / f"fresh{suffix}"
    write_tensor(small, fresh)
    assert path.read_bytes() == fresh.read_bytes()


def _opens_for_writing(call):
    """Whether an ``ast.Call`` writes a file: ``write_text``, ``write_bytes``,
    or an ``open`` (builtin, ``io``, ``os`` or ``Path``) in a write mode."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    modes = list(call.args[1:] if isinstance(func, ast.Name) else call.args)
    modes += [kw.value for kw in call.keywords if kw.arg in ("mode", "flags")]
    for mode in modes:
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            if set(mode.value) <= set("rwxabt+") and set(mode.value) & set("wxa+"):
                return True
        elif any(
            isinstance(node, ast.Attribute) and node.attr in ("O_WRONLY", "O_RDWR")
            for node in ast.walk(mode)
        ):
            return True
    return False


def test_every_write_goes_through_write_file():
    src = Path(tubal.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = set()
        if path.name == "tensorio.py":
            fn = next(
                n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "write_file"
            )
            helper = set(range(fn.lineno, fn.end_lineno + 1))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                found.append((path.name, node.lineno, node.lineno in helper))
    # the helper's own two opens are seen, and nothing else writes
    assert [f for f in found if f[2]] and [f for f in found if not f[2]] == []
