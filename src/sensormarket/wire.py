"""Canonical byte layout helpers.

All integers are little-endian fixed width; variable-length byte strings are
prefixed with a u16 length; lists are prefixed with a u16 element count.
This layout is the golden-file format for transactions and blocks.
"""

from __future__ import annotations

import struct

from .errors import MalformedTx


def _packer(fmt: str):
    pack = struct.Struct(fmt).pack

    def packer(n):
        try:
            return pack(n)
        except struct.error as exc:  # out of range or not a number
            raise MalformedTx(f"{n!r} does not fit {fmt}") from exc

    return packer


u8 = _packer("<B")
u16 = _packer("<H")
u32 = _packer("<I")
u64 = _packer("<Q")
f64 = _packer("<d")


def flag(value: bool) -> bytes:
    """One byte, 0 or 1: the only encodings `Reader.flag` accepts."""
    if not isinstance(value, bool):
        raise MalformedTx(f"{value!r} is not a flag")
    return b"\x01" if value else b"\x00"


def varbytes(b: bytes) -> bytes:
    return u16(len(b)) + b


class Reader:
    """Sequential reader over a canonical byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise MalformedTx("unexpected end of serialized data")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self.read(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.read(2))[0]

    def flag(self) -> bool:
        """A presence or boolean flag: exactly 0 or 1, so it re-encodes as read."""
        byte = self.u8()
        if byte > 1:
            raise MalformedTx(f"flag byte {byte:#04x} is neither 0 nor 1")
        return byte == 1

    def u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.read(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.read(8))[0]

    def varbytes(self) -> bytes:
        return self.read(self.u16())

    def text(self) -> str:
        try:
            return self.varbytes().decode()
        except UnicodeDecodeError as exc:
            raise MalformedTx("text is not valid UTF-8") from exc

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise MalformedTx("trailing bytes after serialized value")
