"""A small self-describing binary marshalling format (the system's "XDR").

RPC arguments and results really are serialized to bytes and parsed back —
the encrypted connection carries these bytes, so tests can demonstrate that
an eavesdropper on the LAN sees only ciphertext while the endpoints see
structured values.

Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
``list``, ``tuple`` (decoded as list) and ``dict`` with ``str`` keys.  Each
value is a one-byte tag followed by a fixed or length-prefixed body.  An
object that stands for bytes — one with ``__bytes__``, such as an unbuilt
``ProvisionedBody`` or ``ProvisionedFragment`` — is written as the bytes
it stands for, and decodes as ``bytes``.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from repro.errors import ReproError

__all__ = ["MarshalError", "dumps", "loads", "wire_size"]

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"

# Integer forms of the tags for the decoder (data[i] yields an int) and
# pre-compiled structs; both avoid per-value parsing work on the hot path.
_ORD_NONE, _ORD_TRUE, _ORD_FALSE = _TAG_NONE[0], _TAG_TRUE[0], _TAG_FALSE[0]
_ORD_INT, _ORD_FLOAT, _ORD_STR = _TAG_INT[0], _TAG_FLOAT[0], _TAG_STR[0]
_ORD_BYTES, _ORD_LIST, _ORD_DICT = _TAG_BYTES[0], _TAG_LIST[0], _TAG_DICT[0]
_PACK_Q = struct.Struct(">q").pack
_PACK_D = struct.Struct(">d").pack
_PACK_I = struct.Struct(">I").pack
_UNPACK_Q = struct.Struct(">q").unpack_from
_UNPACK_D = struct.Struct(">d").unpack_from
_UNPACK_I = struct.Struct(">I").unpack_from


class MarshalError(ReproError):
    """Unsupported type or corrupt buffer."""


def dumps(value: Any) -> bytes:
    """Serialize ``value`` to bytes; raises :class:`MarshalError` for
    anything the format cannot carry."""
    out = bytearray()
    try:
        _encode(value, out)
    except struct.error as exc:  # an int outside int64, a length past 2**32
        raise MarshalError(f"value out of range: {exc}") from None
    except UnicodeEncodeError as exc:  # a lone surrogate has no UTF-8 form
        raise MarshalError(f"string not encodable as UTF-8: {exc.reason}") from None
    return bytes(out)


_BASES = (int, float, str, bytes, bytearray, list, tuple, dict)


def _encode(value: Any, out: bytearray, kind: Any = None) -> None:
    # Exact-type dispatch ordered by hot-path frequency (RPC records are
    # dicts of strings and ints); anything else is sorted out in the last
    # branch.  ``type(True) is bool``, so the ``is int`` arm cannot mis-tag
    # booleans.
    if kind is None:
        kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        out += _TAG_STR
        out += _PACK_I(len(raw))
        out += raw
    elif kind is int:
        out += _TAG_INT
        out += _PACK_Q(value)
    elif kind is dict:
        out += _TAG_DICT
        out += _PACK_I(len(value))
        for key, item in value.items():
            if type(key) is not str and not isinstance(key, str):
                raise MarshalError(f"dict keys must be str, got {type(key).__name__}")
            raw = key.encode("utf-8")
            out += _TAG_STR
            out += _PACK_I(len(raw))
            out += raw
            _encode(item, out)
    elif kind is bool:
        out += _TAG_TRUE if value else _TAG_FALSE
    elif value is None:
        out += _TAG_NONE
    elif kind is float:
        out += _TAG_FLOAT
        out += _PACK_D(value)
    elif kind is bytes or kind is bytearray:
        out += _TAG_BYTES
        out += _PACK_I(len(value))
        out += value
    elif kind is list or kind is tuple:
        out += _TAG_LIST
        out += _PACK_I(len(value))
        for item in value:
            _encode(item, out)
    else:
        # A subclass takes its base type's arm, and an object that stands
        # for bytes (an unbuilt provisioned body or fragment) is written as
        # those bytes, built here.
        base = next((base for base in _BASES if isinstance(value, base)), None)
        if base is not None:
            _encode(value, out, base)
        elif hasattr(kind, "__bytes__"):
            _encode(bytes(value), out)
        else:
            raise MarshalError(f"cannot marshal {kind.__name__}")


def loads(data: bytes) -> Any:
    """Parse bytes produced by :func:`dumps` back into a value."""
    value, offset = _decode(data, 0)
    if offset != len(data):
        raise MarshalError(f"{len(data) - offset} trailing bytes after value")
    return value


def _decode(data: bytes, offset: int) -> Tuple[Any, int]:
    size = len(data)
    if offset >= size:
        raise MarshalError("truncated buffer")
    tag = data[offset]
    offset += 1
    if tag == _ORD_STR:
        _check(data, offset, 4)
        length = _UNPACK_I(data, offset)[0]
        offset += 4
        _check(data, offset, length)
        return data[offset:offset + length].decode("utf-8"), offset + length
    if tag == _ORD_INT:
        _check(data, offset, 8)
        return _UNPACK_Q(data, offset)[0], offset + 8
    if tag == _ORD_DICT:
        _check(data, offset, 4)
        length = _UNPACK_I(data, offset)[0]
        offset += 4
        result = {}
        for _ in range(length):
            key, offset = _decode(data, offset)
            if not isinstance(key, str):
                raise MarshalError("corrupt dict key")
            value, offset = _decode(data, offset)
            result[key] = value
        return result, offset
    if tag == _ORD_NONE:
        return None, offset
    if tag == _ORD_TRUE:
        return True, offset
    if tag == _ORD_FALSE:
        return False, offset
    if tag == _ORD_FLOAT:
        _check(data, offset, 8)
        return _UNPACK_D(data, offset)[0], offset + 8
    if tag == _ORD_BYTES:
        _check(data, offset, 4)
        length = _UNPACK_I(data, offset)[0]
        offset += 4
        _check(data, offset, length)
        return data[offset:offset + length], offset + length
    if tag == _ORD_LIST:
        _check(data, offset, 4)
        length = _UNPACK_I(data, offset)[0]
        offset += 4
        items = []
        for _ in range(length):
            item, offset = _decode(data, offset)
            items.append(item)
        return items, offset
    raise MarshalError(f"unknown tag {bytes((tag,))!r}")


def _check(data: bytes, offset: int, length: int) -> None:
    if offset + length > len(data):
        raise MarshalError("truncated buffer")


def wire_size(value: Any) -> int:
    """Marshalled size in bytes without materialising the buffer twice."""
    return len(dumps(value))
