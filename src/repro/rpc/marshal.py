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

:func:`wire_size` is the exact length of :func:`dumps` without building
anything: such an object counts as its ``len()``.  A :class:`Marshalled`
value travels by reference, standing for its marshalled form: its length
is sized, and its bytes are built only where something asks for them (a
seal that runs the cipher).  :func:`carried` is the receiving end.
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Tuple

from repro.errors import ReproError

__all__ = ["MarshalError", "Marshalled", "carried", "dumps", "loads", "wire_size"]

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
# What the packers above accept: an int64, and a 32-bit length.
_INT_MIN, _INT_MAX = -(2 ** 63), 2 ** 63 - 1
_MAX_LENGTH = 2 ** 32 - 1


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
    """Exactly ``len(dumps(value))``, counted without building anything.

    It raises :class:`MarshalError` on exactly the values :func:`dumps`
    rejects, and an object that stands for bytes counts as the length
    prefix plus its ``len()``: its ``__bytes__`` is never called.
    """
    return _size(value)


def _size(value: Any, kind: Any = None) -> int:
    # _encode's dispatch, adding up what it would append.  Dict keys and
    # the commonest dict values and list items (ASCII strings and ints)
    # are counted in the loop, without a call each.
    if kind is None:
        kind = type(value)
    if kind is str:
        length = len(value) if value.isascii() else _utf8_length(value)
    elif kind is int:
        if not _INT_MIN <= value <= _INT_MAX:
            raise MarshalError(f"value out of range: {value} is not an int64")
        return 9
    elif kind is dict:
        length = len(value)
        total = 5
        for key, item in value.items():
            if type(key) is not str and not isinstance(key, str):
                raise MarshalError(f"dict keys must be str, got {type(key).__name__}")
            size = len(key) if key.isascii() else _utf8_length(key)
            item_kind = type(item)
            if item_kind is str and item.isascii():
                item_size = len(item)
                total += 10 + size + item_size
                if item_size > size:
                    size = item_size
            elif item_kind is int and _INT_MIN <= item <= _INT_MAX:
                total += 14 + size
            else:
                total += 5 + size + _size(item, item_kind)
            if size > length:
                length = size
    elif kind is bool or value is None:
        return 1
    elif kind is float:
        return 9
    elif kind is bytes or kind is bytearray:
        length = len(value)
    elif kind is list or kind is tuple:
        length = len(value)
        total = 5
        for item in value:
            item_kind = type(item)
            if item_kind is str and item.isascii():
                item_size = len(item)
                total += 5 + item_size
                if item_size > length:
                    length = item_size
            elif item_kind is int and _INT_MIN <= item <= _INT_MAX:
                total += 9
            else:
                total += _size(item, item_kind)
    else:
        base = next((base for base in _BASES if isinstance(value, base)), None)
        if base is not None:
            return _size(value, base)
        if not hasattr(kind, "__bytes__"):
            raise MarshalError(f"cannot marshal {kind.__name__}")
        # What stands for bytes knows its length: it is not built here.
        length = len(value) if hasattr(kind, "__len__") else len(bytes(value))
    if length > _MAX_LENGTH:
        raise MarshalError(f"value out of range: a length of {length} past 2**32")
    if kind is dict or kind is list or kind is tuple:
        return total
    return 5 + length


def _utf8_length(text: str) -> int:
    try:
        return len(text.encode("utf-8"))
    except UnicodeEncodeError as exc:  # a lone surrogate has no UTF-8 form
        raise MarshalError(f"string not encodable as UTF-8: {exc.reason}") from None


class Marshalled:
    """``value`` on its way to the wire, by reference.

    ``len()`` is its exact marshalled length, :func:`wire_size`, and
    ``bytes()`` is :func:`dumps`, built per call and never kept; whichever
    comes first records the length in ``size`` (None until then), so it
    is counted once.  A charged connection only sizes it and hands the
    value itself to the receiver; a seal that runs the cipher builds it.
    Whoever receives the value shares it, so nobody may mutate it: what
    it holds is replaced, never edited in place.
    """

    __slots__ = ("value", "size")

    def __init__(self, value: Any):
        self.value = value
        self.size: Optional[int] = None

    def __len__(self) -> int:
        if self.size is None:
            self.size = _size(self.value)
        return self.size

    def __bytes__(self) -> bytes:
        data = dumps(self.value)
        self.size = len(data)
        return data


def carried(data: Any) -> Any:
    """The value a received message part carries: a :class:`Marshalled`'s
    own, by reference, or parsed by :func:`loads` from the bytes a full
    open hands back."""
    if type(data) is Marshalled:
        return data.value
    return loads(data)
