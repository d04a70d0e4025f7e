"""Unit tests for the binary marshalling format."""

import pytest

from repro.rpc import marshal
from repro.rpc.marshal import MarshalError


ROUNDTRIP_CASES = [
    None,
    True,
    False,
    0,
    -1,
    2**40,
    -(2**40),
    0.0,
    3.14159,
    -1e300,
    "",
    "hello",
    "uniçode ☃",
    b"",
    b"\x00\xff binary",
    [],
    [1, 2, 3],
    [None, True, "mix", b"ed"],
    {},
    {"key": "value"},
    {"nested": {"list": [1, [2, [3]]], "flag": False}},
    {"status": {"fid": "vol1.5", "size": 1024, "version": 2, "mtime": 1.5}},
]


@pytest.mark.parametrize("value", ROUNDTRIP_CASES, ids=repr)
def test_roundtrip(value):
    assert marshal.loads(marshal.dumps(value)) == value


def test_tuple_decodes_as_list():
    assert marshal.loads(marshal.dumps((1, 2))) == [1, 2]


def test_wire_size_matches_dumps():
    value = {"a": [1, 2, 3], "b": "text"}
    assert marshal.wire_size(value) == len(marshal.dumps(value))


def test_unsupported_type_rejected():
    with pytest.raises(MarshalError):
        marshal.dumps({"bad": object()})


def test_non_string_dict_key_rejected():
    with pytest.raises(MarshalError):
        marshal.dumps({1: "x"})


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, {"size": 2**64}],
                         ids=repr)
def test_int_outside_int64_rejected(value):
    with pytest.raises(MarshalError):
        marshal.dumps(value)


@pytest.mark.parametrize("value", ["\ud800", ["ok", "lone \udfff"],
                                   {"\ud800": 1}], ids=repr)
def test_unencodable_string_rejected(value):
    with pytest.raises(MarshalError):
        marshal.dumps(value)


def test_int64_edges_roundtrip():
    for value in (2**63 - 1, -(2**63)):
        assert marshal.loads(marshal.dumps(value)) == value


def test_trailing_bytes_rejected():
    data = marshal.dumps(42) + b"junk"
    with pytest.raises(MarshalError):
        marshal.loads(data)


def test_truncated_buffer_rejected():
    data = marshal.dumps("a longer string value")
    with pytest.raises(MarshalError):
        marshal.loads(data[:-3])


def test_empty_buffer_rejected():
    with pytest.raises(MarshalError):
        marshal.loads(b"")


def test_unknown_tag_rejected():
    with pytest.raises(MarshalError):
        marshal.loads(b"Z")


def test_int_boundaries():
    for value in (2**62, -(2**62)):
        assert marshal.loads(marshal.dumps(value)) == value


def test_large_bytes_payload():
    payload = bytes(range(256)) * 1000
    assert marshal.loads(marshal.dumps(payload)) == payload
