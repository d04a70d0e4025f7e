"""Property-based tests: marshalling round-trips arbitrary values."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rpc import marshal

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# Values the wire format supports, nested a few levels deep.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.floats(allow_nan=False),  # NaN != NaN breaks equality, by design
    st.text(max_size=64),
    st.binary(max_size=256),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=16), children, max_size=6),
    ),
    max_leaves=25,
)


@given(values)
@settings(max_examples=300)
def test_roundtrip_identity(value):
    assert marshal.loads(marshal.dumps(value)) == value


@given(values)
def test_wire_size_consistent(value):
    assert marshal.wire_size(value) == len(marshal.dumps(value))


# Integers on both sides of the int64 edges, the edges themselves included.
wide_integers = st.one_of(
    st.integers(min_value=2 * INT64_MIN, max_value=2 * INT64_MAX),
    st.sampled_from([INT64_MIN - 1, INT64_MIN, INT64_MAX, INT64_MAX + 1]),
)


@given(wide_integers, st.booleans())
def test_integers_past_int64_raise_marshal_error(number, nested):
    value = {"n": [number]} if nested else number
    if INT64_MIN <= number <= INT64_MAX:
        assert marshal.loads(marshal.dumps(value)) == value
        assert marshal.wire_size(value) == len(marshal.dumps(value))
    else:
        with pytest.raises(marshal.MarshalError):
            marshal.dumps(value)
        with pytest.raises(marshal.MarshalError):
            marshal.wire_size(value)


# List and tuple items of every kind, the ones the sizer counts in its
# loop (ASCII strings, int64s) beside ones it must refuse like dumps does.
list_items = st.one_of(
    scalars,
    wide_integers,
    st.text(alphabet=st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
            min_size=1, max_size=3),  # lone surrogates
    st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=16),
    st.dictionaries(st.text(max_size=4), scalars, max_size=3),
)


@given(st.lists(list_items, max_size=12), st.booleans())
def test_wire_size_of_mixed_sequences(items, as_tuple):
    """A list or tuple sizes exactly as it marshals, or both refuse it."""
    value = tuple(items) if as_tuple else items
    try:
        expected = len(marshal.dumps(value))
    except marshal.MarshalError:
        with pytest.raises(marshal.MarshalError):
            marshal.wire_size(value)
        return
    assert marshal.wire_size(value) == expected


@given(values, values)
def test_encoding_injective_on_unequal_values(a, b):
    if a != b:
        assert marshal.dumps(a) != marshal.dumps(b)


@given(st.binary(max_size=64))
def test_arbitrary_bytes_never_crash_loads(data):
    """loads() either returns a value or raises MarshalError — nothing else."""
    try:
        marshal.loads(data)
    except marshal.MarshalError:
        pass


@given(values, st.integers(min_value=1, max_value=8))
def test_truncation_always_detected(value, cut):
    data = marshal.dumps(value)
    if cut < len(data):
        try:
            decoded = marshal.loads(data[:-cut])
        except marshal.MarshalError:
            return
        # Truncation may accidentally decode (e.g. shorter string), but it
        # must never silently yield the original value.
        assert decoded != value or marshal.dumps(decoded) != data
