"""Property-based tests: the cipher's contract under arbitrary inputs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import SealedPayload, SessionCipher, keystream, open_sealed, seal, unseal
from repro.errors import IntegrityError

keys = st.binary(min_size=16, max_size=48)
nonces = st.binary(min_size=8, max_size=8)
plaintexts = st.binary(max_size=2048)


@given(keys, nonces, plaintexts)
@settings(max_examples=200)
def test_seal_unseal_roundtrip(key, nonce, plaintext):
    sealed = seal(key, nonce, plaintext)
    assert len(sealed) == 8 + len(plaintext) + 16  # nonce, ciphertext, tag
    assert unseal(key, sealed) == plaintext


@given(keys, keys, nonces, plaintexts)
def test_wrong_key_always_detected(key, other, nonce, plaintext):
    if key == other:
        return
    sealed = seal(key, nonce, plaintext)
    with pytest.raises(IntegrityError):
        unseal(other, sealed)


@given(keys, nonces, plaintexts, st.integers(min_value=0, max_value=10_000), st.integers(1, 255))
def test_single_byte_tamper_always_detected(key, nonce, plaintext, position, flip):
    sealed = bytearray(seal(key, nonce, plaintext))
    index = position % len(sealed)
    sealed[index] ^= flip
    with pytest.raises(IntegrityError):
        unseal(key, bytes(sealed))


@given(keys, nonces, plaintexts)
def test_ciphertext_hides_plaintext(key, nonce, plaintext):
    if len(plaintext) < 16:
        return  # tiny strings can collide with nonce/tag bytes by chance
    sealed = seal(key, nonce, plaintext)
    body = sealed[8:]  # skip the cleartext nonce, which the caller chose
    assert plaintext not in body


@given(keys, nonces, st.integers(min_value=0, max_value=512))
def test_keystream_length_and_determinism(key, nonce, length):
    stream = keystream(key, nonce, length)
    assert len(stream) == length
    assert stream == keystream(key, nonce, length)


@given(keys, nonces, st.integers(min_value=0, max_value=512),
       st.integers(min_value=0, max_value=512))
def test_keystream_prefix_property(key, nonce, short, extra):
    """An XOF stream: a shorter request is a prefix of a longer one."""
    assert keystream(key, nonce, short + extra)[:short] == keystream(key, nonce, short)


@given(keys, nonces, plaintexts, st.sampled_from(["nonce", "ciphertext", "tag"]),
       st.integers(min_value=0, max_value=10_000), st.integers(0, 7),
       st.booleans())
def test_single_bit_flip_in_any_field_detected(key, nonce, plaintext, field,
                                               position, bit, remembers_plain):
    """Nonce, ciphertext and tag are all authenticated — also for a
    SealedPayload that carries its plaintext past the keystream."""
    sealed = bytearray(seal(key, nonce, plaintext))
    start, length = {"nonce": (0, 8), "ciphertext": (8, len(plaintext)),
                     "tag": (8 + len(plaintext), 16)}[field]
    if length == 0:
        return  # empty plaintext: no ciphertext byte to flip
    sealed[start + position % length] ^= 1 << bit
    damaged = bytes(sealed)
    if remembers_plain:
        damaged = SealedPayload(damaged)
        damaged.plain = plaintext
    with pytest.raises(IntegrityError):
        open_sealed(key, damaged)


def test_keystream_is_not_memoised():
    """payload_fast_path=False must mean a full pass per hop: no cache may
    stand between a receiver and the keystream derivation."""
    assert not hasattr(keystream, "cache_info")
    assert not hasattr(keystream, "__wrapped__")


@given(keys, plaintexts, plaintexts)
def test_session_cipher_directions_never_collide(key, first, second):
    """Two messages (even identical) from one cipher differ on the wire,
    and each direction decrypts the other's traffic correctly."""
    key = (key * 3)[:32]
    a_to_b = SessionCipher(key, direction=0)
    b_side = SessionCipher(key, direction=1)
    wire_one = a_to_b.encrypt(first)
    wire_two = a_to_b.encrypt(first)
    assert wire_one != wire_two
    assert b_side.decrypt(wire_one) == first
    assert b_side.decrypt(wire_two) == first
    back = b_side.encrypt(second)
    assert a_to_b.decrypt(back) == second
