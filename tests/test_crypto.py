"""Unit tests for the encryption substrate and the mutual handshake."""

import pytest

import hashlib
import hmac

from repro.crypto import (
    ClientHandshake,
    SealedPayload,
    SessionCipher,
    ServerHandshake,
    derive_session_key,
    derive_user_key,
    fresh_nonce,
    keystream,
    open_sealed,
    seal,
    unseal,
)
from repro.errors import AuthenticationFailure, IntegrityError


class TestCipher:
    def test_seal_unseal_roundtrip(self):
        key = derive_user_key("u", "pw")
        sealed = seal(key, b"12345678", b"secret payload")
        assert unseal(key, sealed) == b"secret payload"

    def test_ciphertext_differs_from_plaintext(self):
        key = derive_user_key("u", "pw")
        sealed = seal(key, b"12345678", b"secret payload")
        assert b"secret payload" not in sealed

    def test_wrong_key_detected(self):
        sealed = seal(derive_user_key("u", "pw"), b"12345678", b"data")
        with pytest.raises(IntegrityError):
            unseal(derive_user_key("u", "other"), sealed)

    def test_tampering_detected(self):
        key = derive_user_key("u", "pw")
        sealed = bytearray(seal(key, b"12345678", b"data"))
        sealed[10] ^= 0xFF
        with pytest.raises(IntegrityError):
            unseal(key, bytes(sealed))

    def test_truncated_message_detected(self):
        key = derive_user_key("u", "pw")
        with pytest.raises(IntegrityError):
            unseal(key, b"short")

    def test_empty_plaintext(self):
        key = derive_user_key("u", "pw")
        assert unseal(key, seal(key, b"12345678", b"")) == b""

    def test_bad_nonce_length_rejected(self):
        with pytest.raises(ValueError):
            seal(b"k" * 32, b"short", b"data")

    def test_keystream_deterministic(self):
        assert keystream(b"k", b"n", 64) == keystream(b"k", b"n", 64)
        assert keystream(b"k", b"n", 64) != keystream(b"k", b"m", 64)


class TestSessionCipher:
    def test_roundtrip_between_directions(self):
        key = derive_session_key(b"k" * 32, b"cn", b"sn")
        sender = SessionCipher(key, direction=0)
        sealed = sender.encrypt(b"message one")
        receiver = SessionCipher(key, direction=1)
        assert receiver.decrypt(sealed) == b"message one"

    def test_nonces_never_repeat(self):
        cipher = SessionCipher(b"k" * 32)
        first = cipher.encrypt(b"same")
        second = cipher.encrypt(b"same")
        assert first != second

    def test_byte_accounting(self):
        cipher = SessionCipher(b"k" * 32)
        cipher.encrypt(b"12345")
        assert cipher.bytes_encrypted == 5

    def test_nonces_monotonic_and_disjoint_across_directions(self):
        key = b"k" * 32
        forward = SessionCipher(key, direction=0)
        backward = SessionCipher(key, direction=1)
        forward_nonces = [forward.encrypt(b"m")[:8] for _ in range(4)]
        backward_nonces = [backward.encrypt(b"m")[:8] for _ in range(4)]
        # Strictly increasing counters within each direction...
        assert forward_nonces == sorted(set(forward_nonces))
        assert backward_nonces == sorted(set(backward_nonces))
        # ...and the direction byte keeps the two streams disjoint forever.
        assert all(nonce[0] == 0 for nonce in forward_nonces)
        assert all(nonce[0] == 1 for nonce in backward_nonces)
        assert not set(forward_nonces) & set(backward_nonces)


class TestPayloadFastPath:
    """The opt-in SealedPayload path used for whole-file transfer."""

    KEY = derive_session_key(b"k" * 32, b"cn", b"sn")

    def test_fast_path_roundtrip(self):
        cipher = SessionCipher(self.KEY, direction=0)
        sealed = cipher.seal_payload(b"whole file body")
        assert isinstance(sealed, SealedPayload)
        assert open_sealed(self.KEY, sealed) == b"whole file body"

    def test_wire_bytes_identical_to_slow_path(self):
        # Two ciphers in the same state must produce byte-for-byte the same
        # wire message whether or not the fast path is used.
        slow = SessionCipher(self.KEY, direction=0)
        fast = SessionCipher(self.KEY, direction=0)
        data = b"payload" * 999
        assert bytes(fast.seal_payload(data)) == slow.encrypt(data)

    def test_plain_bytes_still_open(self):
        # A receiver holding only the wire bytes (no SealedPayload object)
        # opens the message through the full unseal.
        cipher = SessionCipher(self.KEY, direction=0)
        sealed = bytes(cipher.seal_payload(b"over the wire"))
        assert open_sealed(self.KEY, sealed) == b"over the wire"

    def test_tampering_detected_despite_remembered_plaintext(self):
        cipher = SessionCipher(self.KEY, direction=0)
        sealed = cipher.seal_payload(b"data")
        mutated = bytearray(sealed)
        mutated[10] ^= 0xFF
        tampered = SealedPayload(bytes(mutated))
        tampered.plain = sealed.plain  # an attacker can't fake the MAC
        with pytest.raises(IntegrityError):
            open_sealed(self.KEY, tampered)

    def test_wrong_key_rejected(self):
        cipher = SessionCipher(self.KEY, direction=0)
        sealed = cipher.seal_payload(b"data")
        with pytest.raises(IntegrityError):
            open_sealed(derive_session_key(b"x" * 32, b"cn", b"sn"), sealed)

    def test_open_payload_counts_bytes(self):
        sender = SessionCipher(self.KEY, direction=0)
        receiver = SessionCipher(self.KEY, direction=0)
        receiver.open_payload(sender.seal_payload(b"12345"))
        assert receiver.bytes_decrypted == 5


# Independent per-byte reference for the cipher: SHAKE-256 written out from
# FIPS 202 (Keccak-f[1600] sponge, rate 136, domain suffix 0x1F) and a
# byte-at-a-time XOR.  The one-squeeze implementation must produce and
# accept exactly these bytes.

_ROUND_CONSTANTS = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]
_ROTATIONS = [[0, 36, 3, 41, 18], [1, 44, 10, 45, 2], [62, 6, 43, 15, 61],
              [28, 55, 25, 21, 56], [27, 20, 39, 8, 14]]
_MASK64 = (1 << 64) - 1
_RATE = 136


def _rol(value, shift):
    return ((value << shift) | (value >> (64 - shift))) & _MASK64 if shift else value


def _keccak_f(lanes):
    for constant in _ROUND_CONSTANTS:
        parity = [lanes[x][0] ^ lanes[x][1] ^ lanes[x][2] ^ lanes[x][3] ^ lanes[x][4]
                  for x in range(5)]
        for x in range(5):
            d = parity[(x - 1) % 5] ^ _rol(parity[(x + 1) % 5], 1)
            for y in range(5):
                lanes[x][y] ^= d
        moved = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                moved[y][(2 * x + 3 * y) % 5] = _rol(lanes[x][y], _ROTATIONS[x][y])
        for x in range(5):
            for y in range(5):
                lanes[x][y] = moved[x][y] ^ (~moved[(x + 1) % 5][y] & moved[(x + 2) % 5][y])
        lanes[0][0] ^= constant


def _reference_shake256(message, length):
    padded = bytearray(message) + b"\x1f"
    padded += b"\x00" * (-len(padded) % _RATE)
    padded[-1] |= 0x80
    lanes = [[0] * 5 for _ in range(5)]
    for offset in range(0, len(padded), _RATE):
        for i in range(_RATE // 8):
            lane = int.from_bytes(padded[offset + 8 * i:offset + 8 * i + 8], "little")
            lanes[i % 5][i // 5] ^= lane
        _keccak_f(lanes)
    out = bytearray()
    while True:
        for i in range(_RATE // 8):
            out += lanes[i % 5][i // 5].to_bytes(8, "little")
        if len(out) >= length:
            return bytes(out[:length])
        _keccak_f(lanes)


def _reference_keystream(key, nonce, length):
    return _reference_shake256(key + nonce, length)


def _reference_seal(key, nonce, plaintext):
    stream = _reference_keystream(key, nonce, len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = hmac.new(key, nonce + ciphertext, hashlib.sha256).digest()[:16]
    return nonce + ciphertext + tag


def _reference_unseal(key, sealed):
    nonce, tag = sealed[:8], sealed[-16:]
    ciphertext = sealed[8:-16]
    assert hmac.compare_digest(tag, hmac.new(key, nonce + ciphertext, hashlib.sha256).digest()[:16])
    stream = _reference_keystream(key, nonce, len(ciphertext))
    return bytes(c ^ s for c, s in zip(ciphertext, stream))


class TestWireCompatibility:
    """The one-squeeze cipher speaks the per-byte reference's format."""

    KEY = derive_user_key("u", "pw")
    NONCE = b"\x00nonce!!"

    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 4096, 65_536 + 7])
    def test_keystream_matches_reference(self, size):
        assert keystream(self.KEY, self.NONCE, size) == _reference_keystream(
            self.KEY, self.NONCE, size
        )

    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 4096, 65_536 + 7])
    def test_sealed_length_is_framing_plus_plaintext(self, size):
        assert len(seal(self.KEY, self.NONCE, bytes(size))) == 8 + size + 16

    @pytest.mark.parametrize("size", [0, 1, 500, 65_536])
    def test_old_seal_opens_under_new_unseal(self, size):
        data = bytes(i & 0xFF for i in range(size))
        assert unseal(self.KEY, _reference_seal(self.KEY, self.NONCE, data)) == data

    @pytest.mark.parametrize("size", [0, 1, 500, 65_536])
    def test_new_seal_opens_under_old_unseal(self, size):
        data = bytes((i * 7) & 0xFF for i in range(size))
        assert _reference_unseal(self.KEY, seal(self.KEY, self.NONCE, data)) == data

    def test_sealed_bytes_identical(self):
        data = b"the quick brown fox" * 100
        assert seal(self.KEY, self.NONCE, data) == _reference_seal(
            self.KEY, self.NONCE, data
        )


class TestKeys:
    def test_derive_user_key_depends_on_both_parts(self):
        assert derive_user_key("a", "pw") != derive_user_key("b", "pw")
        assert derive_user_key("a", "pw") != derive_user_key("a", "pw2")

    def test_session_key_binds_both_nonces(self):
        base = derive_session_key(b"k", b"c1", b"s1")
        assert base != derive_session_key(b"k", b"c2", b"s1")
        assert base != derive_session_key(b"k", b"c1", b"s2")

    def test_fresh_nonce_distinct_by_seed(self):
        assert fresh_nonce(b"a") != fresh_nonce(b"b")
        assert len(fresh_nonce(b"a")) == 16


def complete_handshake(client_key, server_key_db, entropy=b"e"):
    client = ClientHandshake("alice", client_key, entropy)
    server = ServerHandshake(lambda user: server_key_db[user], entropy + b"2")
    username, hello = client.hello()
    challenge = server.respond(username, hello)
    confirm = client.verify_server(challenge)
    server.verify_client(confirm)
    return client, server


class TestHandshake:
    def test_mutual_authentication_agrees_on_session_key(self):
        key = derive_user_key("alice", "pw")
        client, server = complete_handshake(key, {"alice": key})
        assert client.session_key == server.session_key
        assert client.session_key is not None
        assert server.username == "alice"

    def test_wrong_client_key_rejected_by_server(self):
        right = derive_user_key("alice", "pw")
        wrong = derive_user_key("alice", "guess")
        client = ClientHandshake("alice", wrong, b"e")
        server = ServerHandshake(lambda user: {"alice": right}[user], b"e2")
        username, hello = client.hello()
        with pytest.raises(AuthenticationFailure):
            server.respond(username, hello)

    def test_unknown_user_rejected_identically(self):
        client = ClientHandshake("mallory", derive_user_key("mallory", "x"), b"e")
        server = ServerHandshake(lambda user: {"alice": b"k" * 32}[user], b"e2")
        username, hello = client.hello()
        with pytest.raises(AuthenticationFailure, match="authentication failed"):
            server.respond(username, hello)

    def test_impostor_server_rejected_by_client(self):
        real = derive_user_key("alice", "pw")
        fake = derive_user_key("alice", "evil")
        client = ClientHandshake("alice", real, b"e")
        impostor = ServerHandshake(lambda user: fake, b"e2")
        username, hello = client.hello()
        # The impostor cannot even read the challenge, but suppose it
        # replies with garbage of the right shape:
        with pytest.raises(AuthenticationFailure):
            impostor.respond(username, hello)

    def test_replayed_challenge_rejected(self):
        key = derive_user_key("alice", "pw")
        # A past exchange an eavesdropper recorded:
        _old_client, old_server = complete_handshake(key, {"alice": key}, b"old")
        # New client session; attacker replays the old server response.
        client = ClientHandshake("alice", key, b"new")
        client.hello()
        old_response = None
        # Regenerate the old exchange's message 2 verbatim:
        replay_client = ClientHandshake("alice", key, b"old")
        replay_server = ServerHandshake(lambda user: key, b"old2")
        username, hello = replay_client.hello()
        old_response = replay_server.respond(username, hello)
        with pytest.raises(AuthenticationFailure, match="replay"):
            client.verify_server(old_response)

    def test_client_confirm_cannot_be_faked(self):
        key = derive_user_key("alice", "pw")
        client = ClientHandshake("alice", key, b"e")
        server = ServerHandshake(lambda user: key, b"e2")
        username, hello = client.hello()
        server.respond(username, hello)
        with pytest.raises(AuthenticationFailure):
            server.verify_client(b"not a valid confirmation")

    def test_out_of_order_confirm_rejected(self):
        server = ServerHandshake(lambda user: b"k" * 32, b"e")
        with pytest.raises(AuthenticationFailure, match="out of order"):
            server.verify_client(b"anything")

    def test_password_never_appears_on_wire(self):
        password = "super-secret-password"
        key = derive_user_key("alice", password)
        client = ClientHandshake("alice", key, b"e")
        server = ServerHandshake(lambda user: key, b"e2")
        username, hello = client.hello()
        challenge = server.respond(username, hello)
        confirm = client.verify_server(challenge)
        wire = hello + challenge + confirm
        assert password.encode() not in wire
        assert key not in wire
