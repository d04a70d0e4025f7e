"""A real (toy-strength) symmetric cipher with message integrity.

The paper's security argument does not depend on cipher strength — it
depends on *where* encryption sits: every Vice-Virtue connection is
encrypted end to end with a per-session key, so an exposed campus LAN
reveals nothing.  We therefore implement a genuine keystream cipher (the
SHAKE-256 extendable-output function keyed with ``key || nonce``) with an
appended MAC, strong enough that tests can prove the properties the design
relies on: ciphertext differs from plaintext, decryption with the wrong key
fails loudly, and tampering is detected.

The simulation's data path costs O(1) Python operations per message rather
than O(bytes): the keystream is one squeeze of the XOF (a single C call at
any length) XORed against the whole buffer as one big integer.  What is
pinned is the framing — ``nonce(8) || ciphertext(n) || tag(16)``,
encrypt-then-MAC — and therefore every message length; the keystream bytes
themselves are an implementation detail, since no sealed byte outlives the
process that sealed it.

Do not use this module outside the simulation; it is a protocol model, not
audited cryptography.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Optional

from repro.errors import IntegrityError

__all__ = [
    "SealedPayload",
    "SessionCipher",
    "keystream",
    "mac",
    "open_sealed",
    "seal",
    "unseal",
]

_MAC_BYTES = 16
_NONCE_BYTES = 8


def keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Deterministic keystream of ``length`` bytes from (key, nonce).

    One squeeze of ``SHAKE256(key || nonce)``.  Deliberately unmemoised: a
    receiver that holds only wire bytes pays a full pass to open them,
    which is what ``payload_fast_path=False`` exists to measure.
    """
    return hashlib.shake_256(key + nonce).digest(length)


def _xor(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length buffers in O(1) Python operations."""
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    ).to_bytes(len(data), "little")


def mac(key: bytes, data: bytes) -> bytes:
    """Message authentication code over ``data``."""
    return hmac.new(key, data, hashlib.sha256).digest()[:_MAC_BYTES]


def seal(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt-then-MAC: returns ``nonce || ciphertext || tag``."""
    if len(nonce) != _NONCE_BYTES:
        raise ValueError(f"nonce must be {_NONCE_BYTES} bytes")
    framed = nonce + _xor(plaintext, keystream(key, nonce, len(plaintext)))
    return framed + mac(key, framed)


def _verify(key: bytes, sealed: bytes) -> memoryview:
    """Check framing and the MAC; returns a view of the ciphertext."""
    if len(sealed) < _NONCE_BYTES + _MAC_BYTES:
        raise IntegrityError("sealed message too short")
    view = memoryview(sealed)
    tag = view[-_MAC_BYTES:]
    if not hmac.compare_digest(tag, mac(key, view[:-_MAC_BYTES])):
        raise IntegrityError("message failed integrity check (wrong key or tampering)")
    return view[_NONCE_BYTES:-_MAC_BYTES]


def unseal(key: bytes, sealed: bytes) -> bytes:
    """Verify and decrypt a :func:`seal` output; raises on tampering/bad key."""
    ciphertext = _verify(key, sealed)
    stream = keystream(key, bytes(sealed[:_NONCE_BYTES]), len(ciphertext))
    return _xor(ciphertext, stream)


class SealedPayload(bytes):
    """:func:`seal` output that remembers its in-process plaintext.

    On the wire this *is* the sealed byte string — length, framing and
    content are exactly what :func:`seal` produced, and a peer holding only
    the bytes can :func:`unseal` it.  But when the same Python object
    reaches the receiving end of a simulated connection, :func:`open_sealed`
    can verify the MAC (one C-speed pass) and hand back the remembered
    plaintext without re-deriving the keystream — the whole-file fast path:
    payload bytes are sealed once, not re-materialized per hop.
    """

    plain: Optional[bytes] = None


def open_sealed(key: bytes, sealed: bytes) -> bytes:
    """Verify and open ``sealed``, skipping decryption when it carries its
    plaintext (see :class:`SealedPayload`); otherwise a plain :func:`unseal`.

    Tampering anywhere in the wire bytes — or a wrong key — still raises
    :class:`~repro.errors.IntegrityError`: the MAC is always checked against
    the actual bytes received.
    """
    plain = getattr(sealed, "plain", None)
    if plain is None:
        return unseal(key, sealed)
    _verify(key, sealed)
    return plain


class SessionCipher:
    """Per-connection encryption state with monotonically increasing nonces.

    Each direction of a connection holds its own :class:`SessionCipher`
    seeded with the session key from the authentication handshake; nonce
    reuse (which would let an eavesdropper XOR two ciphertexts) is
    structurally impossible because the counter only moves forward.
    """

    def __init__(self, session_key: bytes, direction: int = 0):
        self.session_key = session_key
        self._counter = 0
        self._direction = direction & 0xFF
        self.bytes_encrypted = 0
        self.bytes_decrypted = 0

    def _next_nonce(self) -> bytes:
        nonce = self._direction.to_bytes(1, "big") + self._counter.to_bytes(7, "big")
        self._counter += 1
        return nonce

    def encrypt(self, plaintext: bytes) -> bytes:
        """Seal ``plaintext`` under the next nonce."""
        self.bytes_encrypted += len(plaintext)
        return seal(self.session_key, self._next_nonce(), plaintext)

    def decrypt(self, sealed: bytes) -> bytes:
        """Verify and open a message sealed by the peer."""
        plaintext = unseal(self.session_key, sealed)
        self.bytes_decrypted += len(plaintext)
        return plaintext

    # -- opt-in whole-file fast path --------------------------------------

    def seal_payload(self, plaintext: bytes) -> SealedPayload:
        """Like :meth:`encrypt`, but the result remembers its plaintext so
        the in-process receiver can open it without a second keystream pass."""
        self.bytes_encrypted += len(plaintext)
        sealed = SealedPayload(seal(self.session_key, self._next_nonce(), plaintext))
        sealed.plain = plaintext
        return sealed

    def open_payload(self, sealed: bytes) -> bytes:
        """Verify and open a payload; MAC-only when the fast path applies."""
        plaintext = open_sealed(self.session_key, sealed)
        self.bytes_decrypted += len(plaintext)
        return plaintext
