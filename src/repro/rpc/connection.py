"""Connection state shared by the two ends of an authenticated RPC channel.

"After mutual authentication Vice and Virtue communicate only via encrypted
messages" — a :class:`Connection` holds the session key produced by the
handshake and one :class:`~repro.crypto.cipher.SessionCipher` per direction.
Connections are *bidirectional*: Venus calls Vice for fetch/store, and Vice
calls back over the same channel to break callbacks in the revised design.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.cipher import SessionCipher
from repro.errors import NotAuthenticated
from repro.rpc.costs import EncryptionMode

__all__ = ["Connection"]


class Connection:
    """One authenticated channel between a client node and a server node."""

    def __init__(
        self,
        connection_id: str,
        client_name: str,
        server_name: str,
        username: str,
        encryption: str,
    ):
        self.connection_id = connection_id
        self.client_name = client_name
        self.server_name = server_name
        self.username = username
        self.encryption = encryption
        self.session_key: Optional[bytes] = None
        self._ciphers = {}
        self.established = False
        self.closed = False
        self.calls_made = 0
        # At-most-once bookkeeping, one pair per end.  Calling side: every
        # call <= acked is retired (answered or given up), never to be asked
        # again; retired calls above a gap wait in _stragglers.  Serving
        # side: the largest acked the peer has sent under a good MAC.
        self.acked = -1
        self._stragglers: set = set()
        self.floor = -1

    def retire(self, seq: int) -> None:
        """Call ``seq`` will never be asked again: advance ``acked`` over it
        once every earlier call on the connection is retired too."""
        self._stragglers.add(seq)
        while self.acked + 1 in self._stragglers:
            self.acked += 1
            self._stragglers.remove(self.acked)

    def peer_of(self, node_name: str) -> str:
        """The other endpoint's node name."""
        return self.server_name if node_name == self.client_name else self.client_name

    def establish(self, session_key: bytes) -> None:
        """Install the session key negotiated by the handshake."""
        self.session_key = session_key
        self._ciphers = {
            self.client_name: SessionCipher(session_key, direction=0),
            self.server_name: SessionCipher(session_key, direction=1),
        }
        self.established = True

    def encrypt(self, sender_name: str, plaintext: bytes, fast: bool = False) -> bytes:
        """Seal a message body or whole-file payload for the wire (identity
        when encryption is off).

        With ``fast`` the result is a plaintext-remembering
        :class:`~repro.crypto.cipher.SealedPayload` (same framing and
        length), so an in-process receiver's :meth:`decrypt` verifies the
        tag without re-deriving the keystream.
        """
        if self.encryption == EncryptionMode.NONE:
            return plaintext
        if not self.established:
            raise NotAuthenticated(f"connection {self.connection_id} not established")
        cipher = self._ciphers[sender_name]
        if fast:
            return cipher.seal_payload(plaintext)
        return cipher.encrypt(plaintext)

    def decrypt(self, receiver_name: str, sealed: bytes) -> bytes:
        """Open bytes from the wire through the receiver's cipher (identity
        when encryption is off).

        Fast-path aware: always verifies the authentication tag."""
        if self.encryption == EncryptionMode.NONE:
            return sealed
        if not self.established:
            raise NotAuthenticated(f"connection {self.connection_id} not established")
        return self._ciphers[receiver_name].open_payload(sealed)

    def close(self) -> None:
        """Tear the connection down; further calls are rejected."""
        self.closed = True
        self.established = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "established" if self.established else "pending"
        return (
            f"<Connection {self.connection_id} {self.client_name}->"
            f"{self.server_name} user={self.username} {state}>"
        )
