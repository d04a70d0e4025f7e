"""Connection state shared by the two ends of an authenticated RPC channel.

"After mutual authentication Vice and Virtue communicate only via encrypted
messages" — a :class:`Connection` holds the session key produced by the
handshake and one :class:`~repro.crypto.cipher.SessionCipher` per direction.
Connections are *bidirectional*: Venus calls Vice for fetch/store, and Vice
calls back over the same channel to break callbacks in the revised design.

Both parts of a message, the body (a marshalled call or reply record) and
the payload (whole-file data), cross through one pair, :meth:`~Connection.seal`
and :meth:`~Connection.open`, under the connection's one ``regime``: the
crypto is charged in virtual CPU and never run, or run with the fast open
(the MAC against the real bytes, then what the part carries in process)
or the full one (a keystream pass at every hop).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set

from repro.crypto.cipher import SessionCipher
from repro.errors import IntegrityError, NotAuthenticated
from repro.rpc.costs import EncryptionMode
from repro.rpc.marshal import Marshalled

__all__ = ["CHARGED", "Charged", "Connection", "FAST", "FULL"]

CHARGED, FAST, FULL = "charged", "fast", "full"

_FRAME_BYTES = 8 + 16  # the nonce and tag an executed seal adds


class Charged:
    """A message part whose crypto is charged, not run: as long on the wire
    as its seal, it carries what it stands for (a body's record, or the
    payload object, unbuilt if it was).  Only the object its sender built
    opens; corruption in flight turns it into bytes, which are rejected."""

    __slots__ = ("plain", "_length")

    def __init__(self, plain: Any, length: int):
        self.plain = plain
        self._length = length

    def __len__(self) -> int:
        return self._length


class Connection:
    """One authenticated channel between a client node and a server node."""

    def __init__(
        self,
        connection_id: str,
        client_name: str,
        server_name: str,
        username: str,
        encryption: str,
        regime: str = CHARGED,
    ):
        self.connection_id = connection_id
        self.client_name = client_name
        self.server_name = server_name
        self.username = username
        self.encryption = encryption
        self.regime = regime
        self.session_key: Optional[bytes] = None
        # One SessionCipher per direction, built at establish() only for a
        # regime that runs the crypto: a charged connection never reads them.
        self._ciphers: Optional[Dict[str, SessionCipher]] = None
        self.established = False
        self.closed = False
        self.calls_made = 0
        # At-most-once bookkeeping, one pair per end.  Calling side: every
        # call <= acked is retired (answered or given up), never to be asked
        # again; retired calls above a gap wait in _stragglers, a set that
        # exists only while there is a gap.  Serving side: the largest
        # acked the peer has sent under a good MAC.
        self.acked = -1
        self._stragglers: Optional[Set[int]] = None
        self.floor = -1

    def retire(self, seq: int) -> None:
        """Call ``seq`` will never be asked again: advance ``acked`` over it
        once every earlier call on the connection is retired too."""
        stragglers = self._stragglers
        if stragglers is None:
            if seq == self.acked + 1:  # in order, the common case
                self.acked = seq
                return
            stragglers = self._stragglers = set()
        stragglers.add(seq)
        while self.acked + 1 in stragglers:
            self.acked += 1
            stragglers.remove(self.acked)
        if not stragglers:
            self._stragglers = None

    def peer_of(self, node_name: str) -> str:
        """The other endpoint's node name."""
        return self.server_name if node_name == self.client_name else self.client_name

    def establish(self, session_key: bytes) -> None:
        """Install the session key negotiated by the handshake."""
        self.session_key = session_key
        if self.regime != CHARGED:
            self._ciphers = {
                self.client_name: SessionCipher(session_key, direction=0),
                self.server_name: SessionCipher(session_key, direction=1),
            }
        self.established = True

    def seal(self, sender_name: str, data: Any, plain: Any = None,
             framed: bool = True) -> Any:
        """One message part, ``data`` (bytes, an unbuilt body or a
        :class:`~repro.rpc.marshal.Marshalled` value), for the wire; empty
        stays empty.  ``plain`` is what :meth:`open` hands back (a body's
        record; by default the data, a ``Marshalled`` as itself and
        anything else built if it is sealed).  ``framed=False`` charges
        the plaintext length alone, as payloads always have been."""
        if self.regime == CHARGED:
            length = len(data)
            if not length:
                return b""
            if framed and self.encryption != EncryptionMode.NONE:
                length += _FRAME_BYTES
            return Charged(data if plain is None else plain, length)
        # The cipher needs real bytes: what is unbuilt is built once, here.
        raw = bytes(data)
        if not raw:
            return b""
        cipher = self._ciphers[sender_name]
        if self.regime == FAST:
            if plain is None and type(data) is Marshalled:
                plain = data
            return cipher.seal_payload(raw, plain)
        return cipher.encrypt(raw)

    def open(self, receiver_name: str, part: Any,
             decode: Optional[Callable[[bytes], Any]] = None) -> Any:
        """What a :meth:`seal` output stands for, or
        :class:`~repro.errors.IntegrityError` if it was damaged in flight;
        ``decode`` rebuilds it from the bytes under the full open."""
        if type(part) is not Charged and not part:
            return b""  # (a charged part is never empty)
        if not self.established:
            raise NotAuthenticated(f"connection {self.connection_id} not established")
        if self.regime == CHARGED:
            if type(part) is not Charged:
                raise IntegrityError("message part damaged in flight")
            return part.plain
        opened = self._ciphers[receiver_name].open_payload(part)
        if self.regime == FULL and decode is not None:
            return decode(opened)
        return opened

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
