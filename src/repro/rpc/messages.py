"""RPC wire messages.

An :class:`Envelope` is what actually crosses the network inside a
:class:`repro.net.packet.Datagram`.  The ``body`` (procedure name, arguments
or results, marshalled by :mod:`repro.rpc.marshal`) is sealed under the
connection's session key; the ``payload`` carries whole-file data — the
paper's "whole-file transfer is a particular kind of side-effect" — and is
likewise protected.

Errors travel as marshalled dictionaries with an ``__error__`` tag and are
re-raised as the proper exception class on the caller's side, so Vice
referrals like :class:`~repro.errors.NotCustodian` work transparently
across the wire.
"""

from __future__ import annotations

from typing import Any, Dict

from repro import errors
from repro.rpc import marshal

__all__ = ["Envelope", "Kind", "encode_error", "decode_error", "maybe_raise"]


class Kind:
    """Envelope discriminators."""

    HS_HELLO = "hs1"  # client -> server: username + sealed client nonce
    HS_CHALLENGE = "hs2"  # server -> client: sealed nonce echo + server nonce
    HS_CONFIRM = "hs3"  # client -> server: sealed server-nonce echo
    HS_OK = "hs_ok"  # server -> client: connection accepted
    HS_FAIL = "hs_fail"  # server -> client: authentication refused
    CALL = "call"
    REPLY = "reply"
    BUSY = "busy"  # server is still executing this (conn, seq): keep waiting


class Envelope:
    """One RPC-layer message.

    A ``__slots__`` class rather than a dataclass: two envelopes are
    allocated per RPC, making the per-instance ``__dict__`` one of the
    hottest allocations in a campus run.
    """

    __slots__ = ("kind", "connection_id", "seq", "acked", "body", "payload",
                 "username", "note", "trace", "decoded")

    def __init__(self, kind: str, connection_id: str, seq: int = 0,
                 body: bytes = b"", payload: bytes = b"", username: str = "",
                 note: str = "", trace: Any = None, decoded: Any = None,
                 acked: int = -1):
        self.kind = kind
        self.connection_id = connection_id
        self.seq = seq
        # CALL only: the caller will never again ask for any call <= acked on
        # this connection.  A fixed-size header field like ``seq``.
        self.acked = acked
        self.body = body
        self.payload = payload
        # Cleartext fields used before a session key exists (handshake only).
        self.username = username
        self.note = note
        # Causal-trace context (trace_id, span_id) propagated client -> server.
        # Pure observability metadata: excluded from wire_bytes so the simulated
        # byte counts — and therefore virtual time — are identical traced or not.
        self.trace = trace
        # In-process fast path: the structured body this envelope's ``body``
        # marshals.  The sealed wire bytes (and their costs) are unchanged; a
        # receiver in the same process may skip the unmarshal round-trip.
        # Like ``trace``, excluded from wire_bytes.
        self.decoded = decoded

    def wire_bytes(self, envelope_overhead: int) -> int:
        """Size on the wire: headers + body + payload."""
        return (
            envelope_overhead
            + len(self.body)
            + len(self.payload)
            + len(self.username)
            + len(self.note)
        )

    def corrupted_copy(self, rng: Any) -> "Envelope | None":
        """This envelope as it would arrive after in-flight bit corruption.

        A real datagram is one sealed unit on the wire, so flipping any bit
        fails the whole message's MAC check at the receiver; we model that
        by flipping one byte of the sealed ``body``.  Only data-carrying
        CALL/REPLY envelopes are corruptible — handshake messages carry
        their own tamper evidence by construction, and BUSY acks have no
        body — so other kinds return ``None`` (deliver unchanged).  The
        ``decoded`` in-process shortcut is dropped: a corrupted wire message
        cannot carry a plaintext side channel, and the receiver must detect
        the damage from the bytes alone.
        """
        if self.kind not in (Kind.CALL, Kind.REPLY) or not self.body:
            return None
        body = bytearray(self.body)
        position = rng.randint(0, len(body) - 1)
        body[position] ^= rng.randint(1, 255)
        return Envelope(
            self.kind, self.connection_id, self.seq, bytes(body), self.payload,
            username=self.username, note=self.note, trace=self.trace,
            acked=self.acked,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Envelope(kind={self.kind!r}, connection_id={self.connection_id!r}, "
                f"seq={self.seq}, body={len(self.body)}B, payload={len(self.payload)}B)")


# -- error transport ----------------------------------------------------------

_RAISABLE = {
    name: cls
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.ReproError)
}


def encode_error(exc: Exception) -> Dict[str, Any]:
    """Marshalable record of a library exception."""
    record: Dict[str, Any] = {
        "__error__": type(exc).__name__,
        "message": str(exc),
    }
    hint = getattr(exc, "custodian_hint", None)
    if hint is not None:
        record["custodian_hint"] = hint
    return record


def decode_error(record: Dict[str, Any]) -> Exception:
    """Reconstruct the exception a server handler raised."""
    name = record.get("__error__", "ViceError")
    cls = _RAISABLE.get(name, errors.ViceError)
    if name == "NotCustodian":
        return errors.NotCustodian(record.get("custodian_hint"))
    return cls(record.get("message", ""))


def maybe_raise(result: Any) -> Any:
    """Raise if ``result`` is an error record; otherwise pass it through."""
    if isinstance(result, dict) and "__error__" in result:
        raise decode_error(result)
    return result


def decode_body(body: bytes) -> Any:
    """Unmarshal a call or reply body."""
    return marshal.loads(body)
