"""Length-prefixed wire framing of the TCP runtime.

One frame is a 4-byte big-endian payload length followed by the UTF-8
encoded XML envelope; :mod:`repro.net.tcpruntime`'s server and client
both read and write it through this module.

:func:`recv_framed` reads exactly one frame from a socket the caller
may hand elsewhere afterwards (the pooled client).  :class:`FrameReader`
is the connection-lifetime decoder (the server's handler): it owns one
reusable ``bytearray`` receive buffer and reads with ``recv_into`` +
``memoryview`` slicing -- no per-chunk allocations, no chunk-list
concatenation.

Both raise :class:`~repro.net.errors.FrameTooLarge` (a ``NetError``)
on an oversized length prefix, carrying the offending size so the
server can answer with a structured ``frame-too-large`` error before
closing.
"""

import struct

from repro.net.errors import FrameTooLarge, NetError

_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size

#: Upper bound on one frame's payload.  Anything larger is a protocol
#: violation (or an attack) -- the stream cannot be resynchronised past
#: a lying length prefix, so the connection dies after the error reply.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


def encode_frame(payload):
    """*payload* (``str``) as one wire frame (header + UTF-8 bytes)."""
    data = payload.encode("utf-8")
    return _HEADER.pack(len(data)) + data


def send_framed(sock, payload):
    """Write one length-prefixed message."""
    sock.sendall(encode_frame(payload))


def recv_framed(sock):
    """Read one length-prefixed message; ``None`` on a clean close.

    Reads exactly one frame and not a byte more (callers may hand the
    socket elsewhere afterwards); connection-lifetime readers should
    hold a :class:`FrameReader` instead, which batches reads across
    frames.
    """
    header = bytearray(HEADER_SIZE)
    if not _recv_into_exactly(sock, header, eof_ok=True):
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise FrameTooLarge(length)
    if length == 0:
        return ""
    body = bytearray(length)
    _recv_into_exactly(sock, body, eof_ok=False)
    return body.decode("utf-8")


def _recv_into_exactly(sock, buffer, eof_ok):
    """Fill *buffer* from *sock*; ``False`` on a close before any byte
    (only when *eof_ok*), :class:`NetError` on a close mid-way."""
    with memoryview(buffer) as view:
        filled = 0
        while filled < len(buffer):
            count = sock.recv_into(view[filled:])
            if count == 0:
                if filled == 0 and eof_ok:
                    return False
                raise NetError("connection closed mid-frame")
            filled += count
    return True


class FrameReader:
    """Zero-copy frame decoding for one blocking socket.

    The reader owns a single growable receive buffer; ``recv_into``
    lands bytes directly in it and completed payloads are decoded from
    ``memoryview`` slices.  Bytes beyond the current frame stay
    buffered for the next call, so a burst of N frames arrives in
    O(syscalls), not O(N) of them.
    """

    def __init__(self, sock, limit=MAX_MESSAGE_BYTES, initial_capacity=65536):
        self._sock = sock
        self.limit = limit
        self._buffer = bytearray(max(int(initial_capacity), HEADER_SIZE))
        self._start = 0  # first unconsumed byte
        self._end = 0    # one past the last filled byte

    def buffered(self):
        """Bytes received but not yet consumed (tests/introspection)."""
        return self._end - self._start

    def _reserve(self, needed):
        """Make room for *needed* unconsumed bytes starting at
        ``_start`` by compacting (memmove via slice assignment on the
        same bytearray -- no new allocation) and, only when the frame
        outgrows the buffer, growing it."""
        pending = self._end - self._start
        if self._start and (self._start + needed > len(self._buffer)
                            or self._end == len(self._buffer)):
            self._buffer[:pending] = self._buffer[self._start:self._end]
            self._start, self._end = 0, pending
        if needed > len(self._buffer):
            self._buffer.extend(bytes(needed - len(self._buffer)))

    def _ensure(self, needed, eof_ok):
        """Block until *needed* unconsumed bytes are buffered."""
        while self._end - self._start < needed:
            self._reserve(needed)
            with memoryview(self._buffer) as view:
                count = self._sock.recv_into(view[self._end:])
            if count == 0:
                if self._end == self._start and eof_ok:
                    return False
                raise NetError("connection closed mid-frame")
            self._end += count
        return True

    def recv_frame(self):
        """One payload string; ``None`` on a clean close at a frame
        boundary; :class:`NetError` on a mid-frame close."""
        if not self._ensure(HEADER_SIZE, eof_ok=True):
            return None
        (length,) = _HEADER.unpack_from(self._buffer, self._start)
        if length > self.limit:
            raise FrameTooLarge(length)
        self._start += HEADER_SIZE
        if length == 0:
            payload = ""
        else:
            self._ensure(length, eof_ok=False)
            with memoryview(self._buffer) as view:
                payload = str(view[self._start:self._start + length],
                              "utf-8")
            self._start += length
        if self._start == self._end:
            self._start = self._end = 0
        return payload
