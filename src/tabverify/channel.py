"""Wire transport: length-prefixed canonical JSON frames.

Every frame is {"type": ..., "body": {...}} serialized as canonical JSON
(sorted keys, no whitespace) behind a 4-byte big-endian length. A
connection carries exactly one verification session, so frames name no
session. Two transports share the framing: an in-process loopback that
drives a handler function, and TCP sockets.
"""

import json
import socket
import struct


class ChannelError(Exception):
    pass


MAX_FRAME = 64 * 1024 * 1024
TIMEOUT = 30.0  # seconds a socket peer may stay silent before the channel fails


# one encoder for every call: json.dumps with these arguments builds one
# per call, and it holds no state between calls
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj):
    return _CANONICAL.encode(obj)


def encode_frame(obj):
    blob = canonical_json(obj).encode("utf-8")
    if len(blob) > MAX_FRAME:
        raise ChannelError("frame too large")
    return struct.pack(">I", len(blob)) + blob


def decode_frame(blob):
    if len(blob) < 4:
        raise ChannelError("truncated frame header")
    (n,) = struct.unpack(">I", blob[:4])
    if len(blob) != 4 + n:
        raise ChannelError("frame length mismatch")
    try:
        return json.loads(blob[4:].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ChannelError(f"bad frame payload: {exc}") from exc


def make_frame(ftype, body):
    return {"type": ftype, "body": body}


class LoopbackChannel:
    """Synchronous request/response against an in-process handler.

    Frames still round-trip through the byte encoding, so anything that
    would break on a socket breaks here too.
    """

    def __init__(self, handler):
        self.handler = handler
        self._reply = None

    def send(self, frame):
        incoming = decode_frame(encode_frame(frame))
        reply = self.handler(incoming)
        self._reply = decode_frame(encode_frame(reply))

    def recv(self):
        if self._reply is None:
            raise ChannelError("no pending reply")
        reply, self._reply = self._reply, None
        return reply

    def close(self):
        pass


class SocketChannel:
    def __init__(self, sock, timeout=None):
        """timeout, if given, bounds every blocking call on sock; a peer
        that stays silent longer makes recv raise ChannelError."""
        if timeout is not None:
            sock.settimeout(timeout)
        self.sock = sock

    @classmethod
    def connect(cls, host, port):
        return cls(socket.create_connection((host, port), timeout=TIMEOUT))

    def send(self, frame):
        try:
            self.sock.sendall(encode_frame(frame))
        except OSError as exc:
            raise ChannelError(f"send failed: {exc}") from exc

    def _read_exact(self, n):
        buf = bytearray()  # grows in place: linear in n, whatever the chunks
        while len(buf) < n:
            try:
                chunk = self.sock.recv(n - len(buf))
            except OSError as exc:
                raise ChannelError(f"recv failed: {exc}") from exc
            if not chunk:
                raise ChannelError("peer closed the connection")
            buf += chunk
        return buf

    def recv(self):
        header = self._read_exact(4)
        (n,) = struct.unpack(">I", header)
        if n > MAX_FRAME:
            raise ChannelError("frame too large")
        return decode_frame(header + self._read_exact(n))

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass
