import socket
import threading

import pytest

from tabverify.channel import (
    ChannelError,
    LoopbackChannel,
    SocketChannel,
    canonical_json,
    decode_frame,
    encode_frame,
    make_frame,
)


def test_frame_round_trip():
    frame = make_frame("encode", {"i": 3, "u": "0101"})
    assert decode_frame(encode_frame(frame)) == frame


def test_canonical_json_sorted_compact():
    assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'


def test_decode_rejects_garbage():
    with pytest.raises(ChannelError):
        decode_frame(b"\x00\x00\x00\x02{")
    with pytest.raises(ChannelError):
        decode_frame(b"\x00\x00\x00\x03not")
    with pytest.raises(ChannelError):
        decode_frame(b"\x00\x00")


def test_decode_refuses_a_frame_nested_too_deep():
    # the JSON parser raises RecursionError; a peer's frame is refused
    payload = b"[" * 100000
    with pytest.raises(ChannelError, match="bad frame payload"):
        decode_frame(len(payload).to_bytes(4, "big") + payload)


def test_loopback_round_trip():
    def handler(frame):
        return make_frame("reply", {"echo": frame["body"]})

    chan = LoopbackChannel(handler)
    chan.send(make_frame("encode", {"x": 1}))
    assert chan.recv()["body"] == {"echo": {"x": 1}}
    with pytest.raises(ChannelError):
        chan.recv()


def test_queue_pair_duplex():
    s_a, s_b = socket.socketpair()
    s_a.settimeout(5)
    s_b.settimeout(5)
    a, b = SocketChannel(s_a), SocketChannel(s_b)

    def server():
        f = b.recv()
        b.send(make_frame("reply", {"seen": f["type"]}))

    t = threading.Thread(target=server)
    t.start()
    try:
        a.send(make_frame("ping", {}))
        assert a.recv()["body"] == {"seen": "ping"}
        t.join(timeout=5)
        assert not t.is_alive()
        b.close()
        with pytest.raises(ChannelError):
            a.recv()
    finally:
        a.close()
        b.close()


class OneByteSocket:
    """A socket with only sendall, recv and close, as a channel's wrapper
    may be, whose recv hands out one byte at a time."""

    def __init__(self, data):
        self.data, self.calls = data, 0

    def sendall(self, data):
        raise AssertionError("nothing is sent")

    def recv(self, n):
        self.calls += 1
        chunk, self.data = self.data[:1], self.data[1:]
        return chunk

    def close(self):
        pass


def test_a_frame_read_a_byte_at_a_time_arrives_intact():
    frame = make_frame("reply", {"w": "A" * 1000, "n": [1, 2, 3]})
    blob = encode_frame(frame)
    sock = OneByteSocket(blob)
    assert SocketChannel(sock).recv() == frame
    assert sock.calls == len(blob)
