"""Edge cases of the length-prefixed framing layer.

:func:`recv_framed` and :class:`FrameReader` must agree on every
boundary condition: zero-length frames, closes mid-frame, headers
trickling in one byte at a time (slow loris), oversized length
prefixes, and bursts of frames landing in a single read.
"""

import socket
import struct
import threading

import pytest

from repro.net.errors import FrameTooLarge, NetError
from repro.net.framing import (
    HEADER_SIZE,
    FrameReader,
    encode_frame,
    recv_framed,
    send_framed,
)


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    for sock in (left, right):
        try:
            sock.close()
        except OSError:
            pass


class TestEncodeFrame:
    def test_header_is_big_endian_payload_length(self):
        frame = encode_frame("hello")
        assert frame[:HEADER_SIZE] == struct.pack(">I", 5)
        assert frame[HEADER_SIZE:] == b"hello"

    def test_zero_length_frame_is_just_a_header(self):
        assert encode_frame("") == struct.pack(">I", 0)

    def test_utf8_length_counts_bytes_not_characters(self):
        frame = encode_frame("café")
        (length,) = struct.unpack(">I", frame[:HEADER_SIZE])
        assert length == len("café".encode("utf-8")) == 5


class TestRecvFramed:
    def test_round_trip(self, pair):
        left, right = pair
        send_framed(left, "<m>payload</m>")
        assert recv_framed(right) == "<m>payload</m>"

    def test_zero_length_frame_decodes_to_empty_string(self, pair):
        left, right = pair
        send_framed(left, "")
        assert recv_framed(right) == ""

    def test_clean_close_returns_none(self, pair):
        left, right = pair
        left.close()
        assert recv_framed(right) is None

    def test_close_mid_header_raises(self, pair):
        left, right = pair
        left.sendall(b"\x00\x00")  # two of four header bytes
        left.close()
        with pytest.raises(NetError, match="mid-frame"):
            recv_framed(right)

    def test_close_mid_body_raises(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 10) + b"short")
        left.close()
        with pytest.raises(NetError, match="mid-frame"):
            recv_framed(right)

    def test_oversized_prefix_raises_before_reading_body(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 0xFFFFFFFF))
        with pytest.raises(FrameTooLarge) as excinfo:
            recv_framed(right)
        assert excinfo.value.length == 0xFFFFFFFF


class TestFrameReader:
    def test_pipelined_burst_in_one_write(self, pair):
        left, right = pair
        burst = b"".join(encode_frame(f"<m>{i}</m>") for i in range(50))
        left.sendall(burst)
        reader = FrameReader(right)
        assert [reader.recv_frame() for _ in range(50)] == \
            [f"<m>{i}</m>" for i in range(50)]
        assert reader.buffered() == 0

    def test_zero_length_frames_interleaved(self, pair):
        left, right = pair
        left.sendall(encode_frame("") + encode_frame("x") + encode_frame(""))
        reader = FrameReader(right)
        assert reader.recv_frame() == ""
        assert reader.recv_frame() == "x"
        assert reader.recv_frame() == ""

    def test_slow_loris_header_one_byte_at_a_time(self, pair):
        left, right = pair
        frame = encode_frame("<m>slow</m>")
        reader = FrameReader(right)

        def drip():
            for index in range(len(frame)):
                left.sendall(frame[index:index + 1])

        feeder = threading.Thread(target=drip)
        feeder.start()
        try:
            assert reader.recv_frame() == "<m>slow</m>"
        finally:
            feeder.join()

    def test_clean_close_at_boundary_returns_none(self, pair):
        left, right = pair
        send_framed(left, "<m>last</m>")
        left.close()
        reader = FrameReader(right)
        assert reader.recv_frame() == "<m>last</m>"
        assert reader.recv_frame() is None

    def test_close_mid_frame_raises(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 100) + b"only-part")
        left.close()
        reader = FrameReader(right)
        with pytest.raises(NetError, match="mid-frame"):
            reader.recv_frame()

    def test_close_mid_header_raises(self, pair):
        left, right = pair
        left.sendall(b"\x00")
        left.close()
        reader = FrameReader(right)
        with pytest.raises(NetError, match="mid-frame"):
            reader.recv_frame()

    def test_oversized_prefix_raises_with_length(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 1 << 30))
        reader = FrameReader(right, limit=1024)
        with pytest.raises(FrameTooLarge) as excinfo:
            reader.recv_frame()
        assert excinfo.value.length == 1 << 30

    def test_frame_larger_than_initial_buffer_grows_it(self, pair):
        left, right = pair
        payload = "x" * 4096
        reader = FrameReader(right, initial_capacity=64)

        feeder = threading.Thread(target=send_framed, args=(left, payload))
        feeder.start()
        try:
            assert reader.recv_frame() == payload
        finally:
            feeder.join()
