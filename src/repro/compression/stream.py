"""Streaming sessions: framed multi-batch compression over a byte pipe.

The paper's Definition 1 compresses a stream batch by batch; a consumer
(the drone's uplink, a file, a socket) then needs to find the batch
boundaries again. :class:`CompressionSession` frames each compressed
batch with a small header (magic, sequence number, payload length) and a
checksum, and :class:`DecompressionSession` validates and inverts the
stream — including the stateful codecs whose batches reference earlier
batches' dictionary state, which makes ordering errors detectable.

This module is pure library surface on top of the codecs; the simulator
is not involved.
"""

from __future__ import annotations

import struct
import zlib
from typing import List

from repro.compression.base import StreamCompressor
from repro.errors import CorruptStreamError

__all__ = ["CompressionSession", "DecompressionSession", "FRAME_MAGIC"]

FRAME_MAGIC = 0xC57E
_FRAME_HEADER = struct.Struct("<HHII")  # magic, flags, sequence, length
_FRAME_CHECKSUM = struct.Struct("<I")
_FLAG_STATEFUL = 0x0001


class CompressionSession:
    """Compresses a sequence of batches into a framed byte stream.

    >>> from repro.compression import get_codec
    >>> session = CompressionSession(get_codec("tcomp32"))
    >>> frame = session.write_batch(b"\\x01\\x00\\x00\\x00")
    >>> session.frames_written
    1
    """

    def __init__(self, codec: StreamCompressor) -> None:
        self.codec = codec
        self._sequence = 0
        self._input_bytes = 0
        self._output_bytes = 0

    @property
    def frames_written(self) -> int:
        return self._sequence

    @property
    def compression_ratio(self) -> float:
        """Input bytes per framed output byte, headers included."""
        if self._output_bytes == 0:
            return float("inf")
        return self._input_bytes / self._output_bytes

    def write_batch(self, batch: bytes) -> bytes:
        """Compress one batch and return its frame."""
        result = self.codec.compress(batch)
        flags = _FLAG_STATEFUL if self.codec.stateful else 0
        header = _FRAME_HEADER.pack(
            FRAME_MAGIC, flags, self._sequence, len(result.payload)
        )
        checksum = _FRAME_CHECKSUM.pack(zlib.crc32(result.payload))
        frame = header + result.payload + checksum
        self._sequence += 1
        self._input_bytes += len(batch)
        self._output_bytes += len(frame)
        return frame


class DecompressionSession:
    """Parses a framed byte stream back into the original batches.

    The session is *stateful in lockstep with the encoder*: frames must
    be fed in order (the sequence numbers enforce it), which is exactly
    what stateful codecs like tdic32 require.
    """

    def __init__(self, codec: StreamCompressor) -> None:
        self.codec = codec
        self._expected_sequence = 0
        self._buffer = bytearray()

    @property
    def frames_read(self) -> int:
        return self._expected_sequence

    def feed(self, data: bytes) -> List[bytes]:
        """Append raw bytes; return every batch completed by them."""
        self._buffer.extend(data)
        batches = []
        while True:
            batch = self._try_parse_frame()
            if batch is None:
                return batches
            batches.append(batch)

    def _try_parse_frame(self):
        header_size = _FRAME_HEADER.size
        if len(self._buffer) < header_size:
            return None
        magic, flags, sequence, length = _FRAME_HEADER.unpack_from(
            self._buffer
        )
        if magic != FRAME_MAGIC:
            raise CorruptStreamError(
                f"bad frame magic 0x{magic:04X} (expected 0x{FRAME_MAGIC:04X})"
            )
        total = header_size + length + _FRAME_CHECKSUM.size
        if len(self._buffer) < total:
            return None
        if sequence != self._expected_sequence:
            raise CorruptStreamError(
                f"frame {sequence} arrived out of order "
                f"(expected {self._expected_sequence})"
            )
        stateful_flag = bool(flags & _FLAG_STATEFUL)
        if stateful_flag != self.codec.stateful:
            raise CorruptStreamError(
                "frame statefulness flag does not match the decoder codec"
            )
        payload = bytes(self._buffer[header_size:header_size + length])
        (checksum,) = _FRAME_CHECKSUM.unpack_from(
            self._buffer, header_size + length
        )
        if zlib.crc32(payload) != checksum:
            raise CorruptStreamError(
                f"frame {sequence} checksum mismatch (corrupted payload)"
            )
        del self._buffer[:total]
        self._expected_sequence += 1
        return self.codec.decompress(payload)

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buffer:
            raise CorruptStreamError(
                f"{len(self._buffer)} trailing bytes after the last frame"
            )
