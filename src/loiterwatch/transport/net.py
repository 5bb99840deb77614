"""TCP sender and receiver for feature records.

The receiver runs one thread, a selector loop over the listener and every
connection, and hands records to on_message in the order they arrive.

The sender starts no thread. send_record buffers each record and, while
the sender is linked, writes everything buffered with one blocking send on
the caller's thread, so TCP's own socket buffer holds a sender back when
the receiver falls behind. While the link is down records accumulate in
the buffer, which spans at most the configured buffer seconds; older
records are dropped oldest-first and counted.
Each camera's records are numbered separately, as the receiver checks
them, and the numbers keep increasing across reconnects, so its gap
tracking reports exactly what was lost.
"""

from __future__ import annotations

import contextlib
import gc
import logging
import selectors
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from ..logs import ErrorLog
from ..tracking import FeatureRecord
from .session import (Session, TransportConfig, load_private_key,
                      make_sender_session, unwrap_session_key, wrap_session_key)
from .wire import (KIND_DATA, KIND_HANDSHAKE_ACK, KIND_HANDSHAKE_INIT,
                   MAX_FRAME, MODE_BYTES, MODE_HANDSHAKE, FrameRejected,
                   WireMessage, build_frame, decode_record, encode_record,
                   pack_header, parse_header, split_frame)

log = logging.getLogger(__name__)

ACK_PAYLOAD = b"ok"

IN_FLIGHT = 64  # measure_latency's bound on records between send_record and delivery


def now_us() -> int:
    return time.time_ns() // 1000


def peer_closed(sock: socket.socket) -> bool:
    """Whether the receiver has closed its end of a data link.

    It sends nothing after the handshake ack, so anything readable is its
    EOF or an error. A record written after that EOF would be accepted by
    the local socket and then lost without an error.
    """
    try:
        return sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
    except BlockingIOError:
        return False
    except OSError:
        return True


def take_frame(buffer: bytearray) -> tuple[bytes, bytes] | None:
    """Pop the first whole frame off buffer as (header, body); None while
    only part of one is there. A length out of bounds is rejected as soon
    as its 4-byte prefix is in."""
    if len(buffer) < 4:
        return None
    (length,) = struct.unpack_from(">I", buffer)
    if not 16 <= length <= MAX_FRAME:
        raise FrameRejected(f"frame length {length} out of bounds")
    if len(buffer) < 4 + length:
        return None
    frame = bytes(buffer[4:4 + length])
    del buffer[:4 + length]
    return split_frame(frame)


def read_frame(sock: socket.socket) -> tuple[bytes, bytes]:
    """The next (header, body) pair off a blocking socket. Bytes after that
    frame are not kept, so the peer must wait for a reply before sending more."""
    buffer = bytearray()
    while (frame := take_frame(buffer)) is None:
        chunk = sock.recv(4096)
        if not chunk:
            raise FrameRejected("connection closed before a whole frame came")
        buffer += chunk
    return frame


@dataclass
class LatencyStats:
    """Per-message one-way latency samples collected at the receiver."""

    samples: list[tuple[int, str, int, int]] = field(default_factory=list)

    def add(self, sequence: int, mode: str, nbytes: int, latency_us: int) -> None:
        self.samples.append((sequence, mode, nbytes, latency_us))

    @property
    def mean_us(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s[3] for s in self.samples) / len(self.samples)


class FeatureSender:
    """Edge-side record sender for one camera stream.

    Like TrackFeatureExtractor, a sender expects a single caller thread:
    every record is written on the thread that sends it, and the sender
    starts no thread of its own.
    """

    def __init__(self, config: TransportConfig, error_log: ErrorLog | None = None):
        self.config = config
        self.error_log = error_log or ErrorLog()
        self.dropped = 0
        self._buffer: deque = deque()  # (arrival_s, sequence, payload), oldest first
        self._seq: dict[str, int] = {}  # last sequence number per camera
        self._sock: socket.socket | None = None
        self._session: Session | None = None

    def connect(self) -> None:
        """Open the link, with its handshake, then write what is buffered,
        in order. A link the sender still holds is closed first."""
        self._close_socket()
        sock = socket.create_connection(
            (self.config.host, self.config.port), timeout=self.config.connect_timeout)
        try:
            sock.settimeout(None)
            # Frames are small; without this Nagle stalls them behind delayed acks.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.config.mode == "handshake-then-symmetric":
                session = self._handshake(sock)
            else:
                session = make_sender_session(self.config)
        except BaseException:
            sock.close()  # a failed handshake leaves no socket open
            raise
        self._sock, self._session = sock, session
        self._write()

    def _handshake(self, sock: socket.socket) -> Session:
        wrapped, session = wrap_session_key(self.config)
        header = pack_header(MODE_HANDSHAKE, KIND_HANDSHAKE_INIT, 0, now_us())
        sock.sendall(build_frame(header, wrapped))
        ack_header, ack_body = read_frame(sock)
        _, mode, kind, _, _ = parse_header(ack_header)
        if mode != MODE_HANDSHAKE or kind != KIND_HANDSHAKE_ACK:
            raise FrameRejected("expected handshake ack")
        if session.open(ack_header, ack_body) != ACK_PAYLOAD:
            raise FrameRejected("bad handshake ack payload")
        return session

    def send_record(self, record: FeatureRecord, camera_id: str) -> int:
        """Buffer one record and, while linked, write everything buffered.

        Returns the sequence number assigned to the record, counted per camera.
        """
        payload = encode_record(record, camera_id)
        seq = self._seq[camera_id] = self._seq.get(camera_id, 0) + 1
        arrival = time.monotonic()
        self._buffer.append((arrival, seq, payload))
        # Keep at most buffer_seconds of records, dropping oldest first.
        while self._buffer and arrival - self._buffer[0][0] > self.config.buffer_seconds:
            _, dropped, _ = self._buffer.popleft()
            self.dropped += 1
            self.error_log.append("transport", f"dropped buffered record seq {dropped}")
        self._write()
        return seq

    def _write(self) -> None:
        """Seal everything buffered and write it with one send. The buffer
        is cleared only once the write succeeds; on failure the socket is
        closed and the records stay buffered, in order."""
        if self._sock is None or not self._buffer:
            return
        sent_at = now_us()
        frames = []
        for _, seq, payload in self._buffer:
            header = pack_header(self._session.mode_byte, KIND_DATA, seq, sent_at)
            frames.append(build_frame(header, self._session.seal(header, payload)))
        try:
            if peer_closed(self._sock):
                raise ConnectionError("receiver closed the link")
            self._sock.sendall(b"".join(frames))
        except OSError as exc:
            log.warning("send failed (seq %d-%d): %s; buffering",
                        self._buffer[0][1], self._buffer[-1][1], exc)
            self._close_socket()
            return
        self._buffer.clear()

    def flush(self) -> int:
        """Write whatever is buffered if linked. Returns how many records are
        still buffered, and logs that count when it is not 0; records dropped
        from the buffer are counted in ``dropped`` instead."""
        self._write()
        if self._buffer:
            self.error_log.append("transport", f"flush left {len(self._buffer)} records unsent")
        return len(self._buffer)

    def close(self) -> None:
        """Write what is buffered while linked, then close; what is left is discarded and logged."""
        self._write()
        if self._buffer:
            self.error_log.append("transport",
                                  f"close discarded {len(self._buffer)} buffered records")
            self._buffer.clear()
        self._close_socket()

    def _close_socket(self) -> None:
        sock, self._sock, self._session = self._sock, None, None
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()


class FogReceiver:
    """Accepts sender connections and decodes their record frames.

    One thread serves the listener and every connection through a
    selector. It reads each connection into its own buffer, runs the
    handshake on a connection's first frame and calls on_message in the
    order the frames arrive. An exception raised by on_message stops the
    receiver, as stop() would, and propagates out of its thread.

    Per camera, sequence numbers must keep increasing: regressions and
    duplicates are rejected, gaps are recorded. Frames failing header or
    AEAD checks are dropped and counted, never delivered; a frame that
    cannot be parsed also closes its connection. In handshake mode the
    X25519 private key is parsed here, once, so a malformed key or a key
    of another type fails at construction rather than on the first
    connection.
    """

    def __init__(self, config: TransportConfig, on_message=None,
                 error_log: ErrorLog | None = None):
        self.config = config
        self._private_key = (load_private_key(config)
                             if config.mode == "handshake-then-symmetric" else None)
        self.on_message = on_message
        self.error_log = error_log or ErrorLog()
        self.latency = LatencyStats()
        self.messages: list[WireMessage] = []
        self.gaps: list[tuple[str, int, int]] = []  # camera, first missing, received
        self.rejected = 0
        self.duplicates = 0
        self._last_seq: dict[str, int] = {}
        self._selector: selectors.BaseSelector | None = None
        self._wake: socket.socket | None = None  # closing it ends the loop
        self._thread: threading.Thread | None = None
        self.port: int | None = None

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(8)
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        self._wake, woken = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._selector.register(woken, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._serve, args=(listener, woken), daemon=True)
        self._thread.start()

    def _serve(self, listener: socket.socket, woken: socket.socket) -> None:
        try:
            while True:
                for key, _ in self._selector.select():
                    if key.fileobj is woken:
                        return
                    if key.fileobj is listener:
                        self._accept(listener)
                    else:
                        self._read(key.fileobj, *key.data)
        finally:
            for key in list(self._selector.get_map().values()):
                if key.data is not None and key.data[1]:
                    self._reject(f"receiver stopped mid-frame, {len(key.data[1])} bytes lost")
                key.fileobj.close()
            self._selector.close()

    def _accept(self, listener: socket.socket) -> None:
        try:
            conn, _addr = listener.accept()
        except OSError:  # the peer gave up before it was accepted
            return
        conn.setblocking(True)  # read only when ready; the ack is one small send
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        session = None if self._private_key is not None else make_sender_session(self.config)
        self._selector.register(conn, selectors.EVENT_READ, (session, bytearray()))

    def _read(self, conn: socket.socket, session: Session | None, buffer: bytearray) -> None:
        """Handle the whole frames a connection sent; close it on EOF, a reset
        or bad framing. EOF in the middle of a frame is one reject."""
        try:
            data = conn.recv(65536)
        except OSError:  # a reset ends the connection as EOF does
            data = b""
        buffer += data
        try:
            while data and (frame := take_frame(buffer)) is not None:
                if session is None:
                    session = self._open_session(conn, *frame)
                    self._selector.modify(conn, selectors.EVENT_READ, (session, buffer))
                else:
                    self._handle_frame(session, *frame)
        except FrameRejected as exc:
            self._reject(f"handshake failed: {exc}" if session is None else str(exc))
            data = b""  # cannot trust framing any further
        else:
            if not data and buffer:
                self._reject(f"connection closed mid-frame, {len(buffer)} bytes lost")
        if not data:
            self._selector.unregister(conn)
            conn.close()

    def _open_session(self, conn: socket.socket, header: bytes, body: bytes) -> Session:
        """Unwrap the session key a connection's first frame carries, and ack it."""
        _, mode, kind, _, _ = parse_header(header)
        if mode != MODE_HANDSHAKE or kind != KIND_HANDSHAKE_INIT:
            raise FrameRejected("expected handshake init")
        session = unwrap_session_key(self.config, body, self._private_key)
        ack_header = pack_header(MODE_HANDSHAKE, KIND_HANDSHAKE_ACK, 0, now_us())
        with contextlib.suppress(OSError):  # a sender gone already is closed on the next read
            conn.sendall(build_frame(ack_header, session.seal(ack_header, ACK_PAYLOAD)))
        return session

    def _handle_frame(self, session: Session, header: bytes, body: bytes) -> None:
        received_at = now_us()
        try:
            _, mode, kind, sequence, sent_at = parse_header(header)
            if mode != self.config.mode_byte:
                raise FrameRejected(f"mode {MODE_BYTES[mode]!r} on a {self.config.mode!r} link")
            if kind != KIND_DATA:
                raise FrameRejected(f"unexpected frame kind {kind}")
            payload = session.open(header, body)
            camera_id, record = decode_record(payload)
        except FrameRejected as exc:
            self._reject(str(exc))
            return

        last = self._last_seq.get(camera_id)
        if last is not None and sequence <= last:
            self.duplicates += 1
            self.error_log.append(camera_id, f"duplicate or regressed sequence {sequence}")
            return
        if last is not None and sequence > last + 1:
            self.gaps.append((camera_id, last + 1, sequence))
            self.error_log.append(
                camera_id, f"sequence gap: expected {last + 1}, got {sequence}")
        self._last_seq[camera_id] = sequence
        self.latency.add(sequence, MODE_BYTES[mode],
                         4 + len(header) + len(body), received_at - sent_at)
        message = WireMessage(sequence=sequence, sent_at=sent_at,
                              camera_id=camera_id, record=record)
        if self.on_message is not None:
            self.on_message(message)
        else:
            self.messages.append(message)

    def _reject(self, reason: str) -> None:
        self.rejected += 1
        self.error_log.append("transport", f"frame rejected: {reason}")
        log.warning("frame rejected: %s", reason)

    @property
    def message_count(self) -> int:
        return len(self.messages)

    def stop(self) -> None:
        """End the loop; it closes the listener and every connection. A
        connection holding part of a frame counts one reject."""
        if self._thread is not None:
            self._wake.close()  # the loop reads EOF on the other end
            self._thread.join(timeout=2.0)
            self._thread = None


def measure_latency(config: TransportConfig, records: list[FeatureRecord],
                    camera_id: str = "bench",
                    timeout: float = 30.0) -> tuple[LatencyStats, list[FeatureRecord]]:
    """Loopback round: stream records through a local receiver, return
    (latency stats, decoded records in arrival order). Raises RuntimeError,
    naming the sent and delivered counts, when not every record is
    delivered within ``timeout`` seconds.

    At most ``IN_FLIGHT`` records are between send_record and delivery.
    Without that bound the socket buffers let the sender run hundreds of
    records ahead for the same input, and the mean measured that backlog
    rather than the link. A full window is refilled once half of it has
    been delivered, so records move in runs rather than one thread switch
    per record. The caller's garbage is collected before streaming, so a
    full collection of a large heap left by earlier work does not fall due
    in the middle of the round.
    """
    delivered: list[FeatureRecord] = []
    refill = threading.Condition()
    low = IN_FLIGHT // 2
    sent = 0

    def on_message(message: WireMessage) -> None:
        delivered.append(message.record)
        if sent - len(delivered) <= low:
            with refill:
                refill.notify()

    receiver = FogReceiver(config, on_message=on_message)
    receiver.start()
    sender = FeatureSender(replace(config, port=receiver.port))
    sender.connect()
    deadline = time.monotonic() + timeout
    gc.collect()
    try:
        for record in records:
            if sent - len(delivered) >= IN_FLIGHT:
                with refill:
                    if not refill.wait_for(lambda: sent - len(delivered) <= low,
                                           timeout=max(0.0, deadline - time.monotonic())):
                        break
            sent += 1
            sender.send_record(record, camera_id)
        sender.flush()
        while len(delivered) < sent and time.monotonic() < deadline:
            time.sleep(0.002)
    finally:
        sender.close()
        receiver.stop()
    if len(delivered) < len(records):
        raise RuntimeError(f"latency round incomplete: sent {sent} of {len(records)} records, "
                           f"delivered {len(delivered)}, rejected {receiver.rejected}")
    return receiver.latency, delivered
