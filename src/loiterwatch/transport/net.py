"""TCP sender and receiver for feature records.

The sender runs a writer thread behind a bounded queue (the in-flight
window): callers block on send_record once the window is full. The writer
sends every record already queued with one write, so a busy link costs
few syscalls and thread switches per record. While the
link is down records accumulate in a deque spanning at most the configured
buffer seconds; older records are dropped oldest-first and counted.
Each camera's records are numbered separately, as the receiver checks
them, and the numbers keep increasing across reconnects, so its gap
tracking reports exactly what was lost.
"""

from __future__ import annotations

import gc
import logging
import queue
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from ..logs import ErrorLog, write_csv
from ..tracking import FeatureRecord
from .session import (Session, TransportConfig, load_private_key,
                      make_sender_session, unwrap_session_key, wrap_session_key)
from .wire import (KIND_DATA, KIND_HANDSHAKE_ACK, KIND_HANDSHAKE_INIT,
                   MAX_FRAME, MODE_BYTES, MODE_HANDSHAKE, FrameRejected,
                   WireMessage, build_frame, decode_record, encode_record,
                   pack_header, parse_header, split_frame)

log = logging.getLogger(__name__)

ACK_PAYLOAD = b"ok"
LATENCY_HEADER = ["sequence", "mode", "bytes", "latency_us"]

_STOP = object()


def now_us() -> int:
    return time.time_ns() // 1000


def read_exact(sock: socket.socket, n: int, stop: threading.Event | None = None) -> bytes | None:
    """Read exactly n bytes; None on clean EOF. Retries on timeout until stop."""
    chunks = []
    remaining = n
    while remaining > 0:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            if stop is not None and stop.is_set():
                return None
            continue
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


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


def read_frame(sock: socket.socket, stop: threading.Event | None = None) -> tuple[bytes, bytes] | None:
    """Next (header, body) pair off the socket; None on EOF."""
    prefix = read_exact(sock, 4, stop)
    if prefix is None:
        return None
    (length,) = struct.unpack(">I", prefix)
    if not 16 <= length <= MAX_FRAME:
        raise FrameRejected(f"frame length {length} out of bounds")
    frame = read_exact(sock, length, stop)
    if frame is None:
        return None
    return split_frame(frame)


@dataclass
class LatencyStats:
    """Per-message one-way latency samples collected at the receiver."""

    samples: list[tuple[int, str, int, int]] = field(default_factory=list)

    def add(self, sequence: int, mode: str, nbytes: int, latency_us: int) -> None:
        self.samples.append((sequence, mode, nbytes, latency_us))

    def latencies(self) -> list[int]:
        return [s[3] for s in self.samples]

    @property
    def mean_us(self) -> float:
        xs = self.latencies()
        return sum(xs) / len(xs) if xs else 0.0

    @property
    def p95_us(self) -> float:
        xs = sorted(self.latencies())
        if not xs:
            return 0.0
        return float(xs[min(len(xs) - 1, int(0.95 * (len(xs) - 1) + 0.5))])

    @property
    def max_us(self) -> int:
        xs = self.latencies()
        return max(xs) if xs else 0

    def write_csv(self, path) -> None:
        write_csv(path, LATENCY_HEADER,
                  [[str(seq), mode, str(nb), str(lat)] for seq, mode, nb, lat in self.samples])


class FeatureSender:
    """Edge-side record sender for one camera stream."""

    def __init__(self, config: TransportConfig, error_log: ErrorLog | None = None):
        self.config = config
        self.error_log = error_log or ErrorLog()
        self.dropped = 0
        self._handed = 0  # records written to a socket; only the writer thread counts
        self._queue: queue.Queue = queue.Queue(maxsize=config.window)
        self._buffer: deque = deque()  # [arrival_s, sequence, sent_at, payload]
        self._seq: dict[str, int] = {}  # last sequence number per camera
        self._accepted = 0  # records given to send_record
        self._sock: socket.socket | None = None
        self._session: Session | None = None
        self._lock = threading.Lock()
        self._writer: threading.Thread | None = None

    # -- connection management ------------------------------------------

    def connect(self) -> None:
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
        with self._lock:
            self._sock, self._session = sock, session
        if self._writer is None:
            self._writer = threading.Thread(target=self._writer_loop, daemon=True)
            self._writer.start()

    def _handshake(self, sock: socket.socket) -> Session:
        wrapped, session = wrap_session_key(self.config)
        header = pack_header(MODE_HANDSHAKE, KIND_HANDSHAKE_INIT, 0, now_us())
        sock.sendall(build_frame(header, wrapped))
        got = read_frame(sock)
        if got is None:
            raise FrameRejected("connection closed during handshake")
        ack_header, ack_body = got
        _, mode, kind, _, _ = parse_header(ack_header)
        if mode != MODE_HANDSHAKE or kind != KIND_HANDSHAKE_ACK:
            raise FrameRejected("expected handshake ack")
        if session.open(ack_header, ack_body) != ACK_PAYLOAD:
            raise FrameRejected("bad handshake ack payload")
        return session

    def reconnect(self) -> None:
        """Re-establish the link; buffered records flush in order."""
        self._close_socket()
        self.connect()

    # -- sending ---------------------------------------------------------

    def send_record(self, record: FeatureRecord, camera_id: str) -> int:
        """Queue one record; blocks while the in-flight window is full.

        Returns the sequence number assigned to the record, counted per camera.
        """
        payload = encode_record(record, camera_id)
        with self._lock:
            seq = self._seq[camera_id] = self._seq.get(camera_id, 0) + 1
            self._accepted += 1
        self._queue.put([time.monotonic(), seq, now_us(), payload])
        return seq

    def _writer_loop(self) -> None:
        while True:
            if self._sock is not None and self._buffer:
                count = min(len(self._buffer), self.config.window)
                self._transmit([self._buffer.popleft() for _ in range(count)])
                continue
            batch, stop = self._take_queued()
            if self._sock is not None and not self._buffer:
                self._transmit(batch)
            else:
                # A backlog exists (or the link is down): joining its tail
                # keeps records in sequence order across reconnects.
                for item in batch:
                    self._buffer_item(item)
            for _ in range(len(batch) + stop):
                self._queue.task_done()
            if stop:
                return

    def _take_queued(self) -> tuple[list, bool]:
        """Block for one queued record, then take those already waiting
        behind it, up to a window's worth; True once the stop marker is met."""
        batch: list = []
        item = self._queue.get()
        while item is not _STOP:
            batch.append(item)
            if len(batch) == self.config.window:
                return batch, False
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return batch, False
        return batch, True

    def _transmit(self, batch: list) -> None:
        """Write a run of records with one send; on failure they return,
        in order, to the buffer front (anything still queued is newer)."""
        if not batch:
            return
        with self._lock:
            sock, session = self._sock, self._session
        if sock is None or session is None:
            # The link went down after the writer looked; a run taken from
            # the buffer front must go back there to keep sequence order.
            self._buffer.extendleft(reversed(batch))
            return
        frames = []
        for _, seq, sent_at, payload in batch:
            header = pack_header(session.mode_byte, KIND_DATA, seq, sent_at)
            frames.append(build_frame(header, session.seal(header, payload)))
        try:
            if peer_closed(sock):
                raise ConnectionError("receiver closed the link")
            sock.sendall(b"".join(frames))
        except OSError as exc:
            log.warning("send failed (seq %d-%d): %s; buffering", batch[0][1], batch[-1][1], exc)
            self._close_socket()
            self._buffer.extendleft(reversed(batch))
            return
        self._handed += len(batch)

    def _buffer_item(self, item: list) -> None:
        self._buffer.append(item)
        # Keep at most buffer_seconds of records, dropping oldest first.
        while self._buffer and item[0] - self._buffer[0][0] > self.config.buffer_seconds:
            dropped = self._buffer.popleft()
            self.dropped += 1
            self.error_log.append("transport", f"dropped buffered record seq {dropped[1]}")

    def flush(self, timeout: float = 10.0) -> int:
        """Wait until every record sent so far has been handed to the socket.

        Returns how many records were still queued or buffered at the
        deadline, 0 once all went out; records dropped from the buffer are
        counted in ``dropped`` instead. A nonzero count is also logged.
        """
        deadline = time.monotonic() + timeout
        while self._unsent() and time.monotonic() < deadline:
            time.sleep(0.005)
        pending = self._unsent()
        if pending:
            self.error_log.append("transport", f"flush deadline passed with {pending} records not sent")
        return pending

    def _unsent(self) -> int:
        """Records given to send_record but neither written nor dropped."""
        return self._accepted - self._handed - self.dropped

    def close(self) -> None:
        """Flush (only while linked: nothing reconnects a down link), then close."""
        if self._writer is not None:
            self.flush(timeout=10.0 if self._sock is not None else 0.0)
            self._queue.put(_STOP)
            self._writer.join(timeout=5.0)
            self._writer = None
        self._close_socket()

    def _close_socket(self) -> None:
        with self._lock:
            sock, self._sock, self._session = self._sock, None, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


class FogReceiver:
    """Accepts sender connections and decodes their record frames.

    Per camera, sequence numbers must keep increasing: regressions and
    duplicates are rejected, gaps are recorded. Frames failing header or
    AEAD checks are dropped and counted, never delivered. In handshake mode
    the X25519 private key is parsed here, once, so a malformed key or a
    key of another type fails at construction rather than on the first
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
        self._stop = threading.Event()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: list[socket.socket] = []
        self._lock = threading.Lock()
        self.port: int | None = None

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(8)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        accept_thread.start()
        self._threads.append(accept_thread)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(0.5)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._conns.append(conn)
            thread = threading.Thread(target=self.receive_loop, args=(conn,), daemon=True)
            thread.start()
            self._threads.append(thread)

    def receive_loop(self, conn: socket.socket) -> None:
        """Drain one connection: establish its session, then deliver frames."""
        try:
            session = self._connection_session(conn)
            if session is None:
                return
            while not self._stop.is_set():
                try:
                    got = read_frame(conn, self._stop)
                except FrameRejected as exc:
                    self._reject(str(exc))
                    return  # cannot trust framing any further
                if got is None:
                    return
                self._handle_frame(session, *got)
        except OSError:
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _connection_session(self, conn: socket.socket) -> Session | None:
        if self.config.mode != "handshake-then-symmetric":
            return make_sender_session(self.config)
        got = read_frame(conn, self._stop)
        if got is None:
            return None
        header, body = got
        try:
            _, mode, kind, _, _ = parse_header(header)
            if mode != MODE_HANDSHAKE or kind != KIND_HANDSHAKE_INIT:
                raise FrameRejected("expected handshake init")
            session = unwrap_session_key(self.config, body, self._private_key)
        except FrameRejected as exc:
            self._reject(f"handshake failed: {exc}")
            return None
        ack_header = pack_header(MODE_HANDSHAKE, KIND_HANDSHAKE_ACK, 0, now_us())
        conn.sendall(build_frame(ack_header, session.seal(ack_header, ACK_PAYLOAD)))
        return session

    def _handle_frame(self, session: Session, header: bytes, body: bytes) -> None:
        received_at = now_us()
        try:
            version, mode, kind, sequence, sent_at = parse_header(header)
            if mode != self.config.mode_byte:
                raise FrameRejected(f"mode {MODE_BYTES[mode]!r} on a {self.config.mode!r} link")
            if kind != KIND_DATA:
                raise FrameRejected(f"unexpected frame kind {kind}")
            payload = session.open(header, body)
            camera_id, record = decode_record(payload)
        except FrameRejected as exc:
            self._reject(str(exc))
            return

        with self._lock:
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
        message = WireMessage(version=version, mode=mode, kind=kind,
                              sequence=sequence, sent_at=sent_at,
                              camera_id=camera_id, record=record)
        if self.on_message is not None:
            self.on_message(message)
        else:
            with self._lock:
                self.messages.append(message)

    def _reject(self, reason: str) -> None:
        with self._lock:
            self.rejected += 1
        self.error_log.append("transport", f"frame rejected: {reason}")
        log.warning("frame rejected: %s", reason)

    @property
    def message_count(self) -> int:
        with self._lock:
            return len(self.messages)

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)


def measure_latency(config: TransportConfig, records: list[FeatureRecord],
                    camera_id: str = "bench",
                    timeout: float = 30.0) -> tuple[LatencyStats, list[FeatureRecord]]:
    """Loopback round: stream records through a local receiver, return
    (latency stats, decoded records in arrival order).

    At most ``config.window`` records are between send_record and delivery.
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
    low = config.window // 2
    sent = 0

    def on_message(message: WireMessage) -> None:
        delivered.append(message.record)
        if sent - len(delivered) <= low:
            with refill:
                refill.notify()

    receiver = FogReceiver(config, on_message=on_message)
    receiver.start()
    sender_config = replace(config, port=receiver.port)
    sender = FeatureSender(sender_config)
    sender.connect()
    deadline = time.monotonic() + timeout
    gc.collect()
    try:
        for record in records:
            if sent - len(delivered) >= config.window:
                with refill:
                    if not refill.wait_for(lambda: sent - len(delivered) <= low,
                                           timeout=max(0.0, deadline - time.monotonic())):
                        break
            sent += 1
            sender.send_record(record, camera_id)
        sender.flush(timeout=max(0.0, deadline - time.monotonic()))
        while len(delivered) < sent and time.monotonic() < deadline:
            time.sleep(0.002)
    finally:
        sender.close()
        receiver.stop()
    return receiver.latency, delivered
