"""Coordinator/worker wire protocol.

Every message is one frame: a u32 big-endian length (tag byte + payload,
excluding the length field itself), the tag byte, then the payload. The
same frame bytes travel over in-process queues and TCP sockets, so the
codec is exercised identically in every run mode.

Tags: Task=0x01 Finish=0x02 ProvideWork=0x03 Offload=0x04 NoWork=0x05
Terminate=0x06. Layouts are documented field-by-field in docs/protocol.md.
"""

from __future__ import annotations

import queue
import select
import socket
import struct
import time

from .engine import EngineStats, Strategy
from .record import Record
from .solve import Test

TAG_TASK = 0x01
TAG_FINISH = 0x02
TAG_PROVIDE_WORK = 0x03
TAG_OFFLOAD = 0x04
TAG_NO_WORK = 0x05
TAG_TERMINATE = 0x06

_STRATEGY_CODE = {"dfs": 0, "bfs": 1, "random": 2}
_STRATEGY_NAME = {v: k for k, v in _STRATEGY_CODE.items()}

# read at call time, so a test can shorten them
RECV_TIMEOUT = 120.0  # seconds any one recv waits
ACCEPT_TIMEOUT = 30.0  # seconds the tcp hub waits for each worker to connect


class ProtocolError(Exception):
    pass


class UnknownTagError(ProtocolError):
    pass


class TruncatedFrameError(ProtocolError):
    pass


class TrailingBytesError(ProtocolError):
    pass


class TransportClosed(ProtocolError):
    pass


class RecvTimeout(ProtocolError):
    pass


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


class Task(Record):
    __slots__ = ("strategy", "test", "test_depth", "final_depth")

    def __init__(self, strategy: Strategy, test: Test, test_depth: int, final_depth: int):
        self.strategy, self.test = strategy, test
        self.test_depth, self.final_depth = test_depth, final_depth


class Finish(Record):
    __slots__ = ("stats",)

    def __init__(self, stats: EngineStats):
        self.stats = stats


class ProvideWork(Record):
    __slots__ = ()


class Offload(Record):
    __slots__ = ("test", "depth")

    def __init__(self, test: Test, depth: int):
        self.test, self.depth = test, depth


class NoWork(Record):
    __slots__ = ()


class Terminate(Record):
    __slots__ = ()


Message = Task | Finish | ProvideWork | Offload | NoWork | Terminate


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


def _enc_strategy(s: Strategy) -> bytes:
    code = _STRATEGY_CODE[s.kind]
    if s.kind == "random":
        return struct.pack(">BQ", code, s.seed)
    return struct.pack(">B", code)


def _need(buf: bytes, off: int, n: int) -> None:
    if off + n > len(buf):
        raise TruncatedFrameError(f"frame payload short by {off + n - len(buf)} bytes")


def _dec_strategy(buf: bytes, off: int) -> tuple[Strategy, int]:
    _need(buf, off, 1)
    code = buf[off]
    off += 1
    if code not in _STRATEGY_NAME:
        raise ProtocolError(f"unknown strategy code {code}")
    if code == _STRATEGY_CODE["random"]:
        _need(buf, off, 8)
        (seed,) = struct.unpack_from(">Q", buf, off)
        return Strategy("random", seed), off + 8
    return Strategy(_STRATEGY_NAME[code]), off


def encode_test(test: Test) -> bytes:
    """count:u16 then (name_len:u16, name:utf8, value:i64) per entry,
    entries in sorted name order, so names strictly increase."""
    out = [struct.pack(">H", len(test))]
    for name in sorted(test):
        nb = name.encode("utf-8")
        out.append(struct.pack(">H", len(nb)))
        out.append(nb)
        out.append(struct.pack(">q", test[name]))
    return b"".join(out)


def decode_test(buf: bytes, off: int = 0) -> tuple[Test, int]:
    """Inverse of encode_test; returns (test, next offset). Raises
    TruncatedFrameError when buf is too short, and ProtocolError for a name
    that is not UTF-8 or does not follow the one before it in sorted order."""
    _need(buf, off, 2)
    (count,) = struct.unpack_from(">H", buf, off)
    off += 2
    test: Test = {}
    name = None
    for _ in range(count):
        _need(buf, off, 2)
        (nlen,) = struct.unpack_from(">H", buf, off)
        off += 2
        _need(buf, off, nlen + 8)
        prev = name
        try:
            name = buf[off : off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("test name is not UTF-8") from None
        if prev is not None and name <= prev:
            raise ProtocolError("test names are not in strictly increasing order")
        off += nlen
        (test[name],) = struct.unpack_from(">q", buf, off)
        off += 8
    return test, off


def _enc_stats(st: EngineStats) -> bytes:
    out = [
        struct.pack(
            ">QQQQQQBQ",
            st.states_created,
            st.states_suspended,
            st.frontier,
            st.solver_queries,
            st.cache_hits,
            st.instructions,
            1 if st.truncated else 0,
            st.wall_us,
        ),
        struct.pack(">I", len(st.paths)),
    ]
    for p in st.paths:
        pb = p.encode("ascii")
        out.append(struct.pack(">H", len(pb)))
        out.append(pb)
    return b"".join(out)


def _dec_stats(buf: bytes, off: int) -> tuple[EngineStats, int]:
    _need(buf, off, 61)
    created, susp, fr, q, h, instr, trunc, wall = struct.unpack_from(">QQQQQQBQ", buf, off)
    if trunc > 1:
        raise ProtocolError("Finish truncated byte is not 0 or 1")
    off += 57
    (n,) = struct.unpack_from(">I", buf, off)
    off += 4
    paths = []
    for _ in range(n):
        _need(buf, off, 2)
        (plen,) = struct.unpack_from(">H", buf, off)
        off += 2
        _need(buf, off, plen)
        path = buf[off : off + plen]
        if path.strip(b"01"):  # some byte is neither '0' nor '1'
            raise ProtocolError("Finish path byte is not ASCII '0' or '1'")
        paths.append(path.decode("ascii"))
        off += plen
    st = EngineStats(
        states_created=created,
        states_suspended=susp,
        frontier=fr,
        solver_queries=q,
        cache_hits=h,
        instructions=instr,
        truncated=bool(trunc),
        wall_us=wall,
        paths=paths,
    )
    return st, off


def encode(msg: Message) -> bytes:
    """Full frame bytes for a message, length prefix included."""
    if isinstance(msg, Task):
        payload = (
            _enc_strategy(msg.strategy)
            + encode_test(msg.test)
            + struct.pack(">II", msg.test_depth, msg.final_depth)
        )
        tag = TAG_TASK
    elif isinstance(msg, Finish):
        payload = _enc_stats(msg.stats)
        tag = TAG_FINISH
    elif isinstance(msg, ProvideWork):
        payload = b""
        tag = TAG_PROVIDE_WORK
    elif isinstance(msg, Offload):
        payload = encode_test(msg.test) + struct.pack(">I", msg.depth)
        tag = TAG_OFFLOAD
    elif isinstance(msg, NoWork):
        payload = b""
        tag = TAG_NO_WORK
    elif isinstance(msg, Terminate):
        payload = b""
        tag = TAG_TERMINATE
    else:
        raise ProtocolError(f"cannot encode {type(msg).__name__}")
    return struct.pack(">IB", len(payload) + 1, tag) + payload


def decode(frame: bytes) -> Message:
    """Inverse of encode. Raises TruncatedFrameError / TrailingBytesError /
    UnknownTagError as appropriate, and ProtocolError for a field whose
    bytes its layout does not allow; a frame must be consumed exactly."""
    if len(frame) < 5:
        raise TruncatedFrameError("frame shorter than header")
    (declared,) = struct.unpack_from(">I", frame, 0)
    if len(frame) - 4 < declared:
        raise TruncatedFrameError(
            f"frame declares {declared} bytes, only {len(frame) - 4} present"
        )
    if len(frame) - 4 > declared:
        raise TrailingBytesError(
            f"frame declares {declared} bytes, got {len(frame) - 4}"
        )
    tag = frame[4]
    off = 5
    if tag == TAG_TASK:
        strategy, off = _dec_strategy(frame, off)
        test, off = decode_test(frame, off)
        _need(frame, off, 8)
        test_depth, final_depth = struct.unpack_from(">II", frame, off)
        off += 8
        msg: Message = Task(strategy, test, test_depth, final_depth)
    elif tag == TAG_FINISH:
        stats, off = _dec_stats(frame, off)
        msg = Finish(stats)
    elif tag == TAG_PROVIDE_WORK:
        msg = ProvideWork()
    elif tag == TAG_OFFLOAD:
        test, off = decode_test(frame, off)
        _need(frame, off, 4)
        (depth,) = struct.unpack_from(">I", frame, off)
        off += 4
        msg = Offload(test, depth)
    elif tag == TAG_NO_WORK:
        msg = NoWork()
    elif tag == TAG_TERMINATE:
        msg = Terminate()
    else:
        raise UnknownTagError(f"unknown tag 0x{tag:02x}")
    if off != len(frame):
        raise TrailingBytesError(f"{len(frame) - off} unconsumed payload bytes")
    return msg


# ---------------------------------------------------------------------------
# Worker-side transports
# ---------------------------------------------------------------------------


class QueueTransport:
    """Worker end of an in-process queue pair. Outbound frames are stamped
    with the worker id so the coordinator can multiplex one inbox."""

    def __init__(self, worker_id: int, inbox: "queue.Queue[bytes]",
                 to_coord: "queue.Queue[tuple[int, bytes | None]]"):
        self.worker_id = worker_id
        self._inbox = inbox
        self._out = to_coord

    def send(self, msg: Message) -> None:
        self._out.put((self.worker_id, encode(msg)))

    def recv(self, timeout: float | None) -> Message:
        try:
            frame = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise RecvTimeout("worker recv timed out") from None
        return decode(frame)

    def poll(self) -> Message | None:
        try:
            frame = self._inbox.get_nowait()
        except queue.Empty:
            return None
        return decode(frame)

    def close(self) -> None:
        """Tell the coordinator this worker is gone, as a socket's EOF does."""
        self._out.put((self.worker_id, None))


def read_frame(sock: socket.socket) -> bytes | None:
    """Read one full frame (prefix included) from a stream; None on EOF."""

    def read_exact(n: int) -> bytes | None:
        chunks = b""
        while len(chunks) < n:
            got = sock.recv(n - len(chunks))
            if not got:
                return None
            chunks += got
        return chunks

    head = read_exact(4)
    if head is None:
        return None
    (declared,) = struct.unpack(">I", head)
    body = read_exact(declared)
    if body is None:
        raise TruncatedFrameError("stream ended inside a frame")
    return head + body


class SocketTransport:
    """Worker end of a TCP connection to the coordinator."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, msg: Message) -> None:
        self._sock.sendall(encode(msg))

    def recv(self, timeout: float | None) -> Message:
        self._sock.settimeout(timeout)
        try:
            frame = read_frame(self._sock)
        except socket.timeout:
            raise RecvTimeout("worker recv timed out") from None
        if frame is None:
            raise TransportClosed("coordinator closed the connection")
        return decode(frame)

    def poll(self) -> Message | None:
        ready, _, _ = select.select([self._sock], [], [], 0)
        if not ready:
            return None
        self._sock.settimeout(RECV_TIMEOUT)
        frame = read_frame(self._sock)
        if frame is None:
            raise TransportClosed("coordinator closed the connection")
        return decode(frame)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Coordinator-side hubs
# ---------------------------------------------------------------------------


class QueueHub:
    """Coordinator end for threads mode: one outbound queue per worker, one
    shared inbox carrying (worker_id, frame), where a None frame says the
    worker closed its end. A worker that was sent Terminate closes its end
    when it stops, so only other closes are failures."""

    def __init__(self, num_workers: int):
        self.to_workers: list["queue.Queue[bytes]"] = [
            queue.Queue() for _ in range(num_workers)
        ]
        self.inbox: "queue.Queue[tuple[int, bytes | None]]" = queue.Queue()
        self._terminated: set[int] = set()

    def transport_for(self, worker_id: int) -> QueueTransport:
        return QueueTransport(worker_id, self.to_workers[worker_id], self.inbox)

    def send(self, worker_id: int, msg: Message) -> None:
        if isinstance(msg, Terminate):
            self._terminated.add(worker_id)
        self.to_workers[worker_id].put(encode(msg))

    def recv(self, timeout: float | None) -> tuple[int, Message]:
        while True:
            try:
                worker_id, frame = self.inbox.get(timeout=timeout)
            except queue.Empty:
                raise RecvTimeout("coordinator recv timed out") from None
            if frame is not None:
                return worker_id, decode(frame)
            if worker_id not in self._terminated:
                raise TransportClosed(f"worker {worker_id} disconnected")

    def broadcast(self, msg: Message) -> None:
        for w in range(len(self.to_workers)):
            self.send(w, msg)

    def close(self) -> None:
        pass


class SocketHub:
    """Coordinator end for tcp mode: a loopback listener for num_workers
    connections. Worker ids follow accept order, which is connect order
    when the workers connect one at a time before accept_all. There is no
    reader thread: recv waits with select on the connections still open and
    reads one frame straight off a ready one. A worker's close, seen there
    as EOF, fails recv unless the worker was sent Terminate."""

    def __init__(self, num_workers: int, host: str = "127.0.0.1", port: int = 0):
        self.num_workers = num_workers
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(num_workers)
        self.address: tuple[str, int] = self._listener.getsockname()
        self._conns: list[socket.socket] = []
        self._open: dict[socket.socket, int] = {}  # connections not yet at EOF
        self._terminated: set[int] = set()

    def accept_all(self) -> None:
        self._listener.settimeout(ACCEPT_TIMEOUT)
        for wid in range(self.num_workers):
            conn, _ = self._listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(RECV_TIMEOUT)  # bounds a stall inside a frame
            self._conns.append(conn)
            self._open[conn] = wid
        self._listener.close()

    def send(self, worker_id: int, msg: Message) -> None:
        if isinstance(msg, Terminate):
            self._terminated.add(worker_id)
        try:
            self._conns[worker_id].sendall(encode(msg))
        except OSError as e:
            raise TransportClosed(f"send to worker {worker_id} failed: {e}") from None

    def recv(self, timeout: float | None) -> tuple[int, Message]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready, _, _ = select.select(list(self._open), [], [], wait)
            if not ready:
                raise RecvTimeout("coordinator recv timed out")
            conn = ready[0]
            worker_id = self._open[conn]
            try:
                # a worker sends whole frames, so the rest of one follows
                frame = read_frame(conn)
            except socket.timeout:
                raise RecvTimeout(f"worker {worker_id} stalled inside a frame") from None
            except (OSError, ProtocolError):
                frame = None
            if frame is not None:
                return worker_id, decode(frame)
            del self._open[conn]
            if worker_id not in self._terminated:
                raise TransportClosed(f"worker {worker_id} disconnected")

    def broadcast(self, msg: Message) -> None:
        for w in range(len(self._conns)):
            try:
                self.send(w, msg)
            except TransportClosed:
                pass

    def close(self) -> None:
        for c in [self._listener] + self._conns:
            try:
                c.close()
            except OSError:
                pass
