"""Coordinator/worker wire protocol.

Every message is one frame: a u32 big-endian length (tag byte + payload,
excluding the length field itself), the tag byte, then the payload. The
same frame bytes travel over in-process queues and TCP sockets, so the
codec is exercised identically in every run mode. LAYOUTS maps each tag
(Task=0x01 Finish=0x02 ProvideWork=0x03 Offload=0x04 NoWork=0x05
Terminate=0x06) to its message class and that class's fields in wire
order, each with its codec, and encode and decode both read it. A value
too wide for its field raises ProtocolError naming the field. Each hub
makes its workers' transports. docs/protocol.md has the layouts.
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
# Codec: one layout table, which encode and decode both read
# ---------------------------------------------------------------------------


def _need(buf: bytes, off: int, n: int) -> None:
    if off + n > len(buf):
        raise TruncatedFrameError(f"frame payload short by {off + n - len(buf)} bytes")


class _Codec:
    """A field's enc(value) -> bytes and dec(buf, off) -> (value, next offset)."""

    __slots__ = ("enc", "dec")

    def __init__(self, enc, dec):
        self.enc, self.dec = enc, dec


class _Int(_Codec):
    """A big-endian integer field of struct code `code`, the one place its
    width is checked: encoding a value outside it raises ProtocolError
    naming the field."""

    __slots__ = ("hi", "width")

    def __init__(self, name: str, code: str):
        s = struct.Struct(">" + code)
        pack, unpack, size, bits = s.pack, s.unpack_from, s.size, 8 * s.size
        lo, hi = (-(1 << bits - 1), 1 << bits - 1) if code.islower() else (0, 1 << bits)
        self.hi, self.width = hi, f"{'iu'[lo == 0]}{bits}"

        def enc(v: int) -> bytes:
            if not lo <= v < hi:
                raise ProtocolError(f"{name} {v} does not fit its {self.width} field")
            return pack(v)

        def dec(buf: bytes, off: int) -> tuple[int, int]:
            _need(buf, off, size)
            return unpack(buf, off)[0], off + size

        super().__init__(enc, dec)


def _choice(what: str, values: tuple) -> _Codec:
    """One byte, the index of the value in `values`."""

    def dec(buf: bytes, off: int) -> tuple[object, int]:
        _need(buf, off, 1)
        if buf[off] >= len(values):
            raise ProtocolError(f"{what} {buf[off]} is not one of 0..{len(values) - 1}")
        return values[buf[off]], off + 1

    return _Codec({v: bytes((i,)) for i, v in enumerate(values)}.__getitem__, dec)


_COUNT, _NAME_LEN = _Int("test count", "H"), _Int("test name length", "H")
_VALUE = _Int("test value", "q")
_PATHS, _PATH_LEN = _Int("path count", "I"), _Int("path length", "H")
SEED, FINAL_DEPTH = _Int("seed", "Q"), _Int("final_depth", "I")
_KIND = _choice("strategy code", ("dfs", "bfs", "random"))


def _enc_strategy(s: Strategy) -> bytes:
    """The kind's code byte, then a random search's seed."""
    code = _KIND.enc(s.kind)
    return code + SEED.enc(s.seed) if s.kind == "random" else code


def _dec_strategy(buf: bytes, off: int) -> tuple[Strategy, int]:
    kind, off = _KIND.dec(buf, off)
    if kind != "random":
        return Strategy(kind), off
    seed, off = SEED.dec(buf, off)
    return Strategy(kind, seed), off


def encode_test(test: Test) -> bytes:
    """count: u16, then (name_len: u16, name: UTF-8, value: i64) per entry,
    entries in sorted name order, so names strictly increase."""
    out = [_COUNT.enc(len(test))]
    for name in sorted(test):
        nb = name.encode("utf-8")
        out += (_NAME_LEN.enc(len(nb)), nb, _VALUE.enc(test[name]))
    return b"".join(out)


def decode_test(buf: bytes, off: int = 0) -> tuple[Test, int]:
    """Inverse of encode_test; returns (test, next offset). Raises
    TruncatedFrameError when buf is too short, and ProtocolError for a name
    that is not UTF-8 or does not follow the one before it in sorted order."""
    count, off = _COUNT.dec(buf, off)
    test: Test = {}
    name = None
    for _ in range(count):
        nlen, off = _NAME_LEN.dec(buf, off)
        _need(buf, off, nlen + 8)
        try:
            name, prev = buf[off : off + nlen].decode("utf-8"), name
        except UnicodeDecodeError:
            raise ProtocolError("test name is not UTF-8") from None
        if prev is not None and name <= prev:
            raise ProtocolError("test names are not in strictly increasing order")
        test[name], off = _VALUE.dec(buf, off + nlen)
    return test, off


def _enc_paths(paths: list[str]) -> bytes:
    """count: u32, then (path_len: u16, path: ASCII '0'/'1') per path."""
    out = [_PATHS.enc(len(paths))]
    for p in paths:
        out += (_PATH_LEN.enc(len(p)), p.encode("ascii"))
    return b"".join(out)


def _dec_paths(buf: bytes, off: int) -> tuple[list[str], int]:
    count, off = _PATHS.dec(buf, off)
    paths = []
    for _ in range(count):
        plen, off = _PATH_LEN.dec(buf, off)
        _need(buf, off, plen)
        path = buf[off : off + plen]
        if path.strip(b"01"):  # some byte is neither '0' nor '1'
            raise ProtocolError("Finish path byte is not ASCII '0' or '1'")
        paths.append(path.decode("ascii"))
        off += plen
    return paths, off


class _Layout:
    """A record's fields in wire order, each (attribute, codec): its
    class's constructor takes their values in that order."""

    __slots__ = ("cls", "fields")

    def __init__(self, cls: type, fields: tuple):
        self.cls, self.fields = cls, fields

    def enc(self, rec) -> bytes:
        return b"".join([codec.enc(getattr(rec, name)) for name, codec in self.fields])

    def dec(self, buf: bytes, off: int):
        values = []
        for _, codec in self.fields:
            v, off = codec.dec(buf, off)
            values.append(v)
        return self.cls(*values), off


_TEST = _Codec(encode_test, decode_test)

# a Finish's stats: six u64 counters, the truncated flag, then wall_us and the paths
_STATS = _Layout(EngineStats, (
    *[(name, _Int(name, "Q")) for name in ("states_created", "states_suspended", "frontier",
                                          "solver_queries", "cache_hits", "instructions")],
    ("truncated", _choice("Finish truncated byte", (False, True))),
    ("wall_us", _Int("wall_us", "Q")), ("paths", _Codec(_enc_paths, _dec_paths)),
))

# tag -> the message's layout: a new message is a class and a row here
LAYOUTS = {
    0x01: _Layout(Task, (
        ("strategy", _Codec(_enc_strategy, _dec_strategy)), ("test", _TEST),
        ("test_depth", _Int("test_depth", "I")), ("final_depth", FINAL_DEPTH),
    )),
    0x02: _Layout(Finish, (("stats", _STATS),)),
    0x03: _Layout(ProvideWork, ()),
    0x04: _Layout(Offload, (("test", _TEST), ("depth", _Int("depth", "I")))),
    0x05: _Layout(NoWork, ()),
    0x06: _Layout(Terminate, ()),
}
_TAG_OF = {layout.cls: (tag, layout) for tag, layout in LAYOUTS.items()}
_HEAD = struct.Struct(">IB")  # length (tag + payload), tag


def encode(msg: Message) -> bytes:
    """Full frame bytes for a message, length prefix included. A value too
    wide for its field raises ProtocolError naming the field."""
    try:
        tag, layout = _TAG_OF[type(msg)]
    except KeyError:
        raise ProtocolError(f"cannot encode {type(msg).__name__}") from None
    payload = layout.enc(msg)
    return _HEAD.pack(len(payload) + 1, tag) + payload


def decode(frame: bytes) -> Message:
    """Inverse of encode. Raises TruncatedFrameError / TrailingBytesError /
    UnknownTagError as appropriate, and ProtocolError for a field whose
    bytes its layout does not allow; a frame must be consumed exactly."""
    if len(frame) < 5:
        raise TruncatedFrameError("frame shorter than header")
    declared, tag = _HEAD.unpack_from(frame)
    if len(frame) - 4 < declared:
        raise TruncatedFrameError(f"frame declares {declared} bytes, only {len(frame) - 4} present")
    if len(frame) - 4 > declared:
        raise TrailingBytesError(f"frame declares {declared} bytes, got {len(frame) - 4}")
    layout = LAYOUTS.get(tag)
    if layout is None:
        raise UnknownTagError(f"unknown tag 0x{tag:02x}")
    msg, off = layout.dec(frame, 5)
    if off != len(frame):
        raise TrailingBytesError(f"{len(frame) - off} unconsumed payload bytes")
    return msg


# ---------------------------------------------------------------------------
# Worker-side transports
# ---------------------------------------------------------------------------


class QueueTransport:
    """Worker end of an in-process queue pair. Outbound frames are stamped
    with the worker id so the coordinator can multiplex one inbox."""

    def __init__(self, worker_id: int, inbox: "queue.SimpleQueue[bytes]",
                 to_coord: "queue.SimpleQueue[tuple[int, bytes | None]]"):
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
        return None if self._inbox.empty() else self.recv(RECV_TIMEOUT)

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
    """Worker end of a TCP connection to the coordinator. Its poll uses
    poll(2): select(2) fails on a descriptor past FD_SETSIZE."""

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)

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
        return self.recv(RECV_TIMEOUT) if self._poller.poll(0) else None

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
        self.to_workers: list["queue.SimpleQueue[bytes]"] = [
            queue.SimpleQueue() for _ in range(num_workers)
        ]
        self.inbox: "queue.SimpleQueue[tuple[int, bytes | None]]" = queue.SimpleQueue()
        self._terminated: set[int] = set()

    def transport_for(self, worker_id: int) -> QueueTransport:
        return QueueTransport(worker_id, self.to_workers[worker_id], self.inbox)

    def transports(self) -> list[QueueTransport]:
        return [self.transport_for(w) for w in range(len(self.to_workers))]

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
    when the workers connect one at a time before accept_all, as
    transports() connects them. There is no reader thread: recv waits with
    poll(2) (select(2) fails on a descriptor past FD_SETSIZE) on the
    connections still open, first to last, and reads one frame straight
    off the first ready one. A worker's close, seen there as EOF, fails
    recv unless the worker was sent Terminate."""

    def __init__(self, num_workers: int, host: str = "127.0.0.1", port: int = 0):
        self.num_workers = num_workers
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(num_workers)
        self.address: tuple[str, int] = self._listener.getsockname()
        self._conns: list[socket.socket] = []
        self._open: dict[int, int] = {}  # descriptor -> worker id, not yet at EOF
        self._poller = select.poll()
        self._terminated: set[int] = set()

    def accept_all(self) -> None:
        self._listener.settimeout(ACCEPT_TIMEOUT)
        for wid in range(self.num_workers):
            conn, _ = self._listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(RECV_TIMEOUT)  # bounds a stall inside a frame
            self._conns.append(conn)
            self._open[conn.fileno()] = wid
            self._poller.register(conn, select.POLLIN)
        self._listener.close()

    def transports(self) -> list[SocketTransport]:
        """Each worker's transport, connected one at a time in worker-id
        order and then accepted, so hub id k is transport k. On a failure
        every socket made so far is closed, the hub's too, and it raises."""
        made: list[SocketTransport] = []
        try:
            for _ in range(self.num_workers):
                made.append(SocketTransport(socket.create_connection(self.address, timeout=10)))
            self.accept_all()
        except BaseException:
            for t in made:
                t.close()
            self.close()
            raise
        return made

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
            ready = self._poller.poll(None if wait is None else wait * 1000)
            if not ready:
                raise RecvTimeout("coordinator recv timed out")
            fd = ready[0][0]
            worker_id = self._open[fd]
            conn = self._conns[worker_id]
            try:
                # a worker sends whole frames, so the rest of one follows
                frame = read_frame(conn)
            except socket.timeout:
                raise RecvTimeout(f"worker {worker_id} stalled inside a frame") from None
            except (OSError, ProtocolError):
                frame = None
            if frame is not None:
                return worker_id, decode(frame)
            del self._open[fd]
            self._poller.unregister(fd)
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
