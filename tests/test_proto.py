"""Wire codec golden frames, round trips, error taxonomy, transports."""

import random
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpart import proto
from tdpart.engine import EngineStats, Strategy
from tdpart.proto import (
    Finish,
    NoWork,
    Offload,
    ProtocolError,
    ProvideWork,
    QueueHub,
    RecvTimeout,
    SocketHub,
    SocketTransport,
    Task,
    Terminate,
    TrailingBytesError,
    TransportClosed,
    TruncatedFrameError,
    UnknownTagError,
    decode,
    decode_test,
    encode,
    encode_test,
)

# -- golden frames, written out by hand from the wire layout:
# u32 big-endian length (tag + payload), one tag byte, payload

GOLDEN_TERMINATE = bytes.fromhex("00000001" "06")
GOLDEN_PROVIDE_WORK = bytes.fromhex("00000001" "03")
GOLDEN_NO_WORK = bytes.fromhex("00000001" "05")

# Task(dfs, {"x": -8, "y": 7}, test_depth=2, final_depth=3):
# strategy 00; test: count 2, "x" -> -8, "y" -> 7 (sorted names); depths
GOLDEN_TASK = bytes.fromhex(
    "00000022" "01"
    "00"
    "0002"
    "0001" "78" "fffffffffffffff8"
    "0001" "79" "0000000000000007"
    "00000002" "00000003"
)

# Task(random seed 5, {}, 0, 1): strategy 02 + u64 seed
GOLDEN_TASK_RANDOM = bytes.fromhex(
    "00000014" "01"
    "02" "0000000000000005"
    "0000"
    "00000000" "00000001"
)

# Offload({"z": 1}, depth=5)
GOLDEN_OFFLOAD = bytes.fromhex(
    "00000012" "04"
    "0001" "0001" "7a" "0000000000000001"
    "00000005"
)

# Finish(created=2, suspended=1, frontier=0, queries=3, hits=1,
#        instructions=7, truncated=no, wall_us=0, paths=["01"])
GOLDEN_FINISH = bytes.fromhex(
    "00000042" "02"
    "0000000000000002"
    "0000000000000001"
    "0000000000000000"
    "0000000000000003"
    "0000000000000001"
    "0000000000000007"
    "00"
    "0000000000000000"
    "00000001" "0002" "3031"
)

GOLDEN_PAIRS = [
    (Terminate(), GOLDEN_TERMINATE),
    (ProvideWork(), GOLDEN_PROVIDE_WORK),
    (NoWork(), GOLDEN_NO_WORK),
    (Task(Strategy("dfs"), {"x": -8, "y": 7}, 2, 3), GOLDEN_TASK),
    (Task(Strategy("random", 5), {}, 0, 1), GOLDEN_TASK_RANDOM),
    (Offload({"z": 1}, 5), GOLDEN_OFFLOAD),
    (
        Finish(
            EngineStats(
                states_created=2,
                states_suspended=1,
                frontier=0,
                solver_queries=3,
                cache_hits=1,
                instructions=7,
                truncated=False,
                wall_us=0,
                paths=["01"],
            )
        ),
        GOLDEN_FINISH,
    ),
]


@pytest.mark.parametrize("msg,frame", GOLDEN_PAIRS, ids=lambda v: type(v).__name__)
def test_golden_encodings(msg, frame):
    if isinstance(msg, bytes):
        return
    assert encode(msg) == frame
    assert decode(frame) == msg


def test_terminate_is_five_bytes():
    assert encode(Terminate()) == b"\x00\x00\x00\x01\x06"


def test_bfs_strategy_code():
    frame = encode(Task(Strategy("bfs"), {}, 0, 0))
    assert frame[5] == 0x01  # strategy byte straight after the tag


def test_task_test_entries_are_name_sorted():
    a = encode(Task(Strategy("dfs"), {"b": 1, "a": 2}, 0, 0))
    b = encode(Task(Strategy("dfs"), {"a": 2, "b": 1}, 0, 0))
    assert a == b


# -- test serialization


def test_encode_test_golden():
    assert encode_test({}) == b"\x00\x00"
    enc = encode_test({"y": 7, "x": -8})
    assert enc == (
        b"\x00\x02"
        b"\x00\x01x\xff\xff\xff\xff\xff\xff\xff\xf8"
        b"\x00\x01y\x00\x00\x00\x00\x00\x00\x00\x07"
    )


def test_decode_test_round_trip_and_offset():
    test = {"x": -8, "y": 7, "mid": 0}
    buf = encode_test(test) + b"tail"
    got, off = decode_test(buf)
    assert got == test
    assert buf[off:] == b"tail"


def test_decode_test_truncated():
    enc = encode_test({"x": 1})
    for cut in range(len(enc)):
        with pytest.raises(TruncatedFrameError):
            decode_test(enc[:cut])


@given(
    st.dictionaries(
        st.text(max_size=8),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        max_size=6,
    )
)
def test_encode_decode_test_round_trip(test):
    got, off = decode_test(encode_test(test))
    assert got == test and list(got) == sorted(test)
    assert off == len(encode_test(test))


# -- error taxonomy


def test_unknown_tag():
    with pytest.raises(UnknownTagError):
        decode(bytes.fromhex("00000001" "07"))
    with pytest.raises(UnknownTagError):
        decode(bytes.fromhex("00000001" "00"))


def test_truncated_header():
    for n in range(5):
        with pytest.raises(TruncatedFrameError):
            decode(GOLDEN_TERMINATE[:n])


def test_truncated_declared_length():
    # declares five payload bytes, delivers none
    with pytest.raises(TruncatedFrameError):
        decode(bytes.fromhex("00000005" "06"))


def test_truncated_inside_payload():
    # well-framed Task whose test section claims an entry it does not have
    payload = bytes.fromhex("00" "0001")
    frame = (len(payload) + 1).to_bytes(4, "big") + b"\x01" + payload
    with pytest.raises(TruncatedFrameError):
        decode(frame)


def test_trailing_bytes_after_frame():
    with pytest.raises(TrailingBytesError):
        decode(GOLDEN_TERMINATE + b"\x00")


def test_trailing_bytes_inside_declared_payload():
    # Terminate with a declared-but-meaningless extra payload byte
    with pytest.raises(TrailingBytesError):
        decode(bytes.fromhex("00000002" "06" "ff"))


def test_error_classes_are_distinct_protocol_errors():
    classes = {UnknownTagError, TruncatedFrameError, TrailingBytesError}
    for cls in classes:
        assert issubclass(cls, ProtocolError)
    assert UnknownTagError is not TruncatedFrameError
    assert not issubclass(UnknownTagError, TruncatedFrameError)
    assert not issubclass(TruncatedFrameError, TrailingBytesError)


@pytest.mark.parametrize("byte", [b"2", b"a", b"\xff", b"\x80"])
def test_a_finish_path_byte_other_than_0_or_1_is_a_protocol_error(byte):
    frame = encode(Finish(EngineStats(paths=["0110"])))
    assert frame.endswith(b"0110")
    bad = frame[:-2] + byte + frame[-1:]  # "01?0", a well-framed Finish
    with pytest.raises(ProtocolError, match="path byte") as err:
        decode(bad)
    assert type(err.value) is ProtocolError


def test_a_test_name_that_is_not_utf8_is_a_protocol_error():
    for msg in (Task(Strategy("dfs"), {"x": 1}, 0, 1), Offload({"x": 1}, 2)):
        frame = encode(msg)
        at = frame.index(b"\x00\x01x")  # the name's length, then "x"
        bad = frame[: at + 2] + b"\xff" + frame[at + 3 :]
        assert len(bad) == len(frame)  # the frame is not short
        with pytest.raises(ProtocolError, match="not UTF-8") as err:
            decode(bad)
        assert type(err.value) is ProtocolError


@pytest.mark.parametrize("names", [(b"x", b"x"), (b"z", b"y"), (b"y", b"x")])
def test_a_test_naming_an_input_twice_or_out_of_order_is_a_protocol_error(names):
    # GOLDEN_TASK's test {"x": -8, "y": 7}, with the names replaced
    at = GOLDEN_TASK.index(b"\x00\x01x")
    bad = bytearray(GOLDEN_TASK)
    bad[at + 2], bad[at + 13] = names[0][0], names[1][0]
    with pytest.raises(ProtocolError, match="strictly increasing") as err:
        decode(bytes(bad))
    assert type(err.value) is ProtocolError


@pytest.mark.parametrize("byte", [2, 0x80, 0xFF])
def test_a_finish_truncated_byte_other_than_0_or_1_is_a_protocol_error(byte):
    at = 5 + 6 * 8  # six u64 counters, then the truncated byte
    for flag in (0, 1):
        frame = GOLDEN_FINISH[:at] + bytes([flag]) + GOLDEN_FINISH[at + 1 :]
        assert decode(frame).stats.truncated == bool(flag)
    bad = GOLDEN_FINISH[:at] + bytes([byte]) + GOLDEN_FINISH[at + 1 :]
    with pytest.raises(ProtocolError, match="truncated byte") as err:
        decode(bad)
    assert type(err.value) is ProtocolError


def _check_canonical(frame):
    """decode either rejects frame with a ProtocolError or accepts exactly
    the bytes encode writes for what it decoded."""
    try:
        msg = decode(frame)
    except ProtocolError:
        return False
    assert encode(msg) == frame, frame.hex()
    return True


def test_every_single_byte_change_of_a_golden_frame_is_rejected_or_canonical():
    accepted = 0
    for _, frame in GOLDEN_PAIRS:
        for at in range(len(frame)):
            for byte in range(256):
                accepted += _check_canonical(frame[:at] + bytes([byte]) + frame[at + 1 :])
    assert accepted > 10_000  # counters, values and seeds take any bytes


@settings(max_examples=400)
@given(
    st.sampled_from([frame for _, frame in GOLDEN_PAIRS]),
    st.lists(
        st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 80),
                  st.integers(0, 255)),
        min_size=1, max_size=4,
    ),
)
def test_every_frame_decode_accepts_re_encodes_to_itself(frame, edits):
    # a mutation of a golden frame, checked as it is and with its length
    # prefix mended, so that payload fields are reached; a frame has 5
    # bytes or more, so 4 deletes leave one
    buf = bytearray(frame)
    for kind, at, byte in edits:
        at %= len(buf) + (kind == "insert")
        if kind == "set":
            buf[at] = byte
        elif kind == "insert":
            buf.insert(at, byte)
        else:
            del buf[at]
    _check_canonical(bytes(buf))
    if len(buf) >= 4:
        buf[:4] = (len(buf) - 4).to_bytes(4, "big")
        _check_canonical(bytes(buf))


# -- randomized round trips


def random_message(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        strat = rng.choice(
            [Strategy("dfs"), Strategy("bfs"), Strategy("random", rng.randrange(2**64))]
        )
        test = {
            f"v{j}": rng.randrange(-(2**63), 2**63) for j in range(rng.randrange(4))
        }
        return Task(strat, test, rng.randrange(2**32), rng.randrange(2**32))
    if kind == 1:
        paths = [
            "".join(rng.choice("01") for _ in range(rng.randrange(12)))
            for _ in range(rng.randrange(5))
        ]
        return Finish(
            EngineStats(
                states_created=rng.randrange(2**64),
                states_suspended=rng.randrange(2**64),
                frontier=rng.randrange(2**64),
                solver_queries=rng.randrange(2**64),
                cache_hits=rng.randrange(2**64),
                instructions=rng.randrange(2**64),
                truncated=rng.random() < 0.5,
                wall_us=rng.randrange(2**64),
                paths=paths,
            )
        )
    if kind == 2:
        return ProvideWork()
    if kind == 3:
        test = {f"x{j}": rng.randrange(-100, 100) for j in range(rng.randrange(3))}
        return Offload(test, rng.randrange(2**32))
    if kind == 4:
        return NoWork()
    return Terminate()


def test_round_trip_seeded_sample():
    rng = random.Random(4096)
    for _ in range(500):
        msg = random_message(rng)
        assert decode(encode(msg)) == msg


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_random_strategy_task(seed, td, fd):
    msg = Task(Strategy("random", seed), {"x": 1}, td, fd)
    assert decode(encode(msg)) == msg


# -- queue transports


def test_queue_hub_round_trip_and_ids():
    hub = QueueHub(2)
    t0, t1 = hub.transport_for(0), hub.transport_for(1)
    hub.send(1, Terminate())
    assert t1.recv(timeout=1) == Terminate()
    t0.send(NoWork())
    t1.send(ProvideWork())
    got = {hub.recv(timeout=1), hub.recv(timeout=1)}
    assert got == {(0, NoWork()), (1, ProvideWork())}


def test_queue_transport_poll_and_timeout():
    hub = QueueHub(1)
    t = hub.transport_for(0)
    assert t.poll() is None
    hub.send(0, ProvideWork())
    assert t.poll() == ProvideWork()
    with pytest.raises(RecvTimeout):
        t.recv(timeout=0.01)
    with pytest.raises(RecvTimeout):
        hub.recv(timeout=0.01)


def test_queue_hub_broadcast():
    hub = QueueHub(3)
    hub.broadcast(Terminate())
    for w in range(3):
        assert hub.transport_for(w).recv(timeout=1) == Terminate()


# -- socket transports


def test_socket_hub_round_trip():
    hub = SocketHub(2)
    host, port = hub.address
    transports = []

    def connect():
        s = socket.create_connection((host, port), timeout=5)
        transports.append(SocketTransport(s))

    c0 = threading.Thread(target=connect)
    c0.start(); c0.join()
    c1 = threading.Thread(target=connect)
    c1.start(); c1.join()
    hub.accept_all()
    try:
        # ids follow accept order, which here is connect order
        hub.send(0, Task(Strategy("dfs"), {"x": 1}, 0, 2))
        hub.send(1, Terminate())
        assert transports[0].recv(timeout=5) == Task(Strategy("dfs"), {"x": 1}, 0, 2)
        assert transports[1].recv(timeout=5) == Terminate()
        transports[0].send(NoWork())
        assert hub.recv(timeout=5) == (0, NoWork())
        # stream reassembly: two frames in one burst arrive as two messages
        transports[1]._sock.sendall(encode(ProvideWork()) + encode(NoWork()))
        assert hub.recv(timeout=5) == (1, ProvideWork())
        assert hub.recv(timeout=5) == (1, NoWork())
        # polling an empty socket returns None without blocking
        assert transports[0].poll() is None
        # a closed peer surfaces as TransportClosed
        transports[0].close()
        with pytest.raises(TransportClosed):
            hub.recv(timeout=5)
    finally:
        for t in transports:
            t.close()
        hub.close()


def test_accept_all_waits_the_accept_timeout_it_reads_at_call_time(monkeypatch):
    monkeypatch.setattr(proto, "ACCEPT_TIMEOUT", 0.2)
    hub = SocketHub(2)
    s = socket.create_connection(hub.address, timeout=5)
    t0 = time.perf_counter()
    try:
        # one of two workers connects: the hub waits 0.2 s for the second
        with pytest.raises(socket.timeout):
            hub.accept_all()
        assert 0.2 <= time.perf_counter() - t0 < 5.0
    finally:
        s.close()
        hub.close()


def test_a_frame_split_inside_its_header_arrives_as_one_message():
    hub = SocketHub(1)
    s = socket.create_connection(hub.address, timeout=5)
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    tr = SocketTransport(s)
    hub.accept_all()
    frame = encode(Offload({"x": -3, "y": 7}, 2))
    # the hub sees the first two bytes, then waits inside the header
    rest = threading.Timer(0.05, s.sendall, args=(frame[2:],))
    s.sendall(frame[:2])
    rest.start()
    try:
        assert hub.recv(timeout=5) == (0, Offload({"x": -3, "y": 7}, 2))
    finally:
        rest.join()
        tr.close()
        hub.close()


CUT_FRAME = encode(Offload({"x": -3}, 2))  # 22 bytes


@pytest.mark.parametrize("cut", [0, 1, 2, 3, 4, 7, 21, 22])
def test_a_stream_reads_as_closed_only_at_a_frame_boundary(cut):
    a, b = socket.socketpair()
    try:
        a.sendall(CUT_FRAME + CUT_FRAME[:cut])
        a.close()
        assert proto.read_frame(b) == CUT_FRAME
        if cut in (0, len(CUT_FRAME)):
            assert proto.read_frame(b) == (None if cut == 0 else CUT_FRAME)
        else:  # the stream ends inside the second frame
            with pytest.raises(TruncatedFrameError, match="^stream ended inside a frame$"):
                proto.read_frame(b)
    finally:
        a.close()
        b.close()


def test_a_worker_transport_tells_a_cut_frame_from_a_close():
    hub = SocketHub(2)
    transports = hub.transports()
    try:
        # worker 0's stream ends 2 bytes into a frame, worker 1's between frames
        hub._conns[0].sendall(CUT_FRAME[:2])
        for conn in hub._conns:
            conn.close()
        with pytest.raises(TruncatedFrameError):
            transports[0].recv(timeout=5)
        with pytest.raises(TransportClosed):
            transports[1].recv(timeout=5)
    finally:
        hub.close()


def test_a_worker_stalled_inside_a_frame_times_out_the_hub_recv(monkeypatch):
    # read at accept time: a connection's timeout bounds a stall in a frame
    monkeypatch.setattr(proto, "RECV_TIMEOUT", 0.3)
    hub = SocketHub(1)
    s = socket.create_connection(hub.address, timeout=5)
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    hub.accept_all()
    t0 = time.perf_counter()
    try:
        s.sendall(CUT_FRAME[:7])
        with pytest.raises(RecvTimeout, match="^worker 0 stalled inside a frame$"):
            hub.recv(timeout=5)
        assert 0.3 <= time.perf_counter() - t0 < 5.0
    finally:
        s.close()
        hub.close()


def test_socket_transport_poll_sees_pending_frame():
    hub = SocketHub(1)
    host, port = hub.address
    s = socket.create_connection((host, port), timeout=5)
    tr = SocketTransport(s)
    hub.accept_all()
    try:
        hub.send(0, ProvideWork())
        for _ in range(200):
            msg = tr.poll()
            if msg is not None:
                break
        assert msg == ProvideWork()
    finally:
        tr.close()
        hub.close()


# -- field widths: each field's codec checks its width


@pytest.mark.parametrize(
    "msg,field",
    [
        (Task(Strategy("dfs"), {f"x{i}": 0 for i in range(2**16)}, 0, 1), "test count"),
        (Offload({"x" * 2**16: 0}, 1), "test name length"),
        (Offload({"é" * 2**15: 0}, 1), "test name length"),  # 32,768 characters, 65,536 bytes
        (Task(Strategy("dfs"), {"x": 2**63}, 0, 1), "test value"),
        (Task(Strategy("dfs"), {"x": -(2**63) - 1}, 0, 1), "test value"),
        (Task(Strategy("random", 2**64), {}, 0, 1), "seed"),
        (Task(Strategy("random", -1), {}, 0, 1), "seed"),
        (Task(Strategy("dfs"), {}, 2**32, 1), "test_depth"),
        (Task(Strategy("dfs"), {}, 0, 2**32), "final_depth"),
        (Task(Strategy("dfs"), {}, 0, -1), "final_depth"),
        (Offload({}, 2**32), "depth"),
        (Finish(EngineStats(paths=["0" * 2**16])), "path length"),
        (Finish(EngineStats(instructions=2**64)), "instructions"),
        (Finish(EngineStats(wall_us=-1)), "wall_us"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_a_value_too_wide_for_its_field_is_a_protocol_error_naming_the_field(msg, field):
    with pytest.raises(ProtocolError, match=f"^{field} .* does not fit its [iu](16|32|64) field$") \
            as err:
        encode(msg)
    assert type(err.value) is ProtocolError


@pytest.mark.parametrize(
    "msg,error",
    [
        (Task(Strategy("random"), {}, 0, 0), "seed None does not fit its u64 field"),
        (Task(Strategy("xyz"), {}, 0, 0), "strategy code 'xyz' is not one of"),
        (Offload({"x": "a"}, 0), "test value 'a' does not fit its i64 field"),
        (Finish(EngineStats(paths=["012"])), "Finish path '012' is not ASCII '0' and '1'"),
    ],
    ids=["no seed", "unknown strategy", "str test value", "path byte"],
)
def test_a_value_a_field_cannot_carry_is_a_protocol_error_naming_the_field(msg, error):
    # the path once encoded into a frame that decode rejects
    with pytest.raises(ProtocolError, match=f"^{error}") as err:
        encode(msg)
    assert type(err.value) is ProtocolError


def test_the_widest_value_of_each_field_round_trips():
    msgs = [
        Task(Strategy("dfs"), {f"x{i:05d}": 0 for i in range(2**16 - 1)}, 0, 0),
        Task(Strategy("random", 2**64 - 1), {"x" * (2**16 - 1): 2**63 - 1, "y": -(2**63)},
             2**32 - 1, 2**32 - 1),
        Offload({"é" * (2**15 - 1) + "x": -1}, 2**32 - 1),
        Finish(EngineStats(instructions=2**64 - 1, wall_us=2**64 - 1, paths=["1" * (2**16 - 1)])),
    ]
    for msg in msgs:
        assert decode(encode(msg)) == msg


def test_encode_and_decode_read_one_layout_per_tag():
    assert sorted(proto.LAYOUTS) == [1, 2, 3, 4, 5, 6]
    for msg, frame in GOLDEN_PAIRS:
        assert proto.LAYOUTS[frame[4]].cls is type(msg)


# -- each hub makes its workers' transports


def test_each_hub_makes_its_workers_transports_in_worker_id_order():
    hub = QueueHub(3)
    for wid, t in enumerate(hub.transports()):
        t.send(NoWork())
        assert hub.recv(timeout=1) == (wid, NoWork())
    hub = SocketHub(3)
    transports = hub.transports()
    try:
        for wid, t in enumerate(transports):
            t.send(NoWork())
            assert hub.recv(timeout=5) == (wid, NoWork())
            hub.send(wid, Terminate())
            assert t.recv(timeout=5) == Terminate()
    finally:
        for t in transports:
            t.close()
        hub.close()


def connects_until(monkeypatch, fail_at: int) -> list:
    """socket.create_connection patched to refuse its call number fail_at
    (from 0); the sockets it made before."""
    real = socket.create_connection
    made = []

    def connect(*args, **kw):
        if len(made) == fail_at:
            raise ConnectionRefusedError("refused")
        made.append(real(*args, **kw))
        return made[-1]

    monkeypatch.setattr(socket, "create_connection", connect)
    return made


def test_a_connect_that_fails_partway_closes_every_socket(monkeypatch):
    made = connects_until(monkeypatch, 2)
    hub = SocketHub(4)
    with pytest.raises(ConnectionRefusedError):
        hub.transports()
    hub.close()  # the hub's owner releases it
    assert [s.fileno() for s in made] == [-1, -1]
    assert hub._listener.fileno() == -1


def test_an_accept_that_fails_partway_closes_every_socket(monkeypatch):
    # the second worker's connection is made but never accepted
    monkeypatch.setattr(proto, "ACCEPT_TIMEOUT", 0.2)
    real = SocketHub.accept_all

    def accept_one_too_many(self):
        self.num_workers += 1
        real(self)

    monkeypatch.setattr(SocketHub, "accept_all", accept_one_too_many)
    made = connects_until(monkeypatch, 3)
    hub = SocketHub(2)
    with pytest.raises(socket.timeout):
        hub.transports()
    hub.close()  # the hub's owner releases it
    assert [s.fileno() for s in made + hub._conns] == [-1] * 4
    assert hub._listener.fileno() == -1
