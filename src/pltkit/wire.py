"""Binary framing and TCP transport.

Every frame is magic ``PLT1``, one message-type byte, a u32 little-endian
payload length, then the payload.  Integers inside payloads are little
endian: u64 for field values and the modulus, u32 for counts and indices.
Message types: 0x01 query, 0x02 answer, 0x03 error, 0x04 database load.

A server stays on the connection after replying, including after an error
reply to a structurally framed but semantically bad payload; it only hangs
up when the byte stream itself can no longer be trusted.
"""

from __future__ import annotations

import os
import socket
import socketserver
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from math import comb
from typing import Optional, Sequence

import numpy as np

from .engine import Database, QueryBundle, ServerQuery, server_answer
from .fields import field_new
from .plan import DEFAULT_LIMITS, QueryTerms

MAGIC = b"PLT1"
MSG_QUERY = 0x01
MSG_ANSWER = 0x02
MSG_ERROR = 0x03
MSG_LOAD_DB = 0x04

DEFAULT_PORT = 7311
BIND_ENV = "PLT_BIND"
MAX_PAYLOAD = 256 * 1024 * 1024
_READ_CHUNK = 1 << 20

ERR_NO_DATABASE = 1
ERR_BAD_REQUEST = 2
ERR_SHAPE_MISMATCH = 3
ERR_INTERNAL = 4


class Malformed(ValueError):
    """Frame or payload bytes do not parse."""


class Overflow(ValueError):
    """Declared length exceeds the payload budget."""


class ConnectionFailed(ConnectionError):
    pass


class RemoteError(RuntimeError):
    """The peer answered with an error frame."""

    def __init__(self, code: int, message: str):
        super().__init__(f"remote error {code}: {message}")
        self.code = code
        self.message = message


def _new_frame(msg_type: int, length: int) -> bytearray:
    """A frame of ``length`` payload bytes, zeroed, with its head written."""
    if length > MAX_PAYLOAD:
        raise Overflow(f"payload of {length} bytes exceeds {MAX_PAYLOAD}")
    frame = bytearray(9 + length)
    struct.pack_into("<4sBI", frame, 0, MAGIC, msg_type, length)
    return frame


def _frame(msg_type: int, payload: bytes) -> bytearray:
    frame = _new_frame(msg_type, len(payload))
    frame[9:] = payload
    return frame


class _Reader:
    """Cursor over one payload; every read is bounds-checked."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise Malformed("payload truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def u64_many(self, count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}Q", self.take(8 * count))

    def done(self):
        if self.pos > len(self.data):
            raise Malformed("payload truncated")
        if self.pos != len(self.data):
            raise Malformed(f"{len(self.data) - self.pos} trailing bytes")


def _row_dtype(t: int) -> np.dtype:
    """A query row of t terms on the wire: a u32 term count, then per term
    a u32 function, a u32 symbol and a u64 coefficient, packed."""
    return np.dtype([("count", "<u4"),
                     ("terms", [("func", "<u4"), ("sym", "<u4"), ("coeff", "<u8")], (t,))])


def encode_query(sq: ServerQuery) -> bytearray:
    r, f_count = sq.r, sq.f_count
    frame = _new_frame(MSG_QUERY, query_frame_size(sq) - 9)
    vectors = [v for rows in (sq.q_vectors, sq.betas) for row in rows for v in row]
    head = f"<QIIII{len(vectors)}QI"
    struct.pack_into(head, frame, 9, sq.q, sq.k, sq.s, r, f_count, *vectors,
                     len(sq.expressions))
    offset = 9 + struct.calcsize(head)
    for funcs, syms, coeffs in sq.expressions.blocks:
        rows = np.frombuffer(frame, _row_dtype(funcs.shape[1]), len(funcs), offset)
        rows["count"] = funcs.shape[1]
        terms = rows["terms"]
        terms["func"], terms["sym"], terms["coeff"] = funcs, syms, coeffs
        offset += rows.nbytes
    return frame


def query_frame_size(sq: ServerQuery) -> int:
    """The length of ``encode_query(sq)``, which allocates the frame by it."""
    return (9 + 24 + 8 * sq.r * sq.k + 8 * sq.f_count * sq.r + 4
            + sum(funcs.shape[0] * (4 + 16 * funcs.shape[1])
                  for funcs, _, _ in sq.expressions.blocks))


def _honest_shape(k: int, s: int, r: int, f_count: int) -> bool:
    """Whether an honest client can send this header: F = C(k, k - r + 1)
    functions, at most the default limit, over S = N^F symbols."""
    # C(k, m) >= 2^m > m for 1 <= m <= k/2, so m <= F spares a huge comb
    m = min(r - 1, k - r + 1)
    return (1 <= r <= k and f_count <= DEFAULT_LIMITS.max_functions
            and m <= f_count and comb(k, m) == f_count
            and s >= 1 and round(s ** (1 / f_count)) ** f_count == s)


def decode_query(payload: bytes) -> ServerQuery:
    rd = _Reader(payload)
    q = rd.u64()
    k, s, r, f_count = rd.u32(), rd.u32(), rd.u32(), rd.u32()
    # terms are held as int64, so q must stay below 2**63
    if not 2 <= q < 2 ** 63 or not _honest_shape(k, s, r, f_count):
        raise Malformed(f"implausible header (q={q}, k={k}, s={s}, r={r}, f={f_count})")
    offset = rd.pos
    rd.pos += 8 * r * (k + f_count)
    n_expr = rd.u32()
    vectors = np.frombuffer(payload, "<u8", r * (k + f_count), offset)
    if (vectors >= q).any():
        raise Malformed("query vector or coefficient entry not reduced")
    blocks, end = [], len(payload)
    while n_expr:
        t = rd.u32()
        if t < 1 or t > f_count:
            raise Malformed(f"expression with {t} terms")
        start, stride = rd.pos - 4, 4 + 16 * t
        # row i of a run of t-term rows has its count at start + i * stride;
        # the run ends at the first count that is not t.  Windows double, so
        # a run of n rows costs O(n) and short runs stay cheap.
        fit = min(n_expr, (end - start) // stride)
        if fit == 0:
            raise Malformed("payload truncated")
        run, width = 1, 1
        while run < fit:
            width = min(width, fit - run)
            counts = np.ndarray((width,), "<u4", payload, start + run * stride, (stride,))
            off = np.flatnonzero(counts != t)
            if off.size:
                run += int(off[0])
                break
            run, width = run + width, 2 * width
        rows = np.frombuffer(payload, _row_dtype(t), run, start)
        terms = rows["terms"]
        funcs, syms, coeffs = terms["func"], terms["sym"], terms["coeff"]
        if (funcs >= f_count).any() or (syms >= s).any() or not (
                (coeffs > 0) & (coeffs < q)).all():
            raise Malformed("expression term out of range")
        blocks.append((funcs.astype(np.int64), syms.astype(np.int64),
                       coeffs.astype(np.int64)))
        rd.pos, n_expr = start + rows.nbytes, n_expr - run
    rd.done()
    q_vectors = tuple(map(tuple, vectors[:r * k].reshape(r, k).tolist()))
    betas = tuple(map(tuple, vectors[r * k:].reshape(f_count, r).tolist()))
    return ServerQuery(q, k, s, q_vectors, betas, QueryTerms(tuple(blocks)))


def encode_answer(symbols: Sequence[int]) -> bytearray:
    frame = _new_frame(MSG_ANSWER, 4 + 8 * len(symbols))
    struct.pack_into(f"<I{len(symbols)}Q", frame, 9, len(symbols), *symbols)
    return frame


def decode_answer(payload: bytes) -> tuple[int, ...]:
    rd = _Reader(payload)
    count = rd.u32()
    symbols = rd.u64_many(count)
    rd.done()
    return symbols


def encode_error(code: int, message: str) -> bytearray:
    return _frame(MSG_ERROR, struct.pack("<I", code) + message.encode("utf-8"))


def decode_error(payload: bytes) -> tuple[int, str]:
    rd = _Reader(payload)
    code = rd.u32()
    text = rd.data[rd.pos:].decode("utf-8", errors="replace")
    return code, text


def encode_database(db: Database) -> bytearray:
    k, s = db.rows.shape
    frame = _new_frame(MSG_LOAD_DB, 16 + 8 * k * s)
    struct.pack_into("<QII", frame, 9, db.field.q, k, s)
    np.frombuffer(frame, "<u8", k * s, 25).reshape(k, s)[...] = db.rows
    return frame


def decode_database(payload: bytes) -> Database:
    rd = _Reader(payload)
    q = rd.u64()
    k, s = rd.u32(), rd.u32()
    if k < 1 or s < 1:
        raise Malformed(f"implausible database shape ({k}, {s})")
    offset = rd.pos
    rd.pos += 8 * k * s
    rd.done()
    symbols = np.frombuffer(payload, "<u8", k * s, offset).reshape(k, s)
    try:
        # Database copies the symbols, so it never aliases the payload buffer
        return Database(symbols, field_new(q))
    except ValueError as exc:  # NotPrime, or a symbol not reduced mod q
        raise Malformed(f"database: {exc}") from None


def _fill(stream, buf: bytearray, filled: int) -> int:
    """Read into ``buf[filled:]`` until it is full or the stream ends;
    returns the count of bytes now in ``buf``."""
    with memoryview(buf) as view:
        while filled < len(buf):
            got = stream.readinto(view[filled:])
            if not got:
                break
            filled += got
    return filled


def read_frame(stream) -> tuple[int, bytearray]:
    """Next (type, payload) from a file-like byte stream.

    EOFError on clean end-of-stream before any byte of a frame; Malformed on
    a torn or alien frame; Overflow when the declared length is over budget.
    The payload buffer starts at 1 MiB at most and doubles as it fills, so a
    declared length costs no memory until its bytes arrive.
    """
    head = bytearray(9)
    got = _fill(stream, head, 0)
    if got == 0:
        raise EOFError
    if got < 9:
        raise Malformed("short frame header")
    magic, msg_type, length = struct.unpack("<4sBI", head)
    if magic != MAGIC:
        raise Malformed("bad magic")
    if length > MAX_PAYLOAD:
        raise Overflow(f"frame of {length} bytes exceeds {MAX_PAYLOAD}")
    payload = bytearray(min(length, _READ_CHUNK))
    filled = _fill(stream, payload, 0)
    while filled == len(payload) < length:
        payload.extend(bytes(min(len(payload), length - len(payload))))
        filled = _fill(stream, payload, filled)
    if filled < length:
        raise Malformed("stream ended mid-payload")
    return msg_type, payload


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    database: Optional[Database] = None
    db_lock: threading.Lock


class _Handler(socketserver.StreamRequestHandler):
    # seconds a connection may stay silent (or leave a reply unread) before
    # the server hangs up; StreamRequestHandler sets it on the socket
    timeout = 30.0

    def handle(self):
        while True:
            try:
                msg_type, payload = read_frame(self.rfile)
            except (EOFError, OSError):  # a clean close, a reset or the idle timeout
                return
            except (Malformed, Overflow) as exc:
                self._send(encode_error(ERR_BAD_REQUEST, str(exc)))
                return  # byte stream no longer in sync
            try:
                reply = self._dispatch(msg_type, payload)
            except (Malformed, ValueError) as exc:
                reply = encode_error(ERR_BAD_REQUEST, str(exc))
            except Exception as exc:  # keep serving other connections
                reply = encode_error(ERR_INTERNAL, f"{type(exc).__name__}: {exc}")
            self._send(reply)

    def _dispatch(self, msg_type: int, payload: bytes) -> bytes:
        srv: _TcpServer = self.server
        if msg_type == MSG_LOAD_DB:
            db = decode_database(payload)
            with srv.db_lock:
                srv.database = db
            return encode_answer(())
        if msg_type == MSG_QUERY:
            sq = decode_query(payload)
            with srv.db_lock:
                db = srv.database
            if db is None:
                return encode_error(ERR_NO_DATABASE, "no database loaded")
            if db.field.q != sq.q or db.k != sq.k or db.s != sq.s:
                return encode_error(
                    ERR_SHAPE_MISMATCH,
                    f"database is (q={db.field.q}, k={db.k}, s={db.s}), "
                    f"query wants (q={sq.q}, k={sq.k}, s={sq.s})")
            return encode_answer(server_answer(sq, db))
        return encode_error(ERR_BAD_REQUEST, f"unknown message type {msg_type:#x}")

    def _send(self, frame: bytes):
        try:
            self.wfile.write(frame)
            self.wfile.flush()
        except OSError:
            pass


class PltServer:
    """Threaded TCP front end over one in-memory database."""

    def __init__(self, database: Optional[Database] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self._srv = _TcpServer((host, port), _Handler, bind_and_activate=True)
        self._srv.database = database
        self._srv.db_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self._srv.server_address[:2]

    def start(self) -> "PltServer":
        self._thread = threading.Thread(target=self._srv.serve_forever, daemon=True)
        self._thread.start()
        return self

    def run_forever(self):
        self._srv.serve_forever()

    def stop(self):
        self._srv.shutdown()
        self._srv.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "PltServer":
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def resolve_bind(default_host: str = "0.0.0.0",
                 default_port: int = DEFAULT_PORT) -> tuple[str, int]:
    """Bind address from the environment: "host", ":port", or "host:port"."""
    raw = os.environ.get(BIND_ENV, "").strip()
    if not raw:
        return default_host, default_port
    if ":" in raw:
        host, _, port_text = raw.rpartition(":")
        host = host or default_host
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"{BIND_ENV}={raw!r}: port is not an integer")
    else:
        host, port = raw, default_port
    if not (0 <= port < 65536):
        raise ValueError(f"{BIND_ENV}={raw!r}: port out of range")
    return host, port


def _exchange(address: tuple[str, int], frame: bytes, timeout: float) -> bytes:
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            sock.sendall(frame)
            with sock.makefile("rb") as stream:
                msg_type, payload = read_frame(stream)
    except OSError as exc:
        raise ConnectionFailed(f"{address[0]}:{address[1]}: {exc}") from exc
    if msg_type == MSG_ERROR:
        code, text = decode_error(payload)
        raise RemoteError(code, text)
    if msg_type != MSG_ANSWER:
        raise Malformed(f"expected an answer frame, got type {msg_type:#x}")
    return payload


def push_database(address: tuple[str, int], database: Database,
                  timeout: float = 30.0):
    """Install ``database`` on the server at ``address``."""
    payload = _exchange(address, encode_database(database), timeout)
    decode_answer(payload)


def client_run(addresses: Sequence[tuple[str, int]], bundle: QueryBundle,
               timeout: float = 30.0) -> list[list[int]]:
    """Send each per-server query to its host, concurrently; collect answers.

    ``addresses`` pairs up with ``bundle.server_queries`` by position.
    """
    if len(addresses) != bundle.n_servers:
        raise ValueError(
            f"bundle wants {bundle.n_servers} servers, got {len(addresses)} addresses")
    frames = [encode_query(sq) for sq in bundle.server_queries]
    with ThreadPoolExecutor(max_workers=len(addresses)) as pool:
        futures = [pool.submit(_exchange, addr, frame, timeout)
                   for addr, frame in zip(addresses, frames)]
        payloads = [f.result() for f in futures]
    answers = [list(decode_answer(p)) for p in payloads]
    for n, (ans, sq) in enumerate(zip(answers, bundle.server_queries)):
        if len(ans) != len(sq.expressions):
            raise Malformed(
                f"server {n} answered {len(ans)} symbols for {len(sq.expressions)} expressions")
    return answers
