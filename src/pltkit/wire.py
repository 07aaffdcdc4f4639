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
from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from .engine import Database, QueryBundle, ServerQuery, server_answer
from .fields import field_new
from .plan import QueryTerms

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


def _frame(msg_type: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise Overflow(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return MAGIC + bytes([msg_type]) + struct.pack("<I", len(payload)) + payload


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


def encode_query(sq: ServerQuery) -> bytes:
    r, f_count = sq.r, sq.f_count
    parts = [struct.pack("<QIIII", sq.q, sq.k, sq.s, r, f_count)]
    parts.append(struct.pack(f"<{r * sq.k}Q", *(v for row in sq.q_vectors for v in row)))
    parts.append(struct.pack(f"<{f_count * r}Q", *(v for row in sq.betas for v in row)))
    parts.append(struct.pack("<I", len(sq.expressions)))
    for funcs, syms, coeffs in sq.expressions.blocks:
        rows = np.empty(len(funcs), _row_dtype(funcs.shape[1]))
        rows["count"] = funcs.shape[1]
        terms = rows["terms"]
        terms["func"], terms["sym"], terms["coeff"] = funcs, syms, coeffs
        parts.append(rows.tobytes())
    return _frame(MSG_QUERY, b"".join(parts))


def query_frame_size(sq: ServerQuery) -> int:
    """``len(encode_query(sq))``, counted without encoding."""
    return (9 + 24 + 8 * sq.r * sq.k + 8 * sq.f_count * sq.r + 4
            + sum(funcs.shape[0] * (4 + 16 * funcs.shape[1])
                  for funcs, _, _ in sq.expressions.blocks))


def decode_query(payload: bytes) -> ServerQuery:
    rd = _Reader(payload)
    q = rd.u64()
    k, s, r, f_count = rd.u32(), rd.u32(), rd.u32(), rd.u32()
    # terms are held as int64, so q must stay below 2**63
    if not 2 <= q < 2 ** 63 or k < 1 or s < 1 or not (1 <= r <= k) or f_count < 1:
        raise Malformed(f"implausible header (q={q}, k={k}, s={s}, r={r}, f={f_count})")
    flat = rd.u64_many(r * k)
    q_vectors = tuple(flat[i * k:(i + 1) * k] for i in range(r))
    flat = rd.u64_many(f_count * r)
    betas = tuple(flat[i * r:(i + 1) * r] for i in range(f_count))
    n_expr = rd.u32()
    # one pass over the row headers, then one array view per run of equal
    # term counts
    offset, counts = rd.pos, []
    for _ in range(n_expr):
        n_terms = rd.u32()
        if n_terms < 1 or n_terms > f_count:
            raise Malformed(f"expression with {n_terms} terms")
        counts.append(n_terms)
        rd.pos += 16 * n_terms  # the next read or done() catches a short payload
    rd.done()
    blocks = []
    for t, run in groupby(counts):
        rows = np.frombuffer(payload, _row_dtype(t), len(list(run)), offset)
        offset += rows.nbytes
        terms = rows["terms"]
        funcs, syms, coeffs = terms["func"], terms["sym"], terms["coeff"]
        if (funcs >= f_count).any() or (syms >= s).any() or not (
                (coeffs > 0) & (coeffs < q)).all():
            raise Malformed("expression term out of range")
        blocks.append((funcs.astype(np.int64), syms.astype(np.int64),
                       coeffs.astype(np.int64)))
    if any(v >= q for row in q_vectors for v in row):
        raise Malformed("query vector entry not reduced")
    if any(v >= q for row in betas for v in row):
        raise Malformed("coefficient entry not reduced")
    return ServerQuery(q, k, s, q_vectors, betas, QueryTerms(tuple(blocks)))


def encode_answer(symbols: Sequence[int]) -> bytes:
    payload = struct.pack("<I", len(symbols)) + struct.pack(
        f"<{len(symbols)}Q", *symbols)
    return _frame(MSG_ANSWER, payload)


def decode_answer(payload: bytes) -> tuple[int, ...]:
    rd = _Reader(payload)
    count = rd.u32()
    symbols = rd.u64_many(count)
    rd.done()
    return symbols


def encode_error(code: int, message: str) -> bytes:
    return _frame(MSG_ERROR, struct.pack("<I", code) + message.encode("utf-8"))


def decode_error(payload: bytes) -> tuple[int, str]:
    rd = _Reader(payload)
    code = rd.u32()
    text = rd.data[rd.pos:].decode("utf-8", errors="replace")
    return code, text


def encode_database(db: Database) -> bytes:
    head = struct.pack("<QII", db.field.q, db.k, db.s)
    return _frame(MSG_LOAD_DB, head + db.rows.astype("<u8").tobytes())


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


def _read_upto(stream, n: int) -> bytearray:
    """Up to ``n`` bytes, fewer only if the stream ends.  The buffer grows
    as bytes arrive, so a declared length costs no memory until it is sent."""
    buf = bytearray()
    while len(buf) < n:
        chunk = stream.read(min(n - len(buf), _READ_CHUNK))
        if not chunk:
            break
        buf += chunk
    return buf


def read_frame(stream) -> tuple[int, bytearray]:
    """Next (type, payload) from a file-like byte stream.

    EOFError on clean end-of-stream before any byte of a frame; Malformed on
    a torn or alien frame; Overflow when the declared length is over budget.
    """
    head = _read_upto(stream, 9)
    if len(head) == 0:
        raise EOFError
    if len(head) < 9:
        raise Malformed("short frame header")
    if head[:4] != MAGIC:
        raise Malformed("bad magic")
    msg_type = head[4]
    (length,) = struct.unpack("<I", head[5:9])
    if length > MAX_PAYLOAD:
        raise Overflow(f"frame of {length} bytes exceeds {MAX_PAYLOAD}")
    payload = _read_upto(stream, length)
    if len(payload) < length:
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
