import io
import random
import socket
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pltkit.engine import (Database, RunOverrides, build_query,
                           function_streams, run_plt, server_answer)
from pltkit.fields import field_new
from pltkit.grs import Demand
from pltkit import wire
from pltkit.wire import (ConnectionFailed, Malformed, Overflow, PltServer,
                         RemoteError, client_run, decode_answer,
                         decode_database, decode_error, decode_query,
                         encode_answer, encode_database, encode_error,
                         encode_query, push_database, query_frame_size,
                         read_frame, resolve_bind)

GF5 = field_new(5)

# Frozen frame: walkthrough query for server 0, built from seed 20210501
# with the fixed points, multipliers, and scalars of the worked instance.
# Regenerating it must reproduce these bytes exactly; any drift in the wire
# layout or in the client's draw order is a breaking change.
GOLDEN_QUERY_HEX = (
    "504c5431018c0200000500000000000000040000001000000002000000040000"
    "0001000000000000000200000000000000040000000000000002000000000000"
    "0000000000000000000200000000000000030000000000000001000000000000"
    "0004000000000000000200000000000000030000000000000001000000000000"
    "0001000000000000000400000000000000000000000000000003000000000000"
    "000c00000001000000000000000a000000040000000000000001000000010000"
    "000a000000040000000000000002000000000000000000000004000000000000"
    "000100000002000000010000000000000002000000000000000e000000040000"
    "00000000000200000002000000010000000000000002000000000000000c0000"
    "0001000000000000000300000002000000010000000000000002000000010000"
    "000e000000040000000000000002000000000000000100000000000000020000"
    "00010000000c0000000100000000000000030000000000000001000000000000"
    "0003000000000000000500000001000000000000000100000004000000040000"
    "00000000000200000007000000040000000000000003000000000000000d0000"
    "0004000000000000000100000009000000010000000000000003000000070000"
    "0004000000000000000300000000000000010000000100000000000000020000"
    "0009000000010000000000000003000000040000000100000000000000030000"
    "0001000000010000000100000000000000020000000d00000001000000000000"
    "0003000000050000000100000000000000040000000000000006000000040000"
    "0000000000010000000b0000000400000000000000020000000f000000010000"
    "000000000003000000080000000400000000000000"
)


def walkthrough_bundle():
    demand = Demand((1, 2, 3), (2, 1, 1), GF5)
    overrides = RunOverrides(fixed_omegas=(0, 1, 2, 3), free_alphas={4: 2},
                             scalar_overrides={0: 2, 1: 1, 2: 4, 3: 3})
    return build_query(demand, 4, 2, random.Random(20210501), overrides=overrides)


def small_bundle(seed=0):
    demand = Demand((1, 3), (2, 4), GF5)
    return build_query(demand, 3, 2, random.Random(seed))


# ------------------------------------------------------------- round trips

def test_query_round_trip():
    for sq in small_bundle().server_queries:
        frame = encode_query(sq)
        msg_type, payload = read_frame(io.BytesIO(frame))
        assert msg_type == wire.MSG_QUERY
        assert decode_query(payload) == sq


def test_golden_query_bytes():
    frame = encode_query(walkthrough_bundle().server_queries[0])
    assert frame == bytes.fromhex(GOLDEN_QUERY_HEX)


def test_golden_query_parses_identically():
    golden = bytes.fromhex(GOLDEN_QUERY_HEX)
    _, payload = read_frame(io.BytesIO(golden))
    sq = decode_query(payload)
    assert sq == walkthrough_bundle().server_queries[0]
    assert sq.q == 5 and sq.k == 4 and sq.s == 16 and sq.r == 2 and sq.f_count == 4
    assert sq.q_vectors == ((1, 2, 4, 2), (0, 2, 3, 1))


def test_query_frame_size_matches_encoding():
    field = field_new(13)
    bundles = [walkthrough_bundle(), small_bundle(), small_bundle(seed=3),
               build_query(Demand((2, 4), (3, 7), field), 4, 3, random.Random(8)),
               build_query(Demand((1,), (5,), field), 4, 2, random.Random(9))]
    for bundle in bundles:
        for sq in bundle.server_queries:
            assert query_frame_size(sq) == len(encode_query(sq))
    assert (query_frame_size(walkthrough_bundle().server_queries[0])
            == len(bytes.fromhex(GOLDEN_QUERY_HEX)))


def test_interleaved_term_counts_round_trip():
    """Rows whose term counts interleave decode to the same rows, encode
    back to the same bytes and are answered row by row.  Honest queries
    send one run per round, but the decoder accepts any order."""
    sq = small_bundle().server_queries[0]
    rows = [((0, 5, 1),), ((0, 1, 2), (2, 7, 4)), ((1, 3, 3),),
            ((0, 0, 1), (1, 2, 2), (2, 4, 3)), ((1, 6, 4), (2, 1, 1)), ((0, 7, 2), (1, 0, 3))]
    head = encode_query(sq)[9:9 + 24 + 8 * (sq.r * sq.k + sq.f_count * sq.r)]
    payload = head + struct.pack("<I", len(rows)) + b"".join(
        struct.pack("<I", len(row)) + b"".join(struct.pack("<IIQ", *term) for term in row)
        for row in rows)
    back = decode_query(payload)
    assert [(e.terms, e.t) for e in back.expressions] == [(row, len(row)) for row in rows]
    assert encode_query(back) == wire._frame(wire.MSG_QUERY, payload)
    assert query_frame_size(back) == 9 + len(payload)
    db = Database.random(GF5, 3, 8, random.Random(2))
    y = function_streams(back, db)
    assert server_answer(back, db) == [
        sum(c * int(y[g, sym]) for g, sym, c in e.terms) % 5 for e in back.expressions]


class OneByteStream(io.RawIOBase):
    """Hands out at most one byte per read, like a slow socket."""

    def __init__(self, data: bytes):
        self._inner = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buf):
        chunk = self._inner.read(min(1, len(buf)))
        buf[:len(chunk)] = chunk
        return len(chunk)


def test_read_frame_one_byte_per_read():
    frame = encode_query(walkthrough_bundle().server_queries[0])
    msg_type, payload = read_frame(OneByteStream(frame))
    assert msg_type == wire.MSG_QUERY
    assert decode_query(payload) == walkthrough_bundle().server_queries[0]
    with pytest.raises(Malformed):
        read_frame(OneByteStream(frame[:-1]))
    with pytest.raises(Malformed):
        read_frame(OneByteStream(frame[:5]))
    with pytest.raises(EOFError):
        read_frame(OneByteStream(b""))


def test_read_frame_allocates_as_bytes_arrive():
    """A header declaring a huge payload that never comes costs no memory."""
    head = wire.MAGIC + bytes([wire.MSG_QUERY]) + struct.pack("<I", wire.MAX_PAYLOAD - 1)
    tracemalloc.start()
    try:
        with pytest.raises(Malformed):
            read_frame(io.BytesIO(head + b"x" * 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024


def test_answer_round_trip():
    for symbols in [(), (0,), (1, 2, 3, 4), tuple(range(100))]:
        _, payload = read_frame(io.BytesIO(encode_answer(symbols)))
        assert decode_answer(payload) == symbols


def test_error_round_trip():
    _, payload = read_frame(io.BytesIO(encode_error(3, "shape off")))
    assert decode_error(payload) == (3, "shape off")


# Frozen frame: Database.random(GF5, 3, 8, Random(4)), one u64 per symbol.
GOLDEN_DATABASE_HEX = (
    "504c543104d00000000500000000000000030000000800000001000000000000"
    "0002000000000000000000000000000000030000000000000003000000000000"
    "0001000000000000000000000000000000000000000000000000000000000000"
    "0003000000000000000400000000000000020000000000000000000000000000"
    "0001000000000000000400000000000000040000000000000002000000000000"
    "0002000000000000000100000000000000000000000000000002000000000000"
    "00010000000000000000000000000000000200000000000000"
)


def test_database_round_trip():
    db = Database.random(GF5, 3, 8, random.Random(4))
    frame = encode_database(db)
    assert frame.hex() == GOLDEN_DATABASE_HEX
    _, payload = read_frame(io.BytesIO(frame))
    back = decode_database(payload)
    assert np.array_equal(back.rows, db.rows)
    assert back.field.q == 5
    # the decoded database owns its symbols: overwriting the bytearray it
    # came from, as a reused read buffer would be, leaves it unchanged
    assert isinstance(payload, bytearray)
    payload[16:] = b"\xff" * (len(payload) - 16)
    assert np.array_equal(back.rows, db.rows)


# -------------------------------------------------------------- bad frames

def test_read_frame_eof_and_truncation():
    with pytest.raises(EOFError):
        read_frame(io.BytesIO(b""))
    with pytest.raises(Malformed):
        read_frame(io.BytesIO(b"PLT1\x01"))       # short header
    with pytest.raises(Malformed):
        read_frame(io.BytesIO(b"XXXX\x01\x00\x00\x00\x00"))  # bad magic
    with pytest.raises(Malformed):
        read_frame(io.BytesIO(b"PLT1\x01\x08\x00\x00\x00abc"))  # torn payload


def test_read_frame_overflow():
    header = b"PLT1\x01" + struct.pack("<I", wire.MAX_PAYLOAD + 1)
    with pytest.raises(Overflow):
        read_frame(io.BytesIO(header))


def test_encode_overflow():
    class Huge:
        def __len__(self):
            return wire.MAX_PAYLOAD + 1
    with pytest.raises(Overflow):
        wire._frame(wire.MSG_ANSWER, Huge())


def test_decode_query_rejects_malformed():
    sq = small_bundle().server_queries[0]
    good = encode_query(sq)[9:]
    with pytest.raises(Malformed):
        decode_query(good[:-1])           # truncated
    with pytest.raises(Malformed):
        decode_query(good + b"\x00")      # trailing byte
    bad_header = struct.pack("<QIIII", 4, 0, 8, 2, 3) + good[24:]
    with pytest.raises(Malformed):
        decode_query(bad_header)
    # term referencing a function beyond F
    tampered = bytearray(good)
    off = 24 + 8 * (sq.r * sq.k + sq.f_count * sq.r) + 4 + 4
    struct.pack_into("<I", tampered, off, sq.f_count + 3)
    with pytest.raises(Malformed):
        decode_query(bytes(tampered))


def test_decode_query_rejects_unreduced_entries():
    sq = small_bundle().server_queries[0]
    good = bytearray(encode_query(sq)[9:])
    struct.pack_into("<Q", good, 24, 7)  # first query-vector entry, q = 5
    with pytest.raises(Malformed):
        decode_query(bytes(good))


def test_decode_database_rejects_bad_modulus_and_symbols():
    db = Database.random(GF5, 2, 4, random.Random(0))
    payload = bytearray(encode_database(db)[9:])
    for modulus in (6, 4, 1, 0, 2 ** 61 - 1):  # composite, too small, too large
        struct.pack_into("<Q", payload, 0, modulus)
        with pytest.raises(Malformed):
            decode_database(bytes(payload))
    payload = bytearray(encode_database(db)[9:])
    struct.pack_into("<Q", payload, 16, 5)  # symbol == q
    with pytest.raises(Malformed):
        decode_database(bytes(payload))


def _fuzz_payloads():
    """A valid payload per decoder, and the (offset, width) of each of its
    header fields: modulus, shape, counts."""
    sq = small_bundle().server_queries[0]
    db = Database.random(GF5, 3, 8, random.Random(0))
    expr_count = 24 + 8 * (sq.r * sq.k + sq.f_count * sq.r)
    return {
        decode_query: (encode_query(sq)[9:],
                       [(0, 8), (8, 4), (12, 4), (16, 4), (20, 4), (expr_count, 4),
                        (expr_count + 4, 4)]),
        decode_answer: (encode_answer([1, 2, 3, 4])[9:], [(0, 4)]),
        decode_database: (encode_database(db)[9:], [(0, 8), (8, 4), (12, 4)]),
    }


FUZZ_PAYLOADS = _fuzz_payloads()


@settings(max_examples=300, deadline=None)
@given(decoder=st.sampled_from(sorted(FUZZ_PAYLOADS, key=lambda f: f.__name__)),
       data=st.data())
def test_decoders_fail_only_with_malformed(decoder, data):
    """Truncated, oversized and inconsistent payloads: every failure is
    Malformed or Overflow, and no declared length is trusted with memory."""
    good, fields = FUZZ_PAYLOADS[decoder]
    mode = data.draw(st.sampled_from(["truncated", "oversized", "header", "noise"]))
    if mode == "truncated":
        with pytest.raises(Malformed):
            decoder(good[:data.draw(st.integers(0, len(good) - 1))])
        return
    if mode == "oversized":
        with pytest.raises(Malformed):
            decoder(good + data.draw(st.binary(min_size=1, max_size=64)))
        return
    if mode == "header":
        payload = bytearray(good)
        for offset, width in data.draw(st.lists(st.sampled_from(fields), min_size=1)):
            value = data.draw(st.integers(0, 2 ** (8 * width) - 1))
            payload[offset:offset + width] = value.to_bytes(width, "little")
        payload = bytes(payload)
    else:
        payload = data.draw(st.binary(max_size=96))
    tracemalloc.start()
    try:
        decoder(payload)
    except (Malformed, Overflow):
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < 1024 * 1024


# ------------------------------------------------------------- live server

def test_server_round_trip_matches_in_process():
    bundle = small_bundle(seed=3)
    db = Database.random(GF5, 3, 8, random.Random(9))
    local = [server_answer(sq, db) for sq in bundle.server_queries]
    with PltServer(db) as srv:
        answers = client_run([srv.address] * 2, bundle)
    assert answers == local


def test_server_requires_database_then_accepts_push():
    bundle = small_bundle(seed=5)
    db = Database.random(GF5, 3, 8, random.Random(5))
    with PltServer() as srv:
        with pytest.raises(RemoteError) as err:
            client_run([srv.address] * 2, bundle)
        assert err.value.code == wire.ERR_NO_DATABASE
        push_database(srv.address, db)
        answers = client_run([srv.address] * 2, bundle)
    assert answers == [server_answer(sq, db) for sq in bundle.server_queries]


def test_server_shape_mismatch():
    bundle = small_bundle(seed=1)
    wrong = Database.random(GF5, 4, 16, random.Random(1))
    with PltServer(wrong) as srv:
        with pytest.raises(RemoteError) as err:
            client_run([srv.address] * 2, bundle)
    assert err.value.code == wire.ERR_SHAPE_MISMATCH


def test_server_survives_semantic_errors_on_one_connection():
    """Unknown message types get an error reply but the stream stays usable."""
    db = Database.random(GF5, 3, 8, random.Random(7))
    bundle = small_bundle(seed=7)
    with PltServer(db) as srv:
        with socket.create_connection(srv.address, timeout=10) as sock:
            stream = sock.makefile("rb")
            sock.sendall(wire._frame(0x7F, b""))
            msg_type, payload = read_frame(stream)
            assert msg_type == wire.MSG_ERROR
            assert decode_error(payload)[0] == wire.ERR_BAD_REQUEST
            # same connection still answers real queries
            sock.sendall(encode_query(bundle.server_queries[0]))
            msg_type, payload = read_frame(stream)
            assert msg_type == wire.MSG_ANSWER
            assert list(decode_answer(payload)) == server_answer(
                bundle.server_queries[0], db)


def test_server_hangs_up_on_framing_garbage():
    db = Database.random(GF5, 3, 8, random.Random(8))
    with PltServer(db) as srv:
        with socket.create_connection(srv.address, timeout=10) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b"GARBAGE__")
            msg_type, payload = read_frame(stream)
            assert msg_type == wire.MSG_ERROR
            assert stream.read(1) == b""  # connection closed behind the error


def test_server_drops_an_idle_connection_and_keeps_serving(monkeypatch, capsys):
    assert wire._Handler.timeout > 0  # every connection has an idle bound
    monkeypatch.setattr(wire._Handler, "timeout", 0.2)
    db = Database.random(GF5, 3, 8, random.Random(6))
    bundle = small_bundle(seed=6)
    with PltServer(db) as srv:
        with socket.create_connection(srv.address, timeout=10) as idle:
            assert idle.recv(1) == b""  # hung up on, with nothing sent
        answers = client_run([srv.address] * 2, bundle)
    assert answers == [server_answer(sq, db) for sq in bundle.server_queries]
    assert "Traceback" not in capsys.readouterr().err


def test_client_run_validates_address_count():
    bundle = small_bundle()
    with pytest.raises(ValueError):
        client_run([("127.0.0.1", 1)], bundle)


def test_client_connection_failure():
    bundle = small_bundle()
    with pytest.raises(ConnectionFailed):
        client_run([("127.0.0.1", 1), ("127.0.0.1", 1)], bundle, timeout=0.5)


def test_tcp_transcript_equals_local(tmp_path):
    """Full engine equivalence: answers over TCP decode to the same demand."""
    field = field_new(7)
    rng = random.Random(31)
    db = Database.random(field, 4, 16, rng)
    demand = Demand((2, 3, 4), (1, 5, 2), field)
    local = run_plt(db, demand, 2, seed=31, rng=random.Random(99))
    bundle = build_query(demand, 4, 2, random.Random(99))
    with PltServer(db) as a, PltServer(db) as b:
        remote = client_run([a.address, b.address], bundle)
    assert remote == local.answers


# ------------------------------------------------------------ bind parsing

def test_resolve_bind(monkeypatch):
    monkeypatch.delenv(wire.BIND_ENV, raising=False)
    assert resolve_bind() == ("0.0.0.0", wire.DEFAULT_PORT)
    monkeypatch.setenv(wire.BIND_ENV, "10.0.0.5")
    assert resolve_bind() == ("10.0.0.5", wire.DEFAULT_PORT)
    monkeypatch.setenv(wire.BIND_ENV, ":9001")
    assert resolve_bind() == ("0.0.0.0", 9001)
    monkeypatch.setenv(wire.BIND_ENV, "192.168.0.1:700")
    assert resolve_bind() == ("192.168.0.1", 700)
    monkeypatch.setenv(wire.BIND_ENV, "host:notaport")
    with pytest.raises(ValueError):
        resolve_bind()
    monkeypatch.setenv(wire.BIND_ENV, "host:70000")
    with pytest.raises(ValueError):
        resolve_bind()
