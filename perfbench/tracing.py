"""Span tracing of pltkit from outside the package.

The tracer replaces the public functions of the ``grs``, ``plan``,
``engine``, ``wire`` and ``audit`` modules with timing wrappers, at every
module attribute that holds them (the names their callers look up), and
puts the originals back afterwards.  ``fields`` is a leaf called per element
inside ``grs`` and ``plan``, so its time stays inside their spans.

Each span records name, start, end, parent and operation id.  A span opened
on a thread with no open span of its own (a server handler thread, an audit
worker) takes as parent the innermost span open on the benchmark's thread:
the loop is closed with one client, so exactly one operation is in flight.
Spans stay in compact arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import itertools
import socket
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# public functions on the measured path, per layer
LAYERS = {
    "grs": ("choose_omegas", "build_secret", "build_q_vectors",
            "build_function_table"),
    "plan": ("build_mask", "generate_full_blocks", "eliminate_redundancy",
             "pc_decode"),
    "engine": ("run_plt", "build_query", "server_answer", "function_streams",
               "recover_demand", "build_transcript"),
    "wire": ("encode_query", "decode_query", "encode_answer", "decode_answer",
             "encode_database", "decode_database", "client_run",
             "push_database"),
    "audit": ("tv_privacy_test", "signature_tallies", "query_signature",
              "check_support_structure", "check_shape_independence"),
}
# spans whose result is a frame: its length is recorded as the span's size
SIZED = {"wire.encode_query", "wire.encode_answer", "wire.encode_database"}
CONNECT = "wire.connect"


class _Buffer:
    """One thread's spans; only that thread appends, so no lock is taken."""

    def __init__(self):
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.stack: list[int] = []


class Tracer:
    """Records spans; ``op`` opens the root span of one benchmark operation."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op_kinds: list[str] = []
        self._current_op = -1
        self._next_sid = itertools.count()  # atomic under the interpreter lock
        self._buffers: list[_Buffer] = []
        self._register = threading.Lock()
        self._local = threading.local()
        self._main = self._buffer()
        self._patched: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._register:
                self._buffers.append(buf)
        return buf

    def _name_id(self, label: str) -> int:
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        return self._name_ids[label]

    def _open(self, nid: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        stack = buf.stack
        main = self._main.stack
        sid = next(self._next_sid)
        pos = len(buf.sid)
        buf.sid.append(sid)
        buf.name.append(nid)
        buf.parent.append(stack[-1] if stack else (main[-1] if main else -1))
        buf.op_id.append(self._current_op)
        buf.size.append(-1)
        buf.end.append(0.0)
        stack.append(sid)
        buf.start.append(time.perf_counter())
        return buf, pos

    def _close(self, buf: _Buffer, pos: int):
        buf.end[pos] = time.perf_counter()
        buf.stack.pop()

    def wrap(self, label: str, fn):
        nid = self._name_id(label)
        sized = label in SIZED

        def traced(*args, **kwargs):
            buf, pos = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(buf, pos)
            if sized:
                buf.size[pos] = len(result)
            return result

        return traced

    @contextmanager
    def op(self, kind: str):
        """Root span of one operation; spans inside it carry its id."""
        self._current_op = len(self.op_kinds)
        self.op_kinds.append(kind)
        buf, pos = self._open(self._name_id(f"bench.{kind}"))
        try:
            yield
        finally:
            self._close(buf, pos)
            self._current_op = -1

    def install(self, layer_modules: dict):
        """Wrap every listed function wherever a pltkit module holds it."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "pltkit" or name.startswith("pltkit.")]
        for layer, names in LAYERS.items():
            home = layer_modules[layer]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for ns in namespaces:
                    if ns.__dict__.get(fname) is orig:
                        setattr(ns, fname, wrapper)
                        self._patched.append((ns, fname, orig))
        # wire opens one connection per exchange through this name
        orig = socket.create_connection
        socket.create_connection = self.wrap(CONNECT, orig)
        self._patched.append((socket, "create_connection", orig))

    def uninstall(self):
        for ns, fname, orig in reversed(self._patched):
            setattr(ns, fname, orig)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans, merged over threads, indexed by span id."""
        cols = {"start": np.float64, "end": np.float64, "name": np.int32,
                "parent": np.int64, "op_id": np.int64, "size": np.int64}
        sid = np.concatenate([np.frombuffer(b.sid, dtype=np.int64)
                              for b in self._buffers])
        order = np.argsort(sid, kind="stable")
        out = {}
        for col, dtype in cols.items():
            merged = np.concatenate([np.frombuffer(getattr(b, col), dtype=dtype)
                                     for b in self._buffers])
            out[col] = merged[order]
        return out

    def save(self, path):
        """Write every span, the name table and the operation kinds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            op_kinds=np.array(self.op_kinds), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the part of it that child spans cover.

    Children may overlap (server threads, audit workers), so the covered
    part is the length of the union of the children's clipped intervals.
    """
    covered = np.zeros(len(start))
    children = np.nonzero(parent >= 0)[0]
    order = children[np.lexsort((start[children], parent[children]))]
    st, en, pa = start.tolist(), end.tolist(), parent.tolist()
    cur, cov, hi = -1, 0.0, float("-inf")
    for i in order.tolist():
        p = pa[i]
        if p != cur:
            if cur >= 0:
                covered[cur] = cov
            cur, cov, hi = p, 0.0, float("-inf")
        lo_i, hi_i = max(st[i], st[p]), min(en[i], en[p])
        if hi_i <= lo_i or hi_i <= hi:
            continue
        cov += hi_i - max(lo_i, hi)
        hi = hi_i
    if cur >= 0:
        covered[cur] = cov
    return (end - start) - covered
