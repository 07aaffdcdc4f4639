"""pltkit benchmark: three closed-loop workloads driven by one client.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload local-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Workloads (see README.md for why each exists and what it stresses):

    local-wide  in-process run_plt at (N,K,D,q) = (3,5,2,13), S = 59049
    tcp-deep    two PltServers on loopback at (2,12,11,13), S = 4096
    audit-tv    tv_privacy_test at (K,D,N,q) = (3,2,2,5), honest and mutant

Inputs come only from ``--seed``.  The run repeats whole rounds of the same
operations until ``--seconds`` have passed, checks every output against
computations made apart from the program (``oracles.py``), and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1`` (spans are written under
``.perfbench-out/``).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import gc
import itertools
import json
import math
import random
import resource
import statistics
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 11
# One sampling worker.  The audit's thread pool holds the interpreter lock
# for all its work, so more workers only add lock handoffs between threads,
# and those make the timings swing with the load on the other cores.
AUDIT_WORKERS = 1

END_TO_END = {
    "setup_s": "s", "retrieve_s": "s", "round_trip_s": "s", "db_load_s": "s",
    "audit_samples_per_s": "1/s", "upload_bytes": "bytes", "peak_rss_mb": "MB",
}


def import_pltkit():
    """pltkit from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pltkit
        import pltkit.audit
        import pltkit.engine
        import pltkit.wire
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pltkit from {src}: {exc}")
    if Path(pltkit.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: pltkit came from {pltkit.__file__}, not {src}")
    return pltkit


class NoMeasurement(Exception):
    """Every operation of some kind failed, so a metric has no value."""


def median(values):
    if not values:
        raise NoMeasurement("no successful operation to measure")
    return statistics.median(values)


def rate(counts, seconds):
    if not seconds:
        raise NoMeasurement("no successful operation to measure")
    return sum(counts) / sum(seconds)


class Bench:
    """One client: runs operations, checks them, and keeps the timings."""

    def __init__(self, pk, seed: int):
        self.pk = pk
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.times = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.rejected: list[str] = []
        self.errors: list[str] = []
        self.shape = oracles.ShapeOracle()
        self.tracer: tracing.Tracer | None = None
        self.counts = defaultdict(list)   # per retrieval, traced phase only
        self.samples = 0                  # audit samples, traced phase only
        self.round = 0

    # -- operations -------------------------------------------------------

    def op(self, kind: str, fn, check):
        """Run one timed operation; a raise or a rejected output fails it."""
        self.attempted += 1
        scope = self.tracer.op(kind) if self.tracer else nullcontext()
        with scope:
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # counted, and the loop goes on
                self.failed += 1
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                return None
            elapsed = time.perf_counter() - t0
        problems = check(out)
        if problems:
            self.failed += 1
            self.rejected.extend(f"{kind}: {p}" for p in problems)
            return None
        self.times[kind].append(elapsed)
        return out

    def measure(self, seconds: float, one_round):
        """Whole rounds until ``seconds`` have passed (at least one)."""
        t0 = time.perf_counter()
        while True:
            one_round()
            self.round += 1
            gc.collect()  # garbage of one round does not lift the next's peak
            if time.perf_counter() - t0 >= seconds:
                return

    # -- inputs -----------------------------------------------------------

    def inputs(self, field, k: int, s: int, rng=None):
        """Database contents: a (K, S) numpy copy for the oracles, and rows."""
        x = (rng or self.rng).integers(0, field.q, size=(k, s), dtype=np.int64)
        return x, tuple(map(tuple, x.tolist()))

    def demand_pair(self, field, k: int, d: int):
        """Two demands on mirror-image supports: subsets i and C-1-i.

        Build time grows with the demanded subset's position in
        lexicographic order (by about 1.7x over tcp-deep's 12 subsets), so
        pairing keeps the mix of cheap and dear demands the same in every
        run.  Coefficients are fresh and uniform nonzero.
        """
        subsets = list(itertools.combinations(range(1, k + 1), d))
        i = int(self.rng.integers(len(subsets)))
        return [self.pk.Demand(subsets[j], tuple(
                    int(v) for v in self.rng.integers(1, field.q, size=d)), field)
                for j in (i, len(subsets) - 1 - i)]

    def query_seed(self) -> int:
        return int(self.rng.integers(2 ** 62))

    # -- checks -----------------------------------------------------------

    def check_retrieval(self, x, db, demand, out, tcp: bool) -> list[str]:
        bundle, answers, recovered, transcript = out
        n, k, s, q = bundle.n_servers, db.k, db.s, db.field.q
        problems = oracles.check_stream(x, q, demand.support, demand.coeffs, recovered)
        problems += oracles.check_download(n, k, demand.d, s, answers, transcript.rate)
        problems += self.shape.check(
            oracles.server_view_shape(bundle.server_queries[0].expressions))
        if tcp:
            engine = self.pk.engine
            local = [engine.server_answer(sq, db) for sq in bundle.server_queries]
            problems += oracles.check_same_bytes(
                transcript.to_json(),
                engine.build_transcript(bundle, local, transcript.seed).to_json(),
                "TCP transcript")
        if not problems:
            self.times["upload_bytes"].append(
                sum(p["query_bytes"] for p in transcript.per_server))
            if self.tracer:
                self.count_plan(bundle)
        return problems

    def count_plan(self, bundle):
        plan = bundle.plan
        kept = sum(len(rows) for rows in plan.per_server)
        generated = kept + sum(sum(drops) for drops in plan.drop_counts)
        exprs = [e for sq in bundle.server_queries for e in sq.expressions]
        self.counts["plan.rows_kept"].append(kept)
        self.counts["plan.rows_generated"].append(generated)
        self.counts["engine.expressions"].append(len(exprs))
        self.counts["engine.terms"].append(sum(len(e.terms) for e in exprs))

    # -- operation kinds ----------------------------------------------------

    def retrieve_local(self, x, db, demand, n: int):
        """run_plt, then the same queries answered again for the round trip.

        Nothing of the retrieval outlives this call, so no large plan is
        alive (and walked by the collector) while the next one is built.
        """
        engine = self.pk.engine
        seed = self.query_seed()

        def run():
            res = engine.run_plt(db, demand, n, seed=seed)
            return res.bundle, res.answers, res.recovered, res.transcript

        out = self.op("retrieve", run,
                      lambda out: self.check_retrieval(x, db, demand, out, tcp=False))
        if out is not None:
            self.round_trip_local(db, out)

    def round_trip_local(self, db, out):
        """The in-process answer exchange: every server answers its query."""
        engine = self.pk.engine
        bundle, answers = out[0], out[1]
        self.op("round_trip", lambda: [engine.server_answer(sq, db)
                                       for sq in bundle.server_queries],
                lambda a: [] if a == answers else ["answers are not repeatable"])

    def retrieve_tcp(self, x, db, demand, addresses):
        engine, wire = self.pk.engine, self.pk.wire
        seed = self.query_seed()
        trip = []

        def run():
            bundle = engine.build_query(demand, db.k, len(addresses), random.Random(seed))
            t0 = time.perf_counter()
            answers = wire.client_run(addresses, bundle)
            trip.append(time.perf_counter() - t0)
            recovered = engine.recover_demand(bundle, answers)
            return bundle, answers, recovered, engine.build_transcript(bundle, answers, seed)

        out = self.op("retrieve", run,
                      lambda out: self.check_retrieval(x, db, demand, out, tcp=True))
        if out is not None:
            self.times["round_trip"].append(trip[0])
        return out is not None

    def push(self, field, k: int, s: int, addresses):
        """A fresh database to every server; returns it, with its numpy copy."""
        wire = self.pk.wire
        x, fresh = self.inputs(field, k, s)
        db = self.pk.engine.Database(fresh, field)
        done = self.op("load", lambda: [wire.push_database(a, db) for a in addresses],
                       lambda out: [] if len(out) == len(addresses) else ["push lost"])
        return (x, db) if done is not None else (None, None)

    def audit_sample(self, field, n: int, k: int, d: int, support):
        """One signature sample at this point, through the audit's sampler."""
        audit = self.pk.audit

        def run():
            return audit.signature_tallies(k, d, n, field, support, None, 1,
                                           self.seed, f"perfbench-{self.attempted}",
                                           workers=1)

        tallies = self.op("sample", run, lambda t: [] if all(
            sum(c.values()) == 1 for c in t.values()) else ["tally lost a sample"])
        if tallies is not None:
            self.count_samples(1)

    def count_samples(self, samples: int):
        self.times["audit_samples"].append(samples)
        self.times["audit_seconds"].append(self.times["sample"][-1])
        if self.tracer:
            self.samples += samples

    def tv_test(self, field, overrides, honest: bool):
        audit = self.pk.audit
        samples = oracles.TV_MIN_SAMPLES

        def run():
            return audit.tv_privacy_test(
                3, 2, 2, field, (1, 2), (2, 3), samples=samples,
                seed=self.seed * 1000 + self.round,
                threshold=oracles.TV_THRESHOLD, overrides=overrides,
                workers=AUDIT_WORKERS)

        def check(rep):
            problems = oracles.check_tv(rep.tv_estimate, rep.samples, honest)
            if honest and not rep.structural_pass:
                problems.append(f"structural checks failed: {rep.structural_detail}")
            return problems

        if self.op("sample", run, check) is not None:
            self.count_samples(2 * samples)


# ------------------------------------------------------------- workloads

def start_servers(pk, n: int, db):
    servers = [pk.wire.PltServer().start() for _ in range(n)]
    for srv in servers:
        pk.wire.push_database(srv.address, db)
    return servers


def stop_servers(servers):
    """Stop all at once: each shutdown waits out one poll interval."""
    threads = [threading.Thread(target=srv.stop) for srv in servers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class LocalWorkload:
    """In-process retrievals: load the database, run_plt, answer again."""

    primary = "retrieve"
    servers = ()

    def setup(self, bench) -> float:
        self.field = bench.pk.field_new(self.q)
        s = self.n ** math.comb(self.k, self.d)
        self.x, self.rows = bench.inputs(
            self.field, self.k, s, np.random.default_rng(bench.seed))
        t0 = time.perf_counter()
        bench.pk.engine.Database(self.rows, self.field)
        return time.perf_counter() - t0

    def reads(self, bench, pairs: int):
        engine = bench.pk.engine
        for _ in range(pairs):
            for demand in bench.demand_pair(self.field, self.k, self.d):
                db = bench.op("load", lambda: engine.Database(self.rows, self.field),
                              lambda db: [] if (db.k, db.s) == self.x.shape else ["shape"])
                if db is not None:
                    bench.retrieve_local(self.x, db, demand, self.n)


class LocalWide(LocalWorkload):
    """The widest plan: 29,160 expressions per server."""

    n, k, d, q = 3, 5, 2, 13

    def one_round(self, bench):
        self.reads(bench, pairs=1)
        support = bench.demand_pair(self.field, self.k, self.d)[0].support
        bench.audit_sample(self.field, self.n, self.k, self.d, support)


class AuditTv(LocalWorkload):
    """Tens of thousands of tiny builds: per-call overhead and the sampler."""

    n, k, d, q = 2, 3, 2, 5
    primary = "sample"

    def one_round(self, bench):
        honest = bench.pk.RunOverrides()
        leak = bench.pk.RunOverrides(break_free_alphas=True)
        # retrievals before, between and after the two long tests, so their
        # timings sample the whole run rather than one part of it
        self.reads(bench, pairs=100)
        bench.tv_test(self.field, honest, honest=True)
        self.reads(bench, pairs=100)
        bench.tv_test(self.field, leak, honest=False)
        self.reads(bench, pairs=100)


class TcpDeep:
    """F = 12 functions of rank 2: elimination-heavy builds, 324 KB queries.

    Two loopback servers; a fresh database push before every pair of reads.
    """

    n, k, d, q = 2, 12, 11, 13
    primary = "retrieve"

    def setup(self, bench) -> float:
        self.field = bench.pk.field_new(self.q)
        self.s = self.n ** math.comb(self.k, self.d)
        _, rows = bench.inputs(self.field, self.k, self.s,
                               np.random.default_rng(bench.seed))
        t0 = time.perf_counter()
        db = bench.pk.engine.Database(rows, self.field)
        self.servers = start_servers(bench.pk, self.n, db)
        elapsed = time.perf_counter() - t0
        self.addresses = [srv.address for srv in self.servers]
        return elapsed

    def one_round(self, bench):
        pair = bench.demand_pair(self.field, self.k, self.d)
        x, db = bench.push(self.field, self.k, self.s, self.addresses)
        if db is not None:
            for demand in pair:
                bench.retrieve_tcp(x, db, demand, self.addresses)
        for demand in pair:
            bench.audit_sample(self.field, self.n, self.k, self.d, demand.support)


WORKLOADS = {"local-wide": LocalWide, "tcp-deep": TcpDeep, "audit-tv": AuditTv}


# ------------------------------------------------------------- reporting

def timed_setups(bench, workload_cls):
    """Set up several times; keep the last fixture, report the median.

    ``setup`` makes its inputs untimed and returns the seconds that the
    program's own set-up took.
    """
    times, fixtures = [], []
    for _ in range(SETUP_REPEATS):
        w = workload_cls()
        times.append(w.setup(bench))
        fixtures.append(w)
    stop_servers([srv for w in fixtures[:-1] for srv in w.servers])
    return fixtures[-1], statistics.median(times)


def end_to_end(bench, setup_s: float) -> dict:
    t = bench.times
    values = {
        "setup_s": setup_s,
        "retrieve_s": median(t["retrieve"]),
        "round_trip_s": median(t["round_trip"]),
        "db_load_s": median(t["load"]),
        "audit_samples_per_s": rate(t["audit_samples"], t["audit_seconds"]),
        "upload_bytes": median(t["upload_bytes"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}


def per_layer(bench, tracer, primary: str, untraced_retrieve: float) -> dict:
    """Per-layer figures of the traced phase, per retrieval or per sample."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = tracing.self_times(a["start"], a["end"], a["parent"])
    kinds = np.array(tracer.op_kinds + [""])
    span_kind = kinds[a["op_id"]]  # op_id -1 (outside any op) maps to ""
    ids = {name: i for i, name in enumerate(tracer.names)}
    n_ops = {kind: tracer.op_kinds.count(kind) for kind in set(tracer.op_kinds)}

    def per_op(kind, label, what=None, per=None):
        ops = per if per is not None else n_ops.get(kind, 0)
        if not ops:
            return 0.0
        sel = (span_kind == kind) & (a["name"] == ids.get(label, -1))
        if what == "size":
            return float(a["size"][sel].sum()) / ops
        if what == "count":
            return float(sel.sum()) / ops
        return float(dur[sel].sum()) / ops

    def mean_count(name):
        vals = bench.counts[name]
        return sum(vals) / len(vals) if vals else 0.0

    m = {}
    r = "retrieve"
    m["grs.table_s"] = per_op(r, "grs.build_function_table")
    m["plan.mask_s"] = per_op(r, "plan.build_mask")
    m["plan.blocks_s"] = per_op(r, "plan.generate_full_blocks")
    m["plan.eliminate_s"] = per_op(r, "plan.eliminate_redundancy")
    m["plan.decode_s"] = per_op(r, "plan.pc_decode")
    m["plan.rows_generated"] = mean_count("plan.rows_generated")
    m["plan.rows_kept"] = mean_count("plan.rows_kept")
    m["plan.kept_ratio"] = (m["plan.rows_kept"] / m["plan.rows_generated"]
                            if m["plan.rows_generated"] else 0.0)
    m["engine.build_s"] = per_op(r, "engine.build_query")
    m["engine.answer_s"] = per_op(r, "engine.server_answer")
    m["engine.transcript_s"] = per_op(r, "engine.build_transcript")
    m["engine.expressions"] = mean_count("engine.expressions")
    m["engine.terms"] = mean_count("engine.terms")
    for part in ("encode_query", "decode_query", "encode_answer", "decode_answer"):
        m[f"wire.{part}_s"] = per_op(r, f"wire.{part}")
    for part in ("encode_database", "decode_database"):
        m[f"wire.{part}_s"] = per_op("load", f"wire.{part}")
    m["wire.query_bytes"] = per_op(r, "wire.encode_query", "size")
    m["wire.answer_bytes"] = per_op(r, "wire.encode_answer", "size")
    m["wire.database_bytes"] = per_op("load", "wire.encode_database", "size")
    m["wire.connections"] = per_op(r, tracing.CONNECT, "count")
    s = bench.samples
    m["audit.sample_s"] = per_op("sample", "audit.signature_tallies", per=s)
    m["audit.signature_s"] = per_op("sample", "audit.query_signature", per=s)
    m["audit.structure_s"] = (per_op("sample", "audit.check_support_structure", per=s)
                              + per_op("sample", "audit.check_shape_independence", per=s))
    m["audit.samples"] = s / n_ops["sample"] if n_ops.get("sample") else 0.0

    # self time per layer, over the workload's primary operations, given
    # per retrieval or per audit sample
    layer_of = np.array([name.split(".")[0] for name in tracer.names] + [""])
    span_layer = layer_of[a["name"]]
    per = s if primary == "sample" else n_ops.get(primary, 0)
    for layer in ("bench", *tracing.LAYERS):
        sel = (span_kind == primary) & (span_layer == layer)
        m[f"self.{layer}_s"] = float(own[sel].sum()) / per if per else 0.0
    m["trace.overhead_s"] = median(bench.times["retrieve"]) - untraced_retrieve
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in m.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def report(bench, metrics: dict):
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {bench.attempted}, failed {bench.failed}")
    report_failures(bench)
    print(json.dumps({"correct": not bench.rejected, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))


def report_failures(bench):
    for line in (bench.errors + bench.rejected)[:20]:
        print(f"  {line}", file=sys.stderr)


def run_workload(pk, args) -> int:
    bench = Bench(pk, args.seed)
    workload, setup_s = timed_setups(bench, WORKLOADS[args.workload])
    try:
        if not args.trace:
            bench.measure(args.seconds, lambda: workload.one_round(bench))
            metrics = end_to_end(bench, setup_s)
        else:
            # untraced first, for the overhead figure, then traced
            bench.measure(args.seconds / 3, lambda: workload.one_round(bench))
            untraced = median(bench.times["retrieve"])
            bench.times.clear()
            tracer = tracing.Tracer()
            bench.tracer = tracer
            tracer.install({layer: getattr(pk, layer) for layer in tracing.LAYERS})
            try:
                bench.measure(args.seconds, lambda: workload.one_round(bench))
            finally:
                tracer.uninstall()
                bench.tracer = None
            metrics = per_layer(bench, tracer, workload.primary, untraced)
            tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    except NoMeasurement as exc:
        report_failures(bench)
        print(f"perfbench: {exc}; attempted {bench.attempted}, "
              f"failed {bench.failed}", file=sys.stderr)
        return 1
    finally:
        stop_servers(workload.servers)
    report(bench, metrics)
    return 0


# ------------------------------------------------------------ self-check

def self_check(pk) -> int:
    """Each oracle must count a corrupted output as a failed operation."""
    bench = Bench(pk, seed=0)
    field = pk.field_new(5)
    n, k, d = 2, 3, 2
    x, rows = bench.inputs(field, k, n ** 3)
    db = pk.engine.Database(rows, field)
    servers = start_servers(pk, n, db)
    addresses = [srv.address for srv in servers]
    demand = bench.demand_pair(field, k, d)[0]
    try:
        clean_tcp = bench.retrieve_tcp(x, db, demand, addresses)
    finally:
        stop_servers(servers)
    ok = clean_tcp
    print(f"self-check clean TCP retrieval: {'passed' if ok else 'FAILED'}")
    res = pk.engine.run_plt(db, demand, n, seed=1)
    good = (res.bundle, res.answers, res.recovered, res.transcript)

    def flipped(out):
        rec = list(out[2])
        rec[0] = (rec[0] + 1) % field.q
        return out[0], out[1], rec, out[3]

    def extra_symbol(out):
        ans = [list(a) for a in out[1]]
        ans[0].append(0)
        return out[0], ans, out[2], out[3]

    def altered_transcript(out):
        text = out[3].to_json()
        bad = text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]
        fake = SimpleNamespace(rate=out[3].rate, seed=out[3].seed,
                               per_server=out[3].per_server, to_json=lambda: bad)
        return out[0], out[1], out[2], fake

    def other_shape(out):
        sq0 = out[0].server_queries[0]
        sq0 = SimpleNamespace(expressions=sq0.expressions[:-1])
        bundle = SimpleNamespace(n_servers=out[0].n_servers,
                                 server_queries=(sq0,) + out[0].server_queries[1:])
        return bundle, out[1], out[2], out[3]

    def retrieval(out, tcp=False):
        return lambda: bench.check_retrieval(x, db, demand, out, tcp=tcp)

    def tv(value, samples, honest):
        return lambda: oracles.check_tv(value, samples, honest)

    # (label, check of the output, whether the output is corrupted)
    cases = [
        ("clean output", retrieval(good, tcp=True), False),
        ("one flipped symbol", retrieval(flipped(good)), True),
        ("one extra downloaded symbol", retrieval(extra_symbol(good)), True),
        ("one altered transcript byte", retrieval(altered_transcript(good), tcp=True), True),
        ("one mismatching shape", retrieval(other_shape(good)), True),
        ("honest TV over the threshold", tv(0.2, oracles.TV_MIN_SAMPLES, True), True),
        ("mutant TV under the threshold", tv(0.01, oracles.TV_MIN_SAMPLES, False), True),
        ("honest TV from too few samples", tv(0.01, 1000, True), True),
    ]
    for label, check, corrupt in cases:
        before = bench.failed
        bench.op("check", lambda: None, lambda _: check())
        counted = bench.failed == before + 1
        ok &= counted == corrupt
        print(f"self-check {label}: {'failed' if counted else 'passed'}"
              f" ({'expected' if counted == corrupt else 'WRONG'})")
    print("self-check:", "every oracle rejects its corrupted output" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="feed each oracle a corrupted output and exit")
    args = ap.parse_args(argv)
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    pk = import_pltkit()
    return self_check(pk) if args.self_check else run_workload(pk, args)


if __name__ == "__main__":
    sys.exit(main())
