"""Command-line front end.

Subcommands: run, serve, capacity, audit, example1.  Usage errors exit 2
(argparse), protocol failures exit 1 with the error type's name, success
exits 0.  A run is fully determined by its flags plus --seed: the database,
the demand draw, and the query randomness are all derived from the seed
with distinct labels, so a local run and a --tcp run against servers
spawned from the same seed produce identical transcripts.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

import numpy as np

from . import audit as audit_mod
from .capacity import (CapacityQuery, baseline_rates, plt_capacity_L1,
                       plt_upper_bound)
from .engine import (Database, RunOverrides, build_query, build_transcript,
                     derive_rng, mds_check, recover_demand, required_symbols,
                     run_plt)
from .fields import field_new
from .grs import Demand, y_coefficients
from .wire import DEFAULT_PORT, PltServer, client_run, resolve_bind


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad port in {text!r}")


def _derive_demand(k: int, d: int, field, seed, support=None, coeffs=None) -> Demand:
    rng = derive_rng(seed, "demand", 0)
    if support is None:
        support = tuple(sorted(rng.sample(range(1, k + 1), d)))
    else:
        support = tuple(sorted(support))
        if len(support) != d:
            raise ValueError(f"--demand lists {len(support)} indices, --support is {d}")
    if coeffs is None:
        coeffs = tuple(field.rand_nonzero(rng) for _ in range(d))
    return Demand(support, tuple(c % field.q for c in coeffs), field)


def _derived_database(field, k: int, s: int, seed) -> Database:
    return Database.random(field, k, s, derive_rng(seed, "db", 0))


def _fr(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


# ------------------------------------------------------------------- run

def _cmd_run(args) -> int:
    field = field_new(args.q)
    demand = _derive_demand(args.messages, args.support, field, args.seed,
                            args.demand, args.coeffs)
    s = required_symbols(args.servers, args.messages, args.support)
    query_rng = derive_rng(args.seed, "query", 0)
    if args.tcp:
        bundle = build_query(demand, args.messages, args.servers, query_rng)
        answers = client_run(args.tcp, bundle)
        recovered = recover_demand(bundle, answers)
        transcript = build_transcript(bundle, answers, args.seed)
        check = None  # database lives on the remote side
    else:
        db = _derived_database(field, args.messages, s, args.seed)
        result = run_plt(db, demand, args.servers, seed=args.seed, rng=query_rng)
        recovered, transcript = result.recovered, result.transcript
        check = mds_check(db, demand, recovered)

    if args.transcript:
        with open(args.transcript, "a") as fh:
            fh.write(transcript.to_json() + "\n")
    if args.format == "json":
        print(json.dumps({
            "transcript": json.loads(transcript.to_json()),
            "demand": {"support": list(demand.support), "coeffs": list(demand.coeffs)},
            "recovered_head": recovered[:8],
            "recovery_check": check,
        }, sort_keys=True))
    else:
        print(f"demand: support={list(demand.support)} coeffs={list(demand.coeffs)} (q={args.q})")
        print(f"plan: {transcript.f_count} functions, rank {transcript.rank}, "
              f"{transcript.s} symbols per message")
        for n, p in enumerate(transcript.per_server):
            print(f"server {n}: query {p['query_bytes']} bytes, "
                  f"answer {p['answer_symbols']} symbols")
        print(f"rate = {_fr(transcript.rate)}")
        if check is None:
            print("recovery check: skipped (remote database)")
        else:
            print(f"recovery check: {'PASS' if check else 'FAIL'}")
    if check is False:
        return 1
    return 0


# ----------------------------------------------------------------- serve

def _cmd_serve(args) -> int:
    if args.bind:
        host, port = args.bind
    else:
        host, port = resolve_bind()
    db = None
    if args.db:
        with open(args.db) as fh:
            blob = json.load(fh)
        field = field_new(blob["q"])
        db = Database(np.mod(blob["messages"], field.q), field)
    elif args.random:
        if not (args.q and args.messages and args.symbols):
            raise ValueError("--random needs --q, --messages, and --symbols")
        field = field_new(args.q)
        db = _derived_database(field, args.messages, args.symbols, args.seed)
    server = PltServer(db, host, port)
    got_host, got_port = server.address
    if db is None:
        print(f"serving on {got_host}:{got_port} (no database; waiting for a load)",
              flush=True)
    else:
        print(f"serving on {got_host}:{got_port} "
              f"(q={db.field.q}, messages={db.k}, symbols={db.s})", flush=True)
    try:
        server.run_forever()
    except KeyboardInterrupt:
        server.stop()
    return 0


# -------------------------------------------------------------- capacity

def _cmd_capacity(args) -> int:
    query = CapacityQuery(args.n, args.k, args.l, args.d)
    if args.l == 1:
        report = plt_capacity_L1(args.n, args.k, args.d)
    else:
        report = plt_upper_bound(query)
    rows = [("plt", report.value, report.kind, report.formula_tag)]
    if args.baselines:
        for name, base in baseline_rates(query).items():
            if base is None:
                rows.append((name, None, "not-covered", ""))
            else:
                rows.append((name, base.value, base.kind, base.formula_tag))
    if args.format == "json":
        print(json.dumps([
            {"scheme": n, "value": None if v is None else {"num": v.numerator, "den": v.denominator},
             "kind": kind, "formula": tag}
            for n, v, kind, tag in rows], sort_keys=True))
    elif args.format == "csv":
        print("scheme,value,kind,formula")
        for n, v, kind, tag in rows:
            print(f"{n},{'' if v is None else _fr(v)},{kind},{tag}")
    else:
        print(_fr(report.value))
        for n, v, kind, tag in rows:
            print(f"  {n}: {'n/a' if v is None else _fr(v)} ({kind}{', ' + tag if tag else ''})")
    return 0


# ----------------------------------------------------------------- audit

def _report_out(args, payload: dict, passed: bool) -> int:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _cmd_audit(args) -> int:
    field = field_new(args.q) if getattr(args, "q", None) else None
    if args.check == "structure":
        demand = _derive_demand(args.messages, args.support, field, args.seed)
        bundle = build_query(demand, args.messages, args.servers,
                             derive_rng(args.seed, "query", 0))
        rep = audit_mod.check_support_structure(bundle.spec, bundle.table, field)
        return _report_out(args, {
            "bijection": rep.bijection_ok,
            "valid_rows_per_subset": {str(k): v for k, v in rep.valid_rows_per_subset.items()},
            "exhaustive": rep.exhaustive,
            "ok": rep.ok,
        }, rep.ok)
    if args.check == "shape":
        rep = audit_mod.check_shape_independence(args.servers, args.functions,
                                                 args.rank, seeds=range(args.seeds))
        return _report_out(args, {
            "seeds_checked": rep.seeds_checked,
            "drop_profile": rep.drop_profile,
            "ok": rep.ok,
        }, rep.ok)
    if args.check == "tv":
        overrides = RunOverrides(
            break_free_alphas=args.mutant == "constant-alpha",
            break_star_scalar=args.mutant == "fixed-star-scalar",
            break_drop_symmetry=args.mutant == "star-dependent-drops")
        rep = audit_mod.tv_privacy_test(
            args.messages, args.support, args.servers, field,
            args.demand_a, args.demand_b, samples=args.samples,
            seed=args.seed, threshold=args.threshold, overrides=overrides)
        payload = {
            "structural": rep.structural_detail,
            "components": {k: round(v, 5) for k, v in rep.components.items()},
            "tv_estimate": round(rep.tv_estimate, 5),
            "threshold": rep.threshold,
            "samples": rep.samples,
            "passes": rep.passes,
        }
        expected_pass = args.mutant is None
        return _report_out(args, payload, rep.passes == expected_pass)
    if args.check == "rate":
        s = required_symbols(args.servers, args.messages, args.support)
        db = _derived_database(field, args.messages, s, args.seed)
        demand = _derive_demand(args.messages, args.support, field, args.seed)
        result = run_plt(db, demand, args.servers, seed=args.seed,
                         rng=derive_rng(args.seed, "query", 0))
        rep = audit_mod.measure_rate(result.transcript)
        decoded = mds_check(db, demand, result.recovered)
        return _report_out(args, {
            "rate": _fr(rep.rate),
            "capacity": _fr(rep.capacity),
            "achieves_capacity": rep.achieves_capacity,
            "decoded": decoded,
        }, rep.achieves_capacity and decoded)
    raise ValueError(f"unknown audit check {args.check!r}")


# -------------------------------------------------------------- example1

_EX1 = {
    "omegas": (0, 1, 2, 3),
    "p_coeffs": (2, 1),  # x - 3 over GF(5), low-first
    "alphas": (1, 2, 4, 2),
    "q1": (1, 2, 4, 2),
    "q2": (0, 2, 3, 1),
    "y_rows": ((4, 2, 2, 0), (3, 3, 0, 2), (1, 0, 1, 1), (0, 1, 4, 3)),
    "star_scalar": 2,
    "per_server": 12,
    "rate": Fraction(2, 3),
}


def _cmd_example1(args) -> int:
    field = field_new(5)
    demand = Demand((1, 2, 3), (2, 1, 1), field)
    overrides = RunOverrides(
        fixed_omegas=_EX1["omegas"],
        free_alphas={4: 2},
        scalar_overrides={0: 2, 1: 1, 2: 4, 3: 3})
    rng = random.Random(args.seed)
    db = Database.random(field, 4, 16, rng)
    result = run_plt(db, demand, 2, seed=args.seed, rng=rng, overrides=overrides)
    bundle = result.bundle

    checks = []
    p_coeffs = bundle.secret.p_poly.coeffs
    checks.append(("p(x) = x - 3", p_coeffs == _EX1["p_coeffs"]))
    checks.append(("alphas", bundle.secret.alphas == _EX1["alphas"]))
    q1, q2 = bundle.spec.q_vectors
    checks.append(("Q_1", q1 == _EX1["q1"]))
    checks.append(("Q_2", q2 == _EX1["q2"]))
    y_rows = tuple(tuple(y_coefficients(bundle.spec, beta, field))
                   for beta in bundle.table.betas)
    checks.append(("Y tables", y_rows == _EX1["y_rows"]))
    checks.append(("star scalar", bundle.table.star_scalar == _EX1["star_scalar"]))
    per_server = [p["answer_symbols"] for p in result.transcript.per_server]
    checks.append(("12 symbols per server", per_server == [12, 12]))
    checks.append(("rate 2/3", result.transcript.rate == _EX1["rate"]))
    checks.append(("recovery", mds_check(db, demand, result.recovered)))

    print("demand: 2*x1 + 1*x2 + 1*x3 over GF(5), servers=2")
    print(f"evaluation points: {list(bundle.secret.omegas)}")
    print(f"p(x) coefficients (low to high): {list(p_coeffs)}")
    print(f"alphas: {list(bundle.secret.alphas)}")
    print(f"Q_1 = {list(q1)}")
    print(f"Q_2 = {list(q2)}")
    for f, row in enumerate(y_rows):
        star = " (starred)" if f == bundle.table.star_index else ""
        print(f"Y_{f + 1} coefficients = {list(row)}{star}")
    print(f"star scalar = {bundle.table.star_scalar} "
          f"(demand = {field.inv(bundle.table.star_scalar)} * Y_{bundle.table.star_index + 1})")
    print(f"download: {per_server[0]} symbols per server, {sum(per_server)} total")
    print(f"rate = {_fr(result.transcript.rate)}")
    ok = all(flag for _, flag in checks)
    for name, flag in checks:
        if not flag:
            print(f"MISMATCH: {name}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# ------------------------------------------------------------------ main

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="plt",
        description="Private linear transformation toolkit: run retrievals, "
                    "serve databases, compute capacities, audit privacy.")
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one private retrieval")
    run.add_argument("--servers", type=int, required=True)
    run.add_argument("--messages", type=int, required=True, help="K, message count")
    run.add_argument("--support", type=int, required=True, help="D, demand support size")
    run.add_argument("--q", type=int, required=True, help="prime modulus")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--demand", type=_parse_ints, default=None,
                     help="explicit support indices, e.g. 1,2,3")
    run.add_argument("--coeffs", type=_parse_ints, default=None,
                     help="explicit demand coefficients, e.g. 2,1,1")
    run.add_argument("--transcript", default=None, help="append JSONL transcript here")
    run.add_argument("--tcp", type=lambda t: [_parse_addr(a) for a in t.split(",")],
                     default=None, help="query remote servers host:port,host:port,...")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.set_defaults(fn=_cmd_run)

    serve = sub.add_parser("serve", help="serve a database over TCP")
    serve.add_argument("--bind", type=_parse_addr, default=None,
                       help=f"host:port (default from PLT_BIND, else 0.0.0.0:{DEFAULT_PORT})")
    serve.add_argument("--db", default=None, help="JSON database file")
    serve.add_argument("--random", action="store_true", help="generate a seeded database")
    serve.add_argument("--q", type=int, default=None)
    serve.add_argument("--messages", type=int, default=None)
    serve.add_argument("--symbols", type=int, default=None)
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(fn=_cmd_serve)

    cap = sub.add_parser("capacity", help="exact capacities and bounds")
    cap.add_argument("--n", type=int, required=True, help="server count")
    cap.add_argument("--k", type=int, required=True, help="message count")
    cap.add_argument("--l", type=int, default=1, help="demand dimension")
    cap.add_argument("--d", type=int, required=True, help="support size")
    cap.add_argument("--baselines", action="store_true")
    cap.add_argument("--format", choices=("text", "csv", "json"), default="text")
    cap.set_defaults(fn=_cmd_capacity)

    aud = sub.add_parser("audit", help="privacy and rate audits")
    aud_sub = aud.add_subparsers(dest="check", required=True)

    a_struct = aud_sub.add_parser("structure", help="support bijection and scalar classes")
    a_struct.add_argument("--servers", type=int, default=2)
    a_struct.add_argument("--messages", type=int, required=True)
    a_struct.add_argument("--support", type=int, required=True)
    a_struct.add_argument("--q", type=int, required=True)
    a_struct.add_argument("--seed", type=int, default=0)
    a_struct.add_argument("--format", choices=("text", "json"), default="text")
    a_struct.set_defaults(fn=_cmd_audit)

    a_shape = aud_sub.add_parser("shape", help="plan shape across starred choices")
    a_shape.add_argument("--servers", type=int, required=True)
    a_shape.add_argument("--functions", type=int, required=True)
    a_shape.add_argument("--rank", type=int, required=True)
    a_shape.add_argument("--seeds", type=int, default=20)
    a_shape.add_argument("--format", choices=("text", "json"), default="text")
    a_shape.set_defaults(fn=_cmd_audit)

    a_tv = aud_sub.add_parser("tv", help="total-variation distinguishability")
    a_tv.add_argument("--servers", type=int, default=2)
    a_tv.add_argument("--messages", type=int, default=3)
    a_tv.add_argument("--support", type=int, default=2)
    a_tv.add_argument("--q", type=int, default=5)
    a_tv.add_argument("--demand-a", type=_parse_ints, default=(1, 2))
    a_tv.add_argument("--demand-b", type=_parse_ints, default=(2, 3))
    a_tv.add_argument("--samples", type=int, default=20_000)
    a_tv.add_argument("--seed", type=int, default=0)
    a_tv.add_argument("--threshold", type=float, default=0.05)
    a_tv.add_argument("--mutant", choices=("constant-alpha", "fixed-star-scalar",
                                           "star-dependent-drops"), default=None,
                      help="audit a deliberately broken client instead")
    a_tv.add_argument("--format", choices=("text", "json"), default="text")
    a_tv.set_defaults(fn=_cmd_audit)

    a_rate = aud_sub.add_parser("rate", help="measured rate vs capacity")
    a_rate.add_argument("--servers", type=int, required=True)
    a_rate.add_argument("--messages", type=int, required=True)
    a_rate.add_argument("--support", type=int, required=True)
    a_rate.add_argument("--q", type=int, required=True)
    a_rate.add_argument("--seed", type=int, default=0)
    a_rate.add_argument("--format", choices=("text", "json"), default="text")
    a_rate.set_defaults(fn=_cmd_audit)

    ex1 = sub.add_parser("example1", help="golden worked example with all overrides")
    ex1.add_argument("--seed", type=int, default=0)
    ex1.set_defaults(fn=_cmd_example1)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
