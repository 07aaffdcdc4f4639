"""End-to-end retrieval: databases, query bundles, answers, transcripts.

The client side draws one RNG stream per run, in a fixed order: evaluation
points, then free scaling factors, then per-function scalars, then the symbol
mask.  Reproducing a run therefore needs only the seed and the database.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

import numpy as np

from .fields import PrimeField
from .grs import (Demand, GrsSecret, SuperMessageSpec, FunctionTable,
                  choose_omegas, build_secret, build_q_vectors,
                  enumerate_subsets, build_function_table)
from .plan import (DEFAULT_LIMITS, GuardLimits, PcPlan, QueryTerms, build_mask,
                   check_size_guard, eliminate_redundancy, generate_full_blocks,
                   pc_answer, pc_decode)


def derive_rng(root, label: str, index: int) -> random.Random:
    """Independent RNG for one labeled trial under a root seed."""
    digest = hashlib.sha256(f"{root}|{label}|{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


# products of two reduced residues stay inside int64 up to this modulus,
# even before any intermediate reduction
_DIRECT_MATMUL_Q = 46_337
# dtype instances, not type objects: a small database build is a few
# microseconds, and converting the type object is a measurable part of it
_INT64, _UINT64 = np.dtype(np.int64), np.dtype(np.uint64)


class Database:
    """K messages, each a stream of S symbols over GF(q): one read-only
    (K, S) int64 array, built once from any (K, S) sequence or array.

    Equality is identity; an array cannot back value equality or hashing.
    """

    __slots__ = ("rows", "field")

    def __init__(self, rows, field: PrimeField):
        try:
            a = np.array(rows, _INT64)
        except OverflowError:  # a Python int past int64
            raise ValueError("symbols must be reduced modulo q") from None
        if a.ndim != 2:
            raise ValueError(f"database needs a (K, S) grid of symbols, got shape {a.shape}")
        # the largest symbol read as unsigned, so that a negative one reads as
        # huge; argmax refuses an empty grid with ValueError
        u = a.view(_UINT64)
        if u.item(u.argmax()) >= field.q:
            raise ValueError("symbols must be reduced modulo q")
        a.setflags(False)  # not writeable
        self.rows = a
        self.field = field

    @property
    def k(self) -> int:
        return self.rows.shape[0]

    @property
    def s(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def random(cls, field: PrimeField, k: int, s: int, rng) -> "Database":
        rows = tuple(tuple(rng.randrange(field.q) for _ in range(s)) for _ in range(k))
        return cls(rows, field)


def required_symbols(n_servers: int, k: int, d: int) -> int:
    """Symbols per message the plan consumes: N ** C(K, D)."""
    return n_servers ** comb(k, d)


@dataclass(frozen=True)
class ServerQuery:
    """Everything one server needs: parameters, vectors, and its rows."""

    q: int
    k: int
    s: int
    q_vectors: tuple[tuple[int, ...], ...]
    betas: tuple[tuple[int, ...], ...]
    expressions: QueryTerms

    @property
    def r(self) -> int:
        return len(self.q_vectors)

    @property
    def f_count(self) -> int:
        return len(self.betas)


@dataclass
class QueryBundle:
    """Client-side state for one run; ``server_queries`` is the public part."""

    demand: Demand
    secret: GrsSecret
    spec: SuperMessageSpec
    table: FunctionTable
    plan: PcPlan
    server_queries: tuple[ServerQuery, ...]
    field: PrimeField

    @property
    def n_servers(self) -> int:
        return len(self.server_queries)


@dataclass(frozen=True)
class RunOverrides:
    """Hooks for tests and audits; honest runs leave everything unset.

    The three ``break_*`` switches each remove one source of randomness so
    the distribution tests have something real to detect.
    """

    fixed_omegas: Optional[tuple[int, ...]] = None
    free_alphas: Optional[dict] = None
    scalar_overrides: Optional[dict] = None
    break_free_alphas: bool = False   # pin off-support scalings to 1
    break_star_scalar: bool = False   # pin the starred function's scalar to 1
    break_drop_symmetry: bool = False  # let kept singletons track the star


def build_query(demand: Demand, k: int, n_servers: int, rng,
                overrides: RunOverrides = RunOverrides(),
                limits: GuardLimits = DEFAULT_LIMITS) -> QueryBundle:
    field = demand.field
    d = demand.d
    if demand.support[-1] > k:
        raise ValueError(f"demand touches message {demand.support[-1]}, database has {k}")
    f_count = comb(k, d)
    r = k - d + 1
    check_size_guard(n_servers, f_count, r, limits)

    omegas = choose_omegas(field, k, rng, fixed=overrides.fixed_omegas)
    free = dict(overrides.free_alphas or {})
    if overrides.break_free_alphas:
        for j in range(1, k + 1):
            if j not in demand.support:
                free.setdefault(j, 1)
    secret = build_secret(demand, omegas, field, rng, free_alphas=free or None)
    spec = build_q_vectors(secret, k, d)

    subsets = enumerate_subsets(k, d)
    star = subsets.index(demand.support)
    scalars = dict(overrides.scalar_overrides or {})
    if overrides.break_star_scalar:
        scalars.setdefault(star, 1)
    table = build_function_table(secret, demand, k, field, rng,
                                 scalar_overrides=scalars or None)
    if table.star_index != star:
        raise AssertionError("function table disagrees about the starred subset")

    s_total = n_servers ** f_count
    mask = build_mask(s_total, rng)
    layout = generate_full_blocks(n_servers, f_count, star, mask, limits=limits)
    keep_bias = star if overrides.break_drop_symmetry else 0
    plan = eliminate_redundancy(layout, table.betas, r, field,
                                limits=limits, keep_bias=keep_bias)
    queries = tuple(
        ServerQuery(field.q, k, s_total, spec.q_vectors, table.betas, terms)
        for terms in plan.per_server)
    return QueryBundle(demand, secret, spec, table, plan, queries, field)


def _mod_matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """(a @ b) % q without int64 overflow for any q below 2**31."""
    if q <= _DIRECT_MATMUL_Q and a.shape[1] * (q - 1) * (q - 1) < 2 ** 62:
        return (a @ b) % q
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for j in range(a.shape[1]):
        out = (out + a[:, j:j + 1] * b[j:j + 1, :]) % q
    return out


def function_streams(sq: ServerQuery, database: Database) -> np.ndarray:
    """Materialize all F virtual function streams as an (F, S) array."""
    qm = np.array(sq.q_vectors, dtype=np.int64)
    bm = np.array(sq.betas, dtype=np.int64)
    return _mod_matmul(bm, _mod_matmul(qm, database.rows, sq.q), sq.q)


def server_answer(sq: ServerQuery, database: Database) -> list[int]:
    """Honest server: evaluate every expression against the database."""
    if database.field.q != sq.q:
        raise ValueError(f"database modulus {database.field.q} != query modulus {sq.q}")
    if database.k != sq.k or database.s != sq.s:
        raise ValueError(
            f"database shape ({database.k}, {database.s}) does not match "
            f"query shape ({sq.k}, {sq.s})")
    return pc_answer(sq.expressions, function_streams(sq, database), database.field)


def recover_demand(bundle: QueryBundle, answers: Sequence[Sequence[int]]) -> list[int]:
    """Decode the starred stream and strip its scalar."""
    field = bundle.field
    raw = pc_decode(bundle.plan, answers, field)
    inv = field.inv(bundle.table.star_scalar)
    return [(inv * v) % field.q for v in raw]


def _combine(database: Database, indices: Sequence[int],
             coeffs: Sequence[int]) -> np.ndarray:
    """sum_i coeffs[i] * (message indices[i]) mod q, as an (S,) array."""
    rows = database.rows[np.asarray(indices, dtype=np.int64) - 1]
    weights = np.array([coeffs], dtype=np.int64)
    return _mod_matmul(weights, rows, database.field.q)[0]


def combination_stream(database: Database, demand: Demand) -> list[int]:
    """Direct evaluation of the demanded combination on the database."""
    return _combine(database, demand.support, demand.coeffs).tolist()


def mds_check(database: Database, demand: Demand, recovered: Sequence[int]) -> bool:
    """Does the recovered stream equal the demanded combination exactly?"""
    return list(recovered) == combination_stream(database, demand)


@dataclass(frozen=True)
class Transcript:
    n_servers: int
    k: int
    d: int
    q: int
    f_count: int
    rank: int
    s: int
    per_server: tuple[dict, ...]
    rate: Fraction
    seed: object

    def to_json(self) -> str:
        """One JSONL record; stable key order."""
        payload = {
            "params": {"n": self.n_servers, "k": self.k, "d": self.d, "q": self.q,
                       "functions": self.f_count, "rank": self.rank, "symbols": self.s},
            "per_server": list(self.per_server),
            "rate": {"num": self.rate.numerator, "den": self.rate.denominator},
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True)


@dataclass
class RunResult:
    recovered: list[int]
    transcript: Transcript
    bundle: QueryBundle
    answers: list[list[int]]


def run_plt(database: Database, demand: Demand, n_servers: int,
            seed=None, rng=None,
            overrides: RunOverrides = RunOverrides(),
            limits: GuardLimits = DEFAULT_LIMITS) -> RunResult:
    """One full retrieval against in-process servers.

    The database must carry exactly N ** C(K, D) symbols per message; the
    transcript's rate field is symbols-recovered over symbols-downloaded.
    """
    if demand.field.q != database.field.q:
        raise ValueError("demand and database use different moduli")
    k = database.k
    needed = required_symbols(n_servers, k, demand.d)
    if database.s != needed:
        raise ValueError(
            f"database has {database.s} symbols per message, "
            f"this parameter point needs {needed}")
    if rng is None:
        rng = random.Random(seed)
    bundle = build_query(demand, k, n_servers, rng, overrides=overrides, limits=limits)
    answers = [server_answer(sq, database) for sq in bundle.server_queries]
    recovered = recover_demand(bundle, answers)
    transcript = build_transcript(bundle, answers, seed)
    return RunResult(recovered, transcript, bundle, answers)


def build_transcript(bundle: QueryBundle, answers: Sequence[Sequence[int]],
                     seed=None) -> Transcript:
    """Accounting record for a completed exchange, local or over the wire."""
    from . import wire  # deferred: wire imports this module for serving
    per_server = tuple(
        {"query_bytes": wire.query_frame_size(sq),
         "answer_symbols": len(answers[n])}
        for n, sq in enumerate(bundle.server_queries))
    total_download = sum(p["answer_symbols"] for p in per_server)
    sq0 = bundle.server_queries[0]
    return Transcript(
        n_servers=bundle.n_servers, k=sq0.k, d=bundle.demand.d, q=bundle.field.q,
        f_count=bundle.plan.f_count, rank=bundle.plan.rank, s=sq0.s,
        per_server=per_server, rate=Fraction(sq0.s, total_download),
        seed=seed)


@dataclass
class SideInfoResult:
    message: list[int]
    transcript: Transcript


def run_pir_psi_via_plt(database: Database, wanted: int, side: Sequence[int],
                        n_servers: int, seed=None, rng=None,
                        limits: GuardLimits = DEFAULT_LIMITS) -> SideInfoResult:
    """Single-message retrieval with private side information.

    Wraps the linear-combination protocol: ask for a random nonzero
    combination of the wanted message and the side messages, then strip the
    known side content.  Rate matches the D = M + 1 combination point.
    """
    if rng is None:
        rng = random.Random(seed)
    side = tuple(sorted(side))
    if wanted in side:
        raise ValueError("wanted message listed as side information")
    if len(set(side)) != len(side):
        raise ValueError("duplicate side indices")
    support = tuple(sorted(side + (wanted,)))
    field = database.field
    coeffs = tuple(field.rand_nonzero(rng) for _ in support)
    demand = Demand(support, coeffs, field)
    result = run_plt(database, demand, n_servers, seed=seed, rng=rng, limits=limits)
    q = field.q
    known = _combine(database, side, [c for i, c in zip(support, coeffs) if i != wanted])
    w_inv = field.inv(coeffs[support.index(wanted)])
    message = (np.array(result.recovered, dtype=np.int64) - known) % q * w_inv % q
    return SideInfoResult(message.tolist(), result.transcript)
