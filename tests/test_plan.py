import hashlib
import os
import random
import subprocess
import sys
import threading
import time
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import pltkit.plan as plan_module
from pltkit.engine import build_query
from pltkit.fields import field_new, matrix_rank
from pltkit.grs import Demand
from pltkit.plan import (BadIndex, GuardLimits, InternalInvariant, SizeGuard,
                         SymbolMask, Undecodable, build_mask, check_size_guard,
                         eliminate_redundancy, generate_full_blocks,
                         pc_answer, pc_decode, plan_bytes)
from pltkit.wire import encode_query

GF5 = field_new(5)

# Hand-checked walkthrough table: 2x1+x2+x3 over GF(5), points 0..3,
# function scalars (2,1,4,3).  See test_grs for the derivation.
EX_BETAS = ((4, 2), (3, 1), (1, 4), (0, 3))


def generic_betas(f_count, rank, field, rng):
    """Random rank-``rank`` coefficient table: each entry a random nonzero
    multiple of a power of the row's point, points distinct.  Redrawn while
    rows 0..rank-1 are dependent, the one table shape the plan refuses;
    later rows may still have dependent subsets."""
    while True:
        points = rng.sample(range(1, field.q), f_count)
        betas = tuple(
            tuple((field.rand_nonzero(rng) * pow(p, i, field.q)) % field.q
                  for i in range(rank))
            for p in points)
        if matrix_rank(betas[:rank], field) == rank:
            return betas


def identity_mask(s):
    return SymbolMask(tuple(range(s)), tuple(1 for _ in range(s)))


def make_plan(n, f_count, rank, star, q, seed, mask=None):
    field = field_new(q)
    rng = random.Random(seed)
    s = n ** f_count
    if mask is None:
        mask = build_mask(s, rng)
    blocks = generate_full_blocks(n, f_count, star, mask)
    betas = generic_betas(f_count, rank, field, rng)
    plan = eliminate_redundancy(blocks, betas, rank, field)
    return plan, betas, field, rng


def stream_oracle(betas, rank, s, field, rng):
    """Random super-message symbols and the induced function streams."""
    q = field.q
    xhat = [[rng.randrange(q) for _ in range(s)] for _ in range(rank)]
    y = [[sum(b * xhat[i][sym] for i, b in enumerate(beta)) % q
          for sym in range(s)]
         for beta in betas]
    return y


# ----------------------------------------------------------------- masking

def test_build_mask_valid():
    rng = random.Random(0)
    for s in (1, 2, 16, 81):
        m = build_mask(s, rng)
        assert sorted(m.perm) == list(range(s))
        assert all(v in (1, -1) for v in m.signs)
        assert m.s == s
    with pytest.raises(ValueError):
        build_mask(0, rng)


def test_mask_validation():
    with pytest.raises(ValueError):
        SymbolMask((0, 0), (1, 1))
    with pytest.raises(ValueError):
        SymbolMask((0, 1), (1, 2))
    with pytest.raises(ValueError):
        SymbolMask((0, 1), (1,))


def test_size_guard():
    assert check_size_guard(2, 4, 2) == 16
    with pytest.raises(SizeGuard):
        check_size_guard(2, 4, 2, GuardLimits(max_functions=3))
    with pytest.raises(SizeGuard):
        check_size_guard(2, 4, 2, GuardLimits(max_plan_bytes=8))


def test_size_guard_accepts_grids_and_refuses_f20():
    # every tier-1 rate-grid point and every benchmark point fits the budget
    for n in (2, 3):
        for k in range(1, 6):
            for d in range(1, k + 1):
                check_size_guard(n, comb(k, d), k - d + 1)
    for n, k, d in [(3, 5, 2), (2, 12, 11), (2, 3, 2), (2, 6, 4), (2, 6, 2)]:
        check_size_guard(n, comb(k, d), k - d + 1)
    # (N, K, D, q) = (2, 6, 3, 13): F = 20, S = 2^20, refused up front
    started = time.monotonic()
    with pytest.raises(SizeGuard):
        build_query(Demand((1, 2, 3), (1, 1, 1), field_new(13)), 6, 2,
                    random.Random(0))
    assert time.monotonic() - started < 1.0


# One cold build in a fresh interpreter: a build in this process would find
# the layout and certificate caches warm, and its peak would move with the
# tests that ran before it.
COLD_PEAK = """
import random, tracemalloc
from pltkit.engine import build_query
from pltkit.fields import field_new
from pltkit.grs import Demand
tracemalloc.start()
build_query(Demand((2, 3), (1, 1), field_new(7)), 4, 3, random.Random(2))
print(tracemalloc.get_traced_memory()[1])
"""


def test_plan_bytes_tracks_measured_peak():
    src = Path(__file__).resolve().parent.parent / "src"
    path = f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", COLD_PEAK], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert 0.5 < plan_bytes(3, 6, 3) / int(out.stdout) < 2.0


# ------------------------------------------------------------- slot layout

@pytest.mark.parametrize("n,f_count", [(2, 3), (2, 4), (3, 3), (2, 5)])
def test_blocks_partition_symbols(n, f_count):
    s = n ** f_count
    layout = generate_full_blocks(n, f_count, 0, identity_mask(s))
    earlier: set = set()  # slots starred in the previous round
    for rnd in layout.rounds:
        for (p, _), star in zip(rnd.stars, rnd.star_slots):
            assert rnd.funcs[p, 0] == 0 and rnd.signs[p, 0] == 1
            assert np.array_equal(rnd.slots[:, p, :, 0].ravel(), star)
            # a starred row's only fresh column is the starred symbol: the
            # others read slots starred in the previous round
            assert set(rnd.slots[:, p, :, 1:].ravel().tolist()) <= earlier
        earlier = set(rnd.star_slots.ravel().tolist())
    # every slot carries exactly one starred symbol
    starred = np.concatenate([rnd.star_slots.ravel() for rnd in layout.rounds])
    assert sorted(starred.tolist()) == list(range(s))


@pytest.mark.parametrize("n,f_count,star", [(2, 4, 0), (2, 4, 2), (3, 3, 1)])
def test_block_row_counts(n, f_count, star):
    layout = generate_full_blocks(n, f_count, star, identity_mask(n ** f_count))
    for t, rnd in enumerate(layout.rounds, start=1):
        types = list(combinations(range(f_count), t))
        assert rnd.funcs.tolist() == [list(tt) for tt in types]
        assert rnd.slots.shape == (n, len(types), rnd.instances, t)
        starred = len(rnd.stars) * rnd.instances
        ext = len(types) * rnd.instances - starred
        if t == 1:
            assert starred == 1 and ext == f_count - 1
        else:
            inst = (n - 1) ** (t - 1)
            assert starred == comb(f_count - 1, t - 1) * inst
            assert ext == comb(f_count - 1, t) * inst


def test_exterior_rows_alternate_signs_over_shared_slots():
    layout = generate_full_blocks(2, 4, 0, identity_mask(16))
    for t in range(2, 5):
        rnd = layout.rounds[t - 1]
        starred = {p for p, _ in rnd.stars}
        # per server, the slots its starred rows read at the star column
        own = rnd.star_slots.reshape(len(starred), 2, -1).transpose(1, 0, 2)
        for p, tt in enumerate(combinations(range(4), t)):
            if p in starred:
                continue
            assert tuple(rnd.funcs[p].tolist()) == tt
            assert rnd.signs[p].tolist() == [1 if i % 2 == 0 else -1 for i in range(t)]
            # member u reads the fresh slot of the starred row over tt - u
            for n in range(2):
                assert set(rnd.slots[n, p].ravel().tolist()) <= set(own[n].ravel().tolist())


# Query bytes of build_query(Demand(support, (1, 2, ...), GF(q)), K, N,
# Random(seed)) over all servers, pinned: (N, K, support, q, seed) -> sha256
# prefix of the concatenated encode_query frames.
PINNED_QUERY_HASHES = {
    (1, 3, (1, 2), 5, 0): "016190cc4e13031f",
    (2, 4, (3,), 7, 1): "8d40eba8acca6b89",
    (2, 4, (1, 2, 3, 4), 7, 2): "e5654d19185816b5",
    (3, 4, (2, 4), 7, 2): "0d105573ba9e465f",
    (2, 5, (3, 4, 5), 11, 3): "14d04db319d84f9b",
    (2, 7, (1, 2, 3, 4, 5, 6), 13, 4): "47e7e47bedafa33d",
    (3, 5, (1, 5), 13, 1): "1c4e87b03d74913f",
}


@pytest.mark.parametrize("key", sorted(PINNED_QUERY_HASHES))
def test_query_bytes_match_pinned_hashes(key):
    n, k, support, q, seed = key
    demand = Demand(support, tuple(range(1, len(support) + 1)), field_new(q))
    bundle = build_query(demand, k, n, random.Random(seed))
    frames = b"".join(encode_query(sq) for sq in bundle.server_queries)
    assert hashlib.sha256(frames).hexdigest()[:16] == PINNED_QUERY_HASHES[key]


def test_blocks_validation():
    with pytest.raises(ValueError):
        generate_full_blocks(2, 3, 3, identity_mask(8))
    with pytest.raises(ValueError):
        generate_full_blocks(0, 3, 0, identity_mask(1))
    with pytest.raises(ValueError):
        generate_full_blocks(2, 3, 0, identity_mask(9))  # mask sized for N=3


# -------------------------------------------------------------- elimination

def test_walkthrough_elimination_pattern():
    """The worked GF(5) instance, checked against hand-reduced algebra."""
    blocks = generate_full_blocks(2, 4, 0, identity_mask(16))
    plan = eliminate_redundancy(blocks, EX_BETAS, 2, GF5)

    r1 = plan.patterns[0]
    assert r1.types == ((0,), (1,), (2,), (3,))
    assert r1.kept == [True, True, False, False]
    # beta_2 = 3*beta_0 + 3*beta_1 and beta_3 = 2*beta_0 + 4*beta_1 over GF(5)
    assert sorted(r1.certificates[2]) == [(0, 3), (1, 3)]
    assert sorted(r1.certificates[3]) == [(0, 2), (1, 4)]

    r2 = plan.patterns[1]
    assert r2.types == tuple(combinations(range(4), 2))
    assert r2.kept == [True, True, True, True, True, False]  # only (2,3) drops

    assert all(plan.patterns[2].kept)
    assert all(plan.patterns[3].kept)
    assert plan.drop_counts == [[2, 1, 0, 0], [2, 1, 0, 0]]
    assert plan.kept_per_server == 12
    assert [len(e) for e in plan.per_server] == [12, 12]


def test_certificates_reference_only_kept_types():
    for seed in range(5):
        plan, _, _, _ = make_plan(2, 5, 3, seed % 5, 11, seed)
        for pat in plan.patterns:
            for pos, cert in pat.certificates.items():
                assert not pat.kept[pos]
                for kept_pos, lam in cert:
                    assert pat.kept[kept_pos]
                    assert lam % 11 != 0


@pytest.mark.parametrize("n,f_count,rank", [
    (2, 2, 1), (2, 3, 2), (2, 4, 2), (2, 4, 3), (2, 5, 3),
    (3, 3, 2), (3, 4, 2), (3, 4, 4), (2, 6, 4), (1, 3, 2),
])
def test_kept_count_formula(n, f_count, rank):
    """Per-server downloads land exactly on S * (1/N + ... + 1/N^rank)."""
    plan, _, _, _ = make_plan(n, f_count, rank, 0, 13, seed=f_count * 7 + rank)
    expected = sum(n ** (f_count - t) for t in range(1, rank + 1))
    for exprs in plan.per_server:
        assert len(exprs) == expected
    assert plan.kept_per_server == expected


def test_expression_shape():
    plan, _, _, _ = make_plan(2, 4, 2, 1, 7, seed=3)
    for exprs in plan.per_server:
        for e in exprs:
            assert e.t == len(e.terms)
            funcs = [g for g, _, _ in e.terms]
            assert len(set(funcs)) == len(funcs)
            assert all(c % 7 != 0 for _, _, c in e.terms)
            assert all(0 <= sym < 16 for _, sym, _ in e.terms)


def test_drop_counts_independent_of_star_and_server():
    field = field_new(11)
    rng = random.Random(42)
    betas = generic_betas(4, 2, field, rng)
    mask = identity_mask(16)
    seen = set()
    for star in range(4):
        blocks = generate_full_blocks(2, 4, star, mask)
        plan = eliminate_redundancy(blocks, betas, 2, field)
        assert plan.drop_counts[0] == plan.drop_counts[1]
        seen.add(tuple(plan.drop_counts[0]))
    assert len(seen) == 1


def test_eliminate_validation():
    blocks = generate_full_blocks(2, 3, 0, identity_mask(8))
    field = field_new(7)
    with pytest.raises(ValueError):
        eliminate_redundancy(blocks, ((1, 2), (2, 4)), 2, field)  # 2 rows for F=3
    with pytest.raises(ValueError):
        eliminate_redundancy(blocks, ((1,), (2,), (3,)), 2, field)  # length != rank
    # declared rank 2 but all rows proportional
    with pytest.raises(ValueError):
        eliminate_redundancy(blocks, ((1, 2), (2, 4), (3, 6)), 2, field)


# ------------------------------------------------------------ greedy oracle

def oracle_round_rows(betas, f_star, t, q):
    """Round t's rows, one per t-subset type, over (off-star (t-1)-subset)
    x rank columns.  A starred row is the starred coefficient vector at its
    own subset (everything else it touches is known from earlier rounds);
    an off-star row is its alternating fresh cells."""
    f_count, r = len(betas), len(betas[0])
    subs = list(combinations([g for g in range(f_count) if g != f_star], t - 1))
    col_of = {sub: i * r for i, sub in enumerate(subs)}
    types = list(combinations(range(f_count), t))
    rows = np.zeros((len(types), len(subs) * r), dtype=np.int64)
    for p, tt in enumerate(types):
        if f_star in tt:
            base = col_of[tuple(g for g in tt if g != f_star)]
            rows[p, base:base + r] = betas[f_star]
        else:
            for pos, u in enumerate(tt):
                base = col_of[tuple(g for g in tt if g != u)]
                rows[p, base:base + r] += (-1) ** pos * np.array(betas[u])
    return types, rows % q


def oracle_greedy(rows, q):
    """Keep each row, in order, iff it adds rank; a dropped row's
    certificate writes it over the kept rows before it."""
    n_rows, width = rows.shape
    kept = [False] * n_rows
    certs = {}
    pivots = []
    for pos in range(n_rows):
        vec = np.zeros(width + n_rows, dtype=np.int64)
        vec[:width] = rows[pos]
        vec[width + pos] = 1
        for col, pvec in pivots:
            if vec[col]:
                vec = (vec - vec[col] * pvec) % q
        nonzero = np.nonzero(vec[:width])[0]
        if nonzero.size:
            col = int(nonzero[0])
            pivots.append((col, (vec * pow(int(vec[col]), -1, q)) % q))
            kept[pos] = True
        else:
            combo = vec[width:]
            certs[pos] = sorted((int(u), int(-combo[u] % q))
                                for u in np.nonzero(combo)[0] if u != pos)
    return kept, certs


@pytest.mark.parametrize("f_count,rank", [
    (3, 2), (4, 2), (5, 3), (6, 4), (10, 4), (12, 2), (4, 1), (4, 4),
])
def test_closed_form_matches_greedy_oracle(f_count, rank):
    """Every star, every round: the closed form keeps what the greedy keeps
    and writes the same certificates."""
    q = 13
    field = field_new(q)
    betas = generic_betas(f_count, rank, field, random.Random(f_count * 31 + rank))
    mask = identity_mask(2 ** f_count)
    for star in range(f_count):
        plan = eliminate_redundancy(generate_full_blocks(2, f_count, star, mask),
                                    betas, rank, field)
        for t, pat in enumerate(plan.patterns, start=1):
            types, rows = oracle_round_rows(betas, star, t, q)
            kept, certs = oracle_greedy(rows, q)
            assert list(pat.types) == types
            assert pat.kept == kept
            assert {p: sorted(c) for p, c in pat.certificates.items()} == certs


@pytest.mark.parametrize("k,d", [(4, 2), (5, 2), (5, 3), (7, 6)])
def test_closed_form_matches_greedy_oracle_on_grs_tables(k, d):
    """The same agreement on the tables the engine really builds."""
    field = field_new(13)
    for support in (tuple(range(1, d + 1)), tuple(range(k - d + 1, k + 1))):
        bundle = build_query(Demand(support, (1,) * d, field), k, 2,
                             random.Random(k * 10 + d))
        plan = bundle.plan
        for t, pat in enumerate(plan.patterns, start=1):
            types, rows = oracle_round_rows(plan.betas, plan.f_star, t, 13)
            kept, certs = oracle_greedy(rows, 13)
            assert pat.kept == kept
            assert {p: sorted(c) for p, c in pat.certificates.items()} == certs


def test_dependent_leading_rows_raise():
    """The closed form needs beta_0..beta_{r-1} to be a basis; a full-rank
    table whose first r rows are dependent is refused."""
    field = field_new(7)
    blocks = generate_full_blocks(2, 3, 0, identity_mask(8))
    with pytest.raises(InternalInvariant):
        eliminate_redundancy(blocks, ((1, 2), (2, 4), (0, 1)), 2, field)


def test_biased_round_one_follows_star():
    """The star-dependent-drops hook keeps round-1 singletons from the star
    on, so the kept set moves with the star, and the plan still decodes."""
    field = field_new(11)
    rng = random.Random(5)
    betas = generic_betas(4, 2, field, rng)
    mask = identity_mask(16)
    kept_sets = set()
    for star in range(4):
        plan = eliminate_redundancy(generate_full_blocks(2, 4, star, mask),
                                    betas, 2, field, keep_bias=star)
        kept_sets.add(tuple(plan.patterns[0].kept))
        assert plan.patterns[0].kept[star]
        y = stream_oracle(betas, 2, 16, field, rng)
        answers = [pc_answer(plan.per_server[srv], y, field) for srv in range(2)]
        assert pc_decode(plan, answers, field) == y[star]
    assert len(kept_sets) == 4


# ------------------------------------------------------------ answer/decode

def test_pc_answer_matches_manual_evaluation():
    plan, betas, field, rng = make_plan(2, 4, 2, 0, 5, seed=9)
    y = stream_oracle(betas, 2, plan.s, field, rng)
    for exprs in plan.per_server:
        got = pc_answer(exprs, y, field)
        manual = [sum(c * y[g][sym] for g, sym, c in e.terms) % 5 for e in exprs]
        assert got == manual


def test_pc_answer_bounds():
    plan, betas, field, rng = make_plan(2, 3, 2, 0, 5, seed=1)
    y = stream_oracle(betas, 2, plan.s, field, rng)
    with pytest.raises(BadIndex):
        pc_answer(plan.per_server[0], y[:1], field)  # function range shrinks
    short = [stream[:2] for stream in y]
    with pytest.raises(BadIndex):
        pc_answer(plan.per_server[0], short, field)


@pytest.mark.parametrize("n,f_count,rank,star,q", [
    (2, 3, 2, 0, 5), (2, 4, 2, 3, 5), (2, 4, 3, 1, 7), (3, 3, 2, 2, 7),
    (2, 5, 4, 0, 13), (3, 4, 2, 3, 11), (1, 3, 2, 1, 5), (2, 6, 3, 4, 11),
])
def test_decode_recovers_starred_stream(n, f_count, rank, star, q):
    for seed in range(3):
        plan, betas, field, rng = make_plan(n, f_count, rank, star, q, seed)
        y = stream_oracle(betas, rank, plan.s, field, rng)
        answers = [pc_answer(plan.per_server[srv], y, field) for srv in range(n)]
        assert pc_decode(plan, answers, field) == y[star]


def test_decode_validates_answer_shape():
    plan, betas, field, rng = make_plan(2, 3, 2, 0, 5, seed=4)
    y = stream_oracle(betas, 2, plan.s, field, rng)
    answers = [pc_answer(plan.per_server[srv], y, field) for srv in range(2)]
    with pytest.raises(Undecodable):
        pc_decode(plan, answers[:1], field)
    with pytest.raises(Undecodable):
        pc_decode(plan, [answers[0], answers[1][:-1]], field)


@pytest.mark.parametrize("n,star", [(2, 0), (2, 3), (3, 1)])
def test_decode_with_a_zero_coefficient_row(n, star):
    """A zero row drops with an empty certificate; its value is 0 on every
    instance, and later rounds read it as side information."""
    field = field_new(7)
    betas = ((1, 2), (3, 1), (0, 0), (2, 5))
    rng = random.Random(star)
    plan = eliminate_redundancy(generate_full_blocks(n, 4, star, build_mask(n ** 4, rng)),
                                betas, 2, field)
    assert plan.patterns[0].certificates[2] == []
    y = stream_oracle(betas, 2, n ** 4, field, rng)
    answers = [pc_answer(plan.per_server[srv], y, field) for srv in range(n)]
    assert pc_decode(plan, answers, field) == y[star]


def test_cached_layout_serves_two_masks():
    """Two masks share one cached layout; each plan decodes, and the
    shared arrays come out of both uses unchanged."""
    field = field_new(11)
    rng = random.Random(8)
    betas = generic_betas(4, 2, field, rng)
    layouts = [generate_full_blocks(2, 4, 1, build_mask(16, rng)) for _ in range(2)]
    assert layouts[0].rounds is layouts[1].rounds
    assert layouts[0].mask != layouts[1].mask
    before = [rnd.slots.copy() for rnd in layouts[0].rounds]
    y = stream_oracle(betas, 2, 16, field, rng)
    for layout in layouts:
        plan = eliminate_redundancy(layout, betas, 2, field)
        answers = [pc_answer(plan.per_server[srv], y, field) for srv in range(2)]
        assert pc_decode(plan, answers, field) == y[1]
    assert all(np.array_equal(a, rnd.slots) for a, rnd in zip(before, layouts[0].rounds))


def test_layout_cache_is_bounded_by_bytes(monkeypatch):
    """The cache drops its least recently used layouts to stay within its
    byte budget, and keeps no layout larger than the budget."""
    monkeypatch.setattr(plan_module, "_layouts", {})
    one = sum(rnd.slots.nbytes for rnd in
              generate_full_blocks(2, 4, 0, identity_mask(16)).rounds)
    monkeypatch.setattr(plan_module, "_LAYOUT_CACHE_BYTES", 2 * one)
    for star in (1, 2, 1, 3):
        generate_full_blocks(2, 4, star, identity_mask(16))
    assert list(plan_module._layouts) == [(2, 4, 1), (2, 4, 3)]
    big = generate_full_blocks(2, 5, 0, identity_mask(32))
    assert sum(rnd.slots.nbytes for rnd in big.rounds) > 2 * one
    assert plan_module._layouts == {}


def test_layout_cache_under_threads(monkeypatch):
    """Threads that hit, build and evict layouts at once get back the layout
    they asked for and leave the cache within its budget."""
    monkeypatch.setattr(plan_module, "_layouts", {})
    want = {star: plan_module._layout_rounds(2, 4, star) for star in range(4)}
    budget = 2 * sum(rnd.slots.nbytes for rnd in want[0])
    monkeypatch.setattr(plan_module, "_LAYOUT_CACHE_BYTES", budget)
    errors = []

    def work(i):
        try:
            for j in range(200):
                star = (i + j) % 4
                got = generate_full_blocks(2, 4, star, identity_mask(16)).rounds
                assert all(np.array_equal(a.slots, b.slots) for a, b in zip(got, want[star]))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert sum(r.slots.nbytes for rs in plan_module._layouts.values() for r in rs) <= budget


def test_blocks_survive_reuse_across_tables():
    """One shared layout, two different coefficient tables in turn; the
    second plan must decode cleanly after the first."""
    field = field_new(11)
    rng = random.Random(77)
    mask = identity_mask(16)
    blocks = generate_full_blocks(2, 4, 0, mask)
    betas_a = generic_betas(4, 2, field, rng)
    betas_b = generic_betas(4, 3, field, rng)
    eliminate_redundancy(blocks, betas_a, 2, field)
    plan_b = eliminate_redundancy(blocks, betas_b, 3, field)
    y = stream_oracle(betas_b, 3, 16, field, rng)
    answers = [pc_answer(plan_b.per_server[srv], y, field) for srv in range(2)]
    assert pc_decode(plan_b, answers, field) == y[0]
