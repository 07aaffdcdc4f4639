import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from pltkit.capacity import pir_psi_capacity, plt_capacity_L1
from pltkit.engine import (Database, RunOverrides, build_query,
                           combination_stream, derive_rng, mds_check,
                           recover_demand, required_symbols,
                           run_pir_psi_via_plt, run_plt, server_answer)
from pltkit.fields import field_new
from pltkit.grs import Demand, y_coefficients
from pltkit.plan import GuardLimits, SizeGuard

GF5 = field_new(5)


def random_run(n, k, d, q, seed):
    field = field_new(q)
    rng = random.Random(seed)
    support = tuple(sorted(rng.sample(range(1, k + 1), d)))
    coeffs = tuple(field.rand_nonzero(rng) for _ in range(d))
    demand = Demand(support, coeffs, field)
    db = Database.random(field, k, required_symbols(n, k, d), rng)
    return db, demand, rng


# ---------------------------------------------------------------- database

def test_database_validation():
    Database(((0, 1), (2, 3)), GF5)
    for bad in [(), ((),),                 # empty
                ((0, 1), (2,)),            # ragged
                (((0, 1), (2, 3)),),       # 3-D
                ((0, -1),),                # negative
                ((0, 5),), ((2 ** 70,),),  # not reduced
                np.array([[0, 4], [5, 1]])]:
        with pytest.raises(ValueError):
            Database(bad, GF5)


def test_database_is_one_read_only_array():
    src = np.array([[0, 1, 2], [3, 4, 0]])
    db = Database(src, GF5)
    assert db.rows.dtype == np.int64 and db.rows.shape == (2, 3) == (db.k, db.s)
    with pytest.raises(ValueError):
        db.rows[0, 0] = 1
    src[0, 0] = 4  # the database holds its own copy
    assert db.rows[0, 0] == 0
    assert np.array_equal(Database(((0, 1, 2), (3, 4, 0)), GF5).rows, db.rows)


def test_database_random_shape():
    db = Database.random(GF5, 3, 8, random.Random(0))
    assert db.k == 3 and db.s == 8
    assert all(0 <= v < 5 for row in db.rows for v in row)


def test_required_symbols():
    assert required_symbols(2, 4, 3) == 2 ** 4
    assert required_symbols(3, 5, 2) == 3 ** 10
    assert required_symbols(1, 4, 2) == 1


def test_derive_rng_labels_are_independent():
    a = derive_rng(7, "db", 0).random()
    assert derive_rng(7, "db", 0).random() == a
    assert derive_rng(7, "db", 1).random() != a
    assert derive_rng(7, "demand", 0).random() != a
    assert derive_rng(8, "db", 0).random() != a


# -------------------------------------------------------------- build_query

def test_build_query_is_deterministic():
    demand = Demand((1, 3), (2, 1), GF5)
    b1 = build_query(demand, 4, 2, random.Random(5))
    b2 = build_query(demand, 4, 2, random.Random(5))
    assert b1.server_queries == b2.server_queries
    assert b1.secret == b2.secret


def test_build_query_shares_vectors_across_servers():
    demand = Demand((2, 3), (1, 4), GF5)
    bundle = build_query(demand, 4, 3, random.Random(2))
    q0 = bundle.server_queries[0]
    for sq in bundle.server_queries[1:]:
        assert sq.q_vectors == q0.q_vectors
        assert sq.betas == q0.betas
    # but the download plans differ
    for a, b in combinations(bundle.server_queries, 2):
        assert a.expressions != b.expressions
    # and a query stays hashable
    assert len(set(bundle.server_queries)) == 3


def test_build_query_validation():
    with pytest.raises(ValueError):
        build_query(Demand((1, 5), (1, 1), GF5), 4, 2, random.Random(0))
    with pytest.raises(SizeGuard):
        build_query(Demand((1,), (1,), GF5), 4, 2, random.Random(0),
                    limits=GuardLimits(max_functions=3))


def test_break_switches_pin_randomness():
    demand = Demand((1, 2), (2, 1), GF5)
    rng = random.Random(3)
    bundle = build_query(demand, 4, 2, rng,
                         overrides=RunOverrides(break_free_alphas=True,
                                                break_star_scalar=True))
    assert bundle.secret.alphas[2] == 1 and bundle.secret.alphas[3] == 1
    assert bundle.table.star_scalar == 1


# ------------------------------------------------------------ server answer

def brute_force_answer(sq, db):
    """Independent second path: raw-message coefficients per function, then
    term-by-term evaluation straight off the database."""
    q = db.field.q
    k, s = db.k, db.s
    y = []
    for beta in sq.betas:
        coeffs = [sum(beta[i] * sq.q_vectors[i][j] for i in range(sq.r)) % q
                  for j in range(k)]
        y.append([sum(coeffs[j] * db.rows[j][sym] for j in range(k)) % q
                  for sym in range(s)])
    return [sum(c * y[g][sym] for g, sym, c in e.terms) % q
            for e in sq.expressions]


@pytest.mark.parametrize("n,k,d,q", [(2, 3, 2, 5), (2, 4, 3, 7), (3, 3, 2, 11), (2, 4, 2, 5)])
def test_server_answer_against_brute_force(n, k, d, q):
    db, demand, rng = random_run(n, k, d, q, seed=q + k)
    bundle = build_query(demand, k, n, rng)
    for sq in bundle.server_queries:
        fast = server_answer(sq, db)
        assert fast == brute_force_answer(sq, db)
        assert server_answer(sq, db) == fast  # pure: same inputs, same output


def test_server_answer_shape_checks():
    db, demand, rng = random_run(2, 3, 2, 5, seed=0)
    bundle = build_query(demand, 3, 2, rng)
    sq = bundle.server_queries[0]
    with pytest.raises(ValueError):
        server_answer(sq, Database.random(field_new(7), 3, 8, random.Random(0)))
    with pytest.raises(ValueError):
        server_answer(sq, Database.random(GF5, 4, 8, random.Random(0)))
    with pytest.raises(ValueError):
        server_answer(sq, Database.random(GF5, 3, 4, random.Random(0)))


def test_large_modulus_does_not_overflow():
    """Largest supported prime; the fused matmul path must detour safely."""
    q = 2147483647
    field = field_new(q)
    rng = random.Random(1)
    db = Database.random(field, 3, 8, rng)
    demand = Demand((1, 3), (q - 1, q - 2), field)
    result = run_plt(db, demand, 2, rng=rng)
    assert mds_check(db, demand, result.recovered)


# ------------------------------------------------------------------ running

@pytest.mark.parametrize("n,k,d,q", [
    (2, 3, 2, 5), (2, 4, 3, 5), (3, 4, 3, 7), (2, 4, 4, 5),
    (2, 5, 4, 11), (3, 3, 1, 7), (1, 3, 2, 5), (2, 1, 1, 13),
])
def test_run_plt_recovers_and_hits_capacity(n, k, d, q):
    for seed in range(3):
        db, demand, rng = random_run(n, k, d, q, seed)
        result = run_plt(db, demand, n, seed=seed, rng=rng)
        assert mds_check(db, demand, result.recovered)
        assert result.transcript.rate == plt_capacity_L1(n, k, d).value
        total = sum(p["answer_symbols"] for p in result.transcript.per_server)
        assert result.transcript.rate == Fraction(db.s, total)


def test_run_plt_determinism():
    db, demand, _ = random_run(2, 4, 3, 5, seed=6)
    r1 = run_plt(db, demand, 2, seed=6, rng=random.Random(123))
    r2 = run_plt(db, demand, 2, seed=6, rng=random.Random(123))
    assert r1.transcript.to_json() == r2.transcript.to_json()
    assert r1.answers == r2.answers
    assert r1.recovered == r2.recovered


def test_run_plt_rejects_mismatched_inputs():
    db = Database.random(GF5, 4, 16, random.Random(0))
    with pytest.raises(ValueError):
        run_plt(db, Demand((1, 2, 3), (1, 1, 1), field_new(7)), 2)
    with pytest.raises(ValueError):
        run_plt(Database.random(GF5, 4, 8, random.Random(0)),
                Demand((1, 2, 3), (1, 1, 1), GF5), 2)  # needs 16 symbols


def test_transcript_json_round_trips():
    db, demand, rng = random_run(2, 3, 2, 5, seed=11)
    result = run_plt(db, demand, 2, seed=11, rng=rng)
    blob = json.loads(result.transcript.to_json())
    assert blob["params"]["n"] == 2
    assert blob["params"]["symbols"] == 8
    assert blob["rate"] == {"num": 2, "den": 3}
    assert blob["seed"] == 11
    assert len(blob["per_server"]) == 2


def test_recover_demand_strips_the_scalar():
    db, demand, rng = random_run(2, 4, 3, 5, seed=8)
    bundle = build_query(demand, 4, 2, rng)
    answers = [server_answer(sq, db) for sq in bundle.server_queries]
    recovered = recover_demand(bundle, answers)
    assert recovered == combination_stream(db, demand)


def test_combination_stream_and_mds_check():
    db = Database(((1, 2, 3, 4), (4, 3, 2, 1), (0, 1, 0, 1)), GF5)
    demand = Demand((1, 3), (2, 3), GF5)
    expect = [(2 * a + 3 * b) % 5 for a, b in zip(db.rows[0], db.rows[2])]
    assert combination_stream(db, demand) == expect
    assert mds_check(db, demand, expect)
    assert not mds_check(db, demand, [0] * 4)


def test_combination_stream_at_the_largest_modulus():
    """D = 3 products of symbols near q - 1 pass 2**63 before reduction; the
    stream must still equal a Python-int reference."""
    q = 2 ** 31 - 1
    field = field_new(q)
    rng = random.Random(3)
    rows = tuple(tuple(q - 1 - rng.randrange(4) for _ in range(6)) for _ in range(4))
    db = Database(rows, field)
    demand = Demand((1, 2, 4), (q - 1, q - 2, q - 3), field)
    expect = [sum(c * rows[i - 1][s] for i, c in zip(demand.support, demand.coeffs)) % q
              for s in range(6)]
    assert combination_stream(db, demand) == expect
    assert mds_check(db, demand, expect)
    assert not mds_check(db, demand, expect[:-1] + [(expect[-1] + 1) % q])


# ------------------------------------------------------- side-info wrappers

@pytest.mark.parametrize("n,k,d,q", [(2, 3, 2, 5), (2, 4, 3, 7), (3, 4, 2, 5),
                                     (2, 3, 3, 2 ** 31 - 1)])
def test_side_info_wrapper_recovers_the_message(n, k, d, q):
    field = field_new(q)
    for seed in range(4):
        rng = random.Random(seed)
        db = Database.random(field, k, required_symbols(n, k, d), rng)
        picks = rng.sample(range(1, k + 1), d)
        wanted, side = picks[0], picks[1:]
        out = run_pir_psi_via_plt(db, wanted, side, n, seed=seed, rng=rng)
        assert out.message == list(db.rows[wanted - 1])
        # rate matches the side-information capacity with M = D - 1 knowns
        assert out.transcript.rate == pir_psi_capacity(n, k, d - 1).value


def test_side_info_wrapper_no_side_is_plain_retrieval():
    db = Database.random(GF5, 3, 27, random.Random(2))
    out = run_pir_psi_via_plt(db, 2, (), 3, seed=2)
    assert out.message == list(db.rows[1])


def test_side_info_wrapper_validation():
    db = Database.random(GF5, 4, 16, random.Random(0))
    with pytest.raises(ValueError):
        run_pir_psi_via_plt(db, 2, (2, 3), 2, seed=0)
    with pytest.raises(ValueError):
        run_pir_psi_via_plt(db, 1, (2, 2, 3), 2, seed=0)
