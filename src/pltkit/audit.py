"""Privacy and rate audits over the transmitted query material.

Two kinds of evidence: deterministic structural checks that mirror the
algebra the privacy argument rests on (support bijection, scalar-class
counting, star-independent plan shape), and an empirical total-variation
estimate over coarse query signatures.  Exact distribution equality over
full query objects is far out of reach, so the signatures quotient out the
user's private randomness and the TV test is calibrated by mutation: a
deliberately broken client must blow past the threshold.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .capacity import plt_capacity_L1
from .engine import (QueryBundle, RunOverrides, Transcript, build_query,
                     derive_rng)
from .fields import NotPrime, Poly, PrimeField, field_new
from .grs import Demand, FunctionTable, SuperMessageSpec, enumerate_subsets
from .plan import (DEFAULT_LIMITS, GuardLimits, SymbolMask,
                   eliminate_redundancy, generate_full_blocks)


class ParamsTooLarge(ValueError):
    """The requested audit would not produce a meaningful answer."""


SIGNATURE_COMPONENTS = ("alpha", "scalars", "supports", "shape")

# beyond this signature space the TV estimate is all noise at feasible
# sample counts
_MAX_SIGNATURE_SPACE = 2 ** 20

# exhaustive scalar-class enumeration stays feasible below these
_EXHAUSTIVE_R = 3
_EXHAUSTIVE_Q = 7


def query_signature(bundle: QueryBundle) -> dict:
    """Server 0's view, split into four components.

    Each component's honest distribution is demand-independent under the
    model's uniform coefficient prior:
      alpha: first query vector (marginally uniform nonzero everywhere);
      scalars: top coefficient of each function row, i.e. the per-function
        scaling, since the underlying subset polynomials are monic;
      supports: zero patterns of the function rows (a statistic of the
        evaluation points only);
      shape: per round, the downloaded sum count and which function tuples
        the sums touch (mask-independent by construction).
    """
    sq = bundle.server_queries[0]
    r = sq.r
    per_round: dict[int, list] = {}
    for funcs, _, _ in sq.expressions.blocks:
        per_round.setdefault(funcs.shape[1], []).extend(map(tuple, funcs.tolist()))
    shape = tuple((t, len(rows), tuple(sorted(rows)))
                  for t, rows in sorted(per_round.items()))
    return {
        "alpha": sq.q_vectors[0],
        "scalars": tuple(row[r - 1] for row in sq.betas),
        "supports": tuple(tuple(1 if v else 0 for v in row) for row in sq.betas),
        "shape": shape,
    }


def _tv(counts_a: Counter, counts_b: Counter, n: int) -> float:
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a[k] - counts_b[k]) for k in keys) / n


def tv_distance(tallies_a: dict, tallies_b: dict, samples: int) -> dict:
    """Per-component TV between two tally sets from signature_tallies."""
    return {name: _tv(tallies_a[name], tallies_b[name], samples)
            for name in SIGNATURE_COMPONENTS}


# ---------------------------------------------------------------- structure

@dataclass(frozen=True)
class StructureReport:
    ok: bool
    bijection_ok: bool
    valid_rows_per_subset: dict
    exhaustive: bool


def recover_points(spec: SuperMessageSpec, field: PrimeField) -> tuple[int, ...]:
    """Evaluation points from the query vectors alone: row1 / row0.

    Needs r >= 2 and validates the geometric structure of every later row.
    """
    if spec.r < 2:
        raise ValueError("cannot recover points from a single query vector")
    q = field.q
    omegas = []
    for j in range(spec.k):
        a0 = spec.q_vectors[0][j]
        if a0 == 0:
            raise ValueError(f"query vector has a zero multiplier at column {j}")
        w = (spec.q_vectors[1][j] * field.inv(a0)) % q
        for i in range(2, spec.r):
            if spec.q_vectors[i][j] != (a0 * pow(w, i, q)) % q:
                raise ValueError(f"column {j} is not geometric in the row index")
        omegas.append(w)
    if len(set(omegas)) != spec.k:
        raise ValueError("recovered evaluation points collide")
    return tuple(omegas)


def check_support_structure(spec: SuperMessageSpec, table: FunctionTable,
                            field: PrimeField) -> StructureReport:
    """Confirm the function table's algebraic footprint, from public data.

    (a) f -> support of the f-th function (through the query vectors) must
    be a bijection onto all size-D subsets; (b) for each subset, the
    coefficient vectors supported exactly there form one scalar class of
    size q - 1.  (b) is checked exhaustively over GF(q)^r when that is
    feasible, otherwise through the annihilator construction on the
    recovered evaluation points.
    """
    q = field.q
    r = spec.r
    k = spec.k
    subsets = table.subsets
    d = len(subsets[0])
    expected = enumerate_subsets(k, d)

    bijection_ok = tuple(sorted(set(subsets))) == expected and len(subsets) == len(expected)
    for f, subset in enumerate(subsets):
        # column j of the function row: sum_i beta[i] * Q[i][j]
        touched = tuple(
            j + 1 for j in range(k)
            if sum(table.betas[f][i] * spec.q_vectors[i][j] for i in range(r)) % q)
        if touched != subset:
            bijection_ok = False

    exhaustive = r <= _EXHAUSTIVE_R and q <= _EXHAUSTIVE_Q
    counts = {}
    rows_ok = True
    if exhaustive:
        if r >= 2:
            omegas = recover_points(spec, field)
        else:
            omegas = ()
        for f, subset in enumerate(subsets):
            off = [omegas[j - 1] for j in range(1, k + 1) if j not in subset] if r >= 2 else []
            valid = 0
            row_seen = False
            for vec in product(range(q), repeat=r):
                if not any(vec):
                    continue
                acc_ok = True
                for w in off:
                    acc = 0
                    for c in reversed(vec):  # Horner, low-first coefficients
                        acc = (acc * w + c) % q
                    if acc:
                        acc_ok = False
                        break
                if acc_ok:
                    valid += 1
                    if vec == table.betas[f]:
                        row_seen = True
            counts[subset] = valid
            if valid != q - 1 or not row_seen:
                rows_ok = False
    else:
        omegas = recover_points(spec, field) if r >= 2 else ()
        for f, subset in enumerate(subsets):
            beta = table.betas[f]
            top = beta[r - 1] % q  # the scalar, since the annihilator is monic
            ok_here = top != 0
            if r >= 2 and ok_here:
                off = [omegas[j - 1] for j in range(1, k + 1) if j not in subset]
                ann = Poly.from_roots(off, field).padded(r)
                ok_here = tuple((top * c) % q for c in ann) == tuple(beta)
            counts[subset] = q - 1 if ok_here else 0
            if not ok_here:
                rows_ok = False
    return StructureReport(bijection_ok and rows_ok, bijection_ok, counts, exhaustive)


# --------------------------------------------------------------------- shape

@dataclass(frozen=True)
class ShapeReport:
    ok: bool
    seeds_checked: int
    drop_profile: tuple


def check_shape_independence(n_servers: int, f_count: int, rank: int,
                             seeds=range(20), q: int | None = None,
                             limits: GuardLimits = DEFAULT_LIMITS) -> ShapeReport:
    """Same coefficient table, every possible starred index: same shape.

    For each seed a fresh generic table is drawn (distinct generator points,
    random nonzero row scalings), and plans are built for all F star choices
    over a shared mask.  Per-(server, round) kept/dropped counts, each
    server's (rows, terms) block shapes, and even the kept type sets must
    all coincide; any dependence on the star would hand the demand to a server
    that simply reads which function tuples were downloaded.
    """
    if q is None:
        q = max(f_count + 1, 3)
        while True:
            try:
                field_new(q)
                break
            except NotPrime:
                q += 1
    field = field_new(q)
    if q <= f_count:
        raise ValueError("need q > f_count for distinct generator points")
    s_total = n_servers ** f_count
    mask = SymbolMask(tuple(range(s_total)), tuple(1 for _ in range(s_total)))
    layouts = [generate_full_blocks(n_servers, f_count, star, mask, limits=limits)
               for star in range(f_count)]
    ok = True
    profile = None
    checked = 0
    for seed in seeds:
        rng = random.Random(seed)
        points = rng.sample(range(1, q), f_count)
        scal = [field.rand_nonzero(rng) for _ in range(f_count)]
        betas = tuple(tuple((scal[f] * pow(points[f], i, q)) % q for i in range(rank))
                      for f in range(f_count))
        seen = set()
        for star in range(f_count):
            plan = eliminate_redundancy(layouts[star], betas, rank, field,
                                        limits=limits)
            counts = tuple(tuple(d) for d in plan.drop_counts)
            block_shapes = tuple(tuple(funcs.shape for funcs, _, _ in terms.blocks)
                                 for terms in plan.per_server)
            kept_types = tuple(
                tuple(sorted(t for t, flag in zip(p.types, p.kept) if flag))
                for p in plan.patterns)
            seen.add((counts, block_shapes, kept_types))
            profile = counts[0]
        if len(seen) != 1:
            ok = False
        checked += 1
    return ShapeReport(ok, checked, profile)


# ------------------------------------------------------------------ tv test

@dataclass(frozen=True)
class PrivacyReport:
    structural_pass: bool
    structural_detail: dict
    support_a: tuple[int, ...]
    support_b: tuple[int, ...]
    samples: int
    threshold: float
    components: dict
    tv_estimate: float

    @property
    def passes(self) -> bool:
        return self.structural_pass and self.tv_estimate < self.threshold

    def worst_component(self) -> str:
        return max(self.components, key=self.components.get)


def _normalize_demand(demand, d):
    """Accept a bare support or a (support, coeffs) pair; None coeffs means
    draw fresh uniform nonzero coefficients every sample."""
    if isinstance(demand, tuple) and len(demand) == 2 and not isinstance(demand[0], int):
        support, coeffs = demand
    else:
        support, coeffs = demand, None
    support = tuple(sorted(support))
    if len(support) != d:
        raise ValueError(f"support {support} does not have {d} indices")
    return support, coeffs


def signature_tallies(k: int, d: int, n_servers: int, field: PrimeField,
                      support, coeffs, samples: int, seed, label: str,
                      overrides: RunOverrides = RunOverrides(),
                      limits: GuardLimits = DEFAULT_LIMITS,
                      workers: int = 1) -> dict[str, Counter]:
    """Component tallies over fresh seeded query builds.

    Trial i uses rng hash(seed | label | i), so the tallies depend only on
    the arguments.  The builds hold the interpreter lock, so the loop runs
    in the calling thread; ``workers`` is accepted for older callers and
    ignored.
    """
    tallies = {name: Counter() for name in SIGNATURE_COMPONENTS}
    for i in range(samples):
        rng = derive_rng(seed, label, i)
        cs = coeffs if coeffs is not None else tuple(
            field.rand_nonzero(rng) for _ in range(d))
        bundle = build_query(Demand(support, cs, field), k, n_servers, rng,
                             overrides=overrides, limits=limits)
        sig = query_signature(bundle)
        for name in SIGNATURE_COMPONENTS:
            tallies[name][sig[name]] += 1
    return tallies


def tv_privacy_test(k: int, d: int, n_servers: int, field: PrimeField,
                    demand_a, demand_b, samples: int = 100_000, seed=0,
                    threshold: float = 0.05,
                    overrides: RunOverrides = RunOverrides(),
                    limits: GuardLimits = DEFAULT_LIMITS,
                    workers: int = 1) -> PrivacyReport:
    """Empirical distinguishability of two demands from one server's view.

    Each demand is a support or a (support, coeffs) pair; omitted
    coefficients are redrawn uniformly per sample, which is the model's
    prior.  Pinning coefficients conditions the query distribution on them
    and is expected to show distance: the support columns of the first query
    vector satisfy a coefficient-dependent constraint (they are the pinned
    values divided by evaluations of a polynomial with the off-support
    points as roots), so a fixed coefficient vector leaves a support-shaped
    footprint.  The protocol's guarantee is over coefficients drawn from
    the prior, not per fixed vector; use pinning to measure that leak, not
    to certify privacy.

    Also runs the deterministic structural checks so the report carries the
    whole privacy story for the parameter point.  ``workers`` is ignored, as
    in ``signature_tallies``.
    """
    f_count = comb(k, d)
    if field.q ** max(k, f_count) > _MAX_SIGNATURE_SPACE:
        raise ParamsTooLarge(
            f"signature space near q^{max(k, f_count)} swamps any feasible sample count")
    support_a, coeffs_a = _normalize_demand(demand_a, d)
    support_b, coeffs_b = _normalize_demand(demand_b, d)

    probe_coeffs = coeffs_a if coeffs_a is not None else tuple(
        field.rand_nonzero(derive_rng(seed, "probe", 0)) for _ in range(d))
    probe = build_query(Demand(support_a, probe_coeffs, field), k, n_servers,
                        derive_rng(seed, "probe", 1),
                        overrides=overrides, limits=limits)
    structure = check_support_structure(probe.spec, probe.table, field)
    shape = check_shape_independence(n_servers, f_count, k - d + 1,
                                     seeds=range(5), limits=limits)
    detail = {
        "support_bijection": structure.bijection_ok,
        "beta_count": structure.ok,
        "shape_star_independence": shape.ok,
    }

    tallies_a = signature_tallies(k, d, n_servers, field, support_a, coeffs_a,
                                  samples, seed, "side0", overrides, limits)
    tallies_b = signature_tallies(k, d, n_servers, field, support_b, coeffs_b,
                                  samples, seed, "side1", overrides, limits)
    components = {name: _tv(tallies_a[name], tallies_b[name], samples)
                  for name in SIGNATURE_COMPONENTS}
    return PrivacyReport(all(detail.values()), detail, support_a, support_b,
                         samples, threshold, components, max(components.values()))


# --------------------------------------------------------------------- rate

@dataclass(frozen=True)
class RateReport:
    rate: Fraction
    capacity: Fraction
    achieves_capacity: bool


def measure_rate(transcript: Transcript) -> RateReport:
    """Recompute the rate from the download accounting and compare exactly."""
    total = sum(p["answer_symbols"] for p in transcript.per_server)
    rate = Fraction(transcript.s, total)
    if rate != transcript.rate:
        raise AssertionError(
            f"transcript carries rate {transcript.rate}, accounting says {rate}")
    cap = plt_capacity_L1(transcript.n_servers, transcript.k, transcript.d).value
    return RateReport(rate, cap, rate == cap)
