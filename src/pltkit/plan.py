"""Per-server download plans over the virtual functions.

Given F virtual functions of rank r over the super-messages, each of S = N^F
symbols, the plan asks every server for signed sums of masked symbols in F
rounds (Sun and Jafar, "The Capacity of Private Computation"): round t has one
row per t-subset T of functions and instance j < m_t = (N-1)^(t-1).  Which
masked symbol (a "slot") each term reads is fixed by (N, F, f_star).  With
c_t = C(F-1, t-1), base_1 = 0 and base_{t+1} = base_t + N c_t m_t, server n
owns slot(t, n, sub, j) = base_t + (n c_t + idx(sub)) m_t + j, where idx ranks
the (t-1)-subset sub among those avoiding f_star.  If f_star is not in T, row
(T, j) on server n reads slot(t, n, T - u, j) with sign (-1)^c for its member
u at column c.  Otherwise it reads a fresh starred symbol at
slot(t, n, T - f_star, j) and subtracts, as side information, the
(T - f_star)-row that server src, the (j // m_{t-1})-th server other than n,
downloaded at instance j mod m_{t-1} of round t-1.  So every slot carries
exactly one starred symbol.

Rank deficiency of the function table makes part of the rows redundant, in a
fixed pattern: round t keeps the t-subsets of functions that meet the first r,
and each dropped row is a combination of kept ones read off in closed form
from the coordinates of the coefficient rows over the first r.  That brings
the per-server download to exactly S * (1/N + ... + 1/N^r) symbols.

Functions and symbols are 0-based; the mask maps a slot to the raw position
all functions share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul
from typing import Sequence

from .fields import PrimeField, gaussian_solve, matrix_rank


class SizeGuard(ValueError):
    """Requested parameters exceed the configured plan-size budget."""


class InternalInvariant(AssertionError):
    """A structural promise of the plan construction failed; this is a bug."""


class BadIndex(IndexError):
    """An expression references a function or symbol out of range."""


class Undecodable(ValueError):
    """The received answers do not determine the starred function."""


@dataclass(frozen=True)
class GuardLimits:
    max_functions: int = 20
    max_plan_bytes: int = 256 * 1024 * 1024


DEFAULT_LIMITS = GuardLimits()


# Peak bytes per layout term (kept or dropped row; its share of the
# emitted expressions, the layout and the mask included) and per
# certificate term: a least-squares fit of the relative error to
# tracemalloc peaks of build_query at (N, K, D, q) = (3,5,2,13),
# (2,12,11,13) and (2,6,4,31), 64-bit CPython 3.11.
_TERM_BYTES, _CERT_TERM_BYTES = 96, 240


def plan_bytes(n_servers: int, f_count: int, rank: int) -> int:
    """Predicted peak memory of one query build, from closed-form counts:
    each server's layout has C(F, t) (N-1)^(t-1) rows of t terms in round
    t, F N^(F-1) terms in all, and each dropped type of size t has at most
    C(t + r, r) - 1 certificate terms."""
    cert_terms = sum(comb(f_count - rank, t) * (comb(t + rank, rank) - 1)
                     for t in range(1, f_count - rank + 1))
    return f_count * n_servers ** f_count * _TERM_BYTES + cert_terms * _CERT_TERM_BYTES


def check_size_guard(n_servers: int, f_count: int, rank: int,
                     limits: GuardLimits = DEFAULT_LIMITS) -> int:
    """Validate (N, F, r) against the budget; returns S = N^F."""
    if f_count > limits.max_functions:
        raise SizeGuard(f"{f_count} functions exceeds the limit of {limits.max_functions}")
    need = plan_bytes(n_servers, f_count, rank)
    if need > limits.max_plan_bytes:
        raise SizeGuard(
            f"plan needs about {need} bytes, budget is {limits.max_plan_bytes}")
    return n_servers ** f_count


@dataclass(frozen=True)
class SymbolMask:
    """Common symbol relabeling: a permutation and a sign per masked index."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]  # entries in {+1, -1}

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm must be a permutation of 0..S-1")
        if len(self.signs) != len(self.perm) or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +/-1, one per symbol")

    @property
    def s(self) -> int:
        return len(self.perm)


def build_mask(s: int, rng) -> SymbolMask:
    """Uniform permutation (Fisher-Yates, descending index) plus fair signs.

    Draw order: one randrange per swap position i = s-1 .. 1, then one
    two-way draw per index 0 .. s-1.
    """
    if s < 1:
        raise ValueError(f"need at least one symbol, got {s}")
    perm = list(range(s))
    for i in range(s - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    signs = tuple(1 if rng.randrange(2) == 0 else -1 for _ in range(s))
    return SymbolMask(tuple(perm), signs)


@dataclass(frozen=True, slots=True)
class Expression:
    """One transmitted query row: signed sum of raw function symbols.

    terms are (function, raw symbol, coefficient), sorted by function, all
    functions distinct; ``t`` is the round, equal to the term count.
    """

    terms: tuple[tuple[int, int, int], ...]
    t: int


@dataclass(frozen=True, slots=True)
class RoundLayout:
    """Round t of the slot layout, shared by every server.

    Row (type p, instance j) on server n reads, at its column
    ``columns[p][c] = (function, offset, sign, side)``, the slot
    ``offset + grid[n][j][side]`` with that sign.
    """

    instances: int  # m_t rows per type per server
    columns: tuple[tuple[tuple[int, int, int, bool], ...], ...]
    # per starred type: (position, its starred column's offset, position of
    # T - f_star in round t-1 or -1 in round 1)
    stars: tuple[tuple[int, int, int], ...]
    grid: tuple[tuple[tuple[int, int], ...], ...]  # [server][instance]: (own, side)


@dataclass(frozen=True)
class SlotLayout:
    """The plan layout of every round, with the query's mask."""

    n_servers: int
    f_count: int
    f_star: int
    mask: SymbolMask
    rounds: tuple[RoundLayout, ...]


@dataclass
class RoundPattern:
    """Per-round keep/drop decision, shared by every server and instance.

    ``certificates[p]`` expresses dropped type p over kept types within the
    same instance: a list of (kept type position, coefficient).
    """

    types: tuple[tuple[int, ...], ...]
    kept: list[bool]
    certificates: dict[int, list[tuple[int, int]]]


@dataclass
class PcPlan:
    n_servers: int
    f_count: int
    rank: int
    f_star: int
    mask: SymbolMask
    betas: tuple[tuple[int, ...], ...]
    layout: SlotLayout
    patterns: list[RoundPattern]
    per_server: list[list[Expression]]
    drop_counts: list[list[int]]
    kept_per_server: int

    @property
    def s(self) -> int:
        return self.mask.s


def generate_full_blocks(n_servers: int, f_count: int, f_star: int, mask: SymbolMask,
                         limits: GuardLimits = DEFAULT_LIMITS) -> SlotLayout:
    """The slot layout of every round (module docstring), for all servers.

    Deterministic given (N, F, f_star); randomness enters only through the
    mask.  Types run over the t-subsets in canonical order and columns over
    a type's members in order, so emitted terms come out sorted by function.
    A starred type's side columns are the columns of its (T - f_star)-row in
    round t-1 with signs negated; their grid entry for (n, j) is that row's
    own grid entry on server src, concatenated over the servers src != n.
    """
    if not (0 <= f_star < f_count):
        raise ValueError(f"starred index {f_star} out of range for {f_count} functions")
    if n_servers < 1:
        raise ValueError(f"need at least one server, got {n_servers}")
    check_size_guard(n_servers, f_count, 1, limits)
    s_total = n_servers ** f_count
    if mask.s != s_total:
        raise ValueError(f"mask covers {mask.s} symbols, plan needs {s_total}")

    others = [g for g in range(f_count) if g != f_star]
    rounds: list[RoundLayout] = []
    base = 0
    prev_pos: dict[tuple[int, ...], int] = {}
    for t in range(1, f_count + 1):
        m = (n_servers - 1) ** (t - 1)
        idx = {sub: i for i, sub in enumerate(combinations(others, t - 1))}
        columns, stars, pos = [], [], {}
        for p, tt in enumerate(combinations(range(f_count), t)):
            pos[tt] = p
            if f_star not in tt:
                columns.append(tuple(
                    (u, base + idx[tt[:c] + tt[c + 1:]] * m, -1 if c % 2 else 1, False)
                    for c, u in enumerate(tt)))
                continue
            sub = tuple(g for g in tt if g != f_star)
            back = prev_pos.get(sub, -1)  # -1 in round 1, where sub is empty
            offset = base + idx[sub] * m
            side = [(u, off, -sign, True) for u, off, sign, _ in
                    rounds[-1].columns[back]] if back >= 0 else []
            stars.append((p, offset, back))
            columns.append(tuple(sorted(side + [(f_star, offset, 1, False)])))
        block = len(idx) * m
        grid = []
        for n in range(n_servers):
            sides = [own for src in range(n_servers) if src != n
                     for own, _ in rounds[-1].grid[src]] if t > 1 else [0]
            grid.append(tuple(zip(range(n * block, n * block + m), sides)))
        rounds.append(RoundLayout(m, tuple(columns), tuple(stars), tuple(grid)))
        prev_pos = pos
        base += n_servers * block

    if base != s_total:
        raise InternalInvariant(f"laid out {base} slots for {s_total} symbols")
    return SlotLayout(n_servers, f_count, f_star, mask, tuple(rounds))


@lru_cache(maxsize=64)
def _round_skeleton(f_count: int, rank: int, t: int):
    """The star-free part of round t: types, kept flags, certificate terms.

    Kept types are the t-subsets meeting {0..rank-1}.  A dropped type
    T = {g_1 < ... < g_t} takes its certificate from the expansion of
    w_{g_1} ^ ... ^ w_{g_t}, w_g = e_g - sum_i c[g][i] e_i: swapping the
    members at positions J for columns I gives the type I + (T - J) with
    coefficient (-1)^(sum J - |J|(|J|-1)/2 + |J|) det C[T_J, I].  Terms are
    (kept type position, (T_J, I), that sign), per dropped position.
    """
    types = tuple(combinations(range(f_count), t))
    kept = tuple(tt[0] < rank for tt in types)
    pos_of = {tt: p for p, tt in enumerate(types)}
    minor_keys: dict = {}  # one key tuple per minor, shared by all its terms
    drops = []
    for p, tt in enumerate(types):
        if kept[p]:
            continue
        terms = []
        for k in range(1, min(t, rank) + 1):
            for at in combinations(range(t), k):
                rows = tuple(tt[j] for j in at)
                rest = tuple(g for j, g in enumerate(tt) if j not in at)
                sign = -1 if (sum(at) - k * (k - 1) // 2 + k) % 2 else 1
                for cols in combinations(range(rank), k):
                    key = minor_keys.setdefault((rows, cols), (rows, cols))
                    terms.append((pos_of[cols + rest], key, sign))
        drops.append((p, tuple(terms)))
    return types, kept, tuple(drops)


def _basis_coords(betas: Sequence[Sequence[int]], basis: Sequence[int],
                  field: PrimeField) -> list[list[int]] | None:
    """Coordinates of every beta row over the rows ``basis``, one solve;
    None when those rows are dependent."""
    report = gaussian_solve([betas[g] for g in basis], betas, field)
    if report.rank != len(basis):
        return None
    return [res.combination for res in report.results]


def _minors(coords: Sequence[Sequence[int]], rank: int, q: int) -> dict:
    """det C[G, I] mod q for G in {rank..F-1}, I in {0..rank-1} of equal
    size, C[g][i] = coords[g][i]; first-row expansion, the empty minor is 1."""
    det = {((), ()): 1}
    for k in range(1, min(rank, len(coords) - rank) + 1):
        for rows in combinations(range(rank, len(coords)), k):
            for cols in combinations(range(rank), k):
                det[rows, cols] = sum(
                    (-1) ** m * coords[rows[0]][i] * det[rows[1:], cols[:m] + cols[m + 1:]]
                    for m, i in enumerate(cols)) % q
    return det


def _biased_singletons(betas: Sequence[Sequence[int]], keep_bias: int,
                       field: PrimeField) -> RoundPattern:
    """Test hook: round 1 keeps the first rank-adding singletons from
    ``keep_bias`` on, so the kept set follows the star; the audit power
    checks must catch that leak."""
    f_count = len(betas)
    chosen: list[int] = []
    for g in sorted(range(f_count), key=lambda g: (g - keep_bias) % f_count):
        if matrix_rank([betas[h] for h in chosen + [g]], field) > len(chosen):
            chosen.append(g)
    coords = _basis_coords(betas, chosen, field)
    certs = {g: [(b, c) for b, c in zip(chosen, coords[g]) if c]
             for g in range(f_count) if g not in chosen}
    return RoundPattern(tuple((g,) for g in range(f_count)),
                        [g in chosen for g in range(f_count)], certs)


def eliminate_redundancy(layout: SlotLayout, betas: Sequence[Sequence[int]],
                         rank: int, field: PrimeField,
                         limits: GuardLimits = DEFAULT_LIMITS,
                         keep_bias: int = 0) -> PcPlan:
    """Drop the redundant rows in closed form and emit the kept ones.

    Every block's fresh slots are disjoint from every other block's, and
    earlier-round rows span the same space whether or not they were kept,
    so each round is one small system replicated over servers and
    side-information instances.  beta_0..beta_{r-1} must be a basis (for GRS
    tables it is the Lagrange basis on the last r evaluation points; else
    InternalInvariant).  Then round t keeps the t-subsets meeting {0..r-1}:
    they come first in the canonical order and are independent, so a greedy
    rank pass would keep the same.  Dropped types get their certificates in
    closed form (``_round_skeleton``).  Kept rows go out in (round, type,
    instance) order, a column reading slot s as the term
    (function, perm[s], sign * mask sign[s] mod q).  The kept total must
    land exactly on S * sum_{t<=r} N^-t per server, else InternalInvariant.
    """
    n_servers = layout.n_servers
    f_count = layout.f_count
    q = field.q
    betas = tuple(tuple(b % q for b in row) for row in betas)
    if len(betas) != f_count or any(len(row) != rank for row in betas):
        raise ValueError(f"need {f_count} coefficient rows of length {rank}")
    # rows of length r spanned by r independent rows have rank exactly r, so
    # the full rank is needed only to word the refusal
    coords = _basis_coords(betas, range(rank), field)
    if coords is None:
        got_rank = matrix_rank(betas, field)
        if got_rank != rank:
            raise ValueError(f"coefficient rows have rank {got_rank}, expected {rank}")
        raise InternalInvariant(f"coefficient rows 0..{rank - 1} are not a basis")
    check_size_guard(n_servers, f_count, rank, limits)

    det = _minors(coords, rank, q)
    patterns: list[RoundPattern] = []
    for t in range(1, f_count + 1):
        types, kept, drops = _round_skeleton(f_count, rank, t)
        # a starred row is its exterior row times (-1)^(position of the star)
        sign = [-1 if layout.f_star in tt and tt.index(layout.f_star) % 2 else 1
                for tt in types]
        certs = {p: [(u, lam) for u, minor, s in terms
                     if (lam := -s * sign[p] * sign[u] * det[minor] % q)]
                 for p, terms in drops}
        patterns.append(RoundPattern(types, list(kept), certs))
    if keep_bias % f_count:
        patterns[0] = _biased_singletons(betas, keep_bias, field)

    mask = layout.mask
    perm, signs = mask.perm, mask.signs
    per_server: list[list[Expression]] = []
    for n in range(n_servers):
        exprs: list[Expression] = []
        for t, (rnd, pat) in enumerate(zip(layout.rounds, patterns), start=1):
            grid = rnd.grid[n]
            for cols, keep in zip(rnd.columns, pat.kept):
                if not keep:
                    continue
                for g in grid:
                    exprs.append(Expression(tuple([
                        (u, perm[s := offset + g[side]], sign * signs[s] % q)
                        for u, offset, sign, side in cols]), t))
        per_server.append(exprs)
    dropped = [rnd.instances * pat.kept.count(False)
               for rnd, pat in zip(layout.rounds, patterns)]

    expected = sum(n_servers ** (f_count - t) for t in range(1, rank + 1))
    for n in range(n_servers):
        if len(per_server[n]) != expected:
            raise InternalInvariant(
                f"server {n} keeps {len(per_server[n])} rows, formula says {expected}")

    return PcPlan(n_servers, f_count, rank, layout.f_star, mask, betas, layout,
                  patterns, per_server, [list(dropped) for _ in range(n_servers)], expected)


def pc_answer(expressions: Sequence[Expression], y_streams, field: PrimeField) -> list[int]:
    """Evaluate each expression against the function symbol streams.

    ``y_streams`` is indexable as y[function][symbol]; any function the plan
    mentions must be present and every stream must cover the symbol range.
    """
    q = field.q
    f_count = len(y_streams)
    out = []
    for expr in expressions:
        acc = 0
        for g, sym, coeff in expr.terms:
            if not (0 <= g < f_count):
                raise BadIndex(f"function {g} out of range")
            stream = y_streams[g]
            if not (0 <= sym < len(stream)):
                raise BadIndex(f"symbol {sym} out of range for function {g}")
            acc += coeff * int(stream[sym])
        out.append(acc % q)
    return out


def pc_decode(plan: PcPlan, answers: Sequence[Sequence[int]], field: PrimeField) -> list[int]:
    """Recover every raw symbol of the starred function from the answers.

    Walks the layout round by round, keeping V[type][n, j], the value of
    row (type, j)'s own columns on server n, over (server, instance) in
    order.  Kept rows take the answers in (type, instance) order, every
    server the same count; a starred one adds back its side sum, the
    round-(t-1) V[T - f_star] without server n's instances.  Dropped rows
    are combined per (server, instance) from the round's certificate.  A
    starred row then pins one raw symbol: its starred column's slot s gives
    raw[perm[s]] = mask sign[s] * V.
    """
    q = field.q
    n_servers = plan.n_servers
    if len(answers) != n_servers:
        raise Undecodable(f"expected answers from {n_servers} servers, got {len(answers)}")
    for n in range(n_servers):
        if len(answers[n]) != len(plan.per_server[n]):
            raise Undecodable(
                f"server {n} sent {len(answers[n])} symbols, plan has {len(plan.per_server[n])}")
    perm, signs = plan.mask.perm, plan.mask.signs
    raw = [-1] * plan.s
    at = 0  # first answer of the type, the same on every server
    values: list[list[int]] = []  # previous round's V[type], over (server, instance)
    prev_m = 0
    for rnd, pat in zip(plan.layout.rounds, plan.patterns):
        m = rnd.instances
        here: list[list[int]] = [[]] * len(pat.kept)
        for p, keep in enumerate(pat.kept):
            if keep:
                here[p] = [int(v) % q for got in answers for v in got[at:at + m]]
                at += m
        for p, _, back in rnd.stars:
            if back >= 0 and pat.kept[p]:
                prev = values[back]
                side = [v for n in range(n_servers)
                        for v in prev[:n * prev_m] + prev[(n + 1) * prev_m:]]
                here[p] = [(v + w) % q for v, w in zip(here[p], side)]
        for p, cert in pat.certificates.items():
            lams = [lam for _, lam in cert]
            # a zero row has an empty certificate
            here[p] = [sum(map(mul, lams, col)) % q for col in
                       zip(*[here[u] for u, _ in cert])] or [0] * (n_servers * m)
        own = [own for grid in rnd.grid for own, _ in grid]
        for p, offset, _ in rnd.stars:
            for g, v in zip(own, here[p]):
                raw[perm[offset + g]] = signs[offset + g] * v % q
        values, prev_m = here, m
    if -1 in raw:
        raise Undecodable("some raw symbols were never pinned")
    return raw
