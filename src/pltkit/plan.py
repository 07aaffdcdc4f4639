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

A server's query is a ``QueryTerms``: per kept round, one block of
(rows x t) arrays of functions, raw symbols and coefficients.  The layout
holds the same arrays over every row before elimination, is cached per
(N, F, f_star), and a build gathers the kept types from it through the mask.

Functions and symbols are 0-based; the mask maps a slot to the raw position
all functions share.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul
from typing import Sequence

import numpy as np

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


# Peak bytes per layout term (kept or dropped row; its share of the layout
# arrays, the emitted blocks and the mask) and per certificate term: a
# least-squares fit of the relative error to tracemalloc peaks of one cold
# build_query, in a fresh process, at (N, K, D, q) = (3,5,2,13),
# (2,12,11,13) and (2,6,4,31), 64-bit CPython 3.11.  The fit counts the
# layout of the build's own star, built on a cache miss; layouts cached for
# other stars are not part of one build, and hold at most
# _LAYOUT_CACHE_BYTES together.
_TERM_BYTES, _CERT_TERM_BYTES = 35, 174


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
    """A view of one transmitted query row: signed sum of raw function symbols.

    terms are (function, raw symbol, coefficient), sorted by function, all
    functions distinct; ``t`` is the round, equal to the term count.
    """

    terms: tuple[tuple[int, int, int], ...]
    t: int


@dataclass(frozen=True, eq=False)
class QueryTerms:
    """One server's transmitted rows, as blocks of rows with equal term count.

    A block is (funcs, syms, coeffs), integer arrays of shape (rows, t): row
    i sends sum_c coeffs[i, c] * Y_{funcs[i, c]}[syms[i, c]].  Rows run in
    block order; an honest plan has one block per kept round.  ``len`` is
    the row count; indexing, slicing, iteration and equality work on
    ``Expression`` row views, built on each access, and so does hashing.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return sum(len(funcs) for funcs, _, _ in self.blocks)

    def __iter__(self):
        for funcs, syms, coeffs in self.blocks:
            t = funcs.shape[1]
            for row in zip(funcs.tolist(), syms.tolist(), coeffs.tolist()):
                yield Expression(tuple(zip(*row)), t)

    def __getitem__(self, key):
        return list(self)[key]

    def __eq__(self, other):
        return isinstance(other, QueryTerms) and list(self) == list(other)

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True, slots=True, eq=False)
class RoundLayout:
    """Round t of the slot layout, shared by every server.

    Row (type p, instance j) on server n reads, at column c, the slot
    ``slots[n, p, j, c]`` with function ``funcs[p, c]`` and sign
    ``signs[p, c]``; function and sign are the same for every server and
    instance.  The arrays are read-only, since layouts are cached.
    """

    instances: int  # m_t rows per type per server
    funcs: np.ndarray  # (types, t): the type's members, in order
    signs: np.ndarray  # (types, t): +1 or -1
    slots: np.ndarray  # (servers, types, instances, t)
    # per starred type: its position, and the position of T - f_star in
    # round t-1 (-1 in round 1)
    stars: tuple[tuple[int, int], ...]
    # (starred types, servers * instances): the slot of each starred row's
    # f_star column, over (server, instance).  Kept beside slots: gathering
    # it on every pc_decode costs about as much as the rest of a decode at F = 3
    star_slots: np.ndarray


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
    per_server: list[QueryTerms]
    drop_counts: list[list[int]]
    kept_per_server: int

    @property
    def s(self) -> int:
        return self.mask.s


def generate_full_blocks(n_servers: int, f_count: int, f_star: int, mask: SymbolMask,
                         limits: GuardLimits = DEFAULT_LIMITS) -> SlotLayout:
    """The slot layout of every round (module docstring), for all servers.

    Deterministic given (N, F, f_star), so the rounds are cached and shared;
    randomness enters only through the mask.
    """
    if not (0 <= f_star < f_count):
        raise ValueError(f"starred index {f_star} out of range for {f_count} functions")
    if n_servers < 1:
        raise ValueError(f"need at least one server, got {n_servers}")
    check_size_guard(n_servers, f_count, 1, limits)
    s_total = n_servers ** f_count
    if mask.s != s_total:
        raise ValueError(f"mask covers {mask.s} symbols, plan needs {s_total}")
    return SlotLayout(n_servers, f_count, f_star, mask,
                      _cached_layout(n_servers, f_count, f_star))


# Layouts by (N, F, f_star), least recently used first.  Together their slot
# arrays hold at most _LAYOUT_CACHE_BYTES; a larger layout is not kept.
_LAYOUT_CACHE_BYTES = 64 * 1024 * 1024
_layouts: dict[tuple[int, int, int], tuple[RoundLayout, ...]] = {}
_layouts_lock = threading.Lock()


def _cached_layout(n_servers: int, f_count: int, f_star: int) -> tuple[RoundLayout, ...]:
    key = (n_servers, f_count, f_star)
    with _layouts_lock:
        _layouts[key] = rounds = _layouts.pop(key, None) or _layout_rounds(*key)
        while sum(r.slots.nbytes for rs in _layouts.values() for r in rs) > _LAYOUT_CACHE_BYTES:
            del _layouts[next(iter(_layouts))]
    return rounds


def _layout_rounds(n_servers: int, f_count: int, f_star: int) -> tuple[RoundLayout, ...]:
    """Every round's slots, functions and signs, by numpy arithmetic on the
    slot formula (module docstring).

    Types run over the t-subsets in canonical order and columns over a
    type's members in order, so a row's terms come out sorted by function.
    An off-star row's column c drops member c to find its slot.  A starred
    row's column for f_star reads its own slot over T - f_star; its other
    columns are the (T - f_star)-row of round t-1 on server src at instance
    j mod m_{t-1}, signs negated.
    """
    # by the bitmask of a subset: its rank among the subsets of its size
    # that avoid f_star, and its position among all subsets of its size
    idx = np.zeros(1 << f_count, dtype=np.int64)
    pos = np.zeros(1 << f_count, dtype=np.int64)
    others = [g for g in range(f_count) if g != f_star]
    rounds: list[RoundLayout] = []
    base = 0
    for t in range(1, f_count + 1):
        m = (n_servers - 1) ** (t - 1)
        c_t = comb(f_count - 1, t - 1)
        subs = np.array(list(combinations(others, t - 1)), dtype=np.int64).reshape(c_t, t - 1)
        idx[(1 << subs).sum(1)] = np.arange(c_t)
        funcs = np.array(list(combinations(range(f_count), t)), dtype=np.int64)
        bits = (1 << funcs).sum(1)
        col = np.arange(t)
        is_star = funcs == f_star
        starred = np.flatnonzero(is_star.any(1))
        star_col = is_star[starred].argmax(1)
        # column c reads slot(t, n, T - member c, j): right for every column
        # of an off-star row and for the star column of a starred row
        slots = (base + (np.arange(n_servers)[:, None, None, None] * c_t
                         + idx[bits[:, None] - (1 << funcs)][None, :, None, :]) * m
                 + np.arange(m)[None, None, :, None])
        side = col[None, :] != star_col[:, None]
        back_col = col[None, :] - (col[None, :] > star_col[:, None])
        signs = np.where(col % 2, -1, 1)[None, :].repeat(len(funcs), 0)
        signs[starred] = np.where(side, np.where(back_col % 2, 1, -1), 1)
        back = np.full(len(starred), -1)
        if t > 1:
            prev = rounds[-1]
            back = pos[bits[starred] - (1 << f_star)]
            k = np.arange(m) // prev.instances
            src = k + (k >= np.arange(n_servers)[:, None])  # k-th server other than n
            from_prev = prev.slots[src[:, None, :, None], back[None, :, None, None],
                                   (np.arange(m) % prev.instances)[None, None, :, None],
                                   np.where(side, back_col, 0)[None, :, None, :]]
            slots[:, starred] = np.where(side[None, :, None, :], from_prev,
                                         slots[:, starred])
        pos[bits] = np.arange(len(funcs))
        star_slots = slots[:, starred, :, star_col].reshape(len(starred), -1)
        for arr in (funcs, signs, slots, star_slots):
            arr.flags.writeable = False
        rounds.append(RoundLayout(m, funcs, signs, slots,
                                  tuple(zip(starred.tolist(), back.tolist())), star_slots))
        base += n_servers * c_t * m
    if base != n_servers ** f_count:
        raise InternalInvariant(f"laid out {base} slots for {n_servers ** f_count} symbols")
    return tuple(rounds)


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
    rank, coords = gaussian_solve([betas[g] for g in basis], betas, field)
    return coords if rank == len(basis) else None


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
    instance) order, one block per kept round, a column reading slot s as
    the term (function, perm[s], sign * mask sign[s] mod q).  The kept total must
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
    perm, mask_signs = np.array(mask.perm), np.array(mask.signs)
    blocks: list[list[tuple]] = [[] for _ in range(n_servers)]
    for rnd, pat in zip(layout.rounds, patterns):
        keep = [p for p, kept in enumerate(pat.kept) if kept]
        if not (keep and rnd.instances):
            continue
        t = rnd.funcs.shape[1]
        slot = rnd.slots.take(keep, 1)
        syms = perm.take(slot).reshape(n_servers, -1, t)
        signs = rnd.signs.take(keep, 0)[:, None]
        coeffs = (signs * mask_signs.take(slot) % q).reshape(n_servers, -1, t)
        funcs = rnd.funcs.take(keep, 0).repeat(rnd.instances, 0)
        for n in range(n_servers):
            blocks[n].append((funcs, syms[n], coeffs[n]))
    per_server = [QueryTerms(tuple(b)) for b in blocks]
    dropped = [rnd.instances * pat.kept.count(False)
               for rnd, pat in zip(layout.rounds, patterns)]

    expected = sum(n_servers ** (f_count - t) for t in range(1, rank + 1))
    for n in range(n_servers):
        if len(per_server[n]) != expected:
            raise InternalInvariant(
                f"server {n} keeps {len(per_server[n])} rows, formula says {expected}")

    return PcPlan(n_servers, f_count, rank, layout.f_star, mask, betas, layout,
                  patterns, per_server, [list(dropped) for _ in range(n_servers)], expected)


def pc_answer(terms: QueryTerms, y_streams, field: PrimeField) -> list[int]:
    """Evaluate every row against the function symbol streams.

    ``y_streams`` is an (F, S) array, or nested sequences of that shape.
    Terms hold non-negative indices, as the plan and the wire decoder make
    them; an index beyond the streams raises ``BadIndex``.
    """
    q = field.q
    y = np.asarray(y_streams, dtype=np.int64)
    sums = []
    for funcs, syms, coeffs in terms.blocks:
        try:
            vals = y[funcs, syms]
        except IndexError as exc:
            raise BadIndex(f"term out of range for {y.shape[0]} streams of "
                           f"{y.shape[1]} symbols: {exc}") from None
        prods = coeffs * vals
        # a row adds t products below q**2; reduce them first where that
        # sum could leave int64
        if funcs.shape[1] * (q - 1) ** 2 >= 2 ** 63:
            prods %= q
        sums.append(np.add.reduce(prods, 1))
    return (np.concatenate(sums) % q).tolist() if sums else []


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
        for p, back in rnd.stars:
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
        for (p, _), slots in zip(rnd.stars, rnd.star_slots.tolist()):
            for s, v in zip(slots, here[p]):
                raw[perm[s]] = signs[s] * v % q
        values, prev_m = here, m
    if -1 in raw:
        raise Undecodable("some raw symbols were never pinned")
    return raw
