"""Per-server download plans over the virtual functions.

Given F virtual functions of rank r over the super-messages, each function
having S = N^F symbols, the plan queries sums of masked symbols in F rounds:
round t asks signed t-wise sums, pairing one fresh starred symbol with a
(t-1)-wise sum already downloaded from another server, plus fresh sums that
avoid the starred function entirely.  Rank deficiency of the function table
makes part of that structure redundant, in a fixed pattern (Sun and Jafar,
"The Capacity of Private Computation"): round t keeps the t-subsets of
functions that meet the first r, and each dropped row is a combination of
kept ones read off in closed form from the coordinates of the coefficient
rows over the first r.  That brings the per-server download to exactly
S * (1/N + ... + 1/N^r) symbols.

Index conventions: functions and symbols are 0-based here.  A "slot" is a
masked symbol index; the mask maps it to the raw position all functions share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
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


# Peak bytes per pre-elimination row of one server's plan (its cells and
# kept expression included) and per certificate term: a non-negative
# least-squares fit to tracemalloc peaks of build_query, 64-bit CPython 3.11.
_ROW_BYTES, _CERT_TERM_BYTES = 1030, 190


def plan_bytes(n_servers: int, f_count: int, rank: int) -> int:
    """Predicted peak memory of one query build, from closed-form counts:
    C(F, t) (N-1)^(t-1) rows per server in round t, and at most
    C(t + r, r) - 1 certificate terms per dropped type of size t."""
    rows = sum(comb(f_count, t) * (n_servers - 1) ** (t - 1)
               for t in range(1, f_count + 1))
    cert_terms = sum(comb(f_count - rank, t) * (comb(t + rank, rank) - 1)
                     for t in range(1, f_count - rank + 1))
    return n_servers * rows * _ROW_BYTES + cert_terms * _CERT_TERM_BYTES


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


@dataclass(eq=False, slots=True)
class PlanRow:
    """Internal pre-elimination row.

    ``cells`` are this row's fresh contributions: (function, slot, sign).
    Starred rows additionally subtract ``side`` (a previous-round row fetched
    from another server); their transmitted form is cells - side.cells.
    """

    server: int
    t: int
    type: tuple[int, ...]
    instance: int
    starred: bool
    cells: tuple[tuple[int, int, int], ...]
    side: "PlanRow | None" = None
    kept: bool = False
    expr_index: int = -1


@dataclass
class PlanRound:
    server: int
    t: int
    rows: list[PlanRow]
    by_type: list[list[PlanRow]]  # [type position][instance]


@dataclass
class BlockStructure:
    """Full pre-elimination plan for all servers."""

    n_servers: int
    f_count: int
    f_star: int
    mask: SymbolMask
    rounds: list[list[PlanRound]]  # [server][t-1]

    @property
    def s(self) -> int:
        return self.mask.s


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
    blocks: BlockStructure
    patterns: list[RoundPattern]
    per_server: list[list[Expression]]
    drop_counts: list[list[int]]
    kept_per_server: int

    @property
    def s(self) -> int:
        return self.mask.s


def generate_full_blocks(n_servers: int, f_count: int, f_star: int, mask: SymbolMask,
                         limits: GuardLimits = DEFAULT_LIMITS) -> BlockStructure:
    """Build the symmetric pre-elimination structure for all servers.

    The construction is deterministic given (N, F, f_star); randomness enters
    only through the mask.

    Round 1 gives each server one fresh slot carrying a singleton of every
    function.  Round t >= 2 gives server n one fresh slot per off-star
    (t-1)-sum downloaded at the other servers in round t-1; that slot's
    starred sum pairs a fresh starred symbol against the downloaded sum, and
    the fresh off-star t-sums are spread over the same slots so that the sum
    avoiding function u reuses, for each member, the slot associated with the
    rest of its members.  Every slot is consumed by exactly one block, and
    every slot carries exactly one starred cell.
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
    all_types = {t: list(combinations(range(f_count), t)) for t in range(1, f_count + 1)}
    rounds: list[list[PlanRound]] = [[] for _ in range(n_servers)]
    # off-star rows of the previous round, per server, keyed by type
    ext_prev: list[dict[tuple[int, ...], list[PlanRow]]] = [{} for _ in range(n_servers)]
    slot_counter = 0

    for t in range(1, f_count + 1):
        ext_here: list[dict[tuple[int, ...], list[PlanRow]]] = [{} for _ in range(n_servers)]
        for n in range(n_servers):
            rows_by_type: dict[tuple[int, ...], list[PlanRow]] = {}
            if t == 1:
                slot = slot_counter
                slot_counter += 1
                for g in range(f_count):
                    row = PlanRow(n, 1, (g,), 0, g == f_star, ((g, slot, 1),))
                    rows_by_type[(g,)] = [row]
                    if g != f_star:
                        ext_here[n].setdefault((g,), []).append(row)
            else:
                # fresh slots, one per side-information instance, keyed by the
                # off-star (t-1)-subset it serves
                slots_by_sub: dict[tuple[int, ...], list[int]] = {}
                for sub in combinations(others, t - 1):
                    slots = []
                    star_type = tuple(sorted(sub + (f_star,)))
                    inst_rows = []
                    for src in range(n_servers):
                        if src == n:
                            continue
                        inst_rows.extend(ext_prev[src].get(sub, ()))
                    for j, side_row in enumerate(inst_rows):
                        slot = slot_counter
                        slot_counter += 1
                        slots.append(slot)
                        inst = PlanRow(n, t, star_type, j, True,
                                       ((f_star, slot, 1),), side=side_row)
                        rows_by_type.setdefault(star_type, []).append(inst)
                    slots_by_sub[sub] = slots
                n_inst = (n_servers - 1) ** (t - 1)
                for sub, slots in slots_by_sub.items():
                    if len(slots) != n_inst:
                        raise InternalInvariant(
                            f"round {t} expected {n_inst} side instances for {sub}, got {len(slots)}")
                for full in combinations(others, t):
                    for j in range(n_inst):
                        cells = []
                        for pos, u in enumerate(full):
                            rest = tuple(g for g in full if g != u)
                            sign = 1 if pos % 2 == 0 else -1
                            cells.append((u, slots_by_sub[rest][j], sign))
                        row = PlanRow(n, t, full, j, False, tuple(cells))
                        rows_by_type.setdefault(full, []).append(row)
                        ext_here[n].setdefault(full, []).append(row)
            ordered_types = [tt for tt in all_types[t] if tt in rows_by_type]
            rows: list[PlanRow] = []
            by_type: list[list[PlanRow]] = []
            for tt in ordered_types:
                by_type.append(rows_by_type[tt])
                rows.extend(rows_by_type[tt])
            rounds[n].append(PlanRound(n, t, rows, by_type))
        ext_prev = ext_here

    if slot_counter != s_total:
        raise InternalInvariant(f"allocated {slot_counter} slots for {s_total} symbols")
    return BlockStructure(n_servers, f_count, f_star, mask, rounds)


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


def eliminate_redundancy(blocks: BlockStructure, betas: Sequence[Sequence[int]],
                         rank: int, field: PrimeField,
                         limits: GuardLimits = DEFAULT_LIMITS,
                         keep_bias: int = 0) -> PcPlan:
    """Drop the redundant rows in closed form; builds the final plan.

    Every block's fresh slots are disjoint from every other block's, and
    earlier-round rows span the same space whether or not they were kept,
    so each round is one small system replicated over servers and
    side-information instances.  beta_0..beta_{r-1} must be a basis (for GRS
    tables it is the Lagrange basis on the last r evaluation points; else
    InternalInvariant).  Then round t keeps the t-subsets meeting {0..r-1}:
    they come first in the canonical order and are independent, so a greedy
    rank pass would keep the same.  Dropped types get their certificates in
    closed form (``_round_skeleton``).  The kept total must land exactly on
    S * sum_{t<=r} N^-t per server, anything else raises InternalInvariant.
    """
    n_servers = blocks.n_servers
    f_count = blocks.f_count
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
        sign = [-1 if blocks.f_star in tt and tt.index(blocks.f_star) % 2 else 1
                for tt in types]
        certs = {p: [(u, lam) for u, minor, s in terms
                     if (lam := -s * sign[p] * sign[u] * det[minor] % q)]
                 for p, terms in drops}
        patterns.append(RoundPattern(types, list(kept), certs))
    if keep_bias % f_count:
        patterns[0] = _biased_singletons(betas, keep_bias, field)

    mask = blocks.mask
    per_server: list[list[Expression]] = []
    drop_counts: list[list[int]] = []
    for n in range(n_servers):
        exprs: list[Expression] = []
        drops: list[int] = []
        for t in range(1, f_count + 1):
            pat = patterns[t - 1]
            block = blocks.rounds[n][t - 1]
            dropped_here = 0
            kept_by_type = {tt: pat.kept[i] for i, tt in enumerate(pat.types)}
            for row in block.rows:
                if kept_by_type[row.type]:
                    row.kept = True
                    row.expr_index = len(exprs)
                    exprs.append(_transmit(row, mask, q))
                else:
                    # reset explicitly: block structures may be reused across
                    # elimination passes with different tables
                    row.kept = False
                    row.expr_index = -1
                    dropped_here += 1
            drops.append(dropped_here)
        per_server.append(exprs)
        drop_counts.append(drops)

    expected = sum(n_servers ** (f_count - t) for t in range(1, rank + 1))
    for n in range(n_servers):
        if len(per_server[n]) != expected:
            raise InternalInvariant(
                f"server {n} keeps {len(per_server[n])} rows, formula says {expected}")
    if drop_counts.count(drop_counts[0]) != n_servers:
        raise InternalInvariant("asymmetric drop counts across servers")

    return PcPlan(n_servers, f_count, rank, blocks.f_star, mask, betas, blocks,
                  patterns, per_server, drop_counts, expected)


def _transmit(row: PlanRow, mask: SymbolMask, q: int) -> Expression:
    terms = []
    for g, slot, sign in row.cells:
        terms.append((g, mask.perm[slot], (sign * mask.signs[slot]) % q))
    if row.side is not None:
        for g, slot, sign in row.side.cells:
            terms.append((g, mask.perm[slot], (-sign * mask.signs[slot]) % q))
    terms.sort()
    return Expression(tuple(terms), row.t)


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

    Walks rounds in order: kept rows take their downloaded value (starred
    rows add back the side sum fetched elsewhere), dropped rows are
    reconstructed per instance from the round's certificate, and each slot's
    starred cell then yields one raw symbol through the mask.
    """
    q = field.q
    mask = plan.mask
    n_servers = plan.n_servers
    if len(answers) != n_servers:
        raise Undecodable(f"expected answers from {n_servers} servers, got {len(answers)}")
    for n in range(n_servers):
        if len(answers[n]) != len(plan.per_server[n]):
            raise Undecodable(
                f"server {n} sent {len(answers[n])} symbols, plan has {len(plan.per_server[n])}")
    reduced: dict[int, int] = {}  # id(PlanRow) -> value of the row's fresh cells
    raw = [-1] * plan.s
    for t in range(1, plan.f_count + 1):
        pat = plan.patterns[t - 1]
        pos_of = {tt: i for i, tt in enumerate(pat.types)}
        for n in range(n_servers):
            block = plan.blocks.rounds[n][t - 1]
            for row in block.rows:
                if not row.kept:
                    continue
                v = int(answers[n][row.expr_index]) % q
                if row.side is not None:
                    v = (v + reduced[id(row.side)]) % q
                reduced[id(row)] = v
            insts_of = {insts[0].type: insts for insts in block.by_type if insts}
            for tt, insts in insts_of.items():
                p = pos_of[tt]
                if pat.kept[p]:
                    continue
                cert = pat.certificates[p]
                for j, row in enumerate(insts):
                    acc = 0
                    for kept_pos, lam in cert:
                        acc += lam * reduced[id(insts_of[pat.types[kept_pos]][j])]
                    reduced[id(row)] = acc % q
            for row in block.rows:
                if row.starred:
                    g, slot, _sign = row.cells[0]
                    val = reduced.get(id(row))
                    if val is None:
                        raise Undecodable(f"no value for slot {slot}")
                    sgn = mask.signs[slot]
                    raw_index = mask.perm[slot]
                    raw[raw_index] = (sgn * val) % q
    if any(v < 0 for v in raw):
        raise Undecodable("some raw symbols were never pinned")
    return raw
