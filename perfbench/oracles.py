"""Correctness checks computed apart from pltkit.

Each check returns a list of problems; an empty list means the output
passed.  The expected values come from the benchmark's own copy of the
database (a numpy array), closed-form formulas, and public objects the
program hands back, never from the program's own idea of the answer.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

TV_THRESHOLD = 0.05
# the acceptance suite's mutant runs draw this many samples per side
TV_MIN_SAMPLES = 20_000


def capacity(n: int, k: int, d: int) -> Fraction:
    """(1 + 1/N + ... + 1/N^(K-D))^(-1)."""
    return 1 / sum(Fraction(1, n ** t) for t in range(k - d + 1))


def per_server_download(n: int, k: int, d: int, s: int) -> int:
    """S * sum_{t=1..r} N^(-t) symbols, r = K - D + 1."""
    total = sum(Fraction(s, n ** t) for t in range(1, k - d + 2))
    if total.denominator != 1:
        raise ValueError(f"S = {s} is not a multiple of N^r")
    return int(total)


def check_stream(x: np.ndarray, q: int, support, coeffs, recovered) -> list[str]:
    """The recovered stream equals sum_i coeffs[i] * x[support[i]] mod q."""
    want = (np.asarray(coeffs, dtype=np.int64)
            @ x[np.asarray(support) - 1]) % q
    got = np.asarray(recovered, dtype=np.int64)
    if got.shape != want.shape:
        return [f"stream has {got.size} symbols, expected {want.size}"]
    bad = np.nonzero(got != want)[0]
    if bad.size:
        return [f"stream differs at {bad.size} symbols, first at {int(bad[0])}"]
    return []


def check_download(n: int, k: int, d: int, s: int, answers, rate) -> list[str]:
    """Per-server download and the rate both sit exactly at capacity."""
    problems = []
    want = per_server_download(n, k, d, s)
    counts = [len(a) for a in answers]
    if len(counts) != n or any(c != want for c in counts):
        problems.append(f"downloads {counts}, expected {want} from each of {n}")
    measured = Fraction(s, sum(counts)) if sum(counts) else None
    cap = capacity(n, k, d)
    if measured != cap or rate != cap:
        problems.append(f"rate {measured} (transcript {rate}), capacity {cap}")
    return problems


def check_same_bytes(got: str, want: str, what: str) -> list[str]:
    if got.encode() != want.encode():
        return [f"{what} differs from the in-process one"]
    return []


def server_view_shape(expressions) -> tuple:
    """Per round, the expression count and the multiset of function tuples.

    The round of an expression is read as its term count.
    """
    rounds: dict[int, Counter] = {}
    for e in expressions:
        funcs = tuple(term[0] for term in e.terms)
        rounds.setdefault(len(funcs), Counter())[funcs] += 1
    return tuple((t, sum(c.values()), tuple(sorted(c.items())))
                 for t, c in sorted(rounds.items()))


class ShapeOracle:
    """Server 0's view must have one shape for every demand in a run."""

    def __init__(self):
        self.reference = None

    def check(self, shape: tuple) -> list[str]:
        if self.reference is None:
            self.reference = shape
            return []
        if shape != self.reference:
            return ["server 0's per-round shape depends on the demand"]
        return []


def check_tv(tv: float, samples: int, honest: bool) -> list[str]:
    """Honest TV below the threshold at enough samples; a mutant's above."""
    if samples < TV_MIN_SAMPLES:
        return [f"{samples} samples per side, need at least {TV_MIN_SAMPLES}"]
    if honest and not tv < TV_THRESHOLD:
        return [f"honest TV {tv:.4f} is not under {TV_THRESHOLD}"]
    if not honest and not tv > TV_THRESHOLD:
        return [f"mutant TV {tv:.4f} is not over {TV_THRESHOLD}"]
    return []
