"""Exact arithmetic over prime fields GF(q).

Everything downstream (query construction, plan algebra, decoding) works with
canonical integer representatives in [0, q).  ``PrimeField`` carries the fast
int-to-int operations used in hot paths.  Polynomials are dense, coefficients
stored lowest degree first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_MODULUS = 1 << 31


class NotPrime(ValueError):
    """Modulus is composite, too small, or out of the supported range."""


class DivisionByZero(ZeroDivisionError):
    """Inversion or division by the zero element."""


def _is_prime(n: int) -> bool:
    # Trial division; moduli are < 2^31 so the sqrt bound is at most ~46341.
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


class PrimeField:
    """GF(q) for a prime q < 2^31.

    All methods take and return canonical ints in [0, q).  Inputs are reduced
    mod q on the way in, so callers may pass any int.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2 or q >= MAX_MODULUS:
            raise NotPrime(f"modulus must be a prime in [2, 2^31), got {q!r}")
        if not _is_prime(q):
            raise NotPrime(f"{q} is not prime")
        self.q = q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.q})")
        return pow(a, -1, self.q)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.q)
        return pow(a % self.q, e, self.q)

    def elements(self) -> Iterable[int]:
        return range(self.q)

    def rand_nonzero(self, rng) -> int:
        return rng.randrange(1, self.q)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


def field_new(q: int) -> PrimeField:
    """Build GF(q), rejecting non-prime moduli."""
    return PrimeField(q)


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over a prime field, coefficients lowest degree first.

    The zero polynomial is the empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    coeffs: tuple[int, ...]
    field: PrimeField

    @staticmethod
    def make(coeffs: Sequence[int], field: PrimeField) -> "Poly":
        cs = [c % field.q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs), field)

    @staticmethod
    def one(field: PrimeField) -> "Poly":
        return Poly((1,), field)

    @staticmethod
    def from_roots(roots: Sequence[int], field: PrimeField) -> "Poly":
        """Monic polynomial whose roots are exactly the given elements."""
        coeffs = [1]
        for root in roots:
            r = root % field.q
            # multiply by (x - r)
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = (nxt[i + 1] + c) % field.q
                nxt[i] = (nxt[i] - c * r) % field.q
            coeffs = nxt
        return Poly(tuple(coeffs), field)

    @property
    def degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return len(self.coeffs) - 1

    def eval(self, x: int) -> int:
        q = self.field.q
        x %= q
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % q
        return acc

    def scale(self, c: int) -> "Poly":
        return Poly.make([c * a for a in self.coeffs], self.field)

    def padded(self, length: int) -> tuple[int, ...]:
        if len(self.coeffs) > length:
            raise ValueError(f"polynomial of degree {self.degree} does not fit in {length} coefficients")
        return self.coeffs + (0,) * (length - len(self.coeffs))


def gaussian_solve(rows: Sequence[Sequence[int]], targets: Sequence[Sequence[int]],
                   field: PrimeField) -> tuple[int, list[list[int] | None]]:
    """Row-reduce ``rows`` over GF(q); return their rank and, per target, a
    combination c with sum_i c[i] * rows[i] == target exactly, or None for a
    target outside the row span.  Pure-int reference implementation; fine
    for the small systems this toolkit solves.
    """
    q = field.q
    n_rows = len(rows)
    width = len(rows[0]) if n_rows else (len(targets[0]) if targets else 0)
    # basis entries: (pivot_col, reduced_row, combo_over_original_rows)
    basis: list[tuple[int, list[int], list[int]]] = []

    def reduce(vec: list[int], combo: list[int]) -> tuple[list[int], list[int]]:
        for pivot_col, bvec, bcombo in basis:
            c = vec[pivot_col]
            if c:
                for i in range(width):
                    vec[i] = (vec[i] - c * bvec[i]) % q
                for i in range(n_rows):
                    combo[i] = (combo[i] - c * bcombo[i]) % q
        return vec, combo

    for idx, row in enumerate(rows):
        if len(row) != width:
            raise ValueError("ragged row matrix")
        vec = [int(v) % q for v in row]
        combo = [0] * n_rows
        combo[idx] = 1
        vec, combo = reduce(vec, combo)
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            continue
        inv = field.inv(vec[pivot])
        vec = [(v * inv) % q for v in vec]
        combo = [(c * inv) % q for c in combo]
        basis.append((pivot, vec, combo))

    combinations = []
    for target in targets:
        if len(target) != width:
            raise ValueError("target width does not match rows")
        vec = [int(v) % q for v in target]
        combo = [0] * n_rows
        for pivot_col, bvec, bcombo in basis:
            c = vec[pivot_col]
            if c:
                for i in range(width):
                    vec[i] = (vec[i] - c * bvec[i]) % q
                for i in range(n_rows):
                    combo[i] = (combo[i] + c * bcombo[i]) % q
        combinations.append(None if any(vec) else combo)
    return len(basis), combinations


def matrix_rank(rows: Sequence[Sequence[int]], field: PrimeField) -> int:
    return gaussian_solve(rows, [], field)[0]
