import random

import pytest

from pltkit.fields import (DivisionByZero, NotPrime, Poly,
                           PrimeField, field_new, gaussian_solve, matrix_rank)


# ------------------------------------------------------------ construction

@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 101, 46337, 2147483647])
def test_field_new_accepts_primes(q):
    assert field_new(q).q == q


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 100, 2**31, 2**31 + 11, "5", 5.0])
def test_field_new_rejects_non_primes(bad):
    with pytest.raises(NotPrime):
        field_new(bad)


def test_elements_are_canonical():
    f = field_new(7)
    assert f.add(5, 5) == 3
    assert f.sub(0, 1) == 6
    assert f.mul(-1, -1) == 1
    assert f.neg(0) == 0
    assert list(f.elements()) == list(range(7))


# ------------------------------------------------------------- field axioms

def test_axioms_exhaustive_gf5():
    f = field_new(5)
    for a in range(5):
        for b in range(5):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(5):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_inverses_exhaustive(q):
    f = field_new(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.div(a, a) == 1


def test_zero_has_no_inverse():
    f = field_new(5)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.div(3, 5)  # 5 = 0 mod 5


def test_pow_matches_repeated_multiplication():
    f = field_new(13)
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(1, 13)
        e = rng.randrange(0, 30)
        acc = 1
        for _ in range(e):
            acc = f.mul(acc, a)
        assert f.pow(a, e) == acc
    assert f.pow(2, -1) == f.inv(2)
    assert f.pow(2, -2) == f.mul(f.inv(2), f.inv(2))


def test_rand_nonzero_never_zero():
    f = field_new(3)
    rng = random.Random(0)
    assert all(f.rand_nonzero(rng) != 0 for _ in range(200))


# ------------------------------------------------------------------ Poly

def test_poly_make_trims_and_zero_degree():
    f = field_new(5)
    p = Poly.make([1, 2, 0, 0], f)
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    z = Poly.make([0, 0], f)
    assert z.coeffs == ()
    assert z.degree == -1
    assert Poly.one(f).coeffs == (1,)


def test_from_roots_is_monic_and_vanishes_exactly_there():
    f = field_new(11)
    rng = random.Random(3)
    for _ in range(30):
        roots = rng.sample(range(11), rng.randrange(0, 5))
        p = Poly.from_roots(roots, f)
        assert p.degree == len(roots)
        assert p.coeffs[-1] == 1  # monic
        for x in range(11):
            assert (p.eval(x) == 0) == (x in roots)


def test_eval_matches_naive_sum():
    f = field_new(13)
    rng = random.Random(5)
    for _ in range(25):
        coeffs = [rng.randrange(13) for _ in range(rng.randrange(1, 6))]
        p = Poly.make(coeffs, f)
        x = rng.randrange(13)
        naive = sum(c * pow(x, i, 13) for i, c in enumerate(coeffs)) % 13
        assert p.eval(x) == naive


def test_scale_and_padded():
    f = field_new(5)
    p = Poly.make([2, 1], f)
    assert p.scale(3).coeffs == (1, 3)
    assert p.scale(0).coeffs == ()
    assert p.padded(4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        p.padded(1)


# -------------------------------------------------------- gaussian solving

def test_gaussian_solve_known_system():
    f = field_new(5)
    rows = [(1, 2, 3), (0, 1, 4)]
    rank, (c, not_in_span) = gaussian_solve(rows, [(1, 3, 2), (0, 0, 1)], f)
    assert rank == 2
    # witness actually reproduces the target
    for j in range(3):
        assert (c[0] * rows[0][j] + c[1] * rows[1][j]) % 5 == (1, 3, 2)[j]
    assert not_in_span is None


def test_gaussian_solve_witnesses_random():
    """Any combination of the rows must be certified, with a working witness."""
    f = field_new(7)
    rng = random.Random(11)
    for _ in range(20):
        n, w = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(7) for _ in range(w)] for _ in range(n)]
        mix = [rng.randrange(7) for _ in range(n)]
        target = [sum(mix[i] * rows[i][j] for i in range(n)) % 7 for j in range(w)]
        _, (combination,) = gaussian_solve(rows, [target], f)
        assert combination is not None
        for j in range(w):
            got = sum(combination[i] * rows[i][j] for i in range(n)) % 7
            assert got == target[j]


def test_gaussian_solve_shape_errors():
    f = field_new(5)
    with pytest.raises(ValueError):
        gaussian_solve([(1, 2), (1, 2, 3)], [], f)
    with pytest.raises(ValueError):
        gaussian_solve([(1, 2)], [(1, 2, 3)], f)


def test_matrix_rank():
    f = field_new(5)
    assert matrix_rank([(1, 0), (0, 1)], f) == 2
    assert matrix_rank([(1, 2), (2, 4)], f) == 1  # second row = 2 * first
    assert matrix_rank([(0, 0)], f) == 0
    assert matrix_rank([], f) == 0
