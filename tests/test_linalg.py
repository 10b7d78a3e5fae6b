import random
import time
from fractions import Fraction
from math import isqrt, prod

import pytest

from plinth import linalg
from plinth.polyring import PolyError, Polynomial, coefficient_matrix
from plinth.roberts import RobertsAction, _degree_box
from util import bareiss_rref, beta_system, naive_nullspace


def random_matrix(rng, nrows, ncols, density=0.6):
    return [
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if rng.random() < density
            else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def test_nullspace_matches_naive_oracle():
    rng = random.Random(42)
    for _ in range(120):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols)
        ours = linalg.nullspace(m, ncols)
        theirs = naive_nullspace(m, ncols)
        assert ours == theirs  # the reduced-echelon basis is canonical


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(43)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, nrows, ncols)
        for vec in linalg.nullspace(m, ncols):
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_rank_rref_consistency():
    rng = random.Random(44)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols)
        r = linalg.rank(m)
        assert r == ncols - len(linalg.nullspace(m, ncols))
        reduced, pivots = linalg.rref(m)
        assert len(pivots) == r
        for k, c in enumerate(pivots):
            assert reduced[k][c] == 1
            for i in range(len(reduced)):
                if i != k:
                    assert reduced[i][c] == 0


def test_solve_round_trip():
    rng = random.Random(45)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols)
        x = [Fraction(rng.randint(-5, 5)) for _ in range(ncols)]
        b = [sum(r[j] * x[j] for j in range(ncols)) for r in m]
        got = linalg.solve(m, b)
        assert got is not None
        check = [sum(r[j] * got[j] for j in range(ncols)) for r in m]
        assert check == b


def test_solve_detects_inconsistency():
    m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert linalg.solve(m, [Fraction(1), Fraction(2)]) is None


def test_in_span_and_same_span():
    v1 = [Fraction(1), Fraction(0), Fraction(2)]
    v2 = [Fraction(0), Fraction(1), Fraction(1)]
    assert linalg.in_span([v1, v2], [Fraction(2), Fraction(3), Fraction(7)])
    assert not linalg.in_span([v1, v2], [Fraction(0), Fraction(0), Fraction(1)])
    assert linalg.same_span([v1, v2], [[a + b for a, b in zip(v1, v2)], v2])
    assert not linalg.same_span([v1], [v2])


def test_det3():
    assert linalg.det3([[3, 3, 0], [3, 0, 3], [0, 3, 3]]) == -54


# -- differential tests against the earlier dense elimination and sympy -----


def _nullspace_from_rref(reduced, pivots, ncols):
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for row, c in zip(reduced, pivots):
                vec[c] = -row[f]
            basis.append(vec)
    return basis


def _all_fractions(vectors):
    return all(type(x) is Fraction for vec in vectors for x in vec)


def assert_matches_bareiss(rows, ncols, rhs=None):
    """rref, rank, nullspace and (given rhs) solve agree with the dense oracle."""
    reduced, pivots = bareiss_rref(rows)
    got = linalg.rref(rows)
    assert got == (reduced, pivots)
    assert _all_fractions(got[0])
    assert linalg.rank(rows) == len(pivots)
    basis = linalg.nullspace(rows, ncols)
    assert basis == _nullspace_from_rref(reduced, pivots, ncols)
    assert _all_fractions(basis)
    if rhs is not None:
        aug_reduced, aug_pivots = bareiss_rref([[*r, b] for r, b in zip(rows, rhs)])
        expected = None
        if ncols not in aug_pivots:
            expected = [Fraction(0)] * ncols
            for row, c in zip(aug_reduced, aug_pivots):
                expected[c] = row[ncols]
        got = linalg.solve(rows, rhs)
        assert got == expected
        assert got is None or _all_fractions([got])
    return reduced, pivots


def test_beta_systems_match_bareiss():
    action = RobertsAction()
    for i in (1, 2, 3):
        for n in range(5):
            rows, rhs = beta_system(action, i, n)
            assert_matches_bareiss(rows, len(rows[0]), rhs)
            assert linalg.solve(rows, rhs) is not None


def test_roberts_kernel_matrices_match_bareiss():
    action = RobertsAction()
    widest = 0
    for degree in _degree_box(4):
        cols = action.weights.monomial_basis(degree)
        images = [action.D.apply(Polynomial(action.ring, {m: 1})) for m in cols]
        assert_matches_bareiss(coefficient_matrix(images), len(cols))
        widest = max(widest, len(cols))
    assert widest >= 10


def _random_entry(rng, kind):
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def random_sparse_systems(seed, count):
    """Seeded sparse systems with zero rows, dependent rows and negative
    content; every third right-hand side is made inconsistent when it can be."""
    rng = random.Random(seed)
    for k in range(count):
        kind = ("int", "fraction", "mixed")[k % 3]
        ncols = rng.randint(1, 60)
        nrows = rng.randint(1, 40)
        density = rng.choice((0.05, 0.1, 0.3))
        rows = [
            [_random_entry(rng, kind) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        rows.append([0] * ncols)
        for _ in range(rng.randint(0, 3)):
            # a dependent row with negative content
            a, b = rng.sample(range(len(rows)), 2)
            s, t = -rng.randint(2, 5), rng.randint(-3, 3)
            rows.append([s * x + s * t * y for x, y in zip(rows[a], rows[b])])
        rng.shuffle(rows)
        x = [_random_entry(rng, kind) for _ in range(ncols)]
        rhs = [sum(r * v for r, v in zip(row, x)) for row in rows]
        if k % 3 == 0:
            rhs[rng.randrange(len(rhs))] += 1
        yield rows, ncols, rhs


def test_random_sparse_systems_match_bareiss():
    inconsistent = deficient = 0
    for rows, ncols, rhs in random_sparse_systems(2024, 60):
        reduced, pivots = assert_matches_bareiss(rows, ncols, rhs)
        inconsistent += linalg.solve(rows, rhs) is None
        deficient += len(pivots) < min(len(rows), ncols)
    assert inconsistent >= 5 and deficient >= 20


def test_empty_matrix():
    assert_matches_bareiss([], 3)
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]
    assert linalg.solve([], []) == []
    assert linalg.in_span([], [0, 0]) and not linalg.in_span([], [0, 1])


def test_random_sparse_systems_match_sympy():
    sympy = pytest.importorskip("sympy")
    for rows, ncols, _ in random_sparse_systems(2025, 24):
        matrix, pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in map(Fraction, row)] for row in rows]
        ).rref()
        expected = [
            [Fraction(int(matrix[k, j].p), int(matrix[k, j].q)) for j in range(ncols)]
            for k in range(len(pivots))
        ]
        assert linalg.rref(rows) == (expected, list(pivots))


def test_elimination_growth_stays_small():
    start = time.perf_counter()
    hilbert = [[Fraction(1, i + j + 1) for j in range(24)] for i in range(24)]
    ones = [Fraction(1)] * 24
    assert linalg.rank(hilbert) == 24
    assert linalg.nullspace(hilbert, 24) == []
    assert linalg.solve(hilbert, [sum(row) for row in hilbert]) == ones
    rng = random.Random(7)
    dense = [[rng.randint(-99, 99) for _ in range(41)] for _ in range(40)]
    (vec,) = linalg.nullspace(dense, 41)
    assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in dense)
    assert linalg.rank(dense) == 40
    assert time.perf_counter() - start < 5.0
    # by Cramer's rule each primitive reduced row divides a vector of 40 x 40
    # minors, so Hadamard's bound caps its entries
    hadamard = prod(isqrt(sum(x * x for x in row)) + 1 for row in dense)
    reduced, _ = linalg._reduce(dense)
    assert max(abs(x) for row in reduced for x in row) <= hadamard


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_non_rational_entries_rejected(bad):
    with pytest.raises(PolyError, match="not rational"):
        linalg.nullspace([[1, bad]], 2)
    with pytest.raises(PolyError, match="not rational"):
        linalg.rank([[bad, 1]])
    with pytest.raises(PolyError, match="not rational"):
        linalg.solve([[1, bad]], [1])
    with pytest.raises(PolyError, match="not rational"):
        linalg.solve([[1, 2]], [bad])
