"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: a lex
sort key built from the exponents, naive textbook Gaussian elimination
over Fraction, the earlier dense Bareiss elimination with a ``Fraction``
back-substitution, the earlier dense integer Gauss-Jordan sweep on
full-width rows, the earlier Leibniz apply that chains one ``sub_scaled``
per term and variable, brute-force monomial enumeration over bounded exponent
boxes, graded enumeration that walks up from the least significant
variable and sorts afterwards, beta(i, n) canonicalized by three
eliminations of one system, an iterative-deepening leading-monomial factorization on
``Monomial`` objects, the earlier memoized factorization search that tries
every generator and codes each monomial's first factor, SAGBI verification that subducts every tete-a-tete
pair, a shared-generator multiple of a subduction certificate, the earlier
tuple-of-pairs monomial, point evaluation with a ``Fraction`` for every
power and partial sum, the flow exp(s*D) summed term by term over the
ring extended by its parameter, flow equations built by polynomial
substitution into that flow, polynomial arithmetic and subduction over ``Fraction`` on plain term
dicts, sl2 invariants searched over every torus weight, the earlier
summation loops that add one polynomial at a time to a running total, a
dense coefficient-matrix builder, the sl2 raising derivation expanded
symbolically from the substitution X -> X + s Y, the earlier per-summand
sl2 coordinate loops and component classifier, tete-a-tetes grouped
from ``itertools.combinations_with_replacement``, sl2 kernel dimensions
counted by the Cayley-Sylvester formula from a generating function, the
earlier graded walk that goes down to variable 0 with no leaf solve, the
rows of D read back by ``coefficient_matrix`` from one applied polynomial
per monomial (and beta(i, n) built on them), the factorization read
out afresh on every query, the generator multisets within a degree
bound counted by enumerating every vector of multiplicities, the sl2
checks walking every kernel element of weight >= 0, the earlier
cancellation loop of ``subduct`` that builds every step's full generator
product, and the earlier polynomial text parser: a tokenizer and a
recursive descent.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, gcd, lcm

from plinth import linalg, polyring
from plinth.derivation import Derivation, _in_parameter
from plinth.polyring import (
    FIELD_BITS,
    MAX_EXPONENT,
    MONOMIAL_ONE,
    InfiniteGradedPieceError,
    Monomial,
    PolyError,
    Polynomial,
    VariableMismatchError,
    VariableSet,
    WeightSystem,
    _packed,
    coefficient_matrix,
    coefficient_value,
    combination,
)
from plinth.roberts import RobertsAction
from plinth.report import Checker, VerificationReport
from plinth.sagbi import (
    GeneratorSet,
    SubductionCertificate,
    SubductionStep,
    TeteATete,
    subduct,
    tete_a_tete_difference,
    tete_a_tetes,
)
from plinth.separating import Point
from plinth import sl2
from plinth.sl2 import ComponentMembership, RepSum, SigmaAction, sigma_on_V0


def random_poly(
    rng: random.Random,
    ambient: VariableSet,
    max_terms: int = 4,
    max_exp: int = 3,
    coef_range: int = 5,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        pairs = []
        for i in range(len(ambient)):
            if rng.random() < 0.5:
                pairs.append((i, rng.randint(1, max_exp)))
        c = Fraction(rng.randint(-coef_range, coef_range), rng.randint(1, 3))
        if c:
            m = Monomial(pairs)
            terms[m] = terms.get(m, Fraction(0)) + c
    return Polynomial(ambient, {m: c for m, c in terms.items() if c})


def lex_key(ambient: VariableSet, m: Monomial) -> tuple[int, ...]:
    """Exponents listed from the last declared variable down.

    Tuple comparison of these keys is the lex order with the last declared
    variable most significant; it never calls ``Monomial`` comparisons.
    """
    exps = dict(m.pairs)
    return tuple(exps.get(i, 0) for i in reversed(range(len(ambient))))


class PairsMonomial:
    """The earlier tuple-of-pairs monomial, kept as an oracle for the packed
    ``Monomial``: ascending (index, exponent) pairs with no zero exponent,
    lex order by tuple comparison of the reversed pairs, products and
    quotients through dicts, and no exponent limit."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = tuple(sorted((i, e) for i, e in pairs if e != 0))
        assert len({i for i, _ in self.pairs}) == len(self.pairs)

    def __eq__(self, other) -> bool:
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Monomial({self.pairs!r})"

    def __lt__(self, other) -> bool:
        return self.pairs[::-1] < other.pairs[::-1]

    def __gt__(self, other) -> bool:
        return self.pairs[::-1] > other.pairs[::-1]

    def __le__(self, other) -> bool:
        return self.pairs[::-1] <= other.pairs[::-1]

    def __ge__(self, other) -> bool:
        return self.pairs[::-1] >= other.pairs[::-1]

    def degree(self) -> int:
        return sum(e for _, e in self.pairs)

    def exponent(self, index: int) -> int:
        return dict(self.pairs).get(index, 0)

    def __mul__(self, other) -> "PairsMonomial":
        d = dict(self.pairs)
        for i, e in other.pairs:
            d[i] = d.get(i, 0) + e
        return PairsMonomial(d.items())

    def divides(self, other) -> bool:
        om = dict(other.pairs)
        return all(om.get(i, 0) >= e for i, e in self.pairs)

    def divide(self, other) -> "PairsMonomial":
        assert other.divides(self)
        d = dict(self.pairs)
        for i, e in other.pairs:
            d[i] -= e
        return PairsMonomial(d.items())


def naive_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Textbook Gauss-Jordan over Fraction; no pivark tricks, no scaling."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for k, c in enumerate(pivots):
            vec[c] = -m[k][free]
        basis.append(vec)
    return basis


def _scaled_int_row(row) -> list[int]:
    """Clear denominators and strip the content, keeping the sign."""
    fr = [Fraction(x) for x in row]
    lcm = 1
    for x in fr:
        if x:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in fr]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Bareiss fraction-free elimination; returns echelon rows and pivot columns."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        # smallest nonzero |pivot| below the current row
        best = -1
        for i in range(r, len(m)):
            v = m[i][c]
            if v != 0 and (best < 0 or abs(v) < abs(m[best][c])):
                best = i
        if best < 0:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        for i in range(r + 1, len(m)):
            v = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c, ncols):
                row_i[j] = (piv * row_i[j] - v * row_r[j]) // prev
        pivots.append(c)
        prev = piv
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def bareiss_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """``linalg.rref`` by the earlier dense route.

    Each row goes to ``Fraction``s and then to a primitive integer row, a
    forward Bareiss pass gives the echelon form, and the back-substitution
    runs over ``Fraction``.
    """
    ints = [_scaled_int_row(r) for r in rows if any(Fraction(x) for x in r)]
    ech, pivots = _echelon(ints)
    reduced = [[Fraction(x) for x in row] for row in ech]
    for k in range(len(reduced) - 1, -1, -1):
        c = pivots[k]
        piv = reduced[k][c]
        reduced[k] = [x / piv for x in reduced[k]]
        for i in range(k):
            factor = reduced[i][c]
            if factor:
                reduced[i] = [a - factor * b for a, b in zip(reduced[i], reduced[k])]
    return reduced, pivots


def dense_reduce(rows) -> tuple[list[list[int]], list[int]]:
    """``linalg._reduce`` by the earlier dense route: an integer
    Gauss-Jordan sweep (left to right, smallest |pivot|, content cleared
    after every row operation) on full-width lists of ``int``, each reduced
    row signed so that its pivot is positive."""
    m: list[list[int]] = []
    for row in rows:
        vals = [coefficient_value(x) for x in row]
        den = lcm(*(v.denominator for v in vals if type(v) is not int))
        ints = [v.numerator * (den // v.denominator) for v in vals]
        g = gcd(*ints)
        if g:  # a zero row constrains nothing
            m.append([v // g for v in ints] if g > 1 else ints)
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        candidates = [i for i in range(r, len(m)) if m[i][c]]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: abs(m[i][c]))
        m[r], m[best] = m[best], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            v = row[c]
            if v and i != r:
                g = gcd(p, v)
                a, b = p // g, v // g
                new = [a * x - b * y for x, y in zip(row, prow)]
                h = gcd(*new)
                m[i] = [x // h for x in new] if h > 1 else new
        pivots.append(c)
    return [row if row[c] > 0 else [-x for x in row] for row, c in zip(m, pivots)], pivots


def in_span(vectors, target) -> bool:
    """Is the target a linear combination of the given vectors?"""
    return linalg.rank([*vectors, target]) == linalg.rank(vectors)


def brute_monomials(
    weights: list[tuple[int, ...]], degree: tuple[int, ...], indices: list[int]
) -> set[tuple[tuple[int, int], ...]]:
    """All exponent assignments hitting the degree, by full box enumeration."""
    rank = len(degree)
    caps = []
    for i in indices:
        w = weights[i]
        cap = min(
            (degree[j] // w[j] for j in range(rank) if w[j] > 0), default=0
        )
        caps.append(cap)
    found = set()
    for combo in product(*(range(c + 1) for c in caps)):
        total = [0] * rank
        for e, i in zip(combo, indices):
            for j in range(rank):
                total[j] += e * weights[i][j]
        if tuple(total) == tuple(degree):
            found.add(tuple((i, e) for i, e in zip(indices, combo) if e))
    return found


def sorted_walk_monomial_basis(ws: WeightSystem, degree: tuple[int, ...]) -> list[Monomial]:
    """``WeightSystem.monomial_basis`` by the earlier route.

    The walk takes the variables in index order with each exponent rising
    from 0, and the result is sorted descending afterwards.
    """
    indices = list(range(len(ws.ambient)))
    out: list[Monomial] = []
    chosen: list[tuple[int, int]] = []

    def walk(pos: int, remaining: tuple[int, ...]) -> None:
        if pos == len(indices):
            if all(x == 0 for x in remaining):
                out.append(Monomial(chosen))
            return
        w = ws.weights[indices[pos]]
        cap = min(remaining[j] // w[j] for j in range(ws.rank) if w[j] > 0)
        for e in range(cap + 1):
            rem = tuple(remaining[j] - e * w[j] for j in range(ws.rank))
            if any(x < 0 for x in rem):
                break
            if e:
                chosen.append((indices[pos], e))
            walk(pos + 1, rem)
            if e:
                chosen.pop()

    if all(x >= 0 for x in degree):
        walk(0, tuple(degree))
    out.sort(reverse=True)
    return out


def xy_graded_kernel(action: RobertsAction, degree: tuple[int, ...]) -> list[Polynomial]:
    """Basis of one graded piece of ker D in k[x1, x2, x3, y1, y2, y3].

    D maps the z-free polynomials to themselves, so this is the kernel of D
    on the z-free monomials of the given multidegree.
    """
    z = action.ring.index("z")
    mons = [m for m in action.weights.monomial_basis(degree) if not m.exponent(z)]
    return action.D.kernel_on_monomials(mons)


def dense_coefficient_matrix(images, keep=None) -> list[list]:
    """``polyring.coefficient_matrix`` as dense rows: one full-width list per
    occurring monomial (that ``keep`` accepts), descending, with int 0 for
    an absent coefficient."""
    monos = sorted(
        {m for g in images for m in g.monomials() if keep is None or keep(m)}, reverse=True
    )
    return [[g.coefficient(m) for g in images] for m in monos]


def augmented(rows, rhs) -> list[list]:
    """Dense rows with the right-hand side appended, as ``linalg.solve`` takes them."""
    return [[*r, b] for r, b in zip(rows, rhs)]


def beta_system(action: RobertsAction, i: int, n: int):
    """beta(i, n)'s system with every monomial unknown: D = 0 on the
    ascending monomial columns plus one unit row per pinned slice coefficient.
    """
    R = action.ring
    z_index = R.index("z")
    cols = action.weights.monomial_basis(action.beta_degree(i, n))[::-1]
    targets = action._slice_targets(i, n)
    rows = dense_coefficient_matrix([action.D.apply(Polynomial(R, {m: 1})) for m in cols])
    rhs = [0] * len(rows)
    for c, m in enumerate(cols):
        t = m.exponent(z_index)
        if t in targets:
            rows.append([1 if k == c else 0 for k in range(len(cols))])
            rhs.append(targets[t].coefficient(m.divide(Monomial([(z_index, t)]))))
    return rows, rhs


def three_elimination_beta(action: RobertsAction, i: int, n: int) -> Polynomial:
    """beta(i, n) canonicalized by three eliminations of one system.

    The system is D = 0 plus the pinned slices as unit rows, on descending
    columns.  ``linalg.solve`` gives a particular solution, ``nullspace``
    the homogeneous solutions, and the particular solution is reduced by
    the RREF of those, so it vanishes on their leading monomials.
    """
    R = action.ring
    z_index = R.index("z")
    cols = sorted(action.weights.monomial_basis(action.beta_degree(i, n)), reverse=True)
    targets = action._slice_targets(i, n)
    images = [action.D.apply(Polynomial(R, {m: Fraction(1)})) for m in cols]
    image_monos = sorted({m for g in images for m in g.monomials()}, reverse=True)
    rows = [[g.coefficient(rm) for g in images] for rm in image_monos]
    rhs = [Fraction(0)] * len(rows)
    for c, m in enumerate(cols):
        t = m.exponent(z_index)
        if t in targets:
            rows.append([Fraction(1 if k == c else 0) for k in range(len(cols))])
            rhs.append(Fraction(targets[t].coefficient(m.divide(Monomial([(z_index, t)])))))
    particular = linalg.solve(augmented(rows, rhs), len(cols))
    assert particular is not None
    homogeneous = linalg.nullspace(rows, len(cols))
    if homogeneous:
        reduced, pivots = linalg.rref(homogeneous)
        for row, pivot in zip(reduced, pivots):
            factor = particular[pivot]
            if factor:
                particular = [a - factor * b for a, b in zip(particular, row)]
    return Polynomial(R, {m: c for m, c in zip(cols, particular) if c})


def deepening_factorization(G: GeneratorSet, m: Monomial) -> tuple[str, ...] | None:
    """Least factorization of m over the leading monomials of G, or None.

    Depth-first search repeated at depths 1, 2, ... up to the total degree
    of m over the smallest generator degree, so the first hit has the
    fewest factors and, scanning names in sorted order, the
    lexicographically smallest name sequence among those.  Unmemoized.
    """
    if m.is_one():
        return ()
    names = [name for name in G.names if not G.lt[name][0].is_one()]
    if not names:
        return None
    lts = [G.lt[name][0] for name in names]
    degs = [lt.degree() for lt in lts]

    def dfs(rem: Monomial, start: int, depth_left: int) -> tuple[str, ...] | None:
        if rem.is_one():
            return () if depth_left == 0 else None
        if depth_left == 0:
            return None
        rd = rem.degree()
        if rd > depth_left * max(degs[start:]) or rd < depth_left * min(degs[start:]):
            return None
        for k in range(start, len(names)):
            if lts[k].divides(rem):
                sub = dfs(rem.divide(lts[k]), k, depth_left - 1)
                if sub is not None:
                    return (names[k],) + sub
        return None

    for depth in range(1, m.degree() // min(degs) + 1):
        found = dfs(m, 0, depth)
        if found is not None:
            return found
    return None


class FirstIndexSearch:
    """The earlier memoized least-factorization search of ``GeneratorSet``.

    Every generator whose leading monomial divides the remainder is tried,
    whatever its variables, and the memo codes the least factorization of
    each monomial as count * slots + first search index (0 for 1, -1 for
    none), so the answer is read off one entry per factor.
    """

    def __init__(self, G: GeneratorSet):
        self.names = [name for name in G.names if not G.lt[name][0].is_one()]
        self.lts = [int(G.lt[name][0]) for name in self.names]
        self.slots = max(len(self.names), 1)
        self.invalid = G.ambient.invalid_bits
        self.memo: dict[int, int] = {0: 0}

    def factorization(self, m: Monomial) -> tuple[str, ...] | None:
        rem = int(m)
        if self._best(rem) < 0:
            return None
        names = []
        while rem:
            k = self.memo[rem] % self.slots
            names.append(self.names[k])
            rem -= self.lts[k]
        return tuple(names)

    def _best(self, rem: int) -> int:
        memo, slots, lts, n = self.memo, self.slots, self.lts, len(self.lts)
        got = memo.get(rem)
        if got is not None:
            return got
        # frames: [monomial, next index to try, best code]
        stack = [[rem, 0, -1]]
        while stack:
            frame = stack[-1]
            rem, k, best = frame
            while k < n:
                q = rem - lts[k]
                if not q & self.invalid:
                    code = memo.get(q)
                    if code is None:
                        frame[1], frame[2] = k, best
                        stack.append([q, 0, -1])
                        break
                    if code >= 0:
                        code = (code // slots + 1) * slots + k
                        if best < 0 or code < best:
                            best = code
                k += 1
            else:
                memo[rem] = best
                stack.pop()
        return best


def exhaustive_verify_sagbi(
    G: GeneratorSet,
    total_degree_bound: int,
    max_steps: int = 10_000,
    check_id: str = "sagbi",
    anchor: str = "every tete-a-tete difference subducts to remainder zero",
) -> VerificationReport:
    """Subduct every tete-a-tete difference up to the bound; all must reach 0.

    The report records the bound (completeness is only claimed up to it)
    and how many nonzero differences were subducted to zero.
    """
    checker = Checker(
        check_id,
        anchor,
        {"degree_bound": total_degree_bound, "generators": len(G)},
    )
    pairs = tete_a_tetes(G, total_degree_bound)
    checker.note(f"tete-a-tetes up to total degree {total_degree_bound}: {len(pairs)}")
    nonzero = 0
    for tt in pairs:
        diff = tete_a_tete_difference(G, tt)
        if diff.is_zero():
            continue
        cert = subduct(diff, G, max_steps)
        if not cert.ok:
            checker.require(
                False,
                {
                    "left": list(tt.left),
                    "right": list(tt.right),
                    "remainder": str(cert.remainder),
                    "complete": cert.complete,
                },
            )
        else:
            nonzero += 1
    checker.note(f"nonzero differences subducted to zero: {nonzero}")
    return checker.report()


def pair_core(pair: TeteATete) -> tuple[tuple[str, ...], tuple[str, ...], list[str]]:
    """(core left, core right, shared names): the multiset the two sides
    share, each name as often as on both, is removed from each side, so the
    core has no name on both sides."""
    shared = Counter(pair.left) & Counter(pair.right)
    left, right = Counter(pair.left) - shared, Counter(pair.right) - shared
    return (
        tuple(sorted(left.elements())),
        tuple(sorted(right.elements())),
        sorted(shared.elements()),
    )


def common_factor_certificate(
    G: GeneratorSet, pair: TeteATete, core_cert: SubductionCertificate
) -> SubductionCertificate:
    """h times a certificate for the core of ``pair``, h = G^a / lc(G^a) for
    the shared names a: each step gains the factors a and divides its
    coefficient by lc(G^a); input and remainder are multiplied by h."""
    shared = pair_core(pair)[2]
    a = G.product(shared)
    lc = a.leading_term()[1]
    h = a.scale(Fraction(1) / lc)
    steps = [
        SubductionStep(
            Fraction(step.coefficient) / lc,
            tuple(sorted(shared + list(step.factors))),
            step.prefix,
        )
        for step in core_cert.steps
    ]
    return SubductionCertificate(
        h * core_cert.input, steps, h * core_cert.remainder, core_cert.complete
    )


def fraction_evaluate(f: Polynomial, point) -> Fraction:
    """Evaluation with ``Fraction`` arithmetic throughout, term by term."""
    values = [Fraction(point[name]) for name in f.ambient.names]
    total = Fraction(0)
    for m, c in f.terms():
        v = c
        for i, e in m.pairs:
            v *= values[i] ** e
        total += v
    return total


def chained_apply(D: Derivation, f: Polynomial) -> Polynomial:
    """``Derivation.apply`` by the earlier route: one ``sub_scaled`` of the
    image per (term, variable), each copying the running total."""
    x = [Monomial(((i, 1),)) for i in range(len(D.ambient))]
    total = D.ambient.zero()
    for m, c in f.terms():
        for i, e in m.pairs:
            g = D.images[D.ambient.names[i]]
            if not g.is_zero():
                total = total.sub_scaled(-c * e, g, m.divide(x[i]))
    return total


# -- the flow over the extended ring ------------------------------------------
#
# exp(s*D)(f) built term by term over the ring extended by the parameter:
# D^k(f) lifted, scaled by 1/k! (from ``math.factorial``) and multiplied by
# the polynomial s^k.  Nothing here reads the library's stored series.


def oracle_exp_series(
    D: Derivation, f: Polynomial, s: Polynomial, extended: VariableSet
) -> Polynomial:
    """sum_k s^k D^k(f) / k! over ``extended``; s may be a constant."""
    total = extended.zero()
    cur, k, s_power = f, 0, extended.one()
    while not cur.is_zero():
        total = total + cur.lift(extended).scale(Fraction(1, factorial(k))) * s_power
        cur = D.apply(cur)
        k += 1
        s_power = s_power * s
    return total


def oracle_extended(D: Derivation, param: str = "s") -> VariableSet:
    """The ambient of D extended by ``param``, with "_" appended until fresh."""
    while param in D.ambient:
        param += "_"
    return D.ambient.extend((param,))


def oracle_exp_flow(D: Derivation, f: Polynomial, s=None, param: str = "s") -> Polynomial:
    """exp(s*D)(f): symbolic in a fresh parameter, or at a rational s."""
    if s is not None:
        return oracle_exp_series(D, f, D.ambient.constant(s), D.ambient)
    extended = oracle_extended(D, param)
    return oracle_exp_series(D, f, extended.variable(extended.names[-1]), extended)


def exp_flow(D: Derivation, f: Polynomial, s=None, param: str = "s") -> Polynomial:
    """exp(s*D)(f) from the series D stores, not an oracle: the library's
    route that ``oracle_exp_flow`` checks.  With ``s`` None the result is
    symbolic over the ambient extended by a fresh parameter; a rational
    ``s`` gives the numeric flow over the original ambient."""
    D._require_certified()
    if f.ambient != D.ambient:
        raise VariableMismatchError("polynomial over a different variable set")
    series = D._series(f)
    if s is None:
        return _in_parameter(series, D._with_parameter(param))
    s = coefficient_value(s)
    parts = [(s**k, polyring.MONOMIAL_ONE, c) for k, c in enumerate(series)]
    return polyring.combination(D.ambient, parts)


def oracle_flow_images(D: Derivation, param: str = "s"):
    """(extended ring, variable -> exp(s*D)(variable)) over the extended ring."""
    extended = oracle_extended(D, param)
    s = extended.variable(extended.names[-1])
    return extended, {
        n: oracle_exp_series(D, D.ambient.variable(n), s, extended) for n in D.ambient.names
    }


def oracle_flow_coefficients(D: Derivation) -> dict[str, tuple[Polynomial, ...]]:
    """The oracle flow images grouped by the power of the parameter."""
    extended, images = oracle_flow_images(D)
    param = len(extended) - 1
    out = {}
    for name, f in images.items():
        groups: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in f.terms():
            k = m.exponent(param)
            rest = Monomial((i, e) for i, e in m.pairs if i != param)
            groups.setdefault(k, {})[rest] = c
        out[name] = tuple(
            Polynomial(D.ambient, groups.get(k, {})) for k in range(max(groups) + 1)
        )
    return out


def oracle_flow_point(D: Derivation, point, s) -> dict[str, Fraction]:
    """The oracle flow images evaluated at (point, s) with ``fraction_evaluate``."""
    extended, images = oracle_flow_images(D)
    values = {**point, extended.names[-1]: s}
    return {n: fraction_evaluate(images[n], values) for n in D.ambient.names}


def nilpotency_orders(D: Derivation) -> dict[str, int]:
    """Smallest m with D^m(variable) = 0 per variable, by plain iteration
    (D must be locally nilpotent)."""
    orders = {}
    for name in D.ambient.names:
        cur, order = D.ambient.variable(name), 0
        while not cur.is_zero():
            cur, order = D.apply(cur), order + 1
        orders[name] = order
    return orders


def substitute_flow_equations(v, v_prime, D: Derivation) -> list[list[Fraction]]:
    """Coefficients in s of flow_s(v)[name] - v'[name], one list per coordinate.

    The point is substituted as constant polynomials into the oracle's
    symbolic flow (``oracle_flow_images``), leaving the parameter symbolic;
    the difference is read off as a univariate coefficient list with no
    trailing zero.
    """
    extended, images = oracle_flow_images(D)
    param = extended.names[-1]
    subs = {n: extended.constant(Fraction(v[n])) for n in D.ambient.names}
    subs[param] = extended.variable(param)
    equations = []
    for name in D.ambient.names:
        f = images[name].substitute(subs) - extended.constant(
            Fraction(v_prime[name])
        )
        coeffs: dict[int, Fraction] = {}
        for m, c in f.terms():
            assert m.exponent(len(extended) - 1) == m.degree(), "not univariate in s"
            coeffs[m.degree()] = c
        out = [Fraction(0)] * (max(coeffs, default=-1) + 1)
        for e, c in coeffs.items():
            out[e] = c
        equations.append(out)
    return equations


# -- Fraction-only polynomial arithmetic -------------------------------------
#
# Terms are plain dicts {Monomial: Fraction} with no zero value; monomials
# are multiplied through the validating public ``Monomial`` constructor.

Terms = dict[Monomial, Fraction]


def fraction_terms(f: Polynomial) -> Terms:
    return {m: Fraction(c) for m, c in f.terms()}


def monomial_product(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a.pairs)
    for i, e in b.pairs:
        exps[i] = exps.get(i, 0) + e
    return Monomial(exps.items())


def fraction_sub_scaled(f: Terms, c, shift: Monomial, g: Terms) -> Terms:
    """f - c * shift * g."""
    out = dict(f)
    for m, v in g.items():
        m = monomial_product(m, shift)
        s = out.get(m, Fraction(0)) - Fraction(c) * v
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def span_leading_monomials(polys: list[Polynomial]) -> set[Monomial]:
    """Leading monomials of the nonzero elements of the span of ``polys``.

    Gaussian elimination on ``Fraction`` term dicts: each polynomial is
    reduced by the kept ones until its leading monomial is new.
    """
    kept: dict[Monomial, Terms] = {}
    for p in polys:
        cur = fraction_terms(p)
        while cur:
            lm = max(cur)
            if lm not in kept:
                kept[lm] = cur
                break
            cur = fraction_sub_scaled(cur, cur[lm] / kept[lm][lm], Monomial(()), kept[lm])
    return set(kept)


def fraction_add(f: Terms, g: Terms) -> Terms:
    return fraction_sub_scaled(f, -1, Monomial(()), g)


def fraction_sub(f: Terms, g: Terms) -> Terms:
    return fraction_sub_scaled(f, 1, Monomial(()), g)


def fraction_scale(f: Terms, c) -> Terms:
    return {m: Fraction(c) * v for m, v in f.items() if c}


def fraction_mul(f: Terms, g: Terms) -> Terms:
    out: Terms = {}
    for m, c in f.items():
        out = fraction_sub_scaled(out, -c, m, g)
    return out


def is_canonical_value(x) -> bool:
    """Canonical coefficient form: an int exactly when the denominator is 1,
    otherwise a Fraction."""
    return type(x) is int or type(x) is Fraction and x.denominator != 1


def is_canonical(f: Polynomial) -> bool:
    """No zero term, no float, and no Fraction with denominator 1."""
    return all(c != 0 and is_canonical_value(c) for c in f._terms.values())


def fraction_subduct(
    f: Polynomial, G: GeneratorSet, prefixes: tuple[str, ...] = ()
) -> tuple[list[tuple[Fraction, tuple[str, ...], str | None]], Terms]:
    """The steps (coefficient, factors, prefix) and remainder of subducting f.

    Without prefixes this is ``subduct``; with them, ``x_ideal_membership``
    (which stops at the first leading monomial no prefix can cancel).  The
    arithmetic is ``Fraction``-only on term dicts; the generator products
    are built with ``fraction_mul``.  Only the factorization search is the
    library's.
    """
    steps = []
    cur = fraction_terms(f)
    while cur:
        lm = max(cur)
        shift, prefix, names = Monomial(()), None, G.factorization(lm)
        if prefixes:
            names = None
            for p in prefixes:
                var = Monomial(((G.ambient.index(p), 1),))
                if var.divides(lm):
                    names = G.factorization(lm.divide(var))
                    if names is not None:
                        shift, prefix = var, p
                        break
        if names is None:
            break
        product = {Monomial(()): Fraction(1)}
        for name in names:
            product = fraction_mul(product, fraction_terms(G.polys[name]))
        coeff = cur[lm] / product[max(product)]
        steps.append((coeff, names, prefix))
        cur = fraction_sub_scaled(cur, coeff, shift, product)
    return steps, cur


def product_cancel(
    f: Polynomial,
    G: GeneratorSet,
    prefixes: tuple[str, ...] | None = None,
    max_steps: int = 10_000,
) -> SubductionCertificate:
    """``subduct`` (no prefixes) or ``x_ideal_membership`` by the earlier
    cancellation loop: each step multiplies all of its factors, single-term
    generators included, into one ``G.product``."""
    options = [(None, MONOMIAL_ONE)]
    if prefixes is not None:
        options = [(p, Monomial(((G.ambient.index(p), 1),))) for p in prefixes]
    steps: list[SubductionStep] = []
    cur = f
    while not cur.is_zero():
        lm, lc = cur.leading_term()
        for prefix, shift in options:
            if prefix is None:
                names = G.factorization(lm)
            elif shift.divides(lm):
                names = G.factorization(lm.divide(shift))
            else:
                continue
            if names is not None:
                break
        else:
            return SubductionCertificate(f, steps, cur, complete=True, stuck=lm)
        if len(steps) >= max_steps:
            return SubductionCertificate(f, steps, cur, complete=False)
        prod = G.product(names)
        coeff = coefficient_value(Fraction(lc) / prod.leading_term()[1])
        steps.append(SubductionStep(coeff, names, prefix))
        cur = cur.sub_scaled(coeff, prod, shift)
    return SubductionCertificate(f, steps, cur, complete=True)


def all_weight_invariants(rep: RepSum, D: Derivation, degree_bound: int):
    """(degree, weight, element) triples of every piece of torus weight
    -span..span, the negative ones included, each solved afresh."""
    ws = rep.weight_system()
    out = []
    for d in range(1, degree_bound + 1):
        span = d * rep.max_weight
        for w in range(-span, span + 1):
            mons = ws.monomial_basis(rep.piece(d, w))
            if mons:
                out.extend((d, w, f) for f in D.kernel_on_monomials(mons))
    return out


def piece_dimension(rep: RepSum, degree: int, weight: int) -> int:
    """Monomials of one total degree and torus weight, counted with no walk:
    the coefficient of t^degree q^weight in the product of 1 / (1 - t q^w)
    over the coordinate weights w, expanded one coordinate at a time."""
    counts = [{0: 1}] + [{} for _ in range(degree)]  # counts[d][weight]
    for w in rep.weights.values():
        for d in range(1, degree + 1):  # ascending: any power of the coordinate
            row = counts[d]
            for s, c in counts[d - 1].items():
                row[s + w] = row.get(s + w, 0) + c
    return counts[degree].get(weight, 0)


def cayley_sylvester(rep: RepSum, degree: int, weight: int) -> int:
    """dim ker D on the (degree, torus weight) piece, by the Cayley-Sylvester
    count: the raising derivation maps weight w onto weight w + 2 when
    w >= 0 and is injective when w < 0."""
    if weight < 0:
        return 0
    return piece_dimension(rep, degree, weight) - piece_dimension(rep, degree, weight + 2)


def make_point(ambient_names, values) -> Point:
    """A point from rational coordinates; PolyError if one is not rational."""
    if len(ambient_names) != len(values):
        raise PolyError("coordinate count mismatch")
    return {n: Fraction(coefficient_value(v)) for n, v in zip(ambient_names, values)}


def nonpositive_weight_coordinates(rep: RepSum) -> list[str]:
    """Coordinates x_i with 2i <= n: these vanish on the null cone."""
    return [name for name, w in rep.weights.items() if w >= 0]


def nullcone_test(rep: RepSum, v) -> bool:
    """Is v in the null cone (all components of nonpositive weight vanish)?"""
    return all(coefficient_value(v[n]) == 0 for n in nonpositive_weight_coordinates(rep))


def every_piece_invariants(rep: RepSum, D: Derivation, degree_bound: int):
    """The earlier ``sl2.invariants_up_to_degree``: (degree, weight, element)
    triples of every piece of weight 0..span, each solved by ``D``, with no
    size cap."""
    ws = rep.weight_system()
    out = []
    for d in range(1, degree_bound + 1):
        for w in range(d * rep.max_weight + 1):
            out.extend((d, w, f) for f in D.graded_kernel(ws, rep.piece(d, w)))
    return out


def walked_positive_weight_vanishing_check(
    rep: RepSum, degree_bound: int = 3, samples: int = 25, seed: int = 1729
) -> VerificationReport:
    """The earlier ``sl2.positive_weight_vanishing_check``: part (i) restricts
    every positive-weight kernel element of ``every_piece_invariants``."""
    checker = Checker(
        f"sl2.positive_weight.{rep}",
        "positive-weight invariants vanish exactly on the plinth locus",
        {"rep": str(rep), "degree_bound": degree_bound, "samples": samples, "seed": seed},
    )
    D = sl2.build_raising_derivation(rep)
    negative = rep.negative_weight_coordinates()
    positive = 0
    for d, w, f in every_piece_invariants(rep, D, degree_bound):
        if w <= 0:
            continue
        positive += 1
        restricted = f.restrict_to_zero(negative)
        if not restricted.is_zero():
            checker.require(False, {"part": "vanishing", "degree": d, "weight": w,
                                    "invariant": str(f), "restriction": str(restricted)})
    checker.note(f"positive-weight kernel elements checked: {positive}")
    lifted = {}
    for s, space in enumerate(rep.summands):
        rename = {f"x{i}": rep.ambient.variable(name) for i, name in enumerate(space.coordinates)}
        lifted[s] = [f.substitute(rename) for f in sl2.quadratic_invariants(space.n)]
    rng = random.Random(seed)
    if not negative:
        checker.note("no negative-weight coordinates: witness sampling skipped")
        return checker.report()
    witnessed = 0
    for _ in range(samples):
        v = {name: Fraction(rng.randint(-9, 9)) for name in rep.ambient.names}
        bad = rng.choice(negative)
        v[bad] = Fraction(rng.randint(1, 9))
        for s, space in enumerate(rep.summands):
            if bad not in space.coordinates:
                continue
            k = next(i for i, name in enumerate(space.coordinates) if v[name] != 0)
            value = lifted[s][k].evaluate(v)
            witnessed += 1
            checker.require(value != 0, {"part": "witness", "summand": s, "k": k, "value": str(value)})
            break
    checker.note(f"off-plinth witnesses confirmed: {witnessed}")
    return checker.report()


def walked_component_containment_check(
    rep: RepSum, degree_bound: int = 3, samples: int = 200, seed: int = 1729
) -> VerificationReport:
    """The earlier ``sl2.component_containment_check``: every kernel element
    of ``every_piece_invariants`` is evaluated, in full and over Fraction,
    at both points of each sampled pair."""
    checker = Checker(
        f"sl2.components.{rep}",
        "C and C_sigma pairs agree on all invariants up to the degree bound",
        {"rep": str(rep), "degree_bound": degree_bound, "samples": samples, "seed": seed},
    )
    D = sl2.build_raising_derivation(rep)
    invariants = [f for _, _, f in every_piece_invariants(rep, D, degree_bound)]
    checker.note(f"invariants tested: {len(invariants)}")
    rng = random.Random(seed)
    negative = set(rep.negative_weight_coordinates())
    checked = 0
    for trial in range(samples):
        v, vp = (
            {n: Fraction(0) if n in negative else Fraction(rng.randint(-9, 9))
             for n in rep.ambient.names}
            for _ in range(2)
        )
        twist = trial % 2 == 1
        for name in rep.zero_weight_coordinates():
            vp[name] = v[name]
        if twist:
            for space in rep.summands:
                if space.n % 2 == 0 and sigma_on_V0(space.n) is SigmaAction.MINUS_IDENTITY:
                    coord = space.coordinates[space.n // 2]
                    vp[coord] = -v[coord]
        membership = sl2.component_membership(rep, v, vp)
        expected = ComponentMembership.IN_C_SIGMA if twist else ComponentMembership.IN_C
        checker.require(
            membership in (expected, ComponentMembership.BOTH),
            {"part": "construction", "trial": trial, "membership": membership.value},
        )
        for f in invariants:
            checked += 1
            if f.evaluate(v) != f.evaluate(vp):
                checker.require(False, {
                    "part": "agreement", "trial": trial, "invariant": str(f),
                    "v": {n: str(x) for n, x in v.items()},
                    "vp": {n: str(x) for n, x in vp.items()},
                })
                break
    checker.note(f"invariant evaluations compared: {checked}")
    return checker.report()


def extend_by_zero(D: Derivation, extended: VariableSet) -> Derivation:
    """Lift D to a larger variable set, killing the new variables."""
    images = {
        name: D.images[name].lift(extended) if name in D.ambient else extended.zero()
        for name in extended.names
    }
    lifted = Derivation(extended, images)
    if D.witness is not None:
        lifted.certify_locally_nilpotent(max(D.witness.values(), default=1))
    return lifted


def parse_point(ambient_names, text: str) -> Point:
    """Inverse of ``separating.point_text``: comma-separated rationals in
    ambient order.

    PolyError on a field that is empty, not a number or has denominator 0.
    """
    values = []
    for part in text.split(","):
        try:
            values.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise PolyError(f"coordinate is not a rational: {part!r}") from None
    return make_point(ambient_names, values)


# -- the earlier summation loops -----------------------------------------------
#
# Each builds its sum by adding one polynomial at a time to a running total,
# as the library did before every such sum went through
# ``polyring.combination``.


def fraction_combination(parts) -> Terms:
    """sum c * shift * g over the parts (c, shift, g), on ``Fraction`` term
    dicts through ``fraction_sub_scaled`` and the validating ``Monomial``."""
    out: Terms = {}
    for c, shift, g in parts:
        out = fraction_sub_scaled(out, -Fraction(c), shift, fraction_terms(g))
    return out


def looped_combination(ambient: VariableSet, parts) -> Polynomial:
    """sum c * shift * g, one scaled and shifted copy added per part."""
    total = ambient.zero()
    for c, shift, g in parts:
        total = total + g.scale(c) * Polynomial(ambient, {shift: 1})
    return total


def looped_substitute(f: Polynomial, images, target: VariableSet) -> Polynomial:
    """``Polynomial.substitute`` by the earlier route: each term's image
    built as a product of powers and added to the total."""
    total = target.zero()
    for m, c in f.terms():
        piece = target.constant(c)
        for i, e in m.pairs:
            piece = piece * images[f.ambient.names[i]] ** e
        total = total + piece
    return total


def looped_divide_out(f: Polynomial, g: Polynomial) -> Polynomial:
    """``casebook.divide_out`` by the earlier route: the remainder grows by
    one head term at a time."""
    lt_m, lt_c = g.leading_term()
    remainder = f.ambient.zero()
    cur = f
    while not cur.is_zero():
        m, c = cur.leading_term()
        if lt_m.divides(m):
            cur = cur.sub_scaled(Fraction(c) / lt_c, g, m.divide(lt_m))
        else:
            head = Polynomial(f.ambient, {m: c})
            remainder = remainder + head
            cur = cur - head
    return remainder


def looped_replay(cert: SubductionCertificate, G: GeneratorSet) -> Polynomial:
    """``SubductionCertificate.replay`` by the earlier route: each step's
    scaled product, times its prefix variable, added to the remainder."""
    total = cert.remainder
    for step in cert.steps:
        piece = G.product(step.factors).scale(step.coefficient)
        if step.prefix is not None:
            piece = piece * G.ambient.variable(step.prefix)
        total = total + piece
    return total


def looped_z_capped(action: RobertsAction, degree, z_cap: int) -> tuple[Polynomial, ...]:
    """``RobertsAction.graded_invariants_z_capped`` by the earlier route: the
    capped combinations solved on dense rows and summed with ``sum``."""
    full = action.graded_invariants(degree)
    z_index = action.ring.index("z")
    rows = dense_coefficient_matrix(full, lambda m: m.exponent(z_index) > z_cap)
    if not rows:
        return full
    return tuple(
        sum((p.scale(c) for c, p in zip(combo, full) if c), action.ring.zero())
        for combo in naive_nullspace(rows, len(full))
    )


def symbolic_raising_derivation(rep: RepSum) -> Derivation:
    """``sl2.build_raising_derivation`` derived symbolically: X -> X + s Y is
    applied to a general form in a scratch ring, and the s-linear part of
    each flowed coefficient is read off as the image of that coordinate."""
    scratch_names = ("X", "Y", "s") + tuple(f"a{i}" for i in range(rep.max_weight + 1))
    scratch = VariableSet(scratch_names)
    x_idx, y_idx, s_idx = (scratch.index(name) for name in ("X", "Y", "s"))
    images: dict[str, Polynomial] = {}
    for space in rep.summands:
        n = space.n
        X, Y, s = scratch.variable("X"), scratch.variable("Y"), scratch.variable("s")
        flowed = scratch.zero()
        for i in range(n + 1):
            flowed = flowed + scratch.variable(f"a{i}") * (X + s * Y) ** (n - i) * Y**i
        for i in range(n + 1):
            image = rep.ambient.zero()
            target = Monomial(((x_idx, n - i), (y_idx, i), (s_idx, 1)))
            for m, c in flowed.terms():
                # every term carries exactly one a_j, so m = target * a_j
                if m.degree() == target.degree() + 1 and target.divides(m):
                    ((k, _),) = m.divide(target).pairs
                    j = int(scratch.names[k][1:])
                    image = image + rep.ambient.variable(space.coordinates[j]).scale(c)
            images[space.coordinates[i]] = image
    D = Derivation(rep.ambient, images)
    D.certify_locally_nilpotent(bound=rep.max_weight + 2)
    return D


def is_quadric_normal(f: Polynomial) -> bool:
    """True when f is a remainder on division by ``casebook.QUADRIC``: no
    monomial is divisible by its leading monomial xz."""
    xz = Monomial(((f.ambient.index("x"), 1), (f.ambient.index("z"), 1)))
    return not any(xz.divides(m) for m in f.monomials())


# -- the earlier per-summand sl2 loops ------------------------------------------
#
# Each walks the summands V[n] and their coordinates x_i, with the weight
# n - 2i worked out in place, as ``sl2`` did before ``RepSum.weights``.


def looped_weight_coordinates(rep: RepSum, keep) -> list[str]:
    """The coordinates x_i of every summand V[n] with ``keep(n, i)``."""
    out = []
    for space in rep.summands:
        for i, name in enumerate(space.coordinates):
            if keep(space.n, i):
                out.append(name)
    return out


def looped_zero_weight_coordinates(rep: RepSum) -> list[str]:
    return looped_weight_coordinates(rep, lambda n, i: 2 * i == n)


def looped_negative_weight_coordinates(rep: RepSum) -> list[str]:
    return looped_weight_coordinates(rep, lambda n, i: 2 * i < n)


def looped_nonpositive_weight_coordinates(rep: RepSum) -> list[str]:
    return looped_weight_coordinates(rep, lambda n, i: 2 * i <= n)


def looped_component_membership(rep: RepSum, v, vp) -> ComponentMembership:
    """``sl2.component_membership`` summand by summand, for a plinth pair."""
    in_c = in_c_sigma = True
    for space in rep.summands:
        if space.n % 2:
            continue
        name = space.coordinates[space.n // 2]
        a, b = coefficient_value(v[name]), coefficient_value(vp[name])
        in_c = in_c and b == a
        sigma_a = a if sigma_on_V0(space.n) is SigmaAction.TRIVIAL else -a
        in_c_sigma = in_c_sigma and b == sigma_a
    if in_c and in_c_sigma:
        return ComponentMembership.BOTH
    if in_c:
        return ComponentMembership.IN_C
    if in_c_sigma:
        return ComponentMembership.IN_C_SIGMA
    return ComponentMembership.NEITHER


def enumerated_multiset_count(degrees: list[int], bound: int) -> int:
    """``sagbi._multiset_count`` with no cap, by enumeration: every vector
    of multiplicities, item k taken at most bound // degrees[k] times, that
    is not all zero and whose degree sum is within the bound."""
    boxes = [range(bound // d + 1) for d in degrees]
    return sum(
        1
        for counts in product(*boxes)
        if any(counts) and sum(c * d for c, d in zip(counts, degrees)) <= bound
    )


def combinations_tete_a_tetes(G: GeneratorSet, total_degree_bound: int) -> list[TeteATete]:
    """``sagbi.tete_a_tetes`` from ``combinations_with_replacement``: every
    multiset of generators with a nonconstant leading monomial, within the
    degree bound, grouped by its leading-monomial product; each group is
    sorted, and the groups come in descending product order."""
    names = [n for n in G.names if not G.lt[n][0].is_one()]
    groups: dict[Monomial, list[tuple[str, ...]]] = {}
    for size in range(1, total_degree_bound + 1):
        for combo in combinations_with_replacement(names, size):
            lts = [G.lt[n][0] for n in combo]
            if sum(m.degree() for m in lts) > total_degree_bound:
                continue
            product_lt = Monomial(())
            for m in lts:
                product_lt = product_lt * m
            groups.setdefault(product_lt, []).append(combo)
    out = []
    for mono in sorted(groups, reverse=True):
        group = sorted(groups[mono])
        out += [
            TeteATete(group[a], group[b], mono)
            for a in range(len(group))
            for b in range(a + 1, len(group))
        ]
    return out


def ratio_walk_monomial_basis(ws: WeightSystem, degree) -> list[Monomial]:
    """``WeightSystem.monomial_basis`` by the earlier walk, which goes down
    to variable 0: a variable that closes a coordinate gets its exponent
    from that coordinate's remainder, ratio windows prune on entering each
    variable, and no block of bottom variables is solved at once.
    """
    weights, rank = ws.weights, ws.rank
    for w in weights:
        if any(x < 0 for x in w) or not any(w):
            raise InfiniteGradedPieceError("a graded piece can be infinite")
    positive = [[j for j, x in enumerate(w) if x > 0] for w in weights]
    closes: list[list[int]] = [[] for _ in weights]
    unreached = []
    for j in range(rank):
        last = next((i for i, p in enumerate(positive) if j in p), None)
        if last is None:
            unreached.append(j)
        else:
            closes[last].append(j)
    windows: list[tuple] = [()]
    for i in range(1, len(weights)):
        prefix = weights[: i + 1]
        common = [j for j in range(rank) if all(w[j] for w in prefix)]
        level = []
        for j in common:
            for k in range(rank):
                if k == j or k in common and k < j or not any(w[k] for w in prefix):
                    continue
                ratios = [Fraction(w[k], w[j]) for w in prefix]
                lo, hi = min(ratios), max(ratios)
                level.append((j, k, lo.numerator, lo.denominator, hi.numerator, hi.denominator))
        windows.append(tuple(level))
    degree = tuple(int(x) for x in degree)
    if any(degree[j] for j in unreached) or any(x < 0 for x in degree):
        return []
    if max(degree) > MAX_EXPONENT:
        raise PolyError(f"degree {degree} has an entry above the limit 2^31 - 1")
    out: list[Monomial] = []

    def walk(i: int, remaining: tuple[int, ...], packed: int) -> None:
        if i < 0:
            out.append(_packed(packed))
            cap = polyring.MAX_PIECE_MONOMIALS
            if len(out) > cap:
                raise PolyError(f"graded piece {degree}: over {cap} monomials")
            return
        for j, k, lo_num, lo_den, hi_num, hi_den in windows[i]:
            rj, rk = remaining[j], remaining[k]
            if lo_num * rj > lo_den * rk or hi_den * rk > hi_num * rj:
                return
        w = weights[i]
        if closes[i]:
            j, *others = closes[i]
            e, r = divmod(remaining[j], w[j])
            if (
                r
                or any(remaining[k] != e * w[k] for k in others)
                or any(remaining[k] < e * w[k] for k in positive[i])
            ):
                return
            exponents = (e,)
        else:
            cap = min(remaining[j] // w[j] for j in positive[i])
            exponents = range(cap, -1, -1)
        for e in exponents:
            if not e:
                walk(i - 1, remaining, packed)
                continue
            walk(
                i - 1,
                tuple(r - e * x for r, x in zip(remaining, w)),
                packed + (e << FIELD_BITS * i),
            )

    walk(len(weights) - 1, degree, 0)
    return out


def applied_coefficient_rows(D: Derivation, monomials, rhs=None) -> list[dict]:
    """``Derivation.image_rows`` by the earlier route: D applied to one
    ``Polynomial`` per monomial (and to ``rhs``, a term dict, as the last
    column), then the images read back by ``coefficient_matrix``."""
    images = [D.apply(Polynomial._raw(D.ambient, {m: 1})) for m in monomials]
    if rhs is not None:
        images.append(D.apply(Polynomial(D.ambient, rhs)))
    return coefficient_matrix(images)


def readout_factorization(G: GeneratorSet, m: Monomial) -> tuple[str, ...] | None:
    """``GeneratorSet.factorization`` read out afresh on every query: the
    least sorted name sequence spelled from the memoized factor counts."""
    rem, invalid = int(m), G.ambient.invalid_bits
    if rem & invalid:
        return None
    count = G._count(rem)
    if count < 0:
        return None
    names, k = [], 0
    while count:
        q = rem - G._lts[k]
        if not q & invalid:
            got = G._count(q)
            if got == count - 1:
                names.append(G._search_names[k])
                rem, count = q, got
                continue
        k += 1
    return tuple(names)


def applied_beta(action: RobertsAction, i: int, n: int) -> Polynomial:
    """``RobertsAction._construct_beta`` by the earlier route: the columns
    split by ``Monomial.divide`` by their z-power, D applied to one
    ``Polynomial`` per column and to the pinned part, the images read back
    by ``coefficient_matrix``, then one ``linalg.solve``."""
    R = action.ring
    z_index = R.index("z")
    targets = action._slice_targets(i, n)
    pinned, cols = {}, []
    for m in reversed(action.weights.monomial_basis(action.beta_degree(i, n))):
        t = m.exponent(z_index)
        if t in targets:
            pinned[m] = targets[t].coefficient(m.divide(Monomial(((z_index, t),))))
        else:
            cols.append(m)
    rows = coefficient_matrix(
        [action.D.apply(Polynomial._raw(R, {m: 1})) for m in cols]
        + [-action.D.apply(Polynomial(R, pinned))]
    )
    solution = linalg.solve(rows, len(cols))
    assert solution is not None
    return Polynomial(R, {**pinned, **{m: c for m, c in zip(cols, solution) if c}})


_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|\d+|[\^*+/-])")


def descent_parse_polynomial(ambient: VariableSet, text: str) -> Polynomial:
    """``polyring.parse_polynomial`` by the earlier route: the text split
    into tokens first, then parsed by recursive descent over them."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise PolyError(f"bad character at {text[pos:pos+10]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise PolyError("empty polynomial text")
    one = ambient.one()
    parts: list[tuple[Fraction, Monomial, Polynomial]] = []
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def parse_nat() -> int:
        nonlocal pos
        tok = peek()
        if tok is None or not tok.isdigit():
            raise PolyError(f"expected integer near token {pos} in {text!r}")
        pos += 1
        return int(tok)

    def parse_factor() -> tuple[Fraction, Monomial]:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise PolyError(f"unexpected end of input in {text!r}")
        if tok.isdigit():
            pos += 1
            num = int(tok)
            if peek() == "/":
                pos += 1
                den = parse_nat()
                if den == 0:
                    raise PolyError("zero denominator")
                return Fraction(num, den), MONOMIAL_ONE
            return Fraction(num), MONOMIAL_ONE
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            pos += 1
            idx = ambient.index(tok)
            exp = 1
            if peek() == "^":
                pos += 1
                exp = parse_nat()
            return Fraction(1), Monomial(((idx, exp),))
        raise PolyError(f"unexpected token {tok!r} in {text!r}")

    def parse_term(sign: int) -> None:
        nonlocal pos
        coef, m = Fraction(sign), MONOMIAL_ONE
        while True:
            c, e = parse_factor()
            coef *= c
            m *= e
            if peek() == "*":
                pos += 1
                continue
            break
        parts.append((coef, m, one))

    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if tokens[pos] == "-" else 1
        pos += 1
    parse_term(sign)
    while pos < len(tokens):
        tok = tokens[pos]
        if tok not in ("+", "-"):
            raise PolyError(f"expected sign, got {tok!r} in {text!r}")
        pos += 1
        parse_term(-1 if tok == "-" else 1)
    return combination(ambient, parts)
