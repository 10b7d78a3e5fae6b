"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: a lex
sort key built from the exponents, naive textbook Gaussian elimination
over Fraction, the earlier dense Bareiss elimination with a ``Fraction``
back-substitution, brute-force monomial enumeration over bounded exponent
boxes, graded enumeration that walks up from the least significant
variable and sorts afterwards, beta(i, n) canonicalized by three
eliminations of one system, an iterative-deepening leading-monomial factorization on
``Monomial`` objects, the earlier tuple-of-pairs monomial, point evaluation with a ``Fraction`` for every
power and partial sum, the flow exp(s*D) summed term by term over the
ring extended by its parameter, flow equations built by polynomial
substitution into that flow, polynomial arithmetic and subduction over ``Fraction`` on plain term
dicts, and sl2 invariants searched over every torus weight.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import factorial, gcd

from plinth import linalg
from plinth.derivation import Derivation
from plinth.polyring import (
    Monomial,
    Polynomial,
    VariableSet,
    WeightSystem,
    coefficient_matrix,
)
from plinth.roberts import RobertsAction
from plinth.sagbi import GeneratorSet
from plinth.sl2 import RepSum


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


def beta_system(action: RobertsAction, i: int, n: int):
    """The system that ``RobertsAction._construct_beta`` solves: D = 0 on the
    ascending monomial columns plus one unit row per pinned slice coefficient.
    """
    R = action.ring
    z_index = R.index("z")
    cols = action.weights.monomial_basis(action.beta_degree(i, n))[::-1]
    targets = action._slice_targets(i, n)
    rows = coefficient_matrix([action.D.apply(Polynomial(R, {m: 1})) for m in cols])
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
    particular = linalg.solve(rows, rhs)
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


def oracle_flow_images(D: Derivation, param: str = "s"):
    """(extended ring, variable -> exp(s*D)(variable)) over the extended ring."""
    extended = oracle_extended(D, param)
    s = extended.variable(extended.names[-1])
    return extended, {
        n: oracle_exp_series(D, D.ambient.variable(n), s, extended) for n in D.ambient.names
    }


def oracle_flow_coefficients(D: Derivation) -> dict[str, list[Polynomial]]:
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
        out[name] = [
            Polynomial(D.ambient, groups.get(k, {})) for k in range(max(groups) + 1)
        ]
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
        f = images[name].substitute(subs, extended) - extended.constant(
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


def is_canonical(f: Polynomial) -> bool:
    """No zero term, no float, and no Fraction with denominator 1."""
    return all(
        type(c) is int and c != 0 or type(c) is Fraction and c.denominator != 1
        for c in f._terms.values()
    )


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


def all_weight_invariants(rep: RepSum, D: Derivation, degree_bound: int):
    """``sl2.invariants_up_to_degree`` over every torus weight -span..span,
    the negative ones included."""
    ws = rep.weight_system()
    out = []
    for d in range(1, degree_bound + 1):
        span = d * rep.max_weight
        for w in range(-span, span + 1):
            mons = ws.monomial_basis(rep.piece(d, w))
            if mons:
                out.extend((d, w, f) for f in D.kernel_on_monomials(mons))
    return out
