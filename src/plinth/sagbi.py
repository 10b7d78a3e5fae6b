"""Leading-term subalgebra machinery: subduction and SAGBI verification.

Given named generators of a subalgebra of a polynomial ring, the leading
terms generate a monomial algebra.  Membership of a monomial in that
algebra is decided by one memoized search per generator set: the memo
holds the least factor count of each ``Monomial`` packed integer, the
search from a monomial branches only on the generators whose leading
monomial has the same top variable, and the least factorization is read
off the counts.  Generator products are cached by prefix of their sorted
names, so a new product costs one multiplication.  Subduction repeatedly
cancels the leading term of a polynomial by a product of generators and
leaves a replayable certificate.  A generating set is verified to be a
SAGBI basis (up to a degree bound) by showing that every tete-a-tete
difference has a subduction to zero within a step budget.  One walk on
packed ints groups the generator multisets by leading-monomial product,
and only coprime pairs, with no generator on both sides, are subducted.
Every pair (L, R) is uniquely a coprime core (X, Y) plus the multiset A
the two sides share, with deg A <= bound - deg X, and every such sum is a
pair.  With h = G^A / lc(G^A) the pair's monic difference is h times the
core's, zero exactly when the core's is, and h times each step of the
core's subduction cancels the leading monomial of the pair's running
remainder, so the pair subducts to zero in as many steps.  So the pairs
are counted, not built: C(k, 2) per group of k multisets, and per coprime
pair the number of multisets A.  One walk over the coprime pairs decides
pass and fail alike: a failing report lists exactly the coprime pairs
whose difference does not subduct to zero, and every failing pair is one
of them plus a multiset shared by both sides.

``subduct`` and ``x_ideal_membership`` share one cancellation loop: the
first with the unit prefix, the second with a variable prefix in front of
the generator product, which decides membership in the ideal generated by
chosen variables inside the subalgebra.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence

from .polyring import (
    FIELD_BITS,
    MAX_EXPONENT,
    MONOMIAL_ONE,
    Coefficient,
    Monomial,
    PolyError,
    Polynomial,
    VariableSet,
    _overflow_error,
    _packed,
    coefficient_value,
    combination,
    numeral,
)
from .report import Checker, VerificationReport


class SubductionError(PolyError):
    pass


# Most multisets one ``_groups`` walk visits: over ten times the largest
# walk the CLI allows (23,727 multisets for ``roberts-sagbi --n 12 --bound
# 12``, 0.02 s on a 2 GHz Xeon).  ``_multiset_count`` refuses a walk over
# the cap before it starts, on ints alone: x^e*y^e + z, x^e and y^e with
# e = 10^8 at bound 10^9 are refused in about 0.1 ms there, with no growth
# of peak RSS.  The slowest count tried, 400 distinct degrees 1000 to 1399
# at bound 4000, each step adding about 1, refuses in 0.4 s.
MAX_WALK_MULTISETS = 250_000


class GeneratorSet:
    """Named nonzero generators of a subalgebra, with leading-term caches.

    Three caches only grow: the count memo of ``factorization``, one entry
    per packed monomial, the name tuple it read out for each monomial
    queried, and a prefix tree of generator products read by ``product``.
    """

    def __init__(self, ambient: VariableSet, generators: Iterable[tuple[str, Polynomial]]):
        self.ambient = ambient
        self.names: list[str] = []
        self.polys: dict[str, Polynomial] = {}
        for name, g in generators:
            if name in self.polys:
                raise SubductionError(f"duplicate generator name {name!r}")
            if g.is_zero():
                raise SubductionError(f"generator {name!r} is zero")
            if g.ambient != ambient:
                raise SubductionError(f"generator {name!r} over a different ambient")
            self.names.append(name)
            self.polys[name] = g
        self.names.sort()
        self.lt: dict[str, tuple[Monomial, Coefficient]] = {
            name: self.polys[name].leading_term() for name in self.names
        }
        # search order: skip generators with constant leading term (they can
        # never help cancel a monomial and would not terminate)
        self._search_names = [
            name for name in self.names if not self.lt[name][0].is_one()
        ]
        self._lts = [int(self.lt[name][0]) for name in self._search_names]
        # the distinct leading monomials, grouped by their top variable
        self._by_top: list[list[int]] = [[] for _ in ambient.names]
        for lt in sorted(set(self._lts)):
            self._by_top[_top(lt)].append(lt)
        # least factor count per packed monomial (1 packs as 0), -1 for none
        self._memo: dict[int, int] = {0: 0}
        # the answer of ``factorization`` per packed monomial it factored
        self._factors: dict[int, tuple[str, ...]] = {}
        # prefix tree of products: name -> (product so far, subtree)
        self._prod_cache: dict[str, tuple[Polynomial, dict]] = {}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.polys

    def product(self, names: Sequence[str]) -> Polynomial:
        """Product of generators for a multiset of names (cached).

        The sorted names are a path in the prefix tree: the longest cached
        prefix is looked up, and each further name costs one multiplication
        whose product is cached under its own prefix.
        """
        node, got, built = self._prod_cache, None, 0
        key = sorted(names)
        for name in key:
            entry = node.get(name)
            if entry is None:
                break
            got, node = entry
            built += 1
        for name in key[built:]:
            g = self.polys[name]
            got = g if got is None else got * g
            child: dict = {}
            node[name] = got, child
            node = child
        return self.ambient.one() if got is None else got

    # -- monomial algebra membership ---------------------------------------

    def factorization(self, m: Monomial) -> tuple[str, ...] | None:
        """Multiset of generator names whose leading monomials multiply to m.

        Ties break toward the fewest factors, then the lexicographically
        smallest name sequence, so certificates are deterministic.  The
        answer is read off the least factor counts of ``_count``: each step
        takes the first generator whose leading monomial divides the rest
        and leaves a quotient with one factor fewer.  The chosen indices
        never decrease: if index i is taken for rem, a shortest
        factorization of rem / lt[i] that used j < i would give rem one as
        short containing j, and j would have been taken.  So the scan goes
        on from the last index taken and spells the least sorted sequence.
        A repeated query returns the tuple read out the first time.
        """
        known = self._factors.get(m)
        if known is not None:
            return known
        key = rem = int(m)
        invalid = self.ambient.invalid_bits
        if rem & invalid:  # not a monomial over the ambient
            return None
        count = self._count(rem)
        if count < 0:
            return None
        memo, lts = self._memo, self._lts
        names, k = [], 0
        while count:
            # lts[k] divides rem exactly when q is a monomial
            q = rem - lts[k]
            if not q & invalid:
                got = memo.get(q)
                if got is None:
                    got = self._count(q)
                if got == count - 1:
                    names.append(self._search_names[k])
                    rem, count = q, got
                    continue
            k += 1
        known = self._factors[key] = tuple(names)
        return known

    def _count(self, rem: int) -> int:
        """Least number of factors of monomial ``rem``, memoized per monomial
        (-1 when there is none).

        Only generators whose leading monomial has the same top variable as
        rem are tried: some factor of any factorization of rem != 1
        contains rem's top variable, and no factor contains a variable
        above it.  The search keeps its own stack, so a factorization with
        thousands of factors stays clear of Python's recursion limit.
        """
        memo = self._memo
        got = memo.get(rem)
        if got is not None:
            return got
        by_top, invalid = self._by_top, self.ambient.invalid_bits
        # frames: [monomial, candidate leading monomials, next position,
        # least quotient count so far]
        stack = [[rem, by_top[_top(rem)], 0, -1]]
        while stack:
            frame = stack[-1]
            rem, lts, k, best = frame
            n = len(lts)
            while k < n:
                q = rem - lts[k]
                if not q & invalid:
                    got = memo.get(q)
                    if got is None:
                        # solve the quotient first, then retry position k
                        frame[2], frame[3] = k, best
                        stack.append([q, by_top[_top(q)], 0, -1])
                        break
                    if got >= 0 and (best < 0 or got < best):
                        best = got
                k += 1
            else:
                best = best + 1 if best >= 0 else -1
                memo[rem] = best
                stack.pop()
        return best


def _top(m: int) -> int:
    """Index of the most significant variable of a packed monomial m != 1."""
    return (m.bit_length() - 1) // FIELD_BITS


def monomial_algebra_member(
    m: Monomial, G: GeneratorSet
) -> tuple[str, ...] | None:
    """Factor m over the leading monomials of G, or None."""
    return G.factorization(m)


@dataclass(frozen=True)
class SubductionStep:
    """One cancellation: coefficient * (prefix variable?) * product(factors)."""

    coefficient: Coefficient
    factors: tuple[str, ...]
    prefix: str | None = None


@dataclass
class SubductionCertificate:
    """Replayable record of a subduction run: input = sum(steps) + remainder."""

    input: Polynomial
    steps: list[SubductionStep]
    remainder: Polynomial
    complete: bool = True
    stuck: Monomial | None = None

    @property
    def ok(self) -> bool:
        return self.complete and self.remainder.is_zero()

    def replay(self, G: GeneratorSet) -> Polynomial:
        """Reconstruct the input from the steps and the remainder."""
        parts = [(1, MONOMIAL_ONE, self.remainder)]
        for step in self.steps:
            shift = MONOMIAL_ONE
            if step.prefix is not None:
                shift = Monomial(((G.ambient.index(step.prefix), 1),))
            parts.append((step.coefficient, shift, G.product(step.factors)))
        return combination(G.ambient, parts)

    def to_dict(self) -> dict:
        return {
            "steps": [
                {
                    "coefficient": numeral(s.coefficient),
                    "factors": list(s.factors),
                    "prefix": s.prefix,
                }
                for s in self.steps
            ],
            "remainder": str(self.remainder),
            "complete": self.complete,
        }


def subduct(
    f: Polynomial, G: GeneratorSet, max_steps: int = 10_000
) -> SubductionCertificate:
    """Normal form of f against the subalgebra generated by G.

    Repeatedly cancels the leading term by a scalar multiple of a product
    of generators whose leading terms multiply to it; stops when the
    leading term has no factorization (recorded as ``stuck``) or the
    remainder is zero.  Exceeding the step budget flags the certificate
    incomplete.
    """
    return _cancel(f, G, _UNIT_PREFIX, max_steps)


def x_ideal_membership(
    f: Polynomial,
    G: GeneratorSet,
    prefixes: Sequence[str],
    max_steps: int = 10_000,
) -> SubductionCertificate:
    """Write f as sum of prefix * (generator product) * coefficient.

    Each step cancels the leading term by a prefix variable times a
    generator-product leading term, trying the prefixes in order; no
    prefixed factorization means failure, reported with the stuck monomial.
    """
    at = [(p, G.ambient.index(p)) for p in prefixes]
    return _cancel(f, G, [(p, i, Monomial(((i, 1),))) for p, i in at], max_steps)


# (prefix name, variable index, prefix monomial) of the unit prefix
_UNIT_PREFIX = [(None, -1, MONOMIAL_ONE)]


def _cancel(
    f: Polynomial, G: GeneratorSet, prefixes: Sequence[tuple], max_steps: int
) -> SubductionCertificate:
    """The cancellation loop of ``subduct`` and ``x_ideal_membership``.

    Each step cancels the leading term by coefficient * prefix * product
    of generators, for the first prefix that divides the leading monomial
    and leaves a quotient with a factorization over G.  A factor with one
    term, read from ``G.polys``, is not multiplied into the product: its
    monomial joins the prefix as the step's shift and its coefficient the
    scalar, so the product cache holds products of the other factors only
    and a step of single terms alone multiplies nothing.  The certificate
    still names every factor, and its replay multiplies them all.
    """
    if max_steps < 1:
        raise SubductionError("max_steps must be >= 1")
    steps: list[SubductionStep] = []
    cur = f
    while not cur.is_zero():
        lm, lc = cur.leading_term()
        for prefix, idx, shift in prefixes:
            if prefix is None:
                names = G.factorization(lm)
            elif lm.exponent(idx):
                names = G.factorization(lm.divide(shift))
            else:
                continue
            if names is not None:
                break
        else:
            return SubductionCertificate(f, steps, cur, complete=True, stuck=lm)
        if len(steps) >= max_steps:
            return SubductionCertificate(f, steps, cur, complete=False)
        singles, rest = [], []
        for name in names:
            g = G.polys[name]
            if len(g) > 1:
                rest.append(name)
            else:
                singles.append(g)
        # with no other factor, the last single term stands in for the product
        prod = singles.pop() if singles and not rest else G.product(rest)
        scalar, made = 1, 0
        for g in singles:
            m, c = g.leading_term()
            # plain int sums, each checked: one sum of two monomials cannot
            # carry past a guard bit (a Monomial product per factor took a
            # fifth of the step's time on conductor-sweep)
            shift += m
            made |= shift
            scalar *= c
        if made & G.ambient.invalid_bits:
            raise _overflow_error(G.ambient)
        coeff = coefficient_value(Fraction(lc) / (scalar * prod.leading_term()[1]))
        nxt = cur.sub_scaled(coeff if scalar == 1 else coeff * scalar, prod, shift)
        if not nxt.is_zero() and nxt.leading_monomial() >= lm:
            raise SubductionError("subduction step failed to decrease the leading term")
        steps.append(SubductionStep(coeff, names, prefix))
        cur = nxt
    return SubductionCertificate(f, steps, cur, complete=True)


@dataclass(frozen=True)
class TeteATete:
    """Two distinct generator multisets with equal leading-monomial products."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    product: Monomial


def _groups(G: GeneratorSet, total_degree_bound: int) -> list[tuple[int, int, list]]:
    """The multisets of search generators of total degree 1 to the bound,
    as (packed product of leading monomials, degree, members) per product,
    products descending.  Each member is (linked names, mask with bit k
    for each search generator k in it), in ascending walk order; the names
    are linked as (last name, linked names before it), so a member costs
    the same whatever its length, and ``_names`` reads them out.  The walk
    keeps its own stack, so thousands of factors stay clear of the
    recursion limit.  A walk of more than MAX_WALK_MULTISETS multisets is
    refused with a SubductionError before it starts: ``_multiset_count``
    counts the multisets from the leading degrees alone, on ints."""
    if total_degree_bound < 0:
        raise SubductionError("degree bound must be nonnegative")
    names, lts = G._search_names, G._lts
    factors = [(k, G.lt[n][0].degree(), lts[k], n, 1 << k) for k, n in enumerate(names)]
    cap = MAX_WALK_MULTISETS
    if _multiset_count([deg for _, deg, *_ in factors], total_degree_bound, cap) > cap:
        raise SubductionError(
            f"degree bound {total_degree_bound}: over {cap} generator multisets up to it"
        )
    # the factors a multiset whose largest index is i may take next, last first
    later = [factors[i:][::-1] for i in range(len(names))]
    # an exponent of a product is at most its total degree, at most the
    # bound, so the sums reach no guard bit unless the bound does
    guard = G.ambient.invalid_bits if total_degree_bound > MAX_EXPONENT else 0
    by_product: dict[int, tuple[int, list]] = {}
    # frames: (largest index, names, product, mask, degree left); children
    # are pushed last index first, so they pop in walk order
    stack = [
        (k, (name, ()), lt, bit, total_degree_bound - deg)
        for k, deg, lt, name, bit in reversed(factors)
        if deg <= total_degree_bound
    ]
    while stack:
        last, acc, prod, mask, budget = stack.pop()
        entry = by_product.get(prod)
        if entry is None:
            entry = by_product[prod] = total_degree_bound - budget, []
        entry[1].append((acc, mask))
        for k, deg, lt, name, bit in later[last]:
            if deg <= budget:
                p = prod + lt
                if p & guard:
                    raise _overflow_error(G.ambient)
                stack.append((k, (name, acc), p, mask | bit, budget - deg))
    return [(p, *by_product[p]) for p in sorted(by_product, reverse=True)]


def _multiset_count(degrees: Sequence[int], bound: int, cap: int) -> int:
    """The number of nonempty multisets of items with these degrees, each
    at least 1 and items of equal degree distinct, whose degrees sum to at
    most the bound; once that number passes the cap, some number above it.

    The r items of one degree d give C(j + r - 1, r - 1) multisets of j
    items, and those of the smallest degree, within a budget B, give
    C(B // d + r, r) multisets of any size, the empty one included.  So
    the count walks the multisets of the other degrees, each as a weight
    and the budget it leaves, and adds that closed form for each: every
    addition is at least 1, so the count stops after at most cap + 1 of
    them.  A multiset's children add j items of a smaller degree than any
    it holds; one cursor per multiset on the stack yields them lazily, so
    the stack holds at most one cursor per degree."""
    # (degree, items of that degree), largest first
    levels = sorted(Counter(d for d in degrees if d <= bound).items(), reverse=True)
    if not levels:
        return 0
    low, low_r = levels.pop()
    # bisect_left(negated, -budget, k) is the first level from k that fits
    negated = [-d for d, _ in levels]
    total = comb(bound // low + low_r, low_r) - 1  # the empty multiset
    # cursors: [budget, weight, level of the next child, its item count j]
    stack = [[bound, 1, bisect_left(negated, -bound), 1]]
    while stack and total <= cap:
        cursor = stack[-1]
        budget, weight, k, j = cursor
        if k == len(levels):
            stack.pop()
            continue
        d, r = levels[k]
        if j * d > budget:
            cursor[2], cursor[3] = k + 1, 1
            continue
        cursor[3] = j + 1
        budget, weight = budget - j * d, weight * comb(j + r - 1, r - 1)
        total += weight * comb(budget // low + low_r, low_r)
        stack.append([budget, weight, bisect_left(negated, -budget, k + 1), 1])
    return total


def _names(linked: tuple) -> tuple[str, ...]:
    """The names of a ``_groups`` member, first to last."""
    out = []
    while linked:
        name, linked = linked
        out.append(name)
    return tuple(reversed(out))


def tete_a_tetes(G: GeneratorSet, total_degree_bound: int) -> list[TeteATete]:
    """All pairs of distinct generator multisets, up to the bound, whose
    leading monomials have equal products: the pairs within each group of
    ``_groups``, in the groups' order."""
    pairs = []
    for prod, _, group in _groups(G, total_degree_bound):
        if len(group) > 1:
            mono, sides = _packed(prod), [_names(linked) for linked, _ in group]
            for a, left in enumerate(sides):
                pairs.extend(TeteATete(left, right, mono) for right in sides[a + 1 :])
    return pairs


def tete_a_tete_difference(G: GeneratorSet, tt: TeteATete) -> Polynomial:
    """Monic-normalized difference of the two generator products."""
    left, right = G.product(tt.left), G.product(tt.right)
    return combination(
        G.ambient,
        (
            (Fraction(1, left.leading_term()[1]), MONOMIAL_ONE, left),
            (Fraction(-1, right.leading_term()[1]), MONOMIAL_ONE, right),
        ),
    )


def verify_sagbi(
    G: GeneratorSet,
    total_degree_bound: int,
    max_steps: int = 10_000,
    check_id: str = "sagbi",
    anchor: str = "every tete-a-tete difference subducts to remainder zero",
) -> VerificationReport:
    """Show that every tete-a-tete difference up to the bound subducts to 0.

    Only the coprime pairs are subducted; every other pair is a coprime
    core (X, Y) plus the multiset A common to both sides, each name as
    often as on both, and follows from it (see the module docstring).  So
    there are sum C(k, 2) pairs over the group sizes k of ``_groups``, and
    the nonzero differences number, summed over the coprime pairs whose
    nonzero difference subducts to zero, the multisets A of search
    generators, the empty one included, of degree at most bound - deg X.

    The claim is that each difference has *a* subduction to zero of at
    most ``max_steps`` steps, not that ``subduct`` itself reaches zero on
    it within that budget.  One walk over the coprime pairs, in ascending
    product order, decides pass and fail alike: a failing report lists
    exactly the coprime pairs whose difference does not subduct to zero,
    in that order, and every failing pair is one of them plus a multiset
    shared by both sides.  The report records the bound (completeness is
    only claimed up to it) and how many nonzero differences were
    subducted to zero, derived ones included.
    """
    params = {"degree_bound": total_degree_bound, "generators": len(G)}
    checker = Checker(check_id, anchor, params)
    groups = _groups(G, total_degree_bound)
    pairs = sum(len(group) * (len(group) - 1) // 2 for _, _, group in groups)
    checker.note(f"tete-a-tetes up to total degree {total_degree_bound}: {pairs}")
    # the degree of each nonempty multiset, sorted, so that bisect counts
    # the multisets within a degree
    degrees = sorted(degree for _, degree, group in groups for _ in group)
    nonzero = 0
    for tt, degree in _coprime_pairs(groups):
        diff = tete_a_tete_difference(G, tt)
        if diff.is_zero():
            continue
        cert = subduct(diff, G, max_steps)
        if cert.ok:
            nonzero += 1 + bisect_right(degrees, total_degree_bound - degree)
            continue
        checker.require(
            False,
            {
                "left": list(tt.left),
                "right": list(tt.right),
                "remainder": str(cert.remainder),
                "complete": cert.complete,
            },
        )
    checker.note(f"nonzero differences subducted to zero: {nonzero}")
    return checker.report()


def _coprime_pairs(groups: list[tuple[int, int, list]]) -> Iterator[tuple[TeteATete, int]]:
    """(pair, degree of its product) for each pair of ``_groups`` with no
    generator on both sides, groups in ascending product order."""
    for prod, degree, group in reversed(groups):
        for a, (left, left_mask) in enumerate(group):
            for right, right_mask in group[a + 1 :]:
                if not left_mask & right_mask:
                    yield TeteATete(_names(left), _names(right), _packed(prod)), degree
