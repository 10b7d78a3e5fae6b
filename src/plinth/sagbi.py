"""Leading-term subalgebra machinery: subduction and SAGBI verification.

Given named generators of a subalgebra of a polynomial ring, the leading
terms generate a monomial algebra.  Membership of a monomial in that
algebra is decided by one memoized search per generator set, with one
memo entry per ``Monomial`` packed integer; subduction repeatedly cancels
the leading term of a polynomial by a product of generators and leaves a
replayable certificate.  A generating set is verified to be a SAGBI basis
(up to a degree bound) by subducting every tete-a-tete difference to zero.

``subduct`` and ``x_ideal_membership`` share one cancellation loop: the
first with the unit prefix, the second with a variable prefix in front of
the generator product, which decides membership in the ideal generated by
chosen variables inside the subalgebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .polyring import (
    MONOMIAL_ONE,
    Coefficient,
    Monomial,
    PolyError,
    Polynomial,
    VariableSet,
)
from .report import Checker, VerificationReport


class SubductionError(PolyError):
    pass


class GeneratorSet:
    """Named nonzero generators of a subalgebra, with leading-term caches."""

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
        # one least-factorization code per packed monomial (1 packs as 0)
        self._memo: dict[int, int] = {0: 0}
        self._slots = max(len(self._search_names), 1)
        self._lts = [int(self.lt[name][0]) for name in self._search_names]
        self._prod_cache: dict[tuple[str, ...], Polynomial] = {}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.polys

    def product(self, names: Sequence[str]) -> Polynomial:
        """Product of generators for a multiset of names (cached)."""
        key = tuple(sorted(names))
        got = self._prod_cache.get(key)
        if got is None:
            got = self.ambient.one()
            for name in key:
                got = got * self.polys[name]
            self._prod_cache[key] = got
        return got

    # -- monomial algebra membership ---------------------------------------

    def factorization(self, m: Monomial) -> tuple[str, ...] | None:
        """Multiset of generator names whose leading monomials multiply to m.

        Read off the memo of ``_best``, one lookup per factor; the memo is
        shared by every query on this generator set.  Ties break toward the
        fewest factors, then the lexicographically smallest name sequence,
        so certificates are deterministic.
        """
        rem, slots, memo = int(m), self._slots, self._memo
        if self._best(rem) < 0:
            return None
        names = []
        while rem:
            k = memo[rem] % slots
            names.append(self._search_names[k])
            rem -= self._lts[k]
        return tuple(names)

    def _best(self, rem: int) -> int:
        """Least factorization of monomial ``rem``, memoized per monomial.

        Factorizations are ordered by (factor count, name tuple); names are
        sorted, so within one count the smallest first index decides, and
        the result is coded as count * slots + first index: 0 for the empty
        factorization of 1, -1 when there is none.  No start index is kept:
        if i is the first index for rem, no shortest factorization of
        rem / lt[i] uses an index j < i (with i it would give rem one as
        short containing j), so the entries of rem, rem / lt[i], ... spell
        the least factorization in sorted order.  The search keeps its own
        stack, so a factorization with thousands of factors stays clear of
        Python's recursion limit.
        """
        memo, slots = self._memo, self._slots
        got = memo.get(rem)
        if got is not None:
            return got
        lts, invalid, n = self._lts, self.ambient.invalid_bits, len(self._lts)
        # frames: [monomial, next index to try, best code]
        stack = [[rem, 0, -1]]
        while stack:
            frame = stack[-1]
            rem, k, best = frame
            while k < n:
                # lts[k] divides rem exactly when q is a monomial
                q = rem - lts[k]
                if not q & invalid:
                    code = memo.get(q)
                    if code is None:
                        # solve the quotient first, then retry index k
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


def monomial_algebra_member(
    m: Monomial, G: GeneratorSet
) -> tuple[str, ...] | None:
    """Factor m over the leading monomials of G, or None."""
    return G.factorization(m)


@dataclass(frozen=True)
class SubductionStep:
    """One cancellation: coefficient * (prefix variable?) * product(factors)."""

    coefficient: Fraction
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
        total = self.remainder
        for step in self.steps:
            piece = G.product(step.factors).scale(step.coefficient)
            if step.prefix is not None:
                piece = piece * G.ambient.variable(step.prefix)
            total = total + piece
        return total

    def to_text(self) -> str:
        lines = []
        for step in self.steps:
            prefix = f"{step.prefix} * " if step.prefix else ""
            factors = " * ".join(step.factors) if step.factors else "1"
            lines.append(f"step {step.coefficient} * {prefix}{factors}")
        lines.append(f"remainder {self.remainder}")
        lines.append(f"complete {str(self.complete).lower()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "steps": [
                {
                    "coefficient": str(s.coefficient),
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
_UNIT_PREFIX = [(None, -1, None)]


def _cancel(
    f: Polynomial, G: GeneratorSet, prefixes: Sequence[tuple], max_steps: int
) -> SubductionCertificate:
    """The cancellation loop of ``subduct`` and ``x_ideal_membership``.

    Each step cancels the leading term by coefficient * prefix * product
    of generators, for the first prefix that divides the leading monomial
    and leaves a quotient with a factorization over G.
    """
    if max_steps < 1:
        raise SubductionError("max_steps must be >= 1")
    steps: list[SubductionStep] = []
    cur = f
    while not cur.is_zero():
        lm, lc = cur.leading_term()
        for prefix, idx, shift in prefixes:
            if shift is None:
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
        prod = G.product(names)
        coeff = Fraction(lc) / prod.leading_term()[1]
        nxt = cur.sub_scaled(coeff, prod, shift)
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


def tete_a_tetes(G: GeneratorSet, total_degree_bound: int) -> list[TeteATete]:
    """All pairs of distinct generator multisets, up to the bound, whose
    leading monomials have equal products (deduplicated)."""
    if total_degree_bound < 0:
        raise SubductionError("degree bound must be nonnegative")
    names = G._search_names
    lts = [G.lt[name][0] for name in names]
    degs = [lt.degree() for lt in lts]
    by_product: dict[Monomial, list[tuple[str, ...]]] = {}

    def walk(start: int, acc_names: tuple[str, ...], acc_mono: Monomial, budget: int):
        if acc_names:
            by_product.setdefault(acc_mono, []).append(acc_names)
        for k in range(start, len(names)):
            if degs[k] <= budget:
                walk(
                    k,
                    acc_names + (names[k],),
                    acc_mono * lts[k],
                    budget - degs[k],
                )

    walk(0, (), MONOMIAL_ONE, total_degree_bound)
    out: list[TeteATete] = []
    for mono, group in sorted(by_product.items(), key=itemgetter(0), reverse=True):
        if len(group) < 2:
            continue
        group = sorted(set(group))
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                out.append(TeteATete(group[a], group[b], mono))
    return out


def tete_a_tete_difference(G: GeneratorSet, tt: TeteATete) -> Polynomial:
    """Monic-normalized difference of the two generator products."""
    left, right = G.product(tt.left), G.product(tt.right)
    left = left.scale(Fraction(1) / left.leading_term()[1])
    return left.sub_scaled(Fraction(1) / right.leading_term()[1], right)


def verify_sagbi(
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
