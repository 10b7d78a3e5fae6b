"""Exact sparse multivariate polynomial arithmetic over the rationals.

This module is the foundation of the toolkit: ordered variable sets,
sparse monomials, polynomials with exact rational coefficients, integer
multigradings (weight systems), and enumeration of the finite graded
pieces they cut out.

Coefficients are stored in one canonical form: an integral value as a
plain ``int``, any other as a ``fractions.Fraction``, and no zero term.
The public ``Polynomial(ambient, terms)`` brings every value to that form,
rejects anything that is not rational (a ``float`` above all) and any key
that is not a ``Monomial`` over the ambient's variables;
arithmetic keeps it and builds its results through the trusted
``Polynomial._raw``, which skips the check.  Integer-coefficient
polynomials, the common case, so run entirely over Python ints.  Since
``3 == Fraction(3)``, ``hash(3) == hash(Fraction(3))`` and
``str(3) == str(Fraction(3))``, a stored ``int`` compares, hashes and
prints as the ``Fraction`` would.

A ``Monomial`` is an ``int`` whose bits [32 * i, 32 * i + 32) hold the
exponent of variable index i.  The top bit of each field is a guard bit, so
an exponent is at most 2^31 - 1; a larger one, whether read or made by a
product, raises PolyError.  There is one monomial order, lex in
declaration order with the last declared variable most significant: over
``("x1", ..., "z")`` it is x1 < x2 < ... < z.  With the highest index in
the top bits, that is integer order.

Everything is exact; no floating point appears anywhere.  All values are
immutable after construction and safe to share between threads.  Point
evaluation runs over Python integers (the point and the coefficients each
brought to one common denominator) and builds one ``Fraction`` per call.

Text grammar (both input and canonical output)::

    polynomial := [sign] term { sign term }
    term       := factor { "*" factor }
    factor     := rational | variable [ "^" exponent ]
    rational   := integer [ "/" positive-integer ]
    variable   := [A-Za-z][A-Za-z0-9_]*

Whitespace is ignored.  Canonical output sorts terms descending in the
monomial order, writes each monomial's factors from the most significant
variable down, elides coefficient 1 and renders -1 as a leading minus.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import lcm
from numbers import Rational
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class PolyError(Exception):
    """Base class for errors raised by the polynomial layer."""


class VariableMismatchError(PolyError):
    """Operands live over different variable sets."""


class ZeroPolynomialError(PolyError):
    """An operation that needs a nonzero polynomial got zero."""


class InfiniteGradedPieceError(PolyError):
    """A weight system does not cut out finite graded pieces."""


# Multidegree results for the zero / non-homogeneous cases.
ANY_DEGREE = "any"
INHOMOGENEOUS = "inhomogeneous"


FIELD_BITS = 32  # bits per exponent field; the top one is a guard bit
MAX_EXPONENT = (1 << FIELD_BITS - 1) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


@cache
def _guard_mask(bits: int) -> int:
    """The guard bits of the exponent fields that hold bits 0 .. bits - 1."""
    fields = -(-bits // FIELD_BITS)
    return ((1 << FIELD_BITS * fields) - 1) // _FIELD_MASK << FIELD_BITS - 1


class VariableSet:
    """An ordered set of variable names.

    The declaration order is the lex order, lowest first: the last name is
    the most significant variable, so ``VariableSet(("x1", ..., "z"))``
    makes ``z`` dominate, matching the convention x1 < x2 < ... < z.

    An integer m is a monomial over the set exactly when ``m & invalid_bits``
    is 0; for monomials a, b over it, b divides a exactly when a - b is one.
    """

    __slots__ = ("names", "_index", "_hash", "invalid_bits")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if not names:
            raise PolyError("variable set must be nonempty")
        if len(set(names)) != len(names):
            raise PolyError(f"duplicate variable names in {names!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._hash = hash(names)
        bits = FIELD_BITS * len(names)
        self.invalid_bits = _guard_mask(bits) | -1 << bits

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"VariableSet({self.names!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r}") from None

    def variable(self, name: str) -> "Polynomial":
        return Polynomial._raw(self, {Monomial(((self.index(name), 1),)): 1})

    def constant(self, value) -> "Polynomial":
        c = coefficient_value(value)
        return Polynomial._raw(self, {MONOMIAL_ONE: c} if c else {})

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def poly(self, text: str) -> "Polynomial":
        """Parse a polynomial from the text grammar."""
        return parse_polynomial(self, text)

    def extend(self, extra: Sequence[str]) -> "VariableSet":
        """A new variable set with ``extra`` names appended (most significant)."""
        return VariableSet(self.names + tuple(extra))

    def integer_point(
        self, point: Mapping[str, Fraction | int]
    ) -> tuple[list[int], int]:
        """A rational point as integer numerators over one common denominator.

        The numerators come in declaration order.  Every variable needs an
        ``int`` or ``Fraction`` value (any ``numbers.Rational``); a missing
        or non-rational value raises PolyError naming the variable.
        """
        nums = []
        dens = []
        for name in self.names:
            try:
                x = point[name]
            except KeyError:
                raise PolyError(f"no value for variable {name!r}") from None
            # the exact-type tests spare the slow ABC check on common values
            if type(x) is not Fraction and type(x) is not int and not isinstance(
                x, Rational
            ):
                raise PolyError(f"value for variable {name!r} is not rational: {x!r}")
            nums.append(x.numerator)
            dens.append(x.denominator)
        den = lcm(*dens)
        if den != 1:
            nums = [n * (den // d) for n, d in zip(nums, dens)]
        return nums, den


class Monomial(int):
    """A monomial packed into a nonnegative integer (see the module docstring).

    Hash, equality and order are ``int``'s own.  A product is an addition
    and a quotient a subtraction, both checked on the guard bits, so neither
    ever carries into the next variable.  ``pairs`` (ascending (index,
    exponent) pairs, no zero exponent), ``degree`` and ``exponent`` read the
    fields back.  ``Monomial(pairs)`` takes int indices >= 0, each at most
    once, and int exponents in 0 .. MAX_EXPONENT; a zero exponent is dropped.
    """

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[int, int]]) -> "Monomial":
        packed = 0
        for i, e in pairs:
            if type(i) is not int or type(e) is not int or i < 0:
                raise PolyError(f"monomial pair {(i, e)!r} is not two ints, index >= 0")
            if not 0 <= e <= MAX_EXPONENT:
                raise PolyError(
                    f"exponent {e} of index {i} is negative or above the limit 2^31 - 1"
                )
            if packed >> FIELD_BITS * i & _FIELD_MASK and e:
                raise PolyError(f"duplicate variable index {i}")
            packed |= e << FIELD_BITS * i
        return int.__new__(cls, packed)

    def __repr__(self) -> str:
        return f"Monomial({self.pairs!r})"

    def __getnewargs__(self) -> tuple:  # pickle and copy revalidate
        return (self.pairs,)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        out = []
        x, i = int(self), 0
        while x:
            if x & _FIELD_MASK:
                out.append((i, x & _FIELD_MASK))
            x >>= FIELD_BITS
            i += 1
        return tuple(out)

    def is_one(self) -> bool:
        return not self

    def degree(self) -> int:
        return sum(e for _, e in self.pairs)

    def exponent(self, index: int) -> int:
        return self >> FIELD_BITS * index & _FIELD_MASK

    def __mul__(self, other: "Monomial") -> "Monomial":
        p = int.__add__(self, other)
        if p & _guard_mask(p.bit_length()):
            raise PolyError(f"{self!r} * {other!r}: exponent above the limit 2^31 - 1")
        return _packed(p)

    def divides(self, other: "Monomial") -> bool:
        return not (other - self) & _guard_mask(self.bit_length())

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; raises if not divisible."""
        q = self - other
        if q & _guard_mask(other.bit_length()):
            raise PolyError(f"{self!r} not divisible by {other!r}")
        return _packed(q)


def _packed(x: int) -> Monomial:
    """Trusted constructor: x is a packed monomial with no guard bit set."""
    return int.__new__(Monomial, x)


MONOMIAL_ONE = Monomial(())

# a stored coefficient: an int, or a Fraction whose denominator is not 1
Coefficient = int | Fraction


def coefficient_value(c) -> Coefficient:
    """``c`` in canonical coefficient form; PolyError if it is not rational."""
    # the exact-type tests spare the slow ABC check on common values
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if not isinstance(c, Rational):
            raise PolyError(f"coefficient is not rational: {c!r}")
        c = Fraction(c.numerator, c.denominator)
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """An immutable sparse polynomial with exact rational coefficients.

    ``_terms`` maps each monomial to a nonzero coefficient in canonical
    form (see ``coefficient_value``).
    """

    __slots__ = ("ambient", "_terms", "_ordered", "_lt", "_integral")

    def __init__(self, ambient: VariableSet, terms: Mapping[Monomial, Rational]):
        clean: dict[Monomial, Coefficient] = {}
        invalid = ambient.invalid_bits
        for m, c in terms.items():
            if type(m) is not Monomial or m & invalid:
                raise PolyError(f"term key {m!r} is not a monomial over {ambient!r}")
            if type(c) is not int:
                c = coefficient_value(c)
            if c:
                clean[m] = c
        self.ambient = ambient
        self._terms = clean
        self._ordered: list[tuple[Monomial, Coefficient]] | None = None
        self._lt: tuple[Monomial, Coefficient] | None = None
        # (q, top degree, [(q * coefficient, pairs, degree)]) for evaluation
        self._integral: tuple[int, int, list[tuple[int, tuple, int]]] | None = None

    @classmethod
    def _raw(cls, ambient: VariableSet, terms: dict[Monomial, Coefficient]) -> "Polynomial":
        """Trusted constructor: ``terms`` is already canonical and is kept,
        not copied, so the caller must not change it afterwards."""
        self = object.__new__(cls)
        self.ambient = ambient
        self._terms = terms
        self._ordered = self._lt = self._integral = None
        return self

    # -- basic structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, m: Monomial) -> Coefficient:
        return self._terms.get(m, 0)

    def monomials(self) -> Iterator[Monomial]:
        return iter(self._terms)

    def terms(self) -> list[tuple[Monomial, Coefficient]]:
        """Terms in canonical order: descending in the monomial order."""
        if self._ordered is None:
            self._ordered = sorted(self._terms.items(), key=itemgetter(0), reverse=True)
        return list(self._ordered)

    def leading_term(self) -> tuple[Monomial, Coefficient]:
        """The lex-maximal term.  Raises ZeroPolynomialError on zero."""
        if not self._terms:
            raise ZeroPolynomialError("no leading term: zero polynomial")
        if self._lt is None:
            m = max(self._terms)
            self._lt = (m, self._terms[m])
        return self._lt

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    def constant_term(self) -> Coefficient:
        return self._terms.get(MONOMIAL_ONE, 0)

    def is_constant(self) -> bool:
        return all(m.is_one() for m in self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(m.degree() for m in self._terms)

    def max_exponent(self, name: str) -> int:
        """Largest exponent of the named variable across all terms."""
        idx = self.ambient.index(name)
        if not self._terms:
            return 0
        return max(m.exponent(idx) for m in self._terms)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ambient != other.ambient:
            raise VariableMismatchError(
                f"operands over {self.ambient!r} and {other.ambient!r}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self.sub_scaled(-1, other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self.sub_scaled(1, other)

    # The loops below keep their results canonical: an int stays an int,
    # and a Fraction result with denominator 1 goes back to its numerator.

    def sub_scaled(
        self, c, g: "Polynomial", shift: Monomial | None = None
    ) -> "Polynomial":
        """self - c * shift * g in one pass, building no scaled copy of g.

        ``c`` is any rational; ``shift`` defaults to the monomial 1.  A
        shifted exponent above MAX_EXPONENT raises PolyError.
        """
        self._check(g)
        if type(c) is not int:
            c = coefficient_value(c)
        d = dict(self._terms)
        if not c:
            return Polynomial._raw(self.ambient, d)
        terms = g._terms.items()
        if shift:
            terms = [(_packed(m + shift), v) for m, v in terms]
            if any(m & self.ambient.invalid_bits for m, _ in terms):
                raise PolyError(
                    f"shift {shift!r} makes a term with a variable outside {self.ambient!r}"
                    " or an exponent above the limit 2^31 - 1"
                )
        for m, v in terms:
            s = d.get(m, 0) - c * v
            if type(s) is not int and s.denominator == 1:
                s = s.numerator
            if s:
                d[m] = s
            else:
                del d[m]
        return Polynomial._raw(self.ambient, d)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ambient, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self._terms or not other._terms:
            return Polynomial._raw(self.ambient, {})
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        invalid = self.ambient.invalid_bits
        d: dict[Monomial, Coefficient] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _packed(m1 + m2)
                if m & invalid:
                    raise PolyError(f"{m1!r} * {m2!r}: exponent above the limit 2^31 - 1")
                s = d.get(m, 0) + c1 * c2
                if type(s) is not int and s.denominator == 1:
                    s = s.numerator
                if s:
                    d[m] = s
                else:
                    d.pop(m, None)
        return Polynomial._raw(self.ambient, d)

    def scale(self, c) -> "Polynomial":
        if type(c) is not int:
            c = coefficient_value(c)
        if c == 1:
            return self
        d: dict[Monomial, Coefficient] = {}
        if c:
            for m, v in self._terms.items():
                s = c * v
                if type(s) is not int and s.denominator == 1:
                    s = s.numerator
                d[m] = s
        return Polynomial._raw(self.ambient, d)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise PolyError("negative power")
        result = self.ambient.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ambient == other.ambient
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.ambient, frozenset(self._terms.items())))

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Exact evaluation at a rational point (every variable needs a value).

        Values are ``int`` or ``Fraction``; anything else raises PolyError.
        The sum runs over Python integers and one ``Fraction`` is built per
        call (see ``evaluate_integer``).
        """
        nums, den = self.ambient.integer_point(point)
        return self.evaluate_integer(nums, den)

    def evaluate_integer(self, nums: Sequence[int], den: int) -> Fraction:
        """Exact value at the point ``nums / den`` from ``integer_point``.

        With the coefficients over one common denominator q and top the
        largest term degree, the value is the integer
        sum c * prod(nums[i] ** e) * den ** (top - deg) over q * den ** top.
        """
        if self._integral is None:
            q = lcm(*(c.denominator for c in self._terms.values()))
            self._integral = (
                q,
                self.total_degree(),
                [
                    (c.numerator * (q // c.denominator), m.pairs, m.degree())
                    for m, c in self._terms.items()
                ],
            )
        q, top, terms = self._integral
        total = 0
        for c, pairs, deg in terms:
            for i, e in pairs:
                c *= nums[i] ** e
            if deg != top and den != 1:
                c *= den ** (top - deg)
            total += c
        return Fraction(total, q * den**top)

    def substitute(
        self, images: Mapping[str, "Polynomial"], target: VariableSet | None = None
    ) -> "Polynomial":
        """Apply the algebra homomorphism sending each variable to its image.

        All images must live over one common variable set (``target``); it
        defaults to the ambient of the first image.  Every variable of the
        polynomial must have an image.
        """
        for name in self.ambient.names:
            if name not in images:
                raise PolyError(f"no image for variable {name!r}")
        if target is None:
            target = next(iter(images.values())).ambient
        for name, g in images.items():
            if g.ambient != target:
                raise VariableMismatchError(f"image of {name!r} over a foreign ambient")
        power_cache: dict[tuple[int, int], Polynomial] = {}

        def var_power(i: int, e: int) -> Polynomial:
            got = power_cache.get((i, e))
            if got is None:
                got = images[self.ambient.names[i]] ** e
                power_cache[(i, e)] = got
            return got

        total = target.zero()
        for m, c in self._terms.items():
            piece = target.constant(c)
            for i, e in m.pairs:
                piece = piece * var_power(i, e)
            total = total + piece
        return total

    def lift(self, target: VariableSet) -> "Polynomial":
        """Reinterpret over a larger variable set (matching by name)."""
        mapping = {name: target.index(name) for name in self.ambient.names}
        d = {}
        for m, c in self._terms.items():
            d[Monomial((mapping[self.ambient.names[i]], e) for i, e in m.pairs)] = c
        return Polynomial._raw(target, d)

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<poly {format_polynomial(self)}>"


def coefficient_matrix(
    images: Sequence[Polynomial], keep: Callable[[Monomial], bool] | None = None
) -> list[list[Coefficient]]:
    """The matrix whose columns are the coefficient vectors of ``images``.

    One row per monomial occurring in any image (only those that ``keep``
    accepts, if given), descending in the monomial order; stored
    coefficients are kept as they are and absent ones are 0.
    """
    monos = sorted(
        {m for g in images for m in g._terms if keep is None or keep(m)}, reverse=True
    )
    row_of = {m: r for r, m in enumerate(monos)}
    matrix: list[list[Coefficient]] = [[0] * len(images) for _ in monos]
    for c, g in enumerate(images):
        for m, coef in g._terms.items():
            r = row_of.get(m)
            if r is not None:
                matrix[r][c] = coef
    return matrix


class WeightSystem:
    """Integer multigrading: a weight vector of fixed rank per variable."""

    __slots__ = ("ambient", "rank", "weights")

    def __init__(self, ambient: VariableSet, weights: Sequence[Sequence[int]]):
        weights = tuple(tuple(int(x) for x in w) for w in weights)
        if len(weights) != len(ambient):
            raise PolyError(
                f"{len(weights)} weight vectors for {len(ambient)} variables"
            )
        ranks = {len(w) for w in weights}
        if len(ranks) != 1:
            raise PolyError("weight vectors of mixed rank")
        self.ambient = ambient
        self.rank = ranks.pop()
        if self.rank < 1:
            raise PolyError("weight system rank must be positive")
        self.weights = weights

    def weight_of(self, name: str) -> tuple[int, ...]:
        return self.weights[self.ambient.index(name)]

    def monomial_degree(self, m: Monomial) -> tuple[int, ...]:
        deg = [0] * self.rank
        for i, e in m.pairs:
            w = self.weights[i]
            for j in range(self.rank):
                deg[j] += e * w[j]
        return tuple(deg)

    def multidegree(self, f: Polynomial):
        """Common weight vector of all terms.

        Returns the vector, ``ANY_DEGREE`` for the zero polynomial (which is
        homogeneous of every degree), or ``INHOMOGENEOUS``.
        """
        if f.ambient != self.ambient:
            raise VariableMismatchError("polynomial over a different variable set")
        if f.is_zero():
            return ANY_DEGREE
        it = iter(f.monomials())
        deg = self.monomial_degree(next(it))
        for m in it:
            if self.monomial_degree(m) != deg:
                return INHOMOGENEOUS
        return deg

    def monomial_basis(self, degree: Sequence[int]) -> list[Monomial]:
        """All monomials of exactly the given multidegree, descending order.

        The walk fixes the exponents from the most significant variable down,
        each from its largest feasible value to 0, so the monomials come out
        in descending order without a sort.  A variable that is the last one
        with positive weight on some coordinate has a forced exponent: the
        remainder on that coordinate over its weight there.  A branch stops
        at once where that weight does not divide the remainder, where the
        quotient exceeds what the other coordinates leave, or where two
        coordinates the variable closes disagree, so every leaf of the walk
        is an output.  When each closing variable has weight 1 on the one
        coordinate it closes and 0 elsewhere, as x1, x2, x3 do for Roberts,
        no branch stops early and the walk is linear in its output.

        Finiteness requires every weight entry to be nonnegative and every
        variable to have at least one strictly positive weight coordinate;
        otherwise InfiniteGradedPieceError is raised.  A degree entry above
        MAX_EXPONENT raises PolyError.
        """
        degree = tuple(int(x) for x in degree)
        if len(degree) != self.rank:
            raise PolyError(f"degree of rank {len(degree)}, expected {self.rank}")
        weights = self.weights
        for i in range(len(weights) - 1, -1, -1):
            w = weights[i]
            if any(x < 0 for x in w):
                raise InfiniteGradedPieceError(
                    f"negative weight on {self.ambient.names[i]!r}"
                )
            if all(x == 0 for x in w):
                raise InfiniteGradedPieceError(
                    f"variable {self.ambient.names[i]!r} has zero weight vector"
                )
        # positive[i]: coordinates where variable i has positive weight;
        # closes[i]: those where it is the last such variable of the walk
        positive = [[j for j, x in enumerate(w) if x > 0] for w in weights]
        closes: list[list[int]] = [[] for _ in weights]
        for j in range(self.rank):
            last = next((i for i, p in enumerate(positive) if j in p), None)
            if last is not None:
                closes[last].append(j)
            elif degree[j]:
                return []
        if any(x < 0 for x in degree):
            return []
        if max(degree) > MAX_EXPONENT:  # no exponent can exceed max(degree)
            raise PolyError(f"degree {degree} has an entry above the limit 2^31 - 1")
        out: list[Monomial] = []

        def walk(i: int, remaining: tuple[int, ...], packed: int) -> None:
            if i < 0:
                out.append(_packed(packed))
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
                # every remainder stays nonnegative: e <= remaining[j] // w[j]
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


# -- parsing and formatting ----------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|\d+|[\^*+/-])")


def _tokenize(text: str) -> list[str]:
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
    return tokens


def parse_polynomial(ambient: VariableSet, text: str) -> Polynomial:
    """Parse the polynomial text grammar over the given variable set."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyError("empty polynomial text")
    terms: dict[Monomial, Fraction] = {}
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
        s = terms.get(m, Fraction(0)) + coef
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)

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
    return Polynomial(ambient, terms)


def format_monomial(ambient: VariableSet, m: Monomial) -> str:
    if m.is_one():
        return "1"
    parts = []
    # render factors by descending significance to match the term order
    for i, e in reversed(m.pairs):
        parts.append(ambient.names[i] if e == 1 else f"{ambient.names[i]}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Canonical text: descending term order, 1 elided, -1 as leading minus."""
    if f.is_zero():
        return "0"
    chunks = []
    for k, (m, c) in enumerate(f.terms()):
        neg = c < 0
        mag = -c if neg else c
        if m.is_one():
            body = str(mag)
        elif mag == 1:
            body = format_monomial(f.ambient, m)
        else:
            body = f"{mag}*{format_monomial(f.ambient, m)}"
        if k == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)
