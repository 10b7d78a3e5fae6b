"""Exact sparse multivariate polynomial arithmetic over the rationals.

This module is the foundation of the toolkit: ordered variable sets,
sparse monomials, polynomials with exact rational coefficients, integer
multigradings (weight systems), and enumeration of the finite graded
pieces they cut out.

Coefficients are stored in one canonical form: an integral value as a
plain ``int``, any other as a ``fractions.Fraction``, and no zero term.
The public ``Polynomial(ambient, terms)`` brings every value to that form,
rejects anything that is not rational (a ``float`` above all) and any key
that is not a ``Monomial`` over the ambient's variables; arithmetic keeps
it and builds its results through the trusted ``Polynomial._raw``, which
skips the check.  Every sum of scaled, shifted polynomials, the
subduction step f - c * m * g, the product and D applied included, is one
call of ``combination``: c * shift * g summed over its parts into one dict,
each sum made canonical as it is written and each new key checked once, on
their OR.  One measured fast path stays outside it: ``Derivation.image_rows``
(applied columns read by ``coefficient_matrix`` took beta-construct's
calls to 6.0 ms, not 5.5).  One walk enumerates graded pieces; its leaf
reads the bottom variables' exponents through d * M^-1 (``_walk_plan``).
Integer-coefficient polynomials, the common case, so run entirely over
Python ints.  Since ``3 == Fraction(3)``, ``hash(3) == hash(Fraction(3))``
and ``str(3) == str(Fraction(3))``, a stored ``int`` compares, hashes and
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
brought to one common denominator) and gives its value in the canonical
coefficient form, so a ``Fraction`` is built only for a value that is not
an integer; ``Polynomial.agrees`` compares the values at two points with
none.

Text grammar (both input and canonical output)::

    polynomial := [sign] term { sign term }
    term       := factor { "*" factor }
    factor     := rational | variable [ "^" exponent ]
    rational   := integer [ "/" positive-integer ]
    variable   := [A-Za-z][A-Za-z0-9_]*

Input is read in one regex scan, whitespace ignored; every error in it is
a PolyError.  Canonical output sorts terms descending in the monomial
order, writes each monomial's factors from the most significant variable
down, elides coefficient 1 and renders -1 as a leading minus.  Numerals
of any length convert exactly both ways: one past 4,000 digits is
split at a power of 10 and its halves converted in turn, so no conversion
meets Python's int-string digit limit (4,300 by default), and the
process-wide limit is left as it is.
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

# Largest graded piece ``monomial_basis`` enumerates: over ten times the
# largest the tests, ``plinth all`` and the benchmark build (5,746 monomials).
MAX_PIECE_MONOMIALS = 60_000


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
        self, point: Mapping[str, Coefficient]
    ) -> tuple[list[int], int]:
        """A rational point as integer numerators over one common denominator.

        The numerators come in declaration order.  Every variable needs an
        ``int`` or ``Fraction`` value (any ``numbers.Rational``); a missing
        or non-rational value raises PolyError naming the first such
        variable in declaration order.  An all-``int`` point, found by one
        type scan, is its own list of numerators over 1.
        """
        values = [point.get(name) for name in self.names]
        for x in values:
            if type(x) is not int:
                break
        else:
            return values, 1
        for name, x in zip(self.names, values):
            if x is None and name not in point:
                raise PolyError(f"no value for variable {name!r}")
            # the exact-type tests spare the slow ABC check on common values
            if type(x) is not Fraction and type(x) is not int and not isinstance(
                x, Rational
            ):
                raise PolyError(f"value for variable {name!r} is not rational: {x!r}")
        den = lcm(*(x.denominator for x in values))
        return [x.numerator * (den // x.denominator) for x in values], den


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
                    f"exponent {numeral(e)} of index {i} is negative or above the limit 2^31 - 1"
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


def quotient(num: int, den: int) -> Coefficient:
    """The rational num / den (den > 0) in canonical coefficient form: an
    integral quotient is an ``int``, and only any other builds a ``Fraction``."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


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
        # the integral terms for evaluation, built on first use (_integral_terms)
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

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return combination(self.ambient, ((1, MONOMIAL_ONE, self), (1, MONOMIAL_ONE, other)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return combination(self.ambient, ((1, MONOMIAL_ONE, self), (-1, MONOMIAL_ONE, other)))

    def sub_scaled(self, c, g: "Polynomial", shift: Monomial = MONOMIAL_ONE) -> "Polynomial":
        """self - c * shift * g: one ``combination`` of (1, 1, self) and
        (-c, shift, g), so its rules hold (c = 0 adds nothing)."""
        if type(c) is not int:
            c = coefficient_value(c)  # a non-rational c raises before -c
        return combination(self.ambient, ((1, MONOMIAL_ONE, self), (-c, shift, g)))

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ambient, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if other.ambient != self.ambient:
            raise _mismatch_error(other.ambient, self.ambient)
        a, b = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        return combination(self.ambient, [(c, m, b) for m, c in a._terms.items()])

    def scale(self, c) -> "Polynomial":
        return combination(self.ambient, ((c, MONOMIAL_ONE, self),))

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

    def evaluate(self, point: Mapping[str, Coefficient]) -> Coefficient:
        """Exact evaluation at a rational point (every variable needs a value).

        Values are ``int`` or ``Fraction``; anything else raises PolyError.
        The sum runs over Python integers, and the value comes in canonical
        coefficient form (see ``evaluate_integer``).
        """
        nums, den = self.ambient.integer_point(point)
        return self.evaluate_integer(nums, den)

    def evaluate_integer(self, nums: Sequence[int], den: int) -> Coefficient:
        """Exact value at the point ``nums / den`` from ``integer_point``.

        The value is ``integer_total(nums, den)`` over the fixed
        denominator q * den ** top (see ``integer_total``), in canonical
        coefficient form: an ``int`` when it is integral, as it always is
        for integer coefficients at an integer point, else a ``Fraction``.
        """
        total = self.integer_total(nums, den)
        q, top, _ = self._integral
        return quotient(total, q * den**top)

    def _integral_terms(self) -> tuple[int, int, list[tuple[int, tuple, int]]]:
        """Build ``_integral``: (q, top, [(q * c, pairs, degree)]) with the
        coefficients c over their common denominator q and top the largest
        term degree.  Readers take ``self._integral or self._integral_terms()``."""
        q = lcm(*(c.denominator for c in self._terms.values()))
        self._integral = (
            q,
            self.total_degree(),
            [
                (c.numerator * (q // c.denominator), m.pairs, m.degree())
                for m, c in self._terms.items()
            ],
        )
        return self._integral

    def integer_total(self, nums: Sequence[int], den: int) -> int:
        """The integer numerator of the value at ``nums / den``.

        With the coefficients over one common denominator q and top the
        largest term degree, the value is this integer,
        sum q * c * prod(nums[i] ** e) * den ** (top - deg) over the terms,
        divided by q * den ** top.  Every single-point evaluation runs this
        loop.
        """
        _, top, terms = self._integral or self._integral_terms()
        total = 0
        for c, pairs, deg in terms:
            for i, e in pairs:
                c *= nums[i] if e == 1 else nums[i] ** e
            if deg != top and den != 1:
                c *= den ** (top - deg)
            total += c
        return total

    def agrees(self, a: tuple[Sequence[int], int], b: tuple[Sequence[int], int]) -> bool:
        """Whether the values at two ``integer_point`` results are equal.

        The two values share the denominator factor q.  With equal point
        denominators d they are equal exactly when
        sum q * c * (m(a) - m(b)) * d ** (top - deg) over the terms is 0,
        one pass over the terms for both points; otherwise exactly when
        T_a * db ** top == T_b * da ** top for the totals T of
        ``integer_total``.  No ``Fraction`` is built.
        """
        (nums_a, da), (nums_b, db) = a, b
        _, top, terms = self._integral or self._integral_terms()
        if da != db:
            total_a, total_b = self.integer_total(nums_a, da), self.integer_total(nums_b, db)
            return total_a * db**top == total_b * da**top
        total = 0
        for c, pairs, deg in terms:
            ca = cb = c
            for i, e in pairs:
                if e == 1:
                    ca *= nums_a[i]
                    cb *= nums_b[i]
                else:
                    ca *= nums_a[i] ** e
                    cb *= nums_b[i] ** e
            if deg != top and da != 1:
                total += (ca - cb) * da ** (top - deg)
            else:
                total += ca - cb
        return not total

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Apply the algebra homomorphism sending each variable to its image.

        All images must live over one common variable set, the ambient of
        the result.  Every variable of the polynomial must have an image.
        """
        for name in self.ambient.names:
            if name not in images:
                raise PolyError(f"no image for variable {name!r}")
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

        parts = []
        for m, c in self._terms.items():
            piece = target.one()
            for i, e in m.pairs:
                piece = piece * var_power(i, e)
            parts.append((c, MONOMIAL_ONE, piece))
        return combination(target, parts)

    def restrict_to_zero(self, names: Iterable[str]) -> "Polynomial":
        """The restriction to the locus where the named variables vanish:
        the terms whose monomial has no factor among ``names``."""
        fields = 0
        for name in names:
            fields |= _FIELD_MASK << FIELD_BITS * self.ambient.index(name)
        kept = {m: c for m, c in self._terms.items() if not m & fields}
        return Polynomial._raw(self.ambient, kept)

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


def combination(
    ambient: VariableSet, parts: Iterable[tuple[Rational, Monomial, Polynomial]]
) -> Polynomial:
    """sum c * shift * g over the parts (c, shift, g), summed in one dict.

    c is any rational and every g must live over ``ambient``
    (VariableMismatchError otherwise); a shift may be any packed monomial
    int.  A part whose c is 0 adds nothing: its g is checked against
    ``ambient``, its shifted keys are not.  A shifted exponent above
    MAX_EXPONENT, or a shift by a variable outside ``ambient``, raises
    PolyError, even where those terms cancel.  A first part (1, 1, g)
    starts the sum as a copy of g's terms.
    """
    terms: dict[Monomial, Coefficient] = {}
    get, made, new = terms.get, 0, int.__new__
    for c, shift, g in parts:
        if g.ambient is not ambient and g.ambient != ambient:
            raise _mismatch_error(g.ambient, ambient)
        # an int, or a Fraction whose denominator is not 1, is canonical
        if type(c) is not int and (type(c) is not Fraction or c.denominator == 1):
            c = coefficient_value(c)
        if not c:
            continue
        if not terms and c == 1 and not shift:
            terms = dict(g._terms)
            get = terms.get
            continue
        # each sum is made canonical as it is written, a zero sum dropped;
        # a key is made a Monomial, and OR-ed into the check (an
        # overflowing field sets its own guard bit), only when first written
        for m, v in g._terms.items():
            # a zero shift, as in every subduction step, skips the addition
            # (without the test, verify_sagbi on S_3 at bound 12 took 6% longer)
            k = m + shift if shift else m
            s = get(k)
            if s is None:
                s = c * v
                made |= k
                k = new(Monomial, k)
            else:
                s += c * v
                if not s:
                    del terms[k]
                    continue
            terms[k] = s if type(s) is int or s.denominator != 1 else s.numerator
    if made & ambient.invalid_bits:
        raise _overflow_error(ambient)
    return Polynomial._raw(ambient, terms)


def crowded_piece_error(degree: tuple[int, ...]) -> PolyError:
    """The refusal of a graded piece of more than MAX_PIECE_MONOMIALS monomials."""
    return PolyError(f"graded piece {degree}: over {MAX_PIECE_MONOMIALS} monomials")


def _mismatch_error(got: VariableSet, expected: VariableSet) -> VariableMismatchError:
    """The one error of a sum or product over two ambients."""
    return VariableMismatchError(f"term over {got!r}, expected {expected!r}")


def _overflow_error(ambient: VariableSet) -> PolyError:
    """The one error of a sum or product whose keys leave ``ambient``."""
    return PolyError(
        f"a term has an exponent above the limit 2^31 - 1 or a variable outside {ambient!r}"
    )


def coefficient_matrix(
    images: Sequence[Polynomial], keep: Callable[[Monomial], bool] | None = None
) -> list[dict[int, Coefficient]]:
    """The matrix whose columns are the coefficient vectors of ``images``,
    as sparse rows: one {column: stored coefficient} per monomial occurring
    in any image (that ``keep`` accepts, if given), descending, with no zero.
    """
    rows: dict[Monomial, dict[int, Coefficient]] = {}
    for c, g in enumerate(images):
        for m, coef in g._terms.items():
            if keep is None or keep(m):
                rows.setdefault(m, {})[c] = coef
    return [rows[m] for m in sorted(rows, reverse=True)]


class WeightSystem:
    """Integer multigrading: a weight vector of fixed rank per variable."""

    __slots__ = ("ambient", "rank", "weights", "_plan")

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
        self._plan: tuple | None = None

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

    def _walk_plan(self) -> tuple:
        """(positive, closes, windows, unreached, leaf) for ``monomial_basis``.

        positive[i]: the coordinates where variable i has positive weight;
        closes[i]: those where it is the last such variable of the walk;
        windows[i]: (j, k, lo_num, lo_den, hi_num, hi_den) for the ratio
        windows checked on entering variable i; unreached: the coordinates
        no variable has weight on.  leaf: None, or (d, rows) when the weight
        matrix M of the bottom ``rank`` variables, M[j][v] = weights[v][j],
        is nonsingular: the exponents e with M e = r are
        e_v = sum(a * r[j] for j, a in rows[v]) / d, with rows[v] the
        nonzero entries of row v of d * M^-1 and d > 0 the least common
        denominator of M^-1 (a divisor of |det M|).
        Built once per weight system.  Raises InfiniteGradedPieceError, and
        caches nothing, if a graded piece can be infinite.
        """
        if self._plan is not None:
            return self._plan
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
        positive = [[j for j, x in enumerate(w) if x > 0] for w in weights]
        closes: list[list[int]] = [[] for _ in weights]
        unreached = []
        for j in range(self.rank):
            last = next((i for i, p in enumerate(positive) if j in p), None)
            if last is None:
                unreached.append(j)
            else:
                closes[last].append(j)
        # Variable 0 closes every coordinate it has weight on, so its own
        # check is exact and it needs no window.  A coordinate k on which
        # no variable 0..i has weight is already 0 there, and the (k, j)
        # window is the reciprocal of the (j, k) one: both are skipped.
        windows: list[tuple] = [()]
        for i in range(1, len(weights)):
            prefix = weights[: i + 1]
            common = [j for j in range(self.rank) if all(w[j] for w in prefix)]
            level = []
            for j in common:
                for k in range(self.rank):
                    if k == j or k in common and k < j or not any(w[k] for w in prefix):
                        continue
                    ratios = [Fraction(w[k], w[j]) for w in prefix]
                    lo, hi = min(ratios), max(ratios)
                    level.append(
                        (j, k, lo.numerator, lo.denominator, hi.numerator, hi.denominator)
                    )
            windows.append(tuple(level))
        # imported here, not at the top: linalg imports this module
        from . import linalg

        leaf = None
        n = self.rank
        block = weights[:n]  # M^T: row v is the weight of variable v
        # [M^T | I] reduces to [I | M^-T], rows scaled, iff M is nonsingular
        system = [[*w, *(int(u == v) for u in range(len(block)))] for v, w in enumerate(block)]
        reduced, pivots = linalg._reduce(system)
        if pivots[:n] == list(range(n)):
            # row v of M^-1 is column v of M^-T
            inverse = [
                [Fraction(reduced[j].get(n + v, 0), reduced[j][j]) for j in range(n)]
                for v in range(n)
            ]
            d = lcm(*(x.denominator for row in inverse for x in row))
            rows = tuple(tuple((j, int(d * x)) for j, x in enumerate(row) if x) for row in inverse)
            leaf = (d, rows)
        self._plan = (positive, closes, windows, unreached, leaf)
        return self._plan

    def monomial_basis(self, degree: Sequence[int]) -> list[Monomial]:
        """All monomials of exactly the given multidegree, descending order.

        The walk fixes the exponents from the most significant variable down,
        each from its largest feasible value to 0, so the monomials come out
        in descending order without a sort.  A variable that is the last one
        with positive weight on some coordinate has a forced exponent: the
        remainder on that coordinate over its weight there.  A branch stops
        at once where that weight does not divide the remainder, where the
        quotient exceeds what the other coordinates leave, or where two
        coordinates the variable closes disagree.

        Leaf solve.  When the weight matrix M of the bottom ``rank``
        variables is nonsingular, the walk stops at the level above them and
        reads their exponents off the remainder r as (d * M^-1) r / d, one
        divmod per variable (for Roberts x1, x2, x3 carry the identity, so
        d = 1); the branch ends unless each is an exact nonnegative integer.
        This is exact: M e = r has one solution, so a remainder has at most
        the one completion the full walk would find, in the same place of
        the order.  A nonsingular M has no zero row, so every coordinate has
        weight on a variable of the block, no variable above it closes a
        coordinate, and below it the ratio windows could only prune what the
        solve already rejects.
        For the rank-2 sl2 grading the block is x0, x1 of the first summand,
        the last two coordinates the walk reaches; when M is singular, as
        for V[0]+V[0], the walk goes down to variable 0.

        Ratio windows prune the rest.  Entering variable i with remainder r,
        for coordinates j, k where every variable 0..i has positive weight
        on j, r[k] / r[j] is an average of w[k] / w[j] over those variables,
        so it must lie between their least and greatest ratio; the test is
        made by integer cross-multiplication.  The windows depend on the
        weights only and are built once per weight system.  For the rank-2
        sl2 grading (total degree, shifted torus weight) they bound the
        torus weight left per remaining degree, which the search alone does
        not see until its leaves.

        Finiteness requires every weight entry to be nonnegative and every
        variable to have at least one strictly positive weight coordinate;
        otherwise InfiniteGradedPieceError is raised.  A degree entry above
        MAX_EXPONENT raises PolyError, and so does a piece of more than
        MAX_PIECE_MONOMIALS monomials, as soon as the walk passes that count.
        """
        degree = tuple(int(x) for x in degree)
        if len(degree) != self.rank:
            raise PolyError(f"degree of rank {len(degree)}, expected {self.rank}")
        weights = self.weights
        positive, closes, windows, unreached, leaf = self._walk_plan()
        if any(degree[j] for j in unreached):
            return []
        if any(x < 0 for x in degree):
            return []
        if max(degree) > MAX_EXPONENT:  # no exponent can exceed max(degree)
            raise PolyError(f"degree {degree} has an entry above the limit 2^31 - 1")
        out: list[Monomial] = []
        d, rows = leaf or (1, ())
        rows = [(FIELD_BITS * v, row) for v, row in enumerate(rows)]
        bottom = -1 if leaf is None else self.rank - 1

        def walk(i: int, remaining: tuple[int, ...], packed: int) -> None:
            if i == bottom:
                for shift, row in rows:
                    num = 0
                    for j, a in row:
                        num += a * remaining[j]
                    e, r = divmod(num, d)
                    if r or e < 0:
                        return
                    packed += e << shift
                out.append(_packed(packed))
                if len(out) > MAX_PIECE_MONOMIALS:
                    raise crowded_piece_error(degree)
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

# The grammar as three patterns, each skipping the whitespace before it.
_SIGN = re.compile(r"\s*([+-])")
_FACTOR = re.compile(
    r"\s*(?:(\d+)(?:\s*/\s*(\d+))?|([A-Za-z][A-Za-z0-9_]*)(?:\s*\^\s*(\d+))?)"
)
_TIMES = re.compile(r"\s*\*")


def parse_polynomial(ambient: VariableSet, text: str) -> Polynomial:
    """Parse the polynomial text grammar over the given variable set in one
    regex scan: each signed term is one part (coef, monomial, one) of a
    single ``combination``."""
    one, parts, pos, times = ambient.one(), [], 0, None
    sign = _SIGN.match(text)
    while True:
        if not times:  # a term opens; only the first may omit its sign
            coef, m = -1 if sign and sign[1] == "-" else 1, MONOMIAL_ONE
            pos = sign.end() if sign else pos
        factor = _FACTOR.match(text, pos)
        if factor is None:
            raise PolyError(f"expected a factor at {text[pos:pos + 10]!r}")
        num, den, name, exp = factor.groups()
        if name:
            m *= Monomial(((ambient.index(name), _integer(exp or "1")),))
        elif den and not _integer(den):
            raise PolyError("zero denominator")
        else:
            coef *= Fraction(_integer(num), _integer(den)) if den else _integer(num)
        pos = factor.end()
        times = _TIMES.match(text, pos)
        if times:
            pos = times.end()
            continue
        parts.append((coef, m, one))
        sign = _SIGN.match(text, pos)
        if sign is None:
            break
    if text[pos:].strip():
        raise PolyError(f"expected a sign at {text[pos:pos + 10]!r}")
    return combination(ambient, parts)


# Python converts between int and decimal text only up to 4,300 digits by
# default; a numeral past this many digits is converted half by half
_LONG_DIGITS = 4_000
_LONG = 10**_LONG_DIGITS


def _integer(digits: str) -> int:
    """int(digits), exact at any length: a numeral of more than _LONG_DIGITS
    digits is read as two halves joined at a power of 10."""
    if len(digits) <= _LONG_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _integer(digits[:-k]) * 10**k + _integer(digits[-k:])


def numeral(c: Coefficient) -> str:
    """str(c), exact at any length: an integer of more than _LONG_DIGITS
    digits is split at a power of 10 into two halves, each written in turn."""
    if type(c) is not int:  # a Fraction, written as str writes it
        num, den = c.numerator, c.denominator
        return numeral(num) if den == 1 else f"{numeral(num)}/{numeral(den)}"
    if -_LONG < c < _LONG:
        return str(c)
    if c < 0:
        return "-" + numeral(-c)
    k = c.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(c, 10**k)
    return numeral(high) + numeral(low).zfill(k)


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
            body = numeral(mag)
        elif mag == 1:
            body = format_monomial(f.ambient, m)
        else:
            body = f"{numeral(mag)}*{format_monomial(f.ambient, m)}"
        if k == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)
