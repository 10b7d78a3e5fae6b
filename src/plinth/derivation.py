"""Derivations of polynomial rings and the additive-group flows they generate.

A derivation is given by the images of the variables and extended by the
Leibniz rule.  Locally nilpotent derivations are certified by iterating on
the generators.  The certified flow exp(s*D) is stored in one form: the
series c_k = D^k(x)/k! of each variable x, with exp(s*D)(x) = sum_k c_k s^k.
Symbolic flows adjoin a fresh parameter variable s to that series, and a
point is flowed by evaluating each c_k at it once and summing in s.

Graded kernels are computed degree by degree: solve the exact linear
system cut out by D on the monomial basis of one graded piece.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .polyring import (
    _FIELD_MASK,
    FIELD_BITS,
    INHOMOGENEOUS,
    Coefficient,
    Monomial,
    PolyError,
    Polynomial,
    VariableMismatchError,
    VariableSet,
    WeightSystem,
    _overflow_error,
    coefficient_value,
    combination,
    quotient,
)

# Largest graded piece ``graded_kernel`` eliminates; the slowest measured near
# it, V[9] weight 0 in degree 10 (2,934 columns), takes 3.5 s on a 2 GHz Xeon.
MAX_KERNEL_COLUMNS = 3_000


def oversized_piece_error(degree: tuple[int, ...], monomials: int) -> PolyError:
    """The refusal of a graded piece too large for ``graded_kernel``."""
    return PolyError(
        f"graded piece {degree}: {monomials} monomials, "
        f"over the {MAX_KERNEL_COLUMNS} an elimination takes"
    )


class DerivationError(PolyError):
    """Raised for ill-formed derivations or uncertified flow requests."""


class NotCertifiedError(DerivationError):
    """Local nilpotency was not certified within the given bound.

    This is not a disproof; a larger bound may succeed.
    """


class Derivation:
    """A k-linear derivation of a polynomial ring, given on the variables."""

    def __init__(self, ambient: VariableSet, images: Mapping[str, Polynomial]):
        for name in ambient.names:
            if name not in images:
                raise DerivationError(f"no image for variable {name!r}")
        for name, g in images.items():
            if name not in ambient:
                raise DerivationError(f"image for foreign variable {name!r}")
            if g.ambient != ambient:
                raise VariableMismatchError(
                    f"image of {name!r} over a different variable set"
                )
        self.ambient = ambient
        self.images = {name: images[name] for name in ambient.names}
        # (field shift, the variable, its image) for each nonzero image
        self._leibniz = [
            (FIELD_BITS * i, Monomial(((i, 1),)), g)
            for i, g in enumerate(self.images.values())
            if g
        ]
        # the orders of the last successful certify_locally_nilpotent
        self.witness: dict[str, int] | None = None
        self._flow_coeffs: dict[str, tuple[Polynomial, ...]] = {}
        # the last weight system ``graded_kernel`` found D homogeneous for;
        # the images are never changed after construction
        self._homogeneous_for: WeightSystem | None = None
        # graded_kernel's answers, per (weight system, degree)
        self._kernels: dict[tuple[WeightSystem, tuple[int, ...]], tuple[Polynomial, ...]] = {}

    def __repr__(self) -> str:
        parts = ", ".join(f"D({n}) = {g}" for n, g in self.images.items())
        return f"<derivation {parts}>"

    # -- core action -----------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """Leibniz-linear extension of the variable images (exact).

        D(c*m) = sum_i c * e_i * (m / x_i) * D(x_i) over the variables x_i
        of m with exponent e_i and a nonzero image: one ``combination`` of
        the parts (c * e_i, m - x_i, D(x_i)).  An exponent pushed above
        MAX_EXPONENT raises PolyError.
        """
        if f.ambient != self.ambient:
            raise VariableMismatchError("polynomial over a different variable set")
        parts = [
            (c * e, m - x, image)
            for m, c in f._terms.items()
            for shift, x, image in self._leibniz
            if (e := m >> shift & _FIELD_MASK)
        ]
        return combination(self.ambient, parts)

    # -- local nilpotency and the flow ------------------------------------

    def certify_locally_nilpotent(self, bound: int = 32) -> dict[str, int]:
        """Iterate D on each variable until it hits 0; return the orders.

        ``{variable: least m with D^m(variable) = 0}``, in ambient order.
        Local nilpotency on the generators extends to the whole algebra, so
        success certifies the derivation.  Exceeding ``bound`` raises
        NotCertifiedError (distinct from a disproof).  The series of each
        variable is kept as its flow coefficients.
        """
        if bound < 1:
            raise DerivationError("bound must be >= 1")
        coeffs = {
            name: tuple(self._series(self.ambient.variable(name), bound))
            for name in self.ambient.names
        }
        self.witness = {name: len(c) for name, c in coeffs.items()}
        self._flow_coeffs = coeffs
        return self.witness

    def _require_certified(self) -> None:
        if self.witness is None:
            raise NotCertifiedError(
                "flow requested for an uncertified derivation; "
                "call certify_locally_nilpotent first"
            )

    def _series(self, f: Polynomial, bound: int | None = None) -> list[Polynomial]:
        """[c_0, c_1, ...] with c_k = D^k(f) / k!, up to the first zero.

        exp(s*D)(f) = sum_k c_k s^k.  More than ``bound`` nonzero terms
        raises NotCertifiedError.
        """
        out: list[Polynomial] = []
        cur = f
        while not cur.is_zero():
            if bound is not None and len(out) == bound:
                raise NotCertifiedError(
                    f"D^{bound}({f}) still nonzero; not certified within bound"
                )
            out.append(cur)
            cur = self.apply(cur).scale(Fraction(1, len(out)))
        return out

    def _with_parameter(self, stem: str) -> VariableSet:
        """The ambient extended by ``stem``, renamed until it is fresh."""
        name = stem
        while name in self.ambient:
            name += "_"
        return self.ambient.extend((name,))

    def flow_coefficients(self) -> dict[str, tuple[Polynomial, ...]]:
        """The symbolic flow of every coordinate as a polynomial in s.

        ``name -> (c_0, c_1, ...)`` with exp(s*D)(name) = sum_k c_k s^k and
        every c_k = D^k(name) / k! over the original ambient: the series
        kept by ``certify_locally_nilpotent``, in a fresh dict.
        """
        self._require_certified()
        return dict(self._flow_coeffs)

    def flow_images(self, param: str = "s") -> tuple[VariableSet, dict[str, Polynomial]]:
        """Symbolic flow of every coordinate: variable -> exp(s*D)(variable).

        The parameter is adjoined as a fresh variable, the most significant.
        """
        extended = self._with_parameter(param)
        return extended, {
            name: _in_parameter(coeffs, extended)
            for name, coeffs in self.flow_coefficients().items()
        }

    def flow_at(self, point: Mapping[str, Coefficient]) -> dict[str, list[Coefficient]]:
        """The flow of a rational point as polynomials in s.

        ``name -> [c_0(point), c_1(point), ...]``: each flow coefficient
        evaluated once by the integer kernel of ``polyring``, each value in
        canonical coefficient form, so an integer point whose values are
        integral gives plain ints.  A missing or non-rational coordinate
        raises PolyError.
        """
        self._require_certified()
        nums, den = self.ambient.integer_point(point)
        return {
            name: [c.evaluate_integer(nums, den) for c in series]
            for name, series in self._flow_coeffs.items()
        }

    def flow_point(self, point: Mapping[str, Coefficient], s) -> dict[str, Coefficient]:
        """Move a rational point along the flow by a rational time s; each
        coordinate in canonical coefficient form (``horner``)."""
        s = coefficient_value(s)
        return {name: horner(values, s) for name, values in self.flow_at(point).items()}

    # -- gradings ----------------------------------------------------------

    def weight_shift(self, ws: WeightSystem) -> tuple[int, ...]:
        """The common multidegree shift of D, inferred from the images.

        D is weight-homogeneous when every nonzero image is homogeneous of
        degree weight(variable) + shift for one fixed shift; raises
        DerivationError otherwise.
        """
        if ws.ambient != self.ambient:
            raise VariableMismatchError("weight system over a different variable set")
        shift: tuple[int, ...] | None = None
        for name in self.ambient.names:
            g = self.images[name]
            if g.is_zero():
                continue
            deg = ws.multidegree(g)
            if deg == INHOMOGENEOUS:
                raise DerivationError(f"image of {name!r} is not weight-homogeneous")
            w = ws.weight_of(name)
            this = tuple(d - x for d, x in zip(deg, w))
            if shift is None:
                shift = this
            elif this != shift:
                raise DerivationError(
                    "derivation is not weight-homogeneous: "
                    f"shift {this} at {name!r} vs {shift}"
                )
        if shift is None:
            return (0,) * ws.rank  # the zero derivation
        return shift

    def image_rows(
        self, monomials: Sequence[Monomial], last: Mapping[Monomial, Coefficient] | None = None
    ) -> list[dict[int, Coefficient]]:
        """The matrix whose column c holds the coefficients of D(monomials[c])
        and, given ``last`` (a term dict), column len(monomials) those of
        D(last), as sparse rows: one {column: coefficient} per image
        monomial, descending, with no zero entry and no empty row.

        One pass over the ``_leibniz`` table: each term c*e*v of a column
        is added into the row of its packed monomial m - x_i + g, so no
        image is built as a ``Polynomial``.  The keys are checked once, on
        their OR: an exponent pushed above MAX_EXPONENT raises PolyError.
        """
        rows: dict[int, dict[int, Coefficient]] = {}
        get = rows.get
        columns = [(c, m, 1) for c, m in enumerate(monomials)]
        if last is not None:
            columns += [(len(monomials), m, v) for m, v in last.items()]
        leibniz = [(shift, x, image._terms.items()) for shift, x, image in self._leibniz]
        for col, m, c in columns:
            for shift, x, image in leibniz:
                e = m >> shift & _FIELD_MASK
                if e:
                    base, ce = m - x, c * e
                    for g, v in image:
                        k = base + g
                        row = get(k)
                        if row is None:
                            rows[k] = {col: ce * v}
                        else:
                            row[col] = row.get(col, 0) + ce * v
        made = 0
        out = []
        for k in sorted(rows, reverse=True):
            made |= k
            row = {col: v for col, v in rows[k].items() if v}
            if row:
                out.append(row)
        if made & self.ambient.invalid_bits:
            raise _overflow_error(self.ambient)
        return out

    def kernel_on_monomials(self, monomials: Sequence[Monomial]) -> list[Polynomial]:
        """Exact basis of {f in span(monomials) : D f = 0}.

        Columns are ordered descending in the monomial order, so the
        reduced-echelon nullspace basis is canonical.  The rows of D on
        them come straight from the packed monomials (``image_rows``).
        """
        cols = sorted(monomials, reverse=True)
        vectors = linalg.nullspace(self.image_rows(cols), len(cols))
        return [
            Polynomial(self.ambient, {m: c for m, c in zip(cols, vec) if c})
            for vec in vectors
        ]

    def graded_kernel(self, ws: WeightSystem, degree: Sequence[int]) -> tuple[Polynomial, ...]:
        """Basis of the kernel in one graded piece (exact linear algebra).

        The canonical basis of ``kernel_on_monomials`` on the piece's
        monomials.  Requires D weight-homogeneous for ``ws`` and a finite
        graded piece; homogeneity is checked once per weight system
        (``weight_shift``).  Each piece is solved once per derivation: the
        basis is kept per (weight system, degree), as a tuple, so a repeated
        call returns it unchanged whatever a caller does with it.  A piece
        of more than MAX_KERNEL_COLUMNS monomials raises PolyError
        (``oversized_piece_error``).
        """
        if ws is not self._homogeneous_for:
            self.weight_shift(ws)
            self._homogeneous_for = ws
        key = (ws, tuple(int(x) for x in degree))
        got = self._kernels.get(key)
        if got is None:
            monomials = ws.monomial_basis(key[1])
            if len(monomials) > MAX_KERNEL_COLUMNS:
                raise oversized_piece_error(key[1], len(monomials))
            got = self._kernels[key] = tuple(self.kernel_on_monomials(monomials))
        return got

    # -- slices ------------------------------------------------------------

    def local_slice_check(self, s: Polynomial, f: Polynomial) -> bool:
        """True iff D(s) = 0 and D(f) = s.

        On success f/s is a local slice on the locus s != 0, and s is
        certified as an element of the plinth ideal D(O(X)) <intersect> ker D.
        """
        if s.is_zero():
            raise DerivationError("slice denominator must be nonzero")
        return self.apply(s).is_zero() and self.apply(f) == s


def _in_parameter(series: Sequence[Polynomial], extended: VariableSet) -> Polynomial:
    """sum_k series[k] * s^k over ``extended``, whose last variable is s."""
    s = len(extended) - 1
    return combination(
        extended, [(1, Monomial(((s, k),)), c.lift(extended)) for k, c in enumerate(series)]
    )


def horner(coeffs: Sequence[Coefficient], s: Coefficient) -> Coefficient:
    """sum_k coeffs[k] * s^k, from the top down over the integers, in canonical
    coefficient form: with int s and int coefficients no ``Fraction`` is built."""
    p, q = s.numerator, s.denominator
    num, den = 0, 1
    for c in reversed(coeffs):
        b = c.denominator
        num, den = num * p * b + c.numerator * den * q, den * q * b
    return quotient(num, den)
