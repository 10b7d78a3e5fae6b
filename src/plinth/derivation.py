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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .polyring import (
    INHOMOGENEOUS,
    Monomial,
    PolyError,
    Polynomial,
    VariableMismatchError,
    VariableSet,
    WeightSystem,
    coefficient_matrix,
    coefficient_value,
)


class DerivationError(PolyError):
    """Raised for ill-formed derivations or uncertified flow requests."""


class NotCertifiedError(DerivationError):
    """Local nilpotency was not certified within the given bound.

    This is not a disproof; a larger bound may succeed.
    """


@dataclass(frozen=True)
class NilpotencyWitness:
    """Per-variable order of vanishing: smallest m with D^m(variable) = 0."""

    orders: Mapping[str, int]

    def bound(self) -> int:
        return max(self.orders.values(), default=1)


@dataclass
class GradedKernelBasis:
    """Exact basis of one graded piece of the kernel of a derivation."""

    degree: tuple[int, ...]
    basis: list[Polynomial]

    @property
    def dimension(self) -> int:
        return len(self.basis)


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
        self._witness: NilpotencyWitness | None = None
        self._flow_coeffs: dict[str, list[Polynomial]] = {}

    def __repr__(self) -> str:
        parts = ", ".join(f"D({n}) = {g}" for n, g in self.images.items())
        return f"<derivation {parts}>"

    # -- core action -----------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """Leibniz-linear extension of the variable images (exact)."""
        if f.ambient != self.ambient:
            raise VariableMismatchError("polynomial over a different variable set")
        names = self.ambient.names
        x = [Monomial(((i, 1),)) for i in range(len(names))]
        total = self.ambient.zero()
        for m, c in f.terms():
            for i, e in m.pairs:
                g = self.images[names[i]]
                if g.is_zero():
                    continue
                total = total.sub_scaled(-c * e, g, m.divide(x[i]))
        return total

    def is_invariant(self, f: Polynomial) -> bool:
        """True iff D(f) = 0, i.e. f is constant along the flow."""
        return self.apply(f).is_zero()

    # -- local nilpotency and the flow ------------------------------------

    def certify_locally_nilpotent(self, bound: int = 32) -> NilpotencyWitness:
        """Iterate D on each variable until it hits 0; record the order.

        Local nilpotency on the generators extends to the whole algebra, so
        success certifies the derivation.  Exceeding ``bound`` raises
        NotCertifiedError (distinct from a disproof).  The series of each
        variable is kept as its flow coefficients.
        """
        if bound < 1:
            raise DerivationError("bound must be >= 1")
        coeffs = {
            name: self._series(self.ambient.variable(name), bound)
            for name in self.ambient.names
        }
        witness = NilpotencyWitness({name: len(c) for name, c in coeffs.items()})
        self._witness, self._flow_coeffs = witness, coeffs
        return witness

    @property
    def witness(self) -> NilpotencyWitness | None:
        return self._witness

    def _require_certified(self) -> None:
        if self._witness is None:
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

    def flow_coefficients(self) -> dict[str, list[Polynomial]]:
        """The symbolic flow of every coordinate as a polynomial in s.

        ``name -> [c_0, c_1, ...]`` with exp(s*D)(name) = sum_k c_k s^k and
        every c_k = D^k(name) / k! over the original ambient: the series
        kept by ``certify_locally_nilpotent``.
        """
        self._require_certified()
        return self._flow_coeffs

    def flow_images(self, param: str = "s") -> tuple[VariableSet, dict[str, Polynomial]]:
        """Symbolic flow of every coordinate: variable -> exp(s*D)(variable).

        The parameter is adjoined as a fresh variable, the most significant.
        """
        extended = self._with_parameter(param)
        return extended, {
            name: _in_parameter(coeffs, extended)
            for name, coeffs in self.flow_coefficients().items()
        }

    def exp_flow(self, f: Polynomial, s=None, param: str = "s") -> Polynomial:
        """exp(s*D)(f) = sum_k s^k D^k(f) / k! (a finite sum).

        With ``s`` None the result is symbolic over the ambient extended by
        the fresh parameter; a rational ``s`` gives the numeric flow over
        the original ambient.
        """
        self._require_certified()
        if f.ambient != self.ambient:
            raise VariableMismatchError("polynomial over a different variable set")
        series = self._series(f)
        if s is None:
            return _in_parameter(series, self._with_parameter(param))
        s = coefficient_value(s)
        return sum((c.scale(s**k) for k, c in enumerate(series)), self.ambient.zero())

    def flow_at(self, point: Mapping[str, Fraction | int]) -> dict[str, list[Fraction]]:
        """The flow of a rational point as polynomials in s.

        ``name -> [c_0(point), c_1(point), ...]``: each flow coefficient
        evaluated once by the integer kernel of ``polyring``.  A missing or
        non-rational coordinate raises PolyError.
        """
        nums, den = self.ambient.integer_point(point)
        return {
            name: [c.evaluate_integer(nums, den) for c in series]
            for name, series in self.flow_coefficients().items()
        }

    def flow_point(self, point: Mapping[str, Fraction | int], s) -> dict[str, Fraction]:
        """Move a rational point along the flow by a rational time s."""
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

    def kernel_on_monomials(self, monomials: Sequence[Monomial]) -> list[Polynomial]:
        """Exact basis of {f in span(monomials) : D f = 0}.

        Columns are ordered descending in the monomial order, so the
        reduced-echelon nullspace basis is canonical.
        """
        cols = sorted(monomials, reverse=True)
        images = [self.apply(Polynomial(self.ambient, {m: 1})) for m in cols]
        vectors = linalg.nullspace(coefficient_matrix(images), len(cols))
        return [
            Polynomial(self.ambient, {m: c for m, c in zip(cols, vec) if c})
            for vec in vectors
        ]

    def graded_kernel(self, ws: WeightSystem, degree: Sequence[int]) -> GradedKernelBasis:
        """Basis of the kernel in one graded piece (exact linear algebra).

        Requires D weight-homogeneous for ``ws`` and a finite graded piece.
        """
        self.weight_shift(ws)  # validates homogeneity
        basis = self.kernel_on_monomials(ws.monomial_basis(degree))
        return GradedKernelBasis(tuple(int(x) for x in degree), basis)

    # -- slices ------------------------------------------------------------

    def local_slice_check(self, s: Polynomial, f: Polynomial) -> bool:
        """True iff D(s) = 0 and D(f) = s.

        On success f/s is a local slice on the locus s != 0, and s is
        certified as an element of the plinth ideal D(O(X)) <intersect> ker D.
        """
        if s.is_zero():
            raise DerivationError("slice denominator must be nonzero")
        return self.apply(s).is_zero() and self.apply(f) == s

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """One `variable = polynomial` line per variable."""
        return "\n".join(f"{n} = {g}" for n, g in self.images.items())

    @classmethod
    def from_text(cls, ambient: VariableSet, text: str) -> "Derivation":
        images: dict[str, Polynomial] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            name, _, rhs = line.partition("=")
            images[name.strip()] = ambient.poly(rhs)
        return cls(ambient, images)


def extend_by_zero(D: Derivation, extended: VariableSet) -> Derivation:
    """Lift D to a larger variable set, killing the new variables."""
    images = {
        name: D.images[name].lift(extended) if name in D.ambient else extended.zero()
        for name in extended.names
    }
    lifted = Derivation(extended, images)
    if D.witness is not None:
        lifted.certify_locally_nilpotent(D.witness.bound())
    return lifted


def _in_parameter(series: Sequence[Polynomial], extended: VariableSet) -> Polynomial:
    """sum_k series[k] * s^k over ``extended``, whose last variable is s."""
    s = len(extended) - 1
    total = extended.zero()
    for k, c in enumerate(series):
        total = total.sub_scaled(-1, c.lift(extended), Monomial(((s, k),)))
    return total


def horner(coeffs: Sequence[Fraction | int], s: Fraction | int) -> Fraction:
    """sum_k coeffs[k] * s^k, from the top down over the integers: one Fraction."""
    p, q = s.numerator, s.denominator
    num, den = 0, 1
    for c in reversed(coeffs):
        b = c.denominator
        num, den = num * p * b + c.numerator * den * q, den * q * b
    return Fraction(num, den)
