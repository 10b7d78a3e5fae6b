"""Derivations of polynomial rings and the additive-group flows they generate.

A derivation is given by the images of the variables and extended by the
Leibniz rule.  Locally nilpotent derivations are certified by iterating on
the generators; the certified flow exp(s*D) is computed symbolically with
a fresh parameter variable adjoined, and numeric flows specialize it.

Graded kernels are computed degree by degree: solve the exact linear
system cut out by D on the monomial basis of one graded piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
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
    restrict: tuple[str, ...] | None = None

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
        self._flow_cache: dict[str, dict[str, Polynomial]] = {}
        self._flow_coeffs: dict[str, list[Polynomial]] | None = None

    def __repr__(self) -> str:
        parts = ", ".join(f"D({n}) = {g}" for n, g in self.images.items())
        return f"<derivation {parts}>"

    # -- core action -----------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """Leibniz-linear extension of the variable images (exact)."""
        if f.ambient != self.ambient:
            raise VariableMismatchError("polynomial over a different variable set")
        names = self.ambient.names
        total = self.ambient.zero()
        for m, c in f.terms():
            for i, e in m.pairs:
                g = self.images[names[i]]
                if g.is_zero():
                    continue
                lowered = Monomial(
                    (j, ee - 1 if j == i else ee) for j, ee in m.pairs
                )
                total = total.sub_scaled(-c * e, g, lowered)
        return total

    def is_invariant(self, f: Polynomial) -> bool:
        """True iff D(f) = 0, i.e. f is constant along the flow."""
        return self.apply(f).is_zero()

    # -- local nilpotency and the flow ------------------------------------

    def certify_locally_nilpotent(self, bound: int = 32) -> NilpotencyWitness:
        """Iterate D on each variable until it hits 0; record the order.

        Local nilpotency on the generators extends to the whole algebra, so
        success certifies the derivation.  Exceeding ``bound`` raises
        NotCertifiedError (distinct from a disproof).
        """
        if bound < 1:
            raise DerivationError("bound must be >= 1")
        orders: dict[str, int] = {}
        for name in self.ambient.names:
            cur = self.ambient.variable(name)
            order = 0
            while not cur.is_zero():
                order += 1
                if order > bound:
                    raise NotCertifiedError(
                        f"D^{bound}({name}) still nonzero; not certified within bound"
                    )
                cur = self.apply(cur)
            orders[name] = max(order, 1)
        witness = NilpotencyWitness(orders)
        self._witness = witness
        return witness

    @property
    def witness(self) -> NilpotencyWitness | None:
        return self._witness

    def _require_certified(self) -> NilpotencyWitness:
        if self._witness is None:
            raise NotCertifiedError(
                "flow requested for an uncertified derivation; "
                "call certify_locally_nilpotent first"
            )
        return self._witness

    def _fresh_parameter(self, stem: str) -> str:
        name = stem
        while name in self.ambient:
            name += "_"
        return name

    def flow_images(self, param: str = "s") -> tuple[VariableSet, dict[str, Polynomial]]:
        """Symbolic flow of every coordinate: variable -> exp(s*D)(variable).

        The parameter is adjoined as a fresh variable; results are cached.
        """
        self._require_certified()
        param = self._fresh_parameter(param)
        cached = self._flow_cache.get(param)
        extended = self.ambient.extend((param,))
        if cached is None:
            s = extended.variable(param)
            cached = {}
            for name in self.ambient.names:
                cached[name] = self._exp_series(
                    self.ambient.variable(name), s, extended
                )
            self._flow_cache[param] = cached
        return extended, dict(cached)

    def flow_coefficients(self) -> dict[str, list[Polynomial]]:
        """The symbolic flow of every coordinate as a polynomial in s.

        ``name -> [c_0, c_1, ...]`` with exp(s*D)(name) = sum_k c_k s^k and
        every c_k over the original ambient: the terms of ``flow_images``
        grouped by the power of the parameter.  Computed once and cached.
        """
        if self._flow_coeffs is None:
            extended, images = self.flow_images()
            param = len(extended) - 1
            self._flow_coeffs = {}
            for name, f in images.items():
                groups: dict[int, dict[Monomial, Fraction]] = {}
                for m, c in f.terms():
                    pairs, k = m.pairs, 0
                    if pairs and pairs[-1][0] == param:
                        pairs, k = pairs[:-1], pairs[-1][1]
                    groups.setdefault(k, {})[Monomial(pairs)] = c
                self._flow_coeffs[name] = [
                    Polynomial(self.ambient, groups.get(k, {}))
                    for k in range(max(groups, default=-1) + 1)
                ]
        return self._flow_coeffs

    def _exp_series(
        self, f: Polynomial, s: Polynomial, extended: VariableSet
    ) -> Polynomial:
        """sum_k s^k D^k(f) / k! over ``extended``; s may be a constant."""
        total = extended.zero()
        cur = f
        k = 0
        s_power = extended.one()
        while not cur.is_zero():
            total = total + cur.lift(extended).scale(
                Fraction(1, factorial(k))
            ) * s_power
            cur = self.apply(cur)
            k += 1
            s_power = s_power * s
        return total

    def exp_flow(self, f: Polynomial, s=None, param: str = "s") -> Polynomial:
        """exp(s*D)(f) = sum_k s^k D^k(f) / k! (a finite sum).

        With ``s`` None the result is symbolic over the ambient extended by
        the fresh parameter; a Fraction ``s`` gives the numeric flow over
        the original ambient.
        """
        self._require_certified()
        if f.ambient != self.ambient:
            raise VariableMismatchError("polynomial over a different variable set")
        if s is not None:
            return self._exp_series(f, self.ambient.constant(s), self.ambient)
        extended = self.ambient.extend((self._fresh_parameter(param),))
        return self._exp_series(f, extended.variable(extended.names[-1]), extended)

    def flow_point(
        self, point: Mapping[str, Fraction | int], s
    ) -> dict[str, Fraction]:
        """Move a rational point along the flow by time s."""
        extended, images = self.flow_images()
        values = {name: Fraction(point[name]) for name in self.ambient.names}
        values[extended.names[-1]] = Fraction(s)
        at = extended.integer_point(values)
        return {name: images[name].evaluate_integer(*at) for name in self.ambient.names}

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

    def graded_kernel(
        self,
        ws: WeightSystem,
        degree: Sequence[int],
        restrict: Sequence[str] | None = None,
    ) -> GradedKernelBasis:
        """Basis of the kernel in one graded piece (exact linear algebra).

        Requires D weight-homogeneous for ``ws`` and a finite graded piece.
        """
        self.weight_shift(ws)  # validates homogeneity
        mons = ws.monomial_basis(degree, restrict)
        basis = self.kernel_on_monomials(mons)
        return GradedKernelBasis(
            tuple(int(x) for x in degree),
            basis,
            tuple(restrict) if restrict is not None else None,
        )

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
        orders = dict(D.witness.orders)
        for name in extended.names:
            orders.setdefault(name, 1)
        lifted._witness = NilpotencyWitness(orders)
    return lifted
