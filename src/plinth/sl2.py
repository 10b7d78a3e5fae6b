"""Binary-form modules of SL2 viewed through their additive subgroup.

V[n] is the space of degree-n forms in two variables; its coordinate ring
is k[x_0, ..., x_n] where x_i (the coefficient of X^(n-i) Y^i) carries
torus weight n - 2i.  The unipotent subgroup acts through the substitution
X -> X + s Y; the induced derivation on coordinates is the s-linear part
of that substitution, which raises the weight by 2:

    D(x_0) = 0,   D(x_i) = (n - i + 1) x_(i-1).

Points are written in the dual basis e_0, ..., e_n, so x_i reads off the
i-th component and e_i has weight 2i - n.  The null cone is the span of
the positive-weight e_i, the plinth locus adds the zero-weight component,
and the Weyl reflection acts on the zero-weight line by the class of n
modulo 4.  The separating-variety components C (equal zero-weight parts)
and C_sigma (reflected zero-weight parts) are decided coordinatewise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from .derivation import MAX_KERNEL_COLUMNS, Derivation, oversized_piece_error
from .polyring import Coefficient, Monomial, PolyError, Polynomial, VariableSet, WeightSystem
from .polyring import _integer, coefficient_value, numeral
from .report import Checker, VerificationReport


class SigmaAction(Enum):
    ZERO_SPACE = "zero_space"
    TRIVIAL = "trivial"
    MINUS_IDENTITY = "minus_identity"


class ComponentMembership(Enum):
    IN_C = "in_C"
    IN_C_SIGMA = "in_C_sigma"
    BOTH = "both"
    NEITHER = "neither"


def sigma_on_V0(n: int) -> SigmaAction:
    """Action of the Weyl reflection on the zero-weight space of V[n]."""
    if n % 2 == 1:
        return SigmaAction.ZERO_SPACE
    if n % 4 == 0:
        return SigmaAction.TRIVIAL
    return SigmaAction.MINUS_IDENTITY


@dataclass(frozen=True)
class BinaryFormSpace:
    """V[n] with its coordinate names inside an enclosing representation."""

    n: int
    coordinates: tuple[str, ...]


# Largest n accepted for a summand V[n]: far above the V[4] of the paper's
# examples, and small enough that building the n + 1 coordinate names of
# V[n], which happens while a --rep argument is parsed, stays instant.
MAX_SUMMAND_DEGREE = 64

# Most monomials the graded pieces of weight >= 0 up to one degree bound may
# hold in total, read from the piece-size table before any piece is solved.
# It bounds the weight-0 eliminations that ``plinth sl2`` runs: V[1]+V[1] at
# degree 31 (26,927 monomials) passes and at degree 32 (30,344) is refused;
# V[8] at degree 10 (47,946) is refused without solving a piece.
MAX_INVARIANT_MONOMIALS = 30_000


class RepSum:
    """A direct sum of binary-form spaces with its combined coordinate ring."""

    def __init__(self, degrees: Sequence[int]):
        degrees = tuple(int(n) for n in degrees)
        if not degrees or any(n < 0 for n in degrees):
            # the tuple as repr writes it, each degree exact at any length
            text = ", ".join(map(numeral, degrees)) + "," * (len(degrees) == 1)
            raise PolyError(f"bad representation degrees ({text})")
        if max(degrees) > MAX_SUMMAND_DEGREE:
            raise PolyError(
                f"summand degree {numeral(max(degrees))} above the limit {MAX_SUMMAND_DEGREE}"
            )
        self.degrees = degrees
        self.summands: list[BinaryFormSpace] = []
        # torus weight n - 2i of each coordinate x_i, in ambient order
        self.weights: dict[str, int] = {}
        for s, n in enumerate(degrees):
            if len(degrees) == 1:
                coords = tuple(f"x{i}" for i in range(n + 1))
            else:
                coords = tuple(f"x{s}_{i}" for i in range(n + 1))
            self.summands.append(BinaryFormSpace(n, coords))
            self.weights.update((name, n - 2 * i) for i, name in enumerate(coords))
        self.ambient = VariableSet(tuple(self.weights))
        self.max_weight = max(degrees)
        # built on first use: the grading and the raising derivation, so
        # every check on this representation shares one graded kernel per piece
        self._grading: WeightSystem | None = None
        self._raising: Derivation | None = None
        # piece_sizes rows, per degree and coordinate prefix
        self._rows: list[list[dict[int, int]]] = [[{0: 1}] * (len(self.weights) + 1)]

    @classmethod
    def parse(cls, spec: str) -> "RepSum":
        """Parse 'V[4]+V[2]' style representation strings."""
        degrees = []
        for chunk in spec.replace(" ", "").split("+"):
            digits = chunk[2:-1]
            if not (chunk.startswith("V[") and chunk.endswith("]") and digits.isdecimal()):
                raise PolyError(f"bad summand {chunk!r} in {spec!r}")
            degrees.append(_integer(digits))
        return cls(degrees)

    def __str__(self) -> str:
        return "+".join(f"V[{n}]" for n in self.degrees)

    def weight_system(self) -> WeightSystem:
        """Rank-2 grading (total degree, shifted torus weight).

        The torus weight is shifted by max(n) per degree so every entry is
        nonnegative and graded pieces stay finite.  Built once per
        representation.
        """
        if self._grading is None:
            M = self.max_weight
            grading = [(1, w + M) for w in self.weights.values()]
            self._grading = WeightSystem(self.ambient, grading)
        return self._grading

    def piece(self, degree: int, gm_weight: int) -> tuple[int, int]:
        """Multidegree of the (degree, torus weight) piece in the shifted grading."""
        return (degree, gm_weight + self.max_weight * degree)

    def zero_weight_coordinates(self) -> list[str]:
        return [name for name, w in self.weights.items() if w == 0]

    def negative_weight_coordinates(self) -> list[str]:
        """Coordinates x_i with 2i < n: these vanish on the plinth locus."""
        return [name for name, w in self.weights.items() if w > 0]

    def piece_sizes(self, degree: int) -> dict[int, int]:
        """Monomials of each torus weight in one degree: the coefficients of
        the product of 1 / (1 - t q^w) over the coordinate weights w, grown a
        degree at a time.  The row h(d, k) of the first k coordinates is
        h(d, k - 1) + q^w h(d - 1, k)."""
        while len(self._rows) <= degree:
            rows: list[dict[int, int]] = [{}]
            for w, below in zip(self.weights.values(), self._rows[-1][1:]):
                row = dict(rows[-1])
                for s, c in below.items():
                    row[s + w] = row.get(s + w, 0) + c
                rows.append(row)
            self._rows.append(rows)
        return self._rows[degree][-1]


def build_raising_derivation(rep: RepSum) -> Derivation:
    """The derivation of the unipotent flow, in its closed form.

    On each summand V[n], D(x_0) = 0 and D(x_i) = (n - i + 1) x_(i-1): in
    the form sum_j a_j X^(n-j) Y^j under X -> X + s Y, the s-linear part of
    a_(i-1) (X + s Y)^(n-i+1) Y^(i-1) is (n - i + 1) a_(i-1) X^(n-i) Y^i s,
    and no other term reaches X^(n-i) Y^i s.  The result kills x_0 and
    raises the weight by 2.  It is built once per representation, so the
    checks on one representation share its graded kernels.
    """
    if rep._raising is not None:
        return rep._raising
    R = rep.ambient
    images: dict[str, Polynomial] = {}
    for space in rep.summands:
        coords = space.coordinates
        images[coords[0]] = R.zero()
        for i in range(1, space.n + 1):
            images[coords[i]] = R.variable(coords[i - 1]).scale(space.n - i + 1)
    D = Derivation(R, images)
    D.certify_locally_nilpotent(bound=rep.max_weight + 2)
    rep._raising = D
    return D


@cache
def quadratic_invariants(n: int) -> tuple[Polynomial, ...]:
    """The quadratic flow invariants f_k of V[n], k = 0..floor(n/2), once per n.

    Each lives in one torus weight 2n - 4k, spans a one-dimensional kernel
    there (a failure would contradict the multiplicity-one decomposition
    of the quadratic piece), and is normalized so the x_0 x_2k coefficient
    is 1; the support is exactly {x_j x_(2k-j) : 0 <= j <= k} with all
    coefficients nonzero.
    """
    rep = RepSum([n])
    D = build_raising_derivation(rep)
    ws = rep.weight_system()
    x = [Monomial(((rep.ambient.index(f"x{i}"), 1),)) for i in range(n + 1)]
    out: list[Polynomial] = []
    for k in range(n // 2 + 1):
        piece = rep.piece(2, 2 * n - 4 * k)
        basis = D.graded_kernel(ws, piece)
        if len(basis) != 1:
            raise PolyError(
                f"quadratic invariant of weight {2 * n - 4 * k} in V[{n}]: "
                f"kernel dimension {len(basis)}, expected 1"
            )
        lead = basis[0].coefficient(x[0] * x[2 * k])
        if lead == 0:
            raise PolyError(f"f_{k} of V[{n}] misses the x0*x{2 * k} monomial")
        f = basis[0].scale(Fraction(1) / lead)
        if set(f.monomials()) != {x[j] * x[2 * k - j] for j in range(k + 1)}:
            raise PolyError(f"f_{k} of V[{n}] has unexpected support: {f}")
        out.append(f)
    return tuple(out)


def plinth_test(rep: RepSum, v: Mapping[str, Coefficient]) -> bool:
    """Is v in the plinth locus (all negative-weight components vanish)?"""
    return all(coefficient_value(v[n]) == 0 for n in rep.negative_weight_coordinates())


def positive_weight_kernel_count(rep: RepSum, degree_bound: int) -> int:
    """Kernel elements of positive weight up to the degree bound, counted
    from ``rep.piece_sizes`` by a theorem checked in tests, not eliminated.

    By Cayley-Sylvester, D maps weight w >= 0 onto weight w + 2, so its
    kernel there has size(d, w) - size(d, w + 2) elements, which over w > 0
    sum to size(d, 1) + size(d, 2).  That holds for the true D, built in
    closed form by ``build_raising_derivation``; for a planted wrong D the
    count may differ from an elimination's, and only a failing report's
    details match solving every piece.  First the pieces of weight >= 0
    are visited in the order they are solved, from their sizes alone: one
    over MAX_KERNEL_COLUMNS raises ``oversized_piece_error``, and PolyError
    is raised once they hold over MAX_INVARIANT_MONOMIALS monomials.
    """
    monomials = positive = 0
    for d in range(1, degree_bound + 1):
        sizes = rep.piece_sizes(d)
        positive += sizes.get(1, 0) + sizes.get(2, 0)
        for w in sorted(w for w in sizes if w >= 0):
            monomials += sizes[w]
            if sizes[w] > MAX_KERNEL_COLUMNS:
                raise oversized_piece_error(rep.piece(d, w), sizes[w])
            if monomials > MAX_INVARIANT_MONOMIALS:
                raise PolyError(
                    f"invariants of {rep} up to degree {degree_bound}: the graded"
                    f" pieces hold over {MAX_INVARIANT_MONOMIALS} monomials"
                )
    return positive


def invariants_up_to_degree(rep: RepSum, D: Derivation, degree_bound: int) -> list[Polynomial]:
    """A basis of the weight-0 kernels of degree 1 to ``degree_bound``.

    Invariants of positive weight vanish on the plinth locus by weight alone,
    so neither check can fail on them; none has negative weight.  The bound
    is not checked here: callers refuse an oversized one first
    (``positive_weight_kernel_count``).  ``D.graded_kernel`` solves each
    piece once per derivation.
    """
    ws = rep.weight_system()
    degrees = [d for d in range(1, degree_bound + 1) if rep.piece_sizes(d).get(0)]
    return [f for d in degrees for f in D.graded_kernel(ws, rep.piece(d, 0))]


def positive_weight_vanishing_check(
    rep: RepSum,
    degree_bound: int = 3,
    samples: int = 25,
    seed: int = 1729,
) -> VerificationReport:
    """Positive-weight invariants cut out exactly the plinth locus.

    (i) every kernel element of positive weight, up to the degree bound,
    restricts to zero after the negative-weight coordinates are set to 0;
    (ii) for sampled points outside the plinth locus, the quadratic
    invariant attached to the first nonzero coordinate of a violating
    summand is nonzero at the point.

    Part (i) is the weight argument, per piece: every monomial of positive
    weight has a factor of positive coordinate weight, so it vanishes once
    those coordinates are all set to 0.  No piece is solved, and the count
    it notes is ``positive_weight_kernel_count``.  The content is part (ii).
    """
    checker = Checker(
        f"sl2.positive_weight.{rep}",
        "positive-weight invariants vanish exactly on the plinth locus",
        {"rep": str(rep), "degree_bound": degree_bound, "samples": samples, "seed": seed},
    )
    positive = positive_weight_kernel_count(rep, degree_bound)
    negative = rep.negative_weight_coordinates()
    for name, w in rep.weights.items():
        if w > 0 and name not in negative:
            checker.require(False, {"part": "vanishing", "coordinate": name, "weight": w})
    checker.note(f"positive-weight kernel elements checked: {positive}")

    # per-summand quadratic invariants, solved once per n over x0..xn and
    # renamed into the summand's coordinates
    lifted: dict[int, list[Polynomial]] = {}
    for s, space in enumerate(rep.summands):
        rename = {f"x{i}": rep.ambient.variable(name) for i, name in enumerate(space.coordinates)}
        lifted[s] = [f.substitute(rename) for f in quadratic_invariants(space.n)]

    rng = random.Random(seed)
    if not negative:
        checker.note("no negative-weight coordinates: witness sampling skipped")
        return checker.report()
    witnessed = 0
    for _ in range(samples):
        v = {name: rng.randint(-9, 9) for name in rep.ambient.names}
        bad = rng.choice(negative)
        v[bad] = rng.randint(1, 9)
        # first nonzero coordinate of the summand containing the violation
        for s, space in enumerate(rep.summands):
            if bad not in space.coordinates:
                continue
            # k <= the index of bad, so 2k < n and f_k exists
            k = next(i for i, name in enumerate(space.coordinates) if v[name] != 0)
            value = lifted[s][k].evaluate(v)
            witnessed += 1
            detail = {"part": "witness", "summand": s, "k": k, "value": str(value)}
            checker.require(value != 0, detail)
            break
    checker.note(f"off-plinth witnesses confirmed: {witnessed}")
    return checker.report()


def component_membership(
    rep: RepSum,
    v: Mapping[str, Coefficient],
    vp: Mapping[str, Coefficient],
) -> ComponentMembership:
    """Classify a plinth pair against the components C and C_sigma."""
    if not plinth_test(rep, v) or not plinth_test(rep, vp):
        raise PolyError("component membership needs a pair in the plinth locus")
    in_c = True
    in_c_sigma = True
    # the summands of even n hold the zero-weight coordinates, one each, in order
    even = [n for n in rep.degrees if n % 2 == 0]
    for name, n in zip(rep.zero_weight_coordinates(), even):
        a, b = coefficient_value(v[name]), coefficient_value(vp[name])
        if b != a:
            in_c = False
        sigma_a = a if sigma_on_V0(n) is SigmaAction.TRIVIAL else -a
        if b != sigma_a:
            in_c_sigma = False
    if in_c and in_c_sigma:
        return ComponentMembership.BOTH
    if in_c:
        return ComponentMembership.IN_C
    if in_c_sigma:
        return ComponentMembership.IN_C_SIGMA
    return ComponentMembership.NEITHER


def component_containment_check(
    rep: RepSum,
    degree_bound: int = 3,
    samples: int = 200,
    seed: int = 1729,
) -> VerificationReport:
    """Sampled pairs in C and C_sigma are never separated by invariants.

    Both components sit inside the separating variety: every kernel element
    up to the degree bound takes equal values on the two points of each
    sampled pair.  Only the weight-0 invariants are evaluated: those of
    positive weight are 0 at both points, and are counted in the notes by
    ``positive_weight_kernel_count``.
    """
    checker = Checker(
        f"sl2.components.{rep}",
        "C and C_sigma pairs agree on all invariants up to the degree bound",
        {"rep": str(rep), "degree_bound": degree_bound, "samples": samples, "seed": seed},
    )
    positive = positive_weight_kernel_count(rep, degree_bound)
    invariants = invariants_up_to_degree(rep, build_raising_derivation(rep), degree_bound)
    checker.note(f"invariants tested: {len(invariants) + positive}")
    rng = random.Random(seed)
    negative = set(rep.negative_weight_coordinates())
    # every sampled point is 0 on the negative-weight coordinates, so each
    # invariant is evaluated without the terms that vanish there
    restricted = [f.restrict_to_zero(negative) for f in invariants]
    zero_w = set(rep.zero_weight_coordinates())

    def sample_plinth_point() -> dict[str, int]:
        return {name: 0 if name in negative else rng.randint(-9, 9) for name in rep.ambient.names}

    checked = 0
    for trial in range(samples):
        v = sample_plinth_point()
        vp = sample_plinth_point()
        twist = trial % 2 == 1
        for name in zero_w:
            vp[name] = v[name]
        if twist:
            for s, space in enumerate(rep.summands):
                if space.n % 2 == 0 and sigma_on_V0(space.n) is SigmaAction.MINUS_IDENTITY:
                    coord = space.coordinates[space.n // 2]
                    vp[coord] = -v[coord]
        membership = component_membership(rep, v, vp)
        expected = ComponentMembership.IN_C_SIGMA if twist else ComponentMembership.IN_C
        checker.require(
            membership in (expected, ComponentMembership.BOTH),
            {"part": "construction", "trial": trial, "membership": membership.value},
        )
        at_v = rep.ambient.integer_point(v)
        at_vp = rep.ambient.integer_point(vp)
        for f, kept in zip(invariants, restricted):
            checked += 1
            if not kept.agrees(at_v, at_vp):
                checker.require(
                    False,
                    {
                        "part": "agreement",
                        "trial": trial,
                        "invariant": str(f),
                        "v": {n: str(x) for n, x in v.items()},
                        "vp": {n: str(x) for n, x in vp.items()},
                    },
                )
                break
    checker.note(f"invariant evaluations compared: {checked + positive * samples}")
    return checker.report()
