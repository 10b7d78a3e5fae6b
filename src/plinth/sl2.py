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

from .derivation import Derivation
from .polyring import Monomial, PolyError, Polynomial, VariableSet, WeightSystem
from .polyring import coefficient_value
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

# Most monomials the graded pieces of one ``invariants_up_to_degree`` call
# may hold in total.  On a 2-core Xeon at 2 GHz, ``plinth sl2`` with
# V[64] at degree 3 (25,347 monomials, 1.9 s) and V[6] at degree 12
# (26,237, 2.4 s) stay under it; V[8] at degree 10 (47,946, 11.8 s to
# finish) is refused once its running total passes it.
MAX_INVARIANT_MONOMIALS = 30_000


class RepSum:
    """A direct sum of binary-form spaces with its combined coordinate ring."""

    def __init__(self, degrees: Sequence[int]):
        degrees = tuple(int(n) for n in degrees)
        if not degrees or any(n < 0 for n in degrees):
            raise PolyError(f"bad representation degrees {degrees!r}")
        if max(degrees) > MAX_SUMMAND_DEGREE:
            raise PolyError(
                f"summand degree {max(degrees)} above the limit {MAX_SUMMAND_DEGREE}"
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

    @classmethod
    def parse(cls, spec: str) -> "RepSum":
        """Parse 'V[4]+V[2]' style representation strings."""
        degrees = []
        for chunk in spec.replace(" ", "").split("+"):
            digits = chunk[2:-1]
            if not (chunk.startswith("V[") and chunk.endswith("]") and digits.isdecimal()):
                raise PolyError(f"bad summand {chunk!r} in {spec!r}")
            degrees.append(int(digits))
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

    def nonpositive_weight_coordinates(self) -> list[str]:
        """Coordinates x_i with 2i <= n: these vanish on the null cone."""
        return [name for name, w in self.weights.items() if w >= 0]


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
        basis = D.graded_kernel(ws, piece).basis
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


def plinth_test(rep: RepSum, v: Mapping[str, Fraction | int]) -> bool:
    """Is v in the plinth locus (all negative-weight components vanish)?"""
    return all(coefficient_value(v[n]) == 0 for n in rep.negative_weight_coordinates())


def invariants_up_to_degree(
    rep: RepSum, D: Derivation, degree_bound: int
) -> list[tuple[int, int, Polynomial]]:
    """Kernel bases of all (degree, weight) pieces up to the degree bound.

    Returns (degree, torus weight, basis element) triples; only weights
    with nonzero kernel appear.  Kernel elements of the raising derivation
    are highest-weight vectors, whose weight is >= 0, so the pieces of
    negative weight are never built.  Each coordinate of V[n] has weight
    n - 2i, of the parity of n; when every summand's n has one parity p, a
    piece of degree d and weight w is empty unless w = d*p mod 2, so only
    those weights are walked.  Each piece comes from ``D.graded_kernel``,
    which solves it once per derivation, so a second call with the same D
    (``build_raising_derivation`` returns one per representation) rebuilds
    no kernel.  Once the pieces solved hold more than
    MAX_INVARIANT_MONOMIALS monomials in total, PolyError is raised.
    """
    ws = rep.weight_system()
    p = rep.degrees[0] % 2
    one_parity = all(n % 2 == p for n in rep.degrees)
    out: list[tuple[int, int, Polynomial]] = []
    monomials = 0
    for d in range(1, degree_bound + 1):
        span = d * rep.max_weight
        weights = range(d * p % 2, span + 1, 2) if one_parity else range(span + 1)
        for w in weights:
            kernel = D.graded_kernel(ws, rep.piece(d, w))
            monomials += kernel.columns
            if monomials > MAX_INVARIANT_MONOMIALS:
                raise PolyError(
                    f"invariants of {rep} up to degree {degree_bound}: the graded"
                    f" pieces hold over {MAX_INVARIANT_MONOMIALS} monomials"
                )
            out.extend((d, w, f) for f in kernel.basis)
    return out


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

    Part (i) holds by weight alone: every monomial of a correctly labelled
    positive-weight piece has a factor of positive coordinate weight, so
    only an element filed under the wrong piece can fail it.  The content
    of the check is part (ii).
    """
    checker = Checker(
        f"sl2.positive_weight.{rep}",
        "positive-weight invariants vanish exactly on the plinth locus",
        {"rep": str(rep), "degree_bound": degree_bound, "samples": samples, "seed": seed},
    )
    D = build_raising_derivation(rep)
    negative = rep.negative_weight_coordinates()
    positive = 0
    for d, w, f in invariants_up_to_degree(rep, D, degree_bound):
        if w <= 0:
            continue
        positive += 1
        restricted = f.restrict_to_zero(negative)
        if not restricted.is_zero():
            checker.require(
                False,
                {
                    "part": "vanishing",
                    "degree": d,
                    "weight": w,
                    "invariant": str(f),
                    "restriction": str(restricted),
                },
            )
    checker.note(f"positive-weight kernel elements checked: {positive}")

    # per-summand quadratic invariants, solved once per n over x0..xn and
    # renamed into the summand's coordinates
    lifted: dict[int, list[Polynomial]] = {}
    for s, space in enumerate(rep.summands):
        rename = {f"x{i}": rep.ambient.variable(name) for i, name in enumerate(space.coordinates)}
        lifted[s] = [f.substitute(rename, rep.ambient) for f in quadratic_invariants(space.n)]

    rng = random.Random(seed)
    if not negative:
        checker.note("no negative-weight coordinates: witness sampling skipped")
        return checker.report()
    witnessed = 0
    for _ in range(samples):
        v = {name: Fraction(rng.randint(-9, 9)) for name in rep.ambient.names}
        bad = rng.choice(negative)
        v[bad] = Fraction(rng.randint(1, 9))
        # first nonzero coordinate of the summand containing the violation
        for s, space in enumerate(rep.summands):
            if bad not in space.coordinates:
                continue
            # k <= the index of bad, so 2k < n and f_k exists
            k = next(
                i for i, name in enumerate(space.coordinates) if v[name] != 0
            )
            value = lifted[s][k].evaluate(v)
            witnessed += 1
            checker.require(
                value != 0,
                {
                    "part": "witness",
                    "summand": s,
                    "k": k,
                    "value": str(value),
                },
            )
            break
    checker.note(f"off-plinth witnesses confirmed: {witnessed}")
    return checker.report()


def component_membership(
    rep: RepSum,
    v: Mapping[str, Fraction | int],
    vp: Mapping[str, Fraction | int],
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
    sampled pair.
    """
    checker = Checker(
        f"sl2.components.{rep}",
        "C and C_sigma pairs agree on all invariants up to the degree bound",
        {"rep": str(rep), "degree_bound": degree_bound, "samples": samples, "seed": seed},
    )
    D = build_raising_derivation(rep)
    invariants = [f for _, _, f in invariants_up_to_degree(rep, D, degree_bound)]
    checker.note(f"invariants tested: {len(invariants)}")
    rng = random.Random(seed)
    negative = set(rep.negative_weight_coordinates())
    # every sampled point is 0 on the negative-weight coordinates, so each
    # invariant is evaluated without the terms that vanish there
    restricted = [f.restrict_to_zero(negative) for f in invariants]
    zero_w = set(rep.zero_weight_coordinates())

    def sample_plinth_point() -> dict[str, Fraction]:
        return {
            name: Fraction(0) if name in negative else Fraction(rng.randint(-9, 9))
            for name in rep.ambient.names
        }

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
        expected = (
            (ComponentMembership.IN_C_SIGMA, ComponentMembership.BOTH)
            if twist
            else (ComponentMembership.IN_C, ComponentMembership.BOTH)
        )
        checker.require(
            membership in expected,
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
    checker.note(f"invariant evaluations compared: {checked}")
    return checker.report()
