"""Binary-form modules of SL2 viewed through their additive subgroup.

V[n] is the space of degree-n forms in two variables; its coordinate ring
is k[x_0, ..., x_n] where x_i (the coefficient of X^(n-i) Y^i) carries
torus weight n - 2i.  The unipotent subgroup acts through the substitution
X -> X + s Y; the induced derivation on coordinates is derived here
symbolically rather than hard-coded, and raises the weight by 2:

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

    def weight(self, i: int) -> int:
        return self.n - 2 * i


class RepSum:
    """A direct sum of binary-form spaces with its combined coordinate ring."""

    def __init__(self, degrees: Sequence[int]):
        degrees = tuple(int(n) for n in degrees)
        if not degrees or any(n < 0 for n in degrees):
            raise PolyError(f"bad representation degrees {degrees!r}")
        self.degrees = degrees
        self.summands: list[BinaryFormSpace] = []
        names: list[str] = []
        for s, n in enumerate(degrees):
            if len(degrees) == 1:
                coords = tuple(f"x{i}" for i in range(n + 1))
            else:
                coords = tuple(f"x{s}_{i}" for i in range(n + 1))
            self.summands.append(BinaryFormSpace(n, coords))
            names.extend(coords)
        self.ambient = VariableSet(tuple(names))
        self.max_weight = max(degrees)

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

    def dim(self) -> int:
        return len(self.ambient)

    def gm_weight(self, name: str) -> int:
        for space in self.summands:
            if name in space.coordinates:
                return space.weight(space.coordinates.index(name))
        raise PolyError(f"unknown coordinate {name!r}")

    def weight_system(self) -> WeightSystem:
        """Rank-2 grading (total degree, shifted torus weight).

        The torus weight is shifted by max(n) per degree so every entry is
        nonnegative and graded pieces stay finite.
        """
        M = self.max_weight
        weights = [(1, self.gm_weight(name) + M) for name in self.ambient.names]
        return WeightSystem(self.ambient, weights)

    def piece(self, degree: int, gm_weight: int) -> tuple[int, int]:
        """Multidegree of the (degree, torus weight) piece in the shifted grading."""
        return (degree, gm_weight + self.max_weight * degree)

    def zero_weight_coordinates(self) -> list[str]:
        out = []
        for space in self.summands:
            if space.n % 2 == 0:
                out.append(space.coordinates[space.n // 2])
        return out

    def negative_weight_coordinates(self) -> list[str]:
        """Coordinates x_i with 2i < n: these vanish on the plinth locus."""
        out = []
        for space in self.summands:
            for i, name in enumerate(space.coordinates):
                if 2 * i < space.n:
                    out.append(name)
        return out

    def nonpositive_weight_coordinates(self) -> list[str]:
        """Coordinates x_i with 2i <= n: these vanish on the null cone."""
        out = []
        for space in self.summands:
            for i, name in enumerate(space.coordinates):
                if 2 * i <= space.n:
                    out.append(name)
        return out


def build_raising_derivation(rep: RepSum) -> Derivation:
    """The derivation of the unipotent flow, derived from the substitution.

    For each summand the action X -> X + s Y on a general form is expanded
    symbolically; the s-linear part of the flowed coefficients gives the
    variable images.  The result kills x_0 and raises the weight by 2.
    """
    scratch_names = ("X", "Y", "s") + tuple(f"a{i}" for i in range(rep.max_weight + 1))
    scratch = VariableSet(scratch_names)
    x_idx, y_idx, s_idx = (scratch.index(name) for name in ("X", "Y", "s"))
    images: dict[str, Polynomial] = {}
    for space in rep.summands:
        n = space.n
        X, Y, s = scratch.variable("X"), scratch.variable("Y"), scratch.variable("s")
        flowed = scratch.zero()
        for i in range(n + 1):
            flowed = flowed + scratch.variable(f"a{i}") * (X + s * Y) ** (n - i) * Y**i
        for i in range(n + 1):
            image = rep.ambient.zero()
            target = Monomial(((x_idx, n - i), (y_idx, i), (s_idx, 1)))
            for m, c in flowed.terms():
                # every term carries exactly one a_j, so m = target * a_j
                if m.degree() == target.degree() + 1 and target.divides(m):
                    ((k, _),) = m.divide(target).pairs
                    j = int(scratch.names[k][1:])
                    image = image + rep.ambient.variable(space.coordinates[j]).scale(c)
            images[space.coordinates[i]] = image
    D = Derivation(rep.ambient, images)
    D.certify_locally_nilpotent(bound=rep.max_weight + 2)
    return D


def quadratic_invariants(n: int) -> list[Polynomial]:
    """The quadratic flow invariants f_k of V[n], k = 0..floor(n/2).

    Each lives in one torus weight 2n - 4k, spans a one-dimensional kernel
    there (a failure would contradict the multiplicity-one decomposition
    of the quadratic piece), and is normalized so the x_0 x_2k coefficient
    is 1; the support is exactly {x_j x_(2k-j) : 0 <= j <= k} with all
    coefficients nonzero.
    """
    rep = RepSum([n])
    D = build_raising_derivation(rep)
    ws = rep.weight_system()
    out: list[Polynomial] = []
    for k in range(n // 2 + 1):
        piece = rep.piece(2, 2 * n - 4 * k)
        basis = D.graded_kernel(ws, piece).basis
        if len(basis) != 1:
            raise PolyError(
                f"quadratic invariant of weight {2 * n - 4 * k} in V[{n}]: "
                f"kernel dimension {len(basis)}, expected 1"
            )
        f = basis[0]
        top = Monomial(
            ((rep.ambient.index("x0"), 1), (rep.ambient.index(f"x{2 * k}"), 1))
        ) if k > 0 else Monomial(((rep.ambient.index("x0"), 2),))
        lead = f.coefficient(top)
        if lead == 0:
            raise PolyError(f"f_{k} of V[{n}] misses the x0*x{2 * k} monomial")
        f = f.scale(Fraction(1) / lead)
        expected_support = set()
        for j in range(k + 1):
            if j == 2 * k - j:
                expected_support.add(Monomial(((rep.ambient.index(f"x{j}"), 2),)))
            else:
                expected_support.add(
                    Monomial(
                        (
                            (rep.ambient.index(f"x{j}"), 1),
                            (rep.ambient.index(f"x{2 * k - j}"), 1),
                        )
                    )
                )
        if set(f.monomials()) != expected_support:
            raise PolyError(f"f_{k} of V[{n}] has unexpected support: {f}")
        out.append(f)
    return out


def nullcone_test(rep: RepSum, v: Mapping[str, Fraction | int]) -> bool:
    """Is v in the null cone (all components of nonpositive weight vanish)?"""
    return all(coefficient_value(v[n]) == 0 for n in rep.nonpositive_weight_coordinates())


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
    negative weight are never built.
    """
    ws = rep.weight_system()
    out: list[tuple[int, int, Polynomial]] = []
    for d in range(1, degree_bound + 1):
        span = d * rep.max_weight
        for w in range(0, span + 1):
            mons = ws.monomial_basis(rep.piece(d, w))
            if not mons:
                continue
            for f in D.kernel_on_monomials(mons):
                out.append((d, w, f))
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
    """
    checker = Checker(
        f"sl2.positive_weight.{rep}",
        "positive-weight invariants vanish exactly on the plinth locus",
        {"rep": str(rep), "degree_bound": degree_bound, "samples": samples, "seed": seed},
    )
    D = build_raising_derivation(rep)
    kill = {
        name: rep.ambient.zero() if name in set(rep.negative_weight_coordinates())
        else rep.ambient.variable(name)
        for name in rep.ambient.names
    }
    positive = 0
    for d, w, f in invariants_up_to_degree(rep, D, degree_bound):
        if w <= 0:
            continue
        positive += 1
        restricted = f.substitute(kill, rep.ambient)
        checker.require(
            restricted.is_zero(),
            {
                "part": "vanishing",
                "degree": d,
                "weight": w,
                "invariant": str(f),
                "restriction": str(restricted),
            },
        )
    checker.note(f"positive-weight kernel elements checked: {positive}")

    # per-summand quadratic invariants, lifted into the sum's coordinates
    lifted: dict[int, list[Polynomial]] = {}
    for s, space in enumerate(rep.summands):
        fks = quadratic_invariants(space.n)
        small = RepSum([space.n])
        rename = {
            small.ambient.names[i]: rep.ambient.variable(space.coordinates[i])
            for i in range(space.n + 1)
        }
        lifted[s] = [f.substitute(rename, rep.ambient) for f in fks]

    rng = random.Random(seed)
    negative = rep.negative_weight_coordinates()
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
            k = next(
                i for i, name in enumerate(space.coordinates) if v[name] != 0
            )
            checker.require(
                2 * k < space.n,
                {"part": "witness", "point": {n: str(x) for n, x in v.items()}},
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


def _zero_weight_values(
    rep: RepSum, v: Mapping[str, Fraction | int]
) -> list[tuple[int, Fraction | int]]:
    out = []
    for s, space in enumerate(rep.summands):
        if space.n % 2 == 0:
            out.append((s, coefficient_value(v[space.coordinates[space.n // 2]])))
    return out


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
    for (s, a), (_, b) in zip(_zero_weight_values(rep, v), _zero_weight_values(rep, vp)):
        n = rep.summands[s].n
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
        for f in invariants:
            checked += 1
            if f.evaluate_integer(*at_v) != f.evaluate_integer(*at_vp):
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
