"""Point-level separation semantics for additive-group flows.

A finite set of invariants separates a pair of rational points when some
generator evaluates differently on them; ``separates`` returns the name of
the first such generator, or None.  For pairs that no generator
tells apart, the group element moving one point to the other is recovered
exactly from the gcd of the univariate flow equations: a point that is not
fixed has a trivial stabilizer, so the gcd has a single rational root.
Sampling drivers check that "unseparated" means "same orbit" away from the
plinth locus, and compare the verdicts of two generator sets.

All sampling is seeded; identical inputs and seed give identical reports.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Mapping

from .derivation import Derivation, horner
from .polyring import Coefficient, PolyError, coefficient_value
from .report import Checker, VerificationReport
from .sagbi import GeneratorSet

Point = dict[str, Coefficient]


def point_text(point: Mapping[str, Coefficient]) -> str:
    """Comma-separated rational coordinates in ambient order."""
    return ",".join(str(point[name]) for name in point)


def _verdict(witness: str | None) -> str:
    return "not separated" if witness is None else "separated"


def separates(
    v: Mapping[str, Coefficient],
    v_prime: Mapping[str, Coefficient],
    G: GeneratorSet,
) -> str | None:
    """The first generator of G, in ``G.names`` order, whose values at the
    two points differ, or None when G does not separate them.

    Each point goes through ``integer_point`` once, which rejects a
    coordinate that is not rational; the values are compared by
    ``Polynomial.agrees``.
    """
    return _witness(G, G.ambient.integer_point(v), G.ambient.integer_point(v_prime))


def _witness(G: GeneratorSet, at_v: tuple, at_w: tuple) -> str | None:
    """The first generator of G whose values at two ``integer_point``
    results differ, or None."""
    for name in G.names:
        if not G.polys[name].agrees(at_v, at_w):
            return name
    return None


# -- exact solution of the univariate flow equations -----------------------


def flow_equations(
    v: Mapping[str, Coefficient],
    v_prime: Mapping[str, Coefficient],
    D: Derivation,
) -> list[list[Coefficient]]:
    """Coefficients [c_0, c_1, ...] in s of flow_s(v)[name] - v'[name].

    One list per coordinate, in ambient order, with no trailing zero (the
    empty list is the zero equation): the flow of v (``flow_at``) less v',
    every coefficient in canonical form, so ints at integer points.
    """
    equations = []
    for name, eq in D.flow_at(v).items():
        eq[0] = coefficient_value(eq[0] - coefficient_value(v_prime[name]))
        while eq and eq[-1] == 0:
            eq.pop()
        equations.append(eq)
    return equations


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        factor = Fraction(a[-1], b[-1])
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """A gcd of two nonzero coefficient lists (not normalized)."""
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def solve_group_element(
    v: Mapping[str, Coefficient],
    v_prime: Mapping[str, Coefficient],
    D: Derivation,
) -> Fraction | None:
    """The exact group parameter s with flow_s(v) = v', if one exists.

    Evaluates the symbolic coordinate flows at v, leaving univariate
    polynomial equations in s (``flow_equations``), and solves their gcd:
    a point that is not fixed has a trivial stabilizer, so the gcd is
    c*(s - s0)^k and s0 is checked exactly against every equation.  A
    fixed point paired with itself returns 0 (stabilizer convention); an
    inconsistent system returns None.
    """
    equations = flow_equations(v, v_prime, D)
    nonzero = [e for e in equations if e]
    if not nonzero:
        return Fraction(0)  # every s works: v is a fixed point and v' = v
    if any(len(e) == 1 for e in nonzero):
        return None  # some coordinate can never match
    # v is not fixed, so its stabilizer is trivial: at most one s solves
    # every equation, and the gcd is c*(s - s0)^k with s0 rational.
    g = min(nonzero, key=len)
    for e in nonzero:
        if len(g) <= 2:
            break
        g = _poly_gcd(g, e)
    k = len(g) - 1
    if k == 0:
        return None
    s0 = Fraction(-g[k - 1], k * g[k])
    if all(horner(e, s0) == 0 for e in nonzero):
        return s0
    return None


# -- sampling drivers --------------------------------------------------------


def graph_vs_separation_sampling(
    D: Derivation,
    G_ref: GeneratorSet,
    trials: int,
    seed: int = 1729,
    plinth_indicator: Callable[[Point], bool] | None = None,
    plinth_sampler: Callable[[random.Random], Point] | None = None,
    plinth_unseparated: bool = False,
) -> VerificationReport:
    """Unseparated pairs are orbit pairs away from the plinth locus.

    For sampled pairs: if neither point is in the plinth locus and the
    reference generators do not separate them, a group element moving one
    to the other must exist.  Flow pairs are sampled explicitly and must
    always come back unseparated with a recoverable group element.  When a
    plinth sampler is supplied and ``plinth_unseparated`` is set (the whole
    plinth locus maps to one point, as for the 7-space action), sampled
    plinth pairs must never be separated.
    """
    if trials < 1:
        raise PolyError("trials must be >= 1")
    checker = Checker(
        "separating.graph",
        "unseparated pairs off the plinth locus lie on one orbit",
        {"trials": trials, "seed": seed, "generators": len(G_ref)},
    )
    rng = random.Random(seed)
    names = D.ambient.names

    def sample() -> Point:
        return {name: rng.randint(-9, 9) for name in names}

    if plinth_indicator is None:
        plinth_indicator = lambda p: False
    flow_pairs = graph_pairs = plinth_pairs = 0
    for trial in range(trials):
        mode = trial % 3
        v = sample()
        if mode == 0:
            s = rng.randint(-9, 9)
            vp = D.flow_point(v, s)
            flow_pairs += 1
            witness = separates(v, vp, G_ref)
            checker.require(
                witness is None,
                {"mode": "flow", "s": str(s), "witness": witness},
            )
            solved = solve_group_element(v, vp, D)
            checker.require(
                solved is not None,
                {"mode": "flow", "detail": "no group element for a flow pair"},
            )
        elif mode == 1:
            vp = sample()
            unseparated = separates(v, vp, G_ref) is None
            if unseparated and not plinth_indicator(v) and not plinth_indicator(vp):
                graph_pairs += 1
                if solve_group_element(v, vp, D) is None:
                    checker.require(
                        False,
                        {
                            "mode": "random",
                            "v": point_text(v),
                            "vp": point_text(vp),
                            "detail": "unseparated non-plinth pair off the orbit",
                        },
                    )
        elif plinth_sampler is not None:
            v = plinth_sampler(rng)
            vp = plinth_sampler(rng)
            plinth_pairs += 1
            if plinth_unseparated:
                witness = separates(v, vp, G_ref)
                if witness is not None:
                    checker.require(
                        False,
                        {
                            "mode": "plinth",
                            "v": point_text(v),
                            "vp": point_text(vp),
                            "witness": witness,
                        },
                    )
    checker.note(
        f"flow pairs: {flow_pairs}, unseparated random pairs resolved: "
        f"{graph_pairs}, plinth pairs: {plinth_pairs}"
    )
    return checker.report()


def separating_set_equivalence(
    G_small: GeneratorSet,
    G_big: GeneratorSet,
    D: Derivation,
    trials: int,
    seed: int = 1729,
) -> VerificationReport:
    """Two invariant generator sets give the same separation verdicts.

    Both sets must consist of flow invariants.  Sampled pairs mix random
    pairs, flow pairs, and near-flow perturbations; any disagreement of
    verdicts is reported with the witnessing generator.
    """
    if trials < 1:
        raise PolyError("trials must be >= 1")
    for label, G in (("small", G_small), ("big", G_big)):
        for name in G.names:
            if not D.apply(G.polys[name]).is_zero():
                raise PolyError(f"generator {name!r} of the {label} set is not invariant")
    checker = Checker(
        "separating.equivalence",
        "the two generator sets separate exactly the same sampled pairs",
        {
            "trials": trials,
            "seed": seed,
            "small": len(G_small),
            "big": len(G_big),
        },
    )
    rng = random.Random(seed)
    names = D.ambient.names

    def sample() -> Point:
        return {name: rng.randint(-9, 9) for name in names}

    disagreements = 0
    for trial in range(trials):
        mode = trial % 3
        v = sample()
        if mode == 0:
            vp = sample()
        elif mode == 1:
            vp = D.flow_point(v, rng.randint(-9, 9))
        else:
            vp = dict(v)
            name = names[rng.randrange(len(names))]
            vp[name] = vp[name] + rng.randint(1, 5)
        at_v, at_w = D.ambient.integer_point(v), D.ambient.integer_point(vp)
        small = _witness(G_small, at_v, at_w)
        big = _witness(G_big, at_v, at_w)
        if (small is None) != (big is None):
            disagreements += 1
            checker.require(
                False,
                {
                    "trial": trial,
                    "v": point_text(v),
                    "vp": point_text(vp),
                    "small": _verdict(small),
                    "big": _verdict(big),
                    "witness": small or big,
                },
            )
    checker.note(f"verdicts agreed on {trials - disagreements} of {trials} pairs")
    return checker.report()
