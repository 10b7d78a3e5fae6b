"""Differential tests of ``polyring.combination`` and the sums built on it.

Every sum of scaled, shifted polynomials in the library goes through
``combination``, the subduction step, the product and D applied included.
The oracles are the ``Fraction``-only term dicts and the earlier summation
loops of ``util``, which add one polynomial at a time to a running total,
and, for the sl2 raising derivation, its symbolic expansion from the
substitution X -> X + s Y.  ``restrict_to_zero`` is checked against the
zero-or-identity substitution it replaced.
"""

import random
from fractions import Fraction

import pytest

from plinth.casebook import QUADRIC, divide_out
from plinth.derivation import Derivation
from plinth.polyring import (
    MAX_EXPONENT,
    MONOMIAL_ONE,
    Monomial,
    PolyError,
    Polynomial,
    VariableMismatchError,
    VariableSet,
    combination,
)
from plinth.roberts import _degree_box, roberts_action
from plinth.sagbi import subduct, x_ideal_membership
from plinth.sl2 import RepSum, build_raising_derivation
from util import (
    fraction_combination,
    fraction_sub_scaled,
    fraction_terms,
    is_canonical,
    is_quadric_normal,
    looped_combination,
    looped_divide_out,
    looped_replay,
    looped_substitute,
    looped_z_capped,
    random_poly,
    symbolic_raising_derivation,
)

R4 = VariableSet(("w", "x", "y", "z"))
SCALARS = (1, -1, 3, 0, Fraction(1, 2), Fraction(-3, 4), Fraction(6, 3))


def _random_shift(rng: random.Random, ambient: VariableSet) -> Monomial:
    return Monomial((i, rng.randint(1, 3)) for i in range(len(ambient)) if rng.random() < 0.4)


def _random_parts(rng: random.Random) -> list:
    """One to six parts with Fraction coefficients; some cancel each other
    exactly, and some pairs sum to integral coefficients."""
    parts = []
    for _ in range(rng.randint(1, 6)):
        c, g = rng.choice(SCALARS), random_poly(rng, R4, max_terms=5)
        shift = _random_shift(rng, R4)
        parts.append((c, shift, g))
        kind = rng.randrange(4)
        if kind == 0:
            parts.append((-c, shift, g))
        elif kind == 1:
            parts.append((c, shift, -g))
        elif kind == 2:
            parts.append((Fraction(1, 2), shift, g.scale(2)))
    rng.shuffle(parts)
    return parts


def test_combination_matches_fraction_oracle_and_earlier_loop():
    rng = random.Random(1717)
    zero = fractional = 0
    for _ in range(400):
        parts = _random_parts(rng)
        got = combination(R4, parts)
        assert got._terms == fraction_combination(parts)
        assert got == looped_combination(R4, parts)
        assert is_canonical(got) and all(type(m) is Monomial for m in got._terms)
        zero += got.is_zero()
        fractional += any(type(c) is Fraction for c in got._terms.values())
    assert zero >= 40 and fractional >= 100
    assert combination(R4, []) == R4.zero()
    assert combination(R4, iter([(Fraction(4, 2), MONOMIAL_ONE, R4.one())])) == R4.constant(2)


def test_sum_started_from_a_copy_matches_fraction_sub_scaled():
    # a first part (1, 1, f) starts the sum as a copy of f's terms; every
    # later term is made canonical as it is written
    rng = random.Random(1723)
    zero = fractional = cancelled = 0
    for _ in range(400):
        f = random_poly(rng, R4, max_terms=6)
        parts = [(rng.choice((1, Fraction(1), Fraction(3, 3))), MONOMIAL_ONE, f)]
        for _ in range(rng.randint(0, 4)):
            c = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4)), 0))
            shift = _random_shift(rng, R4) if rng.random() < 0.5 else MONOMIAL_ONE
            g = random_poly(rng, R4, max_terms=5)
            kind = rng.randrange(4)
            if kind == 0:  # the part and its negative
                parts += [(c, shift, g), (-c, shift, g)]
            elif kind == 1:  # the sum so far cancelled in full
                parts += [(-1, MONOMIAL_ONE, f), (c, shift, g)]
            else:
                parts.append((c, shift, g))
        inputs = [(g, dict(g._terms)) for _, _, g in parts]
        want = fraction_terms(f)
        for c, shift, g in parts[1:]:
            want = fraction_sub_scaled(want, -Fraction(c), shift, fraction_terms(g))
        got = combination(R4, parts)
        assert got._terms == want
        assert is_canonical(got) and all(type(m) is Monomial for m in got._terms)
        assert all(got._terms is not g._terms and g._terms == terms for g, terms in inputs)
        if len(parts) == 2:
            (_, _, f), (c, shift, g) = parts
            assert f.sub_scaled(-c, g, shift)._terms == want
        zero += got.is_zero()
        fractional += any(type(c) is Fraction for c in got._terms.values())
        cancelled += any(p[0] == -1 for p in parts)
    assert zero >= 40 and fractional >= 100 and cancelled >= 50
    f = R4.poly("1/2*x + y")
    for h in (f.sub_scaled(0, f), f + R4.zero(), combination(R4, [(1, MONOMIAL_ONE, f)])):
        assert h == f and h._terms is not f._terms


def test_a_zero_part_adds_nothing_and_checks_only_its_ambient():
    R3 = VariableSet(("x", "y", "z"))
    x, y = R3.variable("x"), R3.variable("y")
    top = Monomial(((0, MAX_EXPONENT),))
    # the overflowing shift of a zero part is not checked
    assert combination(R3, [(0, top, x)]) == R3.zero()
    assert combination(R3, [(1, MONOMIAL_ONE, y), (Fraction(0), top, x)]) == y
    assert y.sub_scaled(0, x, top) == y == y.sub_scaled(Fraction(0, 5), x, top)
    with pytest.raises(PolyError, match=r"limit 2\^31 - 1"):
        y.sub_scaled(1, x, top)
    # its ambient is
    foreign = VariableSet(("x", "y")).variable("x")
    with pytest.raises(VariableMismatchError):
        combination(R3, [(1, MONOMIAL_ONE, y), (0, MONOMIAL_ONE, foreign)])
    with pytest.raises(VariableMismatchError):
        y.sub_scaled(0, foreign)


def test_combination_rejects_overflow_foreign_ambient_and_bad_scalars():
    x = R4.variable("x")
    near = Monomial(((1, MAX_EXPONENT),))
    assert combination(R4, [(1, Monomial(((1, MAX_EXPONENT - 1),)), x)]) == Polynomial(
        R4, {near: 1}
    )
    # above 2^31 - 1, even where the overflowing terms cancel
    for parts in (
        [(1, near, x)],
        [(1, near, x), (-1, near, x)],
        [(2, MONOMIAL_ONE, R4.poly("w + y")), (Fraction(1, 3), near, R4.poly("x*z - 1"))],
    ):
        with pytest.raises(PolyError, match=r"limit 2\^31 - 1") as err:
            combination(R4, parts)
        assert "\n" not in str(err.value)
        with pytest.raises(PolyError):
            Polynomial(R4, fraction_combination(parts))
    with pytest.raises(PolyError, match="variable outside"):
        combination(R4, [(1, Monomial(((4, 1),)), x)])
    R3 = VariableSet(("w", "x", "y"))
    for ambient in (R3, VariableSet(("w", "x", "y", "t"))):
        with pytest.raises(VariableMismatchError):
            combination(R4, [(1, MONOMIAL_ONE, x), (1, MONOMIAL_ONE, ambient.variable("x"))])
    for bad in (0.5, "1/2"):
        with pytest.raises(PolyError, match="not rational"):
            combination(R4, [(bad, MONOMIAL_ONE, x)])


def test_product_apply_image_rows_and_combination_raise_one_overflow_message():
    R3 = VariableSet(("x", "y", "z"))
    x = R3.variable("x")
    top = Monomial(((0, MAX_EXPONENT),))
    D = Derivation(R3, {"x": R3.zero(), "y": x, "z": R3.zero()})
    # each pushes x past 2^31 - 1 by one
    raisers = [
        lambda: Polynomial(R3, {top: 1}) * R3.poly("x + y"),
        lambda: x * Polynomial(R3, {top: 1, MONOMIAL_ONE: 2}),
        lambda: combination(R3, [(1, top, x)]),
        lambda: D.apply(Polynomial(R3, {top * Monomial(((1, 1),)): 3})),
        lambda: D.image_rows([top * Monomial(((1, 1),))]),
        lambda: D.image_rows([MONOMIAL_ONE], {top * Monomial(((1, 1),)): 1}),
        lambda: R3.poly("y").sub_scaled(1, x, top),
        lambda: x.sub_scaled(Fraction(-1, 2), R3.poly("x*y + 1"), top),
    ]
    messages = set()
    for raise_it in raisers:
        with pytest.raises(PolyError) as err:
            raise_it()
        messages.add(str(err.value))
    assert messages == {
        f"a term has an exponent above the limit 2^31 - 1 or a variable outside {R3!r}"
    }
    # one below the limit is fine
    edge = Polynomial(R3, {Monomial(((0, MAX_EXPONENT - 1),)): 1})
    assert str(edge * x) == f"x^{MAX_EXPONENT}" == str(D.apply(edge * R3.variable("y")))
    assert str(R3.zero().sub_scaled(-1, x, Monomial(((0, MAX_EXPONENT - 1),)))) == str(edge * x)
    # and a sum, difference or product over two ambients has one message
    R2 = VariableSet(("x", "y"))
    other = R2.variable("x")
    messages = set()
    for raise_it in (
        lambda: x + other,
        lambda: x - other,
        lambda: x * other,
        lambda: R3.zero() * R2.zero(),
        lambda: x.sub_scaled(3, other),
        lambda: combination(R3, [(1, MONOMIAL_ONE, other)]),
    ):
        with pytest.raises(VariableMismatchError) as err:
            raise_it()
        messages.add(str(err.value))
    assert messages == {f"term over {R2!r}, expected {R3!r}"}


def test_substitute_matches_earlier_loop():
    rng = random.Random(1718)
    T = VariableSet(("p", "q", "r"))
    for _ in range(120):
        f = random_poly(rng, R4, max_terms=4, max_exp=3)
        images = {name: random_poly(rng, T, max_terms=3, max_exp=2) for name in R4.names}
        got = f.substitute(images)
        assert got == looped_substitute(f, images, T) and is_canonical(got)
    with pytest.raises(VariableMismatchError):
        R4.poly("x").substitute({**images, "z": R4.variable("z")})


def test_restrict_to_zero_matches_substitute():
    # the zero-or-identity substitution it replaces is the oracle
    rng = random.Random(1719)
    top = Monomial(((1, MAX_EXPONENT), (3, MAX_EXPONENT)))
    name_sets = [[], list(R4.names), ["x"], ["w", "z"], ["z", "y", "z"]]
    for trial in range(150):
        f = random_poly(rng, R4, max_terms=6, max_exp=4)
        if trial % 10 == 0:
            f = f + Polynomial(R4, {top: 3})
        names = name_sets[trial] if trial < len(name_sets) else rng.sample(
            R4.names, rng.randint(0, len(R4))
        )
        images = {n: R4.zero() if n in names else R4.variable(n) for n in R4.names}
        got = f.restrict_to_zero(names)
        assert got == f.substitute(images) and is_canonical(got), (f, names)
        assert got.ambient is R4
    assert R4.poly("x*y + 2*w - 1").restrict_to_zero(iter(["y"])) == R4.poly("2*w - 1")
    with pytest.raises(PolyError, match="unknown variable 't'"):
        R4.poly("x").restrict_to_zero(["t"])


def test_quadric_reduce_and_divide_out_match_earlier_loops():
    rng = random.Random(1719)
    R = QUADRIC.ambient
    divisors = [QUADRIC, R.poly("2*y^2 - x"), R.poly("1/3*z*x + y"), R.poly("x - 1")]
    for _ in range(200):
        f = random_poly(rng, R, max_terms=6, max_exp=6)
        nf = divide_out(f, QUADRIC)
        assert nf == looped_divide_out(f, QUADRIC) and is_canonical(nf)
        assert is_quadric_normal(nf)
        g = rng.choice(divisors)
        rem = divide_out(f, g)
        assert rem == looped_divide_out(f, g) and is_canonical(rem)
        assert divide_out(f * g, g).is_zero()


def test_replay_matches_earlier_loop():
    RA = roberts_action()
    checked = prefixed = 0
    rng = random.Random(1720)
    for N in (1, 2):
        G = RA.catalog(N)
        names = sorted(G.polys)
        for _ in range(25):
            f = G.product(rng.sample(names, 2)) - G.product(rng.sample(names, 2)).scale(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            )
            for cert in (subduct(f, G), x_ideal_membership(f, G, ("x1", "x2", "x3"))):
                assert cert.replay(G) == looped_replay(cert, G) == f
                checked += 1
                prefixed += any(step.prefix for step in cert.steps)
    assert checked == 100 and prefixed >= 10


def test_z_capped_invariants_match_earlier_loop():
    RA = roberts_action()
    capped = 0
    for degree in _degree_box(3):
        for z_cap in (0, 1, 2):
            got = RA.graded_invariants_z_capped(degree, z_cap)
            assert got == looped_z_capped(RA, degree, z_cap)
            capped += got != RA.graded_invariants(degree)
    assert capped >= 5


@pytest.mark.parametrize(
    "degrees",
    [[n] for n in range(9)] + [[64], [4, 2], [3, 1, 0], [2, 2], [0, 5, 1], [6, 3]],
)
def test_raising_derivation_closed_form_matches_symbolic(degrees):
    rep = RepSum(degrees)
    D, oracle = build_raising_derivation(rep), symbolic_raising_derivation(rep)
    assert D.ambient == oracle.ambient
    assert D.images == oracle.images
    assert all(is_canonical(g) for g in D.images.values())
    assert D.witness == oracle.witness
