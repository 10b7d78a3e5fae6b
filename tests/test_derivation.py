import random
import time
from fractions import Fraction
from itertools import product

import pytest

from plinth.casebook import danielewski_derivation
from plinth.derivation import Derivation, NotCertifiedError
from plinth.polyring import (
    MAX_EXPONENT,
    Monomial,
    PolyError,
    Polynomial,
    VariableSet,
    WeightSystem,
)
from plinth.roberts import roberts_action
from plinth.sl2 import RepSum, build_raising_derivation
from util import (
    brute_monomials,
    chained_apply,
    exp_flow,
    extend_by_zero,
    fraction_evaluate,
    in_span,
    is_canonical,
    is_canonical_value,
    lex_key,
    naive_nullspace,
    nilpotency_orders,
    oracle_exp_flow,
    oracle_flow_coefficients,
    oracle_flow_images,
    oracle_flow_point,
    random_poly,
    xy_graded_kernel,
)

RA = roberts_action()
R7 = RA.ring
D = RA.D


def test_images_on_variables():
    assert D.apply(R7.variable("y1")) == R7.poly("x1^3")
    assert D.apply(R7.variable("z")) == R7.poly("x1^2*x2^2*x3^2")
    assert D.apply(R7.variable("x2")).is_zero()
    assert D.apply(R7.constant(9)).is_zero()


def test_u_polynomials_are_invariant():
    # D(u12) = x1^3 x2^3 - x2^3 x1^3 = 0
    assert D.apply(RA.u12).is_zero()
    assert D.apply(RA.u13).is_zero()
    assert D.apply(RA.u23).is_zero()
    assert not D.apply(R7.variable("y1")).is_zero()


def test_y0_combination_is_literally_zero():
    f = R7.poly("x1^3") * RA.u23 - R7.poly("x2^3") * RA.u13 + R7.poly("x3^3") * RA.u12
    assert f.is_zero()
    assert D.apply(f).is_zero()


def test_leibniz_rule_randomized():
    rng = random.Random(10)
    for _ in range(50):
        f = random_poly(rng, R7)
        g = random_poly(rng, R7)
        assert D.apply(f * g) == D.apply(f) * g + f * D.apply(g)


def _random_derivation(rng, ambient):
    """Random images, about a third of them zero, with Fraction coefficients."""
    return Derivation(
        ambient,
        {
            name: random_poly(rng, ambient, 3, 2) if rng.random() > 0.35 else ambient.zero()
            for name in ambient.names
        },
    )


def test_apply_matches_chained_oracle():
    rng = random.Random(1517)
    R3 = VariableSet(("a", "b", "c"))
    derivations = [D, danielewski_derivation(), build_raising_derivation(RepSum([4, 2]))]
    derivations += [_random_derivation(rng, R) for R in (R3, R7) for _ in range(6)]
    derivations.append(Derivation(R3, {name: R3.zero() for name in R3.names}))
    inputs = 0
    for Dx in derivations:
        R = Dx.ambient
        polys = [random_poly(rng, R, 8) for _ in range(12)]
        # the flow series, scaled by 1/k, and a polynomial D kills outright
        polys += [c for series in Dx._flow_coeffs.values() for c in series]
        polys += [R.zero(), R.one()]
        for f in polys:
            got = Dx.apply(f)
            assert got == chained_apply(Dx, f) and is_canonical(got)
            inputs += 1
    assert inputs > 250
    # terms that cancel to zero, and Fraction sums that become integers
    R2 = VariableSet(("x", "y"))
    rot = Derivation(R2, {"x": R2.variable("y"), "y": -R2.variable("x")})
    assert rot.apply(R2.poly("x^2 + y^2")).is_zero()
    half = Derivation(R2, {"x": R2.poly("1/2*y"), "y": R2.zero()})
    got = half.apply(R2.poly("2*x^2 + 1/3*x"))
    assert got == chained_apply(half, R2.poly("2*x^2 + 1/3*x")) and is_canonical(got)
    assert str(got) == "2*y*x + 1/6*y"


def test_apply_exponent_overflow_is_one_line_error():
    Rxyz = VariableSet(("x", "y", "z"))
    x = Rxyz.variable("x")
    Dx = Derivation(Rxyz, {"x": Rxyz.zero(), "y": x, "z": -x})
    top = Polynomial(Rxyz, {Monomial(((0, MAX_EXPONENT), (1, 1))): 1})
    # the second input's overflowing terms cancel; it is rejected all the same
    cancel = top + Polynomial(Rxyz, {Monomial(((0, MAX_EXPONENT), (2, 1))): 1})
    for f in (top, cancel):
        with pytest.raises(PolyError, match="above the limit") as err:
            Dx.apply(f)
        assert "\n" not in str(err.value)
        with pytest.raises(PolyError):
            chained_apply(Dx, f)
    below = Polynomial(Rxyz, {Monomial(((0, MAX_EXPONENT - 1), (1, 1))): 1})
    assert Dx.apply(below) == Polynomial(Rxyz, {Monomial(((0, MAX_EXPONENT),)): 1})


def test_apply_on_ten_thousand_terms_is_fast():
    rng = random.Random(1518)
    f = Polynomial(
        R7,
        {
            Monomial(enumerate(e)): Fraction(rng.randint(1, 9), rng.randint(1, 3))
            for e in product(range(4), repeat=7)
            if rng.random() < 0.6
        },
    )
    assert 9_500 < len(f) < 10_500
    start = time.perf_counter()
    image = D.apply(f)
    assert time.perf_counter() - start < 1.0
    # linearity against the images of two halves
    terms = f.terms()
    first = Polynomial(R7, dict(terms[::2]))
    second = Polynomial(R7, dict(terms[1::2]))
    assert image == D.apply(first) + D.apply(second)


def test_certify_roberts_witness():
    w = D.certify_locally_nilpotent(bound=4)
    assert w == {"x1": 1, "x2": 1, "x3": 1, "y1": 2, "y2": 2, "y3": 2, "z": 2}


def test_certify_zero_derivation():
    A = VariableSet(("a", "b"))
    Z = Derivation(A, {"a": A.zero(), "b": A.zero()})
    assert Z.certify_locally_nilpotent() == {"a": 1, "b": 1}


def test_certify_partial_derivative():
    A = VariableSet(("x", "y"))
    Dy = Derivation(A, {"x": A.zero(), "y": A.one()})
    assert Dy.certify_locally_nilpotent() == {"x": 1, "y": 2}


def test_certify_bound_exceeded_is_distinct():
    A = VariableSet(("x",))
    E = Derivation(A, {"x": A.variable("x")})  # not locally nilpotent
    with pytest.raises(NotCertifiedError):
        E.certify_locally_nilpotent(bound=6)


def test_flow_requires_certificate():
    A = VariableSet(("x", "y"))
    Dy = Derivation(A, {"x": A.zero(), "y": A.variable("x")})
    with pytest.raises(NotCertifiedError):
        exp_flow(Dy, A.variable("y"))
    Dy.certify_locally_nilpotent()
    flowed = exp_flow(Dy, A.variable("y"))
    assert str(flowed) == "s*x + y"


def test_flow_reproduces_action_formula():
    extended, images = D.flow_images()
    s = extended.variable("s")
    assert images["y1"] == extended.variable("y1") + s * extended.poly("x1^3")
    assert images["z"] == extended.variable("z") + s * extended.poly("x1^2*x2^2*x3^2")
    assert images["x1"] == extended.variable("x1")


def test_flow_at_zero_is_identity():
    rng = random.Random(11)
    for _ in range(20):
        f = random_poly(rng, R7)
        assert exp_flow(D, f, Fraction(0)) == f


def test_flow_group_law_symbolic():
    # exp(sD) after exp(tD) equals exp((s+t)D), exactly in both parameters
    ext_t, flow_t = D.flow_images("t")
    D_t = extend_by_zero(D, ext_t)
    for name in ("y2", "z"):
        once = flow_t[name]
        twice = exp_flow(D_t, once, param="s")
        ext_st = twice.ambient
        combined = exp_flow(D, R7.variable(name), param="u")
        images = {
            **{v: ext_st.variable(v) for v in R7.names},
            combined.ambient.names[-1]: ext_st.variable("s") + ext_st.variable("t"),
        }
        assert twice == combined.substitute(images, ext_st)


def test_invariants_are_flow_constant():
    for f in (RA.u12, RA.beta(1, 1), RA.beta(2, 2)):
        flowed = exp_flow(D, f)
        assert flowed == f.lift(flowed.ambient)


def test_flow_point_matches_numeric_flow():
    point = {"x1": 1, "x2": 2, "x3": 3, "y1": 0, "y2": 0, "y3": 0, "z": 0}
    moved = D.flow_point(point, Fraction(5))
    assert moved == {
        "x1": 1, "x2": 2, "x3": 3,
        "y1": Fraction(5), "y2": Fraction(40), "y3": Fraction(135),
        "z": Fraction(180),
    }


FLOW_CASES = ["roberts", "danielewski", "V[4]+V[2]", "lift"]


def _flow_case(which: str) -> Derivation:
    if which == "roberts":
        return D
    if which == "danielewski":
        return danielewski_derivation()
    if which == "lift":
        # both default parameter names are taken by variables of the lift
        return extend_by_zero(D, R7.extend(("t", "s")))
    return build_raising_derivation(RepSum.parse(which))


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


@pytest.mark.parametrize("which", FLOW_CASES)
def test_flow_matches_extended_ring_oracle(which):
    Dc = _flow_case(which)
    for param in ("s", "t", Dc.ambient.names[0]):
        extended, images = Dc.flow_images(param)
        want_extended, want = oracle_flow_images(Dc, param)
        assert extended == want_extended and extended.names[-1] not in Dc.ambient
        assert images == want
        assert all(is_canonical(f) for f in images.values())
    coeffs = Dc.flow_coefficients()
    assert coeffs == oracle_flow_coefficients(Dc)
    rng = random.Random(sum(map(ord, which)))
    for _ in range(6):
        f = random_poly(rng, Dc.ambient, max_exp=2)
        assert exp_flow(Dc, f) == oracle_exp_flow(Dc, f)
        assert exp_flow(Dc, f, param="t") == oracle_exp_flow(Dc, f, param="t")
        s = _rational(rng)
        assert exp_flow(Dc, f, s) == oracle_exp_flow(Dc, f, s)
    # rational points, then all-int ones, the path the samplers take
    for draw in [_rational] * 20 + [lambda rng: rng.randint(-9, 9)] * 20:
        point = {n: draw(rng) for n in Dc.ambient.names}
        s = draw(rng)
        at = Dc.flow_at(point)
        assert at == {
            n: [fraction_evaluate(c, point) for c in series] for n, series in coeffs.items()
        }
        assert all(is_canonical_value(x) for xs in at.values() for x in xs), at
        moved = Dc.flow_point(point, s)
        assert moved == oracle_flow_point(Dc, point, s)
        assert all(is_canonical_value(x) for x in moved.values()), moved


@pytest.mark.parametrize("which", FLOW_CASES)
def test_witness_orders_are_the_series_lengths(which):
    Dc = _flow_case(which)
    orders = nilpotency_orders(Dc)
    assert Dc.witness == orders
    assert {n: len(c) for n, c in Dc.flow_coefficients().items()} == orders


def test_certify_bound_message_is_unchanged():
    fresh = Derivation(R7, D.images)
    with pytest.raises(
        NotCertifiedError, match=r"^D\^1\(y1\) still nonzero; not certified within bound$"
    ):
        fresh.certify_locally_nilpotent(bound=1)
    assert fresh.witness is None
    assert fresh.certify_locally_nilpotent(bound=2) == D.witness
    A = VariableSet(("x",))
    E = Derivation(A, {"x": A.variable("x")})
    with pytest.raises(
        NotCertifiedError, match=r"^D\^6\(x\) still nonzero; not certified within bound$"
    ):
        E.certify_locally_nilpotent(bound=6)


@pytest.mark.parametrize("bad", [0.1, "1/2"])
def test_flow_rejects_non_rational_times_and_points(bad):
    # an all-int base point: one bad coordinate leaves the int fast path
    point = {n: k - 3 for k, n in enumerate(R7.names)}
    for call in (
        lambda: D.flow_point(point, bad),
        lambda: D.flow_point({**point, "y2": bad}, 1),
        lambda: D.flow_at({**point, "z": bad}),
        lambda: exp_flow(D, R7.variable("y1"), bad),
    ):
        with pytest.raises(PolyError) as err:
            call()
        assert repr(bad) in str(err.value) and "\n" not in str(err.value)
    # y1 and z missing, y3 bad: the first missing variable is named
    missing = {n: v for n, v in point.items() if n not in ("y1", "z")}
    for call in (
        lambda: D.flow_at(missing),
        lambda: D.flow_point({**missing, "y3": bad}, 1),
    ):
        with pytest.raises(PolyError) as err:
            call()
        assert str(err.value) == "no value for variable 'y1'"


def test_weight_shift_inferred():
    assert D.weight_shift(RA.weights) == (0, 0, 0)
    bad = Derivation(R7, {**D.images, "y1": R7.poly("x1^2")})
    with pytest.raises(Exception):
        bad.weight_shift(RA.weights)


def test_graded_kernel_checks_homogeneity_once_per_weight_system(monkeypatch):
    E = Derivation(R7, D.images)
    calls = []
    real = Derivation.weight_shift
    monkeypatch.setattr(
        Derivation, "weight_shift", lambda self, ws: calls.append(ws) or real(self, ws)
    )
    first = E.graded_kernel(RA.weights, (3, 2, 2))
    assert E.graded_kernel(RA.weights, (3, 2, 2)) == first
    E.graded_kernel(RA.weights, (1, 1, 1))
    assert calls == [RA.weights]
    same_weights = WeightSystem(R7, RA.weights.weights)
    assert E.graded_kernel(same_weights, (3, 2, 2)) == first
    assert calls == [RA.weights, same_weights]
    # a derivation that is not homogeneous fails on every call
    bad = Derivation(R7, {**D.images, "y1": R7.poly("x1^2")})
    for _ in range(2):
        with pytest.raises(PolyError, match="not weight-homogeneous"):
            bad.graded_kernel(RA.weights, (3, 2, 2))


def test_cached_answers_cannot_be_changed_by_a_caller():
    # a caller that appends to a cached kernel, or rebinds a flow series,
    # leaves every later answer as it was
    basis = RA.graded_invariants((3, 2, 2))
    with pytest.raises(AttributeError):
        basis.append(R7.variable("x1"))
    assert len(RA.graded_invariants((3, 2, 2))) == len(basis) == 2
    assert len(RA.graded_invariants_z_capped((3, 2, 2), 2)) == 2
    E = Derivation(R7, D.images)
    E.certify_locally_nilpotent()
    series = E.flow_coefficients()
    with pytest.raises(AttributeError):
        series["z"].append(R7.one())
    series["z"] = ()
    assert E.flow_coefficients() == D.flow_coefficients() != series
    assert E.flow_at({n: 1 for n in R7.names}) == D.flow_at({n: 1 for n in R7.names})


def test_graded_kernel_322_xy():
    got = xy_graded_kernel(RA, (3, 2, 2))
    assert got == [R7.poly("x1^3*x2^2*x3^2")]


def test_graded_kernel_544_xy_matches_stated_basis():
    got = xy_graded_kernel(RA, (5, 4, 4))
    assert len(got) == 3
    stated = [
        R7.poly("x1^5*x2^4*x3^4"),
        R7.poly("x1^2*x2*x3^4") * RA.u12,
        R7.poly("x1^2*x2^4*x3") * RA.u13,
    ]
    # same span, both directions
    monos = sorted(
        {m for p in got + stated for m in p.monomials()}
    )
    import plinth.linalg as linalg

    vec = lambda p: [p.coefficient(m) for m in monos]
    assert linalg.same_span([vec(p) for p in got], [vec(p) for p in stated])


def test_graded_kernel_322_full_contains_beta11():
    got = D.graded_kernel(RA.weights, (3, 2, 2))
    assert len(got) == 2
    monos = sorted(
        {m for p in got for m in p.monomials()}
        | set(RA.beta(1, 1).monomials())
        | set(R7.poly("x1^3*x2^2*x3^2").monomials())
    )
    vec = lambda p: [p.coefficient(m) for m in monos]
    span = [vec(p) for p in got]
    assert in_span(span, vec(RA.beta(1, 1)))
    assert in_span(span, vec(R7.poly("x1^3*x2^2*x3^2")))


def test_graded_kernel_oracle_cross_check():
    # independent route: build the matrix by hand and use the naive solver
    mons = RA.weights.monomial_basis((3, 2, 2))
    key = lambda m: lex_key(R7, m)
    cols = sorted(mons, key=key, reverse=True)
    images = [D.apply(Polynomial(R7, {m: Fraction(1)})) for m in cols]
    rows_monos = sorted({m for g in images for m in g.monomials()}, key=key)
    matrix = [[g.coefficient(rm) for g in images] for rm in rows_monos]
    naive = naive_nullspace(matrix, len(cols))
    ours = D.graded_kernel(RA.weights, (3, 2, 2))
    assert len(naive) == len(ours)


def _sympy_kernel_dimension(D, ws, degree):
    """Nullity of D on one graded piece, with sympy doing the algebra.

    The monomial basis comes from brute-force enumeration, the image of
    each basis monomial from ``sympy.diff`` and the rank from a sympy
    matrix, so no code is shared with ``kernel_on_monomials``.
    """
    sympy = pytest.importorskip("sympy")
    names = D.ambient.names
    xs = sympy.symbols(names)
    symbols = dict(zip(names, xs))
    images = [
        sympy.sympify(str(D.images[n]).replace("^", "**"), locals=symbols)
        for n in names
    ]
    columns = []
    for pairs in brute_monomials(list(ws.weights), tuple(degree), list(range(len(xs)))):
        mono = sympy.Mul(*(xs[i] ** e for i, e in pairs))
        image = sympy.expand(sum(sympy.diff(mono, x) * g for x, g in zip(xs, images)))
        columns.append(sympy.Poly(image, *xs).as_dict() if image != 0 else {})
    rows = sorted(set().union(*columns))
    if not rows:
        return len(columns)
    matrix = sympy.Matrix(
        len(rows), len(columns), lambda r, c: columns[c].get(rows[r], 0)
    )
    return len(columns) - matrix.rank()


@pytest.mark.parametrize(
    "ring, degree",
    [
        ("roberts", (3, 2, 2)),
        ("roberts", (3, 3, 0)),
        ("roberts", (4, 4, 4)),
        ("roberts", (5, 4, 4)),
        ("V[4]", (2, 0)),
        ("V[4]", (3, 0)),
        ("V[4]", (3, 2)),
        ("V[4]", (4, 0)),
        ("V[4]+V[2]", (2, 0)),
        ("V[4]+V[2]", (3, 0)),
        ("V[4]+V[2]", (3, 2)),
        ("V[4]+V[2]", (4, 0)),
    ],
)
def test_graded_kernel_dimension_matches_sympy(ring, degree):
    if ring == "roberts":
        derivation, ws, piece = D, RA.weights, degree
    else:
        rep = RepSum.parse(ring)
        derivation, ws = build_raising_derivation(rep), rep.weight_system()
        piece = rep.piece(*degree)
    got = derivation.graded_kernel(ws, piece)
    assert len(got) == _sympy_kernel_dimension(derivation, ws, piece)


def test_graded_kernel_elements_recheck_invariant():
    for degree in ((3, 2, 2), (5, 4, 4), (4, 4, 4)):
        for p in D.graded_kernel(RA.weights, degree):
            assert D.apply(p).is_zero()


def test_kernel_is_multiplicatively_closed():
    a = D.graded_kernel(RA.weights, (3, 2, 2))
    b = D.graded_kernel(RA.weights, (3, 3, 0))
    for p in a:
        for q in b:
            assert D.apply(p * q).is_zero()


def test_known_invariants_lie_in_matching_kernel_spans():
    cases = [
        (RA.u12, (3, 3, 0)),
        (RA.u13, (3, 0, 3)),
        (RA.u23, (0, 3, 3)),
        (RA.beta(1, 1), (3, 2, 2)),
        (RA.beta(2, 2), (4, 5, 4)),
    ]
    for f, degree in cases:
        basis = D.graded_kernel(RA.weights, degree)
        monos = sorted(
            {m for p in basis for m in p.monomials()} | set(f.monomials())
        )
        vec = lambda p: [p.coefficient(m) for m in monos]
        assert in_span([vec(p) for p in basis], vec(f)), degree


def test_local_slice_checks():
    assert D.local_slice_check(R7.poly("x1^3"), R7.variable("y1"))
    assert D.local_slice_check(R7.poly("x1^2*x2^2*x3^2"), R7.variable("z"))
    assert not D.local_slice_check(RA.u12, R7.variable("y1"))
