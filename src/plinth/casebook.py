"""Self-contained verifications of two small quotient case studies.

First, the monomial subring R = k + x*k[x,y] of the plane (generated by
x, xy, xy^2, ...): membership, the three-case description of the
conductor f*k[x,y] /\\ R, and the fact that the map (x, y) -> (x, xy)
separates exactly as the full generator list does.

Second, the smooth affine quadric xz - y^2 + y = 0 with the flow generated
by (2y-1) d/dx + z d/dy: the quotient map from the 2x2 matrix group, the
plinth structure of the fiber over zero, and the order-2 symmetry
(x, y, z) -> (-x, 1-y, -z) whose quotient carries z^2 as its coordinate.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .derivation import Derivation
from .polyring import Monomial, PolyError, Polynomial, VariableSet, WeightSystem
from .polyring import coefficient_matrix, combination
from .report import Checker, VerificationReport
from .separating import solve_group_element

PLANE = VariableSet(("x", "y"))
# In the lex order x < y < z the leading monomial of the quadric is xz.  One
# polynomial is a Groebner basis of the ideal it generates, so the remainder
# divide_out(f, QUADRIC), no monomial of it divisible by xz, is the unique
# normal form of f on the surface.
QUADRIC = VariableSet(("x", "y", "z")).poly("x*z - y^2 + y")


def example1_membership(f: Polynomial) -> bool:
    """Is f in k + x*k[x,y]?  True iff every nonconstant monomial has an x."""
    x_index = f.ambient.index("x")
    return all(
        m.is_one() or m.exponent(x_index) >= 1 for m in f.monomials()
    )


def _monomials_up_to(ring: VariableSet, bound: int) -> list[Monomial]:
    """Every monomial of total degree <= bound, from degree bound down to 0."""
    ws = WeightSystem(ring, [(1,)] * len(ring))
    return [m for d in range(bound, -1, -1) for m in ws.monomial_basis((d,))]


def _membership_constraint_rows(
    f: Polynomial, h_monomials: list[Monomial]
) -> list[list[Fraction | int]]:
    """Rows of the condition 'f*h lies in R', linear in the coefficients of h.

    One row per pure power y^b (b >= 1) that can appear in the product.
    """
    x_index = f.ambient.index("x")
    y_index = f.ambient.index("y")
    products = [f * Polynomial(f.ambient, {m: Fraction(1)}) for m in h_monomials]
    return coefficient_matrix(
        products, lambda m: m.exponent(x_index) == 0 and m.exponent(y_index) >= 1
    )


def example1_conductor_check(f: Polynomial, degree_bound: int = 6) -> VerificationReport:
    """Classify f and verify the matching description of f*k[x,y] /\\ R.

    The three cases: f inside the maximal ideal x*k[x,y] gives the whole
    principal ideal; f in R with nonzero constant term gives f*R; f outside
    R gives (x*f)*R.  The equality is verified degree by degree up to the
    bound by comparing the exact solution space of 'f*h in R' with the
    claimed span.
    """
    if f.is_zero():
        raise PolyError("conductor check needs a nonzero polynomial")
    in_R = example1_membership(f)
    in_m0 = in_R and f.constant_term() == 0
    if in_m0:
        case = "case_m0"
    elif in_R:
        case = "case_R_minus_m0"
    else:
        case = "case_not_in_R"
    checker = Checker(
        "example1.conductor",
        "f*k[x,y] meets R in f*k[x,y], f*R or (x f)*R according to the case",
        {"f": str(f), "degree_bound": degree_bound, "case": case},
    )
    h_monomials = _monomials_up_to(f.ambient, degree_bound)
    rows = _membership_constraint_rows(f, h_monomials)
    solution = linalg.nullspace(rows, len(h_monomials))
    x_index = f.ambient.index("x")
    claimed = [
        {j: 1}
        for j, m in enumerate(h_monomials)
        if case == "case_m0"
        or m.exponent(x_index) >= 1
        or case == "case_R_minus_m0" and m.is_one()
    ]
    checker.require(
        linalg.same_span(solution, claimed),
        {
            "detail": "solution space of 'f*h in R' differs from the claimed span",
            "solution_dim": linalg.rank(solution),
            "claimed_dim": linalg.rank(claimed),
        },
    )
    checker.note(f"h-space dimension {len(claimed)} of {len(h_monomials)} at the bound")
    return checker.report()


def example1_phi_separation(
    trials: int = 500, generator_bound: int = 6, seed: int = 1729
) -> VerificationReport:
    """(x, y) -> (x, x*y) separates exactly as the generators x*y^k do."""
    checker = Checker(
        "example1.phi",
        "equality of (x, x*y) at two points is equality of all x*y^k",
        {"trials": trials, "generator_bound": generator_bound, "seed": seed},
    )
    rng = random.Random(seed)
    gens = [PLANE.poly("x" if k == 0 else f"x*y^{k}") for k in range(generator_bound + 1)]
    phi = (PLANE.poly("x"), PLANE.poly("x*y"))
    for trial in range(trials):
        p = {"x": Fraction(rng.randint(-6, 6)), "y": Fraction(rng.randint(-9, 9))}
        q = {"x": Fraction(rng.randint(-6, 6)), "y": Fraction(rng.randint(-9, 9))}
        if trial % 4 == 0:
            p["x"] = Fraction(0)
            q["x"] = Fraction(0)
        if trial % 7 == 0:
            q = dict(p)
        at_p, at_q = PLANE.integer_point(p), PLANE.integer_point(q)
        gens_equal = all(g.agrees(at_p, at_q) for g in gens)
        phi_equal = all(c.agrees(at_p, at_q) for c in phi)
        if gens_equal != phi_equal:
            checker.require(
                False,
                {
                    "trial": trial,
                    "p": (str(p["x"]), str(p["y"])),
                    "q": (str(q["x"]), str(q["y"])),
                    "generators_equal": gens_equal,
                    "phi_equal": phi_equal,
                },
            )
    return checker.report()


def divide_out(f: Polynomial, g: Polynomial) -> Polynomial:
    """Remainder of f on division by the single polynomial g (exact)."""
    lt_m, lt_c = g.leading_term()
    one = f.ambient.one()
    remainder = []
    cur = f
    while not cur.is_zero():
        m, c = cur.leading_term()
        if lt_m.divides(m):
            cur = cur.sub_scaled(Fraction(c) / lt_c, g, m.divide(lt_m))
        else:
            remainder.append((c, m, one))
            cur = cur.sub_scaled(c, one, m)
        if not cur.is_zero() and cur.leading_monomial() >= m:
            raise PolyError("division failed to decrease the leading term")
    return combination(f.ambient, remainder)


def danielewski_derivation() -> Derivation:
    """(2y - 1) d/dx + z d/dy on k[x,y,z]; it kills the quadric exactly."""
    R = VariableSet(("x", "y", "z"))
    D = Derivation(
        R,
        {"x": R.poly("2*y - 1"), "y": R.variable("z"), "z": R.zero()},
    )
    D.certify_locally_nilpotent(bound=4)
    return D


def danielewski_checks(samples: int = 50, seed: int = 1729) -> VerificationReport:
    """The quadric surface as a quotient of the 2x2 matrix group.

    (i) the map (a,b,c,d) -> (ab, ad, cd) lands on the quadric modulo the
    determinant relation; (ii) the induced derivation kills the quadric and
    has z as plinth element with slice y; (iii) left multiplication by the
    unipotent flow projects exactly to the derivation's flow; (iv) the
    fiber over z = 0 is the pair of disjoint lines y = 0 and y = 1, each a
    single orbit; (v) points with equal nonzero z lie on one orbit.
    """
    checker = Checker(
        "danielewski",
        "quadric surface: quotient map, plinth structure, fiber over zero",
        {"samples": samples, "seed": seed},
    )
    Rq = QUADRIC.ambient
    # order the matrix entries so that LT(ad - bc - 1) = bc
    Rm = VariableSet(("a", "d", "b", "c"))
    det_rel = Rm.poly("a*d - b*c - 1")
    pi = {
        "x": Rm.poly("a*b"),
        "y": Rm.poly("a*d"),
        "z": Rm.poly("c*d"),
    }

    # (i) the image satisfies the quadric equation modulo the determinant
    image_q = QUADRIC.substitute(pi)
    checker.require(
        divide_out(image_q, det_rel).is_zero(),
        {"part": "i", "residue": str(image_q)},
    )

    # (ii) derivation facts
    D = danielewski_derivation()
    checker.require(D.apply(QUADRIC).is_zero(), {"part": "ii", "detail": "D(quadric) != 0"})
    checker.require(D.apply(Rq.variable("z")).is_zero(), {"part": "ii", "detail": "D(z) != 0"})
    checker.require(
        D.local_slice_check(Rq.variable("z"), Rq.variable("y")),
        {"part": "ii", "detail": "z is not certified by the slice y"},
    )

    # (iii) matrix flow vs surface flow, exactly in the parameter
    extended_m = Rm.extend(("s",))
    s = extended_m.variable("s")
    matrix_flow = {
        "a": extended_m.variable("a") + s * extended_m.variable("c"),
        "b": extended_m.variable("b") + s * extended_m.variable("d"),
        "c": extended_m.variable("c"),
        "d": extended_m.variable("d"),
        "s": s,
    }
    det_lift = det_rel.lift(extended_m)
    extended_q, surface_flow = D.flow_images("s")
    embed = {
        "x": pi["x"].lift(extended_m),
        "y": pi["y"].lift(extended_m),
        "z": pi["z"].lift(extended_m),
        "s": s,
    }
    for name in ("x", "y", "z"):
        matrix_side = pi[name].lift(extended_m).substitute(matrix_flow)
        surface_side = surface_flow[name].substitute(embed)
        checker.require(
            divide_out(matrix_side - surface_side, det_lift).is_zero(),
            {"part": "iii", "coordinate": name},
        )

    # (iv) the fiber over z = 0
    at_z0 = QUADRIC.restrict_to_zero(["z"])
    expected = -(Rq.variable("y") * (Rq.variable("y") - Rq.one()))
    checker.require(
        at_z0 == expected,
        {"part": "iv", "observed": str(at_z0), "expected": str(expected)},
    )
    rng = random.Random(seed)
    for _ in range(samples):
        t, u, step = (Fraction(rng.randint(-9, 9)) for _ in range(3))
        p_line1 = {"x": t, "y": Fraction(1), "z": Fraction(0)}
        moved = D.flow_point(p_line1, step)
        checker.require(
            moved == {"x": t + step, "y": Fraction(1), "z": Fraction(0)},
            {"part": "iv", "detail": "flow leaves the line y=1"},
        )
        p_line0 = {"x": u, "y": Fraction(0), "z": Fraction(0)}
        moved = D.flow_point(p_line0, step)
        checker.require(
            moved == {"x": u - step, "y": Fraction(0), "z": Fraction(0)},
            {"part": "iv", "detail": "flow leaves the line y=0"},
        )
        # within a line the flow is transitive; across lines nothing moves
        other = {"x": t + Fraction(rng.randint(-9, 9)), "y": Fraction(1), "z": Fraction(0)}
        checker.require(
            solve_group_element(p_line1, other, D) is not None,
            {"part": "iv", "detail": "line y=1 is not a single orbit"},
        )
        checker.require(
            solve_group_element(p_line1, p_line0, D) is None,
            {"part": "iv", "detail": "the two lines meet under the flow"},
        )

    # (v) equal nonzero z means one orbit
    for _ in range(samples):
        zval = Fraction(0)
        while zval == 0:
            zval = Fraction(rng.randint(-9, 9))
        y1, y2 = (Fraction(rng.randint(-9, 9)) for _ in range(2))
        p = {"x": (y1 * y1 - y1) / zval, "y": y1, "z": zval}
        q = {"x": (y2 * y2 - y2) / zval, "y": y2, "z": zval}
        found = solve_group_element(p, q, D)
        if found is None or D.flow_point(p, found) != q:
            checker.require(False, {"part": "v", "p": str(p), "q": str(q)})
    return checker.report()


def _sigma_images(R: VariableSet) -> dict[str, Polynomial]:
    """The involution (x, y, z) -> (-x, 1 - y, -z) as images over R; every
    other variable of R is fixed."""
    images = {name: R.variable(name) for name in R.names}
    images.update(x=-R.variable("x"), y=R.one() - R.variable("y"), z=-R.variable("z"))
    return images


def sigma_hat(f: Polynomial) -> Polynomial:
    """The substitution (x, y, z) -> (-x, 1 - y, -z)."""
    return f.substitute(_sigma_images(f.ambient))


def sl2_mod_n_checks(degree_bound: int = 6) -> VerificationReport:
    """The order-2 symmetry of the quadric and its quotient coordinate.

    The involution sigma: (x,y,z) -> (-x, 1-y, -z) preserves the quadric,
    commutes with the flow up to the sign of its parameter (sigma after
    flow_s is compared with flow_(+s) and flow_(-s) after sigma, so the sign
    is computed, not assumed), negates the quotient coordinate z, and leaves
    z^2 as the coordinate of the double quotient: among flow invariants of
    degree <= bound fixed by the involution, the normal forms modulo the
    quadric (``divide_out``) span exactly the even powers of z.
    """
    checker = Checker(
        "sl2_mod_n",
        "involution of the quadric: z -> -z downstairs, z^2 survives",
        {"degree_bound": degree_bound},
    )
    R = QUADRIC.ambient
    checker.require(
        sigma_hat(QUADRIC) == QUADRIC,
        {"part": "quadric", "image": str(sigma_hat(QUADRIC))},
    )
    ident = all(sigma_hat(sigma_hat(R.variable(n))) == R.variable(n) for n in R.names)
    checker.require(ident, {"part": "involution", "detail": "not an involution"})

    D = danielewski_derivation()
    extended, flow = D.flow_images("s")
    sigma = _sigma_images(extended)
    s = extended.variable("s")
    # sigma after flow_s: sigma's images with x, y, z replaced by the flow
    sigma_after_flow = [sigma[n].substitute({**flow, "s": s}) for n in R.names]
    sign_found = None
    for sign in (1, -1):
        # flow_(sign*s) after sigma: the flow with sigma's images for x, y, z
        scaled = {**sigma, "s": s.scale(sign)}
        if [flow[n].substitute(scaled) for n in R.names] == sigma_after_flow:
            sign_found = sign
            break
    if checker.require(
        sign_found is not None,
        {"part": "commutation", "detail": "no sign makes the flows commute"},
    ):
        checker.note(f"commutation sign: {sign_found:+d} (the maps commute exactly)")

    z = R.variable("z")
    checker.require(sigma_hat(z) == -z, {"part": "quotient", "detail": "z not negated"})
    z2 = z * z
    checker.require(
        sigma_hat(z2) == z2 and D.apply(z2).is_zero(),
        {"part": "quotient", "detail": "z^2 not invariant"},
    )

    # joint kernel of the flow and the involution in degree <= bound,
    # reduced to normal form on the quadric
    monos = _monomials_up_to(R, degree_bound)
    basis = [Polynomial(R, {m: 1}) for m in monos]
    rows = D.image_rows(monos) + coefficient_matrix([sigma_hat(p) - p for p in basis])
    combos = linalg.nullspace(rows, len(monos))
    reduced_polys = [
        divide_out(Polynomial(R, {m: c for m, c in zip(monos, vec) if c}), QUADRIC)
        for vec in combos
    ]
    # z^(2k) has no monomial divisible by xz, so it is its own normal form
    even_z = [R.poly(f"z^{2 * k}") for k in range(degree_bound // 2 + 1)]
    # the normal forms as columns: two spans agree when both have the rank
    # of their union
    observed = linalg.rank(coefficient_matrix(reduced_polys))
    checker.require(
        observed
        == linalg.rank(coefficient_matrix(even_z))
        == linalg.rank(coefficient_matrix(reduced_polys + even_z)),
        {"part": "quotient-ring", "observed_dim": observed, "expected_dim": len(even_z)},
    )
    checker.note(
        f"invariant normal forms span the even z-powers up to degree {degree_bound}"
    )
    return checker.report()
