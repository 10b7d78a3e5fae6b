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
from .polyring import Monomial, PolyError, Polynomial, VariableSet, coefficient_matrix
from .report import Checker, VerificationReport
from .separating import solve_group_element

PLANE = VariableSet(("x", "y"))


def example1_membership(f: Polynomial) -> bool:
    """Is f in k + x*k[x,y]?  True iff every nonconstant monomial has an x."""
    x_index = f.ambient.index("x")
    return all(
        m.is_one() or m.exponent(x_index) >= 1 for m in f.monomials()
    )


def _plane_monomials(bound: int) -> list[Monomial]:
    out = []
    for a in range(bound + 1):
        for b in range(bound + 1 - a):
            out.append(Monomial(((0, a), (1, b))))
    return out


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
    h_monomials = _plane_monomials(degree_bound)
    rows = _membership_constraint_rows(f, h_monomials)
    solution = linalg.nullspace(rows, len(h_monomials))
    x_index = f.ambient.index("x")

    def unit(m: Monomial) -> list[Fraction]:
        return [Fraction(1 if mm == m else 0) for mm in h_monomials]

    if case == "case_m0":
        claimed = [unit(m) for m in h_monomials]
    elif case == "case_R_minus_m0":
        claimed = [
            unit(m)
            for m in h_monomials
            if m.is_one() or m.exponent(x_index) >= 1
        ]
    else:
        claimed = [unit(m) for m in h_monomials if m.exponent(x_index) >= 1]
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
        gens_equal = all(
            g.evaluate_integer(*at_p) == g.evaluate_integer(*at_q) for g in gens
        )
        phi_equal = all(
            c.evaluate_integer(*at_p) == c.evaluate_integer(*at_q) for c in phi
        )
        checker.require(
            gens_equal == phi_equal,
            {
                "trial": trial,
                "p": (str(p["x"]), str(p["y"])),
                "q": (str(q["x"]), str(q["y"])),
                "generators_equal": gens_equal,
                "phi_equal": phi_equal,
            },
        )
    return checker.report()


class QuadricRing:
    """k[x,y,z] modulo y^2 = y + x*z, kept in the normal form y-degree <= 1."""

    def __init__(self) -> None:
        self.ambient = VariableSet(("x", "y", "z"))
        self.quadric = self.ambient.poly("x*z - y^2 + y")
        # y^e = alpha_e(x z) * y + beta_e(x z)
        self._alpha_beta: list[tuple[Polynomial, Polynomial]] = [
            (self.ambient.zero(), self.ambient.one()),
            (self.ambient.one(), self.ambient.zero()),
        ]

    def _powers(self, e: int) -> tuple[Polynomial, Polynomial]:
        t = self.ambient.poly("x*z")
        while len(self._alpha_beta) <= e:
            alpha, beta = self._alpha_beta[-1]
            self._alpha_beta.append((alpha + beta, alpha * t))
        return self._alpha_beta[e]

    def reduce(self, f: Polynomial) -> Polynomial:
        """The unique normal form of f modulo the quadric relation."""
        y_index = self.ambient.index("y")
        out = self.ambient.zero()
        for m, c in f.terms():
            e = m.exponent(y_index)
            if e <= 1:
                out = out + Polynomial(self.ambient, {m: c})
                continue
            rest = Polynomial(
                self.ambient, {m.divide(Monomial(((y_index, e),))): c}
            )
            alpha, beta = self._powers(e)
            out = out + rest * (alpha * self.ambient.variable("y") + beta)
        return out

    def is_normal(self, f: Polynomial) -> bool:
        return f.max_exponent("y") <= 1


def divide_out(f: Polynomial, g: Polynomial) -> Polynomial:
    """Remainder of f on division by the single polynomial g (exact)."""
    lt_m, lt_c = g.leading_term()
    remainder = f.ambient.zero()
    cur = f
    while not cur.is_zero():
        m, c = cur.leading_term()
        if lt_m.divides(m):
            cur = cur.sub_scaled(Fraction(c) / lt_c, g, m.divide(lt_m))
        else:
            head = Polynomial(f.ambient, {m: c})
            remainder = remainder + head
            cur = cur - head
        if not cur.is_zero() and cur.leading_monomial() >= m:
            raise PolyError("division failed to decrease the leading term")
    return remainder


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
    Q = QuadricRing()
    Rq = Q.ambient
    # order the matrix entries so that LT(ad - bc - 1) = bc
    Rm = VariableSet(("a", "d", "b", "c"))
    det_rel = Rm.poly("a*d - b*c - 1")
    pi = {
        "x": Rm.poly("a*b"),
        "y": Rm.poly("a*d"),
        "z": Rm.poly("c*d"),
    }

    # (i) the image satisfies the quadric equation modulo the determinant
    image_q = Q.quadric.substitute(pi, Rm)
    checker.require(
        divide_out(image_q, det_rel).is_zero(),
        {"part": "i", "residue": str(image_q)},
    )

    # (ii) derivation facts
    D = danielewski_derivation()
    checker.require(D.apply(Q.quadric).is_zero(), {"part": "ii", "detail": "D(quadric) != 0"})
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
        matrix_side = pi[name].lift(extended_m).substitute(matrix_flow, extended_m)
        surface_side = surface_flow[name].substitute(embed, extended_m)
        checker.require(
            divide_out(matrix_side - surface_side, det_lift).is_zero(),
            {"part": "iii", "coordinate": name},
        )

    # (iv) the fiber over z = 0
    at_z0 = Q.quadric.substitute(
        {"x": Rq.variable("x"), "y": Rq.variable("y"), "z": Rq.zero()}, Rq
    )
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
        checker.require(
            found is not None and D.flow_point(p, found) == q,
            {"part": "v", "p": str(p), "q": str(q)},
        )
    return checker.report()


def sigma_hat(f: Polynomial) -> Polynomial:
    """The substitution (x, y, z) -> (-x, 1 - y, -z)."""
    R = f.ambient
    return f.substitute(
        {
            "x": -R.variable("x"),
            "y": R.one() - R.variable("y"),
            "z": -R.variable("z"),
        },
        R,
    )


def sl2_mod_n_checks(degree_bound: int = 6) -> VerificationReport:
    """The order-2 symmetry of the quadric and its quotient coordinate.

    The involution (x,y,z) -> (-x, 1-y, -z) preserves the quadric, commutes
    with the flow (the sign of the commutation is computed, not assumed),
    negates the quotient coordinate z, and leaves z^2 as the coordinate of
    the double quotient: among flow invariants of degree <= bound fixed by
    the involution, the normal forms span exactly the even powers of z.
    """
    checker = Checker(
        "sl2_mod_n",
        "involution of the quadric: z -> -z downstairs, z^2 survives",
        {"degree_bound": degree_bound},
    )
    Q = QuadricRing()
    R = Q.ambient
    checker.require(
        sigma_hat(Q.quadric) == Q.quadric,
        {"part": "quadric", "image": str(sigma_hat(Q.quadric))},
    )
    ident = sigma_hat(sigma_hat(R.variable("x"))) == R.variable("x") and sigma_hat(
        sigma_hat(R.variable("y"))
    ) == R.variable("y")
    checker.require(ident, {"part": "involution", "detail": "not an involution"})

    D = danielewski_derivation()
    extended, flow = D.flow_images("s")
    sigma_images = {
        "x": -extended.variable("x"),
        "y": extended.one() - extended.variable("y"),
        "z": -extended.variable("z"),
        "s": extended.variable("s"),
    }
    sign_found = None
    for sign in (1, -1):
        ok = True
        for name in ("x", "y", "z"):
            # sigma then flow: substitute sigma's coordinates into the flow
            after_sigma = flow[name].substitute(sigma_images, extended)
            # flow with rescaled parameter, then sigma
            rescaled = flow[name].substitute(
                {
                    "x": extended.variable("x"),
                    "y": extended.variable("y"),
                    "z": extended.variable("z"),
                    "s": extended.variable("s").scale(sign),
                },
                extended,
            )
            before_sigma = rescaled.substitute(sigma_images, extended)
            # compare the two composite point maps coordinatewise:
            # sigma(flow_sign*s(p)) vs flow_s(sigma(p))
            if before_sigma != after_sigma:
                ok = False
                break
        if ok:
            sign_found = sign
            break
    checker.require(
        sign_found is not None,
        {"part": "commutation", "detail": "no sign makes the flows commute"},
    )
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
    monos = [
        Monomial(((0, a), (1, b), (2, c)))
        for a in range(degree_bound + 1)
        for b in range(degree_bound + 1 - a)
        for c in range(degree_bound + 1 - a - b)
    ]
    monos.sort(reverse=True)
    basis = [Polynomial(R, {m: 1}) for m in monos]
    rows = coefficient_matrix([D.apply(p) for p in basis])
    rows += coefficient_matrix([sigma_hat(p) - p for p in basis])
    combos = linalg.nullspace(rows, len(monos))
    nf_monos: dict[Monomial, int] = {}
    reduced_polys = []
    for vec in combos:
        p = Polynomial(R, {m: c for m, c in zip(monos, vec) if c})
        nf = Q.reduce(p)
        reduced_polys.append(nf)
        for m in nf.monomials():
            nf_monos.setdefault(m, len(nf_monos))
    even_z = [
        Q.reduce(R.poly("1" if k == 0 else f"z^{2 * k}"))
        for k in range(degree_bound // 2 + 1)
    ]
    for p in even_z:
        for m in p.monomials():
            nf_monos.setdefault(m, len(nf_monos))

    def vecs(polys):
        return [
            [p.coefficient(m) for m in nf_monos] for p in polys
        ]

    checker.require(
        linalg.same_span(vecs(reduced_polys), vecs(even_z)),
        {
            "part": "quotient-ring",
            "observed_dim": linalg.rank(vecs(reduced_polys)),
            "expected_dim": len(even_z),
        },
    )
    checker.note(
        f"invariant normal forms span the even z-powers up to degree {degree_bound}"
    )
    return checker.report()
