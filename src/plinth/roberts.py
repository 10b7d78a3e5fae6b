"""Roberts' additive-group action on affine 7-space.

The coordinate ring is k[x1,x2,x3,y1,y2,y3,z] with the lex order
x1 < x2 < x3 < y1 < y2 < y3 < z and the rank-3 torus grading with weights
(1,0,0), (0,1,0), (0,0,1), (3,0,0), (0,3,0), (0,0,3), (2,2,2).  The action
is generated by the locally nilpotent derivation

    D = x1^3 d/dy1 + x2^3 d/dy2 + x3^3 d/dy3 + (x1*x2*x3)^2 d/dz.

Its invariant ring is not finitely generated; this module builds the
classical finite approximations: the quadratic invariants u12, u13, u23,
the recursive family beta(i, n) with leading term x_i * z^n, the generator
sets S_N, and the verification suites for the structural facts the family
satisfies (the hypersurface relation, the five relations among the nine
low-degree invariants, SAGBI behaviour of S_N, conductor and radical
structure, and the collapse of the fixed-point locus).

beta(i, n) is constructed by ansatz: solve D(f) = 0 on the monomial basis
of the multidegree (2n,2n,2n) + e_i with the x_i*z^n coefficient pinned to
1 and the z^(n-1) and z^(n-2) slices pinned to their canonical values

    -n * x_j^2 x_k^2 y_i           at z^(n-1)
    binom(n,2) * (x_i^2 x_j^4 x_k y_i y_k + x_i^2 x_j x_k^4 y_i y_j
                  - x_i^5 x_j x_k y_j y_k)   at z^(n-2)

({j,k} the complementary indices); the residual ambiguity in lower
z-degrees is resolved by the reduced-echelon representative, so the
construction is deterministic and cacheable.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from . import linalg
from .derivation import Derivation
from .polyring import (
    FIELD_BITS,
    INHOMOGENEOUS,
    MONOMIAL_ONE,
    Coefficient,
    Monomial,
    PolyError,
    Polynomial,
    VariableSet,
    WeightSystem,
    coefficient_matrix,
    combination,
)
from .report import Checker, VerificationReport
from .sagbi import (
    GeneratorSet,
    SubductionCertificate,
    monomial_algebra_member,
    subduct,
    x_ideal_membership,
)

# x = 0 is the plinth locus of the action and also its fixed-point locus
X_NAMES = ("x1", "x2", "x3")
VARIABLE_NAMES = (*X_NAMES, "y1", "y2", "y3", "z")
# z is the last, most significant variable
Z_INDEX = VARIABLE_NAMES.index("z")
WEIGHTS = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (3, 0, 0),
    (0, 3, 0),
    (0, 0, 3),
    (2, 2, 2),
)

# Coordinates of the target affine 9-space of the separating morphism
# (x1, x2, x3, u12, u13, u23, b1, b2, b3) -> (X1, ..., B3).
IMAGE_NAMES_9 = ("X1", "X2", "X3", "U12", "U13", "U23", "B1", "B2", "B3")
IMAGE_NAMES_6 = ("X1", "X2", "X3", "U12", "U13", "U23")

# The hypersurface cut out by the six z-free invariants.  Note the pairing:
# x_i^3 multiplies the u that omits the index i, with alternating sign --
# this is the unique multihomogeneous combination, of multidegree (3,3,3).
Y0_RELATION = "X1^3*U23 - X2^3*U13 + X3^3*U12"

# The five relations among the nine invariants (coordinates on the image of
# the separating morphism into affine 9-space).  Each substitutes to the
# zero polynomial; the u subscripts pair each term to a common multidegree.
Y1_GENERATORS = (
    "X1^2*U23 - X3*B2 + X2*B3",
    "X2^2*U13 - X3*B1 + X1*B3",
    "X3^2*U12 - X2*B1 + X1*B2",
    "U12*U13*U23*(X1*X2*B3 + X2*X3*B1 + X3*X1*B2)"
    " - U23*B1^3 + U13*B2^3 - U12*B3^3",
    "X1*X2*X3*U12*U13*U23 - X1*U23*B1^2 + X2*U13*B2^2 - X3*U12*B3^2",
)


def _parse_with_products(ambient: VariableSet, text: str) -> Polynomial:
    """Parse a generator expression, allowing one level of (...) grouping."""
    # the polynomial grammar has no parentheses; expand A*(B) by hand
    if "(" not in text:
        return ambient.poly(text)
    head, rest = text.split("(", 1)
    inner, tail = rest.split(")", 1)
    left = ambient.poly(head.rstrip("* \t"))
    total = left * ambient.poly(inner)
    if tail.strip():
        total = total + ambient.poly("0" + tail)
    return total


class RobertsAction:
    """The fixed ring, grading, derivation and invariant catalog."""

    def __init__(self) -> None:
        self.ring = VariableSet(VARIABLE_NAMES)
        self.weights = WeightSystem(self.ring, WEIGHTS)
        R = self.ring
        self.D = Derivation(
            R,
            {
                "x1": R.zero(),
                "x2": R.zero(),
                "x3": R.zero(),
                "y1": R.poly("x1^3"),
                "y2": R.poly("x2^3"),
                "y3": R.poly("x3^3"),
                "z": R.poly("x1^2*x2^2*x3^2"),
            },
        )
        self.D.certify_locally_nilpotent(bound=4)
        self.u12 = R.poly("x1^3*y2 - x2^3*y1")
        self.u13 = R.poly("x1^3*y3 - x3^3*y1")
        self.u23 = R.poly("x2^3*y3 - x3^3*y2")
        self._betas: dict[tuple[int, int], Polynomial] = {}
        self._gensets: dict[int, GeneratorSet] = {}

    # -- the invariant catalog -------------------------------------------

    def beta_degree(self, i: int, n: int) -> tuple[int, int, int]:
        d = [2 * n, 2 * n, 2 * n]
        d[i - 1] += 1
        return tuple(d)

    def beta(self, i: int, n: int) -> Polynomial:
        """The invariant with leading term x_i * z^n, in canonical form."""
        if i not in (1, 2, 3) or n < 0:
            raise PolyError(f"beta({i}, {n}) out of range")
        got = self._betas.get((i, n))
        if got is None:
            got = self._construct_beta(i, n)
            if not self.D.apply(got).is_zero():
                raise PolyError(f"constructed beta({i},{n}) is not invariant")
            self._betas[(i, n)] = got
        return got

    def _slice_targets(self, i: int, n: int) -> dict[int, Polynomial]:
        """Pinned z-slices of the canonical form, keyed by z-exponent."""
        R = self.ring
        j, k = sorted({1, 2, 3} - {i})
        at = [R.index(f"{v}{a}") for v in "xy" for a in (i, j, k)]
        # exponents of x_i, x_j, x_k, y_i, y_j, y_k
        mono = lambda *exps: Monomial(zip(at, exps))
        targets: dict[int, Polynomial] = {
            n: R.variable(f"x{i}"),
        }
        if n >= 1:
            targets[n - 1] = Polynomial(R, {mono(0, 2, 2, 1, 0, 0): -n})
        if n >= 2:
            c = comb(n, 2)
            targets[n - 2] = Polynomial(
                R,
                {
                    mono(2, 4, 1, 1, 0, 1): c,
                    mono(2, 1, 4, 1, 1, 0): c,
                    mono(5, 1, 1, 0, 1, 1): -c,
                },
            )
        return targets

    def _construct_beta(self, i: int, n: int) -> Polynomial:
        """The unique invariant with the pinned slices that vanishes on every
        leading monomial of the invariants that vanish on those slices.

        A pinned monomial's coefficient is known, so its column moves to the
        right-hand side: the system is D(sum c_m m) = -D(pinned part) over
        the unpinned monomials, built as sparse rows by ``D.image_rows``
        with -D(pinned part) as the last column.  z is the most significant
        variable, so a monomial's z-exponent and z-free part are its top
        field and the rest.  The columns run in ascending order, so an
        unpinned column is free exactly when it is a combination of the
        unpinned columns to its left, that is, when it is such a leading
        monomial; ``linalg.solve`` sets the free columns to 0.
        """
        z_shift = FIELD_BITS * Z_INDEX
        below_z = (1 << z_shift) - 1
        degree = self.beta_degree(i, n)
        targets = self._slice_targets(i, n)
        pinned: dict[Monomial, Fraction | int] = {}
        cols: list[Monomial] = []
        for m in reversed(self.weights.monomial_basis(degree)):  # ascending
            target = targets.get(m >> z_shift)
            if target is None:
                cols.append(m)
            else:
                pinned[m] = target.coefficient(m & below_z)
        rows = self.D.image_rows(cols, {m: -v for m, v in pinned.items() if v})
        solution = linalg.solve(rows, len(cols))
        if solution is None:
            raise PolyError(
                f"no invariant of multidegree {degree} with canonical slices; "
                f"beta({i},{n}) construction failed"
            )
        return Polynomial(self.ring, {**pinned, **{m: c for m, c in zip(cols, solution) if c}})

    def generator_name(self, i: int, n: int) -> str:
        return f"b{i}_{n}"

    def catalog(self, N: int) -> GeneratorSet:
        """S_N: the u's together with beta(i, n) for n <= N."""
        if N < 0:
            raise PolyError("catalog level must be nonnegative")
        got = self._gensets.get(N)
        if got is None:
            gens: list[tuple[str, Polynomial]] = [
                ("u12", self.u12),
                ("u13", self.u13),
                ("u23", self.u23),
            ]
            for i in (1, 2, 3):
                for n in range(N + 1):
                    gens.append((self.generator_name(i, n), self.beta(i, n)))
            got = GeneratorSet(self.ring, gens)
            self._gensets[N] = got
        return got

    # -- graded kernels -----------------------------------------------------

    def graded_invariants(self, degree: Sequence[int]) -> tuple[Polynomial, ...]:
        """Basis of ker D in one multidegree, solved once (``graded_kernel``)."""
        return self.D.graded_kernel(self.weights, degree)

    def graded_invariants_z_capped(
        self, degree: Sequence[int], z_cap: int
    ) -> tuple[Polynomial, ...]:
        """Basis of the invariants of one multidegree with z-degree <= z_cap."""
        full = self.graded_invariants(degree)
        rows = coefficient_matrix(full, lambda m: m.exponent(Z_INDEX) > z_cap)
        if not rows:
            return full
        return tuple(
            combination(self.ring, [(c, MONOMIAL_ONE, p) for c, p in zip(combo, full) if c])
            for combo in linalg.nullspace(rows, len(full))
        )

    # -- verification suites -------------------------------------------------

    def y0_relation_check(self) -> bool:
        """The six z-free invariants satisfy the hypersurface relation."""
        ambient6 = VariableSet(IMAGE_NAMES_6)
        rel = ambient6.poly(Y0_RELATION)
        images = self._image_substitution(ambient6)
        return rel.substitute(images).is_zero()

    def _image_substitution(self, source: VariableSet) -> dict[str, Polynomial]:
        mapping = {
            "X1": self.ring.variable("x1"),
            "X2": self.ring.variable("x2"),
            "X3": self.ring.variable("x3"),
            "U12": self.u12,
            "U13": self.u13,
            "U23": self.u23,
            "B1": self.beta(1, 1),
            "B2": self.beta(2, 1),
            "B3": self.beta(3, 1),
        }
        return {name: mapping[name] for name in source.names}

    def y1_ideal_check(self) -> VerificationReport:
        """The five relations vanish under substitution of the nine invariants."""
        checker = Checker(
            "roberts.y1",
            "five relations among (x_i, u_jk, beta_i1) substitute to zero",
        )
        ambient9 = VariableSet(IMAGE_NAMES_9)
        images = self._image_substitution(ambient9)
        for idx, text in enumerate(Y1_GENERATORS, start=1):
            g = _parse_with_products(ambient9, text)
            residue = g.substitute(images)
            checker.require(
                residue.is_zero(),
                {"generator": idx, "text": text, "residue": str(residue)},
            )
        checker.require(
            self.y0_relation_check(),
            {"relation": Y0_RELATION, "residue": "nonzero"},
        )
        return checker.report()

    def verify_beta_form(self, i: int, n: int) -> VerificationReport:
        """The displayed coefficients of beta(i, n): 1, -n, binom(n, 2)."""
        checker = Checker(
            f"roberts.beta_form.{i}.{n}",
            "beta(i,n) = x_i z^n - n x_j^2 x_k^2 y_i z^(n-1) "
            "+ binom(n,2)(...) z^(n-2) + lower z-degree",
            {"i": i, "n": n},
        )
        b = self.beta(i, n)
        lt_mono, lt_coef = b.leading_term()
        expected_lt = Monomial(((self.ring.index(f"x{i}"), 1), (Z_INDEX, n)))
        checker.require(
            lt_mono == expected_lt and lt_coef == 1,
            {"leading_term": str(b), "expected": f"x{i}*z^{n}"},
        )
        md = self.weights.multidegree(b)
        checker.require(
            md == self.beta_degree(i, n),
            {"multidegree": md, "expected": self.beta_degree(i, n)},
        )
        targets = self._slice_targets(i, n)
        for t, expected in targets.items():
            observed = self._z_slice(b, t)
            checker.require(
                observed == expected,
                {
                    "z_exponent": t,
                    "observed": str(observed),
                    "expected": str(expected),
                },
            )
        return checker.report()

    def _z_slice(self, f: Polynomial, t: int) -> Polynomial:
        """Coefficient of z^t in f, as a polynomial in the x and y variables."""
        terms = {}
        for m, c in f.terms():
            if m.exponent(Z_INDEX) == t:
                terms[m.divide(Monomial(((Z_INDEX, t),)))] = c
        return Polynomial(self.ring, terms)

    def sagbi_family_checks(self, N: int) -> VerificationReport:
        """Leading terms of the three relation families among the S_N products.

        The observed leading terms must match the closed forms:
        the cubic family gives -x1^3 x3^3 y2 z^(n+m+k); the mixed quadratic
        family gives (n-n') x1^3 x3^2 y2 z^(n+m-1); the equal-index family
        gives (n m - n' m') x1^6 x2 x3 y2 y3 z^(n+m-2).
        """
        checker = Checker(
            f"roberts.sagbi_families.{N}",
            "observed leading terms of the relation families match the "
            "closed-form coefficients",
            {"N": N},
        )
        R = self.ring
        beta = self.beta

        def lt_is(diff: Polynomial, coef: Fraction, text: str, ctx: dict) -> None:
            if coef == 0:
                checker.require(diff.is_zero(), {**ctx, "expected": "zero"})
                return
            expected = R.poly(text).scale(coef)
            m, c = diff.leading_term()
            em, ec = expected.leading_term()
            if (m, c) != (em, ec):
                checker.require(
                    False,
                    {**ctx, "observed": str(Polynomial(R, {m: c})), "expected": str(expected)},
                )

        # cubic family: b1n b1m b1k u23 vs b2n b2m b2k u13
        for n in range(N + 1):
            for m in range(n, N + 1):
                for k in range(m, N + 1):
                    diff = (
                        beta(1, n) * beta(1, m) * beta(1, k) * self.u23
                        - beta(2, n) * beta(2, m) * beta(2, k) * self.u13
                    )
                    lt_is(
                        diff,
                        Fraction(-1),
                        f"x1^3*x3^3*y2*z^{n + m + k}" if n + m + k else "x1^3*x3^3*y2",
                        {"family": "cubic", "nmk": (n, m, k)},
                    )
        # mixed quadratic family: b1n b2m vs b1n' b2m'
        for n in range(N + 1):
            for m in range(N + 1):
                for np in range(n + 1, N + 1):
                    mp = n + m - np
                    if not 0 <= mp <= N:
                        continue
                    diff = beta(1, n) * beta(2, m) - beta(1, np) * beta(2, mp)
                    zdeg = n + m - 1
                    lt_is(
                        diff,
                        Fraction(n - np),
                        f"x1^3*x3^2*y2*z^{zdeg}" if zdeg else "x1^3*x3^2*y2",
                        {"family": "mixed", "pairs": ((n, m), (np, mp))},
                    )
        # equal-index family: b1n b1m vs b1n' b1m'
        for n in range(N + 1):
            for m in range(n, N + 1):
                for np in range(n + 1, (n + m) // 2 + 1):  # n < np <= mp
                    mp = n + m - np
                    diff = beta(1, n) * beta(1, m) - beta(1, np) * beta(1, mp)
                    zdeg = n + m - 2
                    lt_is(
                        diff,
                        Fraction(n * m - np * mp),
                        f"x1^6*x2*x3*y2*y3*z^{zdeg}" if zdeg else "x1^6*x2*x3*y2*y3",
                        {"family": "equal-index", "pairs": ((n, m), (np, mp))},
                    )
        return checker.report()

    def an_lemma_checks(
        self,
        N: int,
        degree_bound: int = 8,
        a0_factor_bound: int = 2,
        reverse_bound: int = 3,
        max_steps: int = 10_000,
    ) -> VerificationReport:
        """The three finiteness lemmas for the chain A_N.

        (a) every invariant of z-degree <= N (swept over multidegrees with
            components <= degree_bound) subducts to zero against S_N;
        (b) x_i * beta(j, N+1) - beta(i, 1) * beta(j, N) has matching leading
            terms, z-degree <= N, and subducts to zero against S_N;
        (c) forward: (x_i * g) * beta(j, N+1) subducts into S_N for g in a
            bounded spanning set of products of the z-free generators;
            reverse: for pure u-products f, LT(f) * x_i z^(N+1) has no
            factorization over LT(S_N), so f is outside the conductor.

        Parts (b) and (c) need N >= 1: the comparison products use
        beta(i, 1), which only lies in A_N from level 1 on.
        """
        checker = Checker(
            f"roberts.an_lemma.{N}",
            "conductor chain: z-degree filtration, (x)A_(N+1) in A_N, "
            "conductor meets A_0 in (x)A_0",
            {
                "N": N,
                "degree_bound": degree_bound,
                "a0_factor_bound": a0_factor_bound,
                "reverse_bound": reverse_bound,
            },
        )
        G = self.catalog(N)

        # (a) sweep of graded invariants with z-degree <= N
        swept = 0
        for degree in _degree_box(degree_bound):
            for f in self.graded_invariants_z_capped(degree, N):
                swept += 1
                _require_subducts(checker, f, G, max_steps, part="a", degree=degree, poly=f)
        checker.note(f"part (a): {swept} invariants subducted over S_{N}")

        if N == 0:
            checker.note("parts (b), (c) skipped: they require N >= 1")
            return checker.report()

        # (b) x_i beta(j, N+1) vs beta(i,1) beta(j, N)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                p = self.ring.variable(f"x{i}") * self.beta(j, N + 1)
                q = self.beta(i, 1) * self.beta(j, N)
                checker.require(
                    p.leading_term() == q.leading_term(),
                    {"part": "b", "i": i, "j": j, "detail": "leading terms differ"},
                )
                diff = p - q
                checker.require(
                    diff.is_zero() or diff.max_exponent("z") <= N,
                    {"part": "b", "i": i, "j": j, "detail": "z-degree too high"},
                )
                _require_subducts(checker, diff, G, max_steps, part="b", i=i, j=j)
        checker.note("part (b): 9 comparison products subducted")

        # (c) forward: elements of (x)A_0 stay in the conductor
        a0_products = list(self._a0_products(a0_factor_bound))
        forward = 0
        for g in a0_products:
            for i in (1, 2, 3):
                xg = self.ring.variable(f"x{i}") * g
                for j in (1, 2, 3):
                    forward += 1
                    _require_subducts(
                        checker, xg * self.beta(j, N + 1), G, max_steps,
                        part="c-forward", i=i, j=j, g=g,
                    )
        checker.note(f"part (c) forward: {forward} products subducted")

        # (c) reverse: pure u-products are not in the conductor
        reverse = 0
        for f in self._pure_u_products(reverse_bound):
            lt = f.leading_monomial()
            for i in (1, 2, 3):
                target = lt * Monomial(
                    ((self.ring.index(f"x{i}"), 1), (Z_INDEX, N + 1))
                )
                reverse += 1
                if monomial_algebra_member(target, G) is not None:
                    checker.require(
                        False,
                        {
                            "part": "c-reverse",
                            "i": i,
                            "u_product": str(f),
                            "detail": "leading term unexpectedly factorizes",
                        },
                    )
        checker.note(f"part (c) reverse: {reverse} leading terms checked")
        return checker.report()

    def _a0_products(self, max_factors: int) -> Iterable[Polynomial]:
        gens = [*map(self.ring.variable, X_NAMES), self.u12, self.u13, self.u23]
        frontier = [self.ring.one()]
        out = list(frontier)
        for _ in range(max_factors):
            frontier = [f * g for f in frontier for g in gens]
            out += frontier
        return list(dict.fromkeys(out))  # products commute: first copy kept

    def _pure_u_products(self, max_factors: int) -> Iterable[Polynomial]:
        us = [self.u12, self.u13, self.u23]
        for a in range(max_factors + 1):
            for b in range(max_factors + 1 - a):
                for c in range(max_factors + 1 - a - b):
                    if a + b + c == 0:
                        continue
                    yield us[0] ** a * us[1] ** b * us[2] ** c

    def offdiagonal_degree_check(self, f: Polynomial) -> bool:
        """Is the multidegree of f incongruent to (k, k, k) modulo 3?"""
        md = self.weights.multidegree(f)
        if md == INHOMOGENEOUS:
            raise PolyError("polynomial is not multihomogeneous")
        r = [x % 3 for x in md]
        return not (r[0] == r[1] == r[2])

    def square_in_x_ideal(
        self, i: int, n: int, max_steps: int = 10_000
    ) -> SubductionCertificate:
        """Certificate that beta(i, n)^2 lies in (x1, x2, x3) inside k[S].

        The subduction runs against S_(2n), which contains every leading
        term the chain of cancellations can need (z-degrees up to 2n).
        """
        G = self.catalog(max(2 * n, 0))
        square = self.beta(i, n) ** 2
        return x_ideal_membership(square, G, X_NAMES, max_steps)

    def radical_structure_check(
        self, N: int = 3, degree_bound: int = 6
    ) -> VerificationReport:
        """Structure of the radical of (x1, x2, x3) in the invariant ring.

        (i) the multidegrees of u12, u13, u23 have rank 3, so their images
        stay algebraically independent modulo the radical; (ii) no power of
        a u has a leading-term factorization using a bare x_j, so the u's
        stay outside the radical; (iii) each beta(i, n), n >= 1, has its
        square certified inside (x1, x2, x3), by a certificate that replays
        to the square.
        """
        checker = Checker(
            "roberts.radical",
            "radical of (x)A: u's independent and outside, beta squares inside",
            {"N": N, "degree_bound": degree_bound},
        )
        mds = [
            list(self.weights.multidegree(u)) for u in (self.u12, self.u13, self.u23)
        ]
        checker.require(
            linalg.rank(mds) == 3,
            {"part": "independence", "multidegrees": mds},
        )
        checker.note(f"u multidegree determinant: {linalg.det3(mds)}")
        G0 = self.catalog(0)
        for name, u in (("u12", self.u12), ("u13", self.u13), ("u23", self.u23)):
            lt = u.leading_monomial()
            for k in range(1, degree_bound + 1):
                power_lt = (u**k).leading_monomial()
                lt_k = lt
                for _ in range(k - 1):
                    lt_k = lt_k * lt
                checker.require(
                    power_lt == lt_k,
                    {"part": "lt-power", "u": name, "k": k},
                )
                for j in (1, 2, 3):
                    xj = Monomial(((self.ring.index(f"x{j}"), 1),))
                    if not xj.divides(power_lt):
                        continue
                    checker.require(
                        monomial_algebra_member(power_lt.divide(xj), G0) is None,
                        {
                            "part": "x-factor-free",
                            "u": name,
                            "k": k,
                            "x": j,
                            "detail": "factorization with a bare x factor exists",
                        },
                    )
        squares = 0
        for i in (1, 2, 3):
            for n in range(1, N + 1):
                checker.require(
                    self.offdiagonal_degree_check(self.beta(i, n)),
                    {"part": "degree-hypothesis", "i": i, "n": n},
                )
                cert = self.square_in_x_ideal(i, n)
                squares += 1
                checker.require(
                    cert.ok,
                    {
                        "part": "square",
                        "i": i,
                        "n": n,
                        "remainder": str(cert.remainder),
                        "stuck": str(cert.stuck),
                    },
                )
                checker.require(
                    cert.replay(self.catalog(2 * n)) == cert.input,
                    {"part": "replay", "i": i, "n": n},
                )
        checker.note(f"beta squares certified in (x1,x2,x3): {squares}")
        return checker.report()

    def on_plinth(self, point: Mapping[str, Coefficient]) -> bool:
        """Is the point on the plinth locus x1 = x2 = x3 = 0?"""
        return all(point[x] == 0 for x in X_NAMES)

    def plinth_point(self, rng: random.Random) -> dict[str, int]:
        """A random point on the plinth locus: one draw from [-9, 9] per
        coordinate in ring order, then the x coordinates set to 0."""
        point = {name: rng.randint(-9, 9) for name in self.ring.names}
        point.update(dict.fromkeys(X_NAMES, 0))
        return point

    def fixed_point_collapse(self, N: int = 4) -> bool:
        """Every S_N generator restricts to a constant on x1 = x2 = x3 = 0.

        All the non-constant invariants vanish there, so the quotient map
        sends the whole fixed-point locus to the image of the origin.
        """
        G = self.catalog(N)
        for name in G.names:
            restricted = G.polys[name].restrict_to_zero(X_NAMES)
            if not restricted.is_constant():
                return False
        return True


def _require_subducts(
    checker: Checker, f: Polynomial, G: GeneratorSet, max_steps: int, **detail
) -> None:
    """Subduct f over G; on failure record ``detail`` with the remainder
    last, each polynomial in it as text (written only then)."""
    cert = subduct(f, G, max_steps)
    if not cert.ok:
        detail["remainder"] = cert.remainder
        checker.require(
            False, {k: str(v) if isinstance(v, Polynomial) else v for k, v in detail.items()}
        )


def _degree_box(bound: int) -> Iterable[tuple[int, int, int]]:
    for d1 in range(bound + 1):
        for d2 in range(bound + 1):
            for d3 in range(bound + 1):
                if d1 or d2 or d3:
                    yield (d1, d2, d3)


_SHARED: RobertsAction | None = None


def roberts_action() -> RobertsAction:
    """Shared instance; the beta/catalog caches are append-only."""
    global _SHARED
    if _SHARED is None:
        _SHARED = RobertsAction()
    return _SHARED
