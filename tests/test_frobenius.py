"""Series solutions, indicial analysis, and recentering."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import cyclorb as cy
from cyclorb import polyring as pr


def poly(*c):
    return [F(x) for x in c]


def mul(*ps):
    out = [F(1)]
    for p in ps:
        out = pr.pmul(out, p)
    return out


def divisor_search_roots(p):
    """Reference rational roots: every +-(divisor of a_0)/(divisor of a_n) of
    the integer-cleared polynomial, tested by exact evaluation."""
    p = pr.trim([F(c) for c in p])
    roots = []
    while len(p) > 1 and p[0] == 0:
        roots.append(F(0))
        p = p[1:]
    if pr.degree(p) < 1:
        return roots, p
    den_lcm = 1
    for c in p:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ip = [int(c * den_lcm) for c in p]
    g = 0
    for c in ip:
        g = math.gcd(g, abs(c))
    ip = [c // g for c in ip]

    def divisors(n):
        out = set()
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                out |= {d, n // d}
        return sorted(out)

    candidates = set()
    for num in divisors(abs(ip[0])):
        for den in divisors(abs(ip[-1])):
            candidates |= {F(num, den), F(-num, den)}
    p = [F(c) for c in ip]
    for r in sorted(candidates):
        while pr.degree(p) >= 1 and pr.peval(p, r) == 0:
            roots.append(r)
            p, _ = pr.divide_out_root(p, r)
    return sorted(roots), pr.trim(p)


@pytest.fixture(scope="module")
def gs_ode():
    """Third-order operator of the one-interval ground-state correlator."""
    omx = poly(1, -1)
    c3 = pr.pscale(mul(poly(0, 0, 0, 1), omx, omx, omx), F(5, 3))
    c2 = pr.pscale(mul(poly(0, 0, 1), omx, omx, poly(1, -2)), F(2))
    c1 = pr.pscale(mul(poly(0, 1), omx, poly(7, -14, 15)), F(1, 20))
    c0 = pr.pscale(poly(15, -29, -3, 1), F(-1, 50))
    return cy.theta_form([c0, c1, c2, c3])


def expand_theta_oracle(ode):
    """Independent expansion of sum_m x^m P_m(theta) back to d/dx form.

    Uses theta^n = sum_k S(n, k) x^k d^k with Stirling numbers, a different
    route than the falling-factorial construction used by theta_form.
    """
    deg = max(pr.degree(p) for p in ode.polys)
    s2 = pr.stirling2_table(deg)
    acc = {}
    for m, p in enumerate(ode.polys):
        for n, c in enumerate(p):
            if c == 0:
                continue
            for k in range(n + 1):
                if s2[n][k] == 0:
                    continue
                acc.setdefault(k, {})
                acc[k][m + k] = acc[k].get(m + k, 0) + c * s2[n][k]
    out = []
    for k in range(ode.order + 1):
        d = acc.get(k, {0: 0})
        top = max(d)
        out.append(pr.trim([d.get(j, 0) for j in range(top + 1)]))
    return out


class TestThetaForm:
    def test_simple_theta(self):
        ode = cy.theta_form([[0], [F(1)]])  # x d/dx
        assert list(ode.polys[0]) == [0, 1]
        assert len(ode.polys) == 1

    def test_round_trip_two_interval(self):
        # 400 x^2(x-1)^2 d^2 + 40 x(x-1)(6x-3) d + 33
        xm1 = poly(-1, 1)
        c2 = pr.pscale(mul(poly(0, 0, 1), xm1, xm1), F(400))
        c1 = pr.pscale(mul(poly(0, 1), xm1, poly(-3, 6)), F(40))
        c0 = poly(33)
        ode = cy.theta_form([c0, c1, c2])
        back = expand_theta_oracle(ode)
        assert [pr.trim(c) for c in (c0, c1, c2)] == back
        assert cy.to_standard_coeffs(ode) == back

    def test_ground_state_theta_polys(self, gs_ode):
        # the theta polynomials factor as printed up to one overall scale
        want = [
            pr.pscale(mul(poly(-1, 2), poly(-2, 5), poly(-9, 10)), F(1, 3)),
            pr.pscale(poly(-58, 305, -700, 500), F(-1, 5)),
            pr.pscale(poly(6, 145, -500, 500), F(1, 5)),
            pr.pscale(mul(poly(-2, 5), poly(-3, 10), poly(1, 10)), F(-1, 15)),
        ]
        for mine, ref in zip(gs_ode.polys, want):
            assert [20 * c for c in mine] == ref

    def test_non_fuchsian_rejected(self):
        # leading coefficient vanishes at x = 2
        with pytest.raises(cy.NonFuchsianError):
            cy.theta_form([[F(1)], [F(0)], mul(poly(0, 0, 1), poly(-2, 1))])


class TestIndicial:
    def test_trivial(self):
        ode = cy.ThetaOde(order=2, polys=((0, -1, 1), (1,)))  # theta(theta-1) + x
        assert cy.indicial_exponents(ode) == [0, 1]

    def test_ground_state_roots(self, gs_ode):
        assert cy.indicial_exponents(gs_ode) == [F(2, 5), F(1, 2), F(9, 10)]

    def test_replica3_roots_at_g(self):
        model = cy.get_model("mm_n3_phi21", F(4, 3))
        roots = cy.indicial_exponents(model.ode)
        assert roots == sorted([F(1, 4), F(-1, 6), F(5, 4), F(1, 6)])
        # cross-check against numeric root finding
        p0 = [float(c) for c in model.ode.indicial_poly()]
        num = sorted(np.roots(p0[::-1]).real)
        assert np.allclose(num, [float(r) for r in roots], atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_rational_roots_match_divisor_search(self, seed):
        # (q x - p)^m factors with q up to 4096, a zero root and an
        # irreducible quadratic; |constant|, |leading| <= 1e10 keep the
        # reference's divisor enumeration cheap
        rng = random.Random(seed)
        while True:
            p = [F(0), F(1)]
            want = [F(0)]
            for _ in range(rng.randint(1, 3)):
                q, num, m = rng.randint(1, 4096), rng.randint(-4096, 4096) or 1, rng.randint(1, 3)
                for _ in range(m):
                    p = pr.pmul(p, [F(-num), F(q)])
                want += [F(num, q)] * m
            a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)
            if b * b - 4 * a * c in (k * k for k in range(10)):
                continue
            p = pr.pmul(p, [F(c), F(b), F(a)])
            if max(abs(p[1]), abs(p[-1])) <= 10 ** 10:
                break
        got = pr.rational_roots(p)
        assert got == divisor_search_roots(p)
        assert got[0] == sorted(want)
        assert pr.degree(got[1]) == 2

    def test_rational_roots_edge_cases(self):
        assert pr.rational_roots([F(2), F(0), F(1)]) == ([], [F(2), F(0), F(1)])
        assert pr.rational_roots([F(0), F(0), F(-3)]) == ([F(0), F(0)], [F(-3)])
        # a triple root that np.roots splits by 1e-5, too far for its
        # convergents: the divisor search on the remainder must find it
        p = mul(poly(4091, 4093), poly(4091, 4093), poly(4091, 4093), poly(1, 0, 1))
        assert pr.rational_roots(p) == divisor_search_roots(p)
        assert pr.rational_roots(p)[0] == [F(-4091, 4093)] * 3


class TestSeries:
    def test_exact_coefficients(self, gs_ode):
        s = cy.frobenius_series(gs_ode, F(1, 2), 6)
        # independent plug-in oracle (sympy) gives these exact values
        assert s.exact_coeffs[1] == F(-9, 55)
        assert s.exact_coeffs[2] == F(-49, 550)

    def test_sympy_plugin_oracle(self, gs_ode):
        sp = pytest.importorskip("sympy")
        x, a1, a2 = sp.symbols("x a1 a2")
        f = sp.sqrt(x) * (1 + a1 * x + a2 * x**2)
        op = (sp.Rational(5, 3) * x**3 * (1 - x) ** 3 * sp.diff(f, x, 3)
              + 2 * x**2 * (1 - x) ** 2 * (1 - 2 * x) * sp.diff(f, x, 2)
              + sp.Rational(1, 20) * x * (1 - x) * (15 * x**2 - 14 * x + 7) * sp.diff(f, x)
              - sp.Rational(1, 50) * (x**3 - 3 * x**2 - 29 * x + 15) * f)
        ser = sp.Poly(sp.series(sp.expand(op / sp.sqrt(x)), x, 0, 3).removeO(), x)
        sol = sp.solve([ser.coeff_monomial(x), ser.coeff_monomial(x**2)], [a1, a2])
        assert sol[a1] == sp.Rational(-9, 55)
        assert sol[a2] == sp.Rational(-49, 550)

    def test_hypergeometric_series(self):
        mp = pytest.importorskip("mpmath")
        a, b, c = F(7, 10), F(11, 10), F(7, 5)
        ode = cy.theta_form([[a * b], [-c, a + b + 1], [F(0), F(-1), F(1)]])
        s = cy.frobenius_series(ode, F(0), 80)
        # coefficients are Pochhammer ratios
        acc = F(1)
        for n in range(1, 10):
            acc *= (a + n - 1) * (b + n - 1) / (n * (c + n - 1))
            assert s.exact_coeffs[n] == acc
        v = s.evaluate(0.3)
        assert abs(v - complex(mp.hyp2f1(0.7, 1.1, 1.4, 0.3))) < 1e-14

    def test_recursion_residual(self, gs_ode):
        for alpha in (F(1, 2), F(2, 5), F(9, 10)):
            s = cy.frobenius_series(gs_ode, alpha, 120, exact=False)
            assert cy.frobenius.recursion_residual(gs_ode, s) < 1e-10

    def test_not_a_root_rejected(self, gs_ode):
        with pytest.raises(ValueError):
            cy.frobenius_series(gs_ode, F(1, 3), 10)

    def test_resonance_free_coefficient(self):
        model = cy.get_model("ising2int_vac")
        s = cy.frobenius_series(model.ode, F(-1, 16), 40)
        assert s.resonant_orders == (1,)
        assert s.exact_coeffs[1] == 0

    def test_logarithmic_case_detected(self):
        # theta(theta-1) + x: roots 0 and 1, non-vanishing numerator at the
        # unit offset, so the smaller exponent needs a logarithm
        ode = cy.ThetaOde(order=2, polys=((0, -1, 1), (1,)))
        with pytest.raises(cy.LogarithmicCaseError):
            cy.frobenius_series(ode, F(0), 10)

    @pytest.mark.xfail(strict=True,
                       reason="these constants satisfy a variant recursion with "
                              "P_j evaluated at alpha+n instead of alpha+n-j and "
                              "do not solve the stated operator; the consistent "
                              "values -9/55, -49/550 are asserted above")
    def test_reference_series_constants(self, gs_ode):
        s = cy.frobenius_series(gs_ode, F(1, 2), 6)
        assert s.exact_coeffs[1] == F(256, 55)
        assert s.exact_coeffs[2] == F(24446, 1925)


class TestEvaluate:
    def test_leading_coefficient(self, gs_ode):
        s = cy.frobenius_series(gs_ode, F(1, 2), 60)
        x = 1e-9
        assert abs(s.evaluate(x) / x**0.5 - 1.0) < 1e-8

    def test_double_terms_oracle(self, gs_ode):
        s1 = cy.frobenius_series(gs_ode, F(1, 2), 100, exact=False)
        s2 = cy.frobenius_series(gs_ode, F(1, 2), 200, exact=False)
        for x in (0.3, 0.5, 0.64):
            v1, v2 = s1.evaluate(x), s2.evaluate(x)
            assert abs(v1 - v2) <= max(s1.tail_estimate_at(abs(x)), 1e-15) * 10 + 1e-13

    def test_out_of_disk(self, gs_ode):
        s = cy.frobenius_series(gs_ode, F(1, 2), 20)
        with pytest.raises(cy.OutOfDiskError):
            s.evaluate(1.2)

    def test_cross_module_hypergeometric(self):
        a, b, c = F(7, 10), F(11, 10), F(7, 5)
        ode = cy.theta_form([[a * b], [-c, a + b + 1], [F(0), F(-1), F(1)]])
        s = cy.frobenius_series(ode, F(0), 200)
        v = s.evaluate(0.3)
        assert abs(v - cy.hyp2f1(cy.HypParams(0.7, 1.1, 1.4), 0.3)) < 1e-12


def hyp_ode(a, b, c):
    return cy.theta_form([[a * b], [-c, a + b + 1], [F(0), F(-1), F(1)]])


class TestKernel:
    """Whole-basis evaluation: scalar and array paths, disk and centre checks."""

    def test_scalar_and_array_agree(self, gs_ode):
        b0 = cy.basis_for(gs_ode, cy.indicial_exponents(gs_ode), 200)
        ode1 = cy.recenter_to_one(gs_ode)
        b1 = cy.basis_for(ode1, cy.indicial_exponents(ode1), 200)
        us = np.array([0.05, 0.3, 0.5, 0.62, 0.8, 0.4 + 0.3j, 0.2 - 0.5j, -0.6])
        for basis, xs in ((b0, us), (b1, 1 - us)):
            V = basis.evaluate(xs)
            assert V.shape == (len(xs), 3)
            for p, x in enumerate(xs):
                for i, s in enumerate(basis.series):
                    ref = s.evaluate(complex(x))
                    assert abs(V[p, i] - ref) <= 1e-13 * abs(ref)
                    assert abs(basis.evaluate(complex(x))[i] - ref) <= 1e-13 * abs(ref)
            assert np.array_equal(basis.evaluate_matrix(list(xs)), V)

    def test_real_scalar_path(self, gs_ode):
        # a real x with u in (0, 1) is summed in float64; anything else, and a
        # basis with a complex entry, takes the complex route
        b0 = cy.basis_for(gs_ode, cy.indicial_exponents(gs_ode), 200)
        for x in (0.05, 0.3, np.float64(0.5), 0.62):
            v = b0.evaluate(x)
            assert v.dtype == np.float64
            ref = b0.evaluate(np.array([x]))[0]
            assert np.max(np.abs(v - ref) / np.abs(ref)) <= 1e-14
        assert b0.evaluate(0.3 + 0j).dtype == complex
        assert b0.evaluate(-0.3).dtype == complex
        ode1 = cy.recenter_to_one(gs_ode)
        b1 = cy.basis_for(ode1, cy.indicial_exponents(ode1), 200)
        assert b1.evaluate(0.7).dtype == np.float64
        assert abs(b1.evaluate(0.7) - b1.evaluate(0.7 + 0j)).max() <= 1e-14
        bc = cy.FrobeniusBasis(b0.center, (b0.series[0],
                                           cy.FrobeniusSeries(F(1, 2), np.array([1, 0.5j, 0.1]))))
        assert bc.evaluate(0.3).dtype == complex
        assert abs(bc.evaluate(0.3)[1] - 0.3 ** 0.5 * (1 + 0.15j + 0.009)) <= 1e-15

    def test_array_shape_and_series_arrays(self, gs_ode):
        s = cy.frobenius_series(gs_ode, F(1, 2), 80, exact=False)
        xs = np.array([[0.1, 0.2], [0.3, 0.4]])
        vals = s.evaluate(xs)
        assert vals.shape == (2, 2)
        assert abs(vals[1, 0] - s.evaluate(0.3)) <= 1e-13 * abs(vals[1, 0])
        assert s.evaluate(np.array([])).shape == (0,)

    def test_one_out_of_disk_point_raises(self, gs_ode):
        b0 = cy.basis_for(gs_ode, cy.indicial_exponents(gs_ode), 60)
        with pytest.raises(cy.OutOfDiskError):
            b0.evaluate(np.array([0.1, 0.5, 1.2, 0.3]))
        with pytest.raises(cy.OutOfDiskError):
            b0.series[0].evaluate(np.array([0.2, -1.0]))
        ode1 = cy.recenter_to_one(gs_ode)
        b1 = cy.basis_for(ode1, cy.indicial_exponents(ode1), 60)
        with pytest.raises(cy.OutOfDiskError):
            b1.evaluate(np.array([0.5, 0.0]))   # u = 1 - x = 1

    def test_centre_special_cases(self):
        # exponents 0 and 1 - c = -2/5: the first is a_0 = 1 at the centre,
        # the second is singular there
        a, b, c = F(7, 10), F(11, 10), F(7, 5)
        ode = hyp_ode(a, b, c)
        regular = cy.frobenius_series(ode, F(0), 40)
        singular = cy.frobenius_series(ode, 1 - c, 40)
        assert regular.evaluate(0.0) == 1.0
        assert np.array_equal(regular.evaluate(np.array([0.0])), [1.0])
        for x in (0.0, np.array([0.3, 0.0])):
            with pytest.raises(cy.OutOfDiskError):
                singular.evaluate(x)
        with pytest.raises(cy.OutOfDiskError):
            cy.basis_for(ode, (F(0), 1 - c), 40).evaluate(np.array([0.0, 0.5]))
        # positive exponent: the value at the centre is zero
        positive = cy.frobenius_series(hyp_ode(a, b, F(3, 5)), F(2, 5), 40)
        assert positive.evaluate(0.0) == 0.0
        assert positive.evaluate(np.array([0.0, 0.2]))[0] == 0.0

    def test_hypergeometric_oracle_complex_u(self):
        mp = pytest.importorskip("mpmath")
        a, b, c = F(7, 10), F(11, 10), F(7, 5)
        basis = cy.basis_for(hyp_ode(a, b, c), (F(0), 1 - c), 400)
        us = [0.9 * np.exp(1j * t) for t in (0.3, 1.2, 2.0, 2.9, -0.7, -2.5)]
        us += [0.5j, -0.85, 0.6 - 0.6j]
        V = basis.evaluate(np.array(us))
        af, bf, cf = float(a), float(b), float(c)
        for p, u in enumerate(us):
            i1 = complex(mp.hyp2f1(af, bf, cf, u))
            i2 = complex(mp.power(u, 1 - cf) * mp.hyp2f1(af - cf + 1, bf - cf + 1, 2 - cf, u))
            assert abs(V[p, 0] - i1) <= 1e-12 * abs(i1)
            assert abs(V[p, 1] - i2) <= 1e-12 * abs(i2)

    def test_indicial_roots_solved_once_per_basis(self, monkeypatch):
        calls = []
        real = pr.rational_roots

        def counted(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(pr, "rational_roots", counted)
        ode = hyp_ode(F(7, 10), F(11, 10), F(7, 5))
        cy.basis_for(ode, (F(0), F(-2, 5)), 60)
        assert len(calls) == 1
        cy.basis_for(ode, (F(-2, 5), F(0)), 60)
        assert len(calls) == 1
        model = cy.get_model("mm_n3_phi21", F(11, 8))
        calls.clear()
        model.basis0(60), model.basis1(60), model.basis1(60)
        assert len(calls) == 2   # one ODE about 0, one recentred ODE about 1


class TestRecenterAndScheme:
    def test_ground_state_at_one(self, gs_ode):
        ode1 = cy.recenter_to_one(gs_ode)
        assert cy.indicial_exponents(ode1) == [F(2, 5), F(3, 5), F(4, 5)]

    def test_hypergeometric_at_one(self):
        a, b, c = F(7, 10), F(11, 10), F(7, 5)
        ode = cy.theta_form([[a * b], [-c, a + b + 1], [F(0), F(-1), F(1)]])
        roots = cy.indicial_exponents(cy.recenter_to_one(ode))
        assert sorted(roots) == sorted([F(0), c - a - b])

    def test_ising_at_one(self):
        model = cy.get_model("ising2int_vac")
        roots = cy.indicial_exponents(cy.recenter_to_one(model.ode))
        assert roots == [F(-1, 16), F(1, 16), F(15, 16)]

    def test_scheme_fuchs_relation(self, gs_ode):
        sch = cy.scheme_of(gs_ode)
        total = sum(sum(col) for col in sch.columns())
        assert total == F(3)

    def test_infinity_exponents(self, gs_ode):
        assert cy.exponents_at_infinity(gs_ode) == [F(-2, 5), F(-3, 10), F(1, 10)]

    def test_independence_two_point_determinant(self, gs_ode):
        s1 = cy.frobenius_series(gs_ode, F(1, 2), 120, exact=False)
        s2 = cy.frobenius_series(gs_ode, F(2, 5), 120, exact=False)
        x1, x2 = 0.4, 0.55
        m = np.array([
            [s1.evaluate(x1).real, s2.evaluate(x1).real],
            [s1.evaluate(x2).real - s1.evaluate(x1).real,
             s2.evaluate(x2).real - s2.evaluate(x1).real],
        ])
        assert abs(np.linalg.det(m)) > 1e-6


class TestSerialization:
    def test_round_trip(self, gs_ode):
        text = cy.ode_to_text(gs_ode, comment="blocks ODE")
        back = cy.ode_from_text(text)
        assert back.polys == gs_ode.polys
        assert back.order == gs_ode.order

    def test_comments_ignored(self):
        text = "# a comment\n0 1\n# another\n1\n"
        ode = cy.ode_from_text(text)
        assert ode.order == 1
        assert list(ode.polys[0]) == [0, 1]
