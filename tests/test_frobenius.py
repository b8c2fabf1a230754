"""Series solutions, indicial analysis, and recentering."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import _fraction_oracle as fo
import _kernel_oracle as ko
import cyclorb as cy
from cyclorb import frobenius as fb
from cyclorb import polyring as pr


def poly(*c):
    return [F(x) for x in c]


def values(series, x):
    """``frobenius.evaluate`` on a one-series basis: the real values of ``series`` at x."""
    return fb.evaluate(cy.FrobeniusBasis(series.center, (series,)), x)[..., 0]


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
            p = fo.divide_by_linear(p, r)
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

    @pytest.mark.parametrize("polys", [((0, -1, 1.0), (1,)), ((0, -1, 1), (0.5,)),
                                       ((0, -1, 1), (1j,))])
    def test_non_rational_coefficient_rejected(self, polys):
        with pytest.raises(ValueError, match="int or Fraction"):
            cy.ThetaOde(order=2, polys=polys)

    def test_irrational_root_rejected(self):
        # theta^2 - 2 + x: P_0 has the roots +-sqrt(2)
        with pytest.raises(ValueError, match="irrational"):
            cy.indicial_exponents(cy.ThetaOde(order=2, polys=((-2, 0, 1), (1,))))
        # theta(theta - 1) + x (theta^2 - 2): rational at 0, +-sqrt(2) at infinity
        ode = cy.ThetaOde(order=2, polys=((0, -1, 1), (-2, 0, 1)))
        assert cy.indicial_exponents(ode) == [0, 1]
        with pytest.raises(ValueError, match="irrational"):
            cy.exponents_at_infinity(ode)

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



class TestTruncatedSeries:
    P = [F(1), F(-2, 3), F(5, 7), F(0), F(3, 2)]

    def test_product_is_truncated_pmul(self):
        q = [F(2), F(1, 5), F(-4)]
        for n in range(9):
            full = pr.pmul(self.P, q) + [0] * n
            assert pr.pmul_trunc(self.P, q, n) == full[: n + 1]

    def test_integer_power_is_repeated_product(self):
        n = 9
        for s in range(6):
            want = [F(1)]
            for _ in range(s):
                want = pr.pmul(want, self.P)
            assert pr.ppow_trunc(self.P, s, n) == (want + [0] * n)[: n + 1]

    def test_power_minus_one_is_reciprocal(self):
        n = 8
        for p in (self.P, [1, F(1, 3)], [1, 0, 0, F(-7, 2)]):
            assert pr.pmul_trunc(p, pr.ppow_trunc(p, -1, n), n) == [1] + [0] * n

    def test_power_round_trip(self):
        n = 7
        want = self.P + [0] * (n + 1 - len(self.P))
        for s in (F(3, 7), F(-2, 5), F(11, 30), 3):
            assert pr.ppow_trunc(pr.ppow_trunc(self.P, s, n), 1 / F(s), n) == want
        p = [1.0, 0.25 + 0.5j, -0.75]
        back = pr.ppow_trunc(pr.ppow_trunc(p, 0.3, n), 1 / 0.3, n)
        assert max(abs(a - b) for a, b in zip(back, p + [0] * n)) < 1e-13

    def test_composition_matches_nested_evaluation(self):
        inner = [F(0), F(2, 3), F(-1), F(1, 4)]
        n = (len(self.P) - 1) * (len(inner) - 1)   # no truncation loss
        comp = pr.pcompose_trunc(self.P, inner, n)
        for t in (F(1, 3), F(-5, 2), F(7)):
            assert pr.peval(comp, t) == pr.peval(self.P, pr.peval(inner, t))
        for m in range(n):
            assert pr.pcompose_trunc(self.P, inner, m) == comp[: m + 1]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            pr.ppow_trunc([F(2), F(1)], F(1, 2), 3)
        with pytest.raises(ValueError):
            pr.pcompose_trunc(self.P, [F(1), F(1)], 3)


def horner_sub_affine(p, a, b):
    """p(a + b*y) by Horner's rule through pmul/padd (the former psub_affine)."""
    acc = [0]
    for c in reversed(list(p)):
        acc = pr.padd(pr.pmul(acc, [a, b]), [c])
    return pr.trim(acc)


class TestAffineSubstitution:
    """psub_affine, a Taylor shift then a scaling, against Horner's rule."""

    AB = [(1, -1), (1, 1), (2, 3), (F(1, 2), -1)]
    POLYS = {
        "fraction": [F(1), F(-2, 3), F(5, 7), F(0), F(3, 2)],
        "int": [3, -1, 0, 4, 2, -5],
        "float": [0.5, -1.25, 2.0, 0.75, -3.5],
    }

    @pytest.mark.parametrize("kind", sorted(POLYS))
    @pytest.mark.parametrize("a,b", AB)
    def test_matches_horner(self, kind, a, b):
        p = list(self.POLYS[kind])
        got = pr.psub_affine(p, a, b)
        assert got == horner_sub_affine(p, a, b)
        assert p == self.POLYS[kind]   # the input is not shifted in place
        if kind != "float":
            for y in (F(1, 3), F(-5, 2), 2):
                assert pr.peval(got, y) == pr.peval(p, a + b * y)

    @pytest.mark.parametrize("a,b", AB)
    def test_sympy_symbol(self, a, b):
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")
        p = [x, 1, x ** 2, F(-3, 4), 2 * x]
        got = pr.psub_affine(p, a, b)
        want = horner_sub_affine(p, a, b)
        assert len(got) == len(want)
        assert all(sp.expand(g - w) == 0 for g, w in zip(got, want))

    def test_degenerate_inputs(self):
        for a, b in self.AB:
            assert pr.psub_affine([F(7, 3)], a, b) == [F(7, 3)]
            assert pr.psub_affine([], a, b) == horner_sub_affine([], a, b) == [0]
        # b = 0 leaves the constant p(a), trailing zeros trimmed
        assert pr.psub_affine([1, 2, 3], 2, 0) == horner_sub_affine([1, 2, 3], 2, 0) == [17]


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
        v = values(s, 0.3)
        assert abs(v - complex(mp.hyp2f1(0.7, 1.1, 1.4, 0.3))) < 1e-14

    def test_recursion_residual(self, gs_ode):
        for alpha in (F(1, 2), F(2, 5), F(9, 10)):
            s = cy.frobenius_series(gs_ode, alpha, 120, exact=False)
            assert cy.frobenius.recursion_residual(gs_ode, s) < 1e-10

    def test_not_a_root_rejected(self, gs_ode):
        with pytest.raises(ValueError):
            cy.frobenius_series(gs_ode, F(1, 3), 10)

    @pytest.mark.parametrize("exact", [True, False])
    def test_float_exponent_rejected(self, exact):
        # 1/2 is a root of theta(theta - 1/2), but exponents are int or Fraction
        ode = cy.ThetaOde(order=2, polys=((0, F(-1, 2), 1), (1,)))
        assert cy.frobenius_series(ode, F(1, 2), 10, exact=exact).exponent == F(1, 2)
        with pytest.raises(ValueError, match="int or a Fraction"):
            cy.frobenius_series(ode, 0.5, 10, exact=exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_real_coefficients_either_way(self, gs_ode, exact):
        s = cy.frobenius_series(gs_ode, F(1, 2), 40, exact=exact)
        assert s.coeffs.dtype == np.float64
        assert (s.exact_coeffs is not None) == exact

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
        assert abs(values(s, x) / x**0.5 - 1.0) < 1e-8

    def test_double_terms_oracle(self, gs_ode):
        s1 = cy.frobenius_series(gs_ode, F(1, 2), 100, exact=False)
        s2 = cy.frobenius_series(gs_ode, F(1, 2), 200, exact=False)
        for x in (0.3, 0.5, 0.64):
            v1, v2 = values(s1, x), values(s2, x)
            # the last retained term at M = 100 is below 4e-23 here: the bound is rounding
            assert abs(v1 - v2) <= 1.1e-13

    def test_out_of_disk(self, gs_ode):
        s = cy.frobenius_series(gs_ode, F(1, 2), 20)
        with pytest.raises(cy.OutOfDiskError):
            values(s, 1.2)

    def test_cross_module_hypergeometric(self):
        a, b, c = F(7, 10), F(11, 10), F(7, 5)
        ode = cy.theta_form([[a * b], [-c, a + b + 1], [F(0), F(-1), F(1)]])
        s = cy.frobenius_series(ode, F(0), 200)
        v = values(s, 0.3)
        assert abs(v - cy.hyp2f1(cy.HypParams(0.7, 1.1, 1.4), 0.3)) < 1e-12


def hyp_ode(a, b, c):
    return cy.theta_form([[a * b], [-c, a + b + 1], [F(0), F(-1), F(1)]])


class TestKernel:
    """``frobenius.evaluate`` on the real slice 0 < u < 1: scalar and array paths
    and the disk checks, against the complex-kernel oracle."""

    def test_scalar_and_array_agree(self, gs_ode):
        b0 = cy.basis_for(gs_ode, cy.indicial_exponents(gs_ode), 200)
        ode1 = cy.recenter_to_one(gs_ode)
        b1 = cy.basis_for(ode1, cy.indicial_exponents(ode1), 200)
        us = np.array([0.05, 0.3, 0.5, 0.62, 0.8, 0.97])
        for basis, xs in ((b0, us), (b1, 1 - us)):
            V = fb.evaluate(basis, xs)
            assert V.shape == (len(xs), 3) and V.dtype == np.float64
            ref = ko.series_values(basis, xs)
            assert np.all(np.abs(V - ref) <= 1e-13 * np.abs(ref))
            for p, x in enumerate(xs):
                assert np.all(np.abs(fb.evaluate(basis, x) - V[p]) <= 1e-14 * np.abs(V[p]))

    def test_real_scalar_path(self, gs_ode):
        # a real scalar gives the (size,) row of the array route; a basis takes
        # only real series coefficients
        b0 = cy.basis_for(gs_ode, cy.indicial_exponents(gs_ode), 200)
        for x in (0.05, 0.3, np.float64(0.5), 0.62):
            v = fb.evaluate(b0, x)
            assert v.shape == (3,) and v.dtype == np.float64
            ref = fb.evaluate(b0, np.array([x, 0.1]))[0]
            assert np.max(np.abs(v - ref) / np.abs(ref)) <= 1e-14
        ode1 = cy.recenter_to_one(gs_ode)
        b1 = cy.basis_for(ode1, cy.indicial_exponents(ode1), 200)
        assert np.max(np.abs(fb.evaluate(b1, 0.7) - ko.series_values(b1, 0.7))) <= 1e-14
        with pytest.raises(ValueError, match="real series coefficients"):
            cy.FrobeniusBasis(b0.center, (b0.series[0],
                                          cy.FrobeniusSeries(F(1, 2), np.array([1, 0.5j, 0.1]))))

    @pytest.mark.parametrize("kind", [float, np.float64, np.float32, int, complex])
    def test_scalar_is_one_point_of_the_array_kernel(self, kind):
        # a real scalar is bitwise the value of the same point in a one-element
        # array; an int is taken at the centre, u = 0, outside the open disk, and
        # complex input raises
        model = cy.get_model("yl1int_gs")
        for basis, xs, centre in ((model.basis0(200), (0.05, 0.3, 0.5, 0.62), 0),
                                  (model.basis1(200), (0.4, 0.7, 0.95), 1)):
            if kind is int:
                for x in (centre, np.array([centre])):
                    with pytest.raises(cy.OutOfDiskError):
                        fb.evaluate(basis, x)
                continue
            for x in map(kind, xs):
                if kind is complex:
                    with pytest.raises(ValueError, match="complex"):
                        fb.evaluate(basis, x)
                else:
                    assert np.array_equal(fb.evaluate(basis, x),
                                          fb.evaluate(basis, np.array([x]))[0])

    def test_array_shape_and_series_arrays(self, gs_ode):
        s = cy.frobenius_series(gs_ode, F(1, 2), 80, exact=False)
        xs = np.array([[0.1, 0.2], [0.3, 0.4]])
        vals = values(s, xs)
        assert vals.shape == (2, 2)
        assert abs(vals[1, 0] - values(s, 0.3)) <= 1e-13 * abs(vals[1, 0])
        assert values(s, np.array([])).shape == (0,)

    def test_one_out_of_disk_point_raises(self, gs_ode):
        b0 = cy.basis_for(gs_ode, cy.indicial_exponents(gs_ode), 60)
        with pytest.raises(cy.OutOfDiskError):
            fb.evaluate(b0, np.array([0.1, 0.5, 1.2, 0.3]))
        with pytest.raises(cy.OutOfDiskError):
            values(b0.series[0], np.array([0.2, -1.0]))
        ode1 = cy.recenter_to_one(gs_ode)
        b1 = cy.basis_for(ode1, cy.indicial_exponents(ode1), 60)
        with pytest.raises(cy.OutOfDiskError):
            fb.evaluate(b1, np.array([0.5, 0.0]))   # u = 1 - x = 1

    def test_centre_special_cases(self):
        # exponents 0 and 1 - c = -2/5: the oracle gives a_0 = 1 for the first
        # at the centre and raises for the second, singular there; evaluate
        # takes only 0 < u < 1 and raises at the centre for every exponent
        a, b, c = F(7, 10), F(11, 10), F(7, 5)
        ode = hyp_ode(a, b, c)
        regular = cy.basis_for(ode, (F(0),), 40)
        singular = cy.basis_for(ode, (1 - c,), 40)
        assert np.array_equal(ko.series_values(regular, 0.0), [1.0])
        assert np.array_equal(ko.series_values(regular, np.array([0.0])), [[1.0]])
        for x in (0.0, np.array([0.3, 0.0])):
            with pytest.raises(cy.OutOfDiskError):
                ko.series_values(singular, x)
        with pytest.raises(cy.OutOfDiskError):
            ko.series_values(cy.basis_for(ode, (F(0), 1 - c), 40), np.array([0.0, 0.5]))
        # positive exponent: the oracle's value at the centre is zero
        positive = cy.basis_for(hyp_ode(a, b, F(3, 5)), (F(2, 5),), 40)
        assert np.array_equal(ko.series_values(positive, 0.0), [0.0])
        assert np.array_equal(ko.series_values(positive, np.array([0.0, 0.2]))[0], [0.0])
        for basis in (regular, singular, positive):
            for x in (0.0, np.array([0.0, 0.2]), np.array([0.2, 0.0])):
                with pytest.raises(cy.OutOfDiskError):
                    fb.evaluate(basis, x)

    def test_hypergeometric_oracle_complex_u(self):
        # the complex-kernel oracle itself against mpmath off the real slice
        mp = pytest.importorskip("mpmath")
        a, b, c = F(7, 10), F(11, 10), F(7, 5)
        basis = cy.basis_for(hyp_ode(a, b, c), (F(0), 1 - c), 400)
        us = [0.9 * np.exp(1j * t) for t in (0.3, 1.2, 2.0, 2.9, -0.7, -2.5)]
        us += [0.5j, -0.85, 0.6 - 0.6j]
        V = ko.series_values(basis, np.array(us))
        af, bf, cf = float(a), float(b), float(c)
        for p, u in enumerate(us):
            i1 = complex(mp.hyp2f1(af, bf, cf, u))
            i2 = complex(mp.power(u, 1 - cf) * mp.hyp2f1(af - cf + 1, bf - cf + 1, 2 - cf, u))
            assert abs(V[p, 0] - i1) <= 1e-12 * abs(i1)
            assert abs(V[p, 1] - i2) <= 1e-12 * abs(i2)
        # and evaluate on the real slice
        for u in (0.05, 0.4, 0.9):
            i1 = float(mp.hyp2f1(af, bf, cf, u))
            i2 = float(mp.power(u, 1 - cf) * mp.hyp2f1(af - cf + 1, bf - cf + 1, 2 - cf, u))
            assert np.all(np.abs(fb.evaluate(basis, u) - [i1, i2]) <= 1e-12 * np.abs([i1, i2]))

    @pytest.mark.parametrize("model_id,g", [("yl2int_vac", None), ("mm_n2_phi21", F(8, 7))])
    def test_jet_against_mpmath_derivatives(self, model_id, g):
        # W[i, d] at x = 1/2 against mpmath derivatives of the 2F1 forms of
        # I_i about 0 and J_j about 1, where d/dx = -d/du takes a factor -1
        mp = pytest.importorskip("mpmath")
        model = cy.get_model(model_id, g)
        a, b, c = ((F(7, 10), F(11, 10), F(7, 5)) if g is None
                   else (2 - 3 * g, F(3, 2) - 2 * g, F(3, 2) - g))
        with mp.workdps(40):
            A, B, C = (mp.mpf(v.numerator) / v.denominator for v in (a, b, c))
            D = C - A - B
            forms = {(0, 0): lambda x: mp.hyp2f1(A, B, C, x),
                     (0, 1 - c): lambda x: x ** (1 - C) * mp.hyp2f1(A - C + 1, B - C + 1, 2 - C, x),
                     (1, 0): lambda x: mp.hyp2f1(A, B, A + B - C + 1, 1 - x),
                     (1, c - a - b): lambda x: (1 - x) ** D * mp.hyp2f1(C - A, C - B, D + 1, 1 - x)}
            for centre, basis in enumerate((model.basis0(), model.basis1())):
                W = basis.jet(0.5, 2)
                for i, e in enumerate(basis.exponents):
                    for d in range(3):
                        ref = complex(mp.diff(forms[centre, e], mp.mpf(1) / 2, d))
                        assert abs(W[i, d] - ref) <= 1e-13 * abs(ref)

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


# the six catalog models, and both families at three of the couplings perfbench's
# cft_catalog draws from (G_POOL in perfbench/workloads.py)
EVAL_MODELS = ([(m, None) for m in ("yl2int_vac", "yl1int_vac", "yl1int_gs", "ising2int_vac")]
               + [("mm_n2_phi21", F(7, 5)), ("mm_n3_phi21", F(11, 8))]
               + [(f, F(g)) for f in ("mm_n2_phi21", "mm_n3_phi21")
                  for g in ("8/7", "13/8", "17/11")])
EVAL_U = np.r_[1e-10, np.linspace(1e-3, 0.999, 500)]


class TestRealEvaluator:
    """``frobenius.evaluate`` on every basis the pipeline builds, about both centres."""

    @pytest.mark.parametrize("M", [60, 200])
    @pytest.mark.parametrize("mid,g", EVAL_MODELS)
    def test_agrees_with_the_complex_kernel(self, mid, g, M):
        # within c eps of the sum of absolute terms |u^alpha| sum_n |a_n| u^n;
        # the largest ratio over these cases is 10.8 eps
        model = cy.get_model(mid, g)
        n = np.arange(M + 1)
        for basis in (model.basis0(M), model.basis1(M)):
            x = EVAL_U if basis.center == fb.ZERO else 1.0 - EVAL_U
            got = fb.evaluate(basis, x)
            ref = ko.series_values(basis, x)
            assert got.dtype == np.float64 and got.shape == (len(x), basis.size)
            scale = EVAL_U[:, None] ** n @ np.abs(basis._coeffs) * EVAL_U[:, None] ** basis._alpha
            assert np.all(np.abs(got - ref) <= 32 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("mid,g", [("yl1int_gs", None), ("mm_n3_phi21", F(11, 8))])
    def test_dtype_and_shape(self, mid, g):
        model = cy.get_model(mid, g)
        for basis in (model.basis0(60), model.basis1(60)):
            k = basis.size
            for x, shape in ((0.3, (k,)), (np.float32(0.6), (k,)), (np.array(0.4), (k,)),
                             ([0.2, 0.7], (2, k)), (np.full((3, 2), 0.45), (3, 2, k)),
                             (np.array([]), (0, k)), (np.empty((2, 0)), (2, 0, k))):
                v = fb.evaluate(basis, x)
                assert v.dtype == np.float64 and v.shape == shape

    @pytest.mark.parametrize("mid,g", [("yl2int_vac", None), ("ising2int_vac", None),
                                       ("mm_n2_phi21", F(8, 7))])
    def test_points_outside_the_open_disk_raise(self, mid, g):
        model = cy.get_model(mid, g)
        for basis in (model.basis0(60), model.basis1(60)):
            # the u of each point, mapped back to x about the basis' centre
            at = (lambda u: u) if basis.center == fb.ZERO else (lambda u: 1.0 - u)
            for u in (0.0, -1e-300, -0.3, 1.0, 1.5, np.inf, -np.inf):
                for x in (at(u), np.array([at(0.3), at(u)])):
                    with pytest.raises(cy.OutOfDiskError):
                        fb.evaluate(basis, x)
            for x in (np.nan, np.array([at(0.3), np.nan])):
                with pytest.raises(ValueError, match="NaN"):
                    fb.evaluate(basis, x)
            for x in (at(0.3) + 0j, np.array([at(0.3)], dtype=complex), [0.3 + 0.1j]):
                with pytest.raises(ValueError, match="complex"):
                    fb.evaluate(basis, x)


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
            [values(s1, x1), values(s2, x1)],
            [values(s1, x2) - values(s1, x1), values(s2, x2) - values(s2, x1)],
        ])
        assert abs(np.linalg.det(m)) > 1e-6
