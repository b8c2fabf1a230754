"""Reference ODE algebra in Fraction arithmetic, for the exactness tests.

``cyclorb.frobenius`` and ``cyclorb.polyring`` clear denominators and run
their operator algebra and root confirmation on integers.  These functions
do the same algebra the direct way, on ``Fraction``s: the theta expansion of
sum_k c_k d^k, its inverse through Stirling numbers, the recentring at 1, and
the rational roots confirmed by exact evaluation and divided out by (x - r).
The float recursion is the per-j Horner and indexed loop it replaced.

``catalog`` builds its models' polynomials on integers and divides once, and
``catalog.torus_block_expansions`` runs on integer numerators over one
denominator.  ``catalog_model`` and ``torus_block_expansions`` below are the
direct ``Fraction`` builders they replaced, normalising at every operation.
"""

import math
from fractions import Fraction

import numpy as np

from cyclorb import frobenius as fb
from cyclorb import polyring as pr


def theta_form(standard_coeffs, variable_center=fb.ZERO):
    coeffs = [pr.trim(list(c)) for c in standard_coeffs]
    order = len(coeffs) - 1
    while order > 0 and pr.is_zero(coeffs[order]):
        coeffs.pop()
        order -= 1
    fb._check_fuchsian(pr.clear_denominators(coeffs)[0])   # scale-free
    # x^j d^k = x^(j-k) * theta(theta-1)...(theta-k+1)
    terms = {}
    for k, c in enumerate(coeffs):
        ff = pr.falling_factorial(k)
        for j, cj in enumerate(c):
            if cj != 0:
                terms[j - k] = pr.padd(terms.get(j - k, [0]), pr.pscale(ff, cj))
    polys = tuple(tuple(pr.trim(terms.get(m, [0]))) for m in range(min(terms), max(terms) + 1))
    return fb.ThetaOde(order=order, polys=polys, variable_center=variable_center)


def to_standard_coeffs(ode):
    s2 = pr.stirling2_table(max(ode.order, max(pr.degree(p) for p in ode.polys)))
    out = {}
    for m, poly in enumerate(ode.polys):
        for j, pj in enumerate(poly):
            # theta^j = sum_k S(j,k) x^k d^k
            for k in range(j + 1):
                if pj != 0 and s2[j][k] != 0:
                    out.setdefault(k, {})
                    out[k][m + k] = out[k].get(m + k, 0) + pj * s2[j][k]
    coeffs = []
    for k in range(ode.order + 1):
        d = out.get(k, {0: 0})
        coeffs.append(pr.trim([d.get(j, 0) for j in range(max(d) + 1)]))
    return coeffs


def recenter_to_one(ode):
    flipped = [pr.pscale(pr.psub_affine(c, 1, -1), (-1) ** k)
               for k, c in enumerate(to_standard_coeffs(ode))]
    return theta_form(flipped, variable_center=fb.ONE)


def divide_by_linear(p, r):
    """The quotient of p by (x - r), by synthetic division."""
    quot = [0] * (len(p) - 1)
    acc = p[-1]
    for i in range(len(p) - 2, -1, -1):
        quot[i] = acc
        acc = p[i] + r * acc
    return quot


def _divide_out(p, roots, candidates):
    """Divide every candidate that is an exact root out of p, as often as it
    divides, appending it to ``roots``; returns the quotient."""
    for r in candidates:
        while pr.degree(p) >= 1 and pr.peval(p, r) == 0:
            roots.append(r)
            p = divide_by_linear(p, r)
    return p


def rational_roots(p):
    """``polyring.rational_roots`` with Fraction evaluation and division by (x - r)."""
    p = pr.trim([Fraction(c) for c in p])
    roots = []
    while len(p) > 1 and p[0] == 0:
        roots.append(Fraction(0))
        p = p[1:]
    if pr.degree(p) < 1:
        return roots, p
    ip = pr._primitive_integer(p)
    real = [z.real for z in np.roots(np.array(ip[::-1], dtype=float))
            if abs(z.imag) <= pr._REAL_TOL * max(1.0, abs(z))]
    p = _divide_out([Fraction(c) for c in ip], roots,
                    (r for x in real for r in pr._convergents(x, ip[0], ip[-1])))
    if pr.degree(p) >= 1:
        ip = pr._primitive_integer(p)
        p = _divide_out(p, roots, sorted({Fraction(sign * num, den)
                                          for num in pr._divisors(abs(ip[0]))
                                          for den in pr._divisors(abs(ip[-1]))
                                          for sign in (1, -1)}))
    return sorted(roots), pr.trim(p)


def series_coeffs(ode, alpha, M):
    """Float recursion coefficients a_0..a_M for the indicial root alpha, with
    P_j evaluated by ``np.polyval`` per j and a_(n-j) read by index."""
    K = len(ode.polys) - 1
    shifts = float(alpha) + np.arange(M + 1)
    w = [np.polyval(np.array([float(c) for c in reversed(p)]), shifts - j).tolist()
         for j, p in enumerate(ode.polys)]
    resonances = {int(r - alpha) for r in fb.indicial_exponents(ode)
                  if r > alpha and (r - alpha).denominator == 1}
    a = [1.0]
    for n in range(1, M + 1):
        num = 0.0
        for j in range(1, min(n, K) + 1):
            num += w[j][n] * a[n - j]
        a.append(0.0 if n in resonances else -num * (1.0 / w[0][n]))
    return np.array(a)


# ---------------------------------------------------------------------------
# the catalog builders, on Fractions

F = Fraction


def _poly(*c):
    return [F(x) for x in c]


def _mul(*ps):
    out = [F(1)]
    for p in ps:
        out = pr.pmul(out, p)
    return out


def _gauss_ode(a, b, c):
    return fb.theta_form([[a * b], [-c, a + b + 1], [F(0), F(-1), F(1)]])


def mm_n3_polys(g):
    """The five theta polynomials of the replica-3 excited-state ODE."""
    try:
        g = F(g)
    except TypeError:
        pass

    def lin(c0, c1):
        return [c0, c1]

    P0 = _mul(lin(1 - 2 * g, g), lin(1 - g, g), lin(6 - 5 * g, 3 * g), lin(6 - 4 * g, 3 * g))
    P0 = pr.pscale(P0, 16)
    P1 = _mul(
        lin(1 - g, g),
        [486 - 963 * g + 666 * g**2 - 160 * g**3,
         567 * g - 810 * g**2 + 296 * g**3,
         234 * g**2 - 180 * g**3,
         36 * g**3],
    )
    P1 = pr.pscale(P1, -16)
    P2 = [28980 - 68076 * g + 60344 * g**2 - 24320 * g**3 + 3840 * g**4,
          46008 * g - 84456 * g**2 + 52272 * g**3 - 10944 * g**4,
          27720 * g**2 - 35280 * g**3 + 11424 * g**4,
          7776 * g**3 - 5184 * g**4,
          864 * g**4]
    P3 = _mul(
        lin(7 - 4 * g, 2 * g),
        [1215 - 1962 * g + 1008 * g**2 - 160 * g**3,
         1296 * g - 1404 * g**2 + 376 * g**3,
         504 * g**2 - 288 * g**3,
         72 * g**3],
    )
    P3 = pr.pscale(P3, -4)
    P4 = _mul(lin(7 - 4 * g, 2 * g), lin(7 - 2 * g, 2 * g),
              lin(15 - 10 * g, 6 * g), lin(15 - 8 * g, 6 * g))
    return [P0, P1, P2, P3, P4]


def catalog_model(model_id, g=None):
    """(ode, full_ode, scheme) of a catalog model, built on Fractions."""
    if model_id == "yl2int_vac":
        xm1 = _poly(-1, 1)
        c2 = pr.pscale(_mul(_poly(0, 0, 1), xm1, xm1), F(400))
        c1 = pr.pscale(_mul(_poly(0, 1), xm1, _poly(-3, 6)), F(40))
        return (_gauss_ode(F(7, 10), F(11, 10), F(7, 5)), fb.theta_form([_poly(33), c1, c2]),
                fb.RiemannScheme((F(3, 20), F(11, 20)), (F(3, 20), F(11, 20)), (F(0), F(-2, 5))))
    if model_id == "yl1int_vac":
        omx = _poly(1, -1)
        c2 = pr.pscale(_mul(_poly(0, 0, 1), omx, omx), F(10))
        c1 = _mul(_poly(0, 1), omx, _poly(3, -1))
        c0 = pr.pscale(_poly(3, 0, 5), F(2, 5))
        return (_gauss_ode(F(4, 5), F(7, 10), F(11, 10)), fb.theta_form([c0, c1, c2]),
                fb.RiemannScheme((F(2, 5), F(3, 10)), (F(4, 5), F(2, 5)), (F(-2, 5), F(-1, 2))))
    if model_id == "yl1int_gs":
        omx = _poly(1, -1)
        c3 = pr.pscale(_mul(_poly(0, 0, 0, 1), omx, omx, omx), F(5, 3))
        c2 = pr.pscale(_mul(_poly(0, 0, 1), omx, omx, _poly(1, -2)), F(2))
        c1 = pr.pscale(_mul(_poly(0, 1), omx, _poly(7, -14, 15)), F(1, 20))
        c0 = pr.pscale(_poly(15, -29, -3, 1), F(-1, 50))
        return (fb.theta_form([c0, c1, c2, c3]), None,
                fb.RiemannScheme((F(1, 2), F(2, 5), F(9, 10)), (F(4, 5), F(2, 5), F(3, 5)),
                                 (F(1, 10), F(-3, 10), F(-2, 5))))
    if model_id == "ising2int_vac":
        xm1 = _poly(-1, 1)
        c3 = pr.pscale(_mul(_poly(0, 0, 0, 1), xm1, xm1, xm1), F(4096))
        c2 = pr.pscale(_mul(_poly(0, 0, 1), xm1, xm1, _poly(-1, 2)), F(8448))
        c1 = pr.pscale(_mul(_poly(0, 1), xm1, _poly(5, -192, 192)), F(48))
        c0 = pr.pscale(_poly(-1, 2), F(15))
        col = (F(-1, 16), F(1, 16), F(15, 16))
        return (fb.theta_form([c0, c1, c2, c3]), None,
                fb.RiemannScheme(col, col, (F(0), F(1, 8), F(1))))
    g = F(g)
    if model_id == "mm_n2_phi21":
        col0 = ((2 - 3 * g) / 2, (1 - g) / 2)
        col1 = ((6 * g**2 - 13 * g + 6) / (8 * g), (38 * g**2 - 29 * g + 6) / (8 * g))
        colinf = ((-6 + 17 * g - 10 * g**2) / (8 * g), (-18 * g**2 + 21 * g - 6) / (8 * g))
        return (_gauss_ode(2 - 3 * g, F(3, 2) - 2 * g, F(3, 2) - g), None,
                fb.RiemannScheme(col0, col1, colinf))
    if model_id == "mm_n3_phi21":
        col0 = ((g - 1) / g, (4 * g - 6) / (3 * g), (2 * g - 1) / g, (5 * g - 6) / (3 * g))
        col1 = (F(3) / (2 * g), (6 * g - 9) / (2 * g), (2 * g - 1) / (2 * g),
                (4 * g - 5) / (2 * g))
        colinf = ((15 - 8 * g) / (6 * g), (7 - 4 * g) / (2 * g),
                  (7 - 2 * g) / (2 * g), (15 - 10 * g) / (6 * g))
        ode = fb.ThetaOde(order=4, polys=tuple(tuple(p) for p in mm_n3_polys(g)))
        return ode, None, fb.RiemannScheme(col0, col1, colinf)
    raise KeyError(model_id)


def torus_block_expansions(order=4):
    """The dressed Yang-Lee blocks' nome coefficients by Fraction series algebra."""
    n = 2 * order + 2  # series order in u = sqrt(q)
    x_over = [1]  # x / (16 u) = prod_k (1 + u^k)^(8 (-1)^k), in integers
    for k in range(1, n + 1):
        factor = [0] * (n + 1)
        for m in range(n // k + 1):
            factor[k * m] = math.comb(8, m) if k % 2 == 0 else (-1) ** m * math.comb(m + 7, 7)
        x_over = pr.pmul_trunc(x_over, factor, n)
    x_series = pr.pmul_trunc([0, 16], x_over, n)
    dressing = pr.ppow_trunc(pr.padd([1], pr.pscale(x_series, -1)), F(11, 30), n)

    def dressed(a, b, c, power_x_over):
        hyp = [F(1)]  # 2F1(a, b; c; x) coefficients
        for k in range(1, n + 1):
            hyp.append(hyp[-1] * (a + k - 1) * (b + k - 1) / (k * (c + k - 1)))
        ser = pr.pmul_trunc(pr.ppow_trunc(x_over, power_x_over, n), dressing, n)
        return pr.pmul_trunc(ser, pr.pcompose_trunc(hyp, x_series, n), n)

    s_id = dressed(F(7, 10), F(11, 10), F(7, 5), F(11, 30))
    s_phi = dressed(F(7, 10), F(3, 10), F(3, 5), F(-1, 30))
    assert not any(v != 0 for v in s_id[1:2 * order:2] + s_phi[1:2 * order:2])
    return s_id[:2 * order + 1:2], s_phi[:2 * order + 1:2]
