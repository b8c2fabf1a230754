"""Reference ODE algebra in Fraction arithmetic, for the exactness tests.

``cyclorb.frobenius`` and ``cyclorb.polyring`` clear denominators and run
their operator algebra and root confirmation on integers.  These functions
do the same algebra the direct way, on ``Fraction``s: the theta expansion of
sum_k c_k d^k, its inverse through Stirling numbers, the recentring at 1, and
the rational roots confirmed by exact evaluation and divided out by (x - r).
The float recursion is the per-j Horner and indexed loop it replaced.
"""

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
