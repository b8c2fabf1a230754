"""Dense polynomials and truncated power series over generic coefficient rings.

Polynomials and power series are plain lists of coefficients, low degree
first.  The truncated-series functions (``pmul_trunc``, ``ppow_trunc``,
``pcompose_trunc``) return the coefficients 0..n of the exact result.  Most
operations are duck-typed: they work equally well with ``fractions.Fraction``
(exact mode: exact inputs give exact outputs), ``int``, ``float``/``complex``
(numeric mode) or sympy expressions (symbolic checks in the tests).
``clear_denominators`` and ``rational_roots`` take rationals only (``int`` or
``Fraction``) and run on integers; ``deflate`` takes an integer polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_REAL_TOL = 1e-6   # |Im z| / max(1, |z|) below which a numerical root is real


def trim(p):
    """Drop trailing zero coefficients (keeps at least one entry)."""
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def is_zero(p):
    return all(c == 0 for c in p)


def degree(p):
    p = trim(p)
    if len(p) == 1 and p[0] == 0:
        return -1
    return len(p) - 1


def padd(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else 0
        b = q[i] if i < len(q) else 0
        out.append(a + b)
    return out


def pscale(p, c):
    return [c * a for a in p]


def pmul(p, q):
    return pmul_trunc(p, q, len(p) + len(q) - 2)


def peval(p, x):
    """Horner evaluation."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def psub_affine(p, a, b):
    """Return the coefficient list of p(a + b*y) in the variable y: a Taylor
    shift by synthetic division, then coefficient k times b^k."""
    c = list(p) or [0]
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] = c[j] + a * c[j + 1]
    return trim([ck * b ** k for k, ck in enumerate(c)])


def pmul_trunc(p, q, n):
    """Coefficients 0..n of p*q."""
    out = [0] * (n + 1)
    for i, a in enumerate(p[: n + 1]):
        if a == 0:
            continue
        for j, b in enumerate(q[: n + 1 - i]):
            out[i + j] = out[i + j] + a * b
    return out


def ppow_trunc(p, s, n):
    """Coefficients 0..n of p^s for p[0] = 1 and any exponent s.

    J. C. P. Miller's recurrence k g_k = sum_j ((s+1) j - k) p_j g_(k-j)
    (Knuth, TAOCP vol. 2, sec. 4.7); s = -1 gives the reciprocal series.
    """
    if p[0] != 1:
        raise ValueError("ppow_trunc needs p[0] == 1")
    g = [1]
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, min(k, len(p) - 1) + 1):
            if p[j] != 0:
                acc = acc + ((s + 1) * j - k) * p[j] * g[k - j]
        g.append(Fraction(1, k) * acc)
    return g


def pcompose_trunc(p, inner, n):
    """Coefficients 0..n of p(inner) for inner[0] = 0: sum c_k inner^k over
    running powers of inner, which stay in inner's ring (integers stay ints)."""
    if inner[0] != 0:
        raise ValueError("pcompose_trunc needs inner[0] == 0")
    acc, power = [0] * (n + 1), [1] + [0] * n
    for k, c in enumerate(p[: n + 1]):
        if k:
            power = pmul_trunc(power, inner, n)
        acc = [a + c * b for a, b in zip(acc, power)]
    return acc


def falling_factorial(k):
    """theta*(theta-1)*...*(theta-k+1) as a coefficient list; k=0 gives [1]."""
    out = [1]
    for i in range(k):
        out = pmul(out, [-i, 1])
    return out


def stirling2_table(n):
    """Stirling numbers of the second kind S(i, j) for 0 <= j <= i <= n."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            table[i][j] = table[i - 1][j - 1] + j * table[i - 1][j]
    return table


def rational_roots(p):
    """All rational roots of a Fraction-coefficient polynomial, with multiplicity.

    Candidates come from the floating-point roots of the primitive integer
    polynomial: each real one contributes the continued-fraction convergents
    whose numerator divides the constant and whose denominator divides the
    leading coefficient.  Every candidate is confirmed and divided out in
    integers (see ``deflate``).  Whatever is left of degree >= 1 (roots the
    floats missed, such as close or multiple ones) gets the rational-root
    theorem's divisor search, so the result is exact and complete for
    rational roots.  Returns (roots, deflated) where ``deflated`` is the
    primitive polynomial divided by every (x - root), with no rational roots.
    """
    p = trim([Fraction(c) for c in p])
    roots = []
    # x = 0 roots
    while len(p) > 1 and p[0] == 0:
        roots.append(Fraction(0))
        p = p[1:]
    if degree(p) < 1:
        return roots, p
    ip = _primitive_integer(p)
    real = [z.real for z in np.roots(np.array(ip[::-1], dtype=float))
            if abs(z.imag) <= _REAL_TOL * max(1.0, abs(z))]
    ip = _divide_out(ip, roots, (r for x in real for r in _convergents(x, ip[0], ip[-1])))
    if len(ip) > 1:   # still primitive, by Gauss's lemma
        ip = _divide_out(ip, roots, sorted({Fraction(sign * num, den)
                                            for num in _divisors(abs(ip[0]))
                                            for den in _divisors(abs(ip[-1]))
                                            for sign in (1, -1)}))
    # p / (x - h/k) = k p / (k x - h): the k's (1 for x = 0) give the quotient by monic factors
    return sorted(roots), [Fraction(c * math.prod(r.denominator for r in roots)) for c in ip]


def _divide_out(ip, roots, candidates):
    """Divide every candidate that is a root out of the primitive integer
    polynomial ip, as often as it divides, appending it to ``roots``; returns
    the integer quotient."""
    for r in candidates:
        while len(ip) > 1 and (q := deflate(ip, r.numerator, r.denominator)) is not None:
            roots.append(r)
            ip = q
    return ip


def deflate(ip, h, k):
    """The integer q with ip = (k x - h) q, or None if h/k (lowest terms, k > 0)
    is no root: sum_i c_i h^i k^(d-i) = 0 makes q integer (Gauss's lemma), so
    for a root every step q_(i-1) = (c_i + h q_i) / k is exact and the
    remainder c_0 + h q_0 is 0."""
    q, t = [], ip[-1]
    for c in reversed(ip[:-1]):
        qi, rem = divmod(t, k)
        if rem:
            return None
        q.append(qi)
        t = c + h * qi
    return q[::-1] if t == 0 else None


def clear_denominators(polys):
    """(integer polynomials, L): every rational polynomial in ``polys`` times L,
    the lcm of all their denominators.  Raises ``ValueError`` on a coefficient
    that is not an int or a Fraction."""
    if not all(isinstance(c, (int, Fraction)) for p in polys for c in p):
        raise ValueError("coefficients must be int or Fraction")
    L = math.lcm(*(c.denominator for p in polys for c in p))
    return [[c.numerator * (L // c.denominator) for c in p] for p in polys], L


def _primitive_integer(p):
    """Integer coefficients of the Fraction polynomial p, cleared of
    denominators and divided by their common factor."""
    (ip,), _ = clear_denominators([p])
    g = math.gcd(*ip)
    return [c // g for c in ip] if g > 1 else ip


def _convergents(x: float, const: int, lead: int):
    """Continued-fraction convergents h/k of x with h | const and k | lead,
    up to denominators of |lead|."""
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:   # ends: the denominators k grow at least like Fibonacci numbers
        if not math.isfinite(x):
            return
        a = math.floor(x)
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if k1 > abs(lead):
            return
        if lead % k1 == 0 and h1 and const % h1 == 0:
            yield Fraction(h1, k1)
        if x == a:
            return
        x = 1.0 / (x - a)


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))
