"""Special functions: real Gamma (``math.gamma``), Gauss hypergeometric with
one connection-row formula, minimal-model characters, Dedekind eta, and the
nome <-> cross-ratio map.

Double precision throughout; Gamma arguments and 2F1 parameters are real.
A ``CharacterSpec`` builds its integer 50-term q-expansion once; ``kac_character`` sums its head.
Fractional powers use the principal branch, cut on the negative real axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd

import numpy as np

from .polyring import pmul_trunc


class PoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""

    def __init__(self, z):
        super().__init__(f"gamma pole at z = {z}")
        self.location = z


class DegenerateConnectionError(ValueError):
    """Hypergeometric connection with integer c or d is not implemented."""


class DomainError(ValueError):
    pass


def _is_int(x, tol=1e-12) -> bool:
    return abs(x - round(x)) < tol


def _is_nonpositive_int(x, tol: float = 1e-12) -> bool:
    return x <= 0.5 and _is_int(x, tol)


def _real(x) -> float:
    """float(x); TypeError for a complex x, numpy's too (float() only warns there)."""
    if isinstance(x, (complex, np.complexfloating)):
        raise TypeError(f"real argument required, got {x!r}")
    return float(x)


def gamma(x) -> float:
    """Gamma(x) for real x from ``math.gamma``; PoleError at the non-positive integers."""
    if _is_nonpositive_int(x := _real(x)):
        raise PoleError(round(x))
    return math.gamma(x)


def rgamma(x) -> float:
    """1 / Gamma(x) for real x; entire, returns 0 at the poles of Gamma."""
    return 0.0 if _is_nonpositive_int(x := _real(x)) else 1.0 / math.gamma(x)


def gamma_ratio(x) -> float:
    """Gamma(x) / Gamma(1 - x) for real x; PoleError at Gamma(x)'s poles, 0 at Gamma(1 - x)'s."""
    return gamma(x) * rgamma(1.0 - x)


# ---------------------------------------------------------------------------
# Gauss hypergeometric


@dataclass(frozen=True)
class HypParams:
    """Real parameters (a, b, c) of 2F1(a, b; c | x), stored as floats."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _real(getattr(self, name)))
        if _is_nonpositive_int(self.c):
            raise DomainError(f"c = {self.c} is a non-positive integer; 2F1 series undefined")

    @property
    def d(self) -> float:
        return self.c - self.a - self.b


def _hyp_series(a, b, c, x, max_terms=4000) -> complex:
    """Direct series sum_n (a)_n (b)_n / (n! (c)_n) x^n, Kahan compensated.

    Converges for |x| < 1; raises if the tail has not decayed within
    ``max_terms`` terms, or when c + n = 0 is reached, for a non-positive
    integer c, before the series has ended.
    """
    a, b, c, x = complex(a), complex(b), complex(c), complex(x)
    term = 1.0 + 0j
    s = 0j
    comp = 0j
    for n in range(max_terms):
        t = term - comp
        u = s + t
        comp = (u - s) - t
        s = u
        if abs(term) < 1e-18 * max(1.0, abs(s)) and n > 4:
            return s
        try:
            term *= (a + n) * (b + n) / ((1.0 + n) * (c + n)) * x
        except ZeroDivisionError:
            raise DomainError(f"2F1 series undefined: c + {n} = 0 before the series ends") from None
    if abs(term) > 1e-13 * max(1.0, abs(s)):
        raise DomainError(f"2F1 series did not converge within {max_terms} terms at x = {x}")
    return s


def hyp2f1(p: HypParams, x) -> complex:
    """2F1(a, b; c | x) for |x| <= 0.6 (series) or |1-x| <= 0.6 (connection).

    In the overlap both routes agree to ~1e-11; outside both disks the point
    is rejected rather than analytically continued further.
    """
    x = complex(x)
    if abs(x) <= 0.6:
        return _hyp_series(p.a, p.b, p.c, x)
    if abs(1.0 - x) <= 0.6:
        return _hyp_via_connection(p, x)
    raise DomainError(f"x = {x} outside both convergence disks")


def _principal_pow(base: complex, expo: complex) -> complex:
    if base == 0:
        return 0j if complex(expo).real > 0 else complex(math.inf)
    return cmath.exp(complex(expo) * cmath.log(complex(base)))


def _connection_row(a, b, c) -> tuple:
    """2F1(a, b; c | x) = r1 2F1(a, b; 1-d | 1-x) + r2 (1-x)^d 2F1(c-a, c-b; 1+d | 1-x)
    with d = c - a - b: returns (r1, r2), DLMF 15.10.21."""
    d = c - a - b
    return (gamma(c) * gamma(d) * rgamma(c - a) * rgamma(c - b),
            gamma(c) * gamma(-d) * rgamma(a) * rgamma(b))


def _hyp_via_connection(p: HypParams, x: complex) -> complex:
    a, b, c, d = p.a, p.b, p.c, p.d
    if _is_int(d):
        raise DegenerateConnectionError(f"integer d = {d}: connection formula degenerates")
    y = 1.0 - x
    r1, r2 = _connection_row(a, b, c)
    return (r1 * _hyp_series(a, b, 1.0 - d, y)
            + r2 * _principal_pow(y, d) * _hyp_series(c - a, c - b, 1.0 + d, y))


def connection_2x2(p: HypParams):
    """Closed-form change of basis I_i = sum_j A_ij J_j for the 2F1 equation.

    I = {2F1(a,b;c|x), x^(1-c) 2F1(b-c+1,a-c+1;2-c|x)} about 0 and
    J = {2F1(a,b;a+b-c+1|1-x), (1-x)^d 2F1(c-a,c-b;d+1|1-x)} about 1.
    Each row is ``_connection_row`` of that solution's own Gauss equation (for J
    in y = 1 - x); Euler's transformation carries the bases of those rows onto
    J and I.  Returns (A, A_inv) as 2x2 float arrays.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    if _is_int(c) or _is_int(d):
        raise DegenerateConnectionError("integer c or d: connection matrix degenerates")
    A = np.array([_connection_row(a, b, c), _connection_row(b - c + 1, a - c + 1, 2 - c)])
    A_inv = np.array([_connection_row(a, b, 1 - d), _connection_row(c - a, c - b, 1 + d)])
    return A, A_inv


# ---------------------------------------------------------------------------
# Dedekind eta and minimal-model characters


def dedekind_eta(q) -> complex:
    """eta as a function of the nome q = exp(2 i pi tau), |q| < 1."""
    q = complex(q)
    if abs(q) >= 1:
        raise DomainError("|q| >= 1")
    prod = 1.0 + 0j
    qn = q
    n = 1
    while abs(qn) > 1e-18 and n < 10000:
        prod *= 1.0 - qn
        qn *= q
        n += 1
    return _principal_pow(q, 1.0 / 24.0) * prod


@dataclass(frozen=True)
class CharacterSpec:
    """Kac label (r, s) of the minimal model M(p, p')."""

    p: int
    p_prime: int
    r: int
    s: int

    def __post_init__(self):
        if gcd(self.p, self.p_prime) != 1:
            raise ValueError("p and p' must be coprime")
        if not (1 <= self.r <= self.p_prime - 1):
            raise ValueError(f"r = {self.r} outside 1..{self.p_prime - 1}")
        if not (1 <= self.s <= self.p - 1):
            raise ValueError(f"s = {self.s} outside 1..{self.p - 1}")

    @property
    def central_charge(self) -> Fraction:
        p, pp = self.p, self.p_prime
        return 1 - Fraction(6 * (p - pp) ** 2, p * pp)

    @property
    def weight(self) -> Fraction:
        p, pp = self.p, self.p_prime
        lam = p * self.r - pp * self.s
        return Fraction(lam**2 - (p - pp) ** 2, 4 * p * pp)

    @property
    def leading_exponent(self) -> Fraction:
        """chi ~ q^(h - c/24) * (1 + ...)."""
        return self.weight - self.central_charge / 24

    @cached_property
    def _table(self) -> tuple:
        """``character_coeffs(self, 50)``, built once per spec; ``kac_character`` slices it."""
        return tuple(character_coeffs(self, 50))


def character_coeffs(spec: CharacterSpec, M: int) -> list[int]:
    """Integer coefficients c_0..c_M of chi = q^(h - c/24) sum_k c_k q^k.

    The character is chi_{r,s} = K_{pr - p's} - K_{pr + p's} with
    K_lambda = (1/eta) sum_n q^((2pp'n + lambda)^2 / (4pp')).
    """
    if M > 50:
        raise ValueError("M <= 50")
    p, pp = spec.p, spec.p_prime
    N2 = 2 * p * pp
    lam_minus = p * spec.r - pp * spec.s
    lam_plus = p * spec.r + pp * spec.s
    base = lam_minus**2  # leading power of 4pp' * exponent

    # theta-like numerator: relative integer exponents ((N2 n + lam)^2 - base) / (2 N2)
    num = [0] * (M + 1)
    for lam, sign in ((lam_minus, 1), (lam_plus, -1)):
        n = 0
        while True:
            hit = False
            for nn in ({0} if n == 0 else {n, -n}):
                e4 = (N2 * nn + lam) ** 2 - base
                assert e4 % (2 * N2) == 0
                e = e4 // (2 * N2)
                if 0 <= e <= M:
                    num[e] += sign
                    hit = True
            if not hit and n > 0:
                break
            n += 1

    # multiply by 1/prod(1 - q^n): partition generating function
    part = [0] * (M + 1)
    part[0] = 1
    for k in range(1, M + 1):
        for e in range(k, M + 1):
            part[e] += part[e - k]
    return pmul_trunc(num, part, M)


def kac_character(spec: CharacterSpec, q, M: int = 50) -> complex:
    """chi_{r,s}(q) evaluated numerically from its q-expansion to q^M, 0 <= M <= 50."""
    q = complex(q)
    if abs(q) >= 1:
        raise DomainError("|q| >= 1")
    if not 0 <= M <= 50:
        raise ValueError("0 <= M <= 50")
    tail = sum(c * q**k for k, c in enumerate(spec._table[:M + 1]))
    return _principal_pow(q, float(spec.leading_exponent)) * tail


# ---------------------------------------------------------------------------
# nome <-> cross-ratio


def x_from_nome(q: float) -> float:
    """x = 16 sqrt(q) prod_n ((1 + q^n) / (1 + q^(n-1/2)))^8 for 0 < q < 1."""
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie in (0, 1)")
    sq = math.sqrt(q)
    prod = 1.0
    n = 1
    while True:
        num = 1.0 + q**n
        den = 1.0 + sq * q ** (n - 1)
        factor = (num / den) ** 8
        prod *= factor
        if abs(num - 1.0) < 1e-16 and abs(den - 1.0) < 1e-16:
            break
        n += 1
        if n > 100000:
            break
    return 16.0 * sq * prod


def nome_from_x(x: float) -> float:
    """Inverse of :func:`x_from_nome`: q = exp(-2 pi AGM(1, sqrt(1-x)) / AGM(1, sqrt(x))).

    With k^2 = x and k'^2 = 1 - x, K = pi / (2 AGM(1, k')) and K' = pi / (2 AGM(1, k))
    (DLMF 19.8.5); q is the square of Jacobi's nome exp(-pi K'/K) (DLMF 22.2).
    """
    if not 0.0 < x < 1.0:
        raise DomainError("x must lie in (0, 1)")
    return math.exp(-2.0 * math.pi * _agm(1.0, math.sqrt(1.0 - x)) / _agm(1.0, math.sqrt(x)))


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers."""
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)
