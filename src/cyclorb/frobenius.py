"""Series solutions of Fuchsian ODEs about regular singular points.

An ODE with regular singular points at {0, 1, oo} is stored in "theta form"

    [ P_0(theta) + x P_1(theta) + ... + x^K P_K(theta) ] f(x) = 0,

with theta = x d/dx.  The roots of the indicial polynomial P_0 are the local
exponents at the expansion point, and each root alpha yields one solution
x^alpha * sum_n a_n x^n whose coefficients follow a linear recursion.

The ODEs come from minimal-model Kac data, so every coefficient and every
local exponent is rational: ``ThetaOde`` rejects any other coefficient, and an
indicial polynomial with an irrational root raises ``ValueError``.
``frobenius_series`` runs the recursion in ``Fraction``s, or in real floats
given ``exact=False``; ``basis_for``, which builds every basis the pipeline
sums, passes ``exact=False``.

Every value is taken on the real slice: ``evaluate`` sums a whole basis at
real points of its disk, 0 < u < 1 with u = x about 0 and u = 1 - x about 1,
in float64, and ``FrobeniusBasis.jet`` gives the derivatives at one point.
``monodromy.assemble`` sums the same power sums, ``_power_sums``, over a row
cut of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import polyring as pr


class NonFuchsianError(ValueError):
    """Input operator has a singular point away from {0, 1, oo}."""


class LogarithmicCaseError(ValueError):
    """A resonance with non-vanishing numerator requires a log solution."""


class OutOfDiskError(ValueError):
    """Series evaluation requested outside the disk of convergence."""


ZERO, ONE = "zero", "one"

_RES_TOL = 1e-10   # relative tolerance for a vanishing resonance numerator
_CHUNK = 256       # points per power matrix in ``_power_sums``
_RATIONAL = (int, Fraction)   # the types of every ODE coefficient and exponent


@dataclass(frozen=True)
class ThetaOde:
    """Fuchsian ODE in theta form; ``polys[k]`` holds P_k, low degree first."""

    order: int
    polys: tuple
    variable_center: str = ZERO

    def __post_init__(self):
        if not all(isinstance(c, _RATIONAL) for p in self.polys for c in p):
            raise ValueError("ThetaOde coefficients must be int or Fraction")
        if pr.degree(self.polys[0]) != self.order:
            raise ValueError(
                f"indicial polynomial has degree {pr.degree(self.polys[0])}, "
                f"expected the ODE order {self.order}"
            )

    def indicial_poly(self):
        return list(self.polys[0])

    @cached_property
    def indicial_roots(self) -> tuple:
        """Roots of P_0, solved once per ODE; see :func:`indicial_exponents`."""
        return tuple(_poly_roots(self.indicial_poly()))

    @cached_property
    def _horner(self) -> np.ndarray:
        """Row j: P_j's float64 coefficients, high degree first, zero-padded in front."""
        width = max(map(len, self.polys))
        return np.array([[0.0] * (width - len(p)) + [float(c) for c in reversed(p)]
                         for p in self.polys])


@dataclass(frozen=True)
class RiemannScheme:
    """Local exponents at the three singular points (each list has length = order)."""

    exponents_at_0: tuple
    exponents_at_1: tuple
    exponents_at_inf: tuple

    def __post_init__(self):
        n = len(self.exponents_at_0)
        if not (len(self.exponents_at_1) == n == len(self.exponents_at_inf)):
            raise ValueError("scheme columns must all have length = order")
        total = sum(self.exponents_at_0) + sum(self.exponents_at_1) + sum(self.exponents_at_inf)
        expected = Fraction(n * (n - 1), 2)  # 3 singular points
        if total != expected:
            raise ValueError(f"Fuchs relation violated: sum {total} != {expected}")

    def columns(self):
        return (self.exponents_at_0, self.exponents_at_1, self.exponents_at_inf)

    def column_sets(self):
        return tuple(tuple(sorted(c)) for c in self.columns())


@dataclass
class FrobeniusSeries:
    """One solution x^alpha * sum a_n x^n with a_0 = 1 about ``center``."""

    exponent: Fraction
    coeffs: np.ndarray                     # float64, length M+1
    center: str = ZERO
    resonant_orders: tuple = ()
    exact_coeffs: Optional[list] = None    # Fractions from the exact recursion


@dataclass(frozen=True)
class FrobeniusBasis:
    """Several Frobenius solutions of one ODE about one point, in a fixed order."""

    center: str
    series: tuple
    # float64 exponents and coefficient matrix C[n, i] = a_n of series i, zero-padded
    _alpha: np.ndarray = field(init=False, repr=False, compare=False)
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.series)

    @property
    def exponents(self) -> tuple:
        return tuple(s.exponent for s in self.series)

    def __post_init__(self):
        if any(np.iscomplexobj(s.coeffs) for s in self.series):
            raise ValueError("a Frobenius basis takes real series coefficients")
        n_max = max(len(s.coeffs) for s in self.series)
        C = np.zeros((n_max, len(self.series)))
        for i, s in enumerate(self.series):
            C[: len(s.coeffs), i] = s.coeffs
        object.__setattr__(self, "_alpha", np.array([float(s.exponent) for s in self.series]))
        object.__setattr__(self, "_coeffs", C)

    def jet(self, x: float, order: int) -> np.ndarray:
        """Real W[i, d], the d-th x-derivative of series i at a real x, for d <= order:
        u^alpha_i sum_n C[n, i] (alpha_i+n)(alpha_i+n-1)...(alpha_i+n-d+1) u^(n-d)
        term by term, with u = x about 0; about 1, u = 1 - x and the d-th
        derivative takes a factor (-1)^d.  Each sum over n is pairwise (numpy's
        sum along a contiguous axis).
        """
        u, sign = (float(x), 1.0) if self.center == ZERO else (1.0 - float(x), -1.0)
        if not 0.0 < u < 1.0:
            raise OutOfDiskError(f"jet needs 0 < u < 1, got u = {u}")
        d, n = np.arange(order + 1)[:, None], np.arange(len(self._coeffs))
        p = self._alpha[:, None, None] + n                       # alpha_i + n
        ff = np.cumprod(np.concatenate([np.ones_like(p), p - d[:-1]], axis=1), axis=1)
        W = np.sum(self._coeffs.T[:, None] * ff * u ** (n - d), axis=-1)
        return W * np.exp(self._alpha * np.log(u))[:, None] * sign ** d.T


# ---------------------------------------------------------------------------
# construction


def theta_form(standard_coeffs: Sequence[Sequence], variable_center: str = ZERO) -> ThetaOde:
    """Convert sum_k c_k(x) d^k/dx^k into theta form.

    ``standard_coeffs[k]`` is the polynomial c_k(x), low degree first, with int
    or ``Fraction`` coefficients.  The operator must be Fuchsian with singular
    points only in {0, 1, oo}; the offending roots are reported otherwise.
    """
    coeffs, L = pr.clear_denominators([pr.trim(list(c)) for c in standard_coeffs])
    return _theta_form_cleared(coeffs, L, variable_center)


def _theta_form_cleared(coeffs, L: int, variable_center: str) -> ThetaOde:
    """:func:`theta_form` of sum_k (c_k / L) d^k for integer lists c_k: the algebra runs
    on integers (an ODE is fixed only up to a scale) and divides by L once, at the end."""
    order = len(coeffs) - 1
    while order > 0 and pr.is_zero(coeffs[order]):
        coeffs.pop()
        order -= 1
    if order < 1:
        raise ValueError("operator must have order >= 1")
    _check_fuchsian(coeffs)

    # x^j d^k = x^(j-k) * theta(theta-1)...(theta-k+1)
    terms = {}
    for k, c in enumerate(coeffs):
        ff = pr.falling_factorial(k)
        for j, cj in enumerate(c):
            if cj != 0:
                terms[j - k] = pr.padd(terms.get(j - k, [0]), pr.pscale(ff, cj))
    polys = tuple(tuple(Fraction(v, L) for v in pr.trim(terms.get(m, [0])))
                  for m in range(min(terms), max(terms) + 1))
    return ThetaOde(order=order, polys=polys, variable_center=variable_center)


def _ord_of(p) -> int:
    """Index of the first non-vanishing coefficient (= len(p) for the zero poly)."""
    for i, a in enumerate(p):
        if a != 0:
            return i
    return len(p)


def _check_fuchsian(coeffs):
    """Regular-singular conditions at 0, 1, oo for integer polynomial coefficients c_k."""
    order = len(coeffs) - 1
    s = _ord_of(coeffs[order])
    work = pr.trim(list(coeffs[order])[s:])
    t = 0
    while len(work) > 1 and (quot := pr.deflate(work, 1, 1)) is not None:
        work, t = quot, t + 1
    if len(work) > 1:
        roots = np.roots(np.array([complex(c) for c in reversed(work)]))
        bad = [r for r in roots if abs(r) > 1e-9 and abs(r - 1) > 1e-9]
        raise NonFuchsianError(f"leading coefficient vanishes away from {{0,1}}: roots ~ {bad}")
    deg_lead = s + t
    for k, c in enumerate(coeffs[:-1]):
        if pr.is_zero(c):
            continue
        if _ord_of(c) < k - (order - s):
            raise NonFuchsianError(f"irregular singularity at x=0 (c_{k} order too low)")
        if _ord_of(pr.psub_affine(c, 1, 1)) < k - (order - t):
            raise NonFuchsianError(f"irregular singularity at x=1 (c_{k} order too low)")
        if pr.degree(c) > deg_lead - order + k:
            raise NonFuchsianError(f"irregular singularity at x=oo (deg c_{k} too large)")


def to_standard_coeffs(ode: ThetaOde) -> list:
    """Inverse of :func:`theta_form`: coefficients c_k(x) of sum_k c_k d^k,
    expanded on the integer-cleared theta polynomials."""
    polys, L = pr.clear_denominators(ode.polys)
    n = ode.order
    s2 = pr.stirling2_table(max(n, max(pr.degree(p) for p in polys)))
    out = {}
    for m, poly in enumerate(polys):
        for j, pj in enumerate(poly):
            if pj == 0:
                continue
            # theta^j = sum_k S(j,k) x^k d^k
            for k in range(j + 1):
                coef = s2[j][k]
                if coef == 0:
                    continue
                out.setdefault(k, {})
                out[k][m + k] = out[k].get(m + k, 0) + pj * coef
    return [pr.trim([Fraction(d.get(j, 0), L) for j in range(max(d) + 1)])
            for d in (out.get(k, {0: 0}) for k in range(n + 1))]


def recenter_to_one(ode: ThetaOde) -> ThetaOde:
    """Theta form of the same ODE in the variable y = 1 - x."""
    if ode.variable_center != ZERO:
        raise ValueError("ode already centered at one")
    return theta_form_at_one(to_standard_coeffs(ode))


def theta_form_at_one(standard_coeffs: Sequence[Sequence]) -> ThetaOde:
    """Theta form in y = 1 - x of sum_k c_k(x) d^k/dx^k, from the c_k about 0:
    the operator's coefficients (-1)^k c_k(1 - y), on integers."""
    coeffs, L = pr.clear_denominators(standard_coeffs)
    flipped = [pr.pscale(pr.psub_affine(c, 1, -1), (-1) ** k) for k, c in enumerate(coeffs)]
    return _theta_form_cleared(flipped, L, ONE)


def indicial_exponents(ode: ThetaOde) -> list:
    """Roots of P_0 with multiplicity, as ``Fraction``s sorted ascending.

    They come from ``polyring.rational_roots`` (numerical candidates confirmed
    exactly, then the rational-root theorem on what is left); a root that is
    not rational raises ``ValueError``.
    """
    return list(ode.indicial_roots)


def _poly_roots(poly) -> list:
    roots, rest = pr.rational_roots(poly)
    if pr.degree(rest) >= 1:
        raise ValueError(f"the factor {[str(c) for c in rest]} (low degree first) "
                         "has irrational roots")
    return roots


def exponents_at_infinity(ode: ThetaOde) -> list:
    """Exponents rho at x = oo (solutions ~ x^-rho): negated roots of P_K."""
    return sorted(-r for r in _poly_roots(ode.polys[-1]))


def scheme_of(ode: ThetaOde) -> RiemannScheme:
    """Riemann scheme of an ODE centered at zero."""
    at0 = indicial_exponents(ode)
    at1 = indicial_exponents(recenter_to_one(ode))
    atinf = exponents_at_infinity(ode)
    return RiemannScheme(tuple(at0), tuple(at1), tuple(atinf))


# ---------------------------------------------------------------------------
# series


def frobenius_series(ode: ThetaOde, alpha, M: int, exact: bool = True) -> FrobeniusSeries:
    """Series solution for the indicial root alpha (an int or a ``Fraction``),
    truncated at order M.

    The recursion runs in ``Fraction``s, which are kept as ``exact_coeffs``,
    or given ``exact=False`` in float64.  At a resonance (P_0(alpha+n) = 0 for
    n > 0) the free coefficient is set to zero when the recursion numerator
    vanishes; otherwise the solution needs a logarithm and
    ``LogarithmicCaseError`` is raised.
    """
    if M < 2:
        raise ValueError("M >= 2 required")
    if not isinstance(alpha, _RATIONAL):
        raise ValueError(f"alpha = {alpha!r} must be an int or a Fraction")
    alpha = Fraction(alpha)
    if (pr.peval(ode.indicial_poly(), alpha) != 0 if exact else alpha not in ode.indicial_roots):
        raise ValueError(f"alpha = {alpha} is not a root of the indicial polynomial")

    if exact:
        exact_list, resonant = _run_recursion_exact(ode, alpha, M)
        coeffs = np.array([float(a) for a in exact_list])
    else:
        exact_list = None
        coeffs, resonant = _run_recursion_float(ode, alpha, M)

    return FrobeniusSeries(
        exponent=alpha,
        coeffs=coeffs,
        center=ode.variable_center,
        resonant_orders=tuple(resonant),
        exact_coeffs=exact_list,
    )


def _run_recursion_exact(ode: ThetaOde, alpha: Fraction, M: int):
    polys = ode.polys
    K = len(polys) - 1
    p0 = ode.indicial_poly()
    a = [Fraction(1)]
    resonant = []
    for n in range(1, M + 1):
        num = Fraction(0)
        for j in range(1, min(n, K) + 1):
            num += pr.peval(polys[j], alpha + n - j) * a[n - j]
        den = pr.peval(p0, alpha + n)
        if den == 0:
            if num == 0:
                a.append(Fraction(0))
                resonant.append(n)
                continue
            raise LogarithmicCaseError(
                f"resonance at n={n} (alpha={alpha}) with non-vanishing numerator: "
                "logarithmic solution required"
            )
        a.append(-num / den)
    return a, resonant


def _run_recursion_float(ode: ThetaOde, alpha: Fraction, M: int):
    K = len(ode.polys) - 1
    # w[j, n] = P_j(alpha + n - j), by Horner over every j and n at once
    x = float(alpha) + np.arange(M + 1) - np.arange(K + 1)[:, None]
    w = np.zeros_like(x)
    for col in ode._horner.T:
        w = w * x + col[:, None]
    w0, rows = w[0].tolist(), w[1:].T.tolist()   # rows[n][j - 1] = w[j, n]
    # a resonance happens exactly when alpha + n is another indicial root
    resonances = {int(r - alpha) for r in ode.indicial_roots
                  if r > alpha and (r - alpha).denominator == 1}
    a = [1.0]
    resonant = []
    for n in range(1, M + 1):
        # sum over j = 1..min(n, K) of w[j, n] a[n - j], in that order
        num, i = 0.0, n
        for wj in rows[n][:n]:
            i -= 1
            num += wj * a[i]
        if n in resonances:
            scale = max((abs(wj) * max(1.0, abs(a[n - j])) for j, wj in enumerate(rows[n][:n], 1)),
                        default=0.0)
            if abs(num) <= _RES_TOL * max(1.0, scale):
                a.append(0.0)
                resonant.append(n)
                continue
            raise LogarithmicCaseError(
                f"resonance at n={n} (alpha={alpha}) with non-vanishing numerator"
            )
        # times the reciprocal, not divided: the recorded outputs carry this rounding
        a.append(-num * (1.0 / w0[n]))
    return np.array(a), resonant


def recursion_residual(ode: ThetaOde, series: FrobeniusSeries) -> float:
    """Max re-substitution residual |sum_j P_j(alpha+n) a_(n-j)| / max(1, |a_n|)."""
    polys = [[float(c) for c in p] for p in ode.polys]
    K = len(polys) - 1
    alpha = float(series.exponent)
    a = series.coeffs
    worst = 0.0
    for n in range(len(a)):
        tot = 0.0
        for j in range(0, min(n, K) + 1):
            tot += pr.peval(polys[j], alpha + n - j) * a[n - j]
        worst = max(worst, abs(tot) / max(1.0, abs(a[n])))
    return worst


def evaluate(basis: FrobeniusBasis, x) -> np.ndarray:
    """Real values of every series of ``basis`` at real points x, as a float64
    array of shape x.shape + (size,).

    With u = x about 0 (u = 1 - x about 1), each point's row is the power sum
    u^n @ C over all M + 1 coefficient rows times exp(alpha_i log u).  Complex
    input or a NaN raises ``ValueError``, any u outside 0 < u < 1
    ``OutOfDiskError``.
    """
    if np.iscomplexobj(x):
        raise ValueError("evaluate takes real points, not complex ones")
    x = np.asarray(x, dtype=float)
    u = x if basis.center == ZERO else 1.0 - x
    if not np.all((u > 0.0) & (u < 1.0)):
        if np.any(np.isnan(u)):
            raise ValueError("NaN point")
        raise OutOfDiskError(f"u from {np.min(u):g} to {np.max(u):g} leaves 0 < u < 1")
    flat = u.ravel()
    out = _power_sums(flat, basis._coeffs) * np.exp(basis._alpha * np.log(flat)[:, None])
    return out.reshape(x.shape + (basis.size,))


def _power_sums(u: np.ndarray, C: np.ndarray) -> np.ndarray:
    """s[p, i] = sum_n C[n, i] u[p]^n for a flat float64 u: each block of
    ``_CHUNK`` points is one product u^n @ C, so no (points x terms) power
    matrix is held whole.  Plain floating-point sums, no compensation."""
    n = np.arange(len(C), dtype=float)
    s = np.empty((u.size, C.shape[1]))
    for lo in range(0, u.size, _CHUNK):
        s[lo: lo + _CHUNK] = u[lo: lo + _CHUNK, None] ** n @ C
    return s


def basis_for(ode: ThetaOde, exponents: Sequence, M: int = 200) -> FrobeniusBasis:
    """Frobenius basis in the given exponent order, from the float recursion."""
    return FrobeniusBasis(
        center=ode.variable_center,
        series=tuple(frobenius_series(ode, a, M, exact=False) for a in exponents),
    )
