"""Series solutions of Fuchsian ODEs about regular singular points.

An ODE with regular singular points at {0, 1, oo} is stored in "theta form"

    [ P_0(theta) + x P_1(theta) + ... + x^K P_K(theta) ] f(x) = 0,

with theta = x d/dx.  The roots of the indicial polynomial P_0 are the local
exponents at the expansion point, and each root alpha yields one solution
x^alpha * sum_n a_n x^n whose coefficients follow a linear recursion.

Coefficients are exact ``Fraction``s whenever the input is rational, and
complex floats otherwise.
"""

from __future__ import annotations

import cmath
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
_CHUNK = 256       # points per power matrix in array evaluation
_SCALARS = (int, float, complex, np.number)


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def _all_rational(polys) -> bool:
    return all(_is_rational(c) for p in polys for c in p)


@dataclass(frozen=True)
class ThetaOde:
    """Fuchsian ODE in theta form; ``polys[k]`` holds P_k, low degree first."""

    order: int
    polys: tuple
    variable_center: str = ZERO

    def __post_init__(self):
        if pr.degree(self.polys[0]) != self.order:
            raise ValueError(
                f"indicial polynomial has degree {pr.degree(self.polys[0])}, "
                f"expected the ODE order {self.order}"
            )

    @property
    def is_rational(self) -> bool:
        return _all_rational(self.polys)

    def indicial_poly(self):
        return list(self.polys[0])

    @cached_property
    def indicial_roots(self) -> tuple:
        """Roots of P_0, solved once per ODE; see :func:`indicial_exponents`."""
        return tuple(_poly_roots(self.indicial_poly()))


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
        if all(_is_rational(e) for col in self.columns() for e in col):
            if total != expected:
                raise ValueError(f"Fuchs relation violated: sum {total} != {expected}")
        elif abs(complex(total) - float(expected)) > 1e-12:
            raise ValueError(f"Fuchs relation violated: sum {total} != {expected}")

    def columns(self):
        return (self.exponents_at_0, self.exponents_at_1, self.exponents_at_inf)

    def column_sets(self):
        return tuple(tuple(sorted(c)) for c in self.columns())


@dataclass
class FrobeniusSeries:
    """One solution x^alpha * sum a_n x^n with a_0 = 1 about ``center``."""

    exponent: object                       # Fraction or float
    coeffs: np.ndarray                     # complex, length M+1
    center: str = ZERO
    truncation_order: int = 0
    resonant_orders: tuple = ()
    exact_coeffs: Optional[list] = None    # Fractions when available

    def __post_init__(self):
        self.truncation_order = len(self.coeffs) - 1

    def evaluate(self, x):
        return evaluate(self, x)

    def tail_estimate_at(self, radius: float) -> float:
        """Crude relative tail bound from the last retained term."""
        a = np.abs(self.coeffs)
        n = len(a) - 1
        if a[0] == 0:
            return 0.0
        return float(a[n] * radius**n / max(a[0], 1.0))

    def derivative_values(self, x: complex, n_der: int) -> list[complex]:
        """Values (f, f', ..., f^(n_der)) at x, from term-wise differentiation.

        Only meaningful for a series centered at zero evaluated inside the disk;
        used to seed numerical continuation.
        """
        if self.center != ZERO:
            raise ValueError("derivative seeding expects a series centered at 0")
        alpha = float(self.exponent) if _is_rational(self.exponent) else self.exponent
        out = []
        n = np.arange(len(self.coeffs))
        for d in range(n_der + 1):
            fac = np.ones(len(self.coeffs))
            for i in range(d):
                fac = fac * (alpha + n - i)
            expo = alpha - d
            val = np.sum(self.coeffs * fac * np.power(complex(x), n + expo))
            out.append(complex(val))
        return out


@dataclass(frozen=True)
class FrobeniusBasis:
    """Several Frobenius solutions of one ODE about one point, in a fixed order."""

    center: str
    series: tuple
    # exponents and coefficient matrix C[n, i] = a_n of series i, zero-padded;
    # _real holds float64 copies of both and the float orders n = 0, 1, ...
    # when every entry is real, else None
    _alpha: np.ndarray = field(init=False, repr=False, compare=False)
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    _real: Optional[tuple] = field(init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.series)

    @property
    def exponents(self) -> tuple:
        return tuple(s.exponent for s in self.series)

    def __post_init__(self):
        n_max = max(len(s.coeffs) for s in self.series)
        C = np.zeros((n_max, len(self.series)), dtype=complex)
        for i, s in enumerate(self.series):
            C[: len(s.coeffs), i] = s.coeffs
        alpha = np.array([_exponent(s) for s in self.series])
        real = None
        if not (np.any(alpha.imag) or np.any(C.imag)):
            real = (alpha.real.copy(), C.real.copy(), np.arange(n_max, dtype=float))
        object.__setattr__(self, "_alpha", alpha)
        object.__setattr__(self, "_coeffs", C)
        object.__setattr__(self, "_real", real)

    def evaluate(self, x) -> np.ndarray:
        """Values of every series at x: shape (size,) for a scalar x, else
        x.shape + (size,)."""
        return _series_values(self._alpha, self._coeffs, self.center, x, self._real)

    def evaluate_matrix(self, points: Sequence[float]) -> np.ndarray:
        """Matrix V[p, i] = series_i evaluated at physical coordinate points[p]."""
        return self.evaluate(np.asarray(points, dtype=complex).reshape(-1))


# ---------------------------------------------------------------------------
# construction


def theta_form(standard_coeffs: Sequence[Sequence], variable_center: str = ZERO) -> ThetaOde:
    """Convert sum_k c_k(x) d^k/dx^k into theta form.

    ``standard_coeffs[k]`` is the polynomial c_k(x), low degree first.  The
    operator must be Fuchsian with singular points only in {0, 1, oo}; the
    offending roots are reported otherwise.
    """
    coeffs = [pr.trim(list(c)) for c in standard_coeffs]
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
            if cj == 0:
                continue
            m = j - k
            terms[m] = pr.padd(terms.get(m, [0]), pr.pscale(ff, cj))
    m_min = min(terms)
    m_max = max(terms)
    polys = []
    for m in range(m_min, m_max + 1):
        polys.append(tuple(pr.trim(terms.get(m, [0]))))
    return ThetaOde(order=order, polys=tuple(polys), variable_center=variable_center)


def _vanishes(a) -> bool:
    if isinstance(a, (float, complex)):
        return abs(a) < 1e-13
    return a == 0


def _ord_of(p) -> int:
    """Index of the first non-vanishing coefficient (= len(p) for the zero poly)."""
    for i, a in enumerate(p):
        if not _vanishes(a):
            return i
    return len(p)


def _check_fuchsian(coeffs):
    """Regular-singular conditions at 0, 1, oo for polynomial coefficients c_k."""
    order = len(coeffs) - 1
    s = _ord_of(coeffs[order])
    work = pr.trim(list(coeffs[order])[s:])
    t = 0
    while pr.degree(work) >= 1:
        quot, rem = pr.divide_out_root(work, 1)
        if not _vanishes(rem):
            roots = np.roots(np.array([complex(c) for c in reversed(work)]))
            bad = [r for r in roots if abs(r) > 1e-9 and abs(r - 1) > 1e-9]
            raise NonFuchsianError(
                f"leading coefficient vanishes away from {{0,1}}: roots ~ {bad}"
            )
        work = pr.trim(quot)
        t += 1
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
    """Inverse of :func:`theta_form`: coefficients c_k(x) of sum_k c_k d^k."""
    n = ode.order
    s2 = pr.stirling2_table(max(n, max(pr.degree(p) for p in ode.polys)))
    out = {}
    for m, poly in enumerate(ode.polys):
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
    coeffs = []
    for k in range(n + 1):
        d = out.get(k, {0: 0})
        top = max(d)
        coeffs.append(pr.trim([d.get(j, 0) for j in range(top + 1)]))
    return coeffs


def recenter_to_one(ode: ThetaOde) -> ThetaOde:
    """Theta form of the same ODE in the variable y = 1 - x."""
    if ode.variable_center != ZERO:
        raise ValueError("ode already centered at one")
    coeffs = to_standard_coeffs(ode)
    flipped = []
    for k, c in enumerate(coeffs):
        sub = pr.psub_affine(c, 1, -1)   # c(1 - y)
        flipped.append(pr.pscale(sub, (-1) ** k))
    return theta_form(flipped, variable_center=ONE)


def indicial_exponents(ode: ThetaOde) -> list:
    """Roots of P_0 with multiplicity, sorted ascending.

    Exact rational roots come from ``polyring.rational_roots`` (numerical
    candidates confirmed exactly, then the rational-root theorem on what is
    left); any non-rational remainder is resolved numerically.
    """
    return list(ode.indicial_roots)


def _poly_roots(poly) -> list:
    if all(_is_rational(c) for c in poly):
        roots, rest = pr.rational_roots(poly)
        if pr.degree(rest) >= 1:
            num = np.roots(np.array([float(c) for c in reversed(rest)]))
            roots = sorted(roots, key=float) + sorted(
                (complex(r) for r in num), key=lambda z: (z.real, z.imag)
            )
        return list(roots)
    num = np.roots(np.array([complex(c) for c in reversed(pr.trim(poly))]))
    return sorted((complex(r) for r in num), key=lambda z: (z.real, z.imag))


def exponents_at_infinity(ode: ThetaOde) -> list:
    """Exponents rho at x = oo (solutions ~ x^-rho): negated roots of P_K."""
    top = ode.polys[-1]
    return sorted((-r for r in _poly_roots(top)),
                  key=lambda v: float(v) if _is_rational(v) else (v.real, v.imag))


def scheme_of(ode: ThetaOde) -> RiemannScheme:
    """Riemann scheme of an ODE centered at zero."""
    at0 = indicial_exponents(ode)
    at1 = indicial_exponents(recenter_to_one(ode))
    atinf = exponents_at_infinity(ode)
    return RiemannScheme(tuple(at0), tuple(at1), tuple(atinf))


# ---------------------------------------------------------------------------
# series


def frobenius_series(ode: ThetaOde, alpha, M: int, exact: Optional[bool] = None) -> FrobeniusSeries:
    """Series solution for indicial root alpha, truncated at order M.

    At a resonance (P_0(alpha+n) = 0 for n > 0) the free coefficient is set to
    zero when the recursion numerator vanishes; otherwise the solution needs a
    logarithm and ``LogarithmicCaseError`` is raised.
    """
    if M < 2:
        raise ValueError("M >= 2 required")
    p0 = ode.indicial_poly()
    rational = ode.is_rational and _is_rational(alpha)
    if exact is None:
        exact = rational
    if exact and not rational:
        raise ValueError("exact mode requires a rational ODE and a rational exponent")

    if rational:
        if pr.peval(p0, Fraction(alpha)) != 0:
            raise ValueError(f"alpha = {alpha} is not a root of the indicial polynomial")
    else:
        scale = max(abs(complex(c)) for c in p0)
        if abs(complex(pr.peval(p0, complex(alpha)))) > 1e-8 * scale:
            raise ValueError(f"alpha = {alpha} is not a root of the indicial polynomial")

    if exact:
        a_exact = _run_recursion_exact(ode, Fraction(alpha), M)
        coeffs = np.array([complex(a) for a in a_exact[0]], dtype=complex)
        resonant = a_exact[1]
        exact_list = a_exact[0]
    else:
        coeffs, resonant = _run_recursion_float(ode, alpha, M)
        exact_list = None

    return FrobeniusSeries(
        exponent=Fraction(alpha) if rational else alpha,
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


def _run_recursion_float(ode: ThetaOde, alpha, M: int):
    K = len(ode.polys) - 1
    alpha = complex(alpha)
    # w[j][n] = P_j(alpha + n - j), by Horner over all n at once
    shifts = alpha + np.arange(M + 1)
    w = [np.polyval(np.array([complex(c) for c in reversed(p)]), shifts - j).tolist()
         for j, p in enumerate(ode.polys)]
    # a resonance happens exactly when alpha + n is another indicial root
    resonances = set()
    for r in ode.indicial_roots:
        d = complex(r) - alpha
        n = round(d.real)
        if n >= 1 and abs(d - n) < 1e-9:
            resonances.add(n)
    a = [1.0 + 0j]
    resonant = []
    for n in range(1, M + 1):
        num = 0j
        for j in range(1, min(n, K) + 1):
            num += w[j][n] * a[n - j]
        if n in resonances:
            scale = max((abs(w[j][n]) * max(1.0, abs(a[n - j]))
                         for j in range(1, min(n, K) + 1)), default=0.0)
            if abs(num) <= _RES_TOL * max(1.0, scale):
                a.append(0j)
                resonant.append(n)
                continue
            raise LogarithmicCaseError(
                f"resonance at n={n} (alpha={alpha}) with non-vanishing numerator"
            )
        # times the reciprocal, the rounding of numpy's complex division
        a.append(-num * (1.0 / w[0][n]))
    return np.array(a, dtype=complex), resonant


def recursion_residual(ode: ThetaOde, series: FrobeniusSeries) -> float:
    """Max re-substitution residual |sum_j P_j(alpha+n) a_(n-j)| / max(1, |a_n|)."""
    polys = [[complex(c) for c in p] for p in ode.polys]
    K = len(polys) - 1
    alpha = complex(series.exponent)
    a = series.coeffs
    worst = 0.0
    for n in range(len(a)):
        tot = 0j
        for j in range(0, min(n, K) + 1):
            tot += pr.peval(polys[j], alpha + n - j) * a[n - j]
        worst = max(worst, abs(tot) / max(1.0, abs(a[n])))
    return worst


def _exponent(series: FrobeniusSeries) -> complex:
    e = series.exponent
    return complex(float(e)) if _is_rational(e) else complex(e)


def evaluate(series: FrobeniusSeries, x):
    """Evaluate x^alpha * sum a_n x^n at a scalar or an array of points.

    ``x`` is the physical coordinate; for a series centered at one the
    expansion variable is u = 1 - x.  Principal branch for the power.
    """
    vals = _series_values(np.array([_exponent(series)]), series.coeffs[:, None],
                          series.center, x)
    return complex(vals[0]) if vals.ndim == 1 else vals[..., 0]


def _series_values(alpha: np.ndarray, C: np.ndarray, center: str, x,
                   real: Optional[tuple] = None) -> np.ndarray:
    """exp(alpha_i log u) * sum_n C[n, i] u^n for every column i of C.

    The powers u^n are running products, and each block of points is summed
    by one matrix product with C.  Arrays are taken ``_CHUNK`` points at a
    time, so no (points x terms) matrix is held whole.  A scalar u in (0, 1)
    with ``real`` = (alpha, C, n) in float64 is summed in real arithmetic,
    with the powers u ** n in one vectorised call, and gives a float array.
    Raises ``OutOfDiskError`` if any |u| >= 1, and at u = 0 for an exponent
    that is neither zero nor of positive real part.
    """
    if isinstance(x, _SCALARS):
        x = complex(x) if isinstance(x, (complex, np.complexfloating)) else float(x)
        u = x if center == ZERO else 1.0 - x
        if abs(u) >= 1.0:
            raise OutOfDiskError(f"|u| = {abs(u):.3f} >= 1 outside the convergence disk")
        if real is not None and isinstance(u, float) and u > 0:
            alpha, C, n = real
            return (u ** n @ C) * u ** alpha
        u = complex(u)
        pw = np.full(len(C), u)
        pw[0] = 1.0
        s = np.cumprod(pw, out=pw) @ C
        if u == 0:
            return _at_center(alpha, s)
        return np.exp(alpha * cmath.log(u)) * s
    x = np.asarray(x, dtype=complex)
    u = (x if center == ZERO else 1.0 - x).reshape(-1)
    r = np.abs(u)
    if np.any(r >= 1.0):
        raise OutOfDiskError(f"|u| = {r.max():.3f} >= 1 outside the convergence disk")
    out = np.empty((len(u), C.shape[1]), dtype=complex)
    pw = np.empty((min(len(u), _CHUNK), len(C)), dtype=complex)
    for lo in range(0, len(u), _CHUNK):
        blk = u[lo: lo + _CHUNK]
        p = pw[: len(blk)]
        p[:, 0] = 1.0
        p[:, 1:] = blk[:, None]
        out[lo: lo + len(blk)] = np.cumprod(p, axis=1, out=p) @ C
    zero = u == 0
    logu = np.log(np.where(zero, 1.0, u))
    out *= np.exp(alpha * logu[:, None])
    if np.any(zero):
        out[zero] = _at_center(alpha, out[zero])
    return out.reshape(x.shape + (C.shape[1],))


def _at_center(alpha: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Series values at u = 0 from their sums s (the power factor taken as 1)."""
    if np.any((alpha != 0) & (alpha.real <= 0)):
        raise OutOfDiskError("series is singular at its own center for Re(alpha) < 0")
    return np.where(alpha == 0, s, 0j)


def basis_for(ode: ThetaOde, exponents: Sequence, M: int = 200) -> FrobeniusBasis:
    """Frobenius basis in the given exponent order."""
    return FrobeniusBasis(
        center=ode.variable_center,
        series=tuple(frobenius_series(ode, a, M, exact=False) for a in exponents),
    )


# ---------------------------------------------------------------------------
# plain-text serialization: one line per P_k, rational coefficients low-to-high


def ode_to_text(ode: ThetaOde, comment: str = "") -> str:
    lines = []
    if comment:
        for ln in comment.splitlines():
            lines.append(f"# {ln}")
    for p in ode.polys:
        lines.append(" ".join(str(Fraction(c)) for c in p))
    return "\n".join(lines) + "\n"


def ode_from_text(text: str) -> ThetaOde:
    polys = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        polys.append([Fraction(tok) for tok in line.split()])
    if not polys:
        raise ValueError("no polynomial lines found")
    return ThetaOde(order=pr.degree(polys[0]),
                    polys=tuple(tuple(pr.trim(p)) for p in polys))
