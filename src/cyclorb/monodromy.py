"""Numerical solution of the bootstrap/monodromy problem.

Given Frobenius bases {I_i} about x = 0 and {J_j} about x = 1 of one Fuchsian
ODE, fit the change of basis I_i = sum_j A_ij J_j on an overlap interval,
then solve the single-valuedness constraints

    A^T diag(X) A = diag(Y)

for the block coefficients X (x -> 0 channel) and Y (x -> 1 channel).  The
physical correlator is assembled as

    G(x, xbar) = |x|^(2 p0) |1-x|^(2 p1) sum_ij X_ij conj(I_i(x)) I_j(x),

with X diagonal except for cross terms on integer-spaced exponent pairs;
``block_sum`` is that sum, on the real axis and on the circle alike.
``continue_blocks`` carries the blocks off the real axis by Taylor steps at
regular points of the ODE.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .frobenius import FrobeniusBasis


class FitError(RuntimeError):
    pass


class DegeneracyError(RuntimeError):
    """Diagonal-invariance solution space is not one-dimensional."""

    def __init__(self, msg, singular_values=None):
        super().__init__(msg)
        self.singular_values = singular_values


@dataclass(frozen=True)
class ConnectionFit:
    """Least-squares fit of I_i = sum_j A_ij J_j with diagnostics."""

    A: np.ndarray
    sample_points: tuple
    residual: float
    condition: float
    ill_conditioned: bool = False


@dataclass(frozen=True)
class BlockCoefficients:
    X: np.ndarray
    Y: np.ndarray
    normalization_channel: int
    diag_residual: float
    singular_values: np.ndarray
    X_cross: dict = None   # {(i, j): amplitude} for integer-spaced pairs about 0
    Y_cross: dict = None


def chebyshev_points(n: int, lo: float = 0.38, hi: float = 0.62) -> list[float]:
    """n Chebyshev-spaced sample points in [lo, hi]."""
    k = np.arange(n)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * n))
    pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    return sorted(float(p) for p in pts)


def fit_connection(basis0: FrobeniusBasis, basis1: FrobeniusBasis,
                   points: Optional[Sequence[float]] = None) -> ConnectionFit:
    """Fit the real connection matrix between bases at 0 and 1.

    Points default to 2n Chebyshev nodes in [0.38, 0.62], where both series
    converge fast.  The fit is rejected if the relative residual exceeds 1e-8
    and flagged when the sample matrix condition number exceeds 1e8.
    """
    n = basis0.size
    if basis1.size != n:
        raise ValueError("bases must have equal size")
    if points is None:
        points = chebyshev_points(2 * n)
    points = list(points)
    if len(points) < n:
        raise ValueError(f"need at least {n} sample points")

    V0 = basis0.evaluate_matrix(points)
    V1 = basis1.evaluate_matrix(points)
    if max(np.max(np.abs(V0.imag)), np.max(np.abs(V1.imag))) > 1e-9 * np.max(np.abs(V0)):
        raise FitError("complex basis values on the real overlap; real-A assumption violated")
    V0, V1 = V0.real, V1.real

    A = np.empty((n, n))
    for i in range(n):
        sol, *_ = np.linalg.lstsq(V1, V0[:, i], rcond=None)
        A[i] = sol
    resid = np.max(np.abs(V0.T - A @ V1.T) / np.maximum(np.abs(V0.T), 1e-300))
    cond = float(np.linalg.cond(V1))
    ill = cond > 1e8
    if resid > 1e-8:
        raise FitError(f"connection fit residual {resid:.3e} > 1e-8")
    return ConnectionFit(A=A, sample_points=tuple(points), residual=float(resid),
                         condition=cond, ill_conditioned=ill)


def diagonal_invariants(fit: ConnectionFit, norm_channel: int = 0,
                        pairs0: Sequence[tuple] = (), pairs1: Sequence[tuple] = (),
                        gap_factor: float = 1e6) -> BlockCoefficients:
    """Solve the single-valuedness constraints for the block coefficients.

    In the generic case the coefficient matrices are diagonal and the
    constraints read offdiag(A^T diag(X) A) = 0; the solution is the
    (required one-dimensional) nullspace of that linear map, normalized so
    Y[norm_channel] = 1.

    ``pairs0`` lists index pairs whose exponents about 0 differ by a nonzero
    integer: such cross terms are single-valued, so X may carry a symmetric
    off-diagonal amplitude there.  ``pairs1`` plays the same role about 1
    (those off-diagonal constraints are dropped).
    """
    A = np.asarray(fit.A, dtype=float)
    n = A.shape[0]
    pairs0 = [tuple(sorted(p)) for p in pairs0]
    skip1 = {tuple(sorted(p)) for p in pairs1}
    n_unk = n + len(pairs0)
    rows = []
    for k in range(n):
        for l in range(k + 1, n):
            if (k, l) in skip1:
                continue
            row = np.empty(n_unk)
            row[:n] = A[:, k] * A[:, l]
            for m, (i, j) in enumerate(pairs0):
                row[n + m] = A[i, k] * A[j, l] + A[j, k] * A[i, l]
            rows.append(row)
    C = np.array(rows)
    if not np.any(C):
        # the bases coincide channel by channel (A is diagonal up to scale):
        # every diagonal X is invariant; return the canonical representative
        sol = np.ones(n_unk)
        sol[n:] = 0.0
        svals = np.zeros(len(rows))
    else:
        _, svals, vt = np.linalg.svd(C)
        svals = np.concatenate([svals, np.zeros(max(0, n_unk - len(svals)))])
        if n_unk >= 2 and svals[-2] < gap_factor * max(svals[-1], 1e-300):
            raise DegeneracyError(
                f"nullspace not one-dimensional (singular values {svals})",
                singular_values=svals,
            )
        sol = vt[-1]
    Xmat = np.diag(sol[:n])
    for m, (i, j) in enumerate(pairs0):
        Xmat[i, j] = Xmat[j, i] = sol[n + m]
    Ymat = A.T @ Xmat @ A
    scale = Ymat[norm_channel, norm_channel]
    if scale == 0:
        raise DegeneracyError("normalization channel has zero coefficient")
    Xmat = Xmat / scale
    Ymat = Ymat / scale
    off = Ymat - np.diag(np.diag(Ymat))
    for (k, l) in skip1:
        off[k, l] = off[l, k] = 0.0
    denom = max(np.max(np.abs(np.diag(Ymat))), 1e-300)
    return BlockCoefficients(
        X=np.diag(Xmat).copy(), Y=np.diag(Ymat).copy(),
        normalization_channel=norm_channel,
        diag_residual=float(np.max(np.abs(off)) / denom),
        singular_values=svals,
        X_cross={p: float(Xmat[p[0], p[1]]) for p in pairs0},
        Y_cross={p: float(Ymat[p[0], p[1]]) for p in skip1},
    )


def block_sum(values: np.ndarray, X: Sequence[float], cross: Optional[dict] = None):
    """sum_ij X_ij conj(I_i) I_j over the last axis of ``values`` (I_i = values[..., i]).

    ``X`` holds the diagonal coefficients and ``cross`` the symmetric
    off-diagonal amplitudes {(i, j): X_ij}, each counted for (i, j) and (j, i).
    """
    tot = np.abs(values) ** 2 @ np.asarray(X, dtype=float)
    for (i, j), t in (cross or {}).items():
        tot = tot + 2.0 * t * (np.conj(values[..., i]) * values[..., j]).real
    return tot


def assemble(prefactor_exponents: tuple, X: Sequence[float],
             basis: FrobeniusBasis, cross: Optional[dict] = None
             ) -> Callable:
    """Return G(x) = |x|^(2 p0) |1-x|^(2 p1) sum_ij X_ij conj(I_i) I_j.

    ``X`` holds the diagonal coefficients; ``cross`` optional symmetric
    off-diagonal amplitudes for integer-spaced exponent pairs.  Valid on the
    physical slice xbar = conj(x); for the basis centered at 1 pass the Y
    coefficients instead of X.  G takes a scalar (returning a float) or an
    array of points (returning an array of the same shape).
    """
    p0, p1 = (2 * float(p) for p in prefactor_exponents)
    X = np.asarray(X, dtype=float)
    Xs = X.tolist()
    cross = dict(cross or {})

    def G(x):
        if isinstance(x, (int, float, complex, np.number)):
            # the block sum of a few values, in Python scalars
            v = basis.evaluate(x).tolist()
            tot = sum(c * abs(vi) ** 2 for c, vi in zip(Xs, v))
            for (i, j), t in cross.items():
                tot += 2.0 * t * (v[i].conjugate() * v[j]).real
            z = complex(x)
            return float(abs(z) ** p0 * abs(1 - z) ** p1 * tot)
        tot = block_sum(basis.evaluate(x), X, cross)
        return np.abs(x) ** p0 * np.abs(1 - x) ** p1 * tot

    return G


# ---------------------------------------------------------------------------
# analytic continuation of the holomorphic blocks off the overlap interval

_TAYLOR_TERMS = 72   # Taylor coefficients per continuation step
_TAIL_TOL = 1e-15    # largest ratio of a step's last terms to its first terms


def continue_blocks(standard_coeffs, basis: FrobeniusBasis, targets: Sequence[complex],
                    x_start: float = 0.5) -> np.ndarray:
    """Continue all basis solutions from x_start to complex targets.

    Targets in the closed upper half plane are reached along straight
    segments through the upper half plane, visited counterclockwise (by
    argument about 0).  Each segment is cut into Taylor steps of at most
    half the distance to {0, 1}; every step's truncation is checked
    (``FitError`` when its tail exceeds 1e-15).  Each step is a transition
    matrix of the values (f, f', ..., f^(order-1)), and the blocks, seeded
    by their series at x_start, are carried through them all at once.
    Returns an array B[t, i] = I_i(targets[t]).
    """
    targets = [complex(t) for t in targets]
    if any(t.imag < -1e-12 for t in targets):
        raise ValueError("targets must lie in the closed upper half plane")
    if any(min(abs(t), abs(t - 1)) < 1e-12 for t in targets):
        raise ValueError("targets must avoid the singular points 0 and 1")
    order = len(standard_coeffs) - 1
    x0, h, reached = _route(complex(x_start), targets)
    T = _transitions(standard_coeffs, x0, h) if len(x0) else []
    Y = np.array([s.derivative_values(x_start, order - 1) for s in basis.series]).T
    states = [Y]
    for Ts in T:
        states.append(Ts @ states[-1])
    return np.array([states[k][0] for k in reached]).reshape(len(targets), basis.size)


def _route(start: complex, targets: list):
    """Taylor steps (x0, h) from ``start`` through the targets in order of
    argument, and the number of steps taken when each target is reached.

    Consecutive points are joined by a straight segment, which stays in the
    closed upper half plane; a segment passing closer to 0 or 1 than a
    quarter of its ends' distance goes over the point by the apex
    (a + b)/2 + i|b - a|/2.  Each step is at most half the distance of its
    start to {0, 1}, inside the convergence disk of the local expansion.
    """
    def rho(x):
        return min(abs(x), abs(x - 1.0))

    def crowded(a, b):
        d = b - a
        for p in (0.0, 1.0):
            t = min(max(((p - a) * d.conjugate()).real / abs(d) ** 2, 0.0), 1.0)
            if abs(a + t * d - p) < 0.25 * min(abs(a - p), abs(b - p)):
                return True
        return False

    x0, h = [], []
    reached = [0] * len(targets)
    cur = start
    for i in sorted(range(len(targets)),
                    key=lambda i: (cmath.phase(complex(targets[i].real, max(targets[i].imag, 0.0))),
                                   abs(targets[i]))):
        b = targets[i]
        nodes = [b]
        if b != cur and crowded(cur, b):
            nodes.insert(0, 0.5 * (cur + b) + 0.5j * abs(b - cur))
        for node in nodes:
            while cur != node:
                step = node - cur
                if abs(step) > 0.5 * rho(cur):
                    step *= 0.5 * rho(cur) / abs(step)
                x0.append(cur)
                h.append(step)
                cur = node if step == node - cur else cur + step
        reached[i] = len(x0)
    return np.array(x0, dtype=complex), np.array(h, dtype=complex), reached


def _transitions(standard_coeffs, x0: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Transition matrices T[s] taking (f, ..., f^(r-1)) at x0[s] to x0[s] + h[s].

    In t = (x - x0)/h the ODE sum_k c_k(x) f^(k) = 0 reads
    sum_k h^(r-k) c_k(x0 + h t) g^(k)(t) = 0 for g(t) = f(x0 + h t), so the
    Taylor coefficients b_n of g obey, for m >= 0,

        sum_{k,j} q_kj (m-j+1)...(m-j+k) b_(m-j+k) = 0,

    with q_kj the coefficient of t^j in h^(r-k) c_k(x0 + h t).  The weight of
    b_(m+s) is a polynomial in m, tabulated once for all steps, and one loop
    of ``_TAYLOR_TERMS`` - r rows runs every step at once, each with the r
    unit seeds (f^(k)(x0) = 1, so b_k = h^k / k!) as its columns.
    """
    r = len(standard_coeffs) - 1
    N = _TAYLOR_TERMS
    D = max(len(c) for c in standard_coeffs) - 1
    P = np.zeros((r + 1, D + 1), dtype=complex)
    for k, c in enumerate(standard_coeffs):
        P[k, : len(c)] = [complex(v) for v in c]

    # q[s, k, j]: c_k(x0 + h t) = sum_i P[k, i] sum_j C(i, j) x0^(i-j) h^j t^j
    i = np.arange(D + 1)
    binom = np.array([[math.comb(a, b) for b in i] for a in i], dtype=float)
    shift = (binom * x0[:, None, None] ** np.maximum(i[:, None] - i, 0)
             * h[:, None, None] ** i)
    q = (P @ shift) * h[:, None, None] ** (r - np.arange(r + 1))[:, None]

    # window of b_(m+s), s = lo .. r-1, where lo = min_k (k - deg c_k)
    lo = min(k + 1 - len(c) for k, c in enumerate(standard_coeffs))
    s = np.arange(lo, r)
    k = np.arange(r + 1)
    j = k[:, None] - s                                      # (r+1, w)
    ok = (j >= 0) & (j <= D)
    qs = np.where(ok, q[:, k[:, None], np.clip(j, 0, D)], 0.0)  # (S, r+1, w)
    m = np.arange(N - r)
    ff = _falling(m[:, None] + s, r)                        # (N-r, w, r+1)
    W = np.einsum("aks,msk->ams", qs, ff)
    W /= -(q[:, r, 0, None] * _falling(m + r, r)[:, r])[..., None]

    d, w = -lo, len(s)
    b = np.zeros((len(x0), d + N, r), dtype=complex)
    fact = np.cumprod(np.r_[1.0, np.arange(1, r)])
    b[:, d + k[:r], k[:r]] = h[:, None] ** k[:r] / fact
    for mm in m:
        b[:, d + mm + r] = (W[:, mm, None, :] @ b[:, mm: mm + w])[:, 0]
    b = b[:, d:]

    first = np.max(np.abs(b[:, :r]), axis=1)
    last = np.max(np.abs(b[:, N - r:]), axis=1)
    tail = float(np.max(last / first))
    if tail > _TAIL_TOL:
        raise FitError(f"continuation step truncated: tail ratio {tail:.2e} > {_TAIL_TOL:.0e} "
                       f"after {N} Taylor terms")
    # g^(k)(1) = sum_n n!/(n-k)! b_n and f^(k)(x0 + h) = h^-k g^(k)(1)
    return np.einsum("nk,anc->akc", _falling(np.arange(N), r - 1), b) \
        * h[:, None, None] ** -k[:r, None]


def _falling(p: np.ndarray, r: int) -> np.ndarray:
    """p (p-1) ... (p-k+1) for k = 0..r, along a new last axis."""
    out = np.ones(np.shape(p) + (r + 1,))
    for k in range(1, r + 1):
        out[..., k] = out[..., k - 1] * (p - (k - 1))
    return out


def correlator_on_circle(standard_coeffs, basis: FrobeniusBasis, X: Sequence[float],
                         fractions: Sequence[float],
                         prefactor_exponents: tuple = (0.0, 0.0),
                         extra_one_minus_x_power: float = 0.0,
                         cross: Optional[dict] = None) -> np.ndarray:
    """Evaluate G at x = exp(2 i pi s) for s in ``fractions`` (0 < s < 1).

    Uses xbar = conj(x) = 1/x on the unit circle and the reflection
    G(s) = G(1 - s), so only s <= 1/2 is continued numerically.
    ``extra_one_minus_x_power`` adds a global |1-x|^(2w) dressing;
    ``cross`` holds the off-diagonal amplitudes, as in :func:`assemble`.
    """
    fractions = np.asarray(fractions, dtype=float)
    if np.any((fractions <= 0) | (fractions >= 1)):
        raise ValueError("fractions must lie strictly inside (0, 1)")
    p1 = float(prefactor_exponents[1])
    s_eff = np.minimum(fractions, 1.0 - fractions)
    uniq, where = np.unique(s_eff, return_inverse=True)
    targets = [cmath.exp(2j * cmath.pi * s) for s in uniq]
    B = continue_blocks(standard_coeffs, basis, targets)
    # |x| = 1 on the circle, so the p0 factor drops out
    pref = np.abs(2.0 * np.sin(np.pi * uniq)) ** (2 * (p1 + extra_one_minus_x_power))
    return (pref * block_sum(B, X, cross))[where]


def __getattr__(name):
    """Resolve ``solve_ivp`` from scipy.integrate on first access (PEP 562).

    This exists only for perfbench's tracer, which wraps
    ``monodromy.solve_ivp`` to count right-hand-side evaluations.  Nothing in
    cyclorb calls it, so importing cyclorb does not load scipy.integrate.
    """
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
