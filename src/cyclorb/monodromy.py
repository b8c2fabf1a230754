"""Numerical solution of the bootstrap/monodromy problem.

Given Frobenius bases {I_i} about x = 0 and {J_j} about x = 1 of one Fuchsian
ODE, match the change of basis I_i = sum_j A_ij J_j in value and derivatives
at x = CHANNEL_SPLIT = 1/2, then solve the single-valuedness constraints

    A^T diag(X) A = diag(Y)

for the block coefficients X (x -> 0 channel) and Y (x -> 1 channel).  The
physical correlator is assembled as

    G(x, xbar) = |x|^(2 p0) |1-x|^(2 p1) sum_ij X_ij conj(I_i(x)) I_j(x),

with X diagonal except for cross terms on integer-spaced exponent pairs.
``assemble`` sums G on the real segment within 1/2 of a basis centre;
``continue_blocks`` carries the blocks off the real axis by Taylor steps at
regular points of the ODE, seeded by the same jets at x = 1/2, and
``block_sum`` sums G over their values on the circle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .frobenius import ZERO, FrobeniusBasis, OutOfDiskError, _power_sums


class FitError(RuntimeError):
    pass


class DegeneracyError(RuntimeError):
    """Diagonal-invariance solution space is not one-dimensional (default message built on read)."""

    def __init__(self, msg=None, singular_values=None):
        super().__init__(msg)
        self.singular_values = singular_values

    def __str__(self):
        return self.args[0] or f"nullspace not one-dimensional (singular values {self.singular_values})"


@dataclass(frozen=True)
class ConnectionFit:
    """I_i = sum_j A_ij J_j, matched at x = 1/2, with its residual and condition."""

    A: np.ndarray
    residual: float
    condition: float


@dataclass(frozen=True)
class BlockCoefficients:
    X: np.ndarray
    Y: np.ndarray
    diag_residual: float
    singular_values: np.ndarray
    X_cross: dict = None   # {(i, j): amplitude} for integer-spaced pairs about 0
    Y_cross: dict = None


_GAP_FACTOR = 1e6         # least ratio of the two smallest singular values
CHANNEL_SPLIT = 0.5       # x up to which a real point is summed about 0; past it, about 1
_ROW_TOL = 2.0 ** -60     # largest dropped tail at |u| = CHANNEL_SPLIT, relative to C_0


def fit_connection(basis0: FrobeniusBasis, basis1: FrobeniusBasis) -> ConnectionFit:
    """Match the real connection matrix between bases at 0 and 1 at x = 1/2.

    From the ``FrobeniusBasis.jet``s W0, W1 of orders 0..n at ``CHANNEL_SPLIT``,
    A = W0[:, :n] W1[:, :n]^-1 matches values and n - 1 derivatives.  The ODE
    fixes order n from those, so the residual max |W0[:, n] - A W1[:, n]| /
    |W0[:, n]| measures the series' truncation; above 1e-8, or for a singular
    W1, the match raises ``FitError``.  A row whose W0[i, n] is exactly 0 (a
    polynomial series of degree below n) is scaled by its largest jet entry
    instead.  cond(W1[:, :n]) is reported.
    """
    n = basis0.size
    if basis1.size != n:
        raise ValueError("bases must have equal size")
    W0, W1 = basis0.jet(CHANNEL_SPLIT, n), basis1.jet(CHANNEL_SPLIT, n)
    try:
        A = np.linalg.solve(W1[:, :n].T, W0[:, :n].T).T
    except np.linalg.LinAlgError as err:
        raise FitError(f"connection match at x = 1/2: {err}") from None
    scale = np.where(W0[:, n] == 0.0, np.max(np.abs(W0), axis=1), np.abs(W0[:, n]))
    resid = float(np.max(np.abs(W0[:, n] - A @ W1[:, n]) / np.maximum(scale, 1e-300)))
    if not resid <= 1e-8:
        raise FitError(f"connection match residual {resid:.3e} > 1e-8")
    return ConnectionFit(A=A, residual=resid, condition=float(np.linalg.cond(W1[:, :n])))


def diagonal_invariants(fit: ConnectionFit, norm_channel: int = 0,
                        pairs0: Sequence[tuple] = (), pairs1: Sequence[tuple] = ()
                        ) -> BlockCoefficients:
    """Solve the single-valuedness constraints for the block coefficients.

    In the generic case the coefficient matrices are diagonal and the
    constraints read offdiag(A^T diag(X) A) = 0; the solution is the
    (required one-dimensional) nullspace of that linear map, normalized so
    Y[norm_channel] = 1.  The nullspace counts as one-dimensional when the
    second-smallest singular value is at least 1e6 times the smallest.

    ``pairs0`` lists index pairs whose exponents about 0 differ by a nonzero
    integer: such cross terms are single-valued, so X may carry a symmetric
    off-diagonal amplitude there.  ``pairs1`` plays the same role about 1
    (those off-diagonal constraints are dropped).
    """
    A = np.asarray(fit.A, dtype=float)
    n = A.shape[0]
    pairs0 = [tuple(sorted(p)) for p in pairs0]
    skip1 = {tuple(sorted(p)) for p in pairs1}
    i, j = np.array(pairs0, dtype=int).reshape(-1, 2).T
    i1, j1 = np.array(sorted(skip1), dtype=int).reshape(-1, 2).T
    live = np.triu(np.ones((n, n), dtype=bool), 1)
    live[i1, j1] = False
    k, l = (v[:, None] for v in np.nonzero(live))
    # one row per constrained k < l: (A^T X A)_kl, linear in X_00 .. X_(n-1)(n-1)
    # and then in the cross amplitudes X_ij = X_ji
    C = A[np.r_[:n, i], k] * A[np.r_[:n, j], l]
    C[:, n:] += A[j, k] * A[i, l]
    n_unk = C.shape[1]
    if not np.any(C):
        # the bases coincide channel by channel (A is diagonal up to scale):
        # every diagonal X is invariant; return the canonical representative
        sol = np.ones(n_unk)
        sol[n:] = 0.0
        svals = np.zeros(len(C))
    else:
        _, svals, vt = np.linalg.svd(C)
        svals = np.concatenate([svals, np.zeros(max(0, n_unk - len(svals)))])
        if n_unk >= 2 and svals[-2] < _GAP_FACTOR * max(svals[-1], 1e-300):
            raise DegeneracyError(singular_values=svals)
        sol = vt[-1]
    Xmat = np.diag(sol[:n])
    Xmat[i, j] = Xmat[j, i] = sol[n:]
    Ymat = A.T @ Xmat @ A
    scale = Ymat[norm_channel, norm_channel]
    if scale == 0:
        raise DegeneracyError("normalization channel has zero coefficient")
    Xmat = Xmat / scale
    Ymat = Ymat / scale
    off = Ymat - np.diag(np.diag(Ymat))
    off[i1, j1] = off[j1, i1] = 0.0
    denom = max(np.max(np.abs(np.diag(Ymat))), 1e-300)
    return BlockCoefficients(
        X=np.diag(Xmat).copy(), Y=np.diag(Ymat).copy(),
        diag_residual=float(np.max(np.abs(off)) / denom),
        singular_values=svals,
        X_cross={p: float(Xmat[p[0], p[1]]) for p in pairs0},
        Y_cross={p: float(Ymat[p[0], p[1]]) for p in skip1},
    )


def block_sum(values: np.ndarray, X: Sequence[float], cross: Optional[dict] = None):
    """sum_ij X_ij conj(I_i) I_j over the last axis of complex block ``values``
    (I_i = values[..., i]), such as ``continue_blocks`` returns.

    ``X`` holds the diagonal coefficients and ``cross`` the symmetric
    off-diagonal amplitudes {(i, j): X_ij}, each counted for (i, j) and (j, i).
    """
    tot = np.abs(values) ** 2 @ np.asarray(X, dtype=float)
    for (i, j), t in (cross or {}).items():
        tot = tot + 2.0 * t * (np.conj(values[..., i]) * values[..., j]).real
    return tot


def _row_cut(C: np.ndarray) -> int:
    """Fewest leading rows K of C with sum_{n>=K} |C_ni| CHANNEL_SPLIT^n <= 2^-60 |C_0i|
    for every i."""
    weights = CHANNEL_SPLIT ** np.arange(len(C))[:, None]
    tail = np.cumsum((np.abs(C) * weights)[::-1], axis=0)[::-1]
    return int(np.argmax(np.r_[np.all(tail <= _ROW_TOL * np.abs(C[0]), axis=1), True]))


def _outside(u) -> None:
    """Raise for points u of which some lie outside a channel's disk."""
    if np.any(np.isnan(u)):
        raise ValueError("NaN point")
    raise OutOfDiskError(f"u from {np.min(u):g} to {np.max(u):g} leaves 0 < u <= {CHANNEL_SPLIT}")


def assemble(prefactor_exponents: tuple, X: Sequence[float],
             basis: FrobeniusBasis, cross: Optional[dict] = None) -> Callable:
    """Return G(x) = |x|^(2 p0) |1-x|^(2 p1) sum_ij X_ij I_i I_j for real x at
    u = x (u = 1 - x for a basis about 1) in 0 < u <= CHANNEL_SPLIT.

    ``X`` holds the diagonal coefficients (Y about 1), ``cross`` the symmetric
    amplitudes of integer-spaced pairs.  G sums s = u^n @ C over the ``_row_cut``
    rows of the basis' real coefficients (``ndarray.dot``, at an array
    ``frobenius._power_sums``), then c s_i s_j u^e left to right, uncompensated, e
    holding the centre's prefactor exponent, times (1 - u)^(2 p_other).  A float
    gives a float, other real input a float64 array of its shape.  Complex input
    or a NaN raises ``ValueError``, any other u ``OutOfDiskError``: no sum is truncated.
    Where u^e passes the float range (a subnormal u, e < 0) the value is numpy's
    inf (nan if two such terms cancel) with its overflow warning, a float's too."""
    return _summed(_channel(prefactor_exponents, X, basis, cross))


def _channel(prefactor_exponents: tuple, X, basis: FrobeniusBasis, cross=None) -> tuple:
    """(about1, po, n, C, terms) of ``assemble``'s row-cut sum about the basis' centre."""
    p0, p1 = (2 * float(p) for p in prefactor_exponents)
    about1 = basis.center != ZERO
    pc, po = (p1, p0) if about1 else (p0, p1)
    K = _row_cut(basis._coeffs)
    n, C, a = np.arange(K, dtype=float), basis._coeffs[:K], basis._alpha.tolist()
    terms = [(i, i, c, pc + 2 * a[i]) for i, c in enumerate(np.asarray(X, dtype=float).tolist())]
    terms += [(i, j, 2.0 * t, pc + a[i] + a[j]) for (i, j), t in (cross or {}).items()]
    return about1, po, n, C, terms


def _summed(near: tuple, far: Optional[tuple] = None) -> Callable:
    """G of one ``_channel``, or of two: x <= CHANNEL_SPLIT in ``near``, the rest in ``far``."""

    def G(x):
        if isinstance(x, float):
            x = float(x)   # a Python float computes faster than an np.float64
            about1, po, n, C, terms = far if far and x > CHANNEL_SPLIT else near
            u, v = (1.0 - x, x) if about1 else (x, 1.0 - x)
            if not 0.0 < u <= CHANNEL_SPLIT:
                _outside(u)
            s = (u ** n).dot(C).tolist()
        else:
            if np.iscomplexobj(x):
                raise ValueError("G takes real points, not complex ones")
            x = np.asarray(x, dtype=float)
            if far:     # each channel's points summed as one array
                out, past = np.empty(x.shape), x > CHANNEL_SPLIT
                out[~past], out[past] = _summed(near)(x[~past]), _summed(far)(x[past])
                return out if out.ndim else float(out)
            about1, po, n, C, terms = near
            u, v = (1.0 - x, x) if about1 else (x, 1.0 - x)
            if not np.all((u > 0.0) & (u <= CHANNEL_SPLIT)):
                _outside(u)
            s = _power_sums(u.ravel(), C).T.reshape((C.shape[1],) + u.shape)
        tot = 0.0
        try:
            for i, j, c, e in terms:
                tot += c * s[i] * s[j] * u ** e
        except OverflowError:   # a float's u ** e past the float range: the array's inf
            return float(G(np.array([x]))[0])
        return v ** po * tot

    return G


# ---------------------------------------------------------------------------
# analytic continuation of the holomorphic blocks off the overlap interval

_TAYLOR_TERMS = 80   # Taylor coefficients per continuation step
_TAIL_TOL = 1e-15    # largest ratio of a step's weighted last terms to its first terms


def continue_blocks(standard_coeffs, basis: FrobeniusBasis, targets: Sequence[complex]
                    ) -> np.ndarray:
    """Continue all basis solutions from x = CHANNEL_SPLIT = 1/2 to complex targets.

    Targets in the closed upper half plane are reached along straight
    segments through the upper half plane, visited counterclockwise (by
    argument about 0).  Each segment is cut into Taylor steps of at most
    half the distance to {0, 1}; every step's truncation is checked
    (``FitError`` when its tail, weighted as in the derivative read-out,
    exceeds 1e-15).  Each step is a transition
    matrix of the values (f, f', ..., f^(order-1)), and the blocks, seeded
    by ``basis.jet`` at x = 1/2, are carried through them all at once.
    Returns an array B[t, i] = I_i(targets[t]).
    """
    targets = [complex(t) for t in targets]
    if any(t.imag < -1e-12 for t in targets):
        raise ValueError("targets must lie in the closed upper half plane")
    if any(min(abs(t), abs(t - 1)) < 1e-12 for t in targets):
        raise ValueError("targets must avoid the singular points 0 and 1")
    order = len(standard_coeffs) - 1
    x0, h, reached = _route(complex(CHANNEL_SPLIT), targets)
    T = _transitions(standard_coeffs, x0, h) if len(x0) else []
    states = [basis.jet(CHANNEL_SPLIT, order - 1).T]
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
    b_(m+s) is a polynomial in m, tabulated once for all steps.  One loop of
    ``_TAYLOR_TERMS`` - r rows, each one matmul written in place, runs every step
    at once, with the r unit seeds (f^(k)(x0) = 1, so b_k = h^k / k!) as columns.
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
    for mm, Wm in enumerate(W.transpose(1, 0, 2)[:, :, None]):   # Wm: (S, 1, w)
        np.matmul(Wm, b[:, mm: mm + w], out=b[:, d + mm + r, None])
    b = b[:, d:]

    # g^(k)(1) = sum_n n!/(n-k)! b_n and f^(k)(x0 + h) = h^-k g^(k)(1); the
    # tail is weighted like its largest term in that read-out, k = r - 1
    ff = _falling(np.arange(N), r - 1)
    first = np.max(np.abs(b[:, :r]), axis=1)
    last = np.max(np.abs(b[:, N - r:]) * ff[N - r:, r - 1, None], axis=1)
    tail = float(np.max(last / first))
    if tail > _TAIL_TOL:
        raise FitError(f"continuation step truncated: tail ratio {tail:.2e} > {_TAIL_TOL:.0e} "
                       f"after {N} Taylor terms")
    return np.einsum("nk,anc->akc", ff, b) * h[:, None, None] ** -k[:r, None]


def _falling(p: np.ndarray, r: int) -> np.ndarray:
    """p (p-1) ... (p-k+1) for k = 0..r, along a new last axis, by one running product."""
    p = np.asarray(p, dtype=float)[..., None]
    return np.cumprod(np.concatenate([np.ones_like(p), p - np.arange(r)], axis=-1), axis=-1)


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
