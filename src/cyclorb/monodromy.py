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
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

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
    cross = dict(cross or {})

    def G(x):
        tot = block_sum(basis.evaluate(x), X, cross)
        if isinstance(x, (int, float, complex, np.number)):
            return float(abs(x) ** p0 * abs(1 - x) ** p1 * tot)
        return np.abs(x) ** p0 * np.abs(1 - x) ** p1 * tot

    return G


# ---------------------------------------------------------------------------
# analytic continuation of the holomorphic blocks off the overlap interval


def continue_blocks(standard_coeffs, basis: FrobeniusBasis, targets: Sequence[complex],
                    x_start: float = 0.5, rtol: float = 1e-11,
                    atol: float = 1e-12) -> np.ndarray:
    """Continue all basis solutions from x_start to complex targets.

    Targets in the closed upper half plane are reached along a polyline
    that stays away from the singular points {0, 1}; all blocks are carried
    in one matrix-valued integration, visiting the targets in sequence.
    Returns an array B[t, i] = I_i(targets[t]).
    """
    order = len(standard_coeffs) - 1
    n = basis.size
    # P[k, j] = coefficient of x^j in c_k, so c(x) = P @ x^(0..deg-1)
    deg = max(len(p) for p in standard_coeffs)
    P = np.zeros((order + 1, deg), dtype=complex)
    for k, p in enumerate(standard_coeffs):
        P[k, : len(p)] = [complex(c) for c in p]
    powers = np.arange(deg)

    def rhs_real(t, yre, x0, dx):
        # Y holds (f, f', ..., f^(order-1)) of every block; the state is split
        # into real and imaginary parts for the real-valued integrator
        Y = (yre[: order * n] + 1j * yre[order * n:]).reshape(order, n)
        c = P @ (x0 + t * dx) ** powers
        dY = np.empty_like(Y)
        dY[:-1] = Y[1:]
        dY[-1] = -(c[:order] / c[order]) @ Y
        flat = (dY * dx).reshape(-1)
        return np.concatenate([flat.real, flat.imag])

    targets = [complex(t) for t in targets]
    if any(t.imag < -1e-12 for t in targets):
        raise ValueError("targets must lie in the closed upper half plane")

    # initial condition matrix from the series at x_start
    Y0 = np.empty((order, n), dtype=complex)
    for i, series in enumerate(basis.series):
        Y0[:, i] = series.derivative_values(x_start, order - 1)

    # route: enter the unit circle at a small angle, then walk counterclockwise
    # through the targets in angular order, inserting filler nodes so chord
    # segments stay well away from the singular points 0 and 1
    order_idx = sorted(range(len(targets)), key=lambda i: np.angle(targets[i]) % (2 * np.pi))
    nodes = []  # (point, target_index or None)
    prev_angle = min(float(np.angle(targets[order_idx[0]]) % (2 * np.pi)), np.pi / 6)
    nodes.append((cmath.exp(1j * prev_angle), None))
    for idx in order_idx:
        ang = float(np.angle(targets[idx]) % (2 * np.pi))
        gap = ang - prev_angle
        n_fill = int(gap // (np.pi / 4))
        for f in range(1, n_fill + 1):
            nodes.append((cmath.exp(1j * (prev_angle + gap * f / (n_fill + 1))), None))
        nodes.append((targets[idx], idx))
        prev_angle = ang

    out = np.empty((len(targets), n), dtype=complex)
    cur = complex(x_start)
    Y = Y0.copy()
    for xt, idx in nodes:
        if abs(xt - cur) > 1e-14:
            yre = np.concatenate([Y.reshape(-1).real, Y.reshape(-1).imag])
            sol = solve_ivp(rhs_real, (0.0, 1.0), yre, args=(cur, xt - cur),
                            method="DOP853", rtol=rtol, atol=atol)
            if not sol.success:
                raise FitError(f"continuation to {xt} failed: {sol.message}")
            yf = sol.y[:, -1]
            Y = (yf[: order * n] + 1j * yf[order * n:]).reshape(order, n)
            cur = xt
        if idx is not None:
            out[idx] = Y[0]
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
