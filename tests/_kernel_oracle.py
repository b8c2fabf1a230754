"""The complex series kernel: an oracle for ``frobenius.evaluate`` and ``assemble``.

``series_values`` sums every series of a basis at complex points anywhere in
its convergence disk |u| < 1, the centre u = 0 and u < 0 included, on the
principal branch.  The package evaluates only the real slice 0 < u < 1
(``frobenius.evaluate``); this kernel is the independent reference the tests
check it against, and the route by which they reach complex points.

``kernel_G`` is the correlator summed by this kernel,

    |x|^(2 p0) |1-x|^(2 p1) block_sum(series_values(basis, x), X, cross),

every series to its full length, so it sums anywhere in the basis' disk,
past the channel split included.
"""

import numpy as np

from cyclorb import frobenius as fb, monodromy as mn

_CHUNK = 256   # points per power matrix


def series_values(basis, x) -> np.ndarray:
    """Complex exp(alpha_i log u) * sum_n C[n, i] u^n for every series i of ``basis``:
    shape (size,) at a scalar x, else x.shape + (size,).

    The powers u^n are running products, and each block of points is summed by
    one matrix product with C.  Raises ``ValueError`` at a NaN and
    ``OutOfDiskError`` if any |u| >= 1 or at u = 0 for a negative exponent; at
    u = 0 a zero exponent gives a_0 = 1 and a positive one gives 0.
    """
    alpha, C = basis._alpha, basis._coeffs
    x = np.asarray(x, dtype=complex)
    u = (x if basis.center == fb.ZERO else 1.0 - x).reshape(-1)
    r = np.abs(u)
    if not np.all(r < 1.0):
        if np.any(np.isnan(u)):
            raise ValueError("NaN point")
        raise fb.OutOfDiskError(f"|u| = {r.max():.3f} >= 1 outside the convergence disk")
    out = np.empty((len(u), C.shape[1]), dtype=complex)
    pw = np.empty((min(len(u), _CHUNK), len(C)), dtype=complex)
    for lo in range(0, len(u), _CHUNK):
        blk = u[lo: lo + _CHUNK]
        p = pw[: len(blk)]
        p[:, 0] = 1.0
        p[:, 1:] = blk[:, None]
        out[lo: lo + len(blk)] = np.cumprod(p, axis=1, out=p) @ C
    zero = u == 0
    out *= np.exp(alpha * np.log(np.where(zero, 1.0, u))[:, None])
    if np.any(zero):
        if np.any(alpha < 0):
            raise fb.OutOfDiskError("series is singular at its own center for alpha < 0")
        out[zero] = np.where(alpha == 0, out[zero], 0j)
    return out.reshape(x.shape + (C.shape[1],))


def kernel_G(prefactor_exponents, X, basis, cross=None):
    """G(x) by the series kernel: a float at a scalar, else an array of x's shape."""
    p0, p1 = (2 * float(p) for p in prefactor_exponents)

    def G(x):
        z = np.asarray(x, dtype=complex)
        tot = mn.block_sum(series_values(basis, z), X, cross)
        out = np.abs(z) ** p0 * np.abs(1 - z) ** p1 * tot
        return float(out) if out.ndim == 0 else out

    return G
