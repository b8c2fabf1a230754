"""The correlator summed by the complex series kernel, for the assembly tests.

``monodromy.assemble`` sums G as a row-cut power series within 1/2 of its
basis centre.  This oracle is the direct formula

    |x|^(2 p0) |1-x|^(2 p1) block_sum(basis.evaluate(x), X, cross),

every series to its full length at complex points, so it sums anywhere in
the basis' convergence disk |u| < 1, past the channel split included.
"""

import numpy as np

from cyclorb import monodromy as mn


def kernel_G(prefactor_exponents, X, basis, cross=None):
    """G(x) by the series kernel: a float at a scalar, else an array of x's shape."""
    p0, p1 = (2 * float(p) for p in prefactor_exponents)

    def G(x):
        z = np.asarray(x, dtype=complex)
        tot = mn.block_sum(basis.evaluate(z), X, cross)
        out = np.abs(z) ** p0 * np.abs(1 - z) ** p1 * tot
        return float(out) if out.ndim == 0 else out

    return G
