"""The per-block replica trace: the reference for ``rsos._power_traces``.

``block_power_trace`` takes one block's Gram product, power and trace with
2-d calls.  ``rsos.renyi_twisted`` stacks the blocks of one shape and makes
those calls once per stack; each slice goes through the same BLAS call and
the same pairwise sum, so the tests hold the two to the same bytes.
``renyi_reference`` is ``renyi_twisted`` summed block by block.
"""

import numpy as np

from cyclorb import rsos


def block_power_trace(R, W, N):
    """Tr((R W^T)^N) = Tr((W^T R)^N), on the smaller of the two Gram matrices;
    the last product is only traced: Tr(M^(N-1) M) = sum(M^(N-1) * M^T)."""
    M = W.T @ R if R.shape[1] < R.shape[0] else R @ W.T
    return np.sum(np.linalg.matrix_power(M, N - 1) * M.T)


def renyi_reference(rd, N, m, k, insertion):
    """(trace, entropy) of Tr(D rho_A^N): the d_b-weighted block traces in label order."""
    ai, aj = np.array([blk.label for blk in rd.blocks]).T
    if insertion == "bare":
        d = np.ones(len(ai))
    else:
        qi, qj = insertion if isinstance(insertion, tuple) else (int(insertion),) * 2
        d = rsos.twist_weights(m, k, qi, N)[ai] * rsos.twist_weights(m, k, qj, N)[aj]
    value = complex(np.sum(d * np.array([block_power_trace(blk.right, blk.left, N)
                                         for blk in rd.blocks])))
    return value, np.log(value + 0j) / (1 - N)
