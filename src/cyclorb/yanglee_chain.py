"""Quantum Ising chain in an imaginary longitudinal field.

    H = -1/2 sum_j ( lambda sx_j sx_{j+1} + sz_j + i h sx_j ),

periodic, 0 < lambda < 1.  H is complex symmetric; with P = prod_j sz_j one
has P H P = H^dagger, so the spectrum is closed under conjugation.  Below a
size-dependent threshold h_c the two lowest levels are real; at h_c they
merge into a complex-conjugate pair (the finite-size shadow of the edge
singularity).

The density matrix is the bi-orthogonal one, rho = r0 w0 with w0 r0 = 1,
from ``rsos.eigensystem`` in the zero-momentum sector; its Renyi-2 traces
are taken on the smaller Gram side, as for an RSOS block.  The symmetry
checks on H run over its nonzero pattern (``_transpose_residual``).
"""

from __future__ import annotations

import numpy as np

from .rsos import EigenPair, SizeError, _block_power_trace, eigensystem, sector_matrix

MAX_SITES = 12    # the dense build makes a 2^L x 2^L complex array, 256 MiB at L = 12
_MERGED_TOL = 1e-9   # |Im E_0| above which the two lowest levels count as a complex pair


class ComplexGroundStateError(RuntimeError):
    """Requested a real ground state above the merging threshold."""


def ising_imaginary_chain(lam: float, h: float, L: int) -> np.ndarray:
    """Dense 2^L x 2^L Hamiltonian; verifies P H P = H^dagger at build time."""
    if not 0 < lam < 1:
        raise ValueError("require 0 < lambda < 1")
    if L < 2:
        raise ValueError(f"L = {L}: the chain needs at least 2 sites")
    if L > MAX_SITES:
        raise SizeError(f"L = {L} > {MAX_SITES}")
    s = np.arange(1 << L)
    H = np.zeros((len(s), len(s)), dtype=complex)
    # sz_j = +1 for bit 0, so sum_j sz_j = L - 2 (number of down-spins)
    H[s, s] += -0.5 * (L - 2 * _down_spins(L))
    for j in range(L):
        jp = (j + 1) % L
        # no index repeats within a call; L = 2's coinciding bonds add up
        H[s ^ (1 << j) ^ (1 << jp), s] += -0.5 * lam
        H[s ^ (1 << j), s] += -0.5j * h
    residual = _transpose_residual(H, parity_diagonal(L), conj=True)
    if residual > 1e-12:
        raise AssertionError(f"P H P != H^dagger (residual {residual})")
    return H


def _transpose_residual(H: np.ndarray, d: np.ndarray | None = None,
                        conj: bool = False) -> float:
    """max_(r,c) |d_r H[r, c] d_c - G[c, r]|, G = conj(H) if ``conj`` else H,
    for a diagonal d of signs (all +1 when None): the residual of
    P H P = H^dagger or of H = H^T.

    Taken over the nonzero pattern of H, it equals the maximum over all
    (r, c): where H[r, c] = H[c, r] = 0 the term is 0, and otherwise (r, c)
    or (c, r) is in the pattern, whose two terms have the same modulus.
    """
    r, c = np.nonzero(H)
    a = H[r, c] if d is None else d[r] * H[r, c] * d[c]
    b = H[c, r].conj() if conj else H[c, r]
    return float(np.max(np.abs(a - b), initial=0.0))


def _down_spins(L: int) -> np.ndarray:
    """Number of set bits of each basis state 0 .. 2^L - 1."""
    return ((np.arange(1 << L)[:, None] >> np.arange(L)) & 1).sum(axis=1)


def parity_diagonal(L: int) -> np.ndarray:
    """Diagonal of P = prod_j sz_j in the computational basis."""
    return 1.0 - 2.0 * (_down_spins(L) % 2)


def _rotation(H: np.ndarray) -> np.ndarray:
    """The translation by one site: a cyclic rotation of the site bits."""
    L = H.shape[0].bit_length() - 1
    s = np.arange(1 << L)
    return (s >> 1) | ((s & 1) << (L - 1))


def lowest_levels(H: np.ndarray, n: int = 4) -> np.ndarray:
    """The n zero-momentum levels of lowest real part: the two levels that
    merge at h_c are both translation invariant."""
    ev = np.linalg.eigvals(sector_matrix(H, _rotation(H))[0])
    return ev[np.argsort(ev.real)][:n]


def levels_merged(lam: float, h: float, L: int) -> bool:
    """True when the two lowest zero-momentum levels form a complex pair."""
    ev = lowest_levels(ising_imaginary_chain(lam, h, L), 2)
    return bool(np.abs(ev[0].imag) > _MERGED_TOL)


def critical_field(lam: float, L: int, tol: float = 1e-8) -> float:
    """Merging threshold h_c(lambda, L) by bisection on the complex-pair onset."""
    lo, hi = 0.0, 0.25
    while not levels_merged(lam, hi, L):
        lo, hi = hi, hi * 2.0
        if hi > 64:
            raise RuntimeError("no merging found below h = 64")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if levels_merged(lam, mid, L):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def ground_pair(H: np.ndarray) -> EigenPair:
    """Bi-orthonormal ground pair from ``rsos.eigensystem`` in the
    zero-momentum sector; a defective pair (at h_c) raises
    ``DefectivePairError``."""
    if _transpose_residual(H) > 1e-12:
        raise ValueError("expected a complex-symmetric Hamiltonian")
    pair = eigensystem(H, _rotation(H), n_states=1)[0]
    if abs(pair.energy.imag) > 1e-9:
        raise ComplexGroundStateError(f"lowest level is complex: {pair.energy}")
    return pair


def renyi2_profile(H: np.ndarray, L: int) -> np.ndarray:
    """S_2(ell) for ell = 1..L-1 from rho = r0 w0, subsystem = first ell sites.

    rho_A = R W^T with R, W the ground pair reshaped to 2^ell x 2^(L-ell);
    Tr rho_A^2 is taken on the smaller Gram side by ``rsos._block_power_trace``,
    so no matrix larger than 2^(L/2) square is formed.  Values are real in
    the unbroken-symmetry phase (the imaginary parts are checked and
    discarded).
    """
    gp = ground_pair(H)
    out = np.empty(L - 1)
    for ell in range(1, L):
        shape = (1 << ell, 1 << (L - ell))
        t2 = _block_power_trace(gp.right.reshape(shape), gp.left.reshape(shape), 2)
        if abs(t2.imag) > 1e-8 * max(1.0, abs(t2.real)):
            raise RuntimeError(f"Tr rho^2 not real: {t2}")
        s2 = -np.log(complex(t2))
        out[ell - 1] = s2.real
    return out


def crossover_study(lam: float, L: int, h_fractions) -> dict:
    """S_2 profiles at h = fraction * h_c(lam, L) for each fraction in (0, 1).

    L >= 4, so that ``midpoint_second_difference`` has three profile values.
    """
    if L < 4:
        raise ValueError(f"L = {L}: the crossover study needs at least 4 sites")
    hc = critical_field(lam, L)
    profiles = {}
    for f in h_fractions:
        if not 0 < f < 1:
            raise ValueError("fractions must lie in (0, 1)")
        H = ising_imaginary_chain(lam, f * hc, L)
        profiles[f] = renyi2_profile(H, L)
    return {"h_c": hc, "profiles": profiles}


def midpoint_second_difference(profile: np.ndarray) -> float:
    """Discrete second difference of S_2 at the chain midpoint."""
    mid = len(profile) // 2
    return float(profile[mid - 1] - 2 * profile[mid] + profile[mid + 1])
