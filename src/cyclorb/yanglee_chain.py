"""Quantum Ising chain in an imaginary longitudinal field.

    H = -1/2 sum_j ( lambda sx_j sx_{j+1} + sz_j + i h sx_j ),

periodic, 0 < lambda < 1.  H is complex symmetric; with P = prod_j sz_j one
has P H P = H^dagger, so the spectrum is closed under conjugation.  Below a
size-dependent threshold h_c the two lowest levels are real; at h_c they
merge into a complex-conjugate pair (the finite-size shadow of the edge
singularity).

The density matrix is the bi-orthogonal one, rho = r0 w0 with w0 r0 = 1,
from ``rsos.eigensystem`` in the zero-momentum sector.
"""

from __future__ import annotations

import numpy as np

from .rsos import EigenPair, SizeError, eigensystem, sector_matrix

MAX_SITES = 12    # the dense build makes several 2^L x 2^L complex arrays, 256 MiB each at L = 12


class ComplexGroundStateError(RuntimeError):
    """Requested a real ground state above the merging threshold."""


def ising_imaginary_chain(lam: float, h: float, L: int) -> np.ndarray:
    """Dense 2^L x 2^L Hamiltonian; verifies P H P = H^dagger at build time."""
    if not 0 < lam < 1:
        raise ValueError("require 0 < lambda < 1")
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
    P = parity_diagonal(L)
    residual = np.max(np.abs((P[:, None] * H * P[None, :]) - H.conj().T))
    if residual > 1e-12:
        raise AssertionError(f"P H P != H^dagger (residual {residual})")
    return H


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


def levels_merged(lam: float, h: float, L: int, tol: float = 1e-9) -> bool:
    """True when the two lowest zero-momentum levels form a complex pair."""
    ev = lowest_levels(ising_imaginary_chain(lam, h, L), 2)
    return bool(np.abs(ev[0].imag) > tol)


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
    if np.max(np.abs(H - H.T)) > 1e-12:
        raise ValueError("expected a complex-symmetric Hamiltonian")
    pair = eigensystem(H, _rotation(H), n_states=1)[0]
    if abs(pair.energy.imag) > 1e-9:
        raise ComplexGroundStateError(f"lowest level is complex: {pair.energy}")
    return pair


def renyi2_profile(H: np.ndarray, L: int) -> np.ndarray:
    """S_2(ell) for ell = 1..L-1 from rho = r0 w0, subsystem = first ell sites.

    Values are real in the unbroken-symmetry phase (the imaginary parts are
    checked and discarded).
    """
    gp = ground_pair(H)
    out = np.empty(L - 1)
    for ell in range(1, L):
        R = gp.right.reshape(1 << ell, 1 << (L - ell))
        W = gp.left.reshape(1 << ell, 1 << (L - ell))
        rho = R @ W.T
        t2 = np.trace(rho @ rho)
        if abs(t2.imag) > 1e-8 * max(1.0, abs(t2.real)):
            raise RuntimeError(f"Tr rho^2 not real: {t2}")
        s2 = -np.log(complex(t2))
        out[ell - 1] = s2.real
    return out


def crossover_study(lam: float, L: int, h_fractions) -> dict:
    """S_2 profiles at h = fraction * h_c(lam, L) for each fraction in (0, 1)."""
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
