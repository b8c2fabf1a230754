"""Quantum Ising chain in an imaginary longitudinal field.

    H = -1/2 sum_j ( lambda sx_j sx_{j+1} + sz_j + i h sx_j ),

periodic, 0 < lambda < 1.  H is complex symmetric; with P = prod_j sz_j one
has P H P = H^dagger, so the spectrum is closed under conjugation.  Below a
size-dependent threshold h_c the two lowest levels are real; at h_c they
merge into a complex-conjugate pair (the finite-size shadow of the edge
singularity).

The threshold search (the secant or inverse quadratic interpolation on the
squared gap of the two lowest levels in h^2, falling back to bisection in h,
bracketed by the complex-pair verdict) and the crossover solve
``ChainSector``'s real blocks and never form H; the dense H,
``lowest_levels``, ``ground_pair`` and ``renyi2_profile`` are the reference.
rho = r0 w0 (w0 r0 = 1), from ``rsos.sector_pairs``, has its Renyi-2 traces
taken as for an RSOS block.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import rsos
from .rsos import EigenPair, SizeError

MAX_SITES = 12    # the dense reference makes a 2^L x 2^L complex array, 256 MiB at L = 12
_MERGED_TOL = 1e-9   # |Im E_0| above which the two lowest levels count as a complex pair


class ComplexGroundStateError(RuntimeError):
    """Requested a real ground state above the merging threshold."""


def ising_imaginary_chain(lam: float, h: float, L: int) -> np.ndarray:
    """Dense 2^L x 2^L Hamiltonian; verifies P H P = H^dagger at build time."""
    _check_chain(lam, L)
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


def _check_chain(lam: float, L: int) -> None:
    if not 0 < lam < 1:
        raise ValueError("require 0 < lambda < 1")
    if L < 2:
        raise ValueError(f"L = {L}: the chain needs at least 2 sites")
    if L > MAX_SITES:
        raise SizeError(f"L = {L} > {MAX_SITES}")


def _transpose_residual(H: np.ndarray, d: np.ndarray | None = None,
                        conj: bool = False) -> float:
    """max_(r,c) |d_r H[r, c] d_c - G[c, r]|, G = conj(H) if ``conj`` else H,
    for a diagonal d of signs (all +1 when None): the residual of
    P H P = H^dagger, H = H^T or M = D M^T D.  Taken over the nonzero pattern
    of H, it equals the maximum over all (r, c): (r, c) and (c, r) have
    terms of the same modulus, and both are 0 off the pattern."""
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


def _rotation(H) -> np.ndarray:
    """The translation by one site on the 2^L rows of H: a rotation of the bits."""
    L = len(H).bit_length() - 1
    s = np.arange(1 << L)
    return (s >> 1) | ((s & 1) << (L - 1))


def lowest_levels(H: np.ndarray, n: int = 4) -> np.ndarray:
    """The n zero-momentum levels of lowest real part: the two levels that
    merge at h_c are both translation invariant."""
    ev = np.linalg.eigvals(rsos.sector_matrix(H, _rotation(H))[0])
    return ev[np.argsort(ev.real)][:n]


class ChainSector:
    """The zero-momentum sector, split by the reflection j -> L-1-j into two
    real blocks, with no 2^L x 2^L matrix.  A class c, a rotation orbit with
    its mirror (N_c states), spans sum_{s in c} sigma(s) i^parity(s) |s> /
    sqrt(N_c) in the even block (sigma = 1) and, if it holds two orbits, in
    the odd one (sigma = -1 on the second).  The entries are -lambda/2 and
    +-h/2 (+ to an even target) times sigma(target) sqrt(N_d/N_c)."""

    def __init__(self, lam: float, L: int):
        _check_chain(lam, L)
        self.lam, self.L = lam, L

    @cached_property
    def _blocks(self) -> list:
        """(d, base, field, index, p) per non-empty block, even first: M(h) =
        base + h field, D = diag(d) = (-1)^parity, P[s, index[s]] = p[s], from
        ``rsos.class_blocks`` with the mirror alone (``SizeError`` before a fill)."""
        L, j = self.L, np.arange(self.L)
        orbit, size, reps = rsos._orbits(_rotation(range(1 << L)))
        mirror = orbit[((reps[:, None] >> j) & 1) @ (1 << L - 1 - j)]
        sc = rsos.symmetry_classes(orbit, size, reps, [mirror])
        # the 2L + 1 targets of H on each class representative t, coefficients of 1 and h
        t = sc.reps[:, None]
        down = ((t >> j) & 1).sum(axis=1)
        parity = down % 2
        flips = np.hstack([t, t ^ (1 << j) ^ (1 << (j + 1) % L), t ^ (1 << j)])
        coef = np.zeros((2,) + flips.shape)
        coef[0, :, 0] = -0.5 * (L - 2 * down)
        coef[0, :, 1:L + 1] = -0.5 * self.lam
        coef[1, :, L + 1:] = parity[:, None] - 0.5
        src = np.repeat(np.arange(len(t)), flips.shape[1])
        twist = np.where(_down_spins(L) % 2, 1j, 1.0)
        return [(1.0 - 2.0 * parity[keep], base, field, index, twist * p)
                for keep, (base, field), index, p
                in rsos.class_blocks(sc, src, flips.ravel(), coef.reshape(2, -1))]

    @cached_property
    def _residuals(self) -> list:
        """(res(base), res(field)) per block: M(h) has res <= res(base) + |h| res(field)."""
        return [(_transpose_residual(base, d), _transpose_residual(field, d))
                for d, base, field, *_ in self._blocks]

    def blocks(self, h: float) -> list:
        """The real blocks at field h, checked: P H P = H^dagger and H = H^T
        become M = D M^T D there, D = diag(d), to 1e-12 through ``_residuals``."""
        if (residual := max(rb + abs(h) * rf for rb, rf in self._residuals)) > 1e-12:
            raise AssertionError(f"M != D M^T D (residual up to {residual})")
        return [base + h * field for _, base, field, *_ in self._blocks]

    def _levels(self, h: float) -> tuple:
        """One eigensolve round over both blocks: whether the level E_0 of
        lowest real part is complex, and g = Re((E_1 - E_0)^2), E_1 the next."""
        ev = np.concatenate([np.linalg.eigvals(M) for M in self.blocks(h)])
        e0, e1 = ev[np.argsort(ev.real, kind="stable")[:2]]
        return bool(abs(e0.imag) > _MERGED_TOL), float(((e1 - e0) ** 2).real)

    def merged(self, h: float) -> bool:
        """True when the level of lowest real part, over both blocks, is complex."""
        return self._levels(h)[0]

    def critical_field(self, tol: float = 1e-8) -> float:
        """Merging threshold h_c to tol/2 from g = Re((E_1 - E_0)^2) in s = h^2:
        P maps H(h) to H(-h), so g is even in h, and nearly linear in h^2 up to
        h_c.  The bracket [0, 0.25] doubles; ``merged``'s verdict moves its ends
        (lo real, hi merged).  Each step interpolates s at g = 0 through the
        last two or three (s, g) probes: the secant, or inverse quadratic
        interpolation (Brent, Algorithms for Minimization without Derivatives,
        1973, ch. 4); when their g are not distinct or the estimate leaves
        (lo^2, hi^2), it bisects h.  Each step lands at least tol/4 inside,
        until hi - lo <= tol or lo, hi are adjacent floats."""
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol = {tol}: need a finite tol > 0")
        lo, hi = 0.0, 0.25
        probes = [(0.0, self._levels(lo)[1])]      # (s, g) of every round
        while not (probe := self._levels(hi))[0]:
            probes.append((hi * hi, probe[1]))
            lo, hi = hi, hi * 2.0
            if hi > 64:
                raise RuntimeError("no merging found below h = 64")
        probes.append((hi * hi, probe[1]))
        while hi - lo > tol and math.nextafter(lo, hi) < hi:
            s = _interpolate(probes[-3:])
            h = math.sqrt(s) if lo * lo < s < hi * hi else 0.5 * (lo + hi)
            h = min(max(h, lo + tol / 4, math.nextafter(lo, hi)),
                    hi - tol / 4, math.nextafter(hi, lo))
            merged, g = self._levels(h)
            probes.append((h * h, g))
            lo, hi = (lo, h) if merged else (h, hi)
        return 0.5 * (lo + hi)

    def ground_pair(self, h: float) -> EigenPair:
        """The ground pair over both blocks, from one ``rsos.sector_pairs`` call."""
        return _real_ground(rsos.sector_pairs(
            [(M, index, p) for M, (*_, index, p) in zip(self.blocks(h), self._blocks)], 1))


def _interpolate(points: list) -> float:
    """s at g = 0 on the polynomial s(g) through two or three (s, g) points, in
    Lagrange form; nan for g values that are not distinct."""
    if len({g for _, g in points}) < len(points):
        return math.nan
    return sum(s * math.prod(gj / (gj - g) for _, gj in points if gj != g) for s, g in points)


def levels_merged(lam: float, h: float, L: int) -> bool:
    """True when the two lowest zero-momentum levels form a complex pair."""
    return ChainSector(lam, L).merged(h)


def critical_field(lam: float, L: int, tol: float = 1e-8) -> float:
    """Merging threshold h_c(lambda, L) to tol/2, from ``ChainSector.critical_field``."""
    return ChainSector(lam, L).critical_field(tol)


def ground_pair(H: np.ndarray) -> EigenPair:
    """Bi-orthonormal ground pair of the dense H from ``rsos.eigensystem``; a
    defective pair (at h_c) raises ``DefectivePairError``."""
    if _transpose_residual(H) > 1e-12:
        raise ValueError("expected a complex-symmetric Hamiltonian")
    return _real_ground(rsos.eigensystem(H, _rotation(H), n_states=1))


def _real_ground(pairs: list) -> EigenPair:
    pair = min(pairs, key=lambda pr: pr.energy.real)
    if abs(pair.energy.imag) > 1e-9:
        raise ComplexGroundStateError(f"lowest level is complex: {pair.energy}")
    return pair


def renyi2_profile(H: np.ndarray, L: int) -> np.ndarray:
    """``_profile`` of the ground pair of the dense H."""
    return _profile(ground_pair(H), L)


def _profile(gp: EigenPair, L: int) -> np.ndarray:
    """S_2(ell), ell = 1..L-1, of rho = r0 w0 on the first ell sites: rho_A =
    R W^T, R and W the pair reshaped to 2^ell x 2^(L-ell), and Tr rho_A^2 on
    the smaller Gram side (``rsos._block_power_trace``).  Values are real in
    the unbroken phase; the imaginary parts are checked and discarded."""
    out = np.empty(L - 1)
    for ell in range(1, L):
        shape = (1 << ell, 1 << (L - ell))
        t2 = rsos._block_power_trace(gp.right.reshape(shape), gp.left.reshape(shape), 2)
        if abs(t2.imag) > 1e-8 * max(1.0, abs(t2.real)):
            raise RuntimeError(f"Tr rho^2 not real: {t2}")
        out[ell - 1] = (-np.log(complex(t2))).real
    return out


def crossover_study(lam: float, L: int, h_fractions) -> dict:
    """S_2 profiles at h = fraction * h_c(lam, L) for each fraction in (0, 1).

    L >= 4, so that ``midpoint_second_difference`` has three profile values.
    """
    if L < 4:
        raise ValueError(f"L = {L}: the crossover study needs at least 4 sites")
    fractions = list(h_fractions)
    if not all(0 < f < 1 for f in fractions):
        raise ValueError("fractions must lie in (0, 1)")
    sector = ChainSector(lam, L)
    hc = sector.critical_field()
    return {"h_c": hc, "profiles": {f: _profile(sector.ground_pair(f * hc), L)
                                    for f in fractions}}


def midpoint_second_difference(profile: np.ndarray) -> float:
    """Discrete second difference of S_2 at the chain midpoint."""
    mid = len(profile) // 2
    return float(profile[mid - 1] - 2 * profile[mid] + profile[mid + 1])
