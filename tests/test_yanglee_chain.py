"""Imaginary-field Ising chain: adjointness, level merging, crossover."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvals

from cyclorb import rsos, yanglee_chain as ylc


def dense_renyi2(H, L):
    """S_2 profile from the dense rho_A = R W^T and Tr(rho_A rho_A), and the
    rounding bound 2^L eps sum_ij |rho_ij rho_ji| / |Tr rho_A^2| of each value."""
    gp = ylc.ground_pair(H)
    out, bound = [], []
    for ell in range(1, L):
        R = gp.right.reshape(1 << ell, 1 << (L - ell))
        W = gp.left.reshape(1 << ell, 1 << (L - ell))
        rho = R @ W.T
        t2 = np.trace(rho @ rho)
        out.append((-np.log(complex(t2))).real)
        bound.append((1 << L) * np.finfo(float).eps * np.sum(np.abs(rho * rho.T)) / abs(t2))
    return np.array(out), np.array(bound)


def loop_chain(lam, h, L):
    """The chain Hamiltonian built one basis state and one site at a time."""
    dim = 1 << L
    H = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        z = L - 2 * bin(s).count("1")
        H[s, s] += -0.5 * z
        for j in range(L):
            jp = (j + 1) % L
            t = s ^ (1 << j) ^ (1 << jp)
            H[t, s] += -0.5 * lam
            f = s ^ (1 << j)
            H[f, s] += -0.5j * h
    return H


class TestHamiltonian:
    def test_hermitian_at_zero_field(self):
        H = ylc.ising_imaginary_chain(0.8, 0.0, 6)
        assert np.max(np.abs(H - H.conj().T)) < 1e-14

    def test_complex_symmetric(self):
        H = ylc.ising_imaginary_chain(0.8, 0.07, 6)
        assert np.max(np.abs(H - H.T)) == 0.0

    def test_parity_adjointness(self):
        H = ylc.ising_imaginary_chain(0.8, 0.05, 8)
        P = ylc.parity_diagonal(8)
        assert np.max(np.abs(P[:, None] * H * P[None, :] - H.conj().T)) < 1e-12

    @pytest.mark.parametrize("L", [2, 3, 6])
    def test_matches_loop_reference(self, L):
        H = ylc.ising_imaginary_chain(0.8, 0.07, L)
        assert H.tobytes() == loop_chain(0.8, 0.07, L).tobytes()
        parity = [1.0 if bin(s).count("1") % 2 == 0 else -1.0 for s in range(1 << L)]
        assert ylc.parity_diagonal(L).tolist() == parity

    def test_size_rejected(self):
        with pytest.raises(ylc.SizeError):
            ylc.ising_imaginary_chain(0.8, 0.1, 21)
        for L in (0, 1):
            with pytest.raises(ValueError):
                ylc.ising_imaginary_chain(0.8, 0.1, L)

    def test_size_cap_before_allocating(self):
        # one 2^13 x 2^13 complex matrix would take 1 GiB
        assert ylc.MAX_SITES == 12
        tracemalloc.start()
        try:
            with pytest.raises(ylc.SizeError):
                ylc.ising_imaginary_chain(0.8, 0.1, ylc.MAX_SITES + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_coupling_range(self):
        with pytest.raises(ValueError):
            ylc.ising_imaginary_chain(1.2, 0.1, 6)

    @pytest.mark.parametrize("seed", range(4))
    def test_pattern_residual_matches_full_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        H = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.1)
        d = rng.choice([-1.0, 1.0], size=n)
        for conj in (False, True):
            G = H.conj() if conj else H
            assert ylc._transpose_residual(H, conj=conj) == np.max(np.abs(H - G.T))
            assert ylc._transpose_residual(H, d, conj) == np.max(np.abs(
                d[:, None] * H * d[None, :] - G.T))
        assert ylc._transpose_residual(np.zeros((n, n), dtype=complex)) == 0.0

    def test_checks_catch_small_perturbations(self):
        # 2e-12 added to an entry off the nonzero pattern, then to one on it
        L = 6
        H = ylc.ising_imaginary_chain(0.8, 0.03, L)
        P = ylc.parity_diagonal(L)
        off = tuple(np.argwhere(H == 0)[0])
        on = tuple(np.argwhere((H != 0) & ~np.eye(len(H), dtype=bool))[0])
        for rc in (off, on):
            Hp = H.copy()
            Hp[rc] += 2e-12
            assert ylc._transpose_residual(Hp, P, conj=True) > 1e-12
            with pytest.raises(ValueError, match="complex-symmetric"):
                ylc.ground_pair(Hp)

    def test_spectrum_conjugation_closed(self):
        H = ylc.ising_imaginary_chain(0.8, 0.12, 8)
        ev = np.linalg.eigvals(H)
        for e in ev:
            assert np.min(np.abs(ev - e.conjugate())) < 1e-8


class TestThreshold:
    @pytest.mark.parametrize("L", [6, 8])
    def test_merging_threshold(self, L):
        hc = ylc.critical_field(0.8, L)
        assert 0 < hc < 1
        assert not ylc.levels_merged(0.8, 0.95 * hc, L)
        assert ylc.levels_merged(0.8, 1.05 * hc, L)

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_matches_full_spectrum_bisection(self, L):
        def merged(h):
            ev = eigvals(ylc.ising_imaginary_chain(0.8, h, L))
            return abs(ev[np.argmin(ev.real)].imag) > 1e-9

        lo, hi = 0.0, 0.25
        while not merged(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if merged(mid) else (mid, hi)
        assert abs(ylc.critical_field(0.8, L) - 0.5 * (lo + hi)) < 1e-12

    def test_threshold_decreases_with_size(self):
        h6 = ylc.critical_field(0.8, 6)
        h8 = ylc.critical_field(0.8, 8)
        assert h8 < h6

    def test_complex_ground_rejected_above(self):
        hc = ylc.critical_field(0.8, 6)
        H = ylc.ising_imaginary_chain(0.8, 1.2 * hc, 6)
        with pytest.raises(ylc.ComplexGroundStateError):
            ylc.ground_pair(H)


class TestGroundPair:
    def test_left_right_distinct(self):
        hc = ylc.critical_field(0.8, 8)
        H = ylc.ising_imaginary_chain(0.8, 0.5 * hc, 8)
        gp = ylc.ground_pair(H)
        P = ylc.parity_diagonal(8)
        pr = P * gp.right
        overlap = abs(np.vdot(pr, gp.right)) / (np.linalg.norm(pr) * np.linalg.norm(gp.right))
        assert overlap < 1 - 1e-6
        # the parity image is the conjugate eigenvector (left in the usual product)
        resid = np.linalg.norm(H.conj().T @ pr - np.conj(gp.energy) * pr)
        assert resid < 1e-8 * np.linalg.norm(pr)

    def test_normalization(self):
        H = ylc.ising_imaginary_chain(0.8, 0.02, 6)
        gp = ylc.ground_pair(H)
        assert abs(gp.left @ gp.right - 1.0) < 1e-12

    # h = fraction * h_c(0.8, L), and the ground energy and S_2 profile
    # there, as the chain's former transpose-covector solve gave them
    @pytest.mark.parametrize("L,h,energy,profile", [
        (6, 0.1 * 0.06023486331105232, -3.523737864079212,
         [0.21278620710961, 0.25243493124421, 0.26202844214433,
          0.25243493124421, 0.21278620710961]),
        (6, 0.99 * 0.06023486331105232, -3.4136471696326725,
         [-2.25819994155646, -2.48264417727647, -2.53447714240229,
          -2.48264417727647, -2.25819994155646]),
        (8, 0.1 * 0.0458749420940876, -4.681975596052059,
         [0.20333882885998, 0.24176224132373, 0.25601752033183, 0.25993396757916,
          0.25601752033183, 0.24176224132373, 0.20333882885998]),
        (8, 0.99 * 0.0458749420940876, -4.579307023536444,
         [-2.04636230755863, -2.29607263949697, -2.38829678677065, -2.41396795960879,
          -2.38829678677065, -2.29607263949697, -2.04636230755864]),
    ])
    def test_matches_pinned_values(self, L, h, energy, profile):
        H = ylc.ising_imaginary_chain(0.8, h, L)
        gp = ylc.ground_pair(H)
        assert isinstance(gp, rsos.EigenPair)
        assert abs(gp.energy - energy) < 1e-10
        assert np.max(np.abs(ylc.renyi2_profile(H, L) - profile)) < 1e-10

    @pytest.mark.parametrize("L", [6, 8, 10])
    @pytest.mark.parametrize("h", [0.02, 0.035])
    def test_profile_matches_dense_rho(self, L, h):
        # near h_c (0.0387 at L = 10) Tr rho_A^2 cancels up to 1000-fold
        H = ylc.ising_imaginary_chain(0.8, h, L)
        want, bound = dense_renyi2(H, L)
        assert np.all(np.abs(ylc.renyi2_profile(H, L) - want) <= bound)

    @pytest.mark.parametrize("L", [6, 8])
    def test_conjugate_pair_biorthonormal(self, L):
        # above h_c the two lowest levels are a complex-conjugate pair; the
        # covectors (rows of R^-1) stay bi-orthonormal across it
        H = ylc.ising_imaginary_chain(0.8, 1.2 * ylc.critical_field(0.8, L), L)
        pairs = rsos.eigensystem(H, ylc._rotation(H), n_states=6)
        assert abs(pairs[0].energy - pairs[1].energy.conjugate()) < 1e-10
        assert abs(pairs[0].energy.imag) > 1e-3
        G = np.array([[pi.left @ pj.right for pj in pairs] for pi in pairs])
        assert np.max(np.abs(G - np.eye(6))) < 1e-10


class TestCrossover:
    def test_profile_symmetry_and_signs(self):
        st = ylc.crossover_study(0.8, 8, [0.1, 0.99])
        for f, prof in st["profiles"].items():
            assert np.max(np.abs(prof - prof[::-1])) < 1e-9
        lo = ylc.midpoint_second_difference(st["profiles"][0.1])
        hi = ylc.midpoint_second_difference(st["profiles"][0.99])
        assert lo < 0 < hi  # concave to convex

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            ylc.crossover_study(0.8, 6, [1.5])

    @pytest.mark.parametrize("L", [2, 3])
    def test_too_short_for_midpoint_difference(self, L):
        with pytest.raises(ValueError, match="at least 4 sites"):
            ylc.crossover_study(0.8, L, [0.5])
