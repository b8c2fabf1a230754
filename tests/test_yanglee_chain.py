"""Imaginary-field Ising chain: adjointness, level merging, crossover."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvals

from cyclorb import rsos, yanglee_chain as ylc
from _trace_oracle import block_power_trace


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


def reflection_classes(L):
    """The rotation orbits numbered by their smallest state, as in
    ``rsos.sector_matrix``, grouped by brute force with their mirror orbits.
    Returns the (orbit x class) even and odd projections and the parity of
    each class, classes ordered by their first orbit."""
    def rotations(s):
        return [((s >> k) | (s << (L - k))) & ((1 << L) - 1) for k in range(L)]

    reps = sorted({min(rotations(s)) for s in range(1 << L)})
    orbit_of = {rep: a for a, rep in enumerate(reps)}
    mirror = [orbit_of[min(rotations(int(format(rep, f"0{L}b")[::-1], 2)))] for rep in reps]
    heads = [a for a in range(len(reps)) if a <= mirror[a]]
    even = np.zeros((len(reps), len(heads)))
    odd = np.zeros((len(reps), sum(mirror[a] != a for a in heads)))
    c_odd = 0
    for c, a in enumerate(heads):
        if mirror[a] == a:
            even[a, c] = 1.0
        else:
            even[[a, mirror[a]], c] = np.sqrt(0.5)
            odd[[a, mirror[a]], c_odd] = np.sqrt(0.5), -np.sqrt(0.5)
            c_odd += 1
    parity = np.array([bin(reps[a]).count("1") % 2 for a in heads])
    return even, odd, parity, parity[[mirror[a] != a for a in heads]]


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


def bisect_hc(merged, tol=1e-12):
    """h_c by bisection on the verdict merged(h), from the bracket [0, 0.25]
    doubled until merged: the search that regula falsi replaced.  Returns the
    midpoint of the final bracket and the number of verdicts taken."""
    calls = 1
    lo, hi = 0.0, 0.25
    while not merged(hi):
        lo, hi, calls = hi, 2 * hi, calls + 1
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if merged(mid) else (mid, hi)
        calls += 1
    return 0.5 * (lo + hi), calls


@functools.cache
def reference_hc(lam, L):
    """h_c to 1e-12 by bisection on ``ChainSector.merged``."""
    return bisect_hc(ylc.ChainSector(lam, L).merged)[0]


def counted_search(lam, L, tol):
    """h_c from ``ChainSector.critical_field`` and its ``_levels`` probes, in
    order, as (h, merged) pairs: one eigensolve round each."""
    sector = ylc.ChainSector(lam, L)
    probes, levels = [], sector._levels

    def record(h):
        out = levels(h)
        probes.append((h, out[0]))
        return out

    sector._levels = record
    return sector.critical_field(tol), probes


@functools.cache
def real_search(lam, L, tol):
    """``counted_search`` on the real chain, once per (lam, L, tol) per test run.
    Only for tests that leave ``ChainSector._levels`` unpatched."""
    return counted_search(lam, L, tol)


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

        assert abs(ylc.critical_field(0.8, L) - bisect_hc(merged)[0]) <= 1e-8 / 2 + 1e-12

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

    @pytest.mark.parametrize("L", [6, 8])
    @pytest.mark.parametrize("h", [0.02, 0.035])
    def test_profile_is_bitwise_the_per_block_reference(self, L, h):
        # _profile takes each ell's trace as a stack of one block
        gp = ylc.ChainSector(0.8, L).ground_pair(h)
        want = np.empty(L - 1)
        for ell in range(1, L):
            shape = (1 << ell, 1 << (L - ell))
            t2 = block_power_trace(gp.right.reshape(shape), gp.left.reshape(shape), 2)
            want[ell - 1] = (-np.log(complex(t2))).real
        assert ylc._profile(gp, L).tobytes() == want.tobytes()

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


# h_c(lambda, L) at tol 1e-6 and 1e-8: midpoints of the dense bisection that
# the sector search replaced, each within tol of ``critical_field`` at that tol
PINNED_HC = {
    (4, 0.78): (0.10208463668823242, 0.10208446905016899),
    (4, 0.80): (0.09695196151733398, 0.0969519279897213),
    (4, 0.82): (0.09210634231567383, 0.09210644289851189),
    (6, 0.78): (0.0651249885559082, 0.06512533500790596),
    (6, 0.80): (0.06023454666137695, 0.06023486331105232),
    (6, 0.82): (0.055692195892333984, 0.05569206550717354),
    (8, 0.78): (0.0506749153137207, 0.0506751723587513),
    (8, 0.80): (0.04587507247924805, 0.0458749420940876),
    (8, 0.82): (0.04146528244018555, 0.0414653979241848),
    (10, 0.78): (0.043454647064208984, 0.04345431551337242),
    (10, 0.80): (0.03867197036743164, 0.03867225721478462),
    (10, 0.82): (0.034311771392822266, 0.03431146964430809),
}


# g(s, s_c) for the synthetic searches, s = h^2: zero at s_c, negative above it
SYNTHETIC_GAPS = {
    "linear": lambda s, sc: sc - s,
    # strongly curved: the slope at s = 0 is e^4 times that at s_c
    "curved": lambda s, sc: math.expm1(4 * (sc - s) / sc),
    # flat at g = 1 and g = -1, so that three probes can share a g
    "flat": lambda s, sc: max(-1.0, min(1.0, 4 * (sc - s) / sc)),
    # steeper still: the slope at s = 0 is e^8 times that at s_c
    "steep": lambda s, sc: math.expm1(8 * (sc - s) / sc),
    # flat at s = 0; at s_c four times the slope of the chord from (0, 1)
    "quartic": lambda s, sc: 1 - (s / sc) ** 4,
}


def sector_levels(sector, h):
    """The levels of both real blocks, by ascending real part."""
    ev = np.concatenate([np.linalg.eigvals(M) for M in sector.blocks(h)])
    return ev[np.argsort(ev.real)]


class TestSector:
    @pytest.mark.parametrize("L", range(2, 11))
    @pytest.mark.parametrize("h", [0.02, 0.2])
    def test_blocks_match_projected_sector(self, L, h):
        # un-twisted from the i^parity basis, each real block is the
        # reflection projection of the orbit-representative block of the
        # dense H; L = 2 has coinciding bonds, L = 4 an empty odd block
        H = ylc.ising_imaginary_chain(0.8, h, L)
        S = rsos.sector_matrix(H, ylc._rotation(H))[0]
        even, odd, *parities = reflection_classes(L)
        blocks = ylc.ChainSector(0.8, L).blocks(h)
        assert len(blocks) == (2 if odd.shape[1] else 1)
        for Q, parity, B in zip((even, odd), parities, blocks):
            assert B.dtype == np.float64
            twist = np.where(parity, 1j, 1.0)
            want = Q.T @ S @ Q
            got = twist[:, None] * B * twist.conj()[None, :]
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("L,lam", list(PINNED_HC))
    def test_critical_field_pinned(self, L, lam):
        for tol, pinned in zip((1e-6, 1e-8), PINNED_HC[L, lam]):
            hc = ylc.critical_field(lam, L, tol=tol)
            assert abs(hc - reference_hc(lam, L)) <= tol / 2 + 1e-12
            assert abs(hc - pinned) <= tol

    @pytest.mark.parametrize("L", [2, 3, 5, 7, 12])
    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.99])
    def test_critical_field_within_half_tol(self, L, lam):
        # odd L and the ends of the coupling range; L = 2 has one block
        for tol in (1e-6, 1e-8):
            hc = ylc.critical_field(lam, L, tol=tol)
            assert abs(hc - reference_hc(lam, L)) <= tol / 2 + 1e-12

    @pytest.mark.parametrize("L", range(4, 13))
    def test_solve_count(self, L):
        # interpolation on the squared gap in h^2: at most 9 solves from
        # the default bracket, and never more than the bisection's verdicts at
        # lambda = 0.05
        for tol in (1e-6, 1e-8):
            for lam in (0.78, 0.80, 0.82):
                assert len(real_search(lam, L, tol)[1]) <= 9
            sector = ylc.ChainSector(0.05, L)
            assert len(real_search(0.05, L, tol)[1]) <= bisect_hc(sector.merged, tol)[1]

    @pytest.mark.parametrize("L", range(4, 13))
    def test_rounds_per_search(self, L):
        # inverse quadratic interpolation through the last three probes: at
        # most 7 rounds, 6 at L = 6, 8, tol 1e-6
        for tol in (1e-6, 1e-8):
            for lam in (0.78, 0.80, 0.82):
                rounds = len(real_search(lam, L, tol)[1])
                assert rounds <= (6 if L in (6, 8) and tol == 1e-6 else 7)

    @pytest.mark.parametrize("hc", [0.0969, 0.75])
    @pytest.mark.parametrize("shape", list(SYNTHETIC_GAPS))
    def test_safeguards_on_synthetic_levels(self, shape, hc, monkeypatch):
        # _levels gives (s > s_c, f(s)), s = h^2.  A step that leaves the
        # bracket bisects h, so no f here takes more rounds than bisection
        f, sc = SYNTHETIC_GAPS[shape], hc * hc
        monkeypatch.setattr(ylc.ChainSector, "_levels", lambda self, h: (h * h > sc, f(h * h, sc)))
        for tol in (1e-6, 1e-8, 1e-12):
            got, probes = counted_search(0.8, 4, tol)
            first = next(n for n, (_, merged) in enumerate(probes) if merged)
            for n in range(first + 1, len(probes)):
                h = probes[n][0]
                lo = max(p for p, merged in probes[:n] if not merged)
                hi = min(p for p, merged in probes[:n] if merged)
                assert h >= lo + tol / 4 or h == math.nextafter(lo, hi)
                assert h <= hi - tol / 4 or h == math.nextafter(hi, lo)
            assert abs(got - math.sqrt(sc)) <= tol / 2
            assert len(probes) <= bisect_hc(lambda h: h * h > sc, tol)[1]
            if shape == "flat":     # some probe bisected h on equal g
                g = [f(h * h, sc) for h, _ in probes]
                assert any(len({*g[n - 3:n]}) < 3 for n in range(max(first + 1, 3), len(g)))

    def test_quartic_gap_far_below_the_bracket(self, monkeypatch):
        # h_c = 0.003, far below the first probe 0.25: the interpolated
        # steps crawl up from h = 0, and the bisection step cuts the crawl
        f, sc = SYNTHETIC_GAPS["quartic"], 0.003 ** 2
        monkeypatch.setattr(ylc.ChainSector, "_levels", lambda self, h: (h * h > sc, f(h * h, sc)))
        for tol in (1e-6, 1e-8, 1e-12):
            got, probes = counted_search(0.8, 4, tol)
            assert abs(got - 0.003) <= tol / 2
            # rounds after the one at h = 0, which bisection does not take
            assert len(probes) - 1 <= bisect_hc(lambda h: h * h > sc, tol)[1] + 3

    @pytest.mark.parametrize("L", range(4, 11))
    @pytest.mark.parametrize("h", [0.01, 0.03, 0.2])
    def test_levels_even_in_the_field(self, L, h):
        # the premise of the secant in h^2: P maps H(h) to H(-h), on the real
        # blocks M(-h) = D M(h) D exactly, and one round at -h gives the
        # verdict and g of the round at h, bitwise
        sector = ylc.ChainSector(0.8, L)
        for (d, *_), M, M_neg in zip(sector._blocks, sector.blocks(h), sector.blocks(-h)):
            assert np.array_equal(M_neg, d[:, None] * M * d[None, :])
        assert sector._levels(-h) == sector._levels(h)

    @pytest.mark.parametrize("L", [2, 4, 7, 10])
    @pytest.mark.parametrize("lam", [0.05, 0.8, 0.99])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-20])
    def test_probes_stay_inside_the_bracket(self, L, lam, tol):
        # after the doubling phase (up to the first merged probe) every probe
        # lies strictly between the largest real and the smallest merged
        # probe made before it
        hc, probes = counted_search(lam, L, tol)
        first = next(n for n, (_, merged) in enumerate(probes) if merged)
        assert [h for h, _ in probes[:first + 1]] == [0.0] + [0.25 * 2**n for n in range(first)]
        for n in range(first + 1, len(probes)):
            lo = max(h for h, merged in probes[:n] if not merged)
            hi = min(h for h, merged in probes[:n] if merged)
            assert lo < probes[n][0] < hi
        lo = max(h for h, merged in probes if not merged)
        hi = min(h for h, merged in probes if merged)
        assert hc == 0.5 * (lo + hi)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_tol_rejected_before_any_solve(self, tol, monkeypatch):
        def no_solve(self, h):
            raise AssertionError("eigensolve reached")

        monkeypatch.setattr(ylc.ChainSector, "_levels", no_solve)
        with pytest.raises(ValueError, match="tol"):
            ylc.critical_field(0.8, 4, tol=tol)

    def test_tol_below_float_spacing_ends_at_adjacent_floats(self):
        # hi - lo never reaches 1e-20 near h_c = 0.097; the search stops
        # when no float lies between lo and hi.  merged is not monotone at
        # that scale, so only the bracket the search probed is asserted
        hc, probes = counted_search(0.8, 4, 1e-20)
        assert len(probes) <= 64
        lo = max(h for h, merged in probes if not merged)
        hi = min(h for h, merged in probes if merged)
        assert math.nextafter(lo, 1.0) == hi
        assert lo <= hc <= hi

    @pytest.mark.parametrize("L", range(4, 13))
    def test_ground_pair_matches_dense(self, L):
        # h = 0.03 lies below h_c(0.8, L) up to L = 12 (0.0345)
        H = ylc.ising_imaginary_chain(0.8, 0.03, L)
        want = ylc.ground_pair(H)
        got = ylc.ChainSector(0.8, L).ground_pair(0.03)
        assert abs(got.energy - want.energy) <= 1e-13 * abs(want.energy)
        assert got.check(H)     # r ~ i^parity, w ~ i^-parity in the whole space
        assert np.max(np.abs(ylc._profile(got, L) - ylc.renyi2_profile(H, L))) < 1e-11

    @pytest.mark.parametrize("L", [6, 8])
    @pytest.mark.parametrize("h", [0.02, 0.2])
    def test_levels_match_dense(self, L, h):
        # the merged levels of both blocks against the orbit block of the
        # dense H; members of a conjugate pair may come in either order
        want = ylc.lowest_levels(ylc.ising_imaginary_chain(0.8, h, L), 6)
        got = sector_levels(ylc.ChainSector(0.8, L), h)[:6]
        assert np.allclose(got.real, want.real, rtol=0, atol=1e-12)
        assert np.allclose(np.sort(np.abs(got.imag)), np.sort(np.abs(want.imag)),
                           rtol=0, atol=1e-10)

    def test_real_levels_have_zero_imaginary_part(self):
        ev = sector_levels(ylc.ChainSector(0.8, 8), 0.9 * PINNED_HC[8, 0.80][1])[:2]
        assert np.all(ev.imag == 0.0)
        assert ylc.ChainSector(0.8, 8).merged(1.1 * PINNED_HC[8, 0.80][1])

    def test_block_check_catches_small_perturbations(self):
        # 2e-12 added to an entry off the nonzero pattern, then to one on it
        sector = ylc.ChainSector(0.8, 8)
        M = sector.blocks(0.03)[0]
        off = tuple(np.argwhere(M == 0)[0])
        on = tuple(np.argwhere((M != 0) & ~np.eye(len(M), dtype=bool))[0])
        for rc in (off, on):
            sector = ylc.ChainSector(0.8, 8)
            sector._blocks[0][1][rc] += 2e-12     # base of the even block
            with pytest.raises(AssertionError, match="D M"):
                sector.blocks(0.03)

    def test_block_check_bounds_the_field_term_by_h(self):
        # 1e-13 off the pattern of the even block's field is within 1e-12
        # at h = 0.03 and beyond it at h = 64: the check scales it by |h|
        sector = ylc.ChainSector(0.8, 8)
        F = sector._blocks[0][2]
        F[tuple(np.argwhere((F == 0) & ~np.eye(len(F), dtype=bool))[0])] += 1e-13
        sector.blocks(0.03)
        with pytest.raises(AssertionError, match="D M"):
            sector.blocks(64.0)

    def test_sector_limit_per_block_before_eigensolve(self, monkeypatch):
        assert [len(M) for M in ylc.ChainSector(0.8, 8).blocks(0.02)] == [30, 6]

        def no_solve(*args):
            raise AssertionError("eigensolve reached")

        monkeypatch.setattr(rsos, "SECTOR_LIMIT", 29)
        monkeypatch.setattr(np.linalg, "eig", no_solve)
        monkeypatch.setattr(np.linalg, "eigvals", no_solve)
        with pytest.raises(rsos.SizeError):
            ylc.levels_merged(0.8, 0.02, 8)
        with pytest.raises(rsos.SizeError):
            ylc.ChainSector(0.8, 8).ground_pair(0.02)

    def test_sector_limit_before_the_blocks_are_filled(self, monkeypatch):
        # the 30-class even block at L = 8 is refused before np.bincount fills it
        def no_fill(*args, **kwargs):
            raise AssertionError("block filled")

        monkeypatch.setattr(rsos, "SECTOR_LIMIT", 29)
        monkeypatch.setattr(np, "bincount", no_fill)
        with pytest.raises(rsos.SizeError):
            ylc.levels_merged(0.8, 0.02, 8)
        with pytest.raises(rsos.SizeError):
            ylc.ChainSector(0.8, 8).ground_pair(0.02)

    def test_solves_through_the_rsos_module(self, monkeypatch):
        # a wrapped rsos.sector_pairs sees one call with both blocks
        calls = []
        solve = rsos.sector_pairs

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(rsos, "sector_pairs", counted)
        ylc.ChainSector(0.8, 6).ground_pair(0.02)
        assert len(calls) == 1 and len(calls[0][0]) == 2

    def test_size_and_coupling_rejected(self):
        with pytest.raises(ylc.SizeError):
            ylc.ChainSector(0.8, ylc.MAX_SITES + 1)
        for lam, L in ((1.2, 6), (0.8, 1)):
            with pytest.raises(ValueError):
                ylc.levels_merged(lam, 0.1, L)

    def test_no_dense_matrix_on_search_path(self):
        # the dense H alone would take 256 MiB at L = 12
        for run in (lambda: ylc.critical_field(0.8, 12, tol=1e-4),
                    lambda: ylc.crossover_study(0.8, 12, [0.1, 0.99])):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 << 20


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

    def test_fractions_checked_before_the_search(self, monkeypatch):
        def no_search(self, tol=1e-8):
            raise AssertionError("threshold search reached")

        monkeypatch.setattr(ylc.ChainSector, "critical_field", no_search)
        with pytest.raises(ValueError, match="fractions"):
            ylc.crossover_study(0.8, 6, [0.5, 1.5])

    @pytest.mark.parametrize("L", [2, 3])
    def test_too_short_for_midpoint_difference(self, L):
        with pytest.raises(ValueError, match="at least 4 sites"):
            ylc.crossover_study(0.8, L, [0.5])
