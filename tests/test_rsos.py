"""Height-chain exact diagonalization: bases, algebra, density matrices,
twisted replica traces."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from cyclorb import rsos, yanglee_chain as ylc
from _trace_oracle import renyi_reference


class TestBasis:
    def test_counts_match_adjacency_traces(self):
        for m in range(2, 7):
            for L in range(2, 17, 2):
                basis = rsos.enumerate_heights(m, L)
                assert basis.dim == rsos.basis_count(m, L)

    def test_small_counts(self):
        assert rsos.enumerate_heights(4, 2).dim == 6
        assert rsos.enumerate_heights(4, 4).dim == 14

    def test_two_heights(self):
        for L in (2, 6, 10):
            assert rsos.enumerate_heights(2, L).dim == 2

    def test_odd_length_rejected_and_trace_zero(self):
        for m in (3, 4, 5):
            with pytest.raises(rsos.BasisError):
                rsos.enumerate_heights(m, 7)
            assert rsos.basis_count(m, 7) == 0

    def test_states_satisfy_constraint(self):
        basis = rsos.enumerate_heights(5, 6)
        diffs = np.abs(np.diff(np.column_stack([basis.states, basis.states[:, :1]]), axis=1))
        assert np.all(diffs == 1)

    def test_too_long_for_codes_rejected(self):
        with pytest.raises(rsos.BasisError):
            rsos.enumerate_heights(4, rsos.MAX_SITES + 1)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_open_paths_against_brute_force(self, m):
        # every height string where there are few, else every +-1 step
        # string from every first height; admissible ones, sorted as tuples
        for n in range(1, 13):
            if m ** n <= 10 ** 5:
                rows = list(itertools.product(range(1, m + 1), repeat=n))
                cand = np.array(rows, dtype=int).reshape(len(rows), n)
            else:
                steps = np.array(list(itertools.product((-1, 1), repeat=n - 1)))
                cand = np.concatenate([np.cumsum(np.column_stack(
                    [np.full(len(steps), a), steps]), axis=1) for a in range(1, m + 1)])
            ok = (np.all(np.abs(np.diff(cand, axis=1)) == 1, axis=1)
                  & np.all((cand >= 1) & (cand <= m), axis=1))
            want = sorted(map(tuple, cand[ok]))
            got = rsos._path_rows(rsos._open_codes(m, n), n)
            assert got.dtype == np.int8 and got.shape == (len(want), n)
            assert list(map(tuple, got.tolist())) == want
            codes = [path_code(row) for row in got]
            assert all(a < b for a, b in zip(codes, codes[1:]))

    @pytest.mark.parametrize("m,L", [(4, 8), (5, 8), (3, 6)])
    def test_path_code(self, m, L):
        # the inverse of _path_rows, and path_code's value on every window of every state
        for n in range(1, L + 1):
            codes = rsos._open_codes(m, n)
            assert same_bytes(rsos._path_code(rsos._path_rows(codes, n)), codes)
        basis = rsos.enumerate_heights(m, L)
        for start in range(L):
            rolled = np.roll(basis.states, -start, axis=1)
            for n in range(1, L + 1):
                want = [path_code(s) for s in rolled[:, :n]]
                assert rsos._path_code(rolled[:, :n]).tolist() == want
        # enumerate_heights seeds the whole-row codes with the encoder's values
        assert same_bytes(basis._row_codes, rsos._path_code(basis.states))
        assert np.all(np.diff(basis._row_codes) > 0)

    @pytest.mark.parametrize("m,L", [(2, 6), (4, 8), (6, 10)])
    def test_subpaths_are_prefixes_of_whole_paths(self, m, L):
        # reduced_density reads the n-height paths off one L-height enumeration
        basis = rsos.enumerate_heights(m, L)
        for n in range(1, L + 1):
            prefixes = np.unique(basis._path_codes >> (L - n))
            assert np.array_equal(prefixes, rsos._open_codes(m, n))

    def test_open_codes_built_once_per_basis(self, monkeypatch):
        # enumerate_heights filters the closed rows from the open paths' codes and
        # height rows, and keeps both for every later interval layout of the same basis
        calls, rows_calls = [], []
        real, real_rows = rsos._open_codes, rsos._path_rows

        def counted(m, n):
            calls.append((m, n))
            return real(m, n)

        def counted_rows(codes, n):
            rows_calls.append(n)
            return real_rows(codes, n)

        monkeypatch.setattr(rsos, "_open_codes", counted)
        monkeypatch.setattr(rsos, "_path_rows", counted_rows)
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 8)
        assert calls == [(4, 8)] and rows_calls == [8]
        assert np.array_equal(basis._path_codes, real(4, 8))
        assert same_bytes(basis._path_heights, real_rows(real(4, 8), 8))
        pair = rsos.select_state(H, basis, "ground")
        rsos.entropy_curve(4, 3, 8, 2, "ground", "bare", h_twist=-3 / 8, pair=pair, basis=basis)
        assert calls == [(4, 8)] and rows_calls == [8]
        assert rsos.enumerate_heights(4, 8)._path_codes is not basis._path_codes
        assert calls == [(4, 8), (4, 8)] and rows_calls == [8, 8]

    def test_dump_format(self):
        basis = rsos.enumerate_heights(3, 4)
        lines = basis.dump().strip().splitlines()
        assert len(lines) == basis.dim
        assert all(len(ln) == 4 and ln.isdigit() for ln in lines)


def row_index(states):
    """Row of each height string, keyed by its bytes."""
    return {row.tobytes(): t for t, row in enumerate(states)}


def path_code(row):
    """a_0 2^(n-1) + sum_t [a_{t+1} > a_t] 2^(n-2-t); 0 for the empty path."""
    n = len(row)
    return 0 if n == 0 else (int(row[0]) << (n - 1)) + sum(
        1 << (n - 2 - t) for t in range(n - 1) if row[t + 1] > row[t])


def loop_hamiltonian(m, k, L):
    """H = -sum_i e_i built one site, one state and one new height at a time."""
    basis = rsos.enumerate_heights(m, L)
    index = row_index(basis.states)
    lam = math.pi * k / (m + 1)
    w = [math.sin(lam * a) for a in range(m + 2)]
    symmetric = all(x > 0 for x in w[1:m + 1]) or all(x < 0 for x in w[1:m + 1])
    H = np.zeros((basis.dim, basis.dim))
    for i in range(L):
        for s_idx, s in enumerate(basis.states):
            b = int(s[i - 1])
            if s[(i + 1) % L] != b:
                continue
            a = int(s[i])
            for ap in (b - 1, b + 1):
                if 1 <= ap <= m:
                    t = s.copy()
                    t[i] = ap
                    val = math.sqrt(w[ap] * w[a]) / w[b] if symmetric else w[ap] / w[b]
                    H[index[t.tobytes()], s_idx] -= val
    return H


class TestTemperleyLieb:
    @pytest.mark.parametrize("m,k", [(4, 3), (4, 1), (6, 5)])
    @pytest.mark.parametrize("L", [6, 8, 10])
    def test_matches_loop_reference(self, m, k, L):
        H = rsos.build_rsos_hamiltonian(m, k, L)[0].toarray()
        ref = loop_hamiltonian(m, k, L)
        off = ~np.eye(len(H), dtype=bool)
        assert H[off].tobytes() == ref[off].tobytes()
        assert np.all(np.abs(np.diag(H) - np.diag(ref)) <= 1e-15 * np.abs(np.diag(ref)))

    @pytest.mark.parametrize("m,k", [(4, 3), (4, 1), (5, 1), (6, 5)])
    def test_relations(self, m, k):
        L = 6
        basis = rsos.enumerate_heights(m, L)
        es = [rsos.temperley_lieb_generator(basis, k, i).toarray() for i in range(L)]
        beta = 2 * math.cos(math.pi * k / (m + 1))
        for i in range(L):
            assert np.max(np.abs(es[i] @ es[i] - beta * es[i])) < 1e-12
            j = (i + 1) % L
            assert np.max(np.abs(es[i] @ es[j] @ es[i] - es[i])) < 1e-12
            assert np.max(np.abs(es[j] @ es[i] @ es[j] - es[j])) < 1e-12
            for j in range(L):
                if 2 <= abs(i - j) <= L - 2:
                    assert np.max(np.abs(es[i] @ es[j] - es[j] @ es[i])) < 1e-12

    def test_unitary_point_symmetric(self):
        H, _ = rsos.build_rsos_hamiltonian(4, 1, 6)
        assert np.max(np.abs((H - H.T).toarray())) < 1e-14

    def test_nonunitary_real(self):
        H, _ = rsos.build_rsos_hamiltonian(4, 3, 6)
        assert np.isrealobj(H.toarray())

    def test_singular_weights_rejected(self):
        with pytest.raises(rsos.SingularWeightError):
            rsos.build_rsos_hamiltonian(5, 2, 4)  # gcd(k, m+1) > 1: sin vanishes


def translation_operator(basis):
    """The translation by one site, a scipy.sparse CSR matrix."""
    dim = basis.dim
    return sp.csr_matrix((np.ones(dim), (basis._shift, np.arange(dim))), shape=(dim, dim))


def zero_momentum_projector(shift):
    """Orthonormal basis P of the zero-momentum sector, one column per orbit,
    as a scipy.sparse CSR matrix: P[s, orbit(s)] = 1/sqrt(|orbit|), with the
    orbits of ``rsos._orbits``, labelled by their smallest row."""
    orbit, size, _ = rsos._orbits(shift)
    return sp.csr_matrix((1.0 / np.sqrt(size[orbit]), (np.arange(len(orbit)), orbit)),
                         shape=(len(orbit), len(size)))


def full_eigensystem(H, basis, n_states):
    """Reference: the whole space solved densely, covectors as the rows of
    R^-1, each cluster of (near-)degenerate levels resolved into translation
    eigenstates.  Returns (pair, translation eigenvalue) by ascending Re E."""
    evals, R = np.linalg.eig(H.toarray())
    W = np.linalg.inv(R)
    T = translation_operator(basis)
    sel = np.argsort(evals.real)[: max(4 * n_states, 16)]
    out, done = [], set()
    for j in sel:
        if j in done:
            continue
        cluster = [i for i in sel if abs(evals[i] - evals[j]) < 1e-8]
        done.update(cluster)
        phases, tvec = np.linalg.eig(W[cluster] @ (T @ R[:, cluster]))
        Rc, Wc = R[:, cluster] @ tvec, np.linalg.inv(tvec) @ W[cluster]
        for t, i in enumerate(cluster):
            r, w = Rc[:, t], Wc[t]
            big = np.argmax(np.abs(r))
            ph = r[big] / abs(r[big])
            r, w = r / ph, w * ph
            e = complex(evals[i])
            if abs(e.imag) < 1e-9 and np.max(np.abs(r.imag)) < 1e-9 * np.max(np.abs(r.real)):
                r, w = r.real.astype(complex), w.real.astype(complex)
            out.append((rsos.EigenPair(energy=e, right=r, left=w / np.sum(w * r)),
                        complex(phases[t])))
    out.sort(key=lambda pp: pp[0].energy.real)
    return out[:n_states]


class TestEigensystem:
    def test_translation_commutes(self):
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 8)
        T = translation_operator(basis)
        assert abs(H @ T - T @ H).max() < 1e-12

    def test_pairs_check(self):
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 8)
        for p, _ in full_eigensystem(H, basis, 4):
            assert p.check(H)

    def test_pairs_check_at_L12(self):
        # after w r = 1 the covector is far longer than r; each residual is
        # judged relative to its own vector
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 12)
        for state in ("ground", "vacuum"):
            pair = rsos.select_state(H, basis, state)
            assert np.linalg.norm(pair.left) > 10 * np.linalg.norm(pair.right)
            assert pair.check(H)

    def test_check_rejects_scaled_covector(self):
        # |w r - 1| is one compensated sum, held to 1e-12 absolute
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 8)
        pair = rsos.select_state(H, basis, "ground")
        assert pair.check(H)
        scaled = rsos.EigenPair(pair.energy, pair.right, pair.left * (1 + 1e-11))
        assert not scaled.check(H)

    def test_biorthonormality(self):
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 8)
        pairs = [p for p, _ in full_eigensystem(H, basis, 6)]
        for i, pi in enumerate(pairs):
            for j, pj in enumerate(pairs):
                if abs(pi.energy - pj.energy) > 1e-8:
                    assert abs(pi.left @ pj.right) < 1e-8

    def test_unitary_left_equals_right(self):
        H, basis = rsos.build_rsos_hamiltonian(4, 1, 8)
        p = full_eigensystem(H, basis, 3)[0][0]
        r = p.right / np.linalg.norm(p.right)
        w = p.left / np.linalg.norm(p.left)
        assert min(np.max(np.abs(w - r)), np.max(np.abs(w + r))) < 1e-8

    def test_state_identification(self):
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 10)
        g = rsos.select_state(H, basis, "ground")
        v = rsos.select_state(H, basis, "vacuum")
        assert g.energy.real < v.energy.real
        T = translation_operator(basis)
        for p in (g, v):
            assert np.max(np.abs(T @ p.right - p.right)) < 1e-8 * np.max(np.abs(p.right))
        # conformal gap ratio (x_1 - x_phi)/(x_dphi - x_phi) -> (2/5)/1
        e_dphi = min(p.energy.real for p, phase in full_eigensystem(H, basis, 8)
                     if abs(phase - np.exp(2j * np.pi / 10)) < 1e-6)
        ratio = (v.energy.real - g.energy.real) / (e_dphi - g.energy.real)
        assert abs(ratio - 0.4) < 0.05

    def test_dense_vs_iterative(self):
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 10)  # dim 246: dense path
        dense = [p for p, _ in full_eigensystem(H, basis, 4)]
        import scipy.sparse.linalg as spla
        ev = np.sort_complex(spla.eigs(H, k=8, which="SR", tol=0)[0])
        lowest = sorted(set(np.round(e.real, 9) for e in ev))[:2]
        assert abs(dense[0].energy.real - lowest[0]) < 1e-9
        assert abs(lowest[1] - dense[2].energy.real) < 1e-9

    def test_spectrum_conjugation_closed(self):
        H, _ = rsos.build_rsos_hamiltonian(4, 3, 8)
        ev = np.linalg.eigvals(H.toarray())
        for e in ev:
            assert np.min(np.abs(ev - e.conjugate())) < 1e-8


class TestSectorSolve:
    """The zero-momentum solve against the full dense solve."""

    def test_projector_orbits(self):
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 8)
        index = row_index(basis.states)
        shift = [index[np.roll(s, 1).tobytes()] for s in basis.states]
        P = zero_momentum_projector(np.array(shift))
        T = translation_operator(basis)
        orbits = {min(tuple(np.roll(s, t)) for t in range(8)) for s in basis.states}
        assert P.shape == (basis.dim, len(orbits))
        assert abs(P.T @ P - np.eye(len(orbits))).max() < 1e-15
        assert abs(T @ P - P).max() == 0.0

    # the chain below and above h_c (0.097, 0.060, 0.046 at L = 4, 6, 8),
    # and a dense copy of the RSOS H
    @pytest.mark.parametrize("case", [(L, h) for L in (4, 6, 8) for h in (0.02, 0.2)]
                             + ["rsos"], ids=lambda c: c if c == "rsos" else "chain-%d-%g" % c)
    def test_dense_sector_matches_projector(self, case):
        # the orbit-representative block against the sparse projector product
        if case == "rsos":
            H, basis = rsos.build_rsos_hamiltonian(4, 3, 8)
            H, shift = H.toarray(), basis._shift
        else:
            H = ylc.ising_imaginary_chain(0.8, case[1], case[0])
            shift = ylc._rotation(H)
        P = zero_momentum_projector(shift)
        want = np.asarray((P.T @ H) @ P)
        got, orbit, p = rsos.sector_matrix(H, shift)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert P.nnz == len(shift)
        assert np.array_equal(P.toarray()[np.arange(len(shift)), orbit], p)

    def test_sector_limit_raises_before_eigensolve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("eigensolve reached")

        monkeypatch.setattr(np.linalg, "eig", no_solve)
        monkeypatch.setattr(np.linalg, "eigvals", no_solve)
        monkeypatch.setattr(rsos, "SECTOR_LIMIT", 35)
        H = ylc.ising_imaginary_chain(0.8, 0.02, 8)             # 36 orbits
        H_rsos, basis = rsos.build_rsos_hamiltonian(4, 3, 12)   # 60 orbits
        for h, shift in ((H, ylc._rotation(H)), (H_rsos, basis._shift)):
            with pytest.raises(rsos.SizeError):
                rsos.sector_matrix(h, shift)
            with pytest.raises(rsos.SizeError):
                rsos.eigensystem(h, shift)
        with pytest.raises(rsos.SizeError):
            ylc.lowest_levels(H)

        # the four (reflection, flip) blocks at L = 12 hold 26, 5, 21 and 8
        # classes: the largest is refused before np.bincount fills any block
        def no_fill(*args, **kwargs):
            raise AssertionError("block filled")

        monkeypatch.setattr(rsos, "SECTOR_LIMIT", 25)
        monkeypatch.setattr(np, "bincount", no_fill)
        for which in ("ground", "vacuum"):
            with pytest.raises(rsos.SizeError):
                rsos.select_state(H_rsos, basis, which)

    def test_size_guard_runs_before_the_basis(self, monkeypatch):
        # 542886 states at L = 26: the trivial block holds at least 542886 / (4 L) > 4000
        # classes, while L = 24 (207364 states, 2359 classes) passes the guard
        def no_basis(*args):
            raise AssertionError("basis enumerated")

        monkeypatch.setattr(rsos, "enumerate_heights", no_basis)
        with pytest.raises(rsos.SizeError):
            rsos.build_rsos_hamiltonian(4, 3, 26)
        with pytest.raises(AssertionError, match="basis enumerated"):
            rsos.build_rsos_hamiltonian(4, 3, 24)

    @pytest.mark.parametrize("L", [8, 10, 12])
    def test_matches_full_solve(self, L):
        H, basis = rsos.build_rsos_hamiltonian(4, 3, L)
        full = [p for p, phase in full_eigensystem(H, basis, 48)
                if abs(phase - 1) < 1e-6 and abs(p.energy.imag) < 1e-8]
        for which, ref in zip(("ground", "vacuum"), full):
            pair = rsos.select_state(H, basis, which)
            assert abs(pair.energy - ref.energy) < 1e-10
            for N, insertion in ((2, 3), (3, "bare")):
                got, want = (rsos.entropy_curve(4, 3, L, N, which, insertion, 0.0,
                                                pair=p, basis=basis)["trace"]
                             for p in (pair, ref))
                assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8

    def test_pairs_check_at_L16(self, yl_chain_16):
        for state in ("ground", "vacuum"):
            assert yl_chain_16[state].check(yl_chain_16["H"])

    @pytest.mark.parametrize("m,k", [(4, 3), (4, 1)])
    @pytest.mark.parametrize("L", [8, 10])
    def test_covectors_biorthonormal(self, m, k, L):
        # W = R^-1 makes [w_i r_j] the identity across all returned pairs,
        # degenerate partners included (the sector of (4,3) has no complex
        # levels at these sizes; the chain test covers conjugate pairs)
        H, basis = rsos.build_rsos_hamiltonian(m, k, L)
        pairs = rsos.eigensystem(H.toarray(), basis._shift, n_states=12)
        assert len(pairs) == 12
        if k == 3:
            assert np.min(np.abs(np.diff([p.energy for p in pairs]))) < 1e-8
        G = np.array([[pi.left @ pj.right for pj in pairs] for pi in pairs])
        assert np.max(np.abs(G - np.eye(12))) < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_jordan_block_rejected(self, n):
        # n = 2: R^-1 exists but is huge; n = 3: eig returns a singular R
        with pytest.raises(rsos.DefectivePairError):
            rsos.eigensystem(np.eye(n, k=1), np.arange(n), n_states=n)

    def test_corrupted_covector_rejected(self, monkeypatch):
        # scaling the columns of R^-1 unevenly keeps every w r finite but
        # makes each row a poor left eigenvector
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: inv(a) * (1 + 1e-6 * np.arange(len(a))))
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 8)
        with pytest.raises(rsos.DefectivePairError):
            rsos.eigensystem(H.toarray(), basis._shift, n_states=4)
        with pytest.raises(rsos.DefectivePairError):
            rsos.select_state(H, basis, "ground")

    @pytest.mark.parametrize("n,want", [
        # block 0's 1.0 lies below every level of block 3, but not among its
        # own two lowest
        (2, [(0.0, 0), (0.5, 0)]),
        # ties at 0.5 and at 1.0 in block order
        (3, [(0.0, 0), (0.5, 0), (0.5, 2)]),
        (5, [(0.0, 0), (0.5, 0), (0.5, 2), (1.0, 0), (1.0, 1)]),
        # more than the eleven levels: all of them
        (20, [(0.0, 0), (0.5, 0), (0.5, 2), (1.0, 0), (1.0, 1), (1.5, 3), (2.0, 1),
              (3.0, 0), (7.0, 1), (8.0, 3), (9.0, 2)]),
    ])
    def test_level_selection_on_diagonal_blocks(self, n, want):
        diagonals = [[3.0, 0.0, 1.0, 0.5], [1.0, 7.0, 2.0], [0.5, 9.0], [1.5, 8.0]]
        blocks = [(np.diag(d), np.arange(len(d)), np.ones(len(d))) for d in diagonals]
        levels = rsos._solve_levels(blocks, n)
        assert [(float(e.real), b) for e, b, _, _ in levels] == want
        for energy, b, r, w in levels:
            i = diagonals[b].index(energy.real)
            assert np.array_equal(np.abs(r), np.eye(len(diagonals[b]))[i])
            assert w @ r == 1.0
            assert r.base is None and w.base is None     # copies, not views of R and W


def flip_rows(basis):
    """Row of the height flip a -> m + 1 - a of each state."""
    index = row_index(basis.states)
    return np.array([index[(basis.m + 1 - s).tobytes()] for s in basis.states])


def oracle_states(H, basis):
    """Ground and vacuum from the single zero-momentum block of the dense H."""
    pairs = rsos.eigensystem(H.toarray(), basis._shift, 12)
    ground, vacuum = [p for p in pairs if abs(p.energy.imag) < 1e-8][:2]
    return {"ground": ground, "vacuum": vacuum}


PARITY_MODELS = [(4, 3), (4, 1), (5, 1), (3, 3), (6, 4)]


class TestParityBlocks:
    """The four (reflection, flip) blocks against the single zero-momentum
    block, which assumes no symmetry beyond the translation."""

    @pytest.mark.parametrize("L", [8, 10, 12])
    @pytest.mark.parametrize("m,k", PARITY_MODELS)
    def test_states_match_single_block(self, m, k, L):
        H, basis = rsos.build_rsos_hamiltonian(m, k, L)
        oracle = oracle_states(H, basis)
        for which, ref in oracle.items():
            pair = rsos.select_state(H, basis, which)
            assert abs(pair.energy - ref.energy) < 1e-10
            assert pair.check(H)
            for N, insertion in ((2, 1), (3, "bare")):
                got, want = (rsos.entropy_curve(m, k, L, N, which, insertion, 0.0,
                                                pair=p, basis=basis)["trace"]
                             for p in (pair, ref))
                assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8

    @pytest.mark.parametrize("m,k,L", [(4, 3, 10), (4, 1, 10), (5, 1, 8), (3, 3, 10),
                                       (6, 4, 8)])
    def test_blocks_hold_the_whole_sector(self, m, k, L):
        # every level of the single block, not only the lowest, is a level
        # of exactly one of the non-empty blocks (two of them at m = 3)
        H, basis = rsos.build_rsos_hamiltonian(m, k, L)
        blocks = rsos.sector_blocks(H, basis)
        want = np.linalg.eigvals(rsos.sector_matrix(H.toarray(), basis._shift)[0])
        got = np.concatenate([np.linalg.eigvals(Hs) for Hs, *_ in blocks])
        assert len(got) == len(want)
        for e in want:
            assert np.min(np.abs(got - e)) < 1e-9 * max(1.0, abs(e))
        for Hs, index, p in blocks:
            assert np.all(np.abs(np.bincount(index[p != 0], p[p != 0] ** 2) - 1) < 1e-14)

    @pytest.mark.parametrize("m,k", [(4, 1), (5, 1)])
    @pytest.mark.parametrize("L", [8, 10, 12])
    def test_flip_odd_vacuum(self, m, k, L):
        # a dropped flip-odd block would lose these vacua
        H, basis = rsos.build_rsos_hamiltonian(m, k, L)
        v = rsos.select_state(H, basis, "vacuum")
        flip = flip_rows(basis)
        assert np.max(np.abs(v.right[flip] + v.right)) < 1e-12 * np.max(np.abs(v.right))
        assert np.max(np.abs(v.left[flip] + v.left)) < 1e-12 * np.max(np.abs(v.left))
        assert abs(v.energy - oracle_states(H, basis)["vacuum"].energy) < 1e-10

    def test_pairs_biorthonormal_across_blocks(self):
        # the 12 merged pairs of (4,3), L = 10, degenerate partners included
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 10)
        pairs = rsos.sector_pairs(rsos.sector_blocks(H, basis), 12)
        assert len(pairs) == 12
        assert np.all(np.diff([p.energy.real for p in pairs]) >= 0)
        G = np.array([[pi.left @ pj.right for pj in pairs] for pi in pairs])
        assert np.max(np.abs(G - np.eye(12))) < 1e-10


def same_pair(a, b):
    return (a.energy == b.energy and np.array_equal(a.right, b.right)
            and np.array_equal(a.left, b.left))


class TestSolveMemo:
    """``select_state`` solves the blocks of one H once per basis and expands
    only the pair it returns."""

    @pytest.mark.parametrize("m,k,L", [(4, 3, L) for L in (8, 10, 12, 14)]
                             + [(m, k, L) for m, k in PARITY_MODELS[1:] for L in (8, 10, 12)]
                             + [(6, 5, 10)])
    def test_pairs_are_the_full_expansion(self, m, k, L):
        # the flip-odd vacua of (4,1) and (5,1) among them
        H, basis = rsos.build_rsos_hamiltonian(m, k, L)
        pairs = rsos.sector_pairs(rsos.sector_blocks(H, basis), 12)
        real = [p for p in pairs if abs(p.energy.imag) < 1e-8]
        for which, want in zip(("ground", "vacuum", "ground"), real[:2] + real[:1]):
            assert same_pair(rsos.select_state(H, basis, which), want)

    def test_one_solve_per_block(self, monkeypatch):
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 12)
        for which in ("ground", "vacuum", "ground"):
            rsos.select_state(H, basis, which)
        assert calls == [(26, 26), (5, 5), (21, 21), (8, 8)]

    def test_another_hamiltonian_solves_again(self):
        # enumerate_heights does not depend on k: the (4,1) H fits the (4,3) basis
        H3, basis = rsos.build_rsos_hamiltonian(4, 3, 12)
        H1, own = rsos.build_rsos_hamiltonian(4, 1, 12)
        for which in ("ground", "vacuum"):
            want3 = rsos.select_state(H3, basis, which)
            assert same_pair(rsos.select_state(H1, basis, which),
                             rsos.select_state(H1, own, which))
            assert same_pair(rsos.select_state(H3, basis, which), want3)

    def test_returned_pairs_are_fresh(self):
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 10)
        first = rsos.select_state(H, basis, "vacuum")
        right, left = first.right.copy(), first.left.copy()
        first.right[:] = 7.0
        first.left *= 2.0
        again = rsos.select_state(H, basis, "vacuum")
        assert np.array_equal(again.right, right) and np.array_equal(again.left, left)

    @staticmethod
    def counted_blocks(monkeypatch):
        calls = []
        build = rsos.sector_blocks
        monkeypatch.setattr(rsos, "sector_blocks", lambda *a: calls.append(a) or build(*a))
        return calls

    def test_hit_builds_no_blocks(self, monkeypatch):
        calls = self.counted_blocks(monkeypatch)
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 12)
        for which in ("ground", "vacuum", "ground"):
            rsos.select_state(H, basis, which)
        assert len(calls) == 1

    def test_data_changed_in_place_solves_again(self, monkeypatch):
        # the key is a kept copy of H's arrays, not a reference to them
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 10)
        first = rsos.select_state(H, basis, "ground")
        H.data *= 2.0
        want = rsos.select_state(H.copy(), rsos.build_rsos_hamiltonian(4, 3, 10)[1], "ground")
        assert abs(want.energy - 2.0 * first.energy) < 1e-12 * abs(want.energy)
        calls = self.counted_blocks(monkeypatch)
        assert same_pair(rsos.select_state(H, basis, "ground"), want)
        assert len(calls) == 1

    def test_same_bytes_of_another_dtype_miss(self, monkeypatch):
        class Rebuilt(Exception):
            pass

        H, basis = rsos.build_rsos_hamiltonian(4, 3, 10)
        rsos.select_state(H, basis, "ground")
        same_bytes = sp.csr_matrix((H.data.view(np.int64), H.indices, H.indptr), shape=H.shape)

        def rebuilt(*args):
            raise Rebuilt

        monkeypatch.setattr(rsos, "sector_blocks", rebuilt)
        with pytest.raises(Rebuilt):
            rsos.select_state(same_bytes, basis, "ground")

    def test_csc_copy_hits(self, monkeypatch):
        H, basis = rsos.build_rsos_hamiltonian(4, 3, 12)
        want = [rsos.select_state(H, basis, which) for which in ("ground", "vacuum")]
        calls = self.counted_blocks(monkeypatch)
        got = [rsos.select_state(H.tocsc(), basis, which) for which in ("ground", "vacuum")]
        assert calls == [] and all(map(same_pair, got, want))

    def test_missing_vacuum_raises_every_call(self):
        H, basis = rsos.build_rsos_hamiltonian(2, 1, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="no vacuum state"):
                rsos.select_state(H, basis, "vacuum")
            assert abs(rsos.select_state(H, basis, "ground").energy.imag) < 1e-8


@pytest.fixture(scope="module")
def chain_10():
    H, basis = rsos.build_rsos_hamiltonian(4, 3, 10)
    g = rsos.select_state(H, basis, "ground")
    return basis, g


class TestReducedDensity:
    @pytest.fixture()
    def setup(self, chain_10):
        return chain_10

    def test_trace_one(self, setup):
        basis, g = setup
        for j in (1, 4, 8):
            rd = rsos.reduced_density(basis, g, 0, j)
            assert abs(np.trace(rd.matrix) - 1.0) < 1e-12

    def test_block_structure(self, setup):
        basis, g = setup
        rd = rsos.reduced_density(basis, g, 0, 4)
        off = ((rd.block_labels[:, None, 0] != rd.block_labels[None, :, 0])
               | (rd.block_labels[:, None, 1] != rd.block_labels[None, :, 1]))
        assert np.max(np.abs(rd.matrix[off])) == 0.0

    def test_single_site_diagonal(self, setup):
        basis, g = setup
        rd = rsos.reduced_density(basis, g, 0, 0)
        offdiag = rd.matrix - np.diag(np.diag(rd.matrix))
        assert np.max(np.abs(offdiag)) == 0.0

    def test_unitary_point_psd(self):
        H, basis = rsos.build_rsos_hamiltonian(4, 1, 8)
        g = rsos.select_state(H, basis, "ground")
        rd = rsos.reduced_density(basis, g, 0, 3)
        evals = np.linalg.eigvalsh((rd.matrix + rd.matrix.conj().T).real / 2)
        assert evals.min() > -1e-12
        assert evals.max() < 1.0 + 1e-12

    def test_power_versus_eigenvalues(self, setup):
        basis, g = setup
        rd = rsos.reduced_density(basis, g, 0, 4)
        ev = np.linalg.eigvals(rd.matrix)
        t3 = np.trace(np.linalg.matrix_power(rd.matrix, 3))
        assert abs(t3 - np.sum(ev**3)) < 1e-10


def dense_reduced_density(basis, pair, sub, i, j):
    """Reference rho_A: accumulated one environment path at a time, then
    projected onto equal boundary heights."""
    L = basis.L
    cols = [(i + t) % L for t in range(len(sub[0]))]
    env_cols = [c for c in range(L) if c not in cols]
    sub_index = {row.tobytes(): t for t, row in enumerate(sub)}
    groups = {}
    for s_idx, s in enumerate(basis.states):
        groups.setdefault(s[env_cols].tobytes(), []).append(
            (sub_index[s[cols].tobytes()], s_idx))
    rho = np.zeros((len(sub), len(sub)), dtype=complex)
    for members in groups.values():
        subs, idxs = (np.array(v) for v in zip(*members))
        rho[np.ix_(subs, subs)] += np.outer(pair.right[idxs], pair.left[idxs])
    labels = np.column_stack([sub[:, 0], sub[:, -1]])
    rho[~(labels[:, None, :] == labels[None, :, :]).all(axis=2)] = 0.0
    return rho, labels


def dense_trace(rho, labels, N, insertion, m=4, k=3):
    """Tr(D rho^N) from the N-th matrix power."""
    if insertion == "bare":
        d = np.ones(len(labels))
    else:
        wq = rsos.twist_weights(m, k, insertion, N)
        d = wq[labels[:, 0]] * wq[labels[:, 1]]
    return np.sum(d * np.diag(np.linalg.matrix_power(rho, N)))


def whole_chain_trace(basis, pair, i, j, N, insertion, m, k):
    """Tr(D rho_A^N) at ell = L - 1, summed exactly: each block's Gram matrix
    is the scalar c_B = sum_{s in B} w_s r_s, B = (a_i, a_j)."""
    assert not pair.right.imag.any() and not pair.left.imag.any()
    c = {}
    for s, r, w in zip(basis.states, pair.right.real, pair.left.real):
        key = (int(s[i]), int(s[j]))
        c[key] = c.get(key, 0) + Fraction(float(w)) * Fraction(float(r))
    wq = np.ones(m + 1) if insertion == "bare" else rsos.twist_weights(m, k, insertion, N)
    return float(sum(Fraction(float(wq[a] * wq[b])) * cb ** N for (a, b), cb in c.items()))


@pytest.fixture(scope="module")
def chain_8():
    H, basis = rsos.build_rsos_hamiltonian(4, 3, 8)
    return basis, {w: rsos.select_state(H, basis, w) for w in ("ground", "vacuum")}


@pytest.fixture(scope="module")
def larger_chains():
    cache = {}

    def get(m, k, L):
        if (m, k, L) not in cache:
            H, basis = rsos.build_rsos_hamiltonian(m, k, L)
            cache[m, k, L] = basis, {w: rsos.select_state(H, basis, w)
                                     for w in ("ground", "vacuum")}
        return cache[m, k, L]
    return get


class TestBlockFactors:
    """Block-factored rho_A against the dense construction, on intervals the
    curve sweep (i = 0) does not reach: wrap-around, i != 0, the whole chain."""

    @pytest.mark.parametrize("which", ["ground", "vacuum"])
    @pytest.mark.parametrize("i,j", [(5, 2), (3, 3), (2, 5), (0, 7), (7, 6)])
    def test_matches_dense_loop(self, chain_8, which, i, j):
        basis, pairs = chain_8
        rd = rsos.reduced_density(basis, pairs[which], i, j)
        rho, labels = dense_reduced_density(basis, pairs[which], rd.sub_states, i, j)
        assert np.array_equal(rd.block_labels, labels)
        assert np.max(np.abs(rd.matrix - rho)) < 1e-13 * np.max(np.abs(rho))
        assert abs(np.trace(rd.matrix) - 1.0) < 1e-12
        for N in (2, 3):
            for insertion in (1, 3, "bare"):
                got, _ = rsos.renyi_twisted(rd, N, 4, 3, insertion)
                want = dense_trace(rho, labels, N, insertion)
                assert abs(got - want) < 1e-10 * abs(want)

    @pytest.mark.parametrize("m,k,L", [(4, 3, 12), (6, 5, 10)])
    @pytest.mark.parametrize("which", ["ground", "vacuum"])
    def test_larger_chains_match_dense_loop(self, larger_chains, m, k, L, which):
        basis, pairs = larger_chains(m, k, L)
        # i != 0, wrap-around, a single site, ell = L - 1 from 0 and wrapped
        for i, j in [(2, 7), (L - 3, 2), (4, 4), (0, L - 1), (5, 4)]:
            rd = rsos.reduced_density(basis, pairs[which], i, j)
            rho, labels = dense_reduced_density(basis, pairs[which], rd.sub_states, i, j)
            assert np.array_equal(rd.block_labels, labels)
            assert np.max(np.abs(rd.matrix - rho)) < 1e-13 * np.max(np.abs(rho))
            for N, insertion in ((2, 3), (3, "bare")):
                got, _ = rsos.renyi_twisted(rd, N, m, k, insertion)
                if (j - i) % L == L - 1:
                    # rho's entries reach 600 times its trace here, and the
                    # dense N-th power is off by up to 1.5e-8 at (6, 5)
                    want = whole_chain_trace(basis, pairs[which], i, j, N, insertion, m, k)
                else:
                    want = dense_trace(rho, labels, N, insertion, m, k)
                assert abs(got - want) < 1e-10 * abs(want)

    @pytest.mark.parametrize("i,j", [(0, 4), (6, 1), (3, 3), (0, 9), (5, 4)])
    def test_block_shapes_are_path_counts(self, larger_chains, i, j):
        # rows: the subsystem paths with the block's boundary heights;
        # columns: the environment paths that occur beside them
        basis, pairs = larger_chains(6, 5, 10)
        rd = rsos.reduced_density(basis, pairs["ground"], i, j)
        L = basis.L
        env_cols = [(j + 1 + t) % L for t in range((i - j - 1) % L)]
        envs = {}
        for s in basis.states:
            envs.setdefault((int(s[i]), int(s[j])), set()).add(s[env_cols].tobytes())
        assert [blk.label for blk in rd.blocks] == sorted(envs)
        for blk in rd.blocks:
            n_rows = np.sum(np.all(rd.block_labels == blk.label, axis=1))
            assert blk.right.shape == blk.left.shape == (n_rows, len(envs[blk.label]))
            assert np.array_equal(blk.rows, np.flatnonzero(np.all(rd.block_labels == blk.label,
                                                                  axis=1)))

    def test_missing_state_breaks_the_product(self, chain_8):
        basis, pairs = chain_8
        cut = rsos.HeightBasis(basis.m, basis.L, basis.states[1:])
        pair = rsos.EigenPair(0j, pairs["ground"].right[1:], pairs["ground"].left[1:])
        with pytest.raises(rsos.BasisError, match="product"):
            rsos.reduced_density(cut, pair, 0, 3)

    def test_whole_chain_is_exact_block_sum(self):
        # at ell = L - 1 each block's Gram matrix is the scalar
        # c_B = sum_{s in B} w_s r_s, B = (a_0, a_{L-1}); w r cancels about
        # 1e4-fold, so a product of whole blocks loses digits here
        L = 14
        H, basis = rsos.build_rsos_hamiltonian(4, 3, L)
        v = rsos.select_state(H, basis, "vacuum")
        assert not v.right.imag.any() and not v.left.imag.any()
        c = {}
        for s, r, w in zip(basis.states, v.right.real, v.left.real):
            key = (s[0], s[-1])
            c[key] = c.get(key, 0) + Fraction(float(w)) * Fraction(float(r))
        exact = float(sum(cb ** 3 for cb in c.values()))
        tr = rsos.entropy_curve(4, 3, L, 3, "vacuum", "bare", 0.0,
                                pair=v, basis=basis)["trace"]
        assert abs(tr[-1] - exact) < 1e-12 * abs(exact)
        assert np.max(np.abs(tr.real - tr.real[::-1])) < 1e-12 * np.max(np.abs(tr.real))


def sorted_reduced_density(basis, pair, i, j):
    """Reference rho_A: every interval sorted afresh by the full key (a_i, a_j,
    subsystem heights, environment heights), the heights by their lexicographic
    rank from np.unique; distinct prefixes by np.unique."""
    m, L = basis.m, basis.L
    sites, i, j = (i, j), i % L, j % L
    n_sub = (j - i) % L + 1
    n_env = L - n_sub
    sub = rsos._path_rows(np.unique(basis._path_codes >> (L - n_sub)), n_sub)
    sub_label = sub[:, 0].astype(np.int64) * (m + 1) + sub[:, -1]
    label = basis.states[:, i].astype(np.int64) * (m + 1) + basis.states[:, j]
    # the heights from site i on, subsystem then environment: as the subsystem
    # has n_sub heights in every state, their rank orders by (subsystem, environment)
    window = basis.states[:, (i + np.arange(L)) % L]
    rank = np.unique(window, axis=0, return_inverse=True)[1].ravel()
    assert len(np.unique(rank)) == basis.dim
    order = np.lexsort((rank, label))
    starts = np.flatnonzero(np.r_[True, np.diff(label[order]) != 0])
    n_envs = np.linalg.matrix_power(rsos.adjacency_matrix(m), n_env + 1)
    blocks = []
    for lab, idx in zip(label[order[starts]], np.split(order, starts[1:])):
        ai, aj = divmod(int(lab), m + 1)
        rows = np.flatnonzero(sub_label == lab)
        shape = (len(rows), int(n_envs[aj - 1, ai - 1]))
        assert shape[0] * shape[1] == len(idx)
        blocks.append(rsos.DensityBlock((ai, aj), rows, pair.right[idx].reshape(shape),
                                        pair.left[idx].reshape(shape)))
    return rsos.ReducedDensity(sites=sites, sub_states=sub,
                               block_labels=np.column_stack([sub[:, 0], sub[:, -1]]),
                               blocks=blocks)


def distinct_pair(dim):
    """A pair with an entry of its own per state, unlike the zero-momentum
    eigenpairs, whose entries repeat on every rotation of a state."""
    ramp = np.arange(dim, dtype=complex)
    return rsos.EigenPair(0j, ramp + 1, 1j * ramp[::-1])


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_density(got, want):
    assert got.sites == want.sites
    assert same_bytes(got.sub_states, want.sub_states)
    assert same_bytes(got.block_labels, want.block_labels)
    assert len(got.blocks) == len(want.blocks)
    for g, w in zip(got.blocks, want.blocks):
        assert g.label == w.label and all(type(a) is int for a in g.label)
        for field in ("rows", "right", "left"):
            assert same_bytes(getattr(g, field), getattr(w, field)), field


class TestIntervalLayout:
    """``reduced_density`` lays the first n sites out once per basis and n, and
    translates that layout for other starts; every call, first or repeated, on
    any state, from any site, is bitwise the full-key sort's."""

    @pytest.mark.parametrize("m,k,L", [(4, 3, 8), (4, 3, 10), (4, 3, 12), (4, 3, 14),
                                       (6, 5, 10)])
    def test_every_interval_matches_the_sorted_oracle(self, larger_chains, m, k, L):
        solved, pairs = larger_chains(m, k, L)
        # the eigenpairs have zero momentum, the same entry on every rotation of a
        # state, so only a pair with an entry of its own per state sees a layout
        # translated the wrong way
        ramp = np.arange(solved.dim, dtype=complex)
        pairs = dict(pairs, distinct=rsos.EigenPair(0j, ramp + 1, 1j * ramp[::-1]))
        # a fresh basis: the ground pair lays each interval out, the others reuse it
        basis = rsos.HeightBasis(m, L, solved.states)
        for i in range(L):
            for j in range(L):
                for which in pairs:
                    assert_same_density(rsos.reduced_density(basis, pairs[which], i, j),
                                        sorted_reduced_density(basis, pairs[which], i, j))
        assert sorted(basis._layouts) == list(range(1, L + 1))
        # i and j are taken mod L, and the sites are kept as given
        assert_same_density(rsos.reduced_density(basis, pairs["ground"], L + 2, -1),
                            sorted_reduced_density(basis, pairs["ground"], L + 2, -1))
        assert len(basis._layouts) == L

    def test_second_sweep_is_bitwise_the_first(self, larger_chains):
        solved, pairs = larger_chains(4, 3, 12)
        basis = rsos.HeightBasis(4, 12, solved.states)
        for N, insertion in ((2, 3), (3, "bare")):
            first, second = (rsos.entropy_curve(4, 3, 12, N, "vacuum", insertion, 0.1,
                                                pair=pairs["vacuum"], basis=basis)
                             for _ in range(2))
            fresh = rsos.entropy_curve(4, 3, 12, N, "vacuum", insertion, 0.1,
                                       pair=pairs["vacuum"],
                                       basis=rsos.HeightBasis(4, 12, solved.states))
            for col in ("ell", "trace", "entropy", "rescaled"):
                assert same_bytes(first[col], second[col]) and same_bytes(first[col], fresh[col])

    @pytest.mark.parametrize("N", [2, 3])
    def test_translated_traces_match_dense(self, larger_chains, N):
        # the ramp pair has an entry of its own per state, so a layout that is not
        # translated to start i gives another rho_A and other traces
        solved, _ = larger_chains(4, 3, 10)
        pair = distinct_pair(solved.dim)
        for i in range(10):
            for j in range(10):
                rd = rsos.reduced_density(solved, pair, i, j)
                want_rd = sorted_reduced_density(solved, pair, i, j)
                for insertion in (3, "bare"):
                    got, _ = rsos.renyi_twisted(rd, N, 4, 3, insertion)
                    want = dense_trace(want_rd.matrix, want_rd.block_labels, N, insertion)
                    assert abs(got - want) < 1e-12 * abs(want)

    def test_shared_arrays_are_read_only(self, larger_chains):
        solved, pairs = larger_chains(4, 3, 12)
        rd = rsos.reduced_density(solved, pairs["ground"], 0, 5)
        with pytest.raises(ValueError):
            rd.sub_states[0, 0] = 1
        with pytest.raises(ValueError):
            rd.blocks[0].rows[0] = 1
        with pytest.raises(ValueError):
            rd.block_labels[0, 0] = 1
        again = rsos.reduced_density(solved, pairs["vacuum"], 0, 5)
        assert again.sub_states is rd.sub_states and again.blocks[0].rows is rd.blocks[0].rows


KERNEL_MODELS = [(4, 3, 8), (4, 3, 10), (4, 3, 12), (4, 3, 14), (6, 5, 10), (4, 1, 12)]


class TestTraceKernel:
    """``renyi_twisted`` takes each block shape's traces in one stacked call;
    every trace, entropy and curve column is bitwise the per-block reference's.
    N - 1 >= 4 takes matrix_power's binary path."""

    @pytest.mark.parametrize("m,k,L", KERNEL_MODELS)
    def test_traces_are_bitwise_the_per_block_reference(self, larger_chains, m, k, L):
        basis, pairs = larger_chains(m, k, L)
        for pair in (pairs["ground"], pairs["vacuum"], distinct_pair(basis.dim)):
            for i in (0, 3):
                for n_sub in range(1, L + 1):
                    rd = rsos.reduced_density(basis, pair, i, i + n_sub - 1)
                    for N in (2, 3, 4, 5, 9):
                        for insertion in (3, (1, 3), "bare"):
                            assert same_bytes(rsos.renyi_twisted(rd, N, m, k, insertion),
                                              renyi_reference(rd, N, m, k, insertion))

    @pytest.mark.parametrize("m,k,L", KERNEL_MODELS)
    def test_curves_are_bitwise_the_per_block_reference(self, larger_chains, m, k, L):
        basis, pairs = larger_chains(m, k, L)
        for which in ("ground", "vacuum"):
            for N, insertion in ((2, 3), (4, "bare"), (9, 3)):
                curve = rsos.entropy_curve(m, k, L, N, which, insertion, -0.3,
                                           pair=pairs[which], basis=basis)
                trace, entropy = (np.array(col) for col in zip(*(
                    renyi_reference(rsos.reduced_density(basis, pairs[which], 0, e),
                                    N, m, k, insertion) for e in range(1, L))))
                assert same_bytes(curve["trace"], trace)
                assert same_bytes(curve["entropy"], entropy)
                assert same_bytes(curve["rescaled"], trace * L ** (4 * -0.3))

    def test_blocks_are_views_of_the_shape_groups(self, larger_chains):
        basis, pairs = larger_chains(4, 3, 14)
        rd = rsos.reduced_density(basis, pairs["vacuum"], 0, 6)
        # (a_0, a_6) blocks of three shapes, each group one stack of the gathered r and w
        assert sorted(R.shape for _, R, _ in rd.groups) == [(2, 5, 13), (2, 13, 34), (4, 8, 21)]
        assert sorted(b for numbers, _, _ in rd.groups for b in numbers) == list(range(8))
        for numbers, R, W in rd.groups:
            for t, b in enumerate(numbers):
                assert rd.blocks[b].right.shape == R.shape[1:]
                assert np.shares_memory(rd.blocks[b].right, R[t])
                assert np.shares_memory(rd.blocks[b].left, W[t])

    @pytest.mark.parametrize("i", [0, 3])
    def test_hand_built_density_stacks_its_blocks(self, larger_chains, i):
        # a density built from blocks alone derives its groups from them
        basis, pairs = larger_chains(6, 5, 10)
        for pair in (pairs["ground"], distinct_pair(basis.dim)):
            for n_sub in range(1, 11):
                rd = sorted_reduced_density(basis, pair, i, i + n_sub - 1)
                assert "groups" not in rd.__dict__
                for numbers, R, W in rd.groups:
                    for t, b in enumerate(numbers):
                        assert same_bytes(R[t], rd.blocks[b].right)
                        assert same_bytes(W[t], rd.blocks[b].left)
                for N, insertion in ((2, 3), (5, "bare")):
                    want = rsos.renyi_twisted(rsos.reduced_density(basis, pair, i, i + n_sub - 1),
                                              N, 6, 5, insertion)
                    assert same_bytes(rsos.renyi_twisted(rd, N, 6, 5, insertion), want)
                    assert same_bytes(renyi_reference(rd, N, 6, 5, insertion), want)


class TestTwistWeights:
    def test_loop_weight_eigenrelation(self):
        m, k = 4, 3
        A = rsos.adjacency_matrix(m)
        lam = math.pi * k / (m + 1)
        for n in (2, 3):
            for q in range(1, m + 1):
                w = rsos.twist_weights(m, k, q, n)
                beta_q = 2 * math.cos(math.pi * q / (m + 1))
                for a in range(1, m + 1):
                    acc = sum(A[a - 1, b - 1]
                              * (math.sin(lam * b) / math.sin(lam * a)) ** n * w[b]
                              for b in range(1, m + 1))
                    assert abs(acc - beta_q * w[a]) < 1e-12

    def test_golden_ratio_weight(self):
        assert abs(2 * math.cos(math.pi / 5) - (1 + math.sqrt(5)) / 2) < 1e-15

    def test_bare_round_trip(self):
        for m, k, n in ((4, 3, 2), (4, 3, 3), (6, 5, 2)):
            xq = rsos.bare_weights(m, k, n)
            for a in range(1, m + 1):
                tot = sum(xq[q] * rsos.twist_weights(m, k, q, n)[a]
                          for q in range(1, m + 1))
                assert abs(tot - 1.0) < 1e-12

    def test_singular_weights_raise(self):
        # (m, k) = (3, 2): sin(lambda a) = sin(pi a / 2) vanishes at a = 2
        with pytest.raises(rsos.SingularWeightError):
            rsos.twist_weights(3, 2, 1, 2)
        with pytest.raises(rsos.SingularWeightError):
            rsos.bare_weights(3, 2, 2)


class TestRenyiTraces:
    def test_bare_decomposition_exact(self, yl_chain_16):
        basis, v = yl_chain_16["basis"], yl_chain_16["vacuum"]
        rd = rsos.reduced_density(basis, v, 0, 7)
        for N in (2, 3):
            tb, _ = rsos.renyi_twisted(rd, N, 4, 3, "bare")
            xq = rsos.bare_weights(4, 3, N)
            tot = sum(xq[q1] * xq[q2] * rsos.renyi_twisted(rd, N, 4, 3, (q1, q2))[0]
                      for q1 in range(1, 5) for q2 in range(1, 5))
            assert abs(tb - tot) < 1e-10 * max(1.0, abs(tb))

    def test_n_below_two_rejected(self, yl_chain_16):
        basis, v = yl_chain_16["basis"], yl_chain_16["vacuum"]
        rd = rsos.reduced_density(basis, v, 0, 4)
        with pytest.raises(ValueError):
            rsos.renyi_twisted(rd, 1, 4, 3, "bare")

    def test_unitary_entropies_real_nonnegative(self):
        H, basis = rsos.build_rsos_hamiltonian(4, 1, 10)
        g = rsos.select_state(H, basis, "ground")
        curve = rsos.entropy_curve(4, 1, 10, 2, "ground", "bare",
                                   h_twist=0.0, pair=g, basis=basis)
        assert np.max(np.abs(curve["trace"].imag)) < 1e-12
        assert np.all(curve["entropy"].real >= 0)
        assert np.all(curve["trace"].real > 0)

    def test_reflection_symmetry(self, yl_vacuum_curves_16):
        for key, curve in yl_vacuum_curves_16.items():
            tr = curve["trace"].real
            assert np.max(np.abs(tr - tr[::-1])) < 1e-7 * np.max(np.abs(tr))

    def test_collapse_across_sizes(self):
        # rescaled dressed-twist curves at fixed ell/L spread below 5 percent
        vals = {}
        for L in (10, 12, 14):
            H, basis = rsos.build_rsos_hamiltonian(4, 3, L)
            v = rsos.select_state(H, basis, "vacuum")
            c = rsos.entropy_curve(4, 3, L, 2, "vacuum", 3,
                                   h_twist=-11 / 40, pair=v, basis=basis)
            vals[L] = dict(zip((c["ell"] / L).round(6), c["rescaled"].real))
        common = set(vals[10]) & set(vals[12]) & set(vals[14])
        assert common
        for s in common:
            trio = [vals[L][s] for L in (10, 12, 14)]
            spread = (max(trio) - min(trio)) / abs(np.mean(trio))
            assert spread < 0.05

    def test_unitary_slope_standard(self):
        # (m,k) = (4,1): identity-dressed vacuum trace slope -> (N+1) c / (6N)
        # with c = 4/5; wide window averages out the even-odd lattice
        # oscillation of the unitary chain
        L, N = 16, 2
        H, basis = rsos.build_rsos_hamiltonian(4, 1, L)
        g = rsos.select_state(H, basis, "ground")
        curve = rsos.entropy_curve(4, 1, L, N, "ground", 1,
                                   h_twist=0.0, pair=g, basis=basis)
        sel = slice(1, 14)
        ell = curve["ell"][sel]
        S = (L / np.pi) * np.sin(np.pi * ell / L)
        coef = -np.polyfit(np.log(S), np.log(curve["trace"].real[sel]), 1)[0] / (N - 1)
        want = (N + 1) * (4 / 5) / (6 * N)
        assert abs(coef - want) / want < 0.05


class TestCurveCsv:
    def test_format(self, yl_vacuum_curves_16):
        curve = yl_vacuum_curves_16[(2, "3")]
        text = rsos.curve_csv(curve, 3)
        lines = text.strip().splitlines()
        assert lines[0].startswith("L,ell,N,q_or_bare")
        assert len(lines) == 16
        assert lines[1].split(",")[0] == "16"


def vacuum_on(L):
    """(vacuum pair, basis) of the (4,3) chain."""
    H, basis = rsos.build_rsos_hamiltonian(4, 3, L)
    return rsos.select_state(H, basis, "vacuum"), basis


class TestArgumentChecks:
    @pytest.mark.parametrize("call,exc", [
        (lambda: rsos.enumerate_heights(1, 8), rsos.BasisError),
        (lambda: rsos.build_rsos_hamiltonian(4, 5, 8), ValueError),
        (lambda: rsos.select_state(*rsos.build_rsos_hamiltonian(4, 3, 8), "excited"), ValueError),
        (lambda: rsos.select_state(rsos.build_rsos_hamiltonian(4, 3, 12)[0],
                                   rsos.enumerate_heights(4, 14), "ground"), ValueError),
        (lambda: rsos.select_state(rsos.build_rsos_hamiltonian(4, 3, 14)[0],
                                   rsos.enumerate_heights(4, 12), "ground"), ValueError),
        (lambda: rsos.entropy_curve(4, 3, 8, 2, "vacuum", 1, 0.0, pair=vacuum_on(8)[0]),
         ValueError),
        (lambda: rsos.entropy_curve(4, 3, 8, 2, "vacuum", 1, 0.0,
                                    basis=rsos.enumerate_heights(4, 8)), ValueError),
        (lambda: rsos.entropy_curve(4, 3, 14, 2, "vacuum", 1, 0.0, *vacuum_on(12)), ValueError),
        (lambda: rsos.entropy_curve(6, 3, 12, 2, "vacuum", 1, 0.0, *vacuum_on(12)), ValueError),
        (lambda: rsos.entropy_curve(4, 3, 12, 2, "vacuum", 1, 0.0, vacuum_on(14)[0],
                                    rsos.enumerate_heights(4, 12)), ValueError),
        (lambda: rsos.entropy_curve(4, 3, 14, 2, "vacuum", 1, 0.0, vacuum_on(12)[0],
                                    rsos.enumerate_heights(4, 14)), ValueError),
        (lambda: rsos.entropy_curve(4, 3, 8, 2, "bogus", 1, 0.0, *vacuum_on(8)), ValueError),
        # the middle third of L = 4 is the one point ell = 2, of L = 2 empty
        (lambda: rsos.fit_twist_dimension(rsos.entropy_curve(4, 3, 4, 2, "ground", 1, 0.0)),
         ValueError),
        (lambda: rsos.fit_twist_dimension(rsos.entropy_curve(4, 3, 2, 2, "ground", 1, 0.0)),
         ValueError),
        # rho_A^5000 overflows: the traces would be nan
        (lambda: rsos.entropy_curve(4, 3, 6, 5000, "ground", "bare", 0.0), ValueError),
    ], ids=["height_m_1", "twist_k_above_m", "state_excited", "select_H_smaller_than_basis",
            "select_H_larger_than_basis", "curve_pair_without_basis", "curve_basis_without_pair",
            "curve_basis_of_other_L", "curve_basis_of_other_m", "curve_pair_longer_than_basis",
            "curve_pair_shorter_than_basis", "curve_state_bogus_with_pair_and_basis",
            "fit_one_point_at_L_4", "fit_no_point_at_L_2", "curve_power_overflows"])
    def test_rejected(self, call, exc):
        with pytest.raises(exc):
            call()
