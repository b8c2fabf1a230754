"""Connection fits, invariance solves, assembly, continuation."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import cyclorb as cy
from _kernel_oracle import kernel_G
from cyclorb import monodromy as mn


@pytest.fixture(scope="module")
def gs_model():
    return cy.get_model("yl1int_gs")


@pytest.fixture(scope="module")
def gs_solution(gs_model):
    return cy.bootstrap(gs_model, M=200)


class TestFitConnection:
    def test_identity_on_same_basis(self, gs_model):
        b0 = gs_model.basis0(150)
        # a basis "at one" that is really the zero basis: A must be identity
        fit = mn.fit_connection(b0, b0)
        assert np.max(np.abs(fit.A - np.eye(3))) < 1e-10

    @pytest.mark.parametrize("g", [F(11, 8), F(13, 8)])
    def test_order4_matches_exact_series_jets(self, g):
        # the same match from exact Fraction coefficients summed at 30 digits:
        # an oracle for A where no closed-form connection exists
        mp = pytest.importorskip("mpmath")
        model = cy.get_model("mm_n3_phi21", g)
        n = model.order
        with mp.workdps(30):
            W0 = _mp_jets(model.ode, model.basis0().exponents, n - 1)
            W1 = _mp_jets(model.ode_at_1, model.basis1().exponents, n - 1)
            flip = mp.diag([(-1) ** d for d in range(n)])   # d/dx = -d/du about 1
            A = np.array((W0 * mp.inverse(W1 * flip)).tolist(), dtype=float)
        fit = cy.bootstrap(model)[0]
        assert np.linalg.norm(fit.A - A) < 1e-13 * np.linalg.norm(A)

    def test_reference_matrix(self, gs_model, gs_solution):
        fit = gs_solution[0]
        assert fit.residual < 1e-9
        dev = np.max(np.abs(fit.A - gs_model.expected_A))
        assert dev < 5e-6  # entrywise at the printed 6 significant digits


class TestDiagonalInvariants:
    def test_identity_matrix(self):
        fit = mn.ConnectionFit(A=np.eye(3), residual=0.0, condition=1.0)
        bc = mn.diagonal_invariants(fit, norm_channel=0)
        assert np.allclose(bc.X, np.ones(3))
        assert np.allclose(bc.Y, np.ones(3))

    def test_reference_coefficients(self, gs_model, gs_solution):
        _, bc, _, _ = gs_solution
        want_X = np.array([gs_model.expected_X[e] for e in gs_model.block_exponents_0])
        want_Y = np.array([gs_model.expected_Y[e] for e in gs_model.block_exponents_1])
        assert np.max(np.abs(bc.X - want_X) / np.abs(want_X)) < 1e-4
        assert np.max(np.abs(bc.Y - want_Y) / np.abs(want_Y)) < 1e-4
        assert bc.diag_residual < 1e-6

    def test_two_interval_gamma_values(self):
        model = cy.get_model("yl2int_vac")
        fit, bc, *_ = cy.bootstrap(model)
        assert abs(bc.X[0] - 1.0) < 1e-10
        assert abs(bc.X[1] - 2 ** 3.2) < 1e-10 * 2 ** 3.2
        assert abs(bc.Y[1] - 2 ** 3.2) < 1e-10 * 2 ** 3.2

    def test_degeneracy_reported(self):
        # a 3x3 rotation-block mixing leaves a two-parameter solution space
        c, s = np.cos(0.3), np.sin(0.3)
        A = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        fit = mn.ConnectionFit(A=A, residual=0.0, condition=1.0)
        with pytest.raises(mn.DegeneracyError) as err:
            mn.diagonal_invariants(fit, norm_channel=0)
        sv = err.value.singular_values
        assert sv is not None
        # the message is formatted from the stored values when it is read
        assert str(err.value) == f"nullspace not one-dimensional (singular values {sv})"
        assert str(mn.DegeneracyError("two-dimensional")) == "two-dimensional"

    @pytest.mark.parametrize("mid,g,cross", [("yl1int_gs", None, False),
                                             ("mm_n3_phi21", F(11, 8), True),
                                             ("mm_n3_phi21", F(4, 7), True)])
    def test_constraints_match_loop_reference(self, mid, g, cross):
        # reference: the constraint rows built pair by pair in Python; the
        # index-array build must give the same matrix, so the same solve
        model = cy.get_model(mid, g)
        fit = cy.bootstrap(model)[0]
        pairs0 = cy.integer_spaced_pairs(model.block_exponents_0) if cross else []
        pairs1 = cy.integer_spaced_pairs(model.block_exponents_1) if cross else []
        A, n = fit.A, len(fit.A)
        skip = {tuple(sorted(p)) for p in pairs1}
        rows = []
        for k in range(n):
            for l in range(k + 1, n):
                if (k, l) not in skip:
                    rows.append([A[q, k] * A[q, l] for q in range(n)]
                                + [A[i, k] * A[j, l] + A[j, k] * A[i, l] for i, j in pairs0])
        _, svals, vt = np.linalg.svd(np.array(rows))
        bc = mn.diagonal_invariants(fit, model.norm_channel, pairs0, pairs1)
        assert np.array_equal(bc.singular_values[:len(svals)], svals)
        Xmat = np.diag(vt[-1][:n])
        for m, (i, j) in enumerate(pairs0):
            Xmat[i, j] = Xmat[j, i] = vt[-1][n + m]
        scale = (A.T @ Xmat @ A)[model.norm_channel, model.norm_channel]
        assert np.array_equal(bc.X, np.diag(Xmat / scale))
        assert bc.X_cross == {(i, j): float(Xmat[i, j] / scale) for i, j in pairs0}
        assert set(bc.Y_cross) == skip

    def test_trivial_self_connection(self):
        # identity connection: any diagonal X works; the canonical ones-vector
        fit = mn.ConnectionFit(A=np.eye(3), residual=0.0, condition=1.0)
        bc = mn.diagonal_invariants(fit, norm_channel=0)
        assert np.allclose(bc.X, 1.0) and np.allclose(bc.Y, 1.0)


class TestAssemble:
    def test_closed_form_two_interval(self):
        model = cy.get_model("yl2int_vac")
        G = cy.correlator(model)
        for x in (0.3, 0.5, 0.7):
            assert abs(G(x) - model.closed_form(x)) < 1e-9

    def test_channel_duality(self, gs_model, gs_solution):
        fit, bc, b0, b1 = gs_solution
        G0 = mn.assemble((0, 0), bc.X, b0)
        G1 = mn.assemble((0, 0), bc.Y, b1)
        assert abs(G0(0.5) - G1(0.5)) < 1e-8 * abs(G0(0.5))
        # past the split, against the other basis summed by the series kernel
        assert abs(G0(0.4) - kernel_G((0, 0), bc.Y, b1)(0.4)) < 1e-8 * abs(G0(0.4))
        assert abs(G1(0.6) - kernel_G((0, 0), bc.X, b0)(0.6)) < 1e-8 * abs(G1(0.6))

    def test_leading_channel_limit(self, gs_model, gs_solution):
        _, bc, b0, _ = gs_solution
        G = mn.assemble((0, 0), bc.X, b0)
        x = 1e-10
        exps = [float(e) for e in gs_model.block_exponents_0]
        alpha_min = min(exps)
        i_min = exps.index(alpha_min)
        # the next block enters at relative order x^(2 dalpha)
        dalpha = sorted(exps)[1] - alpha_min
        slack = 3 * max(abs(v) for v in bc.X) * x ** (2 * dalpha)
        assert abs(G(x) / x ** (2 * alpha_min) - bc.X[i_min]) < slack

    def test_permutation_invariance(self, gs_model):
        b0 = gs_model.basis0(200)
        b1 = gs_model.basis1(200)
        fit = mn.fit_connection(b0, b1)
        bc = mn.diagonal_invariants(fit, norm_channel=0)
        perm = [2, 0, 1]
        b0p = cy.FrobeniusBasis(center=b0.center, series=tuple(b0.series[i] for i in perm))
        fitp = mn.fit_connection(b0p, b1)
        bcp = mn.diagonal_invariants(fitp, norm_channel=0)
        G = mn.assemble((0, 0), bc.X, b0)
        Gp = mn.assemble((0, 0), bcp.X, b0p)
        for x in (0.2, 0.35, 0.5):
            assert abs(G(x) - Gp(x)) < 1e-8 * abs(G(x))


    def test_array_matches_scalar(self, gs_solution):
        _, bc, b0, _ = gs_solution
        G = mn.assemble((F(2, 5), F(4, 5)), bc.X, b0)
        xs = np.linspace(0.05, 0.5, 41)
        vals = G(xs)
        assert vals.shape == xs.shape
        ref = np.array([G(x) for x in xs])
        assert isinstance(G(0.3), float)
        assert np.max(np.abs(vals - ref) / np.abs(ref)) < 1e-13


class TestContinuation:
    def test_circle_against_closed_form(self):
        mp = pytest.importorskip("mpmath")
        model = cy.get_model("yl2int_vac")
        s = np.arange(1, 16) / 16.0
        pred = cy.predict_on_circle(model, s)
        for i, si in enumerate(s):
            x = complex(mp.e ** (2j * mp.pi * float(si)))
            h1 = complex(mp.hyp2f1(0.7, 1.1, 1.4, x))
            h2 = complex(mp.hyp2f1(0.7, 0.3, 0.6, x))
            xa = complex(mp.power(x, -0.4))
            ref = abs(1 - x) ** 1.1 * (abs(h1) ** 2 + 2 ** 3.2 * abs(xa * h2) ** 2)
            assert abs(pred[i] - ref) / abs(ref) < 1e-10

    def test_reflection_symmetry(self):
        model = cy.get_model("yl1int_gs")
        s = np.array([0.25, 0.75])
        pred = cy.predict_on_circle(model, s, dressing_power=-1 / 20)
        assert abs(pred[0] - pred[1]) < 1e-12

    def test_circle_keeps_cross_terms(self):
        # mm_n3_phi21 needs cross terms on its integer-spaced pair; the circle
        # values must combine the continued blocks with them
        model = cy.get_model("mm_n3_phi21", F(11, 8))
        _, bc, b0, _ = cy.bootstrap(model)
        assert bc.X_cross
        s = np.array([0.2, 0.3, 0.45, 0.7])
        s_eff = np.minimum(s, 1 - s)
        B = mn.continue_blocks(model.standard_coeffs(), b0, np.exp(2j * np.pi * s_eff))
        diag = np.array([sum(bc.X[i] * abs(B[t, i]) ** 2 for i in range(b0.size))
                         for t in range(len(s))])
        cross = np.array([sum(2 * amp * (B[t, i].conjugate() * B[t, j]).real
                              for (i, j), amp in bc.X_cross.items())
                          for t in range(len(s))])
        pref = np.abs(2 * np.sin(np.pi * s_eff)) ** (2 * float(model.prefactor_exponents[1]))
        want = pref * (diag + cross)
        got = cy.predict_on_circle(model, s)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9
        assert np.min(np.abs(cross / diag)) > 1e-2   # the cross terms matter here

    @pytest.mark.parametrize("g", [F(11, 8), F(13, 12)])
    def test_continuation_against_tight_tolerance(self, g):
        model = cy.get_model("mm_n3_phi21", g)
        b0 = model.basis0()
        x = np.exp(2j * np.pi * np.arange(1, 9) / 16)
        B = mn.continue_blocks(model.standard_coeffs(), b0, x)
        ref = _dop853_blocks(model.standard_coeffs(), b0, x)
        assert np.max(np.abs(B - ref) / np.abs(ref)) < 1e-9

    @pytest.mark.parametrize("model_id,g", [("yl2int_vac", None), ("yl1int_vac", None),
                                            ("mm_n2_phi21", F(7, 5)),
                                            ("mm_n2_phi21", F(13, 12))])
    def test_hypergeometric_blocks_against_mpmath(self, model_id, g):
        # I_1 = 2F1(a, b; c; x) and I_2 = x^(1-c) 2F1(a-c+1, b-c+1; 2-c; x)
        mp = pytest.importorskip("mpmath")
        model = cy.get_model(model_id, g)
        a, b, c = model.hyp.a, model.hyp.b, model.hyp.c
        e0, e1 = model.block_exponents_0
        assert e0 == 0 and abs(float(e1) - (1 - c)) < 1e-12
        s = np.arange(1, 9) / 16
        B = mn.continue_blocks(model.standard_coeffs(), model.basis0(),
                               np.exp(2j * np.pi * s))
        with mp.workdps(30):
            xs = [mp.expjpi(2 * mp.mpf(l) / 16) for l in range(1, 9)]
            ref = np.array([[complex(mp.hyp2f1(a, b, c, x)),
                             complex(x ** (1 - c) * mp.hyp2f1(a - c + 1, b - c + 1, 2 - c, x))]
                            for x in xs])
        assert _max_rel(B, ref) < 1e-12

    @pytest.mark.parametrize("g", [F(11, 8), F(7, 6), F(13, 12)])
    def test_order4_against_30_digit_continuation(self, g):
        # the same route and the same double-precision seeds, continued at
        # 30 digits; the difference is the error of the continuation alone
        pytest.importorskip("mpmath")
        model = cy.get_model("mm_n3_phi21", g)
        b0 = model.basis0()
        x = np.exp(2j * np.pi * np.arange(1, 9) / 16)
        seeds = b0.jet(0.5, model.order - 1).T
        ref = _mp_continue(model.standard_coeffs(), seeds, 0.5, x)
        B = mn.continue_blocks(model.standard_coeffs(), b0, x)
        assert _max_rel(B, ref) < 1e-11

    def test_truncated_step_raises(self, monkeypatch):
        monkeypatch.setattr(mn, "_TAYLOR_TERMS", 8)
        model = cy.get_model("yl2int_vac")
        with pytest.raises(mn.FitError, match="truncated"):
            mn.continue_blocks(model.standard_coeffs(), model.basis0(), [1j])

    def test_tail_weighted_like_the_derivative_readout(self, monkeypatch):
        # at 56 terms the raw |b_n| tail reads 5.9e-15 while the order-4
        # blocks err by 1.6e-9; weighted by n!/(n-3)! it reads 7.8e-10
        monkeypatch.setattr(mn, "_TAYLOR_TERMS", 56)
        model = cy.get_model("mm_n3_phi21", F(13, 12))
        x = np.exp(2j * np.pi * np.arange(1, 9) / 16)
        with pytest.raises(mn.FitError, match="truncated"):
            mn.continue_blocks(model.standard_coeffs(), model.basis0(), x)

    def test_real_targets_off_the_segment(self):
        # real targets past 1 or below 0 are reached through the upper half plane
        mp = pytest.importorskip("mpmath")
        model = cy.get_model("yl2int_vac")
        x = [0.3, 0.7, 2.0, -1.0]
        B = mn.continue_blocks(model.standard_coeffs(), model.basis0(), x)
        ref = np.array([[complex(mp.hyp2f1(0.7, 1.1, 1.4, mp.mpc(t, 1e-30))),
                         complex(mp.mpc(t, 1e-30) ** -0.4
                                 * mp.hyp2f1(0.3, 0.7, 0.6, mp.mpc(t, 1e-30)))] for t in x])
        assert _max_rel(B, ref) < 1e-12
        with pytest.raises(ValueError):
            mn.continue_blocks(model.standard_coeffs(), model.basis0(), [1.0])

    def test_block_sum_matches_loop(self):
        rng = np.random.default_rng(3)
        V = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
        X = rng.normal(size=4)
        cross = {(0, 2): 0.3, (1, 3): -1.7}
        want = [sum(X[i] * abs(v[i]) ** 2 for i in range(4))
                + sum(2 * t * (v[i].conjugate() * v[j]).real for (i, j), t in cross.items())
                for v in V]
        tol = 1e-14 * np.max(np.abs(want))
        assert np.allclose(mn.block_sum(V, X, cross), want, rtol=0, atol=tol)
        assert abs(mn.block_sum(V[2], X, cross) - want[2]) <= tol

    @pytest.mark.parametrize("mid,g", [("yl2int_vac", None), ("yl1int_gs", None),
                                       ("mm_n3_phi21", F(11, 8))])
    def test_transitions_are_bitwise_the_per_row_loop(self, mid, g):
        # orders r = 2, 3, 4 along predict_on_circle's route: each recurrence row
        # written in place is the same batched matmul as a fresh row copied in
        model = cy.get_model(mid, g)
        s = np.arange(1, 16) / 16
        targets = [complex(np.exp(2j * np.pi * t)) for t in np.unique(np.minimum(s, 1 - s))]
        x0, h, _ = mn._route(complex(mn.CHANNEL_SPLIT), targets)
        got = mn._transitions(model.standard_coeffs(), x0, h)
        want = _transitions_per_row(model.standard_coeffs(), x0, h)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestArgumentChecks:
    @pytest.mark.parametrize("call,match", [
        (lambda m: mn.fit_connection(m.basis0(60), cy.get_model("yl1int_gs").basis1(60)),
         "equal size"),
        (lambda m: mn.continue_blocks(m.standard_coeffs(), m.basis0(60), [0.3j, 0.3 - 0.1j]),
         "upper half plane"),
        (lambda m: mn.correlator_on_circle(m.standard_coeffs(), m.basis0(60), [1.0, 1.0],
                                           [0.25, 1.0]), "inside"),
        (lambda m: mn.correlator_on_circle(m.standard_coeffs(), m.basis0(60), [1.0, 1.0],
                                           [0.0, 0.5]), "inside"),
    ], ids=["unequal_bases", "lower_half_plane", "fraction_one", "fraction_zero"])
    def test_rejected(self, call, match):
        model = cy.get_model("yl2int_vac")
        with pytest.raises(ValueError, match=match):
            call(model)


# ---------------------------------------------------------------------------
# independent continuation references


def _max_rel(B, ref):
    """Largest error relative to the largest block at each target."""
    return float(np.max(np.abs(B - ref) / np.max(np.abs(ref), axis=1, keepdims=True)))


def _mp_jets(ode, exponents, order, M=120):
    """W[i, d] = d^d/du^d of the series of exponent i at u = 1/2, from the exact
    Fraction recursion to order M, summed at the current mpmath precision."""
    import mpmath as mp

    rows = []
    for a in exponents:
        coeffs = cy.frobenius_series(ode, a, M, exact=True).exact_coeffs
        p = [mp.mpf((F(a) + k).numerator) / F(a).denominator for k in range(M + 1)]
        rows.append([mp.fsum(mp.mpf(c.numerator) / c.denominator * mp.fprod(q - j for j in range(d))
                             * mp.mpf(0.5) ** (q - d) for c, q in zip(coeffs, p))
                     for d in range(order + 1)])
    return mp.matrix(rows)


def _dop853_blocks(standard_coeffs, basis, targets):
    """Blocks at ``targets`` by scipy's DOP853 (rtol 1e-13, atol 1e-15) on the
    companion system, along chords from x = 1/2 through the targets in turn."""
    from scipy.integrate import solve_ivp

    polys = [np.array([float(c) for c in reversed(p)]) for p in standard_coeffs]
    r = len(polys) - 1

    def rhs(t, y, a, d):
        x = a + t * d
        Y = y.reshape(r, -1)
        top = -sum(np.polyval(polys[k], x) * Y[k] for k in range(r)) / np.polyval(polys[r], x)
        return d * np.concatenate([Y[1:], top[None]]).ravel()

    # complex seeds: solve_ivp keeps the dtype of y0, and the targets are complex
    Y = basis.jet(0.5, r - 1).T.astype(complex)
    out, cur = [], 0.5
    for x in targets:
        sol = solve_ivp(rhs, (0.0, 1.0), Y.ravel(), args=(cur, x - cur),
                        method="DOP853", rtol=1e-13, atol=1e-15)
        assert sol.success
        Y, cur = sol.y[:, -1].reshape(r, -1), x
        out.append(Y[0])
    return np.array(out)


def _mp_continue(standard_coeffs, seeds, x_start, targets, dps=30):
    """Blocks at ``targets`` from seeds[k][i] = I_i^(k)(x_start), by Taylor
    steps at ``dps`` digits in mpmath.

    Straight segments run from x_start through the targets in turn; each step
    is at most half the distance to {0, 1}, and each expansion is summed until
    r successive terms fall below 10^-(dps-10) of its largest term.
    """
    import mpmath as mp

    with mp.workdps(dps):
        r = len(standard_coeffs) - 1
        coeffs = [[mp.mpf(F(c).numerator) / F(c).denominator for c in p]
                  for p in standard_coeffs]
        eps = mp.mpf(10) ** -(dps - 10)
        Y = [[mp.mpc(complex(v)) for v in row] for row in seeds]
        cur = mp.mpc(x_start)
        out = []
        for x in targets:
            x = mp.mpc(complex(x))
            while cur != x:
                rho = min(abs(cur), abs(cur - 1))
                h = x - cur
                if abs(h) > rho / 2:
                    h = h * (rho / 2) / abs(h)
                Y = _mp_step(coeffs, cur, h, Y, eps)
                cur = x if abs(x - cur - h) < eps else cur + h
            out.append([complex(v) for v in Y[0]])
        return np.array(out)


def _falling(p, k):
    out = 1
    for i in range(k):
        out *= p - i
    return out


def _mp_step(coeffs, x0, h, Y, eps):
    """One Taylor step x0 -> x0 + h of sum_k c_k f^(k) = 0, applied to every
    block; Y[k][i] is the k-th derivative of block i."""
    import mpmath as mp

    r = len(coeffs) - 1
    # q[k][j]: coefficient of t^j in h^(r-k) c_k(x0 + h t), by Taylor shift
    q = []
    for k, c in enumerate(coeffs):
        a = list(c)
        for i in range(len(a)):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += x0 * a[j + 1]
        q.append([a[j] * h ** (j + r - k) for j in range(len(a))])
    # b_(m+r) from sum_{k,j} q_kj (m-j+1)...(m-j+k) b_(m-j+k) = 0, grouped by s = k - j
    by_s = {}
    for k in range(r + 1):
        for j, qkj in enumerate(q[k]):
            if (k, j) != (r, 0):
                by_s.setdefault(k - j, []).append((k, qkj))
    cols = [[h ** k * Y[k][i] / mp.factorial(k) for k in range(r)] for i in range(len(Y[0]))]
    big = [max(abs(v) for v in b) for b in cols]
    quiet = [0] * len(cols)
    m = 0
    while min(quiet) < r:
        idx, wts = [], []
        for s, terms in by_s.items():
            if m + s >= 0:
                idx.append(m + s)
                wts.append(mp.fdot([(qkj, _falling(m + s, k)) for k, qkj in terms]))
        lead = -1 / (q[r][0] * _falling(m + r, r))
        for i, b in enumerate(cols):
            v = mp.fdot(wts, [b[p] for p in idx]) * lead
            b.append(v)
            big[i] = max(big[i], abs(v))
            quiet[i] = quiet[i] + 1 if abs(v) < eps * big[i] else 0
        m += 1
        assert m < 2000, "mpmath Taylor step does not converge"
    return [[h ** -k * mp.fsum(_falling(n, k) * b[n] for n in range(k, len(b))) for b in cols]
            for k in range(r)]


def _transitions_per_row(standard_coeffs, x0, h):
    """``monodromy._transitions`` with its recurrence one fresh row at a time,
    copied into b (the tail check left out): the in-place loop's reference."""
    r, N = len(standard_coeffs) - 1, mn._TAYLOR_TERMS
    D = max(len(c) for c in standard_coeffs) - 1
    P = np.zeros((r + 1, D + 1), dtype=complex)
    for k, c in enumerate(standard_coeffs):
        P[k, : len(c)] = [complex(v) for v in c]
    i = np.arange(D + 1)
    binom = np.array([[math.comb(a, b) for b in i] for a in i], dtype=float)
    shift = (binom * x0[:, None, None] ** np.maximum(i[:, None] - i, 0)
             * h[:, None, None] ** i)
    q = (P @ shift) * h[:, None, None] ** (r - np.arange(r + 1))[:, None]
    lo = min(k + 1 - len(c) for k, c in enumerate(standard_coeffs))
    s = np.arange(lo, r)
    k = np.arange(r + 1)
    j = k[:, None] - s
    ok = (j >= 0) & (j <= D)
    qs = np.where(ok, q[:, k[:, None], np.clip(j, 0, D)], 0.0)
    m = np.arange(N - r)
    W = np.einsum("aks,msk->ams", qs, mn._falling(m[:, None] + s, r))
    W /= -(q[:, r, 0, None] * mn._falling(m + r, r)[:, r])[..., None]
    d, w = -lo, len(s)
    b = np.zeros((len(x0), d + N, r), dtype=complex)
    fact = np.cumprod(np.r_[1.0, np.arange(1, r)])
    b[:, d + k[:r], k[:r]] = h[:, None] ** k[:r] / fact
    for mm in m:
        b[:, d + mm + r] = (W[:, mm, None, :] @ b[:, mm: mm + w])[:, 0]
    ff = mn._falling(np.arange(N), r - 1)
    return np.einsum("nk,anc->akc", ff, b[:, d:]) * h[:, None, None] ** -k[:r, None]
