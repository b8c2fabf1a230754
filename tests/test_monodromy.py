"""Connection fits, invariance solves, assembly, continuation."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import cyclorb as cy
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
        fit = mn.fit_connection(b0, b0, points=mn.chebyshev_points(6))
        assert np.max(np.abs(fit.A - np.eye(3))) < 1e-10

    def test_reference_matrix(self, gs_model, gs_solution):
        fit = gs_solution[0]
        assert fit.residual < 1e-9
        dev = np.max(np.abs(fit.A - gs_model.expected_A))
        assert dev < 5e-6  # entrywise at the printed 6 significant digits

    def test_residual_stable_with_more_points(self, gs_model):
        b0, b1 = gs_model.basis0(200), gs_model.basis1(200)
        for npts in (3, 6, 9):
            fit = mn.fit_connection(b0, b1, points=mn.chebyshev_points(npts))
            assert fit.residual < 1e-9

    def test_too_few_points(self, gs_model):
        with pytest.raises(ValueError):
            mn.fit_connection(gs_model.basis0(80), gs_model.basis1(80), points=[0.5])


class TestDiagonalInvariants:
    def test_identity_matrix(self):
        fit = mn.ConnectionFit(A=np.eye(3), sample_points=(), residual=0.0, condition=1.0)
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
        fit = mn.ConnectionFit(A=A, sample_points=(), residual=0.0, condition=1.0)
        with pytest.raises(mn.DegeneracyError) as err:
            mn.diagonal_invariants(fit, norm_channel=0)
        assert err.value.singular_values is not None

    def test_trivial_self_connection(self):
        # identity connection: any diagonal X works; the canonical ones-vector
        fit = mn.ConnectionFit(A=np.eye(3), sample_points=(), residual=0.0, condition=1.0)
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
        for x in (0.4, 0.5, 0.6):
            assert abs(G0(x) - G1(x)) < 1e-8 * abs(G0(x))

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
        for x in (0.35, 0.5, 0.62):
            assert abs(G(x) - Gp(x)) < 1e-8 * abs(G(x))


    def test_array_matches_scalar(self, gs_solution):
        _, bc, b0, _ = gs_solution
        G = mn.assemble((F(2, 5), F(4, 5)), bc.X, b0)
        xs = np.linspace(0.05, 0.95, 41)
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
        seeds = np.array([s.derivative_values(0.5, model.order - 1) for s in b0.series]).T
        ref = _mp_continue(model.standard_coeffs(), seeds, 0.5, x)
        B = mn.continue_blocks(model.standard_coeffs(), b0, x)
        assert _max_rel(B, ref) < 1e-11

    def test_truncated_step_raises(self, monkeypatch):
        monkeypatch.setattr(mn, "_TAYLOR_TERMS", 8)
        model = cy.get_model("yl2int_vac")
        with pytest.raises(mn.FitError, match="truncated"):
            mn.continue_blocks(model.standard_coeffs(), model.basis0(), [1j])

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


def test_import_leaves_scipy_integrate_and_optimize_unloaded():
    src = str(Path(cy.__file__).resolve().parents[1])
    code = ("import sys, cyclorb; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# independent continuation references


def _max_rel(B, ref):
    """Largest error relative to the largest block at each target."""
    return float(np.max(np.abs(B - ref) / np.max(np.abs(ref), axis=1, keepdims=True)))


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

    Y = np.array([s.derivative_values(0.5, r - 1) for s in basis.series]).T
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
