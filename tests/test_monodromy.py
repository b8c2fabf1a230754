"""Connection fits, invariance solves, assembly, continuation."""

from fractions import Fraction as F

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
        ref = mn.continue_blocks(model.standard_coeffs(), b0, x, rtol=1e-13, atol=1e-15)
        assert np.max(np.abs(B - ref) / np.abs(ref)) < 1e-9

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
