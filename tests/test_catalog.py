"""Model catalog: schemes, closed forms, structure constants, torus checks,
contour-identity coefficients."""

import csv
import io
import math
from fractions import Fraction as F

import numpy as np
import pytest

import cyclorb as cy
from _kernel_oracle import kernel_G
from cyclorb import catalog as cat
from cyclorb import frobenius as fb
from cyclorb import monodromy as mn, specfun as sf
from cyclorb.polyring import pmul, pmul_trunc, psub_affine


ALL_MODELS = [("yl2int_vac", None), ("yl1int_vac", None), ("yl1int_gs", None),
              ("ising2int_vac", None), ("mm_n2_phi21", F(4, 3)), ("mm_n3_phi21", F(11, 8))]


class TestModels:
    @pytest.mark.parametrize("mid,g", ALL_MODELS)
    def test_scheme_validates(self, mid, g):
        model = cy.get_model(mid, g)
        assert cy.validate_scheme(model)

    def test_one_interval_scheme_columns(self):
        sch = cy.get_model("yl1int_gs").scheme
        assert sch.exponents_at_0 == (F(1, 2), F(2, 5), F(9, 10))
        assert sch.exponents_at_1 == (F(4, 5), F(2, 5), F(3, 5))
        assert sch.exponents_at_inf == (F(1, 10), F(-3, 10), F(-2, 5))

    def test_ising_scheme_columns(self):
        sch = cy.get_model("ising2int_vac").scheme
        assert sch.exponents_at_0 == (F(-1, 16), F(1, 16), F(15, 16))
        assert sch.exponents_at_1 == (F(-1, 16), F(1, 16), F(15, 16))
        assert sch.exponents_at_inf == (F(0), F(1, 8), F(1))

    def test_mm_n2_params_at_ising_coupling(self):
        model = cy.get_model("mm_n2_phi21", F(4, 3))
        assert model.hyp.a == -2.0
        assert abs(model.hyp.b - (-7 / 6)) < 1e-15
        assert abs(model.hyp.c - (1 / 6)) < 1e-15

    def test_g_window(self):
        with pytest.raises(ValueError):
            cy.get_model("mm_n2_phi21", F(2, 5))
        with pytest.raises(ValueError):
            cy.get_model("mm_n3_phi21", F(3))

    @pytest.mark.parametrize("mid", ["mm_n2_phi21", "mm_n3_phi21"])
    def test_family_requires_g(self, mid):
        with pytest.raises(ValueError, match="requires g"):
            cy.get_model(mid)

    # g = 3/2 repeats 1/3 in the column about 0, g = 2 repeats 3/4 about 1
    @pytest.mark.parametrize("g,column", [
        (F(3, 2), cat.mm_n3_scheme_columns(F(3, 2))[0]),
        (F(2), cat.mm_n3_scheme_columns(F(2))[1]),
    ])
    def test_exponent_collision_names_the_column(self, g, column):
        assert len(set(column)) < len(column)
        with pytest.raises(ValueError, match="exponent collision") as err:
            cy.get_model("mm_n3_phi21", g)
        assert str(column) in str(err.value)

    def test_model_ids_order(self):
        # the CLI's --model choices, in this order
        assert cat.MODEL_IDS == ("yl2int_vac", "yl1int_vac", "yl1int_gs", "ising2int_vac",
                                 "mm_n2_phi21", "mm_n3_phi21")

    def test_degeneracy_warning_attached(self):
        model = cy.get_model("mm_n3_phi21", F(11, 8))
        assert any("integer exponent difference" in n for n in model.notes)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            cy.get_model("nope")


class TestClosedForms:
    def test_two_interval_values(self):
        model = cy.get_model("yl2int_vac")
        # leading small-x behaviour comes from the crossed channel:
        # G ~ 2^(16/5) x^(11/10 - 4/5)
        x = 1e-6
        lead = model.closed_form(x) / x ** (11 / 10 - 4 / 5)
        assert abs(lead - 2 ** 3.2) < 1e-3

    def test_one_interval_dual_route(self):
        model = cy.get_model("yl1int_vac")
        for x in (0.2, 0.5, 0.8):
            dual = cy.unfolded_four_point(F(2, 5), x)
            assert abs(dual - model.closed_form(x)) < 1e-9

    def test_mm_n2_dual_route_ising(self):
        g = F(4, 3)
        model = cy.get_model("mm_n2_phi21", g)
        w = float(4 * (2 * cat.kac_h21(g) - model.physics.h_twist))
        for x in (0.2, 0.35, 0.5):
            dual = abs(1 - x) ** w * cy.unfolded_four_point(g, x)
            assert abs(dual - model.closed_form(x)) < 1e-9 * abs(model.closed_form(x))

    def test_mm_n2_dual_route_generic(self):
        g = F(7, 5)
        model = cy.get_model("mm_n2_phi21", g)
        w = float(4 * (2 * cat.kac_h21(g) - model.physics.h_twist))
        for x in (0.35, 0.6):
            dual = abs(1 - x) ** w * cy.unfolded_four_point(g, x)
            assert abs(dual - model.closed_form(x)) < 1e-9 * abs(model.closed_form(x))

    def test_assembly_matches_closed_forms(self):
        for mid, g in (("yl2int_vac", None), ("yl1int_vac", None), ("mm_n2_phi21", F(7, 5))):
            model = cy.get_model(mid, g)
            G = cy.correlator(model)
            for x in (0.3, 0.5, 0.7):
                ref = model.closed_form(x)
                assert abs(G(x) - ref) < 1e-9 * max(1.0, abs(ref))

    def test_ising_character_closed_form(self):
        model = cy.get_model("ising2int_vac")
        G = cy.correlator(model)
        for x in (0.3, 0.5, 0.7):
            assert abs(G(x) - model.closed_form(x)) < 1e-9

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            cy.closed_form_eval("yl2int_vac", 1.5)

    @pytest.mark.parametrize("g", [F(3, 4), F(1), F(5, 4), F(7, 4), F(2), F(9, 4)], ids=str)
    def test_mm_n2_singular_crossed_coefficient_raises(self, g):
        # d = 4g - 2 is a positive integer: Gamma(1 - d) has a pole, so the closed
        # form has no crossed-channel coefficient, while the bootstrap still sums G
        model = cy.get_model("mm_n2_phi21", g)
        assert model.expected_Y == {0: 1.0}
        with pytest.raises(sf.DomainError, match=f"singular at g = {g}$"):
            cy.closed_form_eval("mm_n2_phi21", 0.5, g)
        assert math.isfinite(cy.correlator(model)(0.5))

    @pytest.mark.parametrize("g", [F(8, 7), F(13, 8)])
    def test_mm_n2_small_x_against_mpmath(self, g):
        # the series about x = 1 down to x = 1e-3, against 40-digit 2F1s
        mp = pytest.importorskip("mpmath")
        model = cy.get_model("mm_n2_phi21", g)
        with mp.workdps(40):
            a, b, c, p0, p1 = (mp.mpf(v.numerator) / v.denominator
                               for v in (2 - 3 * g, F(3, 2) - 2 * g, F(3, 2) - g,
                                         *model.prefactor_exponents))
            d = c - a - b

            def gr(z):
                return mp.gamma(z) / mp.gamma(1 - z)

            X = -(mp.gamma(1 - d) / mp.gamma(1 + d)) ** 2 * gr(1 - a) * gr(1 - b) * gr(c - a) * gr(c - b)
            for x in ("1e-3", "2e-3", "4e-3"):
                x = mp.mpf(x)
                ref = x ** (2 * p0) * (1 - x) ** (2 * p1) * (
                    mp.hyp2f1(a, b, 1 - d, 1 - x) ** 2
                    + X * ((1 - x) ** d * mp.hyp2f1(c - a, c - b, 1 + d, 1 - x)) ** 2)
                got = cy.closed_form_eval("mm_n2_phi21", float(x), g)
                assert abs(got - ref) <= 1e-12 * abs(ref), float(x)
        # below the documented edge the series about 1 does not converge
        with pytest.raises(sf.DomainError, match="did not converge"):
            cy.closed_form_eval("mm_n2_phi21", 1e-4, g)


class TestCorrelatorChannels:
    """x <= 1/2 is assembled about 0 and x > 1/2 about 1."""

    @pytest.mark.parametrize("mid,g", [("yl2int_vac", None), ("yl1int_vac", None),
                                       ("ising2int_vac", None), ("mm_n2_phi21", F(7, 5))])
    def test_closed_forms_near_one(self, mid, g):
        model = cy.get_model(mid, g)
        xs = np.linspace(0.9, 0.999, 12)
        got = cy.correlator(model)(xs)
        want = np.array([model.closed_form(float(x)) for x in xs])
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12

    @pytest.mark.parametrize("mid,g", ALL_MODELS)
    def test_channels_agree_at_half(self, mid, g):
        model = cy.get_model(mid, g)
        args0, args1 = _channel_args(model)
        G0, G1 = cy.assemble(*args0), cy.assemble(*args1)
        assert abs(G0(0.5) - G1(0.5)) < 1e-11 * abs(G0(0.5))
        G = cy.correlator(model)
        assert G(0.5) == G0(0.5) and G(0.6) == G1(0.6)

    @pytest.mark.parametrize("mid,g", [("yl1int_vac", None), ("mm_n3_phi21", F(11, 8))])
    def test_scalar_matches_array(self, mid, g):
        G = cy.correlator(cy.get_model(mid, g))
        xs = np.r_[np.linspace(0.05, 0.999, 41), 0.5].reshape(2, 21)
        vals = G(xs)
        assert vals.shape == xs.shape
        ref = np.array([[G(x) for x in row] for row in xs])
        assert isinstance(G(0.7), float)
        assert np.max(np.abs(vals - ref) / np.abs(ref)) < 1e-13

    def test_replica3_near_one_against_long_series(self):
        # no closed form: the x = 0 series summed to M = 3000 is the oracle
        model = cy.get_model("mm_n3_phi21", F(13, 12))
        _, bc, _, _ = cy.bootstrap(model)
        long = kernel_G(model.prefactor_exponents, bc.X, model.basis0(3000), bc.X_cross)
        xs = np.array([0.9, 0.95])
        want = long(xs)
        assert np.max(np.abs(cy.correlator(model)(xs) - want) / np.abs(want)) < 1e-10

    def test_bootstrap_once_per_model(self, monkeypatch):
        calls = []
        real = mn.fit_connection

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mn, "fit_connection", counted)
        model = cy.get_model("yl2int_vac")
        cy.correlator(model)
        cy.predict_on_circle(model, [0.25, 0.5])
        assert len(calls) == 1
        cy.correlator(model, M=150)
        cy.predict_on_circle(model, [0.25], M=150)
        assert len(calls) == 2


CATALOG_G = ("8/7", "15/11", "13/12", "17/12", "9/8", "10/7", "16/13",
             "16/11", "13/8", "11/7", "6/5", "8/5", "17/11")
CATALOG_CASES = [(m, None) for m in ("yl2int_vac", "yl1int_vac", "yl1int_gs", "ising2int_vac")] + [
    (f, F(g)) for f in ("mm_n2_phi21", "mm_n3_phi21") for g in CATALOG_G]


class TestConnectionMatch:
    """The connection matrix matched in value and derivatives at x = 1/2."""

    @pytest.mark.parametrize("mid,g", CATALOG_CASES)
    def test_matched_at_full_order(self, mid, g):
        fit = cy.bootstrap(cy.get_model(mid, g))[0]
        assert fit.condition < 1e3 and fit.residual <= 1e-12

    @pytest.mark.parametrize("mid", ["yl2int_vac", "yl1int_vac", "ising2int_vac"])
    def test_short_series_raise_or_meet_the_closed_form(self, mid):
        # every order the match residual accepts gives G within 1e-8
        model = cy.get_model(mid)
        xs = np.linspace(0.001, 0.999, 997)
        want = np.array([model.closed_form(x) for x in xs])
        for M in range(20, 61):
            try:
                got = cy.correlator(model, M)(xs)
            except mn.FitError:
                continue
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8, M


    @pytest.mark.parametrize("g,A,P", [
        (F(1), [[2, 0], [1, -1 / 8]], lambda x: 1 + x),
        (F(5, 4), [[8, 0], [8 / 7, -1 / 32]], lambda x: 1 + 7 * x),
    ], ids=["1", "5/4"])
    def test_polynomial_series_matched(self, g, A, P):
        # the basis series 2F1(a, b; c | x) about 0 is the polynomial P, so the
        # jet's second derivative W0[0, 2] is exactly 0.0
        model = cy.get_model("mm_n2_phi21", g)
        fit = cy.bootstrap(model)[0]
        assert fit.residual <= 1e-12
        assert np.max(np.abs(fit.A - np.array(A))) < 1e-13
        p0, p1 = (2 * float(p) for p in model.prefactor_exponents)
        xs = np.linspace(0.01, 0.99, 99)
        want = xs ** p0 * (1 - xs) ** p1 * (P(xs) / P(1)) ** 2
        assert np.max(np.abs(cy.correlator(model)(xs) - want) / want) < 1e-13


def _channel_args(model):
    """assemble's arguments for the x = 0 and the x = 1 channel."""
    _, bc, b0, b1 = cy.bootstrap(model)
    return ((model.prefactor_exponents, bc.X, b0, bc.X_cross),
            (model.prefactor_exponents, bc.Y, b1, bc.Y_cross))


PLAN_MODELS = [(m, None) for m in ("yl2int_vac", "yl1int_vac", "yl1int_gs", "ising2int_vac")] + [
    (f, g) for f in ("mm_n2_phi21", "mm_n3_phi21") for g in (F(4, 3), F(11, 8), F(13, 8))]
PLAN_GRID = np.r_[1e-10, np.linspace(1e-3, 1 - 1e-3, 1997), 0.5, 1 - 1e-10]
END_MODELS = [("yl2int_vac", None), ("yl1int_vac", None), ("yl1int_gs", None),
              ("ising2int_vac", None), ("mm_n2_phi21", F(7, 5)), ("mm_n3_phi21", F(11, 8))]


def _abs_sum_scale(model, xs):
    """|prefactor| sum_ij |X_ij I_i I_j| at each point, in the channel correlator uses.

    Errors are measured against this sum of absolute terms, so cancellation in
    a non-unitary sum cannot make a wrong value look small.
    """
    _, bc, b0, b1 = cy.bootstrap(model)
    p0, p1 = (2 * float(p) for p in model.prefactor_exponents)
    xs = np.asarray(xs)
    out = np.empty(xs.shape)
    for far, b, X, cross in ((False, b0, bc.X, bc.X_cross), (True, b1, bc.Y, bc.Y_cross)):
        sel = (xs > 0.5) == far
        v = np.abs(fb.evaluate(b, xs[sel]))
        tot = v ** 2 @ np.abs(X)
        for (i, j), t in (cross or {}).items():
            tot += 2 * abs(t) * v[:, i] * v[:, j]
        out[sel] = np.abs(xs[sel]) ** p0 * np.abs(1 - xs[sel]) ** p1 * tot
    return out


def _kernel(model, xs):
    """The series-kernel oracle of G at each x, in the channel correlator uses."""
    args0, args1 = _channel_args(model)
    xs = np.asarray(xs)
    far = xs > 0.5
    out = np.empty(xs.shape)
    out[~far], out[far] = kernel_G(*args0)(xs[~far]), kernel_G(*args1)(xs[far])
    return out


def _kernel_entered(*args):
    raise AssertionError("whole-basis evaluator entered")


class TestScalarPlan:
    """``assemble``'s row-cut sums, alone and through ``correlator``, against the
    series-kernel oracle."""

    @pytest.mark.parametrize("mid,g", PLAN_MODELS)
    def test_plan_matches_array_kernel(self, mid, g):
        model = cy.get_model(mid, g)
        G = cy.correlator(model)
        want = _kernel(model, PLAN_GRID)
        tol = 1e-14 * _abs_sum_scale(model, PLAN_GRID)
        for kind in (float, np.float64):
            got = np.array([G(kind(x)) for x in PLAN_GRID])
            assert np.all(np.abs(got - want) <= tol), kind

    @pytest.mark.parametrize("mid,g", PLAN_MODELS)
    def test_flat_path_is_todays_plan(self, mid, g, monkeypatch):
        # a float in (0, 1) goes from correlator straight to its channel's G:
        # bitwise the sum s = u^n @ C over the row cut of the contiguous real
        # coefficients, then c s_i s_j u^e left to right; an array is bitwise
        # the same sums taken _CHUNK points at a time
        model = cy.get_model(mid, g)
        _, bc, b0, b1 = cy.bootstrap(model)
        p0, p1 = (2 * float(p) for p in model.prefactor_exponents)

        def reference(basis, X, cross, pc, po):
            C = basis._coeffs.real.copy()
            K, a = mn._row_cut(C), basis._alpha.real.tolist()
            n, C = np.arange(K, dtype=float), C[:K]
            terms = [(i, i, c, pc + 2 * a[i]) for i, c in enumerate(np.asarray(X).tolist())]
            terms += [(i, j, 2.0 * t, pc + a[i] + a[j]) for (i, j), t in (cross or {}).items()]

            def plan(u, v):
                if isinstance(u, float):
                    s = (u ** n @ C).tolist()
                else:
                    flat, s = u.ravel(), np.empty((u.size, C.shape[1]))
                    for lo in range(0, u.size, fb._CHUNK):
                        s[lo: lo + fb._CHUNK] = flat[lo: lo + fb._CHUNK, None] ** n @ C
                    s = s.T.reshape((C.shape[1],) + u.shape)
                tot = 0.0
                for i, j, c, e in terms:
                    tot += c * s[i] * s[j] * u ** e
                return v ** po * tot

            return plan

        R0 = reference(b0, bc.X, bc.X_cross, p0, p1)
        R1 = reference(b1, bc.Y, bc.Y_cross, p1, p0)
        G = cy.correlator(model)
        monkeypatch.setattr(fb, "evaluate", _kernel_entered)
        monkeypatch.setattr(mn, "block_sum", _kernel_entered)
        for grid in (PLAN_GRID, np.linspace(0.0503, 0.9497, 2000)):
            want = [R0(x, 1.0 - x) if x <= 0.5 else R1(1.0 - x, x) for x in grid.tolist()]
            for kind in (float, np.float64):
                got = [G(kind(x)) for x in grid]
                assert all(type(v) is float for v in got)
                assert got == want, kind
        near, far = PLAN_GRID[PLAN_GRID <= 0.5], PLAN_GRID[PLAN_GRID >= 0.5]
        G0, G1 = (cy.assemble(*args) for args in _channel_args(model))
        for x in (near, near[:-1].reshape(2, -1)):
            assert np.array_equal(G0(x), R0(x, 1.0 - x))
        for x in (far, far[1:].reshape(-1, 2)):
            assert np.array_equal(G1(x), R1(1.0 - x, x))

    @pytest.mark.parametrize("mid,g", [("yl1int_gs", None), ("mm_n3_phi21", F(13, 8))])
    def test_other_scalars_take_the_array_branch(self, mid, g, monkeypatch):
        # a real scalar that is not a float is one point of a float64 array, bitwise;
        # a complex one raises
        model = cy.get_model(mid, g)
        G = cy.correlator(model)
        monkeypatch.setattr(fb, "evaluate", _kernel_entered)
        for x in (np.float32(0.3), np.float32(0.8), np.float16(0.6), np.array(0.3)):
            got = G(x)
            assert type(got) is float
            assert got == G(np.array([float(x)]))[0]
        for x in (0.3 + 0j, 0.8 + 0j, 0.3 + 0.2j, np.complex64(0.7), np.complex128(0.3)):
            with pytest.raises(ValueError, match="complex"):
                G(x)

    def test_scalar_path_skips_the_series_kernel(self, monkeypatch):
        model, gs = cy.get_model("mm_n2_phi21", F(11, 8)), cy.get_model("yl1int_gs")
        cy.correlator(model), cy.correlator(gs)
        calls = []
        evaluate = fb.evaluate

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(fb, "evaluate", counted)
        G = cy.correlator(model)
        assert isinstance(G(0.3), float) and isinstance(G(0.8), float)
        assert G(np.array([0.3])).shape == (1,)
        assert G(np.array([[0.2, 0.7], [0.5, 0.9]])).shape == (2, 2)
        assert G(np.array([0.3, 0.8], dtype=np.float32)).shape == (2,)
        # complex input and points outside (0, 1) raise before any sum
        for f, x, err in ((G, np.array([0.3 + 0j]), ValueError),
                          (G, np.array([-0.2, 0.3]), cy.OutOfDiskError),
                          (G, np.array([0.3, 1.2]), cy.OutOfDiskError),
                          (cy.correlator(gs), np.array([0, 1]), cy.OutOfDiskError)):
            with pytest.raises(err):
                f(x)
        assert calls == []

    @pytest.mark.parametrize("mid,g", PLAN_MODELS)
    def test_array_plan_matches_scalars_and_kernel(self, mid, g):
        model = cy.get_model(mid, g)
        G = cy.correlator(model)
        got = G(PLAN_GRID)
        tol = 1e-14 * _abs_sum_scale(model, PLAN_GRID)
        assert np.all(np.abs(got - [G(float(x)) for x in PLAN_GRID]) <= tol)
        assert np.all(np.abs(got - _kernel(model, PLAN_GRID)) <= tol)
        # a float32 grid is converted to float64 first, bitwise
        x32 = PLAN_GRID[:-1].astype(np.float32)   # 1 - 1e-10 would round to 1
        assert np.array_equal(G(x32), G(x32.astype(float)))
        # one point past x = 1 raises for the whole array
        with pytest.raises(cy.OutOfDiskError):
            G(np.r_[PLAN_GRID, 1.2])
        empty = G(np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.float64

    @pytest.mark.parametrize("mid,g", END_MODELS)
    def test_channel_arrays_use_the_plan_up_to_the_split(self, mid, g, monkeypatch):
        model = cy.get_model(mid, g)
        args0, args1 = _channel_args(model)
        G0, G1 = cy.assemble(*args0), cy.assemble(*args1)
        G = cy.correlator(model)
        # more points than one power-matrix chunk, u = 1/2 included
        u = np.linspace(1e-3, 0.5, 3 * fb._CHUNK + 5)
        x = 1.0 - u
        ref0, tol0 = kernel_G(*args0)(u), 1e-14 * _abs_sum_scale(model, u)
        ref1, tol1 = kernel_G(*args1)(x), 1e-14 * _abs_sum_scale(model, x)
        monkeypatch.setattr(fb, "evaluate", _kernel_entered)
        near = G0(u)
        assert np.all(np.abs(near - ref0) <= tol0)
        assert np.all(np.abs(G1(x) - ref1) <= tol1)
        # correlator sends each half of a grid to its channel's G and keeps a 2-D shape
        past = x[x > 0.5]
        want = np.r_[near, G1(past)].reshape(-1, 1)
        assert np.array_equal(G(np.r_[u, past].reshape(-1, 1)), want)

    @pytest.mark.parametrize("mid,g", END_MODELS)
    def test_plan_ends_at_the_channel_split(self, mid, g):
        # assemble's G sums 0 < u <= 1/2 and raises outside, on floats and arrays;
        # correlator takes the x = 0 channel up to x = 1/2 and the x = 1 channel past it
        model = cy.get_model(mid, g)
        args0, args1 = _channel_args(model)
        G0, G1 = cy.assemble(*args0), cy.assemble(*args1)
        past = math.nextafter(0.5, 1.0)
        x_past = 0.5 - 2.0 ** -53
        assert 1.0 - x_past == past
        for G, inside, outside in ((G0, (1e-3, 0.3, 0.5), (0.0, past, 0.6, 0.99)),
                                   (G1, (0.999, 0.7, past), (1.0, x_past, 0.4, 0.01))):
            for x in inside:
                v = G(x)
                tol = 1e-14 * _abs_sum_scale(model, [x])[0]
                assert type(v) is float and abs(G(np.array([x]))[0] - v) <= tol
            for x in outside:
                for arg in (x, np.array([x]), np.array([0.5, x])):
                    with pytest.raises(cy.OutOfDiskError):
                        G(arg)
        # u = 1/2 is inside both disks
        assert type(G1(0.5)) is float and G1(np.array([0.5])).shape == (1,)
        G = cy.correlator(model)
        assert G(0.5) == G0(0.5) and G(past) == G1(past)

    @pytest.mark.parametrize("mid,g", END_MODELS)
    def test_float_edges_are_the_channel_gs(self, mid, g):
        # correlator sums a float in its own frame: at the ends of each disk, at the
        # split and at non-finite points it gives assemble's G0 (x <= 1/2) or G1
        # (otherwise, NaN included) to the bit, or raises the same exception type
        model = cy.get_model(mid, g)
        G0, G1 = (cy.assemble(*args) for args in _channel_args(model))
        G = cy.correlator(model)
        for x in (0.0, -0.0, 5e-324, 0.5, math.nextafter(0.5, 1.0), 1.0 - 2.0 ** -53, 1.0,
                  math.nan, math.inf, -math.inf):
            want = G0 if x <= 0.5 else G1
            for kind in (float, np.float64):
                try:
                    expected = want(x)
                except Exception as err:
                    with pytest.raises(type(err)):
                        G(kind(x))
                    continue
                got = G(kind(x))
                assert type(got) is float
                assert got == expected or (math.isnan(got) and math.isnan(expected)), x

    @pytest.mark.parametrize("mid,g", END_MODELS)
    def test_assemble_builds_no_plan(self, mid, g, monkeypatch):
        # assemble's G is the row-cut sum itself: correlator builds one row-cut
        # channel per side and no separate plan, and no G calls the whole-basis
        # evaluator
        model = cy.get_model(mid, g)
        args0, args1 = _channel_args(model)
        assert not hasattr(mn, "channel_plan")
        built = []
        real = mn._channel

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(mn, "_channel", counted)
        G = cy.correlator(model)
        assert len(built) == 2
        monkeypatch.setattr(fb, "evaluate", _kernel_entered)
        G0, G1 = cy.assemble(*args0), cy.assemble(*args1)
        xs = np.linspace(0.05, 0.95, 19)
        assert np.array_equal(G(xs)[xs <= 0.5], G0(xs[xs <= 0.5]))
        assert np.array_equal(G(xs)[xs > 0.5], G1(xs[xs > 0.5]))
        assert G(0.3) == G0(0.3) and G(0.7) == G1(0.7)

    @pytest.mark.parametrize("mid,g", END_MODELS)
    def test_array_outside_the_unit_interval_takes_the_kernel(self, mid, g):
        # outside (0, 1) only the test-local series kernel sums an array; correlator
        # and each channel's G raise OutOfDiskError
        model = cy.get_model(mid, g)
        args0, args1 = _channel_args(model)
        G0, G1, G = cy.assemble(*args0), cy.assemble(*args1), cy.correlator(model)
        for xs in (np.r_[PLAN_GRID, 1.2], np.r_[-0.2, PLAN_GRID]):
            far = xs > 0.5
            assert np.all(np.isfinite(kernel_G(*args0)(xs[~far])))
            assert np.all(np.isfinite(kernel_G(*args1)(xs[far])))
            for f, pts in ((G, xs), (G0, xs[~far]), (G1, xs[far])):
                if np.all((pts > 0) & (pts < 1)):
                    continue
                with pytest.raises(cy.OutOfDiskError):
                    f(pts)

    @pytest.mark.parametrize("mid,g", END_MODELS)
    @pytest.mark.parametrize("x", [0.0, 1.0, 0, 1, math.inf, -math.inf])
    def test_ends_agree_on_every_path(self, mid, g, x):
        # x = 0 and 1 are the channels' centres, u = 0, outside every disk
        G = cy.correlator(cy.get_model(mid, g))
        paths = (lambda: G(x), lambda: G(np.array([x]))[0], lambda: G(np.array([x, 0.3]))[0])
        for p in paths:
            with pytest.raises(cy.OutOfDiskError):
                p()

    @pytest.mark.parametrize("mid,g", END_MODELS)
    def test_row_cut_drops_below_2_to_minus_60(self, mid, g):
        _, _, b0, b1 = cy.bootstrap(cy.get_model(mid, g))
        for b in (b0, b1):
            C = np.abs(b._coeffs.real)
            K = mn._row_cut(b._coeffs.real)
            assert 1 < K < len(C)

            def tail(k, i):
                return math.fsum(C[n, i] * 2.0 ** -n for n in range(k, len(C)))

            assert all(tail(K, i) <= 2.0 ** -60 * C[0, i] for i in range(b.size))
            # one row fewer would drop more in some column
            assert any(tail(K - 1, i) > 2.0 ** -60 * C[0, i] for i in range(b.size))

    def test_undecayed_rows_are_all_kept(self):
        model = cy.get_model("yl1int_gs")
        for b in (model.basis0(20), model.basis1(20)):
            assert mn._row_cut(b._coeffs.real) == 21


class TestNaNPoints:
    """A NaN point raises ValueError on every path; an infinite one stays out of the disk."""

    NANS = [float("nan"), np.float64("nan"), np.float32("nan"), np.array([0.3, np.nan])]

    @pytest.mark.parametrize("x", NANS, ids=["float", "float64", "float32", "array"])
    @pytest.mark.parametrize("mid,g", [("yl2int_vac", None), ("mm_n3_phi21", F(11, 8))])
    def test_nan_raises(self, mid, g, x):
        model = cy.get_model(mid, g)
        _, bc, b0, b1 = cy.bootstrap(model)
        paths = [cy.correlator(model), lambda x: fb.evaluate(b0, x), lambda x: fb.evaluate(b1, x),
                 cy.assemble(model.prefactor_exponents, bc.X, b0, bc.X_cross),
                 cy.assemble(model.prefactor_exponents, bc.Y, b1, bc.Y_cross)]
        for f in paths:
            with pytest.raises(ValueError, match="NaN"):
                f(x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, np.array([0.3, np.inf])])
    def test_inf_is_out_of_disk(self, x):
        model = cy.get_model("yl2int_vac")
        _, _, b0, _ = cy.bootstrap(model)
        args0, args1 = _channel_args(model)
        for f in (cy.correlator(model), lambda x: fb.evaluate(b0, x),
                  cy.assemble(*args0), cy.assemble(*args1)):
            with pytest.raises(cy.OutOfDiskError):
                f(x)


class TestIsingBlocks:
    """The three block solutions equal dressed torus characters."""

    def test_character_proportionality(self):
        model = cy.get_model("ising2int_vac")
        b0 = model.basis0(200)
        specs = {0: cy.CharacterSpec(4, 3, 1, 1),    # exponent -1/16
                 1: cy.CharacterSpec(4, 3, 1, 2),    # exponent  1/16
                 2: cy.CharacterSpec(4, 3, 2, 1)}    # exponent 15/16
        consts = {0: 2 ** (1 / 6), 1: 2 ** (-1 / 3), 2: 2 ** (1 / 6) / 16}
        for i, spec in specs.items():
            for x in (0.1, 0.3, 0.55):
                q = cy.nome_from_x(x)
                dressed = (x ** (-1 / 48) * (1 - x) ** (-1 / 48)
                           * cy.kac_character(spec, q).real)
                block = fb.evaluate(b0, x)[i]
                assert abs(dressed - consts[i] * block) < 1e-10 * abs(dressed)

    def test_bootstrap_weights(self):
        model = cy.get_model("ising2int_vac")
        _, bc, _, _ = cy.bootstrap(model)
        assert np.allclose(bc.X, [1.0, 0.5, 1.0 / 256], rtol=1e-10)
        assert np.allclose(bc.Y, [1.0, 0.5, 1.0 / 256], rtol=1e-10)


class TestReplica3:
    def test_vanishing_block(self):
        for g in (F(11, 8), F(7, 6)):
            model = cy.get_model("mm_n3_phi21", g)
            _, bc, _, _ = cy.bootstrap(model, M=260)
            # channel spaced one step from the identity block is absent
            assert abs(bc.Y[3]) < 1e-6
            assert abs(bc.Y[model.norm_channel] - 1.0) < 1e-12

    def test_channel_duality_with_cross_terms(self):
        model = cy.get_model("mm_n3_phi21", F(11, 8))
        fit, bc, b0, b1 = cy.bootstrap(model, M=260)
        G0 = cy.assemble((0, 0), bc.X, b0, bc.X_cross)
        G1 = cy.assemble((0, 0), bc.Y, b1)
        # each channel's G against the other basis summed past the split by the kernel
        K0, K1 = kernel_G((0, 0), bc.X, b0, bc.X_cross), kernel_G((0, 0), bc.Y, b1)
        assert abs(G0(0.4) - K1(0.4)) < 1e-9 * abs(G0(0.4))
        assert abs(G1(0.55) - K0(0.55)) < 1e-9 * abs(G1(0.55))


class TestOpeTable:
    def test_values(self):
        t = cy.ope_table()
        assert abs(t["C_Phi_tau1_tau1"].value - 2 ** 1.6) < 1e-12
        assert abs(t["C_tauphi_Phi_Lhalf_tauphi"].value - 2 ** 1.2 / 5) < 1e-12
        assert abs(t["C_phi1_tauphi_tauphi"].value - 3.56664j) < 1e-4
        assert abs(t["C_Phi_tauphi_tauphi"].value - (-5.53709)) < 1e-4
        assert abs(t["C_tauphi_Phi_tau1"].value - 4.39104j) < 1e-4

    def test_closed_form_modulus(self):
        t = cy.ope_table()
        c = t["C_Phi_tauphi_tauphi"]
        assert abs(abs(c.value) - c.closed_form_abs) < 1e-10

    def test_block_coefficient_consistency(self):
        t = cy.ope_table()
        model = cy.get_model("yl1int_gs")
        _, bc, _, _ = cy.bootstrap(model)
        x_by_exp = dict(zip(model.block_exponents_0, bc.X))
        y_by_exp = dict(zip(model.block_exponents_1, bc.Y))
        # squared-constant pairings
        assert abs(x_by_exp[F(2, 5)] - t["C_Phi_tauphi_tauphi"].value.real ** 2) < 1e-3
        assert abs(x_by_exp[F(1, 2)] - (t["C_tauphi_Phi_tau1"].value ** 2).real) < 1e-3
        assert abs(x_by_exp[F(9, 10)]
                   - t["C_tauphi_Phi_Lhalf_tauphi"].value.real ** 2) < 1e-5
        y2 = (t["C_Phi_Phi_Phi"].value * t["C_Phi_tauphi_tauphi"].value).real
        assert abs(y_by_exp[F(2, 5)] - y2) < 1e-3
        y3 = (math.sqrt(2) * t["C_phi_phi_phi"].value
              * t["C_phi1_tauphi_tauphi"].value).real
        assert abs(y_by_exp[F(3, 5)] - y3) < 1e-3

    def test_csv_export(self):
        text = cy.ope_table_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["name", "re", "im", "provenance"]
        assert len(rows) == 8


class TestTorus:
    def test_residuals(self):
        res = cy.torus_check([0.005, 0.01, 0.02])
        assert max(res["char_id_residual"]) < 1e-9
        assert max(res["char_phi_residual"]) < 1e-9
        assert max(res["z_residual"]) < 1e-8

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cy.torus_check([0.5])

    def test_exact_expansions(self):
        idc, phic = cy.torus_block_expansions(4)
        assert idc == [1, 0, 1, 1, 1]
        assert phic == [1, 1, 1, 1, 2]
        for order in (4, 6, 8):
            idc, phic = cy.torus_block_expansions(order)
            assert idc == cy.character_coeffs(cy.CharacterSpec(5, 2, 1, 1), order)
            assert phic == cy.character_coeffs(cy.CharacterSpec(5, 2, 1, 2), order)

    def test_expansions_match_horner_composition(self, monkeypatch):
        def horner(p, inner, n):
            acc = [0] * (n + 1)
            for c in reversed(p[: n + 1]):
                acc = pmul_trunc(acc, inner, n)
                acc[0] = acc[0] + c
            return acc

        got = [cy.torus_block_expansions(order) for order in (4, 6, 8)]
        monkeypatch.setattr(cat, "pcompose_trunc", horner)
        assert got == [cy.torus_block_expansions(order) for order in (4, 6, 8)]


class TestWardTaylor:
    def test_level_weights(self):
        d = cy.ward_taylor(F(0), F(0), F(-5, 2), F(3, 10), "d", 4)
        assert d[:3] == [F(3, 10), F(-13, 10), F(1)]
        assert all(v == 0 for v in d[3:])

    def test_symbolic_weight_identity(self):
        sp = pytest.importorskip("sympy")
        x = sp.symbols("x")
        d = cy.ward_taylor(0, 0, sp.Rational(-5, 2), x, "d", 3)
        assert sp.simplify(d[0] - x) == 0
        assert sp.simplify(d[1] + (1 + x)) == 0
        assert sp.simplify(d[2] - 1) == 0

    def test_square_root_pair(self):
        x = 0.25
        d = cy.ward_taylor(-0.5, -0.5, None, x, "d", 3)
        assert abs(d[0] - math.sqrt(x)) < 1e-14
        assert abs(d[1] + (1 + x) / (2 * math.sqrt(x))) < 1e-14

    def test_geometric_family(self):
        # exponents -1 on both factors: 1/((z-1)(z-x)) = (sum z^i)(sum z^j x^-(j+1))
        x = F(1, 3)
        d = cy.ward_taylor(F(-2), F(-2), None, x, "d", 3)
        assert d[0] == 1 / x
        for p in range(4):
            assert d[p] == sum(x ** -(j + 1) for j in range(p + 1))

    def test_a_family_binomial_oracle(self):
        mp = pytest.importorskip("mpmath")
        x = 0.37
        m2, m3 = -0.5, 0.25
        a = cy.ward_taylor(m2, m3, None, x, "a", 5)
        ref = mp.taylor(lambda z: (1 - z) ** (m2 + 1) * (1 - x * z) ** (m3 + 1), 0, 5)
        for mine, want in zip(a, ref):
            assert abs(complex(mine) - complex(want)) < 1e-12

    def test_b_family_oracle(self):
        mp = pytest.importorskip("mpmath")
        x = 0.3
        m3, m4 = -0.5, -1.5
        b = cy.ward_taylor(None, m3, m4, x, "b", 4)
        ref = mp.taylor(lambda w: (w + 1 - x) ** (m3 + 1) * (1 + w) ** (m4 + 1), 0, 4)
        for mine, want in zip(b, ref):
            assert abs(complex(mine) - complex(want)) < 1e-12

    def test_c_family_oracle_without_m3(self):
        mp = pytest.importorskip("mpmath")
        m2, m4 = -0.5, -1.5
        for x in (0.3, 0.7):
            c = cy.ward_taylor(m2, None, m4, x, "c", 4)
            ref = mp.taylor(lambda z: (z - 1) ** (m2 + 1) * z ** (m4 + 1), x, 4)
            for mine, want in zip(c, ref):
                assert abs(complex(mine) - complex(want)) < 1e-12

    def test_d_family_principal_branch_both_signs_of_x(self):
        # (z-1)^(1/2) (z-x)^(5/4) about z = 0: at x < 0 the prefactor is the
        # principal (-x)^(5/4), real and positive
        mp = pytest.importorskip("mpmath")
        m2, m3 = -0.5, 0.25
        for x in (-0.4, 0.3):
            d = cy.ward_taylor(m2, m3, None, x, "d", 4)
            ref = mp.taylor(lambda z: (z - 1) ** (m2 + 1) * (z - x) ** (m3 + 1), 0, 4)
            for mine, want in zip(d, ref):
                assert abs(complex(mine) - complex(want)) < 1e-12

    def test_integer_exponents_are_exact(self):
        x = F(3, 10)
        a = cy.ward_taylor(0, 0, None, x, "a", 4)
        assert a == [1, F(-13, 10), F(3, 10), 0, 0]
        # oracles: the integer-power polynomials in z, re-centred exactly
        # (z-x)^2 z about z = 1 and (z-1) z^2 about z = x
        b = cy.ward_taylor(None, 1, 0, x, "b", 4)
        b_poly = pmul(pmul([-x, 1], [-x, 1]), [0, 1])
        assert b == psub_affine(b_poly, 1, 1) + [0]
        c = cy.ward_taylor(0, None, 1, x, "c", 4)
        c_poly = pmul(pmul([-1, 1], [0, 1]), [0, 1])
        assert c == psub_affine(c_poly, x, 1) + [0]
        for out in (a, b, c):
            assert all(isinstance(v, (int, F)) for v in out)

    def test_replica3_reference_polynomials(self):
        for x in (F(3, 7), F(2), F(1, 2)):
            assert cy.n3_ward_consistency(x)

    def test_replica3_printed_degrees(self):
        from cyclorb.polyring import degree
        for m, p in cat.N3_WARD_POLYNOMIALS.items():
            assert degree(p) == 4


class TestBaseline:
    def test_slope_coefficient(self):
        slope, entropy, shape = cy.ceff_baseline(2)
        assert abs(slope - 0.1) < 1e-15

    def test_maximum_at_midpoint(self):
        _, entropy, _ = cy.ceff_baseline(2)
        s = np.linspace(0.05, 0.95, 91)
        vals = entropy(s, 16)
        assert np.argmax(vals) == len(s) // 2

    def test_differs_from_model_prediction(self):
        model = cy.get_model("yl1int_gs")
        s = np.linspace(0.2, 0.8, 13)
        pred = cy.predict_on_circle(model, s, dressing_power=-1 / 20)
        _, _, shape = cy.ceff_baseline(2)
        base = shape(s, 16)
        # best single-constant match still deviates > 5 percent somewhere
        c = float(pred @ base / (base @ base))
        rel = np.abs(pred - c * base) / np.abs(pred)
        assert np.max(rel) > 0.05
