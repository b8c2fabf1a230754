"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The criteria pin every tolerance; the lattice criteria reuse the
session fixtures from conftest.py.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

import cyclorb as cy
from cyclorb import catalog as cat, rsos
from cyclorb import yanglee_chain as ylc


def report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS  ({detail})")


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_riemann_schemes():
    """Indicial analysis of all six catalog operators, exact rationals."""
    t0 = time.time()
    refs = {
        "yl2int_vac": (((F(3, 20), F(11, 20)),) * 2 + ((F(0), F(-2, 5)),)),
        "yl1int_vac": ((F(2, 5), F(3, 10)), (F(4, 5), F(2, 5)), (F(-2, 5), F(-1, 2))),
        "yl1int_gs": ((F(1, 2), F(2, 5), F(9, 10)), (F(4, 5), F(2, 5), F(3, 5)),
                      (F(1, 10), F(-3, 10), F(-2, 5))),
    }
    for mid, cols in refs.items():
        model = cy.get_model(mid)
        assert cy.validate_scheme(model)
        assert model.scheme.column_sets() == tuple(tuple(sorted(c)) for c in cols)

    # Ising two-interval: the true scheme of the operator.  The reference
    # table lists the same nine numbers transposed, with the opposite sign
    # convention at infinity; both multisets are asserted.
    ising = cy.get_model("ising2int_vac")
    assert cy.validate_scheme(ising)
    true_cols = ising.scheme.column_sets()
    assert true_cols == (
        (F(-1, 16), F(1, 16), F(15, 16)),
        (F(-1, 16), F(1, 16), F(15, 16)),
        (F(0), F(1, 8), F(1)),
    )
    reference_table = [
        [F(-1, 16), F(1, 16), F(15, 16)],
        [F(-1, 16), F(1, 16), F(15, 16)],
        [F(0), F(-1, 8), F(-1)],
    ]
    transpose_flip = tuple(
        tuple(sorted(reference_table[point][c] * (-1 if point == 2 else 1)
                     for c in range(3)))
        for point in range(3)
    )
    assert transpose_flip == true_cols

    # parametric families: the root formulas are degree-(1,1) rational
    # functions of g, so exact agreement at five rational couplings proves
    # the identity; checked per column against the stored formulas.
    for gval in (F(11, 8), F(7, 6), F(13, 8), F(9, 8), F(23, 16)):
        m2 = cy.get_model("mm_n2_phi21", gval)
        assert cy.validate_scheme(m2)
        m3 = cy.get_model("mm_n3_phi21", gval)
        assert cy.validate_scheme(m3)
        c0, c1, cinf = cat.mm_n3_scheme_columns(gval)
        assert sorted(cy.indicial_exponents(m3.ode)) == sorted(c0)
        assert sorted(cy.indicial_exponents(cy.recenter_to_one(m3.ode))) == sorted(c1)
        assert sorted(cy.exponents_at_infinity(m3.ode)) == sorted(cinf)
    dt = time.time() - t0
    assert dt < 1.0
    report(1, f"six operators, exact rational schemes, {dt:.2f}s")


def test_criterion_1_symbolic_g():
    """Fully symbolic scheme check for the parametric families."""
    sp = pytest.importorskip("sympy")
    g = sp.symbols("g", positive=True)
    th = sp.symbols("theta")
    # replica-2: indicial polynomial of theta(theta+c-1) - x (theta+a)(theta+b)
    a, b, c = 2 - 3 * g, sp.Rational(3, 2) - 2 * g, sp.Rational(3, 2) - g
    p0 = sp.expand(th * (th + c - 1))
    roots = sp.solve(sp.Eq(p0, 0), th)
    shift = -2 * (3 * g - 2) / 4
    shifted = {sp.simplify(r + shift) for r in roots}
    want = {sp.simplify((2 - 3 * g) / 2), sp.simplify((1 - g) / 2)}
    assert shifted == want
    # replica-3: the stored theta polynomials accept symbolic g directly
    polys = cat._mm_n3_polys(g)
    p0 = sum(sp.nsimplify(coef) * th**i for i, coef in enumerate(polys[0]))
    roots = set(sp.solve(sp.Eq(sp.expand(p0), 0), th))
    want = {sp.nsimplify((g - 1) / g), sp.nsimplify((4 * g - 6) / (3 * g)),
            sp.nsimplify((2 * g - 1) / g), sp.nsimplify((5 * g - 6) / (3 * g))}
    assert {sp.simplify(r) for r in roots} == {sp.simplify(w) for w in want}
    report("1b", "symbolic-g indicial roots for both parametric families")


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_series_coefficients():
    """Exact rational series for the exponent-1/2 block of yl1int_gs.

    The independently derived values (plug-in oracle, see the frobenius
    tests) are a_1 = -9/55, a_2 = -49/550.  The reference constants 256/55
    and 24446/1925 satisfy only an index-shifted variant of the recursion
    and are covered by a strict expected failure in tests/test_frobenius.py;
    the traceability assertions below reproduce them from that variant.
    """
    t0 = time.time()
    model = cy.get_model("yl1int_gs")
    s = cy.frobenius_series(model.ode, F(1, 2), 6)
    assert s.exact_coeffs[0] == 1
    assert s.exact_coeffs[1] == F(-9, 55)
    assert s.exact_coeffs[2] == F(-49, 550)
    # provenance: the quoted constants do follow from the index-shifted form
    p = [list(q) for q in model.ode.polys]
    from cyclorb.polyring import peval
    alt_a1 = -peval(p[1], F(1, 2) + 1) / peval(p[0], F(1, 2) + 1)
    assert alt_a1 == F(256, 55)
    alt_a2 = (peval(p[1], F(3, 2)) * peval(p[1], F(5, 2))
              - peval(p[0], F(3, 2)) * peval(p[2], F(5, 2))) \
        / (peval(p[0], F(3, 2)) * peval(p[0], F(5, 2)))
    assert alt_a2 == F(24446, 1925)
    dt = time.time() - t0
    assert dt < 1.0
    report(2, f"a1 = -9/55, a2 = -49/550 exact; quoted constants traced to the "
              f"index-shifted recursion, {dt:.2f}s")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_connection_matrix():
    t0 = time.time()
    model = cy.get_model("yl1int_gs")
    fit, _, _, _ = cy.bootstrap(model, M=200)
    assert fit.residual < 1e-9
    # entrywise agreement at the five significant digits of the reference
    for got, want in zip(fit.A.ravel(), model.expected_A.ravel()):
        assert abs(got - want) <= 1.1 * 10.0 ** (math.floor(math.log10(abs(want))) - 5)
    dt = time.time() - t0
    assert dt < 10.0
    report(3, f"3x3 connection matrix entrywise to 5 significant digits, "
              f"residual {fit.residual:.1e}, {dt:.1f}s")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_bootstrap_coefficients():
    t0 = time.time()
    model = cy.get_model("yl1int_gs")
    _, bc, _, _ = cy.bootstrap(model, M=200)
    want_X = np.array([model.expected_X[e] for e in model.block_exponents_0])
    want_Y = np.array([model.expected_Y[e] for e in model.block_exponents_1])
    assert np.max(np.abs(bc.X - want_X) / np.abs(want_X)) < 1e-5 * 5
    assert np.max(np.abs(bc.Y - want_Y) / np.abs(want_Y)) < 1e-5 * 5
    model2 = cy.get_model("yl2int_vac")
    _, bc2, _, _ = cy.bootstrap(model2, M=200)
    assert abs(bc2.X[1] - 2 ** (16 / 5)) < 1e-10 * 2 ** (16 / 5)
    assert abs(bc2.Y[1] - 2 ** (16 / 5)) < 1e-10 * 2 ** (16 / 5)
    dt = time.time() - t0
    assert dt < 10.0
    report(4, f"X = {np.round(bc.X, 5)}, Y = {np.round(bc.Y, 5)}, "
              f"2x2 crossed channel = 2^(16/5) to 1e-10, {dt:.1f}s")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_ope_cross_checks():
    t0 = time.time()
    table = cy.ope_table()
    model = cy.get_model("yl1int_gs")
    _, bc, _, _ = cy.bootstrap(model, M=160)
    x_by_exp = dict(zip(model.block_exponents_0, bc.X))
    y_by_exp = dict(zip(model.block_exponents_1, bc.Y))

    c_desc = table["C_tauphi_Phi_Lhalf_tauphi"].value.real
    assert abs(x_by_exp[F(9, 10)] - c_desc**2) < 5e-5 * c_desc**2
    assert abs(c_desc - 0.459479) < 1e-6
    assert abs(x_by_exp[F(9, 10)] - 0.211121) < 1e-5

    y2 = (table["C_Phi_Phi_Phi"].value * table["C_Phi_tauphi_tauphi"].value).real
    assert abs(y_by_exp[F(2, 5)] - y2) < 1e-4 * abs(y2)

    got = sorted([x_by_exp[F(2, 5)], x_by_exp[F(1, 2)]])
    want = sorted([(table["C_Phi_tauphi_tauphi"].value ** 2).real,
                   (table["C_tauphi_Phi_tau1"].value ** 2).real])
    for a, b in zip(got, want):
        assert abs(a - b) < 1e-4 * abs(b)
    dt = time.time() - t0
    assert dt < 1.0
    report(5, f"X3 = C_desc^2, Y2 = C_PhiPhiPhi * C_Phi_tt, squared-value "
              f"pairing of (30.6594, -19.2813), {dt:.1f}s")


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_torus_identities():
    t0 = time.time()
    res = cy.torus_check([0.005, 0.01, 0.02])
    assert max(res["char_id_residual"]) < 1e-8
    assert max(res["char_phi_residual"]) < 1e-8
    assert max(res["z_residual"]) < 1e-8
    idc, phic = cy.torus_block_expansions(4)
    assert idc == [1, 0, 1, 1, 1]
    assert phic == [1, 1, 1, 1, 2]
    assert cy.character_coeffs(cy.CharacterSpec(5, 2, 1, 1), 4) == [1, 0, 1, 1, 1]
    assert cy.character_coeffs(cy.CharacterSpec(5, 2, 1, 2), 4) == [1, 1, 1, 1, 2]
    dt = time.time() - t0
    assert dt < 5.0
    report(6, f"character/block residuals < 1e-8 at q = 0.005, 0.01, 0.02; "
              f"exact integer expansions through order 4, {dt:.1f}s")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_hypergeometric_identities():
    t0 = time.time()
    from cyclorb import specfun as sf

    rng = np.random.default_rng(3)
    a, b, c = 0.7, 1.1, 1.4
    d = c - a - b
    for x in rng.uniform(0.42, 0.58, 20):
        lhs = sf._hyp_series(a, b, c, x)
        A, _ = cy.connection_2x2(cy.HypParams(a, b, c))
        j1 = sf._hyp_series(a, b, 1 - d, 1 - x)
        j2 = (1 - x) ** d * sf._hyp_series(c - a, c - b, 1 + d, 1 - x)
        assert abs(lhs - (A[0, 0] * j1 + A[0, 1] * j2)) < 1e-11
        lhs2 = sf._hyp_series(a, b, 1 - d, 1 - x)
        rhs2 = x ** (1 - c) * sf._hyp_series(a - c + 1, b - c + 1, 1 - d, 1 - x)
        assert abs(lhs2 - rhs2) < 1e-11
    aa, bb = 0.8, 0.7
    for x in rng.uniform(0.05, 0.55, 20):
        u = 4 * math.sqrt(x) / (1 + math.sqrt(x)) ** 2
        lhs = cy.hyp2f1(cy.HypParams(aa, bb, aa - bb + 1), x)
        rhs = (1 + math.sqrt(x)) ** (-2 * aa) * cy.hyp2f1(
            cy.HypParams(aa, aa - bb + 0.5, 2 * aa - 2 * bb + 1), u)
        assert abs(lhs - rhs) < 1e-11
    model = cy.get_model("yl2int_vac")
    G = cy.correlator(model, M=200)
    for x in (0.3, 0.5, 0.7):
        assert abs(G(x) - model.closed_form(x)) < 1e-9
    dt = time.time() - t0
    assert dt < 5.0
    report(7, f"connection, argument-swap, and quadratic identities < 1e-11 "
              f"on 20 samples; closed form vs assembly < 1e-9, {dt:.1f}s")


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_lattice_algebra():
    t0 = time.time()
    L = 6
    basis = rsos.enumerate_heights(4, L)
    es = [rsos.temperley_lieb_generator(basis, 3, i).toarray() for i in range(L)]
    beta = 2 * math.cos(3 * math.pi / 5)
    for i in range(L):
        assert np.max(np.abs(es[i] @ es[i] - beta * es[i])) < 1e-12
        j = (i + 1) % L
        assert np.max(np.abs(es[i] @ es[j] @ es[i] - es[i])) < 1e-12
        assert np.max(np.abs(es[j] @ es[i] @ es[j] - es[j])) < 1e-12
        for j2 in range(L):
            if 2 <= abs(i - j2) <= L - 2:
                assert np.max(np.abs(es[i] @ es[j2] - es[j2] @ es[i])) < 1e-12
    for m in range(2, 7):
        for length in range(2, 17, 2):
            assert rsos.enumerate_heights(m, length).dim == rsos.basis_count(m, length)
    dt = time.time() - t0
    assert dt < 10.0
    report(8, f"Temperley-Lieb relations at (4,3), L=6 to 1e-12; basis counts "
              f"match adjacency traces for m <= 6, L <= 16, {dt:.1f}s")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_vacuum_entropy_scaling(yl_chain_16, yl_vacuum_curves_16):
    """Fitted twist dimensions from the log-sine regression at L = 16.

    The dressed q = 3 twist is fitted directly.  The bare twist is the exact
    sine-transform mixture x1 t1 + x3 t3 (even components vanish); its
    scaling dimension is carried by the dominant t1 channel, which is fitted
    after the exact decomposition is verified.  For N = 2 a two-channel
    regression on the raw bare curve is asserted as well.
    """
    t0 = time.time()
    curves = yl_vacuum_curves_16

    h = rsos.fit_twist_dimension(curves[(2, "3")])
    assert abs(h - (-11 / 40)) / (11 / 40) < 0.03
    h_n3 = rsos.fit_twist_dimension(curves[(3, "3")])
    assert abs(h_n3 - (-22 / 45)) / (22 / 45) < 0.05

    # exact decomposition of the bare insertion over the dressed family:
    # bare = sum_{q1, q2 in (1, 3)} x_q1 x_q2 t_(q1, q2) at every ell
    rds = [rsos.reduced_density(yl_chain_16["basis"], yl_chain_16["vacuum"], 0, ell)
           for ell in curves[(2, "bare")]["ell"]]
    for N in (2, 3):
        bare = curves[(N, "bare")]["trace"]
        x = rsos.bare_weights(4, 3, N)
        assert abs(x[2]) < 1e-12
        assert abs(x[4]) < 1e-12
        mixed = np.array([sum(x[q1] * x[q2] * rsos.renyi_twisted(rd, N, 4, 3, (q1, q2))[0]
                              for q1 in (1, 3) for q2 in (1, 3)) for rd in rds])
        assert np.max(np.abs(bare - mixed) / np.abs(bare)) < 1e-10

    hb = rsos.fit_twist_dimension(curves[(2, "1")])
    assert abs(hb - (-3 / 8)) / (3 / 8) < 0.03
    hb3 = rsos.fit_twist_dimension(curves[(3, "1")])
    assert abs(hb3 - (-5 / 9)) / (5 / 9) < 0.05

    # two-channel regression directly on the raw N = 2 bare curve
    from scipy.optimize import least_squares
    c = curves[(2, "bare")]
    L = 16
    sel = slice(1, 14)
    S = (L / np.pi) * np.sin(np.pi * c["ell"][sel] / L)
    y = c["trace"].real[sel]

    def resid(p):
        A, hA, B, hB = p
        return (A * S ** (-4 * hA) + B * S ** (-4 * hB) - y) / np.abs(y)

    sol = least_squares(resid, [1.0, -0.4, -0.3, -0.275], xtol=1e-14, ftol=1e-14)
    h_two = min(sol.x[1], sol.x[3])
    assert abs(h_two - (-3 / 8)) / (3 / 8) < 0.03
    dt = time.time() - t0
    assert dt < 300.0
    report(9, f"fitted dimensions: q=3 {h:.4f} (-11/40), bare-channel {hb:.4f} "
              f"(-3/8), N=3: {h_n3:.4f} (-22/45), {hb3:.4f} (-5/9); "
              f"two-channel bare fit {h_two:.4f}, {dt:.0f}s shared")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_ground_state_overlay(yl_ground_overlay):
    """Dressed ground-state curve against the bootstrap prediction.

    One global multiplicative constant relates the L-rescaled lattice traces
    to the continued correlator; the per-size RMS decreases monotonically
    and the effective-central-charge baseline is far worse.
    """
    t0 = time.time()
    data = yl_ground_overlay
    hphi = -3 / 8
    ys = {L: data[L]["dressed"] * (L / (2 * np.pi)) ** (4 * hphi) for L in data}
    ally = np.concatenate([ys[L] for L in sorted(data)])
    allp = np.concatenate([data[L]["pred"] for L in sorted(data)])
    C = float(ally @ allp / (allp @ allp))
    rms = {}
    for L in sorted(data):
        rel = (ys[L] - C * data[L]["pred"]) / (C * data[L]["pred"])
        rms[L] = float(np.sqrt(np.mean(rel**2)))
    assert rms[16] < 0.10
    assert rms[10] > rms[12] > rms[14] > rms[16]

    # the raw bare-twist curve also tracks the prediction at L = 16
    const_b, rms_bare = rsos.overlay_fit(data[16]["bare"], data[16]["pred"])
    assert rms_bare < 0.10

    # effective-central-charge baseline is incompatible
    _, _, shape = cy.ceff_baseline(2)
    base = shape(data[16]["s"], 16)
    _, rms_base = rsos.overlay_fit(data[16]["dressed"], base)
    assert rms_base > rms[16]
    _, rms_base_bare = rsos.overlay_fit(data[16]["bare"], base)
    assert rms_base_bare > rms_bare
    dt = time.time() - t0
    assert dt < 300.0
    report(10, f"RMS {rms[10]:.3f} > {rms[12]:.3f} > {rms[14]:.3f} > "
               f"{rms[16]:.3f} (monotone, < 0.10); bare RMS {rms_bare:.3f}; "
               f"baseline RMS {rms_base:.3f}, {dt:.0f}s shared")


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_imaginary_field_chain():
    t0 = time.time()
    H = ylc.ising_imaginary_chain(0.8, 0.03, 10)  # adjointness checked at build
    P = ylc.parity_diagonal(10)
    assert np.max(np.abs(P[:, None] * H * P[None, :] - H.conj().T)) < 1e-12

    hcs = {}
    for L in (6, 8, 10):
        hc = ylc.critical_field(0.8, L, tol=1e-6)
        hcs[L] = hc
        assert not ylc.levels_merged(0.8, 0.9 * hc, L)
        assert ylc.levels_merged(0.8, 1.1 * hc, L)

    st = ylc.crossover_study(0.8, 10, [0.1, 0.99])
    d_lo = ylc.midpoint_second_difference(st["profiles"][0.1])
    d_hi = ylc.midpoint_second_difference(st["profiles"][0.99])
    assert np.sign(d_lo) != np.sign(d_hi)
    assert d_lo < 0 < d_hi
    dt = time.time() - t0
    assert dt < 600.0
    report(11, f"P H P = H+ to 1e-12; h_c = {hcs[6]:.4f}, {hcs[8]:.4f}, "
               f"{hcs[10]:.4f} for L = 6, 8, 10; midpoint curvature "
               f"{d_lo:.4f} -> {d_hi:.4f}, {dt:.0f}s")


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_ward_coefficients():
    t0 = time.time()
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    d = cy.ward_taylor(0, 0, sp.Rational(-5, 2), x, "d", 4)
    assert sp.simplify(d[0] - x) == 0
    assert sp.simplify(d[1] + (1 + x)) == 0
    assert sp.simplify(d[2] - 1) == 0
    assert d[3] == 0 and d[4] == 0

    from cyclorb.polyring import degree
    for m, poly in cat.N3_WARD_POLYNOMIALS.items():
        assert degree(poly) == 4
    for xv in (F(3, 7), F(1, 2), F(2)):
        assert cy.n3_ward_consistency(xv)
    dt = time.time() - t0
    assert dt < 1.0
    report(12, f"weight vector [x, -(1+x), 1] symbolically; replica-3 "
               f"polynomial table consistent at printed degrees, {dt:.1f}s")
