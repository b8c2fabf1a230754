"""Gamma, hypergeometric connection formulas, characters, nome map."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import cyclorb as cy
from cyclorb import specfun as sf

mp = pytest.importorskip("mpmath")
mp.mp.dps = 30


class TestGamma:
    def test_values(self):
        assert abs(cy.gamma(1.0) - 1.0) < 1e-15
        assert abs(cy.gamma(0.5) - math.sqrt(math.pi)) < 1e-15

    def test_reflection(self):
        v = cy.gamma(0.2) * cy.gamma(0.8)
        assert abs(v - math.pi / math.sin(math.pi / 5)) < 1e-12

    def test_random_sample_against_mpmath(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        n = 0
        while n < 100:
            x = rng.uniform(-20, 20)
            if x <= 0.5 and abs(x - round(x)) < 1e-3:
                continue
            n += 1
            ref = float(mp.gamma(x))
            worst = max(worst, abs(cy.gamma(x) - ref) / abs(ref))
        assert worst < 1e-12

    def test_recurrence_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(0.5, 20)
            lhs = cy.gamma(x + 1)
            rhs = x * cy.gamma(x)
            assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_near_negative_integers(self):
        # near the poles, where Gamma by reflection would lose digits to sin(pi x)
        for x in (-13.999, -19.996):
            ref = float(mp.gamma(x))
            assert abs(cy.gamma(x) - ref) / abs(ref) < 1e-14, x

    def test_pole(self):
        with pytest.raises(cy.PoleError):
            cy.gamma(-3)

    def test_complex_argument_rejected(self):
        with pytest.raises(TypeError):
            cy.gamma(1 + 1j)

    def test_large_modulus(self):
        for x in (35.5, 150.25):
            ref = float(mp.gamma(x))
            assert abs(cy.gamma(x) - ref) / abs(ref) < 1e-13, x


class TestGammaRatio:
    def test_half(self):
        assert abs(cy.gamma_ratio(0.5) - 1.0) < 1e-15

    def test_inverse_identity(self):
        x = 0.3
        assert abs(cy.gamma_ratio(x) * cy.gamma_ratio(1 - x) - 1.0) < 1e-13

    def test_zero_at_positive_integers(self):
        assert cy.gamma_ratio(3) == 0

    def test_pole_signaled(self):
        with pytest.raises(cy.PoleError):
            cy.gamma_ratio(-2)

    def test_two_interval_coefficient(self):
        # gamma-factor assembly of the crossed-channel coefficient = 2^(16/5)
        g = cy.gamma_ratio
        a, b, c, d = 0.7, 1.1, 1.4, -0.4
        X2 = -g(c) / (1 - c) ** 2 * g(1 - d) * g(1 - a) * g(1 - b)
        assert abs(X2.real - 2 ** 3.2) < 1e-10


class TestHyp2f1:
    def test_at_zero(self):
        assert cy.hyp2f1(cy.HypParams(0.3, 0.7, 1.9), 0.0) == 1.0

    def test_series_region(self):
        p = cy.HypParams(0.7, 1.1, 1.4)
        ref = complex(mp.hyp2f1(0.7, 1.1, 1.4, 0.45))
        assert abs(cy.hyp2f1(p, 0.45) - ref) / abs(ref) < 1e-13

    def test_connection_region(self):
        p = cy.HypParams(0.7, 1.1, 1.4)
        ref = complex(mp.hyp2f1(0.7, 1.1, 1.4, 0.93))
        assert abs(cy.hyp2f1(p, 0.93) - ref) / abs(ref) < 1e-12

    def test_overlap_consistency(self):
        p = cy.HypParams(0.8, 0.7, 1.1)
        direct = sf._hyp_series(0.8, 0.7, 1.1, 0.5)
        via = sf._hyp_via_connection(p, 0.5)
        assert abs(direct - via) < 1e-11

    def test_outside_rejected(self):
        with pytest.raises(sf.DomainError):
            cy.hyp2f1(cy.HypParams(0.3, 0.4, 0.9), 2.5)

    def test_degenerate_d_signaled(self):
        # d = c - a - b = -3 integer: the 1-x connection degenerates
        with pytest.raises(sf.DegenerateConnectionError):
            cy.hyp2f1(cy.HypParams(-1 / 3, 8 / 3, -2 / 3), 0.9)

    def test_quadratic_transformation(self):
        a, b = 0.8, 0.7
        for x in np.linspace(0.05, 0.55, 10):
            u = 4 * math.sqrt(x) / (1 + math.sqrt(x)) ** 2
            lhs = cy.hyp2f1(cy.HypParams(a, b, a - b + 1), x)
            rhs = (1 + math.sqrt(x)) ** (-2 * a) * cy.hyp2f1(
                cy.HypParams(a, a - b + 0.5, 2 * a - 2 * b + 1), u)
            assert abs(lhs - rhs) < 1e-11

    def test_euler_identity_on_crossed_argument(self):
        # 2F1(a,b;1-d|1-x) = x^(1-c) 2F1(a-c+1,b-c+1;1-d|1-x)
        a, b, c = 0.7, 1.1, 1.4
        d = c - a - b
        for x in np.linspace(0.4, 0.9, 11):
            lhs = sf._hyp_series(a, b, 1 - d, 1 - x)
            rhs = x ** (1 - c) * sf._hyp_series(a - c + 1, b - c + 1, 1 - d, 1 - x)
            assert abs(lhs - rhs) < 1e-11


# yl2int_vac, yl1int_vac, and mm_n2_phi21 at g = 8/7, 13/8 and 17/11
CONNECTION_CASES = [(F(7, 10), F(11, 10), F(7, 5)), (F(4, 5), F(7, 10), F(11, 10))]
CONNECTION_CASES += [(2 - 3 * g, F(3, 2) - 2 * g, F(3, 2) - g) for g in (F(8, 7), F(13, 8), F(17, 11))]


class TestConnection2x2:
    def test_inverse(self):
        for a, b, c in CONNECTION_CASES:
            A, Ainv = cy.connection_2x2(cy.HypParams(a, b, c))
            assert np.max(np.abs(A @ Ainv - np.eye(2))) < 1e-12, (a, b, c)

    def test_basis_relation(self):
        a, b, c = 0.7, 1.1, 1.4
        d = c - a - b
        A, _ = cy.connection_2x2(cy.HypParams(a, b, c))
        x = 0.5
        I1 = sf._hyp_series(a, b, c, x)
        I2 = x ** (1 - c) * sf._hyp_series(b - c + 1, a - c + 1, 2 - c, x)
        J1 = sf._hyp_series(a, b, a + b - c + 1, 1 - x)
        J2 = (1 - x) ** d * sf._hyp_series(c - a, c - b, d + 1, 1 - x)
        assert abs(I1 - (A[0, 0] * J1 + A[0, 1] * J2)) < 1e-11
        assert abs(I2 - (A[1, 0] * J1 + A[1, 1] * J2)) < 1e-11

    def test_degenerate_rejected(self):
        with pytest.raises(sf.DegenerateConnectionError):
            cy.connection_2x2(cy.HypParams(0.25, 0.25, 1.5))  # d = 1

    def test_matches_numerical_fit(self):
        for a, b, c in CONNECTION_CASES:
            ode = cy.theta_form([[a * b], [-c, a + b + 1], [F(0), F(-1), F(1)]])
            b0 = cy.basis_for(ode, [F(0), 1 - c], M=200)
            b1 = cy.basis_for(cy.recenter_to_one(ode), [F(0), c - a - b], M=200)
            fit = cy.fit_connection(b0, b1)
            A, _ = cy.connection_2x2(cy.HypParams(float(a), float(b), float(c)))
            assert np.max(np.abs(fit.A - A)) < 1e-13 * np.max(np.abs(A)), (a, b, c)


class TestCharacters:
    def test_lee_yang_expansions(self):
        assert cy.character_coeffs(cy.CharacterSpec(5, 2, 1, 1), 4) == [1, 0, 1, 1, 1]
        assert cy.character_coeffs(cy.CharacterSpec(5, 2, 1, 2), 4) == [1, 1, 1, 1, 2]

    def test_nonnegative_integer_coefficients(self):
        for (p, pp) in ((5, 2), (4, 3)):
            for r in range(1, pp):
                for s in range(1, p):
                    coeffs = cy.character_coeffs(cy.CharacterSpec(p, pp, r, s), 20)
                    assert all(isinstance(c, int) and c >= 0 for c in coeffs)

    def test_labels_out_of_range(self):
        with pytest.raises(ValueError):
            cy.CharacterSpec(5, 2, 2, 1)
        with pytest.raises(ValueError):
            cy.CharacterSpec(4, 2, 1, 1)  # not coprime

    def test_eta_prefactor_limit(self):
        q = 1e-10
        assert abs(cy.dedekind_eta(q) * q ** (-1 / 24) - 1.0) < 1e-9

    def test_eta_product_oracle(self):
        q = 0.1
        prod = q ** (1 / 24)
        n = 1
        while True:
            t = 1 - q**n
            prod *= t
            if abs(1 - t) < 1e-18:
                break
            n += 1
        assert abs(cy.dedekind_eta(q) - prod) < 1e-15


class TestNomeMap:
    def test_leading(self):
        q = 1e-12
        assert abs(cy.x_from_nome(q) / (16 * math.sqrt(q)) - 1.0) < 1e-5

    def test_self_dual_point(self):
        assert abs(cy.x_from_nome(math.exp(-2 * math.pi)) - 0.5) < 1e-12

    def test_monotone(self):
        # strictly increasing on the range where 1 - x is resolvable in doubles
        qs = np.linspace(1e-6, 0.5, 40)
        xs = [cy.x_from_nome(q) for q in qs]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_round_trip(self):
        for x in (0.1, 0.3, 0.62):
            q = cy.nome_from_x(x)
            assert abs(cy.x_from_nome(q) - x) < 1e-12

    def test_agm_nome_against_mpmath(self):
        # mpmath's qfrom is Jacobi's nome; this repository's q is its square
        for x in (1e-4, 0.01, 0.3, 0.5, 0.9, 0.97, 0.999):
            q = cy.nome_from_x(x)
            want = float(mp.qfrom(m=x) ** 2)
            assert abs(q - want) <= 3e-14 * want
            assert abs(cy.x_from_nome(q) - x) <= 1e-14 * x

    def test_against_theta_quotient(self):
        # independent modular-lambda oracle via Jacobi theta functions
        q = cy.nome_from_x(0.3)
        lam = complex(mp.jtheta(2, 0, mp.sqrt(q)) ** 4 / mp.jtheta(3, 0, mp.sqrt(q)) ** 4)
        assert abs(lam.real - 0.3) < 1e-12

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            cy.x_from_nome(1.5)
        with pytest.raises(sf.DomainError):
            cy.nome_from_x(1.5)


class TestArgumentChecks:
    @pytest.mark.parametrize("call,exc", [
        (lambda: cy.HypParams(0.5, 0.25, -1), ValueError),
        (lambda: cy.character_coeffs(cy.CharacterSpec(5, 2, 1, 1), 51), ValueError),
        (lambda: cy.kac_character(cy.CharacterSpec(5, 2, 1, 1), 1.0), sf.DomainError),
        (lambda: cy.kac_character(cy.CharacterSpec(5, 2, 1, 1), 0.6 + 0.8j), sf.DomainError),
        (lambda: cy.dedekind_eta(1.0), sf.DomainError),
        (lambda: cy.dedekind_eta(-1.5j), sf.DomainError),
    ], ids=["hyp_c_negative_integer", "character_order_51", "character_q_1",
            "character_unit_circle", "eta_q_1", "eta_outside_disk"])
    def test_rejected(self, call, exc):
        with pytest.raises(exc):
            call()

    @pytest.mark.parametrize("c", [0.0, -1.0, -2.0, -4.0])
    def test_series_reaching_c_plus_n_zero_raises(self, c):
        with pytest.raises(sf.DomainError, match="non-positive|c \\+"):
            sf._hyp_series(-1.5, 0.25, c, 0.3)

    def test_series_ending_before_c_plus_n_zero_is_kept(self):
        # a = -4 ends the series at x^4, before c + n = 0 at n = 5
        want = sum(math.prod((-4 + k) * (-2.5 + k) / ((1 + k) * (-5 + k)) for k in range(n))
                   * 0.3 ** n for n in range(5))
        assert abs(sf._hyp_series(-4, -2.5, -5, 0.3) - want) < 1e-15
