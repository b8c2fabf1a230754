"""The integer ODE algebra and the float recursion against the Fraction path.

``theta_form``, ``to_standard_coeffs``, ``recenter_to_one`` and
``rational_roots`` clear denominators and run on integers; every result must
equal (``==``) the one the direct Fraction algebra of ``_fraction_oracle``
gives, and every basis must be byte-equal to the parent's float recursion.
The catalog's models and torus tables, built on integers with one division,
must equal the ``Fraction`` builders' type for type.
"""

import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

import _fraction_oracle as fo
import cyclorb as cy
from cyclorb import catalog as cat
from cyclorb import frobenius as fb
from cyclorb import polyring as pr

# the couplings perfbench's cft_catalog draws from (G_POOL in perfbench/workloads.py)
G_POOL = ("8/7", "15/11", "13/12", "17/12", "9/8", "10/7", "16/13",
          "16/11", "13/8", "11/7", "6/5", "8/5", "17/11")
MODEL_CASES = ([(m, None) for m in ("yl2int_vac", "yl1int_vac", "yl1int_gs", "ising2int_vac")]
               + [(f, F(g)) for f in ("mm_n2_phi21", "mm_n3_phi21") for g in G_POOL])


@pytest.fixture(scope="module", params=MODEL_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def model_pair(request):
    """The model, and the same model built with the oracle's theta_form."""
    mid, g = request.param
    model = cat.get_model(mid, g)
    mp = pytest.MonkeyPatch()
    mp.setattr(fb, "theta_form", fo.theta_form)
    try:
        ref = cat.get_model(mid, g)
    finally:
        mp.undo()
    return model, ref


class TestModels:
    def test_odes(self, model_pair):
        model, ref = model_pair
        assert model.ode.polys == ref.ode.polys
        assert model.ode_at_1.polys == fo.recenter_to_one(ref.ode).polys
        if model.full_ode is not None:
            assert model.full_ode.polys == ref.full_ode.polys

    def test_roots(self, model_pair):
        model, ref = model_pair
        at1 = fo.recenter_to_one(ref.ode)
        assert fb.indicial_exponents(model.ode) == fo.rational_roots(ref.ode.polys[0])[0]
        assert fb.indicial_exponents(model.ode_at_1) == fo.rational_roots(at1.polys[0])[0]

    def test_standard_form(self, model_pair):
        model, ref = model_pair
        std = model.standard_coeffs()
        assert std is model.standard_coeffs()
        assert isinstance(std, tuple) and all(isinstance(c, tuple) for c in std)
        assert [list(c) for c in std] == fo.to_standard_coeffs(ref.ode)
        assert fb.to_standard_coeffs(model.ode) == fo.to_standard_coeffs(ref.ode)

    def test_bases_byte_equal(self, model_pair):
        model, _ = model_pair
        for ode, basis in ((model.ode, model.basis0(200)), (model.ode_at_1, model.basis1(200))):
            want = np.column_stack([fo.series_coeffs(ode, e, 200) for e in basis.exponents])
            assert basis._coeffs.tobytes() == want.tobytes()


def _rat(rng, num=40, den=12):
    return F(rng.randint(-num, num), rng.randint(1, den))


def _random_fuchsian(rng):
    """Standard coefficients c_k = x^k (1 - x)^k q_k(x), deg q_k <= r - k, with
    random rational q_k (some zero) and a constant q_r != 0: Fuchsian at 0, 1, oo."""
    r = rng.randint(1, 4)
    coeffs = []
    for k in range(r + 1):
        q = [_rat(rng) or F(1)] if k == r else (
            [F(0)] if rng.random() < 0.2 else [_rat(rng) for _ in range(r - k + 1)])
        coeffs.append(pr.pmul([F(0)] * k + pr.ppow_trunc([F(1), F(-1)], k, k), q))
    return coeffs


class TestRandomOperators:
    @pytest.mark.parametrize("seed", range(40))
    def test_algebra(self, seed):
        coeffs = _random_fuchsian(random.Random(seed))
        ode, ref = cy.theta_form(coeffs), fo.theta_form(coeffs)
        assert ode.polys == ref.polys
        assert cy.to_standard_coeffs(ode) == fo.to_standard_coeffs(ref)
        at1, ref1 = cy.recenter_to_one(ode), fo.recenter_to_one(ref)
        assert at1.polys == ref1.polys and at1.variable_center == fb.ONE
        for p in (ode.polys[0], at1.polys[0], ode.polys[-1]):
            assert pr.rational_roots(p) == fo.rational_roots(p)

    @pytest.mark.parametrize("seed", range(20))
    def test_repeated_and_zero_roots(self, seed):
        rng = random.Random(seed)
        p = [F(0)] * rng.randint(0, 3) + [_rat(rng) or F(1)]
        for _ in range(rng.randint(1, 3)):
            root = F(rng.randint(-60, 60), rng.randint(1, 60))
            for _ in range(rng.randint(1, 3)):
                p = pr.pmul(p, [-root, F(1)])
        if rng.random() < 0.5:
            p = pr.pmul(p, [F(rng.randint(1, 9)), F(0), F(rng.randint(1, 9))])   # no real roots
        assert pr.rational_roots(p) == fo.rational_roots(p)
        roots = fo.rational_roots(p)[0]
        if len(p) - 1 == len(roots):
            ode = cy.ThetaOde(order=len(roots), polys=(tuple(p), (F(1),)))
            assert cy.indicial_exponents(ode) == roots

    def test_scale_is_irrelevant(self):
        coeffs = _random_fuchsian(random.Random(7))
        for s in (F(1, 3), F(-12), F(7, 1000)):
            scaled = [pr.pscale(c, s) for c in coeffs]
            ode = cy.theta_form(scaled)
            assert ode.polys == fo.theta_form(scaled).polys
            assert cy.recenter_to_one(ode).polys == fo.recenter_to_one(ode).polys

    def test_non_rational_input_rejected(self):
        with pytest.raises(ValueError, match="int or Fraction"):
            cy.theta_form([[0.5], [F(0), F(1)]])


class TestChecksKept:
    def test_fuchsian_check_in_every_theta_form(self, monkeypatch):
        calls = []
        real = fb._check_fuchsian
        monkeypatch.setattr(fb, "_check_fuchsian", lambda c: calls.append(1) or real(c))
        model = cat.get_model("mm_n2_phi21", F(8, 7))   # one theta_form
        model.ode_at_1                                   # and one about 1
        cy.recenter_to_one(model.ode)
        assert len(calls) == 3

    def test_non_fuchsian_at_one_rejected(self):
        # x^2 (x - 2) d^2 + 1: the leading coefficient vanishes at x = 2 (x = -1 about 1)
        with pytest.raises(cy.NonFuchsianError):
            fb.theta_form_at_one([[F(1)], [F(0)], pr.pmul([F(0), F(0), F(1)], [F(-2), F(1)])])

    def test_float_recursion_rejects_non_root(self):
        ode = cat.get_model("yl1int_gs").ode
        with pytest.raises(ValueError, match="not a root"):
            cy.frobenius_series(ode, F(1, 3), 10, exact=False)

    def test_float_recursion_detects_logarithm(self):
        # theta(theta - 1) + x: the numerator at the unit offset is 1, not 0
        ode = cy.ThetaOde(order=2, polys=((0, -1, 1), (1,)))
        with pytest.raises(cy.LogarithmicCaseError):
            cy.frobenius_series(ode, F(0), 10, exact=False)


# couplings where a factor of a replica-3 product or of a Gauss parameter
# vanishes or turns integer; mm_n3_phi21 rejects g = 2 (an exponent collision)
EXTRA_G = ("3/4", "1", "5/4", "4/3", "11/8", "7/5", "2")
BUILD_CASES = (MODEL_CASES[:4] + [(f, F(g)) for f in ("mm_n2_phi21", "mm_n3_phi21")
                                  for g in G_POOL + EXTRA_G])


def _same(a, b):
    """a == b with the same type at every leaf of nested lists and tuples."""
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


class TestIntegerBuilders:
    @pytest.mark.parametrize("mid,g", BUILD_CASES, ids=lambda c: str(c))
    def test_model_equals_fraction_builders(self, mid, g):
        ode, full_ode, scheme = fo.catalog_model(mid, g)
        if (mid, g) == ("mm_n3_phi21", 2):
            with pytest.raises(ValueError, match="exponent collision"):
                cat.get_model(mid, g)
            return
        model = cat.get_model(mid, g)
        assert model.ode.order == ode.order and _same(model.ode.polys, ode.polys)
        std = tuple(tuple(c) for c in fb.to_standard_coeffs(ode))
        assert _same(model.standard_coeffs(), std)
        assert _same(model.ode_at_1.polys, fb.theta_form_at_one(std).polys)
        assert (model.full_ode is None) == (full_ode is None)
        assert full_ode is None or _same(model.full_ode.polys, full_ode.polys)
        assert _same(dataclasses.astuple(model.scheme), dataclasses.astuple(scheme))

    @pytest.mark.parametrize("g", G_POOL + EXTRA_G + ("3/2", "7/4", "15/8", "1/2", "-3/7"))
    def test_replica3_polys(self, g):
        # the parent's pmul_trunc leaves the int 0 where a vanishing factor stops every
        # product (P0[0] at g = 6/5 and 1): the same types, not only the same values
        assert _same(cat._mm_n3_polys(F(g)), fo.mm_n3_polys(F(g)))
        assert _same(cat._mm_n3_polys(g), fo.mm_n3_polys(g))

    @pytest.mark.parametrize("order", (4, 6, 8, 10))
    def test_torus_tables(self, order):
        assert _same(cat.torus_block_expansions(order), fo.torus_block_expansions(order))

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_power_series(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            p = [1] + [rng.randint(-6, 6) for _ in range(rng.randint(0, 6))]
            s, n = _rat(rng), rng.randint(0, 14)
            N, D = pr.ppow_trunc_int(p, s, n)
            assert all(type(v) is int for v in N) and D == N[0]
            assert [F(v, D) for v in N] == pr.ppow_trunc(p, s, n)
