"""Tests for the Riesz / Bessel kernel layer.

Expected values come from independent routes: math.gamma for the
normalization constant, the 1D closed form g_2(x) = exp(-|x|)/2 for the
Bessel quadrature, and closed-form antiderivatives for cell averages.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, trapezoid

from fracsolve.quadrature import cell_average_power
from fracsolve.riesz import riesz_cell_average, riesz_normalization
from support.kernels import (
    BesselParams,
    QuadratureError,
    RieszParams,
    bessel_cell_average,
    bessel_kernel,
    bessel_mass,
    riesz_kernel,
    semigroup_residual,
)


def oracle_normalization(dim, alpha):
    # direct Gamma-function evaluation, independent of the log-gamma route
    return math.gamma((dim - alpha) / 2.0) / (
        math.pi ** (dim / 2.0) * 2.0**alpha * math.gamma(alpha / 2.0)
    )


# frozen reference values for the two pinned constants
GAMMA_1_HALF = 0.3989422804014327  # 1/sqrt(2*pi)
GAMMA_2_ONE = 0.15915494309189535  # 1/(2*pi)


class TestRieszNormalization:
    def test_pinned_constants(self):
        assert riesz_normalization(1, 0.5) == pytest.approx(GAMMA_1_HALF, rel=1e-12)
        assert riesz_normalization(2, 1.0) == pytest.approx(GAMMA_2_ONE, rel=1e-12)
        assert GAMMA_1_HALF == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)
        assert GAMMA_2_ONE == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("alpha_frac", [0.05, 0.3, 0.5, 0.77, 0.95])
    def test_matches_direct_gamma_evaluation(self, dim, alpha_frac):
        alpha = alpha_frac * dim
        assert riesz_normalization(dim, alpha) == pytest.approx(
            oracle_normalization(dim, alpha), rel=1e-12
        )

    def test_rejects_out_of_range_order(self):
        with pytest.raises(ValueError):
            riesz_normalization(1, 0.0)
        with pytest.raises(ValueError):
            riesz_normalization(1, 1.0)
        with pytest.raises(ValueError):
            riesz_normalization(2, 2.5)


class TestRieszKernel:
    def test_point_values(self):
        params = RieszParams(dim=1, alpha=0.5)
        x = np.array([[2.0], [0.25]])
        want = oracle_normalization(1, 0.5) * np.array([2.0**-0.5, 0.25**-0.5])
        np.testing.assert_allclose(riesz_kernel(params, x), want, rtol=1e-12)

    def test_2d_point_value(self):
        params = RieszParams(dim=2, alpha=1.0)
        x = np.array([[3.0, 4.0]])
        want = oracle_normalization(2, 1.0) * 5.0 ** (1.0 - 2.0)
        np.testing.assert_allclose(riesz_kernel(params, x), [want], rtol=1e-12)

    @given(
        lam=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        x=st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
        alpha=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, lam, x, alpha):
        # I_alpha(lam*x) = lam^(alpha-N) * I_alpha(x)
        params = RieszParams(dim=1, alpha=alpha)
        left = riesz_kernel(params, np.array([[lam * x]]))[0]
        right = lam ** (alpha - 1.0) * riesz_kernel(params, np.array([[x]]))[0]
        assert np.isclose(left, right, rtol=1e-10)

    def test_origin_rejected(self):
        params = RieszParams(dim=1, alpha=0.5)
        with pytest.raises(ValueError):
            riesz_kernel(params, np.array([[0.0]]))

    def test_cell_average_1d_closed_form(self):
        # (1/h) * int_{-h/2}^{h/2} gamma*|z|^(a-1) dz = gamma * 2*(h/2)^a / (a*h)
        params = RieszParams(dim=1, alpha=0.4)
        h = 0.125
        gam = oracle_normalization(1, 0.4)
        want = gam * 2.0 * (h / 2.0) ** 0.4 / (0.4 * h)
        assert riesz_cell_average(params.alpha, (h,)) == pytest.approx(want, rel=1e-12)

    def test_cell_average_2d_against_polar_oracle(self):
        # integrate gamma*|z|^(a-2) over the square cell with a dense polar rule
        params = RieszParams(dim=2, alpha=0.6)
        h = 0.25
        gam = oracle_normalization(2, 0.6)
        theta = np.linspace(0.0, np.pi / 4.0, 20001)
        rmax = (h / 2.0) / np.cos(theta)
        # int_0^{rmax} r^(a-2) r dr = rmax^a / a ; eight-fold symmetry
        radial = rmax**0.6 / 0.6
        integral = 8.0 * gam * trapezoid(radial, theta)
        want = integral / h**2
        assert riesz_cell_average(params.alpha, (h, h)) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("widths", [(0.25, 0.25), (0.5, 0.25), (0.5, 0.2)])
    @pytest.mark.parametrize("e", [-1.9, -1.55, -1.2, -0.5, 0.7])
    def test_cell_average_power_matches_adaptive_polar_quadrature(self, widths, e):
        # a quarter of the cell is r < w1/(2 cos t) below the corner angle
        # and r < w2/(2 sin t) above it; the radial integral is closed-form
        w1, w2 = widths
        corner = math.atan2(w2, w1)
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        low, _ = quad(lambda t: (w1 / (2.0 * math.cos(t))) ** (e + 2.0), 0.0, corner, **opts)
        high, _ = quad(lambda t: (w2 / (2.0 * math.sin(t))) ** (e + 2.0), corner, 0.5 * math.pi, **opts)
        want = 4.0 / (e + 2.0) * (low + high) / (w1 * w2)
        assert cell_average_power(e, widths) == pytest.approx(want, rel=1e-13)

    def test_cell_average_exceeds_far_values_near_origin(self):
        params = RieszParams(dim=2, alpha=0.3)
        avg = riesz_cell_average(params.alpha, (0.1, 0.1))
        edge = riesz_kernel(params, np.array([[0.1, 0.0]]))[0]
        assert avg > edge > 0


class TestBesselKernel:
    def test_1d_alpha2_closed_form(self):
        params = BesselParams(dim=1, alpha=2.0)
        x = np.array([[0.1], [0.5], [1.0], [2.5], [8.0]])
        got = bessel_kernel(params, x)
        want = 0.5 * np.exp(-np.abs(x[:, 0]))
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-9)

    def test_symmetry(self):
        params = BesselParams(dim=1, alpha=1.3)
        left = bessel_kernel(params, np.array([[-0.7]]))
        right = bessel_kernel(params, np.array([[0.7]]))
        assert left[0] == right[0]

    def test_positive(self):
        params = BesselParams(dim=2, alpha=1.0)
        pts = np.array([[0.3, 0.1], [1.0, -2.0], [4.0, 4.0]])
        assert np.all(bessel_kernel(params, pts) > 0)

    def test_origin_rejected_for_small_alpha(self):
        params = BesselParams(dim=1, alpha=0.8)
        with pytest.raises(ValueError):
            bessel_kernel(params, np.array([[0.0]]))

    def test_origin_allowed_above_dimension(self):
        params = BesselParams(dim=1, alpha=2.0)
        val = bessel_kernel(params, np.array([[0.0]]))[0]
        assert val == pytest.approx(0.5, rel=1e-8)

    def test_quadrature_failure_detected(self):
        bad = BesselParams(dim=1, alpha=1.0, nodes=8)
        with pytest.raises(QuadratureError):
            bessel_kernel(bad, np.array([[0.5]]))

    def test_cell_average_matches_point_value_far_from_origin(self):
        params = BesselParams(dim=1, alpha=2.0)
        avg = bessel_cell_average(params, np.array([[2.0]]), (0.01,))[0]
        point = bessel_kernel(params, np.array([[2.0]]))[0]
        assert avg == pytest.approx(point, rel=1e-4)

    def test_cell_average_origin_finite_for_singular_order(self):
        # alpha < dim: point value blows up at 0, the cell average must not
        params = BesselParams(dim=1, alpha=0.5)
        avg = bessel_cell_average(params, np.array([[0.0]]), (0.1,))[0]
        assert np.isfinite(avg) and avg > 0

    def test_cell_average_1d_closed_form_oracle(self):
        # cell average of exp(-|x|)/2 over [x0-h/2, x0+h/2], x0 > h/2
        params = BesselParams(dim=1, alpha=2.0)
        x0, h = 1.0, 0.2
        want = (math.exp(-(x0 - h / 2)) - math.exp(-(x0 + h / 2))) / (2 * h)
        got = bessel_cell_average(params, np.array([[x0]]), (h,))[0]
        assert got == pytest.approx(want, rel=1e-8)

    def test_cell_quadrature_matches_per_cell_erf(self):
        # the tensor-grid quadrature shares erf values between cells on the
        # same axis line; redo single cells with their own erf evaluations
        from scipy.special import erf, gammaln

        from support.kernels import _bessel_cell_quad, _bessel_t_rule

        params = BesselParams(dim=2, alpha=1.3)
        x = np.linspace(-3.0, 3.0, 25)
        h = x[1] - x[0]
        xx, yy = np.meshgrid(x, x, indexing="ij")
        centers = np.column_stack([xx.ravel(), yy.ravel()])
        got = _bessel_cell_quad(params, centers, np.array([h, h]), params.nodes)

        t, w = _bessel_t_rule(params, params.nodes)
        scale = np.sqrt(math.pi) * np.exp(-0.5 * t)
        pref = np.exp(
            -np.exp(t) / (4.0 * math.pi)
            + 0.5 * params.alpha * t
            - gammaln(params.alpha / 2.0)
            - 0.5 * params.alpha * math.log(4.0 * math.pi)
        )
        for k in (0, 12 * 25 + 12, 3 * 25 + 20, centers.shape[0] - 1):
            prod = np.ones(t.size)
            for c in centers[k]:
                prod *= 0.5 * (erf((c + h / 2) * scale) - erf((c - h / 2) * scale)) / h
            assert got[k] == pytest.approx(float(prod @ (w * pref)), rel=1e-13)


class TestBesselMass:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.5])
    def test_unit_mass_1d(self, alpha):
        params = BesselParams(dim=1, alpha=alpha)
        mass = bessel_mass(params)
        assert 0.99 <= mass <= 1.01

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_unit_mass_2d(self, alpha):
        params = BesselParams(dim=2, alpha=alpha)
        mass = bessel_mass(params, radius=10.0, nodes=201)
        assert 0.99 <= mass <= 1.01


class TestSemigroup:
    def test_residual_small_on_reference_grid(self):
        res = semigroup_residual(1, 1.0, 1.0, nodes=257)
        assert res < 1e-3

    def test_residual_decreases_under_refinement(self):
        levels = [33, 65, 129, 257]
        residuals = [semigroup_residual(1, 1.0, 1.0, nodes=n) for n in levels]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_residual_other_orders(self):
        res = semigroup_residual(1, 0.5, 1.5, nodes=257)
        assert res < 5e-3

    def test_residual_2d_sanity(self):
        res = semigroup_residual(2, 1.0, 1.0, radius=8.0, nodes=65)
        assert np.isfinite(res) and res < 0.05
