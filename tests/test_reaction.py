"""Tests for reaction data: the singular family, the convective bound,
the truncation and its antiderivative, and the hypothesis checker.

Oracles: direct arithmetic for pinned values, scipy.quad for the
antiderivative, central differences for the derivative identity.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from fracsolve.grids import Grid, interval
from fracsolve.reaction import (
    ConvectiveReaction,
    ProblemExponents,
    SingularReaction,
    TruncatedReaction,
    check_hypotheses,
    f_eval,
    g_eval,
    liminf_at_zero,
)


class TestSingularReaction:
    def test_pinned_arithmetic_value(self):
        fam = SingularReaction(gamma=0.5, c1=1.0, c2=1.0, r=1.5)
        assert f_eval(fam, 4.0) == pytest.approx(8.5, rel=1e-14)

    def test_value_at_one_is_c1_plus_c2(self):
        fam = SingularReaction(gamma=0.3, c1=0.7, c2=2.1, r=1.2)
        assert f_eval(fam, 1.0) == pytest.approx(2.8, rel=1e-14)

    def test_divergence_rate_near_zero(self):
        fam = SingularReaction(gamma=0.4, c1=2.0, c2=1.0, r=1.5)
        for t in (1e-2, 1e-4, 1e-6):
            assert f_eval(fam, t) >= 2.0 * t**-0.4

    def test_nonpositive_argument_rejected(self):
        fam = SingularReaction(gamma=0.5, c1=1.0, c2=1.0, r=1.5)
        with pytest.raises(ValueError):
            f_eval(fam, 0.0)
        with pytest.raises(ValueError):
            f_eval(fam, np.array([0.5, -1.0]))

    def test_vectorized_matches_scalar(self):
        fam = SingularReaction(gamma=0.6, c1=1.3, c2=0.4, r=2.0)
        ts = np.array([0.1, 0.5, 2.0, 7.0])
        vec = f_eval(fam, ts)
        for t, v in zip(ts, vec):
            assert v == pytest.approx(f_eval(fam, float(t)), rel=1e-14)

    def test_bounded_family_limit(self):
        fam = SingularReaction(gamma=0.5, c1=1.5, c2=1.0, r=1.5, family="bounded")
        assert liminf_at_zero(fam) == pytest.approx(1.5)
        assert f_eval(fam, 1e-9) == pytest.approx(1.5, rel=1e-6)
        sing = SingularReaction(gamma=0.5, c1=1.5, c2=1.0, r=1.5)
        assert liminf_at_zero(sing) == np.inf


class TestConvectiveReaction:
    def test_pinned_arithmetic_value(self):
        g = ConvectiveReaction(c3=0.1, zeta=1.5)
        xi = np.array([[4.0, 0.0]])
        assert g_eval(g, xi)[0] == pytest.approx(0.9, rel=1e-14)

    def test_zero_argument_gives_c3(self):
        g = ConvectiveReaction(c3=0.25, zeta=1.2)
        assert g_eval(g, np.zeros((3, 2))) == pytest.approx(0.25)

    def test_rotation_invariance(self):
        g = ConvectiveReaction(c3=0.3, zeta=1.7)
        xi1 = np.array([[3.0, 4.0]])
        xi2 = np.array([[5.0, 0.0]])
        xi3 = np.array([[-4.0, 3.0]])
        v = g_eval(g, xi1)[0]
        assert g_eval(g, xi2)[0] == pytest.approx(v, rel=1e-14)
        assert g_eval(g, xi3)[0] == pytest.approx(v, rel=1e-14)

    def test_lower_bound_c3(self):
        g = ConvectiveReaction(c3=0.05, zeta=1.4)
        rng = np.random.default_rng(1)
        xi = rng.normal(size=(100, 2)) * 10
        assert np.all(g_eval(g, xi) >= 0.05)

    def test_zero_c3_allowed(self):
        g = ConvectiveReaction(c3=0.0, zeta=1.5)
        assert np.all(g_eval(g, np.ones((2, 1))) == 0.0)


@pytest.fixture(scope="module")
def trunc_setup():
    grid = Grid(interval(0.0, 1.0), 17)
    lower = 0.3 * grid.interior_distance**0.6 + 0.05
    fam = SingularReaction(gamma=0.5, c1=1.0, c2=0.8, r=1.4)
    return grid, TruncatedReaction(fam, lower)


class TestTruncation:
    def test_below_floor_is_frozen(self, trunc_setup):
        grid, trunc = trunc_setup
        floor = trunc.floor
        at_floor = trunc.f(floor.copy())
        below = trunc.f(np.full(floor.size, -5.0))
        np.testing.assert_allclose(below, at_floor, rtol=1e-14)

    def test_above_floor_matches_f(self, trunc_setup):
        grid, trunc = trunc_setup
        t = np.full(trunc.floor.size, 2.0)
        want = f_eval(trunc.base, t)
        np.testing.assert_allclose(trunc.f(t), want, rtol=1e-14)

    def test_continuity_at_floor(self, trunc_setup):
        _, trunc = trunc_setup
        eps = 1e-9
        lo = trunc.f(trunc.floor - eps)
        hi = trunc.f(trunc.floor + eps)
        np.testing.assert_allclose(lo, hi, rtol=1e-6)

    def test_always_finite_for_any_real(self, trunc_setup):
        _, trunc = trunc_setup
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.normal(scale=10.0, size=trunc.floor.size)
            vals = trunc.f(t)
            assert np.all(np.isfinite(vals))
            assert np.all(vals >= 0.0)
            F = trunc.F(t)
            assert np.all(np.isfinite(F))

    def test_antiderivative_zero_at_zero(self, trunc_setup):
        _, trunc = trunc_setup
        F = trunc.F(np.zeros(trunc.floor.size))
        np.testing.assert_allclose(F, 0.0, atol=1e-15)

    def test_antiderivative_linear_below_floor(self, trunc_setup):
        _, trunc = trunc_setup
        tau = np.full(trunc.floor.size, -3.0)
        F = trunc.F(tau)
        slope = trunc.f(tau)
        np.testing.assert_allclose(F, slope * tau, rtol=1e-13)

    def test_derivative_matches_f_truncated(self, trunc_setup):
        _, trunc = trunc_setup
        rng = np.random.default_rng(7)
        tau = rng.normal(scale=2.0, size=trunc.floor.size)
        eps = 1e-6
        fd = (trunc.F(tau + eps) - trunc.F(tau - eps)) / (2 * eps)
        want = trunc.f(tau)
        np.testing.assert_allclose(fd, want, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("family", ["singular", "bounded"])
    def test_derivative_of_f_is_central_difference(self, trunc_setup, family):
        floor = trunc_setup[1].floor
        fam = SingularReaction(gamma=0.5, c1=1.0, c2=0.8, r=1.4, family=family)
        trunc = TruncatedReaction(fam, floor)
        above = floor + np.linspace(0.01, 2.0, floor.size)
        eps = 1e-6
        fd = (trunc.f(above + eps) - trunc.f(above - eps)) / (2 * eps)
        np.testing.assert_allclose(trunc.df(above), fd, rtol=1e-6, atol=1e-8)
        # the truncated forcing is constant at or below the floor
        assert np.all(trunc.df(floor) == 0.0)
        assert np.all(trunc.df(floor - 1.0) == 0.0)

    def test_antiderivative_matches_quad(self, trunc_setup):
        grid, trunc = trunc_setup
        node = 5
        floor_val = trunc.floor[node]
        base = trunc.base

        def integrand(t):
            return float(f_eval(base, np.array([max(floor_val, t)]))[0])

        for tau in (-1.0, 0.5 * floor_val, 2.0, 5.0):
            if tau > floor_val:
                want, _ = quad(integrand, 0.0, tau, points=[floor_val])
            else:
                want, _ = quad(integrand, 0.0, tau)
            got = trunc.F(np.full(trunc.floor.size, tau))[node]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_bounded_family_antiderivative_matches_quad(self):
        grid = Grid(interval(0.0, 1.0), 9)
        lower = 0.2 * np.ones(grid.points.shape[0])
        fam = SingularReaction(gamma=0.4, c1=1.2, c2=0.6, r=1.3, family="bounded")
        trunc = TruncatedReaction(fam, grid.pack(lower))

        def integrand(t):
            tt = max(0.2, t)
            return 1.2 * (1.0 + tt) ** -0.4 + 0.6 * tt**1.3

        for tau in (0.1, 1.7):
            want, _ = quad(integrand, 0.0, tau)
            got = trunc.F(np.full(trunc.floor.size, tau))[0]
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("family", ["singular", "bounded"])
    @pytest.mark.parametrize("gamma", [0.4, 0.5, 1.0 - 1e-6, 1.0 - 1e-8, 1.0, 1.5])
    def test_antiderivative_matches_quad_as_gamma_nears_one(self, family, gamma):
        # a difference of head powers over 1 - gamma cancels as gamma -> 1
        # and is 0/0 at gamma = 1, which the family accepts
        floor = np.array([0.05, 0.3, 0.7])
        base = SingularReaction(gamma=gamma, c1=1.0, c2=0.8, r=1.4, family=family)
        trunc = TruncatedReaction(base, floor)
        for tau in (-1.0, 0.02, 0.5, 2.0, 5.0):
            got = trunc.F(np.full(floor.size, tau))
            for k, lo in enumerate(floor):
                def integrand(t):
                    return float(f_eval(base, max(lo, t)))

                want, _ = quad(integrand, 0.0, min(tau, lo))
                if tau > lo:
                    want += quad(integrand, lo, tau, epsabs=0.0, epsrel=1e-13)[0]
                assert got[k] == pytest.approx(want, rel=1e-12)

    def test_singularity_shield_bound(self, trunc_setup):
        # truncation is bounded by the floor singularity plus the power tail
        grid, trunc = trunc_setup
        rng = np.random.default_rng(11)
        floor = trunc.floor
        c1, c2, r = trunc.base.c1, trunc.base.c2, trunc.base.r
        gamma = trunc.base.gamma
        for _ in range(30):
            t = rng.normal(scale=3.0, size=floor.size)
            lhs = trunc.f(t)
            rhs = c1 * floor**-gamma + c2 * np.maximum(floor, t) ** r
            assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_nonpositive_floor_rejected(self):
        grid = Grid(interval(0.0, 1.0), 9)
        fam = SingularReaction(gamma=0.5, c1=1.0, c2=1.0, r=1.5)
        bad = np.zeros(grid.points.shape[0])
        with pytest.raises(ValueError):
            TruncatedReaction(fam, grid.pack(bad))


def _exponents(**kw):
    base = dict(s=0.7, s1=0.9, s2=0.6, p=3.4, q=2.5, dim=4)
    base.update(kw)
    return ProblemExponents(**base)


def _passing_triple():
    exps = _exponents()
    fam = SingularReaction(gamma=0.3, c1=1.0, c2=1.0, r=1.4)
    conv = ConvectiveReaction(c3=0.1, zeta=2.0)
    return exps, fam, conv


class TestHypotheses:
    def test_reference_window_passes(self):
        report = check_hypotheses(*_passing_triple())
        assert report.passed, report.failures
        assert not report.warnings

    def test_named_clauses_present(self):
        report = check_hypotheses(*_passing_triple())
        names = {c.name for c in report.checks}
        assert names == {
            "0<s2<=s<=s1<=1",
            "2<q<p<N/s1",
            "s1*p>1",
            "gamma in (0,1)",
            "r in (1,p-1)",
            "zeta in (1,p-1)",
            "s1<1/(p'*gamma)",
            "q'*s2 != s1",
        }

    @pytest.mark.parametrize(
        "mutate,expected",
        [
            (dict(q=3.4), "2<q<p<N/s1"),  # q = p
            (dict(q=1.9), "2<q<p<N/s1"),  # q <= 2
            (dict(p=4.5), "2<q<p<N/s1"),  # p >= N/s1 = 4.44

            (dict(s1=0.2, s2=0.1, s=0.15), "s1*p>1"),
        ],
    )
    def test_exponent_violations_named(self, mutate, expected):
        exps = _exponents(**mutate)
        fam = SingularReaction(gamma=0.3, c1=1.0, c2=1.0, r=1.4)
        conv = ConvectiveReaction(c3=0.1, zeta=2.0)
        report = check_hypotheses(exps, fam, conv)
        assert not report.passed
        assert expected in {c.name for c in report.checks if not c.ok}

    def test_gamma_window_violation(self):
        exps = _exponents()
        fam = SingularReaction(gamma=1.0, c1=1.0, c2=1.0, r=1.4)
        conv = ConvectiveReaction(c3=0.1, zeta=2.0)
        report = check_hypotheses(exps, fam, conv)
        assert "gamma in (0,1)" in {c.name for c in report.checks if not c.ok}

    def test_r_and_zeta_windows(self):
        exps = _exponents()
        conv = ConvectiveReaction(c3=0.1, zeta=2.4)  # = p - 1
        fam = SingularReaction(gamma=0.3, c1=1.0, c2=1.0, r=2.4)  # = p - 1
        report = check_hypotheses(exps, fam, conv)
        bad = {c.name for c in report.checks if not c.ok}
        assert "r in (1,p-1)" in bad
        assert "zeta in (1,p-1)" in bad

    def test_singular_weight_coupling(self):
        # s1 >= 1/(p' gamma): p=2.6 -> p'=1.625; gamma=0.9 -> threshold 0.6838
        exps = _exponents(s1=0.7308, s2=0.5, s=0.6, p=2.6, q=2.3, dim=4)
        fam = SingularReaction(gamma=0.9, c1=1.0, c2=1.0, r=1.2)
        conv = ConvectiveReaction(c3=0.1, zeta=1.3)
        report = check_hypotheses(exps, fam, conv)
        bad = {c.name for c in report.checks if not c.ok}
        assert bad == {"s1<1/(p'*gamma)"}

    def test_resonant_orders_rejected(self):
        # q' s2 = s1 exactly: q=2.5 -> q'=5/3; s2=0.54 -> q's2=0.9 = s1
        exps = _exponents(s2=0.54, s=0.7, s1=0.9)
        fam = SingularReaction(gamma=0.3, c1=1.0, c2=1.0, r=1.4)
        conv = ConvectiveReaction(c3=0.1, zeta=2.0)
        report = check_hypotheses(exps, fam, conv)
        assert "q'*s2 != s1" in {c.name for c in report.checks if not c.ok}

    def test_one_dimensional_embedding_clause_downgraded(self):
        # at N=1 the clause p < N/s1 contradicts s1*p > 1; warn, don't fail
        exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
        fam = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
        conv = ConvectiveReaction(c3=0.05, zeta=1.2)
        report = check_hypotheses(exps, fam, conv)
        assert report.passed
        assert any("N/s1" in w for w in report.warnings)

    def test_ratio_monotonicity_warning_at_boundary(self):
        # r = q - 1 makes f(t)/t^(q-1) non-strictly decreasing
        exps = _exponents()
        fam = SingularReaction(gamma=0.3, c1=1.0, c2=1.0, r=1.5)
        conv = ConvectiveReaction(c3=0.1, zeta=2.0)
        report = check_hypotheses(exps, fam, conv)
        assert report.passed
        assert any(w.endswith("uniqueness is not certified") for w in report.warnings)
        assert not report.uniqueness_ready

    def test_ratio_strictly_decreasing_when_r_small(self):
        report = check_hypotheses(*_passing_triple())
        assert report.uniqueness_ready

    def test_zero_c3_warns(self):
        exps = _exponents()
        fam = SingularReaction(gamma=0.3, c1=1.0, c2=1.0, r=1.4)
        conv = ConvectiveReaction(c3=0.0, zeta=2.0)
        report = check_hypotheses(exps, fam, conv)
        assert report.passed
        assert any("c3" in w for w in report.warnings)


class TestStructuralValidation:
    def test_exponent_order_chain_enforced(self):
        with pytest.raises(ValueError):
            ProblemExponents(s=0.5, s1=0.4, s2=0.6, p=3.0, q=2.5, dim=2)
        with pytest.raises(ValueError):
            ProblemExponents(s=0.5, s1=0.6, s2=0.4, p=1.0, q=2.5, dim=2)

    def test_conjugate_exponents(self):
        e = ProblemExponents(s=0.5, s1=0.6, s2=0.5, p=3.0, q=2.0, dim=2)
        assert e.p_prime == pytest.approx(1.5)
        assert e.q_prime == pytest.approx(2.0)

    def test_outside_window_but_structurally_valid(self):
        # p = q = 2 is used by operator-level oracles; structural ctor allows it
        e = ProblemExponents(s=0.5, s1=0.5, s2=0.5, p=2.0, q=2.0, dim=1)
        assert e.p == 2.0

    def test_negative_coefficients_rejected(self):
        # c1 = 0 leaves no positive liminf at 0, so no torsion floor exists
        for c1 in (-1.0, 0.0):
            with pytest.raises(ValueError, match="c1 must be positive"):
                SingularReaction(gamma=0.5, c1=c1, c2=1.0, r=1.5)
        with pytest.raises(ValueError):
            SingularReaction(gamma=-0.2, c1=1.0, c2=1.0, r=1.5)
        with pytest.raises(ValueError):
            ConvectiveReaction(c3=-0.1, zeta=1.5)
