"""Outer fixed-point iteration: relaxation, growth bound, full verification.

Oracles:
  * a damped nonlinear relaxation on the fully coupled nodal system
    (convective field recomputed from the current iterate every sweep,
    run to scaled residual 1e-9) pins the 17-node fixed point;
  * the growth-bound fit is validated on fresh random fields;
  * the constant-convection map must converge in two outer steps and be
    input-independent.
"""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from fracsolve import driver, frozen, torsion
from fracsolve.driver import (
    OuterOptions,
    apply_T,
    build_instance,
    fit_growth_bound,
    relaxed_update,
    solve_problem,
    verify_solution,
)
from fracsolve.frozen import FrozenProblem, frozen_gradient, scaled_norm, weak_residual
from fracsolve.gagliardo import seminorm
from fracsolve.grids import build_grid, disk, interval
from fracsolve.optimize import MinimizeResult, MinimizerOptions
from fracsolve.reaction import ConvectiveReaction, ProblemExponents, SingularReaction, g_eval
from fracsolve.riesz import riesz_gradient


EXPONENTS_1D = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
REACTION_1D = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
CONVECTIVE_1D = ConvectiveReaction(c3=0.2, zeta=1.2)


@pytest.fixture(scope="module")
def instance_1d():
    grid = build_grid(interval(0.0, 1.0), 17)
    return build_instance(grid, EXPONENTS_1D, REACTION_1D, CONVECTIVE_1D)


@pytest.fixture(scope="module")
def instance_1d_tight():
    grid = build_grid(interval(0.0, 1.0), 17)
    return build_instance(
        grid,
        EXPONENTS_1D,
        REACTION_1D,
        CONVECTIVE_1D,
        frozen_options=MinimizerOptions(tol=1e-8),
    )


@pytest.fixture(scope="module")
def instance_1d_loose():
    # at inner tol 1e-4 some growth samples already meet the tolerance at
    # the last sample's answer and return it unchanged
    grid = build_grid(interval(0.0, 1.0), 17)
    return build_instance(
        grid,
        EXPONENTS_1D,
        REACTION_1D,
        CONVECTIVE_1D,
        frozen_options=MinimizerOptions(tol=1e-4),
    )


def affine_T(instance, kappa, iterations=1):
    """Stand-in for apply_T: v -> a + kappa (v - a), contracting by exactly
    kappa toward its fixed point a = 2 * floor."""
    a = 2.0 * instance.trunc.floor

    def T(inst, v, start=None):
        return MinimizeResult(a + kappa * (v - a), True, iterations, 0.0, 0.0)

    return T


def random_field(instance, lam, seed):
    """Interior vector with (s1,p)-seminorm exactly lam."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(instance.grid.n_interior)
    return lam * z / seminorm(instance.tables[0], z)


class TestApplyT:
    def test_certificate_floor_is_the_truncation_floor(self, instance_1d):
        lower = instance_1d.certificate.lower
        assert lower.shape == (instance_1d.grid.n_interior,)
        assert np.array_equal(lower, instance_1d.trunc.floor)

    def test_floor_maps_above_floor(self, instance_1d):
        res = apply_T(instance_1d, instance_1d.certificate.lower)
        assert res.converged
        floor = instance_1d.trunc.floor
        assert np.min(res.x - floor) >= -1e-6

    def test_constant_convection_is_constant_map(self):
        grid = build_grid(interval(0.0, 1.0), 17)
        inst = build_instance(
            grid,
            EXPONENTS_1D,
            REACTION_1D,
            ConvectiveReaction(c3=0.0, zeta=1.2),
            frozen_options=MinimizerOptions(tol=1e-8),
        )
        v1 = random_field(inst, 0.5, seed=1)
        v2 = random_field(inst, 2.0, seed=2)
        u1 = apply_T(inst, v1).x
        u2 = apply_T(inst, v2).x
        assert np.max(np.abs(u1 - u2)) <= 2e-8

    def test_growth_bound_on_fresh_fields(self, instance_1d):
        bound = fit_growth_bound(instance_1d, seed=0)
        assert bound.c_emp > 0.0
        e = instance_1d.exponents
        exponent = CONVECTIVE_1D.zeta * e.p_prime
        assert abs(bound.exponent - exponent) <= 1e-14
        # the fitted radius closes the invariance inequality
        lhs = bound.c_emp * (1.0 + bound.rho**bound.exponent)
        assert lhs <= bound.rho**e.p * (1.0 + 1e-10)
        # fresh samples stay within a factor-2 envelope of the fit
        for seed in (101, 102, 103, 104, 105):
            lam = 10.0 ** np.random.default_rng(seed).uniform(-1.5, 0.5)
            v = random_field(instance_1d, lam, seed)
            tv = apply_T(instance_1d, v)
            assert tv.converged
            lhs = seminorm(instance_1d.tables[0], tv.x) ** e.p
            rhs = 2.0 * bound.c_emp * (1.0 + lam**bound.exponent)
            assert lhs <= rhs

    def test_growth_radius_is_the_root_of_the_gap(self, instance_1d):
        from scipy.optimize import brentq

        bound = fit_growth_bound(instance_1d, seed=0)
        p = instance_1d.exponents.p

        def gap(rho):
            return rho**p - bound.c_emp * (1.0 + rho**bound.exponent)

        ref = brentq(gap, 1e-8, 64.0, xtol=1e-14, rtol=1e-14)
        assert abs(bound.rho - ref) <= 1e-13 * ref
        assert gap(bound.rho * (1.0 - 1e-13)) < 0.0 < gap(bound.rho * (1.0 + 1e-13))

    def test_bisection_matches_closed_form_roots(self):
        for f, root in (
            (lambda x: x**3 - 2.0, 2.0 ** (1.0 / 3.0)),
            (lambda x: x - 1e-6, 1e-6),
            (lambda x: math.log(x) - 20.0, math.exp(20.0)),
        ):
            rho = driver._bisect_root(f, 1e-9, 1e12)
            assert abs(rho - root) <= 1e-14 + 1e-14 * root

    def test_warm_growth_fit_matches_cold_fit(self, instance_1d, monkeypatch):
        warm = fit_growth_bound(instance_1d, seed=0)
        cold_T = driver.apply_T
        monkeypatch.setattr(driver, "apply_T", lambda inst, v, start=None: cold_T(inst, v))
        cold = fit_growth_bound(instance_1d, seed=0)
        assert warm.c_emp == pytest.approx(cold.c_emp, rel=1e-6)

    def test_empty_samples_reuse_the_last_seminorm(self, instance_1d_loose, monkeypatch):
        calls = []
        counted = driver.seminorm
        monkeypatch.setattr(
            driver, "seminorm", lambda *args: calls.append(None) or counted(*args)
        )
        reused = fit_growth_bound(instance_1d_loose, seed=0)
        # one seminorm scales each of the 20 samples, one more measures T(v)
        assert len(calls) < 2 * 20
        # a solve that reports an inner iteration is measured again
        solve = driver.apply_T

        def busy_T(inst, v, start=None):
            result = solve(inst, v, start)
            return replace(result, iterations=result.iterations + 1)

        monkeypatch.setattr(driver, "apply_T", busy_T)
        calls.clear()
        recomputed = fit_growth_bound(instance_1d_loose, seed=0)
        assert len(calls) == 2 * 20
        assert reused == recomputed

    def test_continuity_under_small_perturbations(self, instance_1d_tight):
        inst = instance_1d_tight
        grid = inst.grid
        v = inst.certificate.lower
        base = apply_T(inst, v).x
        z = random_field(inst, 1.0, seed=9)
        gaps = []
        for delta in (1e-2, 1e-3, 1e-4):
            vd = v + delta * z
            gaps.append(np.max(np.abs(apply_T(inst, vd).x - base)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.1 * gaps[0]


class TestRelaxation:
    def test_theta_one_is_pure_picard(self):
        v = np.array([1.0, -2.0, 0.5])
        t = np.array([0.25, 3.0, -1.0])
        assert np.array_equal(relaxed_update(v, t, 1.0), t)

    def test_update_is_affine_in_theta(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(6)
        t = rng.standard_normal(6)
        u_a = relaxed_update(v, t, 0.3)
        u_b = relaxed_update(v, t, 0.5)
        u_mid = relaxed_update(v, t, 0.4)
        assert np.max(np.abs(0.5 * (u_a + u_b) - u_mid)) <= 1e-14


class TestSolveProblem:
    def test_converges_on_small_instance(self, instance_1d):
        report = solve_problem(instance_1d, OuterOptions(tol=1e-6))
        assert report.converged
        assert report.outer_iterations <= 40
        assert all(math.isfinite(r) for r in report.frozen_residuals)
        assert all(math.isfinite(s) for s in report.step_seminorms)
        grid = instance_1d.grid
        u = grid.pack(report.u)
        floor = instance_1d.trunc.floor
        assert np.min(u - floor) >= -1e-6
        assert np.all(u > 0.0)
        # Hopf-type lower bound with the certificate's constants
        cert = instance_1d.certificate
        d = grid.interior_distance
        assert np.all(u >= cert.eta * d**cert.exponent - 1e-6)
        assert report.final_residual < 5.0 * 1e-6

    def test_constant_convection_two_outer_steps(self):
        grid = build_grid(interval(0.0, 1.0), 17)
        inst = build_instance(
            grid,
            EXPONENTS_1D,
            REACTION_1D,
            ConvectiveReaction(c3=0.0, zeta=1.2),
        )
        report = solve_problem(inst, OuterOptions(theta=1.0, tol=1e-6))
        assert report.converged
        assert report.outer_iterations <= 2

    def test_ball_monitor_trace_stays_inside(self, instance_1d):
        bound = fit_growth_bound(instance_1d, seed=0)
        report = solve_problem(instance_1d, OuterOptions(tol=1e-6))
        assert report.ball is not None
        assert all(n <= bound.rho * (1.0 + 1e-9) for n in report.v_norms)

    def test_ball_monitor_violation_aborts(self, instance_1d):
        from fracsolve.driver import GrowthBound

        tiny = GrowthBound(c_emp=1e-12, rho=1e-9, exponent=1.0)
        with pytest.raises(RuntimeError, match="ball"):
            solve_problem(instance_1d, OuterOptions(tol=1e-6), ball=tiny)

    def test_outer_budget_exhaustion_reports_failure(self, instance_1d):
        report = solve_problem(
            instance_1d, OuterOptions(tol=1e-13, max_outer=2, ball_monitor=False)
        )
        assert not report.converged
        assert report.message

    def test_growing_steps_damp_the_relaxation(self, instance_1d, monkeypatch):
        # a map whose answers grow tenfold per call: every step seminorm
        # grows, so theta halves after each third growing step, down to 1/16
        floor = instance_1d.trunc.floor
        calls = []

        def growing_T(inst, v, start=None):
            calls.append(None)
            return MinimizeResult(floor * 10.0 ** len(calls), True, 1, 0.0, 0.0)

        monkeypatch.setattr(driver, "apply_T", growing_T)
        report = solve_problem(
            instance_1d, OuterOptions(theta=0.5, tol=1e-6, max_outer=13, ball_monitor=False)
        )
        assert not report.converged and report.outer_iterations == 13
        assert all(b > a for a, b in zip(report.step_seminorms, report.step_seminorms[1:]))
        assert report.thetas == [0.5] * 4 + [0.25] * 3 + [0.125] * 3 + [1.0 / 16.0] * 3
        damped = [line for line in report.log if "relaxation damped" in line]
        assert [line.split("theta = ")[1] for line in damped] == ["0.25", "0.125", "0.0625"]
        assert damped[0].startswith("outer 4:")

    def test_contracting_map_takes_picard_steps(self, instance_1d, monkeypatch):
        monkeypatch.setattr(driver, "apply_T", affine_T(instance_1d, 0.1))
        floor = instance_1d.trunc.floor
        tol = 1e-2 * seminorm(instance_1d.tables[0], floor)
        report = solve_problem(instance_1d, OuterOptions(tol=tol, ball_monitor=False))
        # theta = 0.5 alone would shrink the step by 0.55 a step and need 8
        assert report.converged and report.outer_iterations <= 4
        assert report.thetas == [0.5] + [1.0] * (report.outer_iterations - 1)

    def test_weakly_contracting_map_keeps_the_relaxation(self, instance_1d, monkeypatch):
        monkeypatch.setattr(driver, "apply_T", affine_T(instance_1d, 0.9))
        report = solve_problem(
            instance_1d, OuterOptions(tol=1e-12, max_outer=10, ball_monitor=False)
        )
        assert not report.converged
        assert report.thetas == [0.5] * 10

    def test_empty_step_ends_the_loop(self, instance_1d, monkeypatch):
        # a constant map whose solves take no inner iteration: the second
        # step sees x_2 = x_1, moves to the answer, and the third confirms it
        monkeypatch.setattr(driver, "apply_T", affine_T(instance_1d, 0.0, iterations=0))
        report = solve_problem(instance_1d, OuterOptions(ball_monitor=False))
        assert report.converged and report.outer_iterations <= 3
        assert report.thetas == [0.5, 1.0, 1.0]
        assert report.step_seminorms[-1] == 0.0

    def test_matches_coupled_brute_force(self, instance_1d_tight):
        inst = instance_1d_tight
        grid = inst.grid
        report = solve_problem(inst, OuterOptions(tol=1e-7))
        assert report.converged
        u_driver = grid.pack(report.raw)

        # independent oracle: nodewise nonlinear Gauss-Seidel on the fully
        # coupled system; the convective field is recomputed from the
        # iterate itself at the top of every sweep
        from scipy.optimize import brentq

        def problem_at(uv):
            xi = riesz_gradient(inst.plan, uv)
            return FrozenProblem(tables=inst.tables, trunc=inst.trunc, load=g_eval(inst.convective, xi))

        u = inst.trunc.floor.copy()
        n = u.size
        best = (np.inf, u.copy())
        for _ in range(400):
            prob = problem_at(u)
            res = scaled_norm(frozen_gradient(prob, u))
            if res < best[0]:
                best = (res, u.copy())
            if res < 1e-9:
                break
            for i in range(n):
                def node_res(t):
                    w = u.copy()
                    w[i] = t
                    return frozen_gradient(prob, w)[i]

                lo, hi = u[i] - 0.5, u[i] + 0.5
                width = 0.5
                while node_res(lo) * node_res(hi) > 0.0 and width < 64.0:
                    width *= 2.0
                    lo, hi = u[i] - width, u[i] + width
                if node_res(lo) * node_res(hi) <= 0.0:
                    u[i] = brentq(node_res, lo, hi, xtol=1e-14)
        assert best[0] < 1e-9, f"oracle stalled at {best[0]:.3e}"
        assert np.max(np.abs(u_driver - best[1])) <= 1e-5

    def test_fixed_point_residual_identity(self):
        grid = build_grid(interval(0.0, 1.0), 17)
        inst = build_instance(
            grid,
            EXPONENTS_1D,
            REACTION_1D,
            ConvectiveReaction(c3=0.0, zeta=1.2),
            frozen_options=MinimizerOptions(tol=1e-8),
        )
        report = solve_problem(inst, OuterOptions(theta=1.0, tol=1e-6))
        assert report.converged
        # with the convective pairing constant, freezing at the outer
        # iterate or at the solution itself is the same functional
        frozen_res = report.frozen_residuals[-1]
        full_res = verify_solution(inst, grid.pack(report.raw))
        assert abs(frozen_res - full_res) <= 1e-10

    def test_warm_outer_steps_need_fewer_iterations(self, instance_1d):
        report = solve_problem(instance_1d, OuterOptions())
        assert report.converged
        assert len(report.inner_iterations) == report.outer_iterations
        cold = apply_T(instance_1d, instance_1d.grid.pack(report.u))
        assert cold.converged
        warm = sum(report.inner_iterations[1:])
        assert warm < (report.outer_iterations - 1) * cold.iterations

    def test_final_solve_only_after_convergence(self, instance_1d, monkeypatch):
        calls = []
        solve = driver.solve_frozen
        monkeypatch.setattr(
            driver, "solve_frozen", lambda *args: calls.append(args[1].tol) or solve(*args)
        )
        tol = instance_1d.frozen_options.tol
        report = solve_problem(instance_1d, OuterOptions(ball_monitor=False))
        assert report.converged
        assert calls == [tol] * report.outer_iterations + [tol / 10.0]
        assert report.frozen_residuals[-1] < tol / 10.0
        assert report.final_residual < 0.5 * tol
        calls.clear()
        report = solve_problem(
            instance_1d, OuterOptions(tol=1e-13, max_outer=2, ball_monitor=False)
        )
        assert not report.converged
        assert calls == [tol, tol]

    def test_tables_not_rechecked_per_step(self, instance_1d, monkeypatch):
        calls = []
        for module in (frozen, torsion):
            check = module.check_operator_tables
            monkeypatch.setattr(
                module,
                "check_operator_tables",
                lambda *args, check=check: calls.append(1) or check(*args),
            )
        report = solve_problem(instance_1d, OuterOptions())
        assert report.converged
        assert calls == []

    def test_tables_hold_no_dense_pair_matrix(self, instance_1d):
        # a table stores its offset weights and tail; the n x n matrix is
        # built only when an oracle asks for it, and kept by nobody
        solve_problem(instance_1d, OuterOptions())
        n = instance_1d.grid.n_interior
        for table in instance_1d.tables:
            sizes = [v.size for v in vars(table).values() if isinstance(v, np.ndarray)]
            assert sizes
            assert n * n not in sizes


    def test_logs_one_line_per_outer_step(self, instance_1d, caplog):
        with caplog.at_level(logging.INFO, logger="fracsolve.driver"):
            report = solve_problem(instance_1d, OuterOptions(ball_monitor=False))
        assert report.converged
        lines = [r.getMessage() for r in caplog.records if r.name == "fracsolve.driver"]
        assert len(lines) == report.outer_iterations
        for k, line in enumerate(lines, start=1):
            assert line.startswith(f"outer {k}: ")
            assert f"step seminorm {report.step_seminorms[k - 1]:.3e}" in line
            assert f"theta {report.thetas[k - 1]:.6g}" in line
        # the last step's counts are overwritten by the tighter final solve
        for k, line in enumerate(lines[:-1], start=1):
            assert f"frozen residual {report.frozen_residuals[k - 1]:.3e}" in line
            assert f"{report.inner_iterations[k - 1]} inner iterations" in line

    def test_logs_one_line_per_growth_sample(self, instance_1d, caplog):
        with caplog.at_level(logging.INFO, logger="fracsolve.driver"):
            report = solve_problem(instance_1d, OuterOptions(ball_monitor=True))
        assert report.converged and report.ball is not None
        lines = [r.getMessage() for r in caplog.records if r.name == "fracsolve.driver"]
        # the fit logs its 20 samples before the first outer step
        assert len(lines) == 20 + report.outer_iterations
        for k, line in enumerate(lines[:20], start=1):
            assert line.startswith(f"growth sample {k}: seminorm ")
            assert line.endswith(" inner iterations") or line.endswith("skipped")
        assert lines[20].startswith("outer 1: ")


class TestVerifySolution:
    def test_zero_field_sees_the_forcing(self, instance_1d):
        grid = instance_1d.grid
        res = verify_solution(instance_1d, np.zeros(grid.n_interior))
        vol = grid.cell_volume
        forcing = instance_1d.trunc.f(np.zeros(grid.n_interior))
        expected = scaled_norm(vol * (forcing + instance_1d.convective.c3))
        assert res > 0.5 * expected

    def test_converged_solution_residual(self, instance_1d_tight):
        report = solve_problem(instance_1d_tight, OuterOptions(tol=1e-7))
        assert report.converged
        u = instance_1d_tight.grid.pack(report.u)
        assert verify_solution(instance_1d_tight, u) < 5.0 * 1e-7


class TestTwoDimensional:
    def test_disk_instance_converges(self):
        grid = build_grid(disk(0.0, 0.0, 1.0), 11)
        exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=3.0, q=2.5, dim=2)
        reaction = SingularReaction(gamma=0.4, c1=0.5, c2=0.5, r=1.3)
        convective = ConvectiveReaction(c3=0.1, zeta=1.4)
        inst = build_instance(grid, exps, reaction, convective)
        report = solve_problem(inst, OuterOptions(tol=1e-5))
        assert report.converged
        u = grid.pack(report.u)
        assert np.all(u > 0.0)
        assert np.min(u - inst.trunc.floor) >= -1e-5
        assert report.final_residual < 5.0 * 1e-5
