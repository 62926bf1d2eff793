"""Outer fixed-point iteration: relaxation, growth bound, full verification.

Oracles:
  * a damped nonlinear relaxation on the fully coupled nodal system
    (convective field recomputed from the current iterate every sweep,
    run to scaled residual 1e-9) pins the 17-node fixed point;
  * the growth-bound fit is validated on fresh random fields;
  * the constant-convection map must converge in two outer steps and be
    input-independent.
"""

import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fracsolve import driver, frozen, gagliardo, optimize
from fracsolve.config import load_config
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
from fracsolve.gagliardo import Operator, seminorm
from fracsolve.grids import Grid, disk, interval
from fracsolve.optimize import MinimizeResult, MinimizerOptions
from fracsolve.reaction import ConvectiveReaction, ProblemExponents, SingularReaction, g_eval
from fracsolve.riesz import riesz_gradient
from support.passes import count_form_passes
from support.window import stress_draw, window_draw


EXPONENTS_1D = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
REACTION_1D = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
CONVECTIVE_1D = ConvectiveReaction(c3=0.2, zeta=1.2)


def build_1d(tol=None):
    """The 1D instance, at the default inner tolerance or at ``tol``."""
    grid = Grid(interval(0.0, 1.0), 17)
    options = None if tol is None else MinimizerOptions(tol=tol)
    return build_instance(grid, EXPONENTS_1D, REACTION_1D, CONVECTIVE_1D, frozen_options=options)


def build_disk():
    grid = Grid(disk(0.0, 0.0, 1.0), 11)
    exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=3.0, q=2.5, dim=2)
    reaction = SingularReaction(gamma=0.4, c1=0.5, c2=0.5, r=1.3)
    convective = ConvectiveReaction(c3=0.1, zeta=1.4)
    return build_instance(grid, exps, reaction, convective)


# The 1D instances are built for each test (4 ms), so that no kept point
# or Newton factor carries from one test to the next: each test starts
# from the operator a run has after its build.
@pytest.fixture
def instance_1d():
    return build_1d()


@pytest.fixture
def instance_1d_tight():
    return build_1d(1e-8)


@pytest.fixture
def instance_1d_loose():
    # at inner tol 1e-4 some growth samples already meet the tolerance at
    # the last sample's answer and return it unchanged
    return build_1d(1e-4)


@pytest.fixture(scope="module")
def disk_built():
    return build_disk()


# each disk test takes a fresh operator over the module's tables, so that
# no kept point or Newton factor carries from one test to the next
@pytest.fixture
def disk_instance(disk_built):
    return replace(disk_built, operator=Operator(*disk_built.operator.tables))


def affine_T(monkeypatch, instance, kappa, tol, iterations=1):
    """Stand in for apply_T with v -> a + kappa (v - a), contracting by
    exactly kappa toward its fixed point a = 2 * floor, and for
    verify_solution with that map's fixed-point residual seminorm(T(u) -
    u).  Returns the instance at inner tolerance ``tol``, the bound the loop
    holds that residual to."""
    a = 2.0 * instance.trunc.floor

    def T(v):
        return a + kappa * (v - a)

    monkeypatch.setattr(
        driver,
        "apply_T",
        lambda inst, v, start=None: MinimizeResult(T(v), True, iterations, 0.0, 0.0),
    )
    monkeypatch.setattr(
        driver, "verify_solution", lambda inst, u: seminorm(inst.operator, T(u) - u)
    )
    return replace(instance, frozen_options=MinimizerOptions(tol=tol))


def check_growth_log(instance, caplog) -> int:
    """Solve with the growth monitor and check its -v lines: the fit's 20
    samples before the first outer step, then a line per sample it
    polishes and one per outer step; returns the number of polished
    samples."""
    with caplog.at_level(logging.INFO, logger="fracsolve.driver"):
        report = solve_problem(instance, OuterOptions(ball_monitor=True))
    assert report.converged and report.ball is not None
    lines = [r.getMessage() for r in caplog.records if r.name == "fracsolve.driver"]
    for k, line in enumerate(lines[:20], start=1):
        assert line.startswith(f"growth sample {k}: seminorm ")
        assert line.endswith(" CG iterations") or line.endswith("skipped")
    polished = 0
    while lines[20 + polished].startswith("growth sample "):
        assert re.match(r"growth sample \d+ polished: ", lines[20 + polished])
        polished += 1
    outer = lines[20 + polished :]
    assert len(outer) == report.outer_iterations
    for k, line in enumerate(outer, start=1):
        assert line.startswith(f"outer {k}: ")
    return polished


def random_field(instance, lam, seed):
    """Interior vector with (s1,p)-seminorm exactly lam."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(instance.grid.n_interior)
    return lam * z / seminorm(instance.operator, z)


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
        grid = Grid(interval(0.0, 1.0), 17)
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
        e = EXPONENTS_1D
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
            lhs = seminorm(instance_1d.operator, tv.x) ** e.p
            rhs = 2.0 * bound.c_emp * (1.0 + lam**bound.exponent)
            assert lhs <= rhs

    def test_growth_radius_is_the_root_of_the_gap(self, instance_1d):
        from scipy.optimize import brentq

        bound = fit_growth_bound(instance_1d, seed=0)
        p = instance_1d.operator.tables[0].params.p

        def gap(rho):
            return rho**p - bound.c_emp * (1.0 + rho**bound.exponent)

        ref = brentq(gap, 1e-8, 64.0, xtol=1e-14, rtol=1e-14)
        assert abs(bound.rho - ref) <= 1e-13 * ref
        assert gap(bound.rho * (1.0 - 1e-13)) < 0.0 < gap(bound.rho * (1.0 + 1e-13))

    def test_exponent_outside_window_has_no_radius(self, instance_1d, monkeypatch):
        # zeta p' >= p exactly when zeta >= p - 1 = 1.5; no sample is solved
        inst = replace(instance_1d, convective=ConvectiveReaction(c3=0.2, zeta=2.0))
        monkeypatch.setattr(driver, "apply_T", None)
        with pytest.warns(UserWarning, match="no finite invariance radius exists"):
            assert fit_growth_bound(inst, seed=0) is None

    def test_no_converged_sample_has_no_radius(self, instance_1d, monkeypatch):
        floor = instance_1d.trunc.floor
        monkeypatch.setattr(
            driver,
            "apply_T",
            lambda inst, v, start=None: MinimizeResult(floor, False, 5, 1.0, 0.0, "stall"),
        )
        with pytest.warns(UserWarning) as record:
            assert fit_growth_bound(instance_1d, seed=0) is None
        messages = [str(w.message) for w in record]
        assert len(messages) == 21
        assert all(m.endswith("did not converge; skipped") for m in messages[:20])
        assert messages[20] == "growth-bound fit produced no usable samples"

    def test_huge_map_has_no_radius(self, instance_1d, monkeypatch):
        # c_emp ~ 6e12 puts the root of rho^p = c_emp (1 + rho^(zeta p'))
        # near c_emp^(1 / (p - zeta p')) = c_emp^2, far past 1e12
        huge = 1e6 * instance_1d.trunc.floor
        monkeypatch.setattr(
            driver,
            "apply_T",
            lambda inst, v, start=None: MinimizeResult(huge, True, 1, 0.0, 0.0),
        )
        with pytest.warns(UserWarning, match="invariance radius exceeds 1e12"):
            assert fit_growth_bound(instance_1d, seed=0) is None

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

    def test_answer_seminorms_read_the_kept_forms(self, instance_1d_loose, monkeypatch):
        passes = count_form_passes(monkeypatch)
        factor = instance_1d_loose.operator.factor
        kept = fit_growth_bound(instance_1d_loose, seed=0)
        # one energy pass scales each of the 20 samples; the T(v) seminorm
        # of a loose sample or a polish is read from the forms its solve
        # kept at its answer
        assert passes.count(False) == 20
        # measured by a new pass, with no forms kept, the fit is the same:
        # the fit and each of its solves run on fresh operators over the
        # same tables, which hand the kept Newton factor on from solve to
        # solve as the run's operator does
        def fresh(inst):
            op = Operator(*inst.operator.tables)
            op.factor = inst.operator.factor
            return replace(inst, operator=op)

        solve = driver.apply_T
        tols = []

        def fresh_T(inst, v, start=None):
            tols.append(inst.frozen_options.tol)
            own = fresh(inst)
            result = solve(own, v, start)
            inst.operator.factor = own.operator.factor
            return result

        monkeypatch.setattr(driver, "apply_T", fresh_T)
        passes.clear()
        cold_instance = fresh(instance_1d_loose)
        cold_instance.operator.factor = factor
        cold = fit_growth_bound(cold_instance, seed=0)
        # some samples of this fit are polished at the inner tolerance
        polishes = tols.count(instance_1d_loose.frozen_options.tol)
        assert polishes > 0 and len(tols) == 20 + polishes
        assert passes.count(False) == 2 * 20 + polishes
        assert kept == cold

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


def growth_exponents(instance):
    """p of the operator's first table, and the growth exponent zeta p'."""
    p = instance.operator.tables[0].params.p
    return p, instance.convective.zeta * (p / (p - 1.0))


def tight_fit(instance, monkeypatch):
    """The growth fit with every sample solved at the inner tolerance, so
    that no sample is left to polish, and each sample's ratio
    seminorm(T v)^p / (1 + seminorm(v)^(zeta p')), in sample order."""
    solve = driver.apply_T
    op = instance.operator
    p, exponent = growth_exponents(instance)
    ratios = []

    def tight_T(inst, v, start=None):
        result = solve(replace(inst, frozen_options=instance.frozen_options), v, start)
        ratios.append(seminorm(op, result.x) ** p / (1.0 + seminorm(op, v) ** exponent))
        return result

    with monkeypatch.context() as m:
        m.setattr(driver, "apply_T", tight_T)
        bound = fit_growth_bound(instance, seed=0)
    return bound, ratios


class TestGrowthFitPolish:
    """The fit solves its samples at ten times the inner tolerance and
    polishes at the inner tolerance the samples near the loose maximum."""

    @pytest.mark.parametrize(
        "build",
        [build_1d, lambda: build_1d(1e-4), build_disk],
        ids=["instance_1d", "instance_1d_loose", "disk_instance"],
    )
    def test_matches_an_all_tight_fit(self, build, monkeypatch):
        # each fit runs on its own build, so that neither starts from the
        # Newton factor the other leaves on the operator
        fit = fit_growth_bound(build(), seed=0)
        tight, ratios = tight_fit(build(), monkeypatch)
        assert len(ratios) == 20
        assert fit.c_emp == pytest.approx(tight.c_emp, rel=1e-6)
        assert fit.rho == pytest.approx(tight.rho, rel=1e-6)
        assert tight.c_emp == max(ratios)

    def test_polish_recovers_an_understated_maximum(self, instance_1d, monkeypatch):
        inst = instance_1d
        tol = inst.frozen_options.tol
        _, tight_ratios = tight_fit(inst, monkeypatch)
        top = int(np.argmax(tight_ratios))
        # the loose answer of the sample that holds the maximum is scaled so
        # that its ratio (p-homogeneous in T v) reads 1e-2 low, and claims a
        # residual at the inner tolerance, so that only its polish can
        # restore it
        scale = (1.0 - 1e-2) ** (1.0 / inst.operator.tables[0].params.p)
        solve = driver.apply_T
        loose_calls = []

        def understating_T(inst_, v, start=None):
            result = solve(inst_, v, start)
            if inst_.frozen_options.tol == tol:
                return result
            loose_calls.append(None)
            if len(loose_calls) - 1 != top:
                return result
            return replace(result, x=scale * result.x, residual=tol)

        monkeypatch.setattr(driver, "apply_T", understating_T)
        bound = fit_growth_bound(inst, seed=0)
        assert len(loose_calls) == 20
        # the polish starts 0.4 % off the answer and stops just inside the
        # inner tolerance, a few 1e-6 (relative) from the tight fit's ratio;
        # every other sample's ratio is more than 1e-4 below the maximum
        others = np.delete(tight_ratios, top)
        assert np.all(others < (1.0 - 1e-4) * tight_ratios[top])
        assert bound.c_emp == pytest.approx(tight_ratios[top], rel=1e-5)

    def test_failed_polish_keeps_the_loose_ratio(self, instance_1d_loose, monkeypatch):
        inst = instance_1d_loose
        tol = inst.frozen_options.tol
        op = inst.operator
        p, exponent = growth_exponents(inst)
        solve = driver.apply_T
        loose_ratios = []

        def failing_polish_T(inst_, v, start=None):
            result = solve(inst_, v, start)
            if inst_.frozen_options.tol == tol:
                return replace(result, converged=False, message="stall")
            loose_ratios.append(seminorm(op, result.x) ** p / (1.0 + seminorm(op, v) ** exponent))
            return result

        monkeypatch.setattr(driver, "apply_T", failing_polish_T)
        with pytest.warns(UserWarning, match="its loose ratio is kept"):
            bound = fit_growth_bound(inst, seed=0)
        assert bound.c_emp == pytest.approx(max(loose_ratios), rel=1e-12)


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
        grid = Grid(interval(0.0, 1.0), 17)
        inst = build_instance(
            grid,
            EXPONENTS_1D,
            REACTION_1D,
            ConvectiveReaction(c3=0.0, zeta=1.2),
        )
        report = solve_problem(inst, OuterOptions(tol=1e-6))
        assert report.converged
        assert report.outer_iterations <= 2

    def test_ball_monitor_trace_stays_inside(self, instance_1d):
        bound = fit_growth_bound(instance_1d, seed=0)
        report = solve_problem(instance_1d, OuterOptions(tol=1e-6))
        assert report.ball is not None
        assert all(n <= bound.rho * (1.0 + 1e-9) for n in report.v_norms)

    def test_ball_monitor_violation_aborts(self, instance_1d, monkeypatch):
        tiny = driver.GrowthBound(c_emp=1e-12, rho=1e-9, exponent=1.0)
        monkeypatch.setattr(driver, "fit_growth_bound", lambda instance, seed=0: tiny)
        with pytest.raises(RuntimeError, match="ball"):
            solve_problem(instance_1d, OuterOptions(tol=1e-6))

    def test_no_growth_bound_solves_unmonitored(self, instance_1d, monkeypatch):
        monkeypatch.setattr(driver, "fit_growth_bound", lambda instance, seed=0: None)
        report = solve_problem(instance_1d, OuterOptions(tol=1e-6))
        assert report.converged
        assert report.ball is None

    def test_failed_frozen_solve_ends_with_one_record(self, instance_1d, monkeypatch, caplog):
        # the second frozen solve fails: its step is recorded like any
        # other, with a NaN step seminorm and the unmoved iterate's norm
        solve = driver.apply_T
        calls = []

        def failing_T(inst, v, start=None):
            calls.append(None)
            result = solve(inst, v, start)
            return result if len(calls) == 1 else replace(result, converged=False, message="stall")

        monkeypatch.setattr(driver, "apply_T", failing_T)
        with caplog.at_level(logging.INFO, logger="fracsolve.driver"):
            report = solve_problem(instance_1d, OuterOptions(ball_monitor=False))
        assert not report.converged and report.outer_iterations == 2
        assert report.message == "frozen solve failed at outer iteration 2: stall"
        for history in (
            report.step_seminorms, report.frozen_residuals, report.inner_iterations,
            report.full_residuals, report.thetas,
        ):
            assert len(history) == 2
        assert math.isfinite(report.step_seminorms[0]) and math.isnan(report.step_seminorms[1])
        assert len(report.v_norms) == 3 and report.v_norms[2] == report.v_norms[1]
        lines = [r.getMessage() for r in caplog.records if r.name == "fracsolve.driver"]
        assert [line.split(":")[0] for line in lines] == ["outer 1", "outer 2"]
        assert "step seminorm nan" in lines[1]

    def test_outer_budget_exhaustion_reports_failure(self, instance_1d):
        report = solve_problem(
            instance_1d, OuterOptions(tol=1e-13, max_outer=2, ball_monitor=False)
        )
        assert not report.converged
        # the message names both stopping quantities against their tolerances
        assert report.message == (
            "outer iteration budget 2 exhausted; "
            f"last step seminorm {report.step_seminorms[-1]:.3e} against tolerance 1.000e-13, "
            f"last coupled residual {report.full_residuals[-1]:.3e} "
            "against inner tolerance 1.000e-06"
        )

    def test_growing_steps_damp_the_relaxation(self, instance_1d, monkeypatch):
        # a map whose answers grow tenfold per call: after the first step
        # every step sees T fail to contract and takes theta = 1/2; the
        # next answer to an answer u is 10 u, so its fixed-point residual
        # is 9 u
        floor = instance_1d.trunc.floor
        calls = []

        def growing_T(inst, v, start=None):
            calls.append(None)
            return MinimizeResult(floor * 10.0 ** len(calls), True, 1, 0.0, 0.0)

        monkeypatch.setattr(driver, "apply_T", growing_T)
        monkeypatch.setattr(
            driver, "verify_solution", lambda inst, u: seminorm(inst.operator, 9.0 * u)
        )
        report = solve_problem(
            instance_1d, OuterOptions(tol=1e-6, max_outer=13, ball_monitor=False)
        )
        assert not report.converged and report.outer_iterations == 13
        assert report.message.startswith("outer iteration budget 13 exhausted")
        assert all(b > a for a, b in zip(report.step_seminorms, report.step_seminorms[1:]))
        assert report.thetas == [1.0] + [0.5] * 12
        assert not hasattr(report, "log")

    def test_contracting_map_takes_picard_steps(self, instance_1d, monkeypatch):
        floor = instance_1d.trunc.floor
        tol = 1e-2 * seminorm(instance_1d.operator, floor)
        inst = affine_T(monkeypatch, instance_1d, 0.1, tol)
        report = solve_problem(inst, OuterOptions(tol=tol, ball_monitor=False))
        # theta = 0.5 would shrink the residual by 0.55 a step and need 8
        assert report.converged and report.outer_iterations <= 4
        assert report.thetas == [1.0] * report.outer_iterations

    def test_weakly_contracting_map_keeps_the_relaxation(self, instance_1d, monkeypatch):
        inst = affine_T(monkeypatch, instance_1d, 0.9, 1e-12)
        report = solve_problem(inst, OuterOptions(tol=1e-12, max_outer=10, ball_monitor=False))
        assert not report.converged
        assert report.thetas == [1.0] + [0.5] * 9

    def test_relaxed_run_stops_on_the_fixed_point_residual(self, instance_1d, monkeypatch):
        # T(v) = a + kappa (v - a), whose coupled residual is its
        # fixed-point residual T(u) - u = (kappa - 1)(u - a): the run stops
        # on it at the answer raw, whatever weight the steps took; a stop
        # on the relaxed step theta |T(v) - v| would leave it up to tol /
        # theta
        kappa = 0.9
        op = instance_1d.operator
        a = 2.0 * instance_1d.trunc.floor
        tol = 1e-2 * seminorm(op, instance_1d.trunc.floor)
        inst = affine_T(monkeypatch, instance_1d, kappa, tol)
        report = solve_problem(inst, OuterOptions(tol=tol, max_outer=100, ball_monitor=False))
        assert report.converged and 0.5 in report.thetas
        raw = instance_1d.grid.pack(report.raw)
        residual = seminorm(op, (kappa - 1.0) * (raw - a))
        assert residual < tol
        assert report.full_residuals[-1] == pytest.approx(residual, rel=1e-9)
        # the step seminorm is that of T(v) - v = (raw - a)(1 - 1 / kappa)
        # at the last frozen iterate v = a + (raw - a) / kappa, unweighted
        step = seminorm(op, (raw - a) * (1.0 - 1.0 / kappa))
        assert report.step_seminorms[-1] == pytest.approx(step, rel=1e-9)

    def test_empty_step_ends_the_loop(self, instance_1d, monkeypatch):
        # a constant map whose solves take no inner iteration: the first
        # step moves to the answer, whose fixed-point residual is 0, and
        # the second, tight, step sees x_2 = x_1 and confirms it
        inst = affine_T(monkeypatch, instance_1d, 0.0, 1e-6, iterations=0)
        report = solve_problem(inst, OuterOptions(ball_monitor=False))
        assert report.converged and report.outer_iterations <= 2
        assert report.thetas == [1.0, 1.0]
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
            return FrozenProblem(inst.operator, inst.trunc, g_eval(inst.convective, xi))

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
        grid = Grid(interval(0.0, 1.0), 17)
        inst = build_instance(
            grid,
            EXPONENTS_1D,
            REACTION_1D,
            ConvectiveReaction(c3=0.0, zeta=1.2),
            frozen_options=MinimizerOptions(tol=1e-8),
        )
        report = solve_problem(inst, OuterOptions(tol=1e-6))
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
        # the tight solve is the last outer step, after the step whose
        # coupled residual met the inner tolerance
        assert calls == [tol] * (report.outer_iterations - 1) + [tol / 10.0]
        assert report.full_residuals[-2] < tol <= report.full_residuals[-3]
        assert report.frozen_residuals[-1] < tol / 10.0
        assert report.final_residual < 0.5 * tol
        calls.clear()
        report = solve_problem(
            instance_1d, OuterOptions(tol=1e-13, max_outer=2, ball_monitor=False)
        )
        assert not report.converged
        assert calls == [tol, tol]

    def test_tables_hold_no_dense_pair_matrix(self, instance_1d):
        # a table stores its offset weights and tail; the n x n matrix is
        # built only when an oracle asks for it, and kept by nobody
        solve_problem(instance_1d, OuterOptions())
        n = instance_1d.grid.n_interior
        for table in instance_1d.operator.tables:
            sizes = [v.size for v in vars(table).values() if isinstance(v, np.ndarray)]
            assert sizes
            assert n * n not in sizes


    def test_logs_one_line_per_outer_step(self, instance_1d, caplog):
        with caplog.at_level(logging.INFO, logger="fracsolve.driver"):
            report = solve_problem(instance_1d, OuterOptions(ball_monitor=False))
        assert report.converged
        lines = [r.getMessage() for r in caplog.records if r.name == "fracsolve.driver"]
        # one line per outer step, the tight last one among them
        assert len(lines) == report.outer_iterations
        for k, line in enumerate(lines, start=1):
            assert line.startswith(f"outer {k}: ")
            assert f"step seminorm {report.step_seminorms[k - 1]:.3e}" in line
            assert f"frozen residual {report.frozen_residuals[k - 1]:.3e}" in line
            assert f"{report.inner_iterations[k - 1]} inner iterations" in line
            assert f"theta {report.thetas[k - 1]:.6g}" in line

    def test_logs_one_line_per_growth_sample(self, instance_1d, caplog):
        check_growth_log(instance_1d, caplog)

    def test_logs_a_polished_growth_sample(self, instance_1d, caplog):
        # from an operator with no kept Newton factor the fit polishes a sample
        fresh = replace(instance_1d, operator=Operator(*instance_1d.operator.tables))
        assert check_growth_log(fresh, caplog) > 0

    def test_logs_count_energy_evaluations_and_backtracks(
        self, disk_instance, monkeypatch, caplog
    ):
        results = []
        solve = driver.apply_T

        def recorded_T(inst, v, start=None):
            results.append(solve(inst, v, start))
            return results[-1]

        monkeypatch.setattr(driver, "apply_T", recorded_T)
        with caplog.at_level(logging.INFO, logger="fracsolve.driver"):
            report = solve_problem(disk_instance, OuterOptions(ball_monitor=True))
        lines = [r.getMessage() for r in caplog.records if r.name == "fracsolve.driver"]
        # the 20 samples, then the polishes of the samples near the maximum
        # (some on this disk), then the outer steps
        polished = [line for line in lines[20:] if line.startswith("growth sample ")]
        assert polished and all(" polished: " in line for line in polished)
        assert lines[20 + len(polished)].startswith("outer 1: ")
        assert lines[-1].startswith(f"outer {report.outer_iterations}: ")
        assert len(lines) == len(results) == 20 + len(polished) + report.outer_iterations
        for line, result in zip(lines, results):
            assert result.converged
            assert (
                f"{result.newton_steps} Newton steps, {result.energy_evals} energy evaluations, "
                f"{result.backtracks} backtracks, {result.iterations} inner iterations"
            ) in line
            # every energy after the start's is a trial, accepted or not
            assert result.energy_evals == 1 + result.iterations + result.backtracks


class TestPassCounts:
    """A solve evaluates the operator forms at most once per point."""

    def test_a_run_plans_its_pair_blocks_once(self, monkeypatch):
        # the floor's first pass plans the operator's pair blocks; every
        # later pass and Hessian fill of the build and the solve walks them
        plans = []
        block_plan = gagliardo._block_plan

        def counted(grid, tables):
            plans.append(len(tables))
            return block_plan(grid, tables)

        monkeypatch.setattr(gagliardo, "_block_plan", counted)
        inst = build_disk()
        blocks = inst.operator.blocks
        report = solve_problem(inst, OuterOptions(ball_monitor=True))
        assert report.converged
        assert plans == [2]
        assert inst.operator.blocks is blocks

    def test_returned_start_and_its_verify_cost_no_pass(self, disk_instance, monkeypatch):
        inst = disk_instance
        v = inst.trunc.floor * 2.0
        first = apply_T(inst, v)
        assert first.converged and first.iterations > 0
        assert np.all(first.x >= inst.trunc.floor)
        passes = count_form_passes(monkeypatch)
        verify_solution(inst, first.x)
        assert passes == []
        again = apply_T(inst, v, first.x)
        assert again.converged and again.iterations == 0
        assert passes == []
        verify_solution(inst, again.x)
        assert seminorm(inst.operator, again.x) == seminorm(inst.operator, first.x)
        assert passes == []

    def test_outer_loop_spends_no_pass_on_a_kept_point(self, disk_instance, monkeypatch):
        passes = count_form_passes(monkeypatch)
        spent = {"apply_T": [], "verify_solution": []}
        for name in spent:

            def counted(*args, fn=getattr(driver, name), name=name):
                before = len(passes)
                out = fn(*args)
                spent[name].append((out, len(passes) - before))
                return out

            monkeypatch.setattr(driver, name, counted)
        report = solve_problem(disk_instance, OuterOptions(ball_monitor=False))
        assert report.converged
        # each verify follows the solve that ended at its point: one per
        # outer step, and the final one at the clipped answer
        assert [d for _, d in spent["verify_solution"]] == [0] * (report.outer_iterations + 1)
        # a warm-started solve spends no pass on its start, the answer of
        # the step before: one pass per trial point, none when it returns
        # its start
        warm = spent["apply_T"][1:]
        assert warm and all(d == r.energy_evals - 1 for r, d in warm)


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


class TestWindowSolves:
    @pytest.mark.parametrize(
        "domain, resolution, dim",
        [(interval(0.0, 1.0), 17, 1), (disk(0.0, 0.0, 1.0), 11, 2)],
        ids=["interval", "disk"],
    )
    def test_seeded_window_sweep(self, domain, resolution, dim):
        # every draw of the check_hypotheses window solves as the CLI
        # solves it, with the ball monitor off
        grid = Grid(domain, resolution)
        tol = frozen.default_tol(dim)
        rng = np.random.default_rng(5)
        failures = []
        for k in range(24):
            exps, reaction, convective = window_draw(rng, dim)
            inst = build_instance(
                grid, exps, reaction, convective, frozen_options=MinimizerOptions(tol=tol)
            )
            report = solve_problem(inst, OuterOptions(tol=tol, ball_monitor=False))
            if not (
                report.converged
                and report.final_residual < tol
                and report.hopf_ratio > 0.0
                and report.thetas[0] == 1.0
            ):
                failures.append((k, exps, reaction, convective, report.message))
        assert not failures, failures

    @pytest.mark.parametrize(
        "domain, resolution, dim",
        [(interval(0.0, 1.0), 17, 1), (disk(0.0, 0.0, 1.0), 11, 2)],
        ids=["interval", "disk"],
    )
    def test_stress_draws_claim_convergence_only_below_tolerance(self, domain, resolution, dim):
        # with c3 in [10, 1000] a step seminorm below the outer tolerance
        # leaves the coupled residual far above the inner one; a draw may
        # fail to converge, but a run that reports converged must have met
        # the inner tolerance
        grid = Grid(domain, resolution)
        tol = frozen.default_tol(dim)
        rng = np.random.default_rng(0)
        false_claims = []
        for k in range(12):
            exps, reaction, convective = stress_draw(rng, dim)
            inst = build_instance(
                grid, exps, reaction, convective, frozen_options=MinimizerOptions(tol=tol)
            )
            report = solve_problem(inst, OuterOptions(tol=tol, ball_monitor=False))
            if report.converged and not report.final_residual < tol:
                false_claims.append((k, convective, report.final_residual))
        assert not false_claims, false_claims


class TestTwoDimensional:
    def test_disk_instance_converges(self):
        grid = Grid(disk(0.0, 0.0, 1.0), 11)
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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _config_at(tmp_path, name, resolution):
    raw = json.loads((CONFIGS / name).read_text())
    raw.update(resolution=resolution, cache_dir=None)
    path = tmp_path / f"{Path(name).stem}-r{resolution}.json"
    path.write_text(json.dumps(raw))
    return path


def _counted_run(cfg, monkeypatch):
    """build_instance and solve_problem of a config, with the result of
    every minimize_energy call of the run: the one in solve_frozen, which
    every solve of a run, the torsion floor's included, goes through."""
    results = []

    def recorded(*args, _minimize=frozen.minimize_energy):
        results.append(_minimize(*args))
        return results[-1]

    monkeypatch.setattr(frozen, "minimize_energy", recorded)
    grid = cfg.build_grid()
    inst = build_instance(
        grid, cfg.exponents, cfg.reaction, cfg.convective, frozen_options=cfg.minimizer
    )
    report = solve_problem(inst, cfg.outer, seed=cfg.seed)
    assert report.converged
    return grid, report, results


class TestKeptFactor:
    """The Newton steps of a run solve by CG, preconditioned with the
    Hessian's diagonal until the run keeps a factor and with that factor
    from then on, and factor afresh only where CG fails."""

    def test_disk_run_factors_less_than_it_steps(self, tmp_path, monkeypatch):
        cfg = load_config(str(_config_at(tmp_path, "disk_2d.json", 25)))
        grid, report, results = _counted_run(cfg, monkeypatch)
        newton_steps = sum(r.newton_steps for r in results)
        # diagonal CG solves every Newton step, from the torsion floor's
        # diagonal Hessian at the constant start on, so the run factors
        # nothing and takes no gradient step
        assert sum(r.factorizations for r in results) == 0 < newton_steps
        assert all(r.newton_steps == r.iterations for r in results)
        assert sum(r.cg_iterations for r in results) >= newton_steps
        # the same run factoring at every step, as CG that may take no
        # iteration gives up at once, lands on the same answer, to well
        # within the inner tolerance
        monkeypatch.setattr(optimize, "_CG_MAX_ITER", 0)
        _, every_step, dense = _counted_run(cfg, monkeypatch)
        assert all(r.factorizations == r.iterations and r.cg_iterations == 0 for r in dense)
        u, u_dense = grid.pack(report.u), grid.pack(every_step.u)
        assert np.max(np.abs(u - u_dense)) <= 1e-5 * np.max(u_dense)
        assert report.final_residual < cfg.minimizer.tol

    def test_1d_run_factors_less_than_it_steps(self, tmp_path, monkeypatch):
        cfg = load_config(str(_config_at(tmp_path, "interval_1d.json", 65)))
        _, _, results = _counted_run(cfg, monkeypatch)
        factorizations = sum(r.factorizations for r in results)
        assert 0 < factorizations < sum(r.newton_steps for r in results)
        assert sum(r.cg_iterations for r in results) > 0


# Fills the weight cache (argv[2] == "fill") or solves from it, and prints
# the minor page faults taken by solve_problem
_FAULTS_SCRIPT = """
import json, resource, sys
from fracsolve import config, driver
cfg = config.load_config(sys.argv[1])
inst = driver.build_instance(
    cfg.build_grid(), cfg.exponents, cfg.reaction, cfg.convective, frozen_options=cfg.minimizer
)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
report = driver.solve_problem(inst, cfg.outer, seed=cfg.seed)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"converged": report.converged, "faults": faults}))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="counts the page faults of glibc's allocator"
)
def test_solve_from_a_warm_cache_maps_no_pass_temporaries(tmp_path):
    # A solve's pair passes and Hessian fills allocate blocks of fewer than
    # 2^14 pairs and its Newton steps keep at most one factor, so its temporaries
    # come from the heap, however its tables were built.  Temporaries above
    # glibc's mmap threshold were mapped and unmapped on every call, unless
    # a cold assembly had raised the threshold first: 20.8k minor faults
    # from a warm cache against about 160 after a cold build, at this size.
    path = _config_at(tmp_path, "disk_2d.json", 25)
    cache = tmp_path / "cache"
    env = {
        **os.environ,
        "FRACSOLVE_CACHE": str(cache),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
        ),
    }

    def run():
        out = subprocess.run(
            [sys.executable, "-c", _FAULTS_SCRIPT, str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        return json.loads(out.stdout.splitlines()[-1])

    assert run()["converged"]
    written = {p.name: p.stat().st_mtime_ns for p in cache.iterdir()}
    assert len(written) == 2
    warm = run()
    assert {p.name: p.stat().st_mtime_ns for p in cache.iterdir()} == written
    assert warm["converged"]
    assert warm["faults"] < 2000, warm
