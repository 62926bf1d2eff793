"""Outer fixed-point loop coupling the convective field to the frozen solver.

One outer step freezes the fractional gradient at the current iterate,
solves the resulting unconstrained problem, and relaxes toward the output.
The iteration is monitored by an empirical growth bound on the map: a fit
of  seminorm(T v)^p <= C (1 + seminorm(v)^(zeta p'))  over random inputs
yields an invariance radius that every iterate must respect.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .frozen import FrozenProblem, default_frozen_options, solve_frozen, weak_residual
from .gagliardo import OperatorParams, assemble_weights, seminorm
from .grids import Grid, ScalarField
from .optimize import MinimizeResult, MinimizerOptions, bisect_root as _bisect_root
from .reaction import (
    ConvectiveReaction,
    ProblemExponents,
    SingularReaction,
    TruncatedReaction,
    g_eval,
)
from .riesz import ConvolutionPlan, plan_riesz_convolution, riesz_gradient
from .torsion import SubsolutionCertificate, hopf_ratio, select_sigma

logger = logging.getLogger("fracsolve.driver")

_MIN_THETA = 1.0 / 16.0
_INCREASE_STREAK = 3
# An outer step whose frozen answer moved at most this fraction of the
# distance its frozen iterate moved has seen T contract, and takes the
# Picard step theta = 1 in place of the configured relaxation.
_PICARD_CONTRACTION = 0.5
_BALL_SLACK = 1.0 + 1e-9
# random fields the growth-bound fit samples, spread over two decades
_GROWTH_SAMPLES = 20
# A warm-started solve stops just inside the inner tolerance, so the last
# outer step is solved once more, this many times tighter, to leave the
# final coupled residual a margin below that tolerance.
_FINAL_TOL_DIVISOR = 10.0
_SAMPLE_LOG = (
    "growth sample %d: seminorm %.3e, T(v) seminorm %.3e, %d Newton steps, "
    "%d inner iterations"
)
_SKIPPED_LOG = "growth sample %d: seminorm %.3e, skipped"
_STEP_LOG = (
    "outer %d: step seminorm %.3e, frozen residual %.3e, %d Newton steps, "
    "%d inner iterations, theta %.6g"
)


@dataclass(frozen=True)
class OuterOptions:
    """Relaxation weight of the outer steps where T has not been seen to
    contract (the others take theta = 1), stopping tolerance on the (s1,p)
    step seminorm, iteration budget, and the growth-bound monitor switch."""

    theta: float = 0.5
    tol: float = 1e-6
    max_outer: int = 40
    ball_monitor: bool = True

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"relaxation weight must lie in (0, 1], got {self.theta}")
        if self.tol <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.max_outer < 1:
            raise ValueError(f"iteration budget must be positive, got {self.max_outer}")


@dataclass(frozen=True)
class GrowthBound:
    """Empirical constant and invariance radius of the frozen-solve map."""

    c_emp: float
    rho: float
    exponent: float


@dataclass
class ProblemInstance:
    """Everything a solve needs: grid, exponents, reactions, assembled
    operator tables, floor certificate, and the convolution plan for the
    fractional gradient."""

    grid: Grid
    exponents: ProblemExponents
    reaction: SingularReaction
    convective: ConvectiveReaction
    tables: tuple
    certificate: SubsolutionCertificate
    trunc: TruncatedReaction
    plan: ConvolutionPlan
    frozen_options: MinimizerOptions


@dataclass
class SolveReport:
    """Outcome of the outer iteration with per-step diagnostics."""

    # u and raw stay fields: the benchmark calls grid.pack(report.u)
    u: ScalarField
    raw: ScalarField
    converged: bool
    outer_iterations: int
    step_seminorms: list
    frozen_residuals: list
    inner_iterations: list
    full_residuals: list
    v_norms: list
    thetas: list
    final_residual: float
    hopf_ratio: float
    ball: GrowthBound | None
    log: list = field(default_factory=list)
    message: str = ""


def build_instance(
    grid: Grid,
    exponents: ProblemExponents,
    reaction: SingularReaction,
    convective: ConvectiveReaction,
    frozen_options: MinimizerOptions | None = None,
) -> ProblemInstance:
    """Assemble both operator tables, certify a floor, and precompute the
    convolution plan for the convective gradient order.  The torsion solves
    of the floor check the tables against grid and exponents; the frozen
    problems of the solve reuse them unchecked."""
    tables = (
        assemble_weights(grid, OperatorParams(s=exponents.s1, p=exponents.p)),
        assemble_weights(grid, OperatorParams(s=exponents.s2, p=exponents.q)),
    )
    certificate = select_sigma(reaction, exponents, grid, tables)
    trunc = TruncatedReaction(reaction, certificate.lower)
    plan = plan_riesz_convolution(grid, 1.0 - exponents.s)
    if frozen_options is None:
        frozen_options = default_frozen_options(grid)
    return ProblemInstance(
        grid=grid,
        exponents=exponents,
        reaction=reaction,
        convective=convective,
        tables=tables,
        certificate=certificate,
        trunc=trunc,
        plan=plan,
        frozen_options=frozen_options,
    )


def frozen_at(instance: ProblemInstance, v: np.ndarray) -> FrozenProblem:
    """Frozen problem whose load is the convective term g(x, D^s v) for an
    interior vector v; the tables and the truncated forcing are the
    instance's, checked once when it was built."""
    xi = riesz_gradient(instance.plan, v)
    return FrozenProblem(instance.tables, instance.trunc, g_eval(instance.convective, xi))


def apply_T(instance: ProblemInstance, v: np.ndarray, start=None) -> MinimizeResult:
    """One fixed-point map evaluation: freeze the gradient at the interior
    vector v, solve from ``start`` (clipped to the floor; the floor itself
    when None)."""
    return solve_frozen(frozen_at(instance, v), instance.frozen_options, start)


def relaxed_update(v: np.ndarray, t: np.ndarray, theta: float) -> np.ndarray:
    """(1 - theta) v + theta t; theta = 1 returns t exactly."""
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    if theta == 1.0:
        return t.copy()
    return v + theta * (t - v)


def verify_solution(instance: ProblemInstance, u: np.ndarray) -> float:
    """Scaled weak residual of the fully coupled problem at the interior
    vector u: the convective field is recomputed from u itself, nothing is
    frozen."""
    return weak_residual(frozen_at(instance, u), u)


def fit_growth_bound(instance: ProblemInstance, seed: int = 0) -> GrowthBound:
    """Fit  seminorm(T v)^p <= c_emp (1 + seminorm(v)^exponent)  over random
    fields spanning two decades of size, then solve for the smallest radius
    rho with  c_emp (1 + rho^exponent) <= rho^p.  The samples come in
    increasing seminorm, and each solve starts from the answer of the last
    converged sample; a solve that returns that start unchanged reuses its
    T(v) seminorm."""
    e = instance.exponents
    exponent = instance.convective.zeta * e.p_prime
    if exponent >= e.p:
        warnings.warn(
            f"growth exponent zeta*p' = {exponent:.6g} is not below p = {e.p}; "
            "no finite invariance radius exists"
        )
        return GrowthBound(c_emp=math.nan, rho=math.inf, exponent=exponent)
    rng = np.random.default_rng(seed)
    grid = instance.grid
    tp = instance.tables[0]
    c_emp = 0.0
    start = None
    for k, lam in enumerate(np.logspace(-1.5, 0.5, _GROWTH_SAMPLES), start=1):
        z = rng.standard_normal(grid.n_interior)
        v = lam * z / seminorm(tp, z)
        result = apply_T(instance, v, start)
        if not result.converged:
            logger.info(_SKIPPED_LOG, k, lam)
            warnings.warn(
                f"growth-bound sample at seminorm {lam:.3g} did not converge; skipped"
            )
            continue
        # a solve that returned its start unchanged has the last sample's
        # T(v) seminorm; its larger lam cannot raise c_emp
        if start is None or result.iterations or not np.array_equal(result.x, start):
            tnorm = seminorm(tp, result.x)
        start = result.x
        logger.info(_SAMPLE_LOG, k, lam, tnorm, result.newton_steps, result.iterations)
        c_emp = max(c_emp, tnorm**e.p / (1.0 + lam**exponent))
    if c_emp <= 0.0:
        warnings.warn("growth-bound fit produced no usable samples")
        return GrowthBound(c_emp=math.nan, rho=math.inf, exponent=exponent)

    def gap(rho):
        return rho**e.p - c_emp * (1.0 + rho**exponent)

    # gap(0) = -c_emp < 0 brackets the root from below
    hi = 1.0
    while gap(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            warnings.warn("invariance radius exceeds 1e12; monitor disabled")
            return GrowthBound(c_emp=c_emp, rho=math.inf, exponent=exponent)
    rho = _bisect_root(gap, 0.0, hi)
    return GrowthBound(c_emp=c_emp, rho=rho, exponent=exponent)


def _ball_check(norm: float, ball: GrowthBound | None, where: str) -> None:
    if ball is None or not math.isfinite(ball.rho):
        return
    if norm > ball.rho * _BALL_SLACK:
        raise RuntimeError(
            f"ball monitor violation at {where}: iterate seminorm {norm:.6g} "
            f"exceeds the invariance radius {ball.rho:.6g} fitted with "
            f"c_emp = {ball.c_emp:.6g}; the iteration left the certified ball"
        )


def solve_problem(
    instance: ProblemInstance,
    options: OuterOptions | None = None,
    ball: GrowthBound | None = None,
    seed: int = 0,
) -> SolveReport:
    """Relaxed fixed-point iteration  v <- (1-theta) v + theta T(v)  from the
    certified floor, stopping when the (s1,p) seminorm of the update falls
    below the outer tolerance.  A step after the first whose frozen answer
    moved at most _PICARD_CONTRACTION times as far as its frozen iterate,
    |T(v_k) - T(v_k-1)| <= 0.5 |v_k - v_k-1|  in the Euclidean norm, takes
    theta = 1; the others take the configured theta, halved after
    _INCREASE_STREAK growing steps in a row down to _MIN_THETA.  The
    report's ``thetas`` holds the weight each step used.  Each frozen solve
    starts from the previous step's answer; once the loop converges, the
    last step's frozen problem is solved again from its answer with the
    inner tolerance divided by _FINAL_TOL_DIVISOR, and a converged re-solve
    replaces that step's answer and residuals."""
    opts = options or OuterOptions()
    grid = instance.grid
    tp = instance.tables[0]
    floor = instance.trunc.floor

    if ball is None and opts.ball_monitor:
        ball = fit_growth_bound(instance, seed=seed)
        if not math.isfinite(ball.rho):
            ball = None

    v = floor.copy()
    log: list = []
    step_seminorms: list = []
    frozen_residuals: list = []
    inner_iterations: list = []
    full_residuals: list = []
    thetas: list = []
    v_norms = [seminorm(tp, v)]
    _ball_check(v_norms[0], ball, "the starting iterate")

    theta = opts.theta
    streak = 0
    prev_step = math.inf
    converged = False
    message = ""
    last_result: MinimizeResult | None = None
    frozen_v = v
    iterations = 0

    for k in range(1, opts.max_outer + 1):
        prev_v, frozen_v = frozen_v, v
        result = apply_T(instance, v, None if last_result is None else last_result.x)
        iterations = k
        # kappa = |T(v_k) - T(v_k-1)| / |v_k - v_k-1|, compared without
        # dividing so that an empty step (x_k = x_k-1) counts as kappa = 0
        contracted = last_result is not None and np.linalg.norm(
            result.x - last_result.x
        ) <= _PICARD_CONTRACTION * np.linalg.norm(frozen_v - prev_v)
        step_theta = 1.0 if contracted else theta
        last_result = result
        frozen_residuals.append(result.residual)
        inner_iterations.append(result.iterations)
        full_residuals.append(verify_solution(instance, result.x))
        thetas.append(step_theta)
        if not result.converged:
            message = f"frozen solve failed at outer iteration {k}: {result.message}"
            step_seminorms.append(math.nan)
            v_norms.append(v_norms[-1])
            logger.info(
                _STEP_LOG, k, math.nan, result.residual, result.newton_steps,
                result.iterations, step_theta,
            )
            break
        v_new = relaxed_update(v, result.x, step_theta)
        step = seminorm(tp, v_new - v)
        step_seminorms.append(step)
        v_norms.append(seminorm(tp, v_new))
        logger.info(
            _STEP_LOG, k, step, result.residual, result.newton_steps, result.iterations,
            step_theta,
        )
        _ball_check(v_norms[-1], ball, f"outer iteration {k}")

        if step > prev_step:
            streak += 1
        else:
            streak = 0
        if streak >= _INCREASE_STREAK and theta > _MIN_THETA:
            theta = max(theta / 2.0, _MIN_THETA)
            streak = 0
            log.append(
                f"outer {k}: step seminorm grew {_INCREASE_STREAK} times in a row; "
                f"relaxation damped to theta = {theta:.6g}"
            )
        prev_step = step
        v = v_new
        if step < opts.tol:
            converged = True
            break
    else:
        message = (
            f"outer iteration budget {opts.max_outer} exhausted; "
            f"last step seminorm {prev_step:.3e} above tolerance {opts.tol:.3e}"
        )

    if converged:
        tight = replace(
            instance.frozen_options, tol=instance.frozen_options.tol / _FINAL_TOL_DIVISOR
        )
        final = solve_frozen(frozen_at(instance, frozen_v), tight, last_result.x)
        inner_iterations[-1] += final.iterations
        if final.converged:
            last_result = final
            frozen_residuals[-1] = final.residual
            full_residuals[-1] = verify_solution(instance, final.x)

    clipped = np.maximum(last_result.x, floor)
    final_residual = verify_solution(instance, clipped)
    hopf = hopf_ratio(clipped, grid.interior_distance, instance.certificate.exponent)

    return SolveReport(
        u=grid.unpack(clipped),
        raw=grid.unpack(last_result.x),
        converged=converged,
        outer_iterations=iterations,
        step_seminorms=step_seminorms,
        frozen_residuals=frozen_residuals,
        inner_iterations=inner_iterations,
        full_residuals=full_residuals,
        v_norms=v_norms,
        thetas=thetas,
        final_residual=final_residual,
        hopf_ratio=hopf,
        ball=ball,
        log=log,
        message=message,
    )
