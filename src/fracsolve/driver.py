"""Outer fixed-point loop coupling the convective field to the frozen solver.

One outer step freezes the fractional gradient at the current iterate,
solves the resulting unconstrained problem, and relaxes toward the output.
The iteration is monitored by an empirical growth bound on the map: a fit
of  seminorm(T v)^p <= C (1 + seminorm(v)^(zeta p'))  over random inputs
yields an invariance radius that every iterate must respect.  The bound
does not feed the answer, so the fit solves its samples loosely and
polishes at the inner tolerance only the samples whose loose ratio lies
within a window of the loose maximum (inexact Newton in the sense of
Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982: each solve
goes only as far as its consumer needs).
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .frozen import FrozenProblem, default_tol, solve_frozen, weak_residual
from .gagliardo import Operator, OperatorParams, assemble_weights, seminorm
from .grids import Grid
from .optimize import MinimizeResult, MinimizerOptions, bisect_root as _bisect_root, check_budget
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
# The fit solves its samples this many times looser than the inner
# tolerance, and polishes at the inner tolerance only those that may hold
# the maximum ratio.
_FIT_LOOSE_FACTOR = 10.0
# A loose sample's ratio was seen up to 1.13e-2 (relative) off its value at
# the inner tolerance (disk_2d at resolution 25, seed 3).  The sample that
# holds the maximum and the one that holds the loose maximum may each be
# off by that much, in opposite directions, so the window exceeds twice it.
_FIT_POLISH_WINDOW = 2.5e-2
# A warm-started solve stops just inside the inner tolerance, so the last
# outer step is solved once more, this many times tighter, to leave the
# final coupled residual a margin below that tolerance.
_FINAL_TOL_DIVISOR = 10.0
_SAMPLE_LOG = "growth sample %d: seminorm %.3e, T(v) seminorm %.3e, %s"
_SKIPPED_LOG = "growth sample %d: seminorm %.3e, skipped"
_POLISH_LOG = "growth sample %d polished: T(v) seminorm %.3e, %s"
_STEP_LOG = "outer %d: step seminorm %.3e, frozen residual %.3e, %s, theta %.6g"
_FINAL_LOG = "final re-solve: frozen residual %.3e, %s"


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
        check_budget("max_outer", self.max_outer, self.tol)


@dataclass(frozen=True)
class GrowthBound:
    """Empirical constant and finite invariance radius of the frozen-solve map."""

    c_emp: float
    rho: float
    exponent: float


@dataclass
class ProblemInstance:
    """Everything a solve needs: the convective reaction, the operator over
    the assembled tables (their grid and exponents, and the run's kept
    point), floor certificate, truncated reaction, the convolution plan
    for the fractional gradient, and the inner solves' options."""

    convective: ConvectiveReaction
    operator: Operator
    certificate: SubsolutionCertificate
    trunc: TruncatedReaction
    plan: ConvolutionPlan
    frozen_options: MinimizerOptions

    @property
    def grid(self) -> Grid:
        return self.operator.grid


@dataclass
class SolveReport:
    """Outcome of the outer iteration with per-step diagnostics."""

    # u and raw are lattice arrays (grid.shape), zero off the interior:
    # the benchmark calls grid.pack(report.u)
    u: np.ndarray
    raw: np.ndarray
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
    """Assemble both operator tables into the run's operator, certify a
    floor, and precompute the convolution plan for the convective gradient
    order.  The floor and the frozen problems of the solve share the
    operator, whose tables carry the orders and exponents."""
    operator = Operator(
        assemble_weights(grid, OperatorParams(s=exponents.s1, p=exponents.p)),
        assemble_weights(grid, OperatorParams(s=exponents.s2, p=exponents.q)),
    )
    certificate = select_sigma(reaction, operator)
    trunc = TruncatedReaction(reaction, certificate.lower)
    plan = plan_riesz_convolution(grid, 1.0 - exponents.s)
    if frozen_options is None:
        frozen_options = MinimizerOptions(tol=default_tol(grid.dim))
    return ProblemInstance(
        convective=convective,
        operator=operator,
        certificate=certificate,
        trunc=trunc,
        plan=plan,
        frozen_options=frozen_options,
    )


def frozen_at(instance: ProblemInstance, v: np.ndarray) -> FrozenProblem:
    """Frozen problem whose load is the convective term g(x, D^s v) for an
    interior vector v; the operator and the truncated forcing are the
    instance's."""
    xi = riesz_gradient(instance.plan, v)
    return FrozenProblem(instance.operator, instance.trunc, g_eval(instance.convective, xi))


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


def fit_growth_bound(instance: ProblemInstance, seed: int = 0) -> GrowthBound | None:
    """Fit  seminorm(T v)^p <= c_emp (1 + seminorm(v)^exponent)  over random
    fields spanning two decades of size, then solve for the smallest radius
    rho with  c_emp (1 + rho^exponent) <= rho^p.  The samples come in
    increasing seminorm, and each solve starts from the answer of the last
    converged sample.

    The bound is a monitor, so each sample is solved only to
    _FIT_LOOSE_FACTOR times the inner tolerance.  Only the samples whose
    loose ratio  seminorm(T v)^p / (1 + seminorm(v)^exponent)  lies within
    _FIT_POLISH_WINDOW of the loose maximum can hold the maximum; each of
    them is polished, solved again at the inner tolerance from its loose
    answer, unless its loose answer already meets that tolerance.  So c_emp
    keeps the inner tolerance's accuracy.  A polish that fails keeps the
    sample's loose ratio, with a warning.  None, with a warning, where no
    finite radius is found: the exponent is not below p, no sample
    converged, or rho passes 1e12."""
    p = instance.operator.tables[0].params.p
    exponent = instance.convective.zeta * (p / (p - 1.0))
    if exponent >= p:
        warnings.warn(
            f"growth exponent zeta*p' = {exponent:.6g} is not below p = {p}; "
            "no finite invariance radius exists"
        )
        return None
    rng = np.random.default_rng(seed)
    grid = instance.grid
    op = instance.operator
    tol = instance.frozen_options.tol
    loose = replace(
        instance, frozen_options=replace(instance.frozen_options, tol=_FIT_LOOSE_FACTOR * tol)
    )
    samples = []  # (index, seminorm of v, v, loose result, loose ratio)
    start = None
    for k, lam in enumerate(np.logspace(-1.5, 0.5, _GROWTH_SAMPLES), start=1):
        z = rng.standard_normal(grid.n_interior)
        v = lam * z / seminorm(op, z)
        result = apply_T(loose, v, start)
        if not result.converged:
            logger.info(_SKIPPED_LOG, k, lam)
            warnings.warn(
                f"growth-bound sample at seminorm {lam:.3g} did not converge; skipped"
            )
            continue
        tnorm = seminorm(op, result.x)
        start = result.x
        logger.info(_SAMPLE_LOG, k, lam, tnorm, result.counts)
        samples.append((k, lam, v, result, tnorm**p / (1.0 + lam**exponent)))
    top = max((ratio for *_, ratio in samples), default=0.0)
    c_emp = 0.0
    for k, lam, v, result, ratio in samples:
        if ratio >= (1.0 - _FIT_POLISH_WINDOW) * top and result.residual >= tol:
            polished = apply_T(instance, v, result.x)
            if polished.converged:
                tnorm = seminorm(op, polished.x)
                logger.info(_POLISH_LOG, k, tnorm, polished.counts)
                ratio = tnorm**p / (1.0 + lam**exponent)
            else:
                warnings.warn(
                    f"growth-bound sample at seminorm {lam:.3g} did not converge at the "
                    "inner tolerance; its loose ratio is kept"
                )
        c_emp = max(c_emp, ratio)
    if c_emp <= 0.0:
        warnings.warn("growth-bound fit produced no usable samples")
        return None

    def gap(rho):
        return rho**p - c_emp * (1.0 + rho**exponent)

    # gap(0) = -c_emp < 0 brackets the root from below
    hi = 1.0
    while gap(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            warnings.warn("invariance radius exceeds 1e12; monitor disabled")
            return None
    rho = _bisect_root(gap, 0.0, hi)
    return GrowthBound(c_emp=c_emp, rho=rho, exponent=exponent)


def _ball_check(norm: float, ball: GrowthBound | None, where: str) -> None:
    if ball is None:
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
    seed: int = 0,
) -> SolveReport:
    """Relaxed fixed-point iteration  v <- (1-theta) v + theta T(v)  from the
    certified floor, stopping when the (s1,p) seminorm of the update falls
    below the outer tolerance.  A step after the first whose frozen answer
    moved at most _PICARD_CONTRACTION times as far as its frozen iterate,
    |T(v_k) - T(v_k-1)| <= 0.5 |v_k - v_k-1|  in the Euclidean norm, takes
    theta = 1; the others take the configured theta, halved after
    _INCREASE_STREAK growing steps in a row down to _MIN_THETA.  The
    report's ``thetas`` holds the weight each step used.  With the ball
    monitor on, every iterate must stay inside the radius that
    fit_growth_bound returns, when it returns one.  Each frozen solve
    starts from the previous step's answer; once the loop converges, the
    last step's frozen problem is solved again from its answer, through
    apply_T with the inner tolerance divided by _FINAL_TOL_DIVISOR, and a
    converged re-solve replaces that step's answer and residuals."""
    opts = options or OuterOptions()
    grid = instance.grid
    op = instance.operator
    floor = instance.trunc.floor
    ball = fit_growth_bound(instance, seed=seed) if opts.ball_monitor else None

    v = floor.copy()
    log: list = []
    step_seminorms: list = []
    frozen_residuals: list = []
    inner_iterations: list = []
    full_residuals: list = []
    thetas: list = []
    v_norms = [seminorm(op, v)]
    _ball_check(v_norms[0], ball, "the starting iterate")

    theta = opts.theta
    streak = 0
    prev_step = math.inf
    converged = False
    message = ""
    last_result: MinimizeResult | None = None
    frozen_v = v

    for k in range(1, opts.max_outer + 1):
        prev_v, frozen_v = frozen_v, v
        result = apply_T(instance, v, None if last_result is None else last_result.x)
        # kappa = |T(v_k) - T(v_k-1)| / |v_k - v_k-1|, compared without
        # dividing so that an empty step (x_k = x_k-1) counts as kappa = 0
        contracted = last_result is not None and np.linalg.norm(
            result.x - last_result.x
        ) <= _PICARD_CONTRACTION * np.linalg.norm(frozen_v - prev_v)
        step_theta = 1.0 if contracted else theta
        last_result = result
        # a failed frozen solve records a NaN step and the unmoved iterate
        if result.converged:
            v_new = relaxed_update(v, result.x, step_theta)
            step = seminorm(op, v_new - v)
            v_norm = seminorm(op, v_new)
        else:
            step, v_norm = math.nan, v_norms[-1]
        step_seminorms.append(step)
        frozen_residuals.append(result.residual)
        inner_iterations.append(result.iterations)
        full_residuals.append(verify_solution(instance, result.x))
        v_norms.append(v_norm)
        thetas.append(step_theta)
        logger.info(_STEP_LOG, k, step, result.residual, result.counts, step_theta)
        if not result.converged:
            message = f"frozen solve failed at outer iteration {k}: {result.message}"
            break
        _ball_check(v_norm, ball, f"outer iteration {k}")

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
        final = apply_T(replace(instance, frozen_options=tight), frozen_v, last_result.x)
        logger.info(_FINAL_LOG, final.residual, final.counts)
        inner_iterations[-1] += final.iterations
        if final.converged:
            last_result = final
            frozen_residuals[-1] = final.residual
            full_residuals[-1] = verify_solution(instance, final.x)

    clipped = np.maximum(last_result.x, floor)
    final_residual = verify_solution(instance, clipped)
    hopf = hopf_ratio(clipped, grid.interior_distance, instance.certificate.exponent)

    return SolveReport(
        u=grid.zero_extend(clipped),
        raw=grid.zero_extend(last_result.x),
        converged=converged,
        outer_iterations=k,
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
