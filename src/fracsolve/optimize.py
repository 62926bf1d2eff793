"""Line-search descent for the coercive discrete energies.

Each iteration tries the Newton direction ``d = -H^-1 g`` at trial step
1, for the caller's Hessian ``H``, filled anew at every step.  ``H d =
-g`` is solved inexactly, by conjugate gradients to a relative residual
of _CG_RTOL, preconditioned with H's own diagonal (Jacobi) until the run
keeps a factor, and with that factor from then on: the Cholesky factor
of the last Hessian factored, kept on the run's ``home`` (its
``gagliardo.Operator``) with the inverses of its diagonal blocks.  ``H``
is factored, and its factor kept, only where that CG fails.  This is
inexact Newton (Kelley, Iterative Methods for Linear and Nonlinear
Equations, SIAM 1995, ch. 6; Eisenstat and Walker, SIAM J. Sci. Comput.
17, 1996) with a constant forcing term.  At the constant start of a
torsion solve with p, q > 2 every interior pair term of H vanishes, so H
is diagonal and Jacobi CG solves it in one iteration; later, the factor
of an earlier Hessian of the run is a close preconditioner for the next.
So a run factors a few times where it takes many Newton steps, and not at
all while Jacobi CG keeps succeeding.  Where the factorization fails
(``H`` is not positive definite, as where the forms are flat), the factor
is not finite or the direction is not one of descent, the iteration
takes the gradient direction with the Barzilai-Borwein (BB) trial step
instead (Barzilai and Borwein 1988; Raydan 1997).  Both kinds go through
the same backtracking, in float64, with ``g.d`` as the slope.  A trial
step is accepted when it passes the Armijo test or, when the energy
change is at the level of float64 summation noise (``|E(trial) - E| <=
EPS |E|``), when the gradient at the trial point passes the
approximate-Armijo test of Hager and Zhang (CG_DESCENT, SIAM J. Optim.
2005) instead.  So an accepted step either lowers the computed energy by
the Armijo margin or raises it by at most ``EPS |E|``.  A trial point
equal to the current one is never accepted.  Any non-finite energy or
gradient at an accepted point aborts loudly.  The stopping test is the
same for both kinds: scaled gradient norm < tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

SHRINK = 0.5  # backtracking factor on the trial step
SUFFICIENT_DECREASE = 1e-4  # Armijo constant c
INITIAL_STEP = 1.0  # first trial step, before any curvature estimate
MAX_BACKTRACKS = 60

# Width of the final bracket of bisect_root, absolute and relative.
ROOT_TOL = 1e-14

# Relative energy change below which two float64 energies are not compared.
# A form energy sums up to n^2/2 nonnegative pair terms (n <=
# gagliardo.NODE_CAP = 4096), each with a few ulp of pow and product error.
# The pass adds them as one BLAS dot product per block of fewer than
# gagliardo._PAIR_BLOCK = 2^14 pairs, then adds the block sums in order
# (555 of them per table at the cap) and the tail's n terms as one more
# dot product.  In whatever order the BLAS sums a block, its rounding
# error is at most 2^14 u of the block's sum (u = 2^-53), so with the
# in-order additions and the per-term errors a form energy is within
# (2^14 + 2^10) u ~ 1.9e-12 of the exact sum of its terms, relative to
# that sum (the terms are nonnegative).
# The forms are a small multiple of |E| near a minimizer.  1e-10 clears
# this worst case by more than an order of magnitude; typical errors, of
# both signs and split over a kernel's several accumulators, are far
# smaller.  EPS also bounds how far an accepted step may raise the
# computed energy.
EPS = 1e-10

# relative residual ||H d + g|| / ||g|| at which CG accepts a direction,
# and the iterations it may take before the Hessian is factored afresh
_CG_RTOL = 1e-2
_CG_MAX_ITER = 8


def check_budget(name: str, budget, tol: float) -> None:
    """Reject a tolerance outside (0, inf) and an iteration budget that is
    not a positive integer; a bool is an Integral, but no budget."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if isinstance(budget, bool) or not isinstance(budget, Integral):
        raise ValueError(f"{name} must be an integer, got {budget!r}")
    if budget < 1:
        raise ValueError(f"iteration budget must be positive, got {budget}")


@dataclass(frozen=True)
class MinimizerOptions:
    """Budget of the descent loop; tol bounds the scaled gradient norm
    ||g||_2 / sqrt(n) at acceptance."""

    max_iter: int = 5000
    tol: float = 1e-6

    def __post_init__(self):
        check_budget("max_iter", self.max_iter, self.tol)


@dataclass
class MinimizeResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual: float
    energy: float
    message: str = ""
    # accepted Newton steps among the iterations; the rest were BB steps
    newton_steps: int = 0
    # energies evaluated, the start's among them, and trial steps rejected
    energy_evals: int = 0
    backtracks: int = 0
    # Cholesky factorizations of the Hessian, failed ones included, and the
    # iterations of the preconditioned CG solves, from the Hessian's
    # diagonal or a kept factor
    factorizations: int = 0
    cg_iterations: int = 0

    @property
    def counts(self) -> str:
        """The counts of the solve, as the -v progress lines give them."""
        return (
            f"{self.newton_steps} Newton steps, {self.energy_evals} energy evaluations, "
            f"{self.backtracks} backtracks, {self.iterations} inner iterations, "
            f"{self.factorizations} factorizations, {self.cg_iterations} CG iterations"
        )


def scaled_norm(vec) -> float:
    """||r||_2 / sqrt(n): invariant under duplicating the node set."""
    r = np.asarray(vec, dtype=float)
    return float(np.linalg.norm(r)) / math.sqrt(max(r.size, 1))


def _require_finite(value, what: str):
    if not np.all(np.isfinite(value)):
        raise RuntimeError(f"non-finite {what} entered the optimizer")


# rows per diagonal block of the triangular solves.  Against 32, 64 halves
# the Python steps of a solve (0.053 -> 0.030 ms at n = 127, 0.21 -> 0.12
# ms at n = 437, one CPU) for a factorization that costs 0.17 ms more at
# n = 127 and less from n = 437 on
_SOLVE_BLOCK = 64


def _factorize(hess: np.ndarray):
    """The kept factor of H: its lower Cholesky factor L and the inverses
    of L's diagonal blocks of _SOLVE_BLOCK rows (n x _SOLVE_BLOCK doubles,
    the last block padded with the identity to full size), from one
    batched np.linalg.inv; None where H does not factor.  A non-finite H
    either fails to factor or leaves a non-finite entry on L's diagonal,
    which alone is checked: a diagonal +inf factors to L_jj = inf, and the
    solves then return a finite d with d_j = 0."""
    try:
        chol = np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(np.diagonal(chol))):
        return None
    n = chol.shape[0]
    blocks = np.zeros((-(-n // _SOLVE_BLOCK), _SOLVE_BLOCK, _SOLVE_BLOCK))
    blocks[-1] = np.eye(_SOLVE_BLOCK)
    for k, k0 in enumerate(range(0, n, _SOLVE_BLOCK)):
        w = min(_SOLVE_BLOCK, n - k0)
        blocks[k, :w, :w] = chol[k0 : k0 + w, k0 : k0 + w]
    return chol, np.linalg.inv(blocks)


def _cholesky_solve(factor, b: np.ndarray) -> np.ndarray:
    """x with  L L^T x = b  for the kept factor (L, inverses of L's
    diagonal blocks), by forward and back substitution over the diagonal
    blocks: O(n^2) work in matrix-vector products alone."""
    chol, inv = factor
    n = b.size
    y = np.empty(n)
    for k, k0 in enumerate(range(0, n, _SOLVE_BLOCK)):
        k1 = min(k0 + _SOLVE_BLOCK, n)
        rhs = b[k0:k1] - chol[k0:k1, :k0] @ y[:k0]
        y[k0:k1] = inv[k, : k1 - k0, : k1 - k0] @ rhs
    x = np.empty(n)
    for k in reversed(range(len(inv))):
        k0 = k * _SOLVE_BLOCK
        k1 = min(k0 + _SOLVE_BLOCK, n)
        rhs = y[k0:k1] - chol[k1:, k0:k1].T @ x[k1:]
        x[k0:k1] = inv[k, : k1 - k0, : k1 - k0].T @ rhs
    return x


def _descends(d: np.ndarray, g: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(d))) and float(g @ d) < 0.0


def _preconditioned_cg(hess: np.ndarray, g: np.ndarray, factor):
    """d with ||H d + g|| <= _CG_RTOL ||g||, by conjugate gradients on
    H d = -g from d = 0, and the iterations taken.  CG is preconditioned
    with L L^T for the kept factor of an earlier Hessian or, where factor
    is None, with H's diagonal (Jacobi); it takes no iteration where that
    diagonal is not positive and finite.  d is None when CG takes none,
    meets a search direction p with p^T H p not positive and finite, or
    takes more than _CG_MAX_ITER iterations."""
    if factor is None:
        diag = np.diagonal(hess).copy()
        if not np.all((diag > 0.0) & (diag < math.inf)):
            return None, 0

        def precondition(r):
            return r / diag

    else:

        def precondition(r):
            return _cholesky_solve(factor, r)

    d = np.zeros(g.size)
    r = -g
    z = precondition(r)
    p = z
    rz = float(r @ z)
    target = _CG_RTOL * float(np.linalg.norm(g))
    for it in range(1, _CG_MAX_ITER + 1):
        hp = hess @ p
        curvature = float(p @ hp)
        if not 0.0 < curvature < math.inf:
            return None, it
        alpha = rz / curvature
        d += alpha * p
        r -= alpha * hp
        if float(np.linalg.norm(r)) <= target:
            return d, it
        z = precondition(r)
        rz, rz_prev = float(r @ z), rz
        p = z + (rz / rz_prev) * p
    return None, _CG_MAX_ITER


def _newton_direction(hess_fn, x: np.ndarray, g: np.ndarray, home):
    """An approximation of -H^-1 g for the Hessian H at x, when it is a
    finite descent direction, else None; with the factorizations (0 or 1)
    and the CG iterations it took.

    CG preconditioned with the factor kept on ``home.factor`` or, where
    the run keeps none, with H's diagonal is tried first.  Where it fails,
    the old factor is freed and H factored (see _factorize), so the peak
    stays the Hessian, LAPACK's copy of it and one factor; the new factor
    is kept when it gives a descent direction."""
    hess = np.asarray(hess_fn(x), dtype=float)
    d, cg_iterations = _preconditioned_cg(hess, g, home.factor)
    if d is not None and _descends(d, g):
        return d, 0, cg_iterations
    home.factor = None
    factor = _factorize(hess)
    # the factor alone is needed from here (134 MB at n = 4096); a Hessian
    # the callback made anew is freed, while the solves' Hessian is their
    # operator's workspace, held for the whole run
    del hess
    if factor is None:
        return None, 1, cg_iterations
    d = _cholesky_solve(factor, -g)
    if not _descends(d, g):
        return None, 1, cg_iterations
    home.factor = factor
    return d, 1, cg_iterations


def minimize_energy(
    energy_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    options: MinimizerOptions,
    hess_fn: Callable[[np.ndarray], np.ndarray],
    home,
) -> MinimizeResult:
    """Minimize from x0; ``hess_fn`` returns the dense symmetric Hessian at a
    point, for Newton steps.  ``home`` holds the kept factor (see
    _factorize) in its ``factor`` attribute (None when there is none) from
    one solve to the next: a run passes its ``gagliardo.Operator``, whose
    Hessian workspace the factor approximates."""
    x = np.array(x0, dtype=float)
    f = float(energy_fn(x))
    energy_evals, backtracks = 1, 0
    _require_finite(f, "energy")
    g = np.asarray(grad_fn(x), dtype=float)
    _require_finite(g, "gradient")
    prev_x: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    trial = INITIAL_STEP
    newton_steps = factorizations = cg_iterations = 0

    def result(converged, iterations, residual, message=""):
        return MinimizeResult(
            x,
            converged,
            iterations,
            residual,
            f,
            message,
            newton_steps,
            energy_evals,
            backtracks,
            factorizations,
            cg_iterations,
        )

    for it in range(1, options.max_iter + 1):
        residual = scaled_norm(g)
        if residual < options.tol:
            return result(True, it - 1, residual)

        if prev_g is not None:
            dx = x - prev_x
            dg = g - prev_g
            denom = float(dg @ dg)
            numer = abs(float(dx @ dg))
            if denom > 0.0 and numer > 0.0 and math.isfinite(numer / denom):
                # spectral (Barzilai-Borwein) curvature estimate; kept from the
                # previous iteration when the difference pair degenerates, so a
                # vanishing accepted step cannot reset the scale to 1.0
                trial = min(max(numer / denom, 1e-14), 1e14)

        d, factored, cg = _newton_direction(hess_fn, x, g, home)
        factorizations += factored
        cg_iterations += cg
        newton = d is not None
        if not newton:
            d = -g
        step = 1.0 if newton else trial
        slope = float(g @ d)

        gn = None
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            xn = x + step * d
            if np.array_equal(xn, x):
                # the step rounds away in every entry, as does any shorter one;
                # accepting it would repeat the same null step until max_iter
                break
            fn = float(energy_fn(xn))
            energy_evals += 1
            if math.isfinite(fn) and fn <= f + SUFFICIENT_DECREASE * step * slope:
                accepted = True
                break
            if abs(fn - f) <= EPS * abs(f):
                # the energies differ by summation noise only: on a quadratic
                # this slope test is the Armijo test itself
                gn = np.asarray(grad_fn(xn), dtype=float)
                if float(gn @ d) <= -(1.0 - 2.0 * SUFFICIENT_DECREASE) * slope:
                    accepted = True
                    break
                gn = None
            step *= SHRINK
            backtracks += 1
        if not accepted:
            return result(False, it, residual, "line search could not decrease the energy")
        newton_steps += newton
        prev_x, prev_g = x, g
        x, f = xn, fn
        g = gn if gn is not None else np.asarray(grad_fn(x), dtype=float)
        _require_finite(g, "gradient")

    residual = scaled_norm(g)
    return result(residual < options.tol, options.max_iter, residual, "iteration budget exhausted")


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f bracketed by f(lo) < 0 <= f(hi), by bisection until the
    bracket is narrower than ROOT_TOL * (1 + hi)."""
    while hi - lo > ROOT_TOL * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
