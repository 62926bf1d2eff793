"""Line-search descent for the coercive discrete energies.

Each iteration tries the Newton direction ``d = -H^-1 g`` at trial step
1, with the caller's Hessian ``H`` factored by a dense Cholesky
decomposition.  Where the factorization fails (``H`` is not positive
definite, as where the forms are flat), the factor is not finite or the
direction is not one of descent, the iteration takes the gradient
direction with the Barzilai-Borwein (BB) trial step instead (Barzilai
and Borwein 1988; Raydan 1997).  Both kinds go through the same
backtracking, in float64, with ``g.d`` as the slope.  A trial step is
accepted when it passes the Armijo test or, when the energy change is at
the level of float64 summation noise (``|E(trial) - E| <= EPS |E|``),
when the gradient at the trial point passes the approximate-Armijo test
of Hager and Zhang (CG_DESCENT, SIAM J. Optim. 2005) instead.  So an
accepted step either lowers the computed energy by the Armijo margin or
raises it by at most ``EPS |E|``.  A trial point equal to the current one
is never accepted.  Any non-finite energy or gradient at an accepted
point aborts loudly.  The stopping test is the same for both kinds:
scaled gradient norm < tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# gagliardo._dot adds them as BLAS dot products over slices of at most
# gagliardo._DOT_TERMS = 2^16 terms, then adds the slice sums in order (at
# most 137 of them per table at the cap).  In whatever order the BLAS sums
# a slice, its rounding error is at most 2^16 u of the slice's sum (u =
# 2^-53), so with the in-order additions and the per-term errors a form
# energy is within (2^16 + 2^8) u ~ 7.3e-12 of the exact sum of its terms,
# relative to that sum (the terms are nonnegative).
# The forms are a small multiple of |E| near a minimizer.  1e-10 clears
# this worst case by more than an order of magnitude; typical errors, of
# both signs and split over a kernel's several accumulators, are far
# smaller.  EPS also bounds how far an accepted step may raise the
# computed energy.
EPS = 1e-10


@dataclass(frozen=True)
class MinimizerOptions:
    """Budget of the descent loop; tol bounds the scaled gradient norm
    ||g||_2 / sqrt(n) at acceptance."""

    max_iter: int = 5000
    tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("iteration budget must be positive")


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

    @property
    def counts(self) -> str:
        """The counts of the solve, as the -v progress lines give them."""
        return (
            f"{self.newton_steps} Newton steps, {self.energy_evals} energy evaluations, "
            f"{self.backtracks} backtracks, {self.iterations} inner iterations"
        )


def scaled_norm(vec) -> float:
    """||r||_2 / sqrt(n): invariant under duplicating the node set."""
    r = np.asarray(vec, dtype=float)
    return float(np.linalg.norm(r)) / math.sqrt(max(r.size, 1))


def _require_finite(value, what: str):
    if not np.all(np.isfinite(value)):
        raise RuntimeError(f"non-finite {what} entered the optimizer")


# rows per diagonal block of the triangular solves
_SOLVE_BLOCK = 32


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with  L L^T x = b  for the lower Cholesky factor L, by forward and
    back substitution over diagonal blocks: O(n^2) work in n / _SOLVE_BLOCK
    small dense solves, where one dense solve of L would cost O(n^3)."""
    n = b.size
    y = np.empty(n)
    for k0 in range(0, n, _SOLVE_BLOCK):
        k1 = min(k0 + _SOLVE_BLOCK, n)
        rhs = b[k0:k1] - chol[k0:k1, :k0] @ y[:k0]
        y[k0:k1] = np.linalg.solve(chol[k0:k1, k0:k1], rhs)
    x = np.empty(n)
    for k1 in range(n, 0, -_SOLVE_BLOCK):
        k0 = max(k1 - _SOLVE_BLOCK, 0)
        rhs = y[k0:k1] - chol[k1:, k0:k1].T @ x[k1:]
        x[k0:k1] = np.linalg.solve(chol[k0:k1, k0:k1].T, rhs)
    return x


def _newton_direction(hess_fn, x: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """-H^-1 g for the Hessian H at x when H is finite and positive definite
    and the result is a finite descent direction; None otherwise.  A
    non-finite H either fails to factor or leaves a non-finite entry on the
    factor's diagonal, which alone is checked: a diagonal +inf factors to
    L_jj = inf, and the solves then return a finite d with d_j = 0."""
    hess = np.asarray(hess_fn(x), dtype=float)
    try:
        chol = np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(np.diagonal(chol))):
        return None
    # the factor alone is needed from here (134 MB at n = 4096); a Hessian
    # the callback made anew is freed, while the solves' Hessian is their
    # operator's workspace, held for the whole run
    del hess
    d = _cholesky_solve(chol, -g)
    if not np.all(np.isfinite(d)) or not float(g @ d) < 0.0:
        return None
    return d


def minimize_energy(
    energy_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    options: MinimizerOptions,
    hess_fn: Callable[[np.ndarray], np.ndarray],
) -> MinimizeResult:
    """Minimize from x0; ``hess_fn`` returns the dense symmetric Hessian at a
    point, for Newton steps."""
    x = np.array(x0, dtype=float)
    f = float(energy_fn(x))
    energy_evals, backtracks = 1, 0
    _require_finite(f, "energy")
    g = np.asarray(grad_fn(x), dtype=float)
    _require_finite(g, "gradient")
    prev_x: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    trial = INITIAL_STEP
    newton_steps = 0

    def result(converged, iterations, residual, message=""):
        return MinimizeResult(
            x, converged, iterations, residual, f, message, newton_steps, energy_evals, backtracks
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

        d = _newton_direction(hess_fn, x, g)
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
