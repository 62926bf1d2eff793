"""Line-search descent for the coercive discrete energies.

Gradient descent with a Barzilai-Borwein trial step and Armijo
backtracking, all in float64.  A trial step is accepted when it passes
the Armijo test or, when the energy change is at the level of float64
summation noise (``|E(trial) - E| <= EPS |E|``), when the gradient at the
trial point passes the approximate-Armijo test of Hager and Zhang
(CG_DESCENT, SIAM J. Optim. 2005) instead.  So an accepted step either
lowers the computed energy by the Armijo margin or raises it by at most
``EPS |E|``.  A trial point equal to the current one is never accepted.
Any non-finite energy or gradient at an accepted point aborts loudly.
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

# Relative energy change below which two float64 energies are not compared.
# The energies are float64 sums of up to n^2/2 pair terms (n <=
# gagliardo.NODE_CAP = 4096), each with about one ulp of pow error; numpy's
# pairwise summation keeps the sum's error near log2(n^2) ulp, about 5e-15,
# of the sum of the absolute terms, which is a small multiple of |E| near a
# minimizer.  1e-10 clears that noise by four orders of magnitude and bounds
# how far an accepted step may raise the computed energy.
EPS = 1e-10


@dataclass(frozen=True)
class MinimizerOptions:
    """Budget of the descent loop; tol bounds the scaled gradient norm
    ||g||_2 / sqrt(n) at acceptance."""

    max_iter: int = 5000
    tol: float = 1e-6

    def __post_init__(self):
        if self.tol <= 0.0:
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


def _require_finite(value, what: str):
    if not np.all(np.isfinite(value)):
        raise RuntimeError(f"non-finite {what} entered the optimizer")


def minimize_energy(
    energy_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    options: MinimizerOptions | None = None,
    on_accept: Callable[[float], None] | None = None,
) -> MinimizeResult:
    opts = options or MinimizerOptions()
    x = np.array(x0, dtype=float)
    scale = math.sqrt(max(x.size, 1))
    f = float(energy_fn(x))
    _require_finite(f, "energy")
    g = np.asarray(grad_fn(x), dtype=float)
    _require_finite(g, "gradient")
    prev_x: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    trial = INITIAL_STEP

    for it in range(1, opts.max_iter + 1):
        residual = float(np.linalg.norm(g)) / scale
        if residual < opts.tol:
            return MinimizeResult(x, True, it - 1, residual, f)

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
        step = trial

        gnorm2 = float(g @ g)
        gn = None
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            xn = x - step * g
            if np.array_equal(xn, x):
                # the step rounds away in every entry, as does any shorter one;
                # accepting it would repeat the same null step until max_iter
                break
            fn = float(energy_fn(xn))
            if math.isfinite(fn) and fn <= f - SUFFICIENT_DECREASE * step * gnorm2:
                accepted = True
                break
            if abs(fn - f) <= EPS * abs(f):
                # the energies differ by summation noise only: on a quadratic
                # this slope test is the Armijo test itself
                gn = np.asarray(grad_fn(xn), dtype=float)
                if float(gn @ g) >= -(1.0 - 2.0 * SUFFICIENT_DECREASE) * gnorm2:
                    accepted = True
                    break
                gn = None
            step *= SHRINK
        if not accepted:
            return MinimizeResult(
                x, False, it, residual, f, "line search could not decrease the energy"
            )
        prev_x, prev_g = x, g
        x, f = xn, fn
        g = gn if gn is not None else np.asarray(grad_fn(x), dtype=float)
        _require_finite(g, "gradient")
        if on_accept is not None:
            on_accept(f)

    residual = float(np.linalg.norm(g)) / scale
    return MinimizeResult(
        x, residual < opts.tol, opts.max_iter, residual, f, "iteration budget exhausted"
    )
