"""Line-search descent for the coercive discrete energies.

Gradient descent with a Barzilai-Borwein trial step and Armijo
backtracking.  Every accepted step strictly decreases the energy (the
Armijo condition enforces it), and any non-finite energy or gradient at
an accepted point aborts loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class MinimizerOptions:
    """Knobs of the descent loop; tol bounds the scaled gradient norm
    ||g||_2 / sqrt(n) at acceptance."""

    max_iter: int = 5000
    tol: float = 1e-6
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    initial_step: float = 1.0
    max_backtracks: int = 60

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError(f"shrink factor must lie in (0,1), got {self.shrink}")
        if self.max_iter < 1 or self.max_backtracks < 1:
            raise ValueError("iteration budgets must be positive")
        if self.sufficient_decrease <= 0.0 or self.initial_step <= 0.0:
            raise ValueError("line-search constants must be positive")


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
    trial = opts.initial_step

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
        accepted = False
        fn = f
        for _ in range(opts.max_backtracks):
            xn = x - step * g
            fn = float(energy_fn(xn))
            if math.isfinite(fn) and fn <= f - opts.sufficient_decrease * step * gnorm2:
                accepted = True
                break
            step *= opts.shrink
        if not accepted:
            return MinimizeResult(
                x, False, it, residual, f, "line search could not decrease the energy"
            )
        prev_x, prev_g = x, g
        x, f = xn, fn
        g = np.asarray(grad_fn(x), dtype=float)
        _require_finite(g, "gradient")
        if on_accept is not None:
            on_accept(f)

    residual = float(np.linalg.norm(g)) / scale
    return MinimizeResult(
        x, residual < opts.tol, opts.max_iter, residual, f, "iteration budget exhausted"
    )
