"""Reading the minimizer's path from its results alone.

``minimize_energy`` is deterministic, so a run cut at ``max_iter = k``
stops at the k-th accepted iterate of the full run.  ``accepted_energies``
reruns it with ``max_iter = 1, 2, ...`` and reads ``MinimizeResult.energy``
of each run that spent its budget on accepted steps: the energy after
every accepted step, in order.  Each run takes a ``fresh_home()``, so no
run starts from a factor an earlier one kept.  ``no_newton`` is a Hessian
callback whose zero matrix never factors, so every step of a run given it
is a Barzilai-Borwein step.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from fracsolve.optimize import minimize_energy

_BUDGET_SPENT = "iteration budget exhausted"


def fresh_home() -> SimpleNamespace:
    """The ``home`` argument of ``minimize_energy`` outside a run: it holds
    no kept factor yet, as the operator of a new run."""
    return SimpleNamespace(factor=None)


def no_newton(x) -> np.ndarray:
    """A zero Hessian: its Cholesky factorization fails at every point."""
    return np.zeros((x.size, x.size))


def accepted_energies(energy_fn, grad_fn, x0, options, hess_fn) -> list:
    """The energy after each accepted step of
    ``minimize_energy(energy_fn, grad_fn, x0, options, hess_fn, fresh_home())``."""
    energies = []
    for k in range(1, options.max_iter + 1):
        res = minimize_energy(
            energy_fn, grad_fn, x0, replace(options, max_iter=k), hess_fn, fresh_home()
        )
        # a run that converged, or whose line search failed, before its k-th
        # step ends the path
        if res.iterations < k or res.message != _BUDGET_SPENT:
            break
        energies.append(res.energy)
    return energies
