"""Seeded draws from the solvability window that ``check_hypotheses`` gates.

``window_draw`` samples a bounding box uniformly and keeps the first draw
that passes every check, so its draws are uniform over the window inside
the box.  The box bounds what the window leaves open: p and q lie in
(2, P_MAX), r and zeta in (1, p - 1), and c1, c2 and a nonzero c3 are
log-uniform over [1e-2, 10], [1e-2, 10] and [1e-3, 10]; c3 is 0 in half
the draws, and either forcing family is equally likely.  ``stress_draw``
samples the same box with a strong convection: c3 log-uniform over [10,
1000].
"""

from __future__ import annotations

import math

import numpy as np

from fracsolve.reaction import (
    ConvectiveReaction,
    ProblemExponents,
    SingularReaction,
    check_hypotheses,
)

P_MAX = 4.0


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def window_draw(
    rng: np.random.Generator, dim: int
) -> tuple[ProblemExponents, SingularReaction, ConvectiveReaction]:
    """The first draw of the box that passes check_hypotheses in dimension
    dim: its exponents, forcing and convective bound."""
    return _first_passing(
        rng, dim, lambda: _log_uniform(rng, 1e-3, 10.0) if rng.uniform() < 0.5 else 0.0
    )


def stress_draw(
    rng: np.random.Generator, dim: int
) -> tuple[ProblemExponents, SingularReaction, ConvectiveReaction]:
    """As window_draw, with c3 log-uniform over [10, 1000]."""
    return _first_passing(rng, dim, lambda: _log_uniform(rng, 10.0, 1000.0))


def _first_passing(
    rng: np.random.Generator, dim: int, draw_c3
) -> tuple[ProblemExponents, SingularReaction, ConvectiveReaction]:
    """The first draw of the box, with c3 from draw_c3(), that passes
    check_hypotheses in dimension dim."""
    while True:
        s2, s, s1 = np.sort(rng.uniform(0.0, 1.0, 3))
        q, p = np.sort(rng.uniform(2.0, P_MAX, 2))
        exponents = ProblemExponents(s=s, s1=s1, s2=s2, p=p, q=q, dim=dim)
        reaction = SingularReaction(
            gamma=rng.uniform(0.0, 1.0),
            c1=_log_uniform(rng, 1e-2, 10.0),
            c2=_log_uniform(rng, 1e-2, 10.0),
            r=rng.uniform(1.0, p - 1.0),
            family=str(rng.choice(["singular", "bounded"])),
        )
        convective = ConvectiveReaction(c3=draw_c3(), zeta=rng.uniform(1.0, p - 1.0))
        if check_hypotheses(exponents, reaction, convective).passed:
            return exponents, reaction, convective
