"""Reaction data: singular forcing families, the gradient-dependent
convective bound, the floor truncation with closed-form antiderivative,
and the hypothesis checker gating the main solve.

Both forcing families are f(t) = c1 (shift + t)^-gamma + c2 t^r and
share every formula.  The default family, 'singular', has shift 0 and is
weakly singular at t = 0; the 'bounded' one has shift 1, so the t -> 0+
limit is finite.  The convective bound is g(x, xi) = c3 (1 + |xi|^zeta),
a function of |xi| alone.

The truncation replaces f(t) by f(max(floor_i, t)) at interior node i
for a strictly positive floor vector, removing the singularity from the
optimizer's path while leaving values above the floor untouched.  Its
antiderivative integrates the forcing from the floor, never across the
singularity, through quadrature.power_segment_integral, which stays
exact as gamma -> 1 and at gamma = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import power_segment_integral

# forcing family -> shift of its head c1 (shift + t)^-gamma
_SHIFT = {"singular": 0.0, "bounded": 1.0}
_EQ_TOL = 1e-12


@dataclass(frozen=True)
class ProblemExponents:
    """Orders and integrability exponents of the double-operator problem.

    The constructor enforces only structural sanity (orderings and open
    ranges needed for the formulas to make sense); the full solvability
    window is the job of check_hypotheses, so that operator-level oracles
    may run outside it (e.g. p = q = 2).
    """

    s: float
    s1: float
    s2: float
    p: float
    q: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.s2 <= self.s <= self.s1 <= 1.0:
            raise ValueError(
                f"orders must satisfy 0 < s2 <= s <= s1 <= 1, got "
                f"s2={self.s2}, s={self.s}, s1={self.s1}"
            )
        # the forms and the Riesz plan need orders strictly below 1
        if self.s1 >= 1.0:
            raise ValueError(f"order s1 must lie below 1, got s1={self.s1}")
        if not (1.0 < self.p < math.inf and 1.0 < self.q < math.inf):
            raise ValueError(f"exponents must exceed 1, got p={self.p}, q={self.q}")
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_prime(self) -> float:
        return self.q / (self.q - 1.0)


@dataclass(frozen=True)
class SingularReaction:
    """Forcing c1 (shift + t)^-gamma + c2 t^r, the same at every point;
    the family sets the shift: 0 for 'singular', 1 for 'bounded'."""

    gamma: float
    c1: float
    c2: float
    r: float
    family: str = "singular"

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"singular exponent gamma must be positive, got {self.gamma}")
        # without a positive head the forcing has no positive liminf at 0,
        # and no torsion floor exists
        if not 0.0 < self.c1 < math.inf:
            raise ValueError(f"coefficient c1 must be positive, got c1={self.c1}")
        if not 0.0 <= self.c2 < math.inf:
            raise ValueError(f"coefficient c2 must be nonnegative, got c2={self.c2}")
        if not 0.0 < self.r < math.inf:
            raise ValueError(f"growth exponent r must be positive, got {self.r}")
        if self.family not in _SHIFT:
            raise ValueError(f"unknown family {self.family!r}; choose from {tuple(_SHIFT)}")

    @property
    def shift(self) -> float:
        """The shift of the head c1 (shift + t)^-gamma."""
        return _SHIFT[self.family]


@dataclass(frozen=True)
class ConvectiveReaction:
    """Gradient-dependent bound g(x, xi) = c3 (1 + |xi|^zeta)."""

    c3: float
    zeta: float

    def __post_init__(self):
        if not 0.0 <= self.c3 < math.inf:
            raise ValueError(f"convective coefficient c3 must be nonnegative, got {self.c3}")
        if not 0.0 < self.zeta < math.inf:
            raise ValueError(f"growth exponent zeta must be positive, got {self.zeta}")


def _base_value(reaction: SingularReaction, t: np.ndarray) -> np.ndarray:
    head = reaction.c1 * (reaction.shift + t) ** -reaction.gamma
    return head + reaction.c2 * t**reaction.r


def _base_derivative(reaction: SingularReaction, t: np.ndarray) -> np.ndarray:
    power = reaction.c2 * reaction.r * t ** (reaction.r - 1.0)
    return power - reaction.gamma * reaction.c1 * (reaction.shift + t) ** (-reaction.gamma - 1.0)


def f_eval(reaction: SingularReaction, t):
    """Forcing value at states t > 0."""
    tv = np.asarray(t, dtype=float)
    if np.any(tv <= 0.0):
        raise ValueError("forcing is only defined for positive states")
    out = _base_value(reaction, tv)
    return float(out) if np.isscalar(t) else out


def liminf_at_zero(reaction: SingularReaction) -> float:
    """Limit inferior of the forcing as t -> 0+."""
    return reaction.c1 if reaction.shift else math.inf


def g_eval(conv: ConvectiveReaction, xi: np.ndarray) -> np.ndarray:
    """Convective bound at gradient samples xi of shape (m, dim)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    mags = np.linalg.norm(xi, axis=-1)
    return conv.c3 * (1.0 + mags**conv.zeta)


class TruncatedReaction:
    """Forcing frozen below a strictly positive floor, one value per
    interior node.  Evaluation acts on interior vectors aligned with the
    floor, which the objective's readers have checked through
    Grid.interior_vector."""

    def __init__(self, base: SingularReaction, floor):
        floor = np.array(floor, dtype=float)
        if np.any(floor <= 0.0):
            raise ValueError("truncation floor must be strictly positive on interior nodes")
        self.base = base
        self.floor = floor
        self._f_floor = _base_value(base, floor)

    def f(self, t: np.ndarray) -> np.ndarray:
        """Truncated forcing at an interior vector; finite for every real t."""
        return _base_value(self.base, np.maximum(self.floor, t))

    def df(self, t: np.ndarray) -> np.ndarray:
        """Derivative of the truncated forcing: 0 at or below the floor."""
        above = _base_derivative(self.base, np.maximum(self.floor, t))
        return np.where(t > self.floor, above, 0.0)

    def F(self, tau: np.ndarray) -> np.ndarray:
        """Antiderivative of the truncated forcing from 0, in closed form:
        f(floor) min(tau, floor) for the frozen part, plus the integral of
        the forcing from the floor to max(tau, floor), each of its terms by
        quadrature.power_segment_integral (the head's bounds shifted by the
        family's shift), which is exact as gamma -> 1 and at gamma = 1."""
        base, floor = self.base, self.floor
        top = np.maximum(tau, floor)
        head = power_segment_integral(-base.gamma, base.shift + floor, base.shift + top)
        power = power_segment_integral(base.r, floor, top)
        return self._f_floor * np.minimum(tau, floor) + base.c1 * head + base.c2 * power


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple[HypothesisCheck, ...]
    warnings: tuple[str, ...]
    uniqueness_ready: bool

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[HypothesisCheck]:
        return [c for c in self.checks if not c.ok]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
            "warnings": list(self.warnings),
            "uniqueness_ready": self.uniqueness_ready,
        }


def _ratio_strictly_decreasing(reaction: SingularReaction, q: float) -> bool:
    """Sample f(t)/t^(q-1) on a log grid and test strict decrease."""
    t = np.logspace(-3.0, 2.0, 200)
    ratio = _base_value(reaction, t) / t ** (q - 1.0)
    return bool(np.all(np.diff(ratio) < 0.0))


def uniqueness_certified(reaction: SingularReaction, q: float) -> bool:
    """Decreasing-ratio family condition: r < q-1 and f(t)/t^(q-1) strictly
    decreasing.  At the boundary r = q-1 the sampled ratio still decreases
    (the singular head dominates) but the power tail alone is constant, so
    uniqueness is not certified there."""
    return reaction.r < q - 1.0 and _ratio_strictly_decreasing(reaction, q)


def check_hypotheses(
    exponents: ProblemExponents,
    singular: SingularReaction,
    convective: ConvectiveReaction,
) -> HypothesisReport:
    """Evaluate every inequality of the solvability window, naming each.

    Hard failures hold up the main solve; structural conditions that are
    infeasible at dim = 1 (the embedding clause p < N/s1 together with
    s1 p > 1) downgrade to warnings there.
    """
    e, f, g = exponents, singular, convective
    checks: list[HypothesisCheck] = []
    warnings: list[str] = []

    checks.append(
        HypothesisCheck(
            "0<s2<=s<=s1<=1",
            0.0 < e.s2 <= e.s <= e.s1 <= 1.0,
            f"s2={e.s2}, s={e.s}, s1={e.s1}",
        )
    )

    chain_ok = 2.0 < e.q < e.p
    chain_detail = f"q={e.q}, p={e.p}"
    if e.dim >= 2:
        chain_ok = chain_ok and e.p < e.dim / e.s1
        chain_detail += f", N/s1={e.dim / e.s1:.6g}"
    else:
        warnings.append(
            "embedding clause p<N/s1 skipped at N=1 (incompatible with s1*p>1); "
            "demo-scale relaxation"
        )
    checks.append(HypothesisCheck("2<q<p<N/s1", chain_ok, chain_detail))

    checks.append(
        HypothesisCheck("s1*p>1", e.s1 * e.p > 1.0, f"s1*p={e.s1 * e.p:.6g}")
    )
    checks.append(
        HypothesisCheck("gamma in (0,1)", 0.0 < f.gamma < 1.0, f"gamma={f.gamma}")
    )
    checks.append(
        HypothesisCheck(
            "r in (1,p-1)", 1.0 < f.r < e.p - 1.0, f"r={f.r}, p-1={e.p - 1.0:.6g}"
        )
    )
    checks.append(
        HypothesisCheck(
            "zeta in (1,p-1)",
            1.0 < g.zeta < e.p - 1.0,
            f"zeta={g.zeta}, p-1={e.p - 1.0:.6g}",
        )
    )
    threshold = 1.0 / (e.p_prime * f.gamma)
    checks.append(
        HypothesisCheck(
            "s1<1/(p'*gamma)",
            e.s1 < threshold,
            f"s1={e.s1}, 1/(p'*gamma)={threshold:.6g}",
        )
    )
    resonance = abs(e.q_prime * e.s2 - e.s1)
    checks.append(
        HypothesisCheck(
            "q'*s2 != s1",
            resonance > _EQ_TOL,
            f"q'*s2={e.q_prime * e.s2:.6g}, s1={e.s1}",
        )
    )

    uniqueness_ready = uniqueness_certified(f, e.q)
    if not uniqueness_ready:
        warnings.append(
            "f(t)/t^(q-1) is not certified strictly decreasing (needs r < q-1): "
            "uniqueness checks are disabled"
        )
    if g.c3 == 0.0:
        warnings.append("c3=0: the convective term is absent and the map is constant")

    return HypothesisReport(tuple(checks), tuple(warnings), uniqueness_ready)
