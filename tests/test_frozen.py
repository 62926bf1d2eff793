"""Frozen-convection solves: energy, weak residual, lower bound, uniqueness.

Oracles:
  * central differences of the composed energy pin the nodal gradient;
  * the weak-residual vector is rebuilt in the test from nodal-basis
    pairings of the two operators plus the reaction terms;
  * a 3-interior-node instance is minimized exhaustively over a 41^3
    value lattice and must agree with the solver within lattice spacing;
  * with the convective pairing off and constant forcing the solve must
    coincide with the torsion solution of the same forcing;
  * central differences of the gradient pin the Hessian, and each form's
    Hessian H satisfies Euler's identity H(u) u = (p - 1) grad E(u) of a
    p-homogeneous energy;
  * a Hessian that never factors (indefinite, or zero as at u = 0) must
    leave the minimizer's iterates bit for bit those of no Hessian.
"""

import math
import warnings

import numpy as np
import pytest

from fracsolve.frozen import (
    FrozenProblem,
    check_operator_tables,
    default_frozen_options,
    frozen_energy,
    frozen_gradient,
    frozen_hessian,
    scaled_norm,
    solve_frozen,
    weak_residual,
)
from fracsolve.gagliardo import (
    OperatorParams,
    assemble_weights,
    energy,
    operator_gradient,
    operator_hessian,
)
from fracsolve.grids import build_grid, disk, interval
from fracsolve.optimize import MinimizerOptions, _cholesky_solve, minimize_energy
from fracsolve.reaction import (
    ConvectiveReaction,
    ProblemExponents,
    SingularReaction,
    TruncatedReaction,
    g_eval,
)
from fracsolve.riesz import plan_riesz_convolution, riesz_gradient
from fracsolve.torsion import _constant_start, select_sigma, solve_torsion, torsion_objective
from support.oracles import apply_form, uniqueness_probe


EXPONENTS_1D = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
REACTION_1D = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
CONVECTIVE_1D = ConvectiveReaction(c3=0.2, zeta=1.2)


def build_problem(grid, exponents, reaction, convective, floor, v):
    tables = (
        assemble_weights(grid, OperatorParams(exponents.s1, exponents.p)),
        assemble_weights(grid, OperatorParams(exponents.s2, exponents.q)),
    )
    xi = riesz_gradient(plan_riesz_convolution(grid, 1.0 - exponents.s), v)
    trunc = TruncatedReaction(reaction, floor)
    return FrozenProblem(tables=tables, trunc=trunc, load=g_eval(convective, xi))


@pytest.fixture(scope="module")
def setup_1d():
    grid = build_grid(interval(0.0, 1.0), 17)
    tables = (
        assemble_weights(grid, OperatorParams(0.6, 2.5)),
        assemble_weights(grid, OperatorParams(0.5, 2.2)),
    )
    cert = select_sigma(REACTION_1D, EXPONENTS_1D, grid, tables)
    lower = cert.lower
    xi = riesz_gradient(plan_riesz_convolution(grid, 1.0 - EXPONENTS_1D.s), lower)
    trunc = TruncatedReaction(REACTION_1D, lower)
    prob = FrozenProblem(tables=tables, trunc=trunc, load=g_eval(CONVECTIVE_1D, xi))
    return grid, cert, prob


class TestObjective:
    def test_tables_checked_against_grid_and_exponents(self, setup_1d):
        grid, _, prob = setup_1d
        tp, tq = prob.tables
        assert check_operator_tables(grid, EXPONENTS_1D, (tp, tq)) == (tp, tq)
        with pytest.raises(ValueError, match="does not match"):
            check_operator_tables(grid, EXPONENTS_1D, (tq, tp))
        other = build_grid(interval(0.0, 1.0), 17)
        with pytest.raises(ValueError, match="different grid"):
            check_operator_tables(other, EXPONENTS_1D, (tp, tq))
        with pytest.raises(TypeError):
            check_operator_tables(grid, EXPONENTS_1D, (tp, tp.pair))

    def test_torsion_objective_off_power_of_two(self, setup_1d):
        grid, _, prob = setup_1d
        tp, tq = prob.tables
        sigma = 0.3
        torsion = torsion_objective(sigma, EXPONENTS_1D, grid, prob.tables)
        vol = grid.cell_volume
        rng = np.random.default_rng(5)
        u = rng.standard_normal(grid.n_interior)
        want = energy(tp, u) + energy(tq, u) - sigma * vol * np.sum(u)
        assert frozen_energy(torsion, u) == pytest.approx(want, rel=1e-13)
        want_grad = operator_gradient(tp, u, tq) - sigma * vol
        np.testing.assert_allclose(frozen_gradient(torsion, u), want_grad, rtol=1e-13)


class TestFrozenEnergy:
    def test_zero_field_is_zero(self, setup_1d):
        grid, _, prob = setup_1d
        assert frozen_energy(prob, np.zeros(grid.n_interior)) == 0.0

    def test_gradient_matches_central_differences(self, setup_1d):
        grid, _, prob = setup_1d
        n = grid.n_interior
        rng = np.random.default_rng(7)
        floor = prob.trunc.floor
        # mixed state: some nodes well above the floor, some well below,
        # all at distance > 1e-3 from it so the +-1e-6 stencil stays on
        # one smooth branch of the truncated antiderivative
        u = floor + np.where(rng.random(n) < 0.7, 0.15, -0.05)
        u += 0.01 * rng.standard_normal(n)
        assert np.all(np.abs(u - floor) > 1e-3)

        grad = frozen_gradient(prob, u)
        eps = 1e-6
        for i in range(n):
            up = u.copy()
            um = u.copy()
            up[i] += eps
            um[i] -= eps
            fd = (frozen_energy(prob, up) - frozen_energy(prob, um)) / (2 * eps)
            assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))

    def test_coercive_along_rays(self, setup_1d):
        grid, cert, prob = setup_1d
        profile = cert.lower
        values = [frozen_energy(prob, lam * profile) for lam in (1.0, 10.0, 100.0, 1000.0)]
        assert values[1] < values[2] < values[3]
        assert values[3] > 0.0

    def test_finite_for_nonpositive_states(self, setup_1d):
        grid, _, prob = setup_1d
        n = grid.n_interior
        u = np.linspace(-1.0, 1.0, n)
        u[n // 2] = 0.0
        assert math.isfinite(frozen_energy(prob, u))
        assert np.all(np.isfinite(frozen_gradient(prob, u)))


class TestWeakResidual:
    def test_vector_matches_nodal_basis_pairings(self, setup_1d):
        grid, _, prob = setup_1d
        n = grid.n_interior
        rng = np.random.default_rng(11)
        u = prob.trunc.floor + 0.1 * rng.random(n)
        tp, tq = prob.tables
        vol = grid.cell_volume
        fvals = prob.trunc.f(u)
        want = np.empty(n)
        for i in range(n):
            e_i = np.zeros(n)
            e_i[i] = 1.0
            want[i] = (
                apply_form(tp, u, e_i)
                + apply_form(tq, u, e_i)
                - vol * (fvals[i] + prob.load[i])
            )
        got = frozen_gradient(prob, u)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_solution_is_stationary(self, setup_1d):
        _, _, prob = setup_1d
        opts = MinimizerOptions(tol=1e-8)
        result = solve_frozen(prob, opts)
        assert result.converged
        assert weak_residual(prob, result.x) < opts.tol

    def test_subsolution_components_nonpositive(self, setup_1d):
        grid, cert, prob = setup_1d
        # the certified floor solves the constant-forcing problem at sigma
        # while sigma < f(x, floor) holds strictly, so every component of
        # the full residual at the floor sits below solver slack
        r = frozen_gradient(prob, prob.trunc.floor)
        assert np.all(r <= 1e-8)

    def test_scaled_norm_invariant_under_duplication(self):
        r = np.array([0.3, -1.2, 0.05, 2.0])
        doubled = np.concatenate([r, r])
        assert abs(scaled_norm(r) - scaled_norm(doubled)) <= 1e-15 * scaled_norm(r)


class TestSolveFrozen:
    def test_converges_with_certificate_floor(self, setup_1d):
        grid, cert, prob = setup_1d
        result = solve_frozen(prob)
        assert result.converged
        assert result.residual < 1e-6
        floor = prob.trunc.floor
        raw = result.x
        assert np.min(raw - floor) >= -1e-6

    def test_monotone_energy_trace(self, setup_1d):
        grid, _, prob = setup_1d
        trace = []

        def fun(u):
            return frozen_energy(prob, u)

        def grad(u):
            return frozen_gradient(prob, u)

        res = minimize_energy(
            fun,
            grad,
            prob.trunc.floor.copy(),
            MinimizerOptions(tol=1e-8),
            on_accept=trace.append,
        )
        assert res.converged
        assert len(trace) >= 2
        assert np.all(np.diff(np.asarray(trace)) <= 0.0)
        assert np.all(np.isfinite(np.asarray(trace)))

    def test_nonconvergence_returns_best_iterate(self, setup_1d):
        _, _, prob = setup_1d
        result = solve_frozen(prob, MinimizerOptions(tol=1e-14, max_iter=1))
        assert not result.converged
        assert result.message
        assert np.all(np.isfinite(result.x))

    def test_no_start_is_the_floor_start(self, setup_1d):
        grid, _, prob = setup_1d
        result = solve_frozen(prob, start=None)
        ref = minimize_energy(
            lambda u: frozen_energy(prob, u),
            lambda u: frozen_gradient(prob, u),
            prob.trunc.floor.copy(),
            default_frozen_options(grid),
            hess_fn=lambda u: frozen_hessian(prob, u),
        )
        assert np.array_equal(result.x, ref.x)
        assert result.iterations == ref.iterations
        assert result.residual == ref.residual

    def test_converged_start_returns_at_once(self, setup_1d):
        grid, _, prob = setup_1d
        first = solve_frozen(prob)
        assert first.converged
        again = solve_frozen(prob, start=first.x)
        assert again.converged
        assert again.iterations == 0
        start = np.maximum(first.x, prob.trunc.floor)
        assert np.array_equal(again.x, start)

    def test_start_below_floor_is_clipped(self, setup_1d):
        grid, _, prob = setup_1d
        floor = prob.trunc.floor
        opts = MinimizerOptions(tol=1e-8)
        cold = solve_frozen(prob, opts)
        below = solve_frozen(prob, opts, start=floor - 1.0)
        assert np.array_equal(below.x, cold.x)
        # a start partly below the floor runs from its clipped copy
        bump = 0.5 * floor * np.cos(np.arange(floor.size))
        mixed = solve_frozen(prob, opts, start=floor + bump)
        clipped = solve_frozen(prob, opts, start=np.maximum(floor + bump, floor))
        assert np.array_equal(mixed.x, clipped.x)
        assert mixed.iterations == clipped.iterations

    def test_floor_dip_is_not_converged(self, setup_1d):
        # three times the certified floor lies above the minimizer of the
        # truncated problem: the descent converges, the bound check fails
        grid, _, prob = setup_1d
        raised = 3.0 * prob.trunc.floor
        dipped = FrozenProblem(prob.tables, TruncatedReaction(prob.trunc.base, raised), prob.load)
        tol = default_frozen_options(grid).tol
        result = solve_frozen(dipped)
        assert result.residual < tol
        assert not result.converged
        assert "below the floor" in result.message
        assert np.min(result.x - raised) < -tol

    def test_three_node_brute_force_lattice(self):
        grid = build_grid(interval(0.0, 1.0), 5)
        floor = np.array([0.045, 0.07, 0.045])
        v = np.array([0.1, 0.15, 0.1])
        prob = build_problem(
            grid, EXPONENTS_1D, REACTION_1D, CONVECTIVE_1D, floor, v
        )
        result = solve_frozen(prob, MinimizerOptions(tol=1e-8))
        assert result.converged

        # exhaustive minimization over a 41^3 nodal value lattice
        axis = np.linspace(0.0, 1.2, 41)
        spacing = axis[1] - axis[0]
        cand = np.stack(
            np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        tp, tq = prob.tables
        vol = grid.cell_volume

        def batch_energy(U):
            total = np.zeros(U.shape[0])
            for table, p in ((tp, EXPONENTS_1D.p), (tq, EXPONENTS_1D.q)):
                du = U[:, :, None] - U[:, None, :]
                pair = np.sum(table.pair * np.abs(du) ** p, axis=(1, 2))
                tail = 2.0 * np.sum(table.tail * np.abs(U) ** p, axis=1)
                total += (pair + tail) / p
            total -= vol * np.array([np.sum(prob.trunc.F(u)) for u in U])
            total -= vol * np.sum(prob.load * U, axis=1)
            return total

        energies = batch_energy(cand)
        # the vectorized oracle agrees with the scalar energy it sweeps
        rng = np.random.default_rng(3)
        for k in rng.integers(0, cand.shape[0], size=5):
            assert abs(energies[k] - frozen_energy(prob, cand[k])) <= 1e-12 * max(
                1.0, abs(energies[k])
            )
        best = cand[int(np.argmin(energies))]
        assert np.all(best > axis[0]) and np.all(best < axis[-1])
        assert np.max(np.abs(result.x - best)) <= spacing + 1e-12

    def test_constant_forcing_matches_torsion(self):
        grid = build_grid(interval(0.0, 1.0), 17)
        exps = EXPONENTS_1D
        tables = (
            assemble_weights(grid, OperatorParams(exps.s1, exps.p)),
            assemble_weights(grid, OperatorParams(exps.s2, exps.q)),
        )
        sigma = 0.3

        class ConstantForcing:
            """Degenerate truncation: forcing identically sigma."""

            def __init__(self, n):
                self.floor = np.full(n, 1e-4)

            def f(self, t):
                return np.full(np.asarray(t, dtype=float).shape, sigma)

            def df(self, t):
                return np.zeros(np.asarray(t, dtype=float).shape)

            def F(self, t):
                return sigma * np.asarray(t, dtype=float)

        v = np.full(grid.n_interior, 0.1)
        prob = FrozenProblem(
            tables=tables,
            trunc=ConstantForcing(grid.n_interior),
            load=g_eval(
                ConvectiveReaction(c3=0.0, zeta=1.2),
                riesz_gradient(plan_riesz_convolution(grid, 1.0 - exps.s), v),
            ),
        )
        tol = 1e-6
        result = solve_frozen(prob, MinimizerOptions(tol=tol))
        torsion = solve_torsion(sigma, exps, grid, tables, MinimizerOptions(tol=tol))
        diff = np.max(np.abs(result.x - torsion))
        assert diff <= 2.0 * tol


class TestUniquenessProbe:
    def test_small_instance_discrepancy(self, setup_1d):
        _, _, prob = setup_1d
        gap = uniqueness_probe(prob)
        assert math.isfinite(gap)
        assert gap < 1e-6

    def test_identical_starts_give_zero(self, setup_1d):
        _, _, prob = setup_1d
        floor = prob.trunc.floor
        gap = uniqueness_probe(prob, starts=(floor, floor))
        assert gap == 0.0

    def test_decrease_hypothesis_violation_skips(self, setup_1d):
        grid, cert, _ = setup_1d
        # r = 1.3 >= q - 1 = 1.2: the ratio-decrease family condition fails
        reaction = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.3)
        lower = cert.lower
        prob = build_problem(grid, EXPONENTS_1D, reaction, CONVECTIVE_1D, lower, lower)
        with pytest.warns(UserWarning, match="uniqueness"):
            gap = uniqueness_probe(prob)
        assert math.isnan(gap)

    def test_failed_solves_are_inconclusive(self, setup_1d):
        _, _, prob = setup_1d
        with pytest.warns(UserWarning, match="inconclusive"):
            gap = uniqueness_probe(prob, options=MinimizerOptions(tol=1e-14, max_iter=1))
        assert math.isnan(gap)


class TestTwoDimensional:
    def test_disk_solve(self):
        grid = build_grid(disk(0.0, 0.0, 1.0), 11)
        exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=3.0, q=2.5, dim=2)
        reaction = SingularReaction(gamma=0.4, c1=0.5, c2=0.5, r=1.3)
        convective = ConvectiveReaction(c3=0.1, zeta=1.4)
        tables = (
            assemble_weights(grid, OperatorParams(0.6, 3.0)),
            assemble_weights(grid, OperatorParams(0.5, 2.5)),
        )
        cert = select_sigma(reaction, exps, grid, tables)
        lower = cert.lower
        prob = FrozenProblem(
            tables=tables,
            trunc=TruncatedReaction(reaction, lower),
            load=g_eval(
                convective, riesz_gradient(plan_riesz_convolution(grid, 1.0 - exps.s), lower)
            ),
        )
        result = solve_frozen(prob)
        assert result.converged
        assert result.residual < 1e-5
        raw = result.x
        assert np.min(raw - prob.trunc.floor) >= -1e-5
        assert np.all(raw > 0.0)


EXPONENTS_2D = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=3.0, q=2.5, dim=2)
REACTION_2D = SingularReaction(gamma=0.4, c1=0.5, c2=0.5, r=1.3)
CONVECTIVE_2D = ConvectiveReaction(c3=0.1, zeta=1.4)


@pytest.fixture(scope="module", params=["interval_1d", "disk_2d"])
def hessian_setup(request):
    """The frozen problem of the shipped config's parameters at a small
    resolution (interval res 17, disk res 11), with a random state well
    above its floor, and the torsion objective on the same tables."""
    if request.param == "interval_1d":
        grid = build_grid(interval(0.0, 1.0), 17)
        exps, reaction, convective = EXPONENTS_1D, REACTION_1D, CONVECTIVE_1D
    else:
        grid = build_grid(disk(0.0, 0.0, 1.0), 11)
        exps, reaction, convective = EXPONENTS_2D, REACTION_2D, CONVECTIVE_2D
    tables = (
        assemble_weights(grid, OperatorParams(exps.s1, exps.p)),
        assemble_weights(grid, OperatorParams(exps.s2, exps.q)),
    )
    lower = select_sigma(reaction, exps, grid, tables).lower
    prob = build_problem(grid, exps, reaction, convective, lower, lower)
    rng = np.random.default_rng(3)
    u = lower + 0.2 + 0.05 * rng.random(grid.n_interior)
    torsion = torsion_objective(0.3, exps, grid, tables)
    return prob, torsion, u, rng.standard_normal(grid.n_interior)


def _gradient_differences(prob, u, eps=1e-6):
    n = u.size
    fd = np.empty((n, n))
    for k in range(n):
        step = np.zeros(n)
        step[k] = eps
        fd[:, k] = (frozen_gradient(prob, u + step) - frozen_gradient(prob, u - step)) / (2 * eps)
    return fd


class TestHessian:
    def test_matches_central_differences_of_the_gradient(self, hessian_setup):
        prob, torsion, u, w = hessian_setup
        # the frozen state is strictly above the floor, where the truncated
        # forcing is smooth; the torsion forcing is linear everywhere
        assert np.all(u > prob.trunc.floor + 0.1)
        for objective, state in ((prob, u), (torsion, w)):
            hess = frozen_hessian(objective, state)
            fd = _gradient_differences(objective, state)
            np.testing.assert_allclose(hess, fd, rtol=0, atol=1e-6 * np.max(np.abs(hess)))

    def test_symmetric(self, hessian_setup):
        prob, torsion, u, w = hessian_setup
        for objective, state in ((prob, u), (torsion, w)):
            hess = frozen_hessian(objective, state)
            assert np.array_equal(hess, hess.T)

    def test_forcing_enters_the_diagonal(self, hessian_setup):
        prob, _, u, _ = hessian_setup
        tp, tq = prob.tables
        off = frozen_hessian(prob, u) - operator_hessian(tp, u, tq)
        want = -prob.grid.cell_volume * prob.trunc.df(u)
        np.testing.assert_allclose(np.diag(off), want, rtol=1e-12, atol=1e-15)
        assert np.all(off[~np.eye(u.size, dtype=bool)] == 0.0)

    def test_euler_identity_per_table(self, hessian_setup):
        prob, _, u, w = hessian_setup
        for table in prob.tables:
            p = table.params.p
            for state in (u, w):
                lhs = operator_hessian(table, state) @ state
                rhs = (p - 1.0) * operator_gradient(table, state)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.max(np.abs(rhs)))

    def test_vanishes_at_zero(self, hessian_setup):
        _, torsion, _, _ = hessian_setup
        n = torsion.grid.n_interior
        assert np.all(frozen_hessian(torsion, np.zeros(n)) == 0.0)


class TestNewtonSteps:
    @pytest.mark.parametrize("kind", ["indefinite", "zero"])
    def test_fallback_is_the_bb_step(self, setup_1d, kind):
        grid, _, prob = setup_1d
        n = grid.n_interior
        if kind == "indefinite":
            rng = np.random.default_rng(11)
            eigs = np.linspace(-1.0, 1.0, n)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            bad = (q * eigs) @ q.T
        else:
            bad = np.zeros((n, n))
        runs = []
        for hess_fn in (None, lambda u: bad):
            trace = []
            res = minimize_energy(
                lambda u: frozen_energy(prob, u),
                lambda u: frozen_gradient(prob, u),
                prob.trunc.floor.copy(),
                default_frozen_options(grid),
                on_accept=trace.append,
                hess_fn=hess_fn,
            )
            runs.append((res, trace))
        (plain, plain_trace), (fallback, fallback_trace) = runs
        assert plain.converged and fallback.newton_steps == plain.newton_steps == 0
        assert np.array_equal(fallback.x, plain.x)
        assert fallback.iterations == plain.iterations
        assert fallback_trace == plain_trace

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 100])
    def test_cholesky_solve_matches_a_dense_solve(self, n):
        # sizes on both sides of the substitution's block of 32 rows
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        spd = m @ m.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x = _cholesky_solve(np.linalg.cholesky(spd), b)
        np.testing.assert_allclose(x, np.linalg.solve(spd, b), rtol=1e-12, atol=1e-14)

    def test_frozen_solve_takes_newton_steps(self, setup_1d):
        grid, _, prob = setup_1d
        result = solve_frozen(prob)
        plain = minimize_energy(
            lambda u: frozen_energy(prob, u),
            lambda u: frozen_gradient(prob, u),
            prob.trunc.floor.copy(),
            default_frozen_options(grid),
        )
        assert result.converged and plain.converged
        assert 0 < result.newton_steps <= result.iterations < plain.iterations
        # both meet the same stopping test, so they agree to within it
        assert np.max(np.abs(result.x - plain.x)) < 1e-4

    def test_torsion_starts_from_the_best_constant(self, hessian_setup):
        _, torsion, _, _ = hessian_setup
        start = _constant_start(torsion)
        assert np.all(start == start[0]) and start[0] > 0.0
        e0 = frozen_energy(torsion, start)
        for t in (0.99, 1.01):
            assert frozen_energy(torsion, t * start) > e0
        assert frozen_energy(torsion, np.zeros(start.size)) > e0
