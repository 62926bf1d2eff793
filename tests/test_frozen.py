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
  * a Hessian that never factors (indefinite), or whose factor has an
    infinite diagonal entry, must leave the minimizer's iterates bit for
    bit those of the zero Hessian (as at u = 0), which never factors, and
    no non-finite Hessian may give a Newton direction.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracsolve import optimize
from fracsolve.frozen import (
    FrozenProblem,
    default_tol,
    frozen_energy,
    frozen_gradient,
    frozen_hessian,
    scaled_norm,
    solve_frozen,
    weak_residual,
)
from fracsolve.gagliardo import (
    Operator,
    OperatorParams,
    assemble_weights,
    forms,
    operator_gradient,
    workspace_hessian,
)
from fracsolve.grids import Grid, disk, interval
from fracsolve.optimize import (
    MinimizerOptions,
    _cholesky_solve,
    _factorize,
    _newton_direction,
    minimize_energy,
)
from fracsolve.reaction import (
    ConvectiveReaction,
    ProblemExponents,
    SingularReaction,
    TruncatedReaction,
    g_eval,
)
from fracsolve.riesz import plan_riesz_convolution, riesz_gradient
from fracsolve.torsion import _constant_start, select_sigma, solve_torsion, torsion_objective
from support.minimizer import accepted_energies, fresh_home, no_newton
from support.oracles import apply_form, operator_hessian, uniqueness_probe
from support.passes import count_form_passes


EXPONENTS_1D = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
REACTION_1D = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
CONVECTIVE_1D = ConvectiveReaction(c3=0.2, zeta=1.2)
# the inner options a run builds by default, in 1D and in 2D
OPTIONS_1D = MinimizerOptions(tol=default_tol(1))
OPTIONS_2D = MinimizerOptions(tol=default_tol(2))


def build_problem(grid, exponents, reaction, convective, floor, v):
    operator = Operator(
        assemble_weights(grid, OperatorParams(exponents.s1, exponents.p)),
        assemble_weights(grid, OperatorParams(exponents.s2, exponents.q)),
    )
    xi = riesz_gradient(plan_riesz_convolution(grid, 1.0 - exponents.s), v)
    trunc = TruncatedReaction(reaction, floor)
    return FrozenProblem(operator=operator, trunc=trunc, load=g_eval(convective, xi))


# built for each test, so that no kept point or Newton factor carries
# from one test to the next
@pytest.fixture
def setup_1d():
    grid = Grid(interval(0.0, 1.0), 17)
    operator = Operator(
        assemble_weights(grid, OperatorParams(0.6, 2.5)),
        assemble_weights(grid, OperatorParams(0.5, 2.2)),
    )
    cert = select_sigma(REACTION_1D, operator)
    lower = cert.lower
    xi = riesz_gradient(plan_riesz_convolution(grid, 1.0 - EXPONENTS_1D.s), lower)
    trunc = TruncatedReaction(REACTION_1D, lower)
    prob = FrozenProblem(operator=operator, trunc=trunc, load=g_eval(CONVECTIVE_1D, xi))
    return grid, cert, prob


class TestObjective:
    def test_tables_checked_against_grid_and_exponents(self, setup_1d):
        _, _, prob = setup_1d
        tp, tq = prob.operator.tables
        other = Grid(interval(0.0, 1.0), 17)
        with pytest.raises(ValueError, match="different grid"):
            Operator(tp, assemble_weights(other, tq.params))
        with pytest.raises(TypeError):
            Operator(tp, tp.pair)

    def test_load_and_start_are_interior_vectors(self, setup_1d):
        grid, _, prob = setup_1d
        n = grid.n_interior
        with pytest.raises(ValueError, match=f"expected {n} interior values"):
            FrozenProblem(operator=prob.operator, trunc=prob.trunc, load=np.zeros(n + 1))
        with pytest.raises(ValueError, match=f"expected {n} interior values"):
            solve_frozen(prob, OPTIONS_1D, start=np.ones(n - 1))

    def test_only_one_interior_vector_accepted(self, setup_1d):
        # a batch of states with the node axis leading is not a state; the
        # objective checks its argument before the forcing reads it
        grid, _, prob = setup_1d
        n = grid.n_interior
        for bad in (np.ones((n, 2)), np.ones(n + 1), 1.0):
            for part in (frozen_energy, frozen_gradient, frozen_hessian):
                with pytest.raises(ValueError, match="interior values"):
                    part(prob, bad)

    def test_torsion_objective_off_power_of_two(self, setup_1d):
        grid, _, prob = setup_1d
        tp, tq = prob.operator.tables
        sigma = 0.3
        torsion = torsion_objective(sigma, prob.operator)
        vol = grid.cell_volume
        rng = np.random.default_rng(5)
        u = rng.standard_normal(grid.n_interior)
        apart = sum(forms(Operator(tp), u).energies) + sum(forms(Operator(tq), u).energies)
        want = apart - sigma * vol * np.sum(u)
        assert frozen_energy(torsion, u) == pytest.approx(want, rel=1e-13)
        want_grad = operator_gradient(Operator(tp, tq), u) - sigma * vol
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
        tp, tq = prob.operator.tables
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


class TestKeptForms:
    """The forms do not depend on the load: at a point the operator kept,
    any frozen problem on it costs O(n) and gives the bits of a new pass."""

    def test_new_load_at_a_kept_point_costs_no_pass(self, setup_1d, monkeypatch):
        grid, _, prob = setup_1d
        u = solve_frozen(prob, OPTIONS_1D).x
        other = FrozenProblem(prob.operator, prob.trunc, prob.load + 0.3)
        passes = count_form_passes(monkeypatch)
        warm = (frozen_energy(other, u), frozen_gradient(other, u), weak_residual(other, u))
        assert passes == []
        # the same problem on a fresh operator over the same tables
        cold = FrozenProblem(Operator(*prob.operator.tables), other.trunc, other.load)
        cold_energy = frozen_energy(cold, u)
        assert passes == [True]
        assert warm[0] == cold_energy
        assert np.array_equal(warm[1], frozen_gradient(cold, u))
        assert warm[2] == weak_residual(cold, u)
        assert passes == [True]

    def test_trial_gradient_after_its_energy_costs_no_pass(self, setup_1d, monkeypatch):
        grid, _, prob = setup_1d
        u = prob.trunc.floor + 0.01 * np.random.default_rng(8).random(grid.n_interior)
        passes = count_form_passes(monkeypatch)
        frozen_energy(prob, u)
        frozen_gradient(prob, u)
        assert passes == [True]
        # a gradient first keeps the energy as well
        u = u + 0.001
        frozen_gradient(prob, u)
        frozen_energy(prob, u)
        assert passes == [True, True]

    def test_two_instances_of_one_config_keep_their_own_points(self, setup_1d, monkeypatch):
        grid, cert, prob = setup_1d
        v = cert.lower
        a, b = (
            build_problem(grid, EXPONENTS_1D, REACTION_1D, CONVECTIVE_1D, cert.lower, v)
            for _ in range(2)
        )
        u = cert.lower * 1.5
        passes = count_form_passes(monkeypatch)
        ea = frozen_energy(a, u)
        eb = frozen_energy(b, u)
        assert passes == [True, True]
        assert ea == eb
        assert np.array_equal(frozen_gradient(a, u), frozen_gradient(b, u))
        assert passes == [True, True]


class TestSolveFrozen:
    def test_converges_with_certificate_floor(self, setup_1d):
        grid, cert, prob = setup_1d
        result = solve_frozen(prob, OPTIONS_1D)
        assert result.converged
        assert result.residual < 1e-6
        floor = prob.trunc.floor
        raw = result.x
        assert np.min(raw - floor) >= -1e-6

    def test_monotone_energy_trace(self, setup_1d):
        grid, _, prob = setup_1d

        def fun(u):
            return frozen_energy(prob, u)

        def grad(u):
            return frozen_gradient(prob, u)

        opts = MinimizerOptions(tol=1e-8)
        res = minimize_energy(fun, grad, prob.trunc.floor, opts, no_newton, fresh_home())
        assert res.converged
        trace = accepted_energies(fun, grad, prob.trunc.floor, opts, no_newton)
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
        # each solve on an operator of its own, so neither starts from a
        # factor that an earlier solve kept
        solved, own = (
            FrozenProblem(Operator(*prob.operator.tables), prob.trunc, prob.load) for _ in range(2)
        )
        result = solve_frozen(solved, OPTIONS_1D, start=None)
        ref = minimize_energy(
            lambda u: frozen_energy(own, u),
            lambda u: frozen_gradient(own, u),
            prob.trunc.floor.copy(),
            OPTIONS_1D,
            lambda u: frozen_hessian(own, u),
            own.operator,
        )
        assert np.array_equal(result.x, ref.x)
        assert result.iterations == ref.iterations
        assert result.residual == ref.residual

    def test_converged_start_returns_at_once(self, setup_1d):
        grid, _, prob = setup_1d
        first = solve_frozen(prob, OPTIONS_1D)
        assert first.converged
        again = solve_frozen(prob, OPTIONS_1D, start=first.x)
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
        dipped = FrozenProblem(
            prob.operator, TruncatedReaction(prob.trunc.base, raised), prob.load
        )
        tol = OPTIONS_1D.tol
        result = solve_frozen(dipped, OPTIONS_1D)
        assert result.residual < tol
        assert not result.converged
        assert "below the floor" in result.message
        assert np.min(result.x - raised) < -tol

    def test_three_node_brute_force_lattice(self):
        grid = Grid(interval(0.0, 1.0), 5)
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
        tp, tq = prob.operator.tables
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
        grid = Grid(interval(0.0, 1.0), 17)
        exps = EXPONENTS_1D
        operator = Operator(
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
            operator=operator,
            trunc=ConstantForcing(grid.n_interior),
            load=g_eval(
                ConvectiveReaction(c3=0.0, zeta=1.2),
                riesz_gradient(plan_riesz_convolution(grid, 1.0 - exps.s), v),
            ),
        )
        tol = 1e-6
        result = solve_frozen(prob, MinimizerOptions(tol=tol))
        # the torsion solve stops at its own, tighter, sigma-scaled tolerance
        torsion = solve_torsion(sigma, operator, 1e-8)
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
        grid = Grid(disk(0.0, 0.0, 1.0), 11)
        exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=3.0, q=2.5, dim=2)
        reaction = SingularReaction(gamma=0.4, c1=0.5, c2=0.5, r=1.3)
        convective = ConvectiveReaction(c3=0.1, zeta=1.4)
        operator = Operator(
            assemble_weights(grid, OperatorParams(0.6, 3.0)),
            assemble_weights(grid, OperatorParams(0.5, 2.5)),
        )
        cert = select_sigma(reaction, operator)
        lower = cert.lower
        prob = FrozenProblem(
            operator=operator,
            trunc=TruncatedReaction(reaction, lower),
            load=g_eval(
                convective, riesz_gradient(plan_riesz_convolution(grid, 1.0 - exps.s), lower)
            ),
        )
        result = solve_frozen(prob, OPTIONS_2D)
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
    above its floor, and the torsion objective on an operator over the
    same tables."""
    if request.param == "interval_1d":
        grid = Grid(interval(0.0, 1.0), 17)
        exps, reaction, convective = EXPONENTS_1D, REACTION_1D, CONVECTIVE_1D
    else:
        grid = Grid(disk(0.0, 0.0, 1.0), 11)
        exps, reaction, convective = EXPONENTS_2D, REACTION_2D, CONVECTIVE_2D
    operator = Operator(
        assemble_weights(grid, OperatorParams(exps.s1, exps.p)),
        assemble_weights(grid, OperatorParams(exps.s2, exps.q)),
    )
    lower = select_sigma(reaction, operator).lower
    prob = build_problem(grid, exps, reaction, convective, lower, lower)
    rng = np.random.default_rng(3)
    u = lower + 0.2 + 0.05 * rng.random(grid.n_interior)
    torsion = torsion_objective(0.3, operator)
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
        off = frozen_hessian(prob, u) - operator_hessian(prob.operator, u)
        want = -prob.grid.cell_volume * prob.trunc.df(u)
        np.testing.assert_allclose(np.diag(off), want, rtol=1e-12, atol=1e-15)
        assert np.all(off[~np.eye(u.size, dtype=bool)] == 0.0)

    def test_euler_identity_per_table(self, hessian_setup):
        prob, _, u, w = hessian_setup
        for table in prob.operator.tables:
            p = table.params.p
            for state in (u, w):
                lhs = operator_hessian(Operator(table), state) @ state
                rhs = (p - 1.0) * operator_gradient(Operator(table), state)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.max(np.abs(rhs)))

    def test_vanishes_at_zero(self, hessian_setup):
        _, torsion, _, _ = hessian_setup
        n = torsion.grid.n_interior
        assert np.all(frozen_hessian(torsion, np.zeros(n)) == 0.0)


def _fresh_frozen_hessian(prob, u):
    """frozen_hessian's arithmetic on a new operator_hessian array."""
    hess = operator_hessian(prob.operator, u)
    hess[np.diag_indices(u.size)] -= prob.grid.cell_volume * prob.trunc.df(u)
    return hess


class TestHessianWorkspace:
    """The Newton path fills one Hessian array per operator in place, with
    the bits of a new array at every point; the operator_hessian oracle
    returns an array its caller owns."""

    def test_hessians_in_a_row_match_new_arrays(self, hessian_setup):
        prob, torsion, u, w = hessian_setup
        lift = np.abs(w) + 0.5
        for objective, states in ((prob, (u, u + 0.1 * lift)), (torsion, (lift, w))):
            for state in states:
                hess = frozen_hessian(objective, state)
                assert hess is objective.operator.hessian_workspace
                assert np.array_equal(hess, _fresh_frozen_hessian(objective, state))

    def test_operator_hessian_is_owned_by_its_caller(self, hessian_setup):
        prob, _, u, _ = hessian_setup
        first = operator_hessian(prob.operator, u)
        again = operator_hessian(prob.operator, u)
        assert first is not again and not np.shares_memory(first, again)
        assert not np.shares_memory(first, workspace_hessian(prob.operator, u))
        assert np.array_equal(first, prob.operator.hessian_workspace)

    def test_two_operators_keep_separate_workspaces(self, hessian_setup):
        prob, _, u, w = hessian_setup
        lift = np.abs(w) + 0.5
        first, second = (Operator(*prob.operator.tables) for _ in range(2))
        at_u = workspace_hessian(first, u)
        at_lift = workspace_hessian(second, lift)
        assert not np.shares_memory(at_u, at_lift)
        assert np.array_equal(at_u, operator_hessian(prob.operator, u))
        assert np.array_equal(at_lift, operator_hessian(prob.operator, lift))


def _nonfinite_hessians():
    """Symmetric positive definite matrices with one non-finite value on
    the diagonal, or one mirrored pair of them off it."""
    for n in (1, 2, 7, 33, 200):
        m = np.random.default_rng(n).standard_normal((n, n))
        spd = m @ m.T + n * np.eye(n)
        spots = {(0, 0), (n // 2, n // 2), (n - 1, n - 1), (n - 1, 0), (n // 2, n // 3)}
        for bad in (np.inf, -np.inf, np.nan):
            for i, j in sorted(spots):
                hess = spd.copy()
                hess[i, j] = hess[j, i] = bad
                yield f"n{n}-{bad}-{i},{j}", hess


def _hessians_at_flat_states():
    """Form Hessians at p < 2 (|t|^(p-2) blows up at t = 0) at states with
    a zero value (an infinite diagonal tail term) or two equal values (an
    infinite pair term) on the shipped shapes at small resolution."""
    for grid in (Grid(interval(0.0, 1.0), 17), Grid(disk(0.0, 0.0, 1.0), 11)):
        n = grid.n_interior
        rng = np.random.default_rng(n)
        for p in (1.5, 1.8):
            op = Operator(assemble_weights(grid, OperatorParams(0.6, p)))
            for k in (0, n // 2, n - 1):
                u = 0.5 + rng.random(n)
                u[k] = 0.0
                yield f"{grid.dim}d-p{p}-zero{k}", workspace_hessian(op, u).copy()
                u = 0.5 + rng.random(n)
                u[k] = u[(k + 1) % n]
                yield f"{grid.dim}d-p{p}-equal{k}", workspace_hessian(op, u).copy()


@pytest.fixture
def factored_hessians(monkeypatch):
    """The Hessians optimize._factorize is called with, in order."""
    calls = []

    def recorded(h, _factorize=optimize._factorize):
        calls.append(h)
        return _factorize(h)

    monkeypatch.setattr(optimize, "_factorize", recorded)
    return calls


def _spd(n, rng):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def _badly_scaled(spd):
    scale = np.logspace(0.0, 3.0, spd.shape[0])
    return scale[:, None] * spd * scale[None, :]


class TestNewtonSteps:
    @pytest.mark.parametrize("kind", ["indefinite", "infinite-diagonal"])
    def test_fallback_is_the_bb_step(self, setup_1d, kind):
        grid, _, prob = setup_1d
        n = grid.n_interior
        if kind == "indefinite":
            rng = np.random.default_rng(11)
            eigs = np.linspace(-1.0, 1.0, n)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            bad = (q * eigs) @ q.T
        else:
            # factors, to a finite direction whose entry 0 vanishes
            bad = np.eye(n)
            bad[0, 0] = np.inf
        args = (
            lambda u: frozen_energy(prob, u),
            lambda u: frozen_gradient(prob, u),
            prob.trunc.floor.copy(),
        )
        plain = minimize_energy(*args, OPTIONS_1D, no_newton, fresh_home())
        fallback = minimize_energy(*args, OPTIONS_1D, lambda u: bad, fresh_home())
        assert plain.converged and fallback.newton_steps == plain.newton_steps == 0
        assert np.array_equal(fallback.x, plain.x)
        assert fallback.iterations == plain.iterations
        # the energies after each accepted step, traced to one step past the
        # plain run's end
        traced = replace(OPTIONS_1D, max_iter=plain.iterations + 1)
        plain_trace, fallback_trace = (
            accepted_energies(*args, traced, hess_fn) for hess_fn in (no_newton, lambda u: bad)
        )
        assert len(plain_trace) == plain.iterations
        assert fallback_trace == plain_trace

    @pytest.mark.parametrize(
        "hess",
        [
            pytest.param(hess, id=name)
            for name, hess in (*_nonfinite_hessians(), *_hessians_at_flat_states())
        ],
    )
    def test_nonfinite_hessian_gives_no_direction(self, hess):
        n = hess.shape[0]
        assert not np.all(np.isfinite(hess))
        g = np.linspace(1.0, 2.0, n)
        d, factored, cg = _newton_direction(lambda x: hess, np.zeros(n), g, fresh_home())
        # diagonal CG runs where the diagonal is positive and finite, and
        # meets the non-finite entry off it at its first product
        diag = np.diagonal(hess)
        jacobi = bool(np.all((diag > 0.0) & (diag < np.inf)))
        assert d is None and (factored, cg) == (1, int(jacobi))

    def test_kept_factor_preconditions_later_hessians(self):
        n = 300
        rng = np.random.default_rng(3)
        spd = _spd(n, rng)
        g = rng.standard_normal(n)
        home = fresh_home()
        # diagonal CG gives up on the badly scaled Hessian: it is factored
        # and its factor kept
        scaled = _badly_scaled(spd)
        d, factored, cg = _newton_direction(lambda x: scaled, np.zeros(n), g, home)
        assert (factored, cg) == (1, 8) and home.factor is not None
        np.testing.assert_allclose(scaled @ d, -g, rtol=0.0, atol=1e-8 * np.max(np.abs(g)))
        kept = home.factor
        # a nearby Hessian takes CG from the kept factor, to a relative
        # residual of 1e-2, and no new factor
        near = _badly_scaled(spd + np.diag(rng.uniform(0.0, 0.1 * n, n)))
        d, factored, cg = _newton_direction(lambda x: near, np.zeros(n), g, home)
        assert factored == 0 and 1 <= cg <= 8 and home.factor is kept
        assert np.linalg.norm(near @ d + g) <= 1e-2 * np.linalg.norm(g)
        assert float(g @ d) < 0.0
        # one far from it makes CG from the kept factor give up, though
        # diagonal CG would solve it: the Hessian is factored afresh and its
        # factor kept in place of the old one
        d, factored, cg = _newton_direction(lambda x: spd, np.zeros(n), g, home)
        assert factored == 1 and cg == 8
        assert home.factor is not kept
        np.testing.assert_allclose(home.factor[0], np.linalg.cholesky(spd))
        np.testing.assert_allclose(spd @ d, -g, rtol=0.0, atol=1e-10 * np.max(np.abs(g)))

    @pytest.mark.parametrize("n", [1, 127, 437])
    def test_diagonal_hessian_takes_one_cg_iteration(self, n):
        hess = np.diag(np.linspace(0.5, 4.0, n))
        g = np.linspace(1.0, 2.0, n)
        home = fresh_home()
        d, factored, cg = _newton_direction(lambda x: hess, np.zeros(n), g, home)
        assert (factored, cg) == (0, 1) and home.factor is None
        np.testing.assert_allclose(hess @ d, -g, rtol=1e-14, atol=0.0)

    def test_failed_diagonal_cg_keeps_the_factor(self, factored_hessians):
        n = 200
        rng = np.random.default_rng(5)
        hess = _badly_scaled(_spd(n, rng))
        g = rng.standard_normal(n)
        home = fresh_home()
        d, factored, cg = _newton_direction(lambda x: hess, np.zeros(n), g, home)
        assert (factored, cg) == (1, 8) and len(factored_hessians) == 1
        assert factored_hessians[0] is hess
        np.testing.assert_allclose(home.factor[0], np.linalg.cholesky(hess))
        np.testing.assert_allclose(hess @ d, -g, rtol=0.0, atol=1e-8 * np.max(np.abs(g)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_unusable_diagonal_goes_straight_to_the_factor(self, bad, factored_hessians):
        n = 50
        hess = np.diag(np.linspace(1.0, 2.0, n)) + 0.01
        g = np.ones(n)
        # the positive finite diagonal takes CG and no factor
        d, factored, cg = _newton_direction(lambda x: hess, np.zeros(n), g, fresh_home())
        assert factored == 0 and 1 <= cg <= 8 and not factored_hessians
        hess[7, 7] = bad
        d, factored, cg = _newton_direction(lambda x: hess, np.zeros(n), g, fresh_home())
        assert d is None and (factored, cg) == (1, 0)
        assert len(factored_hessians) == 1 and factored_hessians[0] is hess

    def test_nonfinite_hessian_drops_the_kept_factor(self):
        n = 256
        home = fresh_home()
        home.factor = _factorize(np.eye(n))
        hess = 2.0 * np.eye(n)
        hess[3, 3] = np.nan
        d, factored, cg = _newton_direction(lambda x: hess, np.zeros(n), np.ones(n), home)
        assert d is None and (factored, cg) == (1, 1)
        assert home.factor is None

    @pytest.mark.parametrize("n", [1, 127])
    def test_small_systems_keep_their_factor(self, n, monkeypatch):
        home = fresh_home()
        d, factored, cg = _newton_direction(lambda x: np.eye(n), np.zeros(n), np.ones(n), home)
        assert np.array_equal(d, -np.ones(n)) and (factored, cg) == (0, 1)
        assert home.factor is None
        # CG that may take no iteration gives up at once, so the Hessian is
        # factored, and its factor kept
        monkeypatch.setattr(optimize, "_CG_MAX_ITER", 0)
        d, factored, cg = _newton_direction(lambda x: np.eye(n), np.zeros(n), np.ones(n), home)
        assert np.array_equal(d, -np.ones(n)) and (factored, cg) == (1, 0)
        chol, inverses = home.factor
        assert np.array_equal(chol, np.eye(n))
        # one inverse per diagonal block of _SOLVE_BLOCK rows, the last padded
        block = optimize._SOLVE_BLOCK
        assert inverses.shape == (-(-n // block), block, block)
        monkeypatch.undo()
        d, factored, cg = _newton_direction(lambda x: np.eye(n), np.zeros(n), np.ones(n), home)
        assert np.array_equal(d, -np.ones(n)) and (factored, cg) == (0, 1)
        assert home.factor[0] is chol

    def test_counts_energies_and_backtracks(self):
        calls = []

        def energy_fn(x):
            calls.append(None)
            return 50.0 * float(x @ x)

        # the first trial step 1 overshoots the minimum of a stiff quadratic
        result = minimize_energy(
            energy_fn,
            lambda x: 100.0 * x,
            np.ones(3),
            MinimizerOptions(tol=1e-10),
            no_newton,
            fresh_home(),
        )
        assert result.converged and result.backtracks > 0
        assert result.energy_evals == len(calls) == 1 + result.iterations + result.backtracks

    @pytest.mark.parametrize(
        "n, scaled",
        [pytest.param(n, False, id=str(n)) for n in (1, 31, 32, 33, 63, 64, 65, 100, 300)]
        + [pytest.param(300, True, id="far")],
    )
    def test_cholesky_solve_matches_a_dense_solve(self, n, scaled):
        # sizes on both sides of the substitution's block of 64 rows, and
        # the badly scaled Hessian of test_kept_factor_preconditions_later_hessians
        rng = np.random.default_rng(3 if scaled else n)
        spd = _spd(n, rng)
        hess = _badly_scaled(spd) if scaled else spd
        b = rng.standard_normal(n)
        x = _cholesky_solve(_factorize(hess), b)
        np.testing.assert_allclose(x, np.linalg.solve(hess, b), rtol=1e-12, atol=1e-14)

    def test_cholesky_solve_makes_no_lapack_call(self, monkeypatch):
        n = 100
        rng = np.random.default_rng(n)
        spd = _spd(n, rng)
        b = rng.standard_normal(n)
        factor, expected = _factorize(spd), np.linalg.solve(spd, b)

        def refuse(*args, **kwargs):
            raise AssertionError("a triangular solve called LAPACK")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        x = _cholesky_solve(factor, b)
        np.testing.assert_allclose(x, expected, rtol=1e-12, atol=1e-14)

    def test_frozen_solve_takes_newton_steps(self, setup_1d):
        grid, _, prob = setup_1d
        result = solve_frozen(prob, OPTIONS_1D)
        plain = minimize_energy(
            lambda u: frozen_energy(prob, u),
            lambda u: frozen_gradient(prob, u),
            prob.trunc.floor.copy(),
            OPTIONS_1D,
            no_newton,
            fresh_home(),
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

    def test_torsion_start_walks_no_pairs(self, hessian_setup, monkeypatch):
        _, torsion, _, _ = hessian_setup
        passes = count_form_passes(monkeypatch)
        start = _constant_start(torsion)
        assert passes == []
        assert start[0] > 0.0
        # every pair difference of 1 vanishes: a pass gives the tail term
        ones = np.ones(start.size)
        for table in torsion.operator.tables:
            tail_term = 2.0 * float(table.tail @ ones) / table.params.p
            assert forms(Operator(table), ones).energies == (tail_term,)
