"""Tests for the constant-forcing (torsion) solves, the floor-building
sigma selection, and the boundary-distance lower-bound certificate.

Oracles: dense linear algebra for the quadratic (p=q=2) case, a
closed-form quadratic for the line-search minimizer, and monotone
structural properties for everything nonlinear.
"""

import logging
import re
import zlib

import numpy as np
import pytest

from fracsolve import frozen, torsion
from fracsolve.frozen import FrozenProblem, solve_frozen
from fracsolve.gagliardo import (
    Operator,
    OperatorParams,
    assemble_weights,
    operator_gradient,
    workspace_hessian,
)
from fracsolve.grids import Grid, disk, interval
from fracsolve.optimize import MinimizerOptions, minimize_energy
from fracsolve.reaction import ProblemExponents, SingularReaction, f_eval
from fracsolve.torsion import (
    SubsolutionCertificate,
    _constant_start,
    hopf_ratio,
    select_sigma,
    solve_torsion,
    torsion_objective,
)
from support.minimizer import accepted_energies, fresh_home, no_newton
from support.oracles import apply_form
from support.window import window_draw


def _operator(grid, exps):
    return Operator(
        assemble_weights(grid, OperatorParams(exps.s1, exps.p)),
        assemble_weights(grid, OperatorParams(exps.s2, exps.q)),
    )


@pytest.fixture(scope="module")
def quad_setup():
    exps = ProblemExponents(s=0.5, s1=0.5, s2=0.5, p=2.0, q=2.0, dim=1)
    grid = Grid(interval(0.0, 1.0), 17)
    return exps, grid, _operator(grid, exps)


@pytest.fixture(scope="module")
def tables_129():
    # the interval_1d configs' exponents at resolution 129, where one Newton
    # step from the constant start leaves the nodal inequality failing
    exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
    return _operator(Grid(interval(0.0, 1.0), 129), exps).tables


SINGULAR = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)


def _oracle_gaps(reaction, op, floor):
    """f(u_i) vol - <A u, e_i> at every node, with the pairing taken
    against the dense weights row by row, apart from the pair pass."""
    grid = op.grid
    basis = np.eye(grid.n_interior)
    pairing = np.array([sum(apply_form(t, floor, e) for t in op.tables) for e in basis])
    return f_eval(reaction, floor) * grid.cell_volume - pairing


@pytest.fixture(scope="module")
def nl_setup():
    exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
    grid = Grid(interval(0.0, 1.0), 17)
    return exps, grid, _operator(grid, exps)


@pytest.fixture(scope="module")
def op_33():
    # the interval_1d configs' exponents at resolution 33
    exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
    return _operator(Grid(interval(0.0, 1.0), 33), exps)


def _linear_matrix(table):
    n = table.grid.n_interior
    W = table.pair
    return 2.0 * (np.diag(W.sum(axis=1) + table.tail) - W)


class TestMinimizer:
    """Barzilai-Borwein steps alone: each run's Hessian never factors."""

    def test_quadratic_closed_form(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(6, 6))
        A = M @ M.T + 6 * np.eye(6)
        b = rng.normal(size=6)

        def fun(x):
            return 0.5 * x @ A @ x - b @ x

        def grad(x):
            return A @ x - b

        res = minimize_energy(
            fun, grad, np.zeros(6), MinimizerOptions(tol=1e-12), no_newton, fresh_home()
        )
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), rtol=1e-9)

    def test_energy_monotone_along_trace(self):
        A = np.diag([1.0, 50.0, 300.0])
        b = np.array([1.0, -2.0, 0.5])

        def fun(x):
            val = 0.5 * x @ A @ x - b @ x
            return val

        def grad(x):
            return A @ x - b

        opts = MinimizerOptions(tol=1e-10)
        res = minimize_energy(fun, grad, np.zeros(3), opts, no_newton, fresh_home())
        assert res.converged
        energies = accepted_energies(fun, grad, np.zeros(3), opts, no_newton)
        assert len(energies) == res.iterations
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12 * (1.0 + np.abs(energies[:-1])))

    def test_nonconvergence_flagged(self):
        # anisotropic quadratic: two iterations cannot reach 1e-14 stationarity
        lam = np.array([1.0, 30.0])

        def fun(x):
            return float(lam @ (x * x))

        def grad(x):
            return 2.0 * lam * x

        res = minimize_energy(
            fun,
            grad,
            np.ones(2),
            MinimizerOptions(tol=1e-14, max_iter=2),
            no_newton,
            fresh_home(),
        )
        assert not res.converged
        assert res.message

    def test_nonfinite_energy_raises(self):
        def fun(x):
            return float("nan")

        def grad(x):
            return np.zeros_like(x)

        with pytest.raises(RuntimeError):
            minimize_energy(fun, grad, np.zeros(2), MinimizerOptions(), no_newton, fresh_home())

    def test_converges_through_rounding_noise(self):
        # a quadratic whose energy carries deterministic noise of 1e-12
        # relative, a hash of the iterate's bits as a stand-in for the
        # reordering error of a long float64 sum; near the minimizer the true
        # decrease per step is far below it, so only the slope test resolves it
        rng = np.random.default_rng(3)
        M = rng.normal(size=(8, 8))
        A = M @ M.T + 8 * np.eye(8)
        b = rng.normal(size=8)

        def fun(x):
            noise = zlib.crc32(x.tobytes()) / 2.0**32
            return 1.0 + 0.5 * x @ A @ x - b @ x + 1e-12 * noise

        def grad(x):
            return A @ x - b

        res = minimize_energy(
            fun, grad, np.zeros(8), MinimizerOptions(tol=1e-10), no_newton, fresh_home()
        )
        assert res.converged, res.message
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), rtol=0.0, atol=1e-10)

    def test_null_step_ends_line_search(self):
        # noise of 1e-8 relative, above EPS, makes each new iterate a record
        # low of the noise, so backtracking shrinks until x - step * g == x;
        # accepting that null step would repeat it until max_iter
        rng = np.random.default_rng(3)
        M = rng.normal(size=(8, 8))
        A = M @ M.T + 8 * np.eye(8)
        b = rng.normal(size=8)
        calls = []

        def fun(x):
            calls.append(1)
            noise = zlib.crc32(x.tobytes()) / 2.0**32
            return (1.0 + 0.5 * x @ A @ x - b @ x) * (1.0 + 1e-8 * noise)

        def grad(x):
            return A @ x - b

        res = minimize_energy(
            fun, grad, np.zeros(8), MinimizerOptions(tol=1e-12), no_newton, fresh_home()
        )
        assert not res.converged
        assert res.message == "line search could not decrease the energy"
        assert len(calls) <= 1000

    def test_noise_level_overshoot_rejected(self):
        # from x = 1 the first trial step of 1.0 lands on the mirror point
        # x = -1 of f = 1 + x^2: the energy is unchanged, but the slope there
        # points back, so the step halves to the exact minimizer instead
        def fun(x):
            return 1.0 + float(x @ x)

        def grad(x):
            return 2.0 * x

        opts = MinimizerOptions(tol=1e-12)
        res = minimize_energy(fun, grad, np.ones(1), opts, no_newton, fresh_home())
        energies = accepted_energies(fun, grad, np.ones(1), opts, no_newton)
        assert res.converged
        assert res.iterations == 1
        assert energies == [1.0]
        assert res.x[0] == 0.0


class TestTorsionQuadraticOracle:
    def test_matches_dense_linear_solve(self, quad_setup):
        _, grid, op = quad_setup
        sigma = 0.7
        u = solve_torsion(sigma, op, 1e-8)
        A = _linear_matrix(op.tables[0]) + _linear_matrix(op.tables[1])
        rhs = sigma * grid.cell_volume * np.ones(grid.n_interior)
        want = np.linalg.solve(A, rhs)
        got = u
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8

    @pytest.mark.parametrize(
        "domain, resolution", [(interval(-1.0, 1.0), 65), (disk(0.0, 0.0, 1.0), 17)]
    )
    def test_one_table_operator(self, domain, resolution):
        # the constant start and the floor read every table of the
        # operator, however many it holds
        grid = Grid(domain, resolution)
        table = assemble_weights(grid, OperatorParams(s=0.6, p=2.0))
        u = solve_torsion(1.0, Operator(table), 1e-10)
        hess = workspace_hessian(Operator(table), u)
        want = np.linalg.solve(hess, grid.cell_volume * np.ones(grid.n_interior))
        assert np.max(np.abs(u - want)) <= 1e-10 * np.max(want)
        assert select_sigma(SINGULAR, Operator(table)).slack >= 0.0

    def test_gradient_identity_at_solution(self, quad_setup):
        _, grid, op = quad_setup
        sigma = 0.3
        u = solve_torsion(sigma, op, 1e-8)
        resid = (
            operator_gradient(Operator(op.tables[0]), u)
            + operator_gradient(Operator(op.tables[1]), u)
            - sigma * grid.cell_volume
        )
        assert np.linalg.norm(resid) / np.sqrt(grid.n_interior) < 1e-8 * sigma


class TestTorsionNonlinear:
    def test_positive_and_symmetric(self, nl_setup):
        _, _, op = nl_setup
        vals = solve_torsion(1.0, op, 1e-8)
        assert np.all(vals > 0.0)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-8)

    def test_sup_norm_monotone_in_sigma(self, nl_setup):
        _, _, op = nl_setup
        sups = []
        for sigma in np.logspace(-6, -1, 6):
            u = solve_torsion(sigma, op, 1e-8)
            sups.append(np.max(np.abs(u)))
        assert np.all(np.diff(sups) > 0.0)
        assert sups[0] < 1e-3  # vanishing limit

    def test_2d_disk_positive_symmetric(self):
        exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=3.0, q=2.5, dim=2)
        grid = Grid(disk(0.0, 0.0, 1.0), 11)
        op = _operator(grid, exps)
        vals = solve_torsion(1.0, op, 1e-8)
        assert np.all(vals > 0.0)
        full = grid.zero_extend(vals)
        np.testing.assert_allclose(full, full[::-1, :], atol=1e-7)
        np.testing.assert_allclose(full, full[:, ::-1], atol=1e-7)

    def test_nonconvergence_raises(self, nl_setup, monkeypatch):
        _, _, op = nl_setup
        # a stand-in minimizer that runs one iteration towards 1e-14, at
        # the one call site, in frozen.solve_frozen
        minimize = frozen.minimize_energy

        def one_step(energy_fn, grad_fn, x0, options, hess_fn, home):
            return minimize(
                energy_fn, grad_fn, x0, MinimizerOptions(max_iter=1, tol=1e-14), hess_fn, home
            )

        monkeypatch.setattr(frozen, "minimize_energy", one_step)
        with pytest.raises(RuntimeError, match="torsion solve stalled"):
            solve_torsion(1.0, op, 1e-8)


class TestOneSolvePath:
    """The torsion problem is a frozen problem with the constant forcing,
    whose floor is -inf, and solve_torsion solves it through solve_frozen."""

    @pytest.mark.parametrize("sigma, rtol", [(1.0, 1e-8), (0.125, 1e-2)])
    def test_solve_torsion_is_solve_frozen(self, tables_129, sigma, rtol):
        got = solve_torsion(sigma, Operator(*tables_129), rtol)
        prob = torsion_objective(sigma, Operator(*tables_129))
        options = MinimizerOptions(tol=rtol * sigma * prob.grid.cell_volume)
        want = solve_frozen(prob, options, _constant_start(prob))
        assert want.converged
        assert got.tobytes() == want.x.tobytes()

    def test_floor_of_minus_inf_clips_nothing_and_reports_no_dip(self, nl_setup, monkeypatch):
        # negative forcing: the minimizer is negative at every node
        _, grid, op = nl_setup
        prob = FrozenProblem(op, torsion.ConstantForcing(-1.0), np.zeros(grid.n_interior))
        assert prob.trunc.floor == -np.inf
        starts = []
        minimize = frozen.minimize_energy

        def recorded(energy_fn, grad_fn, x0, *rest):
            starts.append(x0)
            return minimize(energy_fn, grad_fn, x0, *rest)

        monkeypatch.setattr(frozen, "minimize_energy", recorded)
        start = -0.5 * _constant_start(torsion_objective(1.0, op))
        result = solve_frozen(prob, MinimizerOptions(tol=1e-10), start)
        np.testing.assert_array_equal(starts[0], start)
        assert result.converged and result.message == ""
        assert np.all(result.x < 0.0)


class TestHopf:
    def test_exact_power_of_distance(self):
        grid = Grid(interval(0.0, 1.0), 33)
        d = grid.interior_distance
        s1 = 0.6
        assert hopf_ratio(d**s1, d, s1) == pytest.approx(1.0, rel=1e-12)
        assert hopf_ratio(2.0 * d**s1, d, s1) == pytest.approx(2.0, rel=1e-12)

    def test_nonpositive_field_rejected(self):
        grid = Grid(interval(0.0, 1.0), 9)
        d = grid.interior_distance
        with pytest.raises(ValueError):
            hopf_ratio(np.zeros(grid.n_interior), d, 0.5)


class TestSelectSigma:
    def test_singular_family_certificate(self, nl_setup):
        exps, _, op = nl_setup
        fam = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
        cert = select_sigma(fam, op)
        assert isinstance(cert, SubsolutionCertificate)
        assert cert.sigma <= 0.5 + 1e-15
        floor = cert.lower
        assert np.all(floor > 0.0)
        assert cert.eta > 0.0
        assert cert.exponent == exps.s1
        # defining inequality: sigma strictly below the forcing at the floor
        fvals = f_eval(fam, floor)
        assert np.all(cert.sigma < fvals)

    def test_subsolution_inequality_nodal(self, nl_setup):
        _, grid, op = nl_setup
        fam = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
        cert = select_sigma(fam, op)
        floor = cert.lower
        resid = (
            operator_gradient(Operator(op.tables[0]), floor)
            + operator_gradient(Operator(op.tables[1]), floor)
            - f_eval(fam, floor) * grid.cell_volume
        )
        assert np.all(resid <= 1e-8)

    def test_bounded_family_epsilon_gate(self, nl_setup):
        _, _, op = nl_setup
        fam = SingularReaction(gamma=0.5, c1=0.8, c2=0.5, r=1.1, family="bounded")
        cert = select_sigma(fam, op)
        # epsilon is c1 / 2 = 0.4, so sigma starts at 0.2
        assert cert.sigma == 0.2 / 2.0**cert.halvings
        assert np.all(cert.lower > 0.0) and cert.slack >= 0.0

    def test_eta_stable_under_refinement(self):
        exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
        fam = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
        etas = []
        for res in (17, 33):
            grid = Grid(interval(0.0, 1.0), res)
            op = _operator(grid, exps)
            cert = select_sigma(fam, op)
            etas.append(cert.eta)
        ratio = etas[1] / etas[0]
        assert 0.5 <= ratio <= 2.0

    def test_logs_one_line_per_sigma(self, nl_setup, caplog):
        _, _, op = nl_setup
        # a small c1 puts the forcing below the first sigma at its floor
        fam = SingularReaction(gamma=0.5, c1=0.05, c2=0.5, r=1.1)
        with caplog.at_level(logging.INFO, logger="fracsolve.torsion"):
            cert = select_sigma(fam, op)
        lines = [r.getMessage() for r in caplog.records if r.name == "fracsolve.torsion"]
        assert cert.halvings > 0
        assert len(lines) == cert.halvings + 1
        for k, line in enumerate(lines):
            assert line.startswith(f"floor halving {k}: sigma ")
            assert line.endswith("rejected" if k < cert.halvings else "certified")
        assert f"sigma {cert.sigma:.6e}, sup norm {cert.sup_norm:.3e}" in lines[-1]

    def test_logs_the_counts_of_each_solve(self, nl_setup, caplog):
        _, _, op = nl_setup
        fam = SingularReaction(gamma=0.5, c1=0.05, c2=0.5, r=1.1)
        with caplog.at_level(logging.INFO, logger="fracsolve.torsion"):
            cert = select_sigma(fam, op)
        lines = [r.getMessage() for r in caplog.records if r.name == "fracsolve.torsion.solve"]
        assert len(lines) == cert.halvings + 1
        pattern = re.compile(
            r"torsion solve: sigma \S+, (\d+) Newton steps, (\d+) energy evaluations, "
            r"(\d+) backtracks, (\d+) inner iterations, (\d+) factorizations, "
            r"(\d+) CG iterations"
        )
        for line in lines:
            newton, evals, backtracks, iterations, factorizations, cg = map(
                int, pattern.fullmatch(line).groups()
            )
            assert newton <= iterations
            assert evals == 1 + iterations + backtracks
            assert factorizations <= iterations

    def test_certificate_dict_fields(self, nl_setup):
        _, _, op = nl_setup
        fam = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
        cert = select_sigma(fam, op)
        d = cert.as_dict()
        for key in (
            "sigma",
            "eta",
            "exponent",
            "sup_norm",
            "halvings",
            "slack",
        ):
            assert key in d


class TestNodalCheck:
    """The floor is certified by the nodal subsolution inequality itself,
    checked at the loose solve of each sigma."""

    def test_slack_matches_the_dense_pairing(self, nl_setup):
        _, grid, op = nl_setup
        cert = select_sigma(SINGULAR, op)
        gaps = _oracle_gaps(SINGULAR, op, cert.lower)
        want = float(np.min(gaps)) / (cert.sigma * grid.cell_volume)
        assert cert.slack >= 0.0
        assert cert.slack == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_loose_floor_certifies_with_one_solve(self, tables_129, caplog):
        op = Operator(*tables_129)
        with caplog.at_level(logging.INFO, logger="fracsolve.torsion"):
            cert = select_sigma(SINGULAR, op)
        solves = [r for r in caplog.records if r.name == "fracsolve.torsion.solve"]
        assert len(solves) == 1
        assert cert.halvings == 0
        # above 1 - sqrt(n) rtol, the least slack that a forcing of at least
        # 2 sigma leaves the loose solve, and the value measured
        assert cert.slack > 1.0 - np.sqrt(op.grid.n_interior) * torsion._FLOOR_RTOL
        assert cert.slack == pytest.approx(3.489, abs=1e-3)
        assert np.all(_oracle_gaps(SINGULAR, op, cert.lower) >= 0.0)

    def test_failing_nodal_check_halves_sigma(self, tables_129, monkeypatch, caplog):
        # the first sigma solved to rtol 3 stops after one Newton step, whose
        # floor is positive, so that it reaches the nodal inequality, and
        # fails it
        op = Operator(*tables_129)
        loose = solve_torsion(0.5, Operator(*tables_129), 3.0)
        assert np.all(loose > 0.0)
        assert np.all(0.5 < f_eval(SINGULAR, loose))
        assert np.min(_oracle_gaps(SINGULAR, op, loose)) < 0.0

        solve = torsion.solve_torsion

        def loose_first_sigma(sigma, operator, rtol):
            return solve(sigma, operator, 3.0 if sigma == 0.5 else rtol)

        monkeypatch.setattr(torsion, "solve_torsion", loose_first_sigma)
        with caplog.at_level(logging.INFO, logger="fracsolve.torsion"):
            cert = select_sigma(SINGULAR, op)
        solves = [r.args[0] for r in caplog.records if r.name == "fracsolve.torsion.solve"]
        floors = [r.getMessage() for r in caplog.records if r.name == "fracsolve.torsion"]
        assert solves == [0.5, 0.25]
        assert [f.rsplit(", ", 1)[1] for f in floors] == ["rejected", "certified"]
        assert cert.halvings == 1 and cert.sigma == 0.25
        assert cert.slack >= 0.0
        assert np.all(_oracle_gaps(SINGULAR, op, cert.lower) >= 0.0)

    def test_exhausted_halvings_name_the_last_candidate(self, tables_129, monkeypatch):
        # every sigma solved to rtol 3 and no halving allowed: the one
        # candidate is the loose floor that fails the nodal inequality
        op = Operator(*tables_129)
        loose = solve_torsion(0.5, Operator(*tables_129), 3.0)
        slack = np.min(_oracle_gaps(SINGULAR, op, loose)) / (0.5 * op.grid.cell_volume)
        assert slack < 0.0

        solve = torsion.solve_torsion

        def loose_every_sigma(sigma, operator, rtol):
            return solve(sigma, operator, 3.0)

        monkeypatch.setattr(torsion, "solve_torsion", loose_every_sigma)
        monkeypatch.setattr(torsion, "_MAX_HALVINGS", 0)
        with pytest.raises(RuntimeError) as info:
            select_sigma(SINGULAR, op)
        pattern = (
            r"no certified floor after 0 halvings: last candidate sigma 5\.000000e-01, "
            r"sup norm (\S+), slack (\S+)"
        )
        sup, got = map(float, re.fullmatch(pattern, str(info.value)).groups())
        assert sup == pytest.approx(np.max(loose), rel=1e-3)
        assert got == pytest.approx(slack, rel=1e-3)


class TestWindowFloors:
    """Every config that check_hypotheses admits has a certified floor."""

    def test_tiny_gamma_bounded_family(self, op_33):
        # c1 / epsilon = 2, and 2^(1 / gamma) = 2^2000 overflows a float: the
        # floor's search must form no such power
        fam = SingularReaction(gamma=5e-4, c1=0.5, c2=0.5, r=1.1, family="bounded")
        cert = select_sigma(fam, op_33)
        assert cert.halvings == 0 and cert.sigma == 0.125
        assert np.all(cert.lower > 0.0)
        assert cert.slack == pytest.approx(3.011, abs=1e-3)

    def test_small_c1_singular_family(self, op_33):
        # the forcing exceeds 1 only below c1^(1 / gamma) = 1e-20, which no
        # floor within sixty halvings reaches; the nodal inequality holds
        # well above it
        fam = SingularReaction(gamma=0.1, c1=0.01, c2=0.5, r=1.1)
        cert = select_sigma(fam, op_33)
        assert cert.halvings == 5 and cert.sigma == 1.0 / 64.0
        assert np.all(cert.lower > 0.0) and cert.slack >= 0.0

    @pytest.mark.parametrize(
        "domain, resolution, dim",
        [(interval(0.0, 1.0), 17, 1), (disk(0.0, 0.0, 1.0), 11, 2)],
        ids=["interval", "disk"],
    )
    def test_seeded_window_sweep(self, domain, resolution, dim):
        grid = Grid(domain, resolution)
        rng = np.random.default_rng(3)
        failures = []
        for k in range(40):
            exps, reaction, _ = window_draw(rng, dim)
            try:
                cert = select_sigma(reaction, _operator(grid, exps))
            except (RuntimeError, OverflowError) as exc:
                failures.append((k, exps, reaction, repr(exc)))
                continue
            if not (np.all(cert.lower > 0.0) and cert.slack >= 0.0):
                failures.append((k, exps, reaction, cert.slack))
        assert not failures, failures
