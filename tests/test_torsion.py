"""Tests for the constant-forcing (torsion) solves, the floor-building
sigma selection, and the boundary-distance lower-bound certificate.

Oracles: dense linear algebra for the quadratic (p=q=2) case, a
closed-form quadratic for the line-search minimizer, and monotone
structural properties for everything nonlinear.
"""

import logging
import zlib

import numpy as np
import pytest

from fracsolve.gagliardo import OperatorParams, assemble_weights, operator_gradient
from fracsolve.grids import build_grid, disk, interval
from fracsolve.optimize import MinimizerOptions, minimize_energy
from fracsolve.reaction import ProblemExponents, SingularReaction, f_eval
from fracsolve.torsion import (
    SubsolutionCertificate,
    _admissible_delta,
    hopf_exponent,
    hopf_ratio,
    select_sigma,
    solve_torsion,
)


def _tables(grid, exps):
    tp = assemble_weights(grid, OperatorParams(exps.s1, exps.p))
    tq = assemble_weights(grid, OperatorParams(exps.s2, exps.q))
    return tp, tq


@pytest.fixture(scope="module")
def quad_setup():
    exps = ProblemExponents(s=0.5, s1=0.5, s2=0.5, p=2.0, q=2.0, dim=1)
    grid = build_grid(interval(0.0, 1.0), 17)
    return exps, grid, _tables(grid, exps)


@pytest.fixture(scope="module")
def nl_setup():
    exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
    grid = build_grid(interval(0.0, 1.0), 17)
    return exps, grid, _tables(grid, exps)


def _linear_matrix(table):
    n = table.grid.n_interior
    W = table.pair
    return 2.0 * (np.diag(W.sum(axis=1) + table.tail) - W)


class TestMinimizer:
    def test_quadratic_closed_form(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(6, 6))
        A = M @ M.T + 6 * np.eye(6)
        b = rng.normal(size=6)

        def fun(x):
            return 0.5 * x @ A @ x - b @ x

        def grad(x):
            return A @ x - b

        res = minimize_energy(fun, grad, np.zeros(6), MinimizerOptions(tol=1e-12))
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), rtol=1e-9)

    def test_energy_monotone_along_trace(self):
        A = np.diag([1.0, 50.0, 300.0])
        b = np.array([1.0, -2.0, 0.5])
        energies = []

        def fun(x):
            val = 0.5 * x @ A @ x - b @ x
            return val

        def grad(x):
            return A @ x - b

        res = minimize_energy(
            fun, grad, np.zeros(3), MinimizerOptions(tol=1e-10), on_accept=lambda e: energies.append(e)
        )
        assert res.converged
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
            fun, grad, np.ones(2), MinimizerOptions(tol=1e-14, max_iter=2)
        )
        assert not res.converged
        assert res.message

    def test_nonfinite_energy_raises(self):
        def fun(x):
            return float("nan")

        def grad(x):
            return np.zeros_like(x)

        with pytest.raises(RuntimeError):
            minimize_energy(fun, grad, np.zeros(2), MinimizerOptions())

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

        res = minimize_energy(fun, grad, np.zeros(8), MinimizerOptions(tol=1e-10))
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

        res = minimize_energy(fun, grad, np.zeros(8), MinimizerOptions(tol=1e-12))
        assert not res.converged
        assert res.message == "line search could not decrease the energy"
        assert len(calls) <= 1000

    def test_noise_level_overshoot_rejected(self):
        # from x = 1 the first trial step of 1.0 lands on the mirror point
        # x = -1 of f = 1 + x^2: the energy is unchanged, but the slope there
        # points back, so the step halves to the exact minimizer instead
        energies = []

        def fun(x):
            return 1.0 + float(x @ x)

        def grad(x):
            return 2.0 * x

        res = minimize_energy(
            fun, grad, np.ones(1), MinimizerOptions(tol=1e-12), on_accept=energies.append
        )
        assert res.converged
        assert res.iterations == 1
        assert energies == [1.0]
        assert res.x[0] == 0.0


class TestTorsionQuadraticOracle:
    def test_matches_dense_linear_solve(self, quad_setup):
        exps, grid, tables = quad_setup
        sigma = 0.7
        u = solve_torsion(sigma, exps, grid, tables)
        A = _linear_matrix(tables[0]) + _linear_matrix(tables[1])
        rhs = sigma * grid.cell_volume * np.ones(grid.n_interior)
        want = np.linalg.solve(A, rhs)
        got = u
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8

    def test_gradient_identity_at_solution(self, quad_setup):
        exps, grid, tables = quad_setup
        sigma = 0.3
        u = solve_torsion(sigma, exps, grid, tables)
        resid = (
            operator_gradient(tables[0], u)
            + operator_gradient(tables[1], u)
            - sigma * grid.cell_volume
        )
        assert np.linalg.norm(resid) / np.sqrt(grid.n_interior) < 1e-8 * sigma


class TestTorsionNonlinear:
    def test_positive_and_symmetric(self, nl_setup):
        exps, grid, tables = nl_setup
        vals = solve_torsion(1.0, exps, grid, tables)
        assert np.all(vals > 0.0)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-8)

    def test_sup_norm_monotone_in_sigma(self, nl_setup):
        exps, grid, tables = nl_setup
        sups = []
        for sigma in np.logspace(-6, -1, 6):
            u = solve_torsion(sigma, exps, grid, tables)
            sups.append(np.max(np.abs(u)))
        assert np.all(np.diff(sups) > 0.0)
        assert sups[0] < 1e-3  # vanishing limit

    def test_2d_disk_positive_symmetric(self):
        exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=3.0, q=2.5, dim=2)
        grid = build_grid(disk(0.0, 0.0, 1.0), 11)
        tables = _tables(grid, exps)
        vals = solve_torsion(1.0, exps, grid, tables)
        assert np.all(vals > 0.0)
        full = grid.unpack(vals).values.reshape(grid.shape)
        np.testing.assert_allclose(full, full[::-1, :], atol=1e-7)
        np.testing.assert_allclose(full, full[:, ::-1], atol=1e-7)

    def test_nonconvergence_raises(self, nl_setup):
        exps, grid, tables = nl_setup
        with pytest.raises(RuntimeError):
            solve_torsion(1.0, exps, grid, tables, MinimizerOptions(max_iter=1, tol=1e-14))


class TestHopf:
    def test_exact_power_of_distance(self):
        grid = build_grid(interval(0.0, 1.0), 33)
        d = grid.interior_distance
        s1 = 0.6
        assert hopf_ratio(d**s1, d, s1) == pytest.approx(1.0, rel=1e-12)
        assert hopf_ratio(2.0 * d**s1, d, s1) == pytest.approx(2.0, rel=1e-12)

    def test_nonpositive_field_rejected(self):
        grid = build_grid(interval(0.0, 1.0), 9)
        d = grid.interior_distance
        with pytest.raises(ValueError):
            hopf_ratio(np.zeros(grid.n_interior), d, 0.5)

    def test_exponent_plain_case(self):
        exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
        assert hopf_exponent(exps) == 0.6

    def test_exponent_resonant_case(self):
        # q' s2 = s1: q=2.2 -> q'=11/6; s2=0.54 -> q's2=0.99... pick exact:
        # q=3 -> q'=1.5, s2=0.4, s1=0.6 -> q's2=0.6 = s1
        exps = ProblemExponents(s=0.5, s1=0.6, s2=0.4, p=4.0, q=3.0, dim=1)
        alpha = hopf_exponent(exps)
        assert alpha > exps.s1
        assert abs(alpha - exps.q_prime * exps.s2) > 1e-9
        assert abs(alpha - exps.p_prime * exps.s1) > 1e-9
        assert alpha == pytest.approx(0.65)

    def test_exponent_resonant_with_collision(self):
        # q's2 = s1 = 0.5 and p's1 = 0.55 collides with the first alpha try
        exps = ProblemExponents(s=0.45, s1=0.5, s2=1.0 / 3.0, p=11.0, q=3.0, dim=1)
        assert exps.q_prime * exps.s2 == pytest.approx(0.5, abs=1e-12)
        assert exps.p_prime * exps.s1 == pytest.approx(0.55, abs=1e-12)
        alpha = hopf_exponent(exps)
        assert alpha == pytest.approx(0.561)


class TestSelectSigma:
    def test_singular_family_certificate(self, nl_setup):
        exps, grid, tables = nl_setup
        fam = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
        cert = select_sigma(fam, exps, grid, tables)
        assert isinstance(cert, SubsolutionCertificate)
        assert cert.epsilon == 1.0
        assert cert.sigma <= 0.5 + 1e-15
        assert cert.delta == pytest.approx(min(1.0, (0.5 / 1.0) ** 2.0))
        assert cert.sup_norm < cert.delta
        floor = cert.lower
        assert np.all(floor > 0.0)
        assert cert.eta > 0.0
        assert cert.exponent == exps.s1
        # defining inequality: sigma strictly below the forcing at the floor
        fvals = f_eval(fam, floor)
        assert np.all(cert.sigma < fvals)

    def test_subsolution_inequality_nodal(self, nl_setup):
        exps, grid, tables = nl_setup
        fam = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
        cert = select_sigma(fam, exps, grid, tables)
        floor = cert.lower
        resid = (
            operator_gradient(tables[0], floor)
            + operator_gradient(tables[1], floor)
            - f_eval(fam, floor) * grid.cell_volume
        )
        assert np.all(resid <= 1e-8)

    @pytest.mark.parametrize(
        "family, c1, epsilon, want",
        [
            ("singular", 0.6, 1.0, 0.6**2),
            ("singular", 0.8, 0.4, 1.0),
            ("bounded", 0.6, 0.5, 1.2**2 - 1.0),
            ("bounded", 0.8, 0.4, 1.0),
        ],
    )
    def test_admissible_delta(self, family, c1, epsilon, want):
        # the largest state where the forcing head c1 (shift + t)^-gamma
        # still exceeds epsilon, capped at 1
        fam = SingularReaction(gamma=0.5, c1=c1, c2=0.5, r=1.1, family=family)
        assert _admissible_delta(fam, epsilon) == pytest.approx(want, rel=1e-14)

    def test_bounded_family_epsilon_gate(self, nl_setup):
        exps, grid, tables = nl_setup
        fam = SingularReaction(gamma=0.5, c1=0.8, c2=0.5, r=1.1, family="bounded")
        with pytest.raises(ValueError):
            select_sigma(fam, exps, grid, tables, epsilon=0.8)
        cert = select_sigma(fam, exps, grid, tables)
        assert cert.epsilon == pytest.approx(0.4)
        assert cert.delta == pytest.approx(min(1.0, 2.0**2.0 - 1.0))
        assert cert.sup_norm < cert.delta

    def test_eta_stable_under_refinement(self):
        exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
        fam = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
        etas = []
        for res in (17, 33):
            grid = build_grid(interval(0.0, 1.0), res)
            tables = _tables(grid, exps)
            cert = select_sigma(fam, exps, grid, tables)
            etas.append(cert.eta)
        ratio = etas[1] / etas[0]
        assert 0.5 <= ratio <= 2.0

    def test_logs_one_line_per_sigma(self, nl_setup, caplog):
        exps, grid, tables = nl_setup
        # a small c1 shrinks delta below the first torsion solutions
        fam = SingularReaction(gamma=0.5, c1=0.05, c2=0.5, r=1.1)
        with caplog.at_level(logging.INFO, logger="fracsolve.torsion"):
            cert = select_sigma(fam, exps, grid, tables)
        lines = [r.getMessage() for r in caplog.records if r.name == "fracsolve.torsion"]
        assert cert.halvings > 0
        assert len(lines) == cert.halvings + 1
        for k, line in enumerate(lines):
            assert line.startswith(f"floor halving {k}: sigma ")
            assert line.endswith("rejected" if k < cert.halvings else "certified")
        assert f"sigma {cert.sigma:.6e}, sup norm {cert.sup_norm:.3e}" in lines[-1]

    def test_certificate_dict_fields(self, nl_setup):
        exps, grid, tables = nl_setup
        fam = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
        cert = select_sigma(fam, exps, grid, tables)
        d = cert.as_dict()
        for key in ("sigma", "eta", "exponent", "sup_norm", "epsilon", "delta", "halvings"):
            assert key in d
