"""Acceptance criteria, one test per criterion, each at its stated
tolerance.  A passing criterion prints exactly one PASS line with its
runtime; a failing one is reported by the test runner.

Run with  pytest -s tests/test_acceptance.py  to see the lines live.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from fracsolve import cli
from fracsolve.config import load_config
from fracsolve.driver import (
    OuterOptions,
    apply_T,
    build_instance,
    frozen_at,
    solve_problem,
)
from fracsolve.frozen import (
    FrozenProblem,
    frozen_energy,
    frozen_gradient,
    scaled_norm,
    solve_frozen,
)
from fracsolve.gagliardo import (
    Operator,
    OperatorParams,
    assemble_weights,
    forms,
    operator_gradient,
    seminorm,
)
from fracsolve.grids import Grid, interval, rectangle
from fracsolve.optimize import MinimizerOptions
from fracsolve.reaction import (
    ConvectiveReaction,
    ProblemExponents,
    SingularReaction,
    TruncatedReaction,
    f_eval,
    g_eval,
)
from fracsolve.riesz import plan_riesz_convolution, riesz_gradient, riesz_normalization
from fracsolve.torsion import solve_torsion
from support.kernels import BesselParams, bessel_mass, semigroup_residual
from support.oracles import apply_form, uniqueness_probe

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ("interval_1d", "interval_1d_pure", "disk_2d")
_SUITE_T0 = time.perf_counter()


def _report(num, label, t0):
    print(f"\nPASS  criterion {num}: {label}  ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def shipped_instances():
    out = {}
    for name in SHIPPED:
        cfg = load_config(str(CONFIG_DIR / f"{name}.json"))
        grid = cfg.build_grid()
        inst = build_instance(
            grid, cfg.exponents, cfg.reaction, cfg.convective, frozen_options=cfg.minimizer
        )
        out[name] = (cfg, inst)
    return out


def test_criterion_1_kernel_identities():
    t0 = time.perf_counter()
    # closed-form values, cross-checked through the log-Gamma form
    for dim, alpha, want in ((1, 0.5, 1.0 / math.sqrt(2.0 * math.pi)),
                             (2, 1.0, 1.0 / (2.0 * math.pi))):
        got = riesz_normalization(dim, alpha)
        assert abs(got - want) <= 1e-12 * want
        oracle = math.exp(
            math.lgamma((dim - alpha) / 2.0)
            - math.lgamma(alpha / 2.0)
            - alpha * math.log(2.0)
            - (dim / 2.0) * math.log(math.pi)
        )
        assert abs(got - oracle) <= 1e-12 * oracle
    for alpha in (0.5, 1.0, 2.0, 3.5):
        mass = bessel_mass(BesselParams(dim=1, alpha=alpha))
        assert 0.99 <= mass <= 1.01
    mass = bessel_mass(BesselParams(dim=2, alpha=1.0), radius=10.0, nodes=201)
    assert 0.99 <= mass <= 1.01
    assert semigroup_residual(1, 1.0, 1.0, nodes=257) < 1e-3
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(1, "kernel identities, unit mass, semigroup", t0)


def test_criterion_2_gagliardo_operator():
    t0 = time.perf_counter()
    grid = Grid(interval(0.0, 1.0), 129)
    tables = {
        (s, p): assemble_weights(grid, OperatorParams(s=s, p=p))
        for s, p in ((0.5, 2.0), (0.7, 2.5), (0.9, 3.0))
    }
    rng = np.random.default_rng(11)
    for (s, p), table in tables.items():
        for _ in range(100):
            u = rng.standard_normal(grid.n_interior)
            w = rng.standard_normal(grid.n_interior)
            d = u - w
            gap = apply_form(table, u, d) - apply_form(table, w, d)
            assert gap >= -1e-10
        u = rng.standard_normal(grid.n_interior)
        lhs = apply_form(table, u, u)
        rhs = p * sum(forms(Operator(table), u).energies)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    combos = list(tables)
    eps = 1e-6
    for k in range(20):
        s, p = combos[k % 3]
        table = tables[(s, p)]
        u = rng.standard_normal(grid.n_interior)
        g = operator_gradient(Operator(table), u)
        fd = np.empty_like(g)
        for i in range(u.size):
            up, um = u.copy(), u.copy()
            up[i] += eps
            um[i] -= eps
            fd[i] = (
                sum(forms(Operator(table), up).energies) - sum(forms(Operator(table), um).energies)
            ) / (2.0 * eps)
        rel = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel < 1e-5
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(2, "operator monotonicity, gradient, duality at 129 nodes", t0)


def test_criterion_3_hidden_convexity():
    t0 = time.perf_counter()
    grid = Grid(interval(0.0, 1.0), 33)
    rng = np.random.default_rng(2024)
    tables = {p: assemble_weights(grid, OperatorParams(s=0.7, p=p)) for p in (3.0, 3.4)}
    for q in (2.5, 3.0):
        for p in (3.0, 3.4):
            table = tables[p]
            for _ in range(250):
                u1 = np.abs(rng.normal(size=grid.points.shape[0])) + 1e-3
                u2 = np.abs(rng.normal(size=grid.points.shape[0])) + 1e-3
                t = rng.uniform()
                v1, v2 = u1 ** (1 / q), u2 ** (1 / q)
                v3 = ((1 - t) * u1 + t * u2) ** (1 / q)
                d1 = np.abs(v1[:, None] - v1[None, :]) ** p
                d2 = np.abs(v2[:, None] - v2[None, :]) ** p
                d3 = np.abs(v3[:, None] - v3[None, :]) ** p
                violation = d3 - ((1 - t) * d1 + t * d2)
                assert violation.max() <= 1e-12
                # composed energy inherits convexity on the same triple
                phi = lambda w: seminorm(Operator(table), grid.pack(w ** (1 / q))) ** p
                lhs = phi((1 - t) * u1 + t * u2)
                rhs = (1 - t) * phi(u1) + t * phi(u2)
                assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))
    _report(3, "hidden convexity on 1000 random triples", t0)


def test_criterion_4_riesz_limit():
    t0 = time.perf_counter()
    sigma = 0.6
    grid = Grid(rectangle(-4.0, 4.0, -4.0, 4.0), 129)
    pts = grid.interior_points
    r2 = np.sum(pts**2, axis=1)
    u = np.exp(-r2 / (2.0 * sigma**2))
    grad_true = -(pts / sigma**2) * u[:, None]
    inner = np.max(np.abs(pts), axis=1) <= 2.0
    errs = []
    for s in (0.6, 0.8, 0.9, 0.95, 0.99):
        g = riesz_gradient(plan_riesz_convolution(grid, 1.0 - s), u)
        errs.append(
            np.linalg.norm((g - grad_true)[inner]) / np.linalg.norm(grad_true[inner])
        )
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < 0.05
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(4, "fractional gradient approaches the classical one", t0)


def test_criterion_5_torsion_subsolution(shipped_instances):
    t0 = time.perf_counter()
    for name in ("interval_1d", "disk_2d"):
        _, inst = shipped_instances[name]
        cert = inst.certificate
        assert cert.sigma > 0.0 and cert.eta > 0.0
        assert np.all(inst.trunc.floor > 0.0)
        # sub-solution inequality against every nodal basis function
        resid = (
            operator_gradient(Operator(inst.operator.tables[0]), inst.trunc.floor)
            + operator_gradient(Operator(inst.operator.tables[1]), inst.trunc.floor)
            - inst.grid.cell_volume
            * f_eval(inst.trunc.base, inst.trunc.floor)
        )
        assert np.max(resid) <= 1e-8

    cfg, inst = shipped_instances["interval_1d"]
    sups = []
    for factor in (1.0, 2.0, 4.0, 8.0, 16.0):
        u = solve_torsion(inst.certificate.sigma * factor, inst.operator, 1e-8)
        sups.append(float(np.max(np.abs(u))))
    assert all(b > a for a, b in zip(sups, sups[1:])), sups

    fine = build_instance(
        Grid(interval(0.0, 1.0), 33), cfg.exponents, cfg.reaction, cfg.convective
    )
    ratio = fine.certificate.eta / inst.certificate.eta
    assert 0.5 <= ratio <= 2.0, ratio
    _report(5, "floor certificates, sigma sweep, Hopf stability", t0)


def test_criterion_6_frozen_solver(shipped_instances):
    t0 = time.perf_counter()
    # quadratic case against a dense linear solve
    grid2 = Grid(interval(0.0, 1.0), 17)
    op2 = Operator(
        assemble_weights(grid2, OperatorParams(s=0.5, p=2.0)),
        assemble_weights(grid2, OperatorParams(s=0.5, p=2.0)),
    )
    sigma = 0.7
    u_iter = solve_torsion(sigma, op2, 1e-8)

    def linear_matrix(table):
        W = table.pair
        return 2.0 * (np.diag(W.sum(axis=1) + table.tail) - W)

    A = linear_matrix(op2.tables[0]) + linear_matrix(op2.tables[1])
    rhs = sigma * grid2.cell_volume * np.ones(grid2.n_interior)
    want = np.linalg.solve(A, rhs)
    assert np.linalg.norm(u_iter - want) / np.linalg.norm(want) < 1e-8

    # 3-node instance against exhaustive minimization on a value lattice
    exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
    reaction = SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1)
    convective = ConvectiveReaction(c3=0.2, zeta=1.2)
    grid3 = Grid(interval(0.0, 1.0), 5)
    op3 = Operator(
        assemble_weights(grid3, OperatorParams(s=exps.s1, p=exps.p)),
        assemble_weights(grid3, OperatorParams(s=exps.s2, p=exps.q)),
    )
    xi3 = riesz_gradient(plan_riesz_convolution(grid3, 1.0 - exps.s), np.array([0.1, 0.15, 0.1]))
    prob3 = FrozenProblem(
        operator=op3,
        trunc=TruncatedReaction(reaction, np.array([0.045, 0.07, 0.045])),
        load=g_eval(convective, xi3),
    )
    res3 = solve_frozen(prob3, MinimizerOptions(tol=1e-8))
    assert res3.converged
    axis = np.linspace(0.0, 1.2, 41)
    spacing = axis[1] - axis[0]
    cand = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    vol = grid3.cell_volume
    total = np.zeros(cand.shape[0])
    for table, p in zip(op3.tables, (exps.p, exps.q)):
        du = cand[:, :, None] - cand[:, None, :]
        total += (
            np.sum(table.pair * np.abs(du) ** p, axis=(1, 2))
            + 2.0 * np.sum(table.tail * np.abs(cand) ** p, axis=1)
        ) / p
    total -= vol * np.array([np.sum(prob3.trunc.F(c)) for c in cand])
    total -= vol * np.sum(prob3.load * cand, axis=1)
    k = int(np.argmin(total))
    assert abs(total[k] - frozen_energy(prob3, cand[k])) <= 1e-12 * max(1.0, abs(total[k]))
    best = cand[k]
    assert np.all(best > axis[0]) and np.all(best < axis[-1])
    assert np.max(np.abs(res3.x - best)) <= spacing + 1e-12

    # the frozen solution never dips below the floor on any shipped config
    for name in SHIPPED:
        _, inst = shipped_instances[name]
        prob = frozen_at(inst, inst.certificate.lower)
        res = solve_frozen(prob, MinimizerOptions(tol=1e-8, max_iter=20000))
        assert res.converged
        gap = float(np.min(res.x - inst.trunc.floor))
        assert gap >= -1e-8, (name, gap)

    # two distant starts land on the same frozen solution
    _, inst = shipped_instances["interval_1d"]
    gap = uniqueness_probe(frozen_at(inst, inst.certificate.lower))
    assert math.isfinite(gap) and gap < 1e-6
    _report(6, "frozen solver against dense, lattice, floor, uniqueness", t0)


def test_criterion_7_fixed_point(shipped_instances):
    t0 = time.perf_counter()
    cfg_pure, inst_pure = shipped_instances["interval_1d_pure"]
    report = solve_problem(inst_pure, cfg_pure.outer, seed=cfg_pure.seed)
    assert report.converged and report.outer_iterations <= 2

    # coupled brute force on the 17-node instance
    cfg, _ = shipped_instances["interval_1d"]
    grid = cfg.build_grid()
    inst_tight = build_instance(
        grid, cfg.exponents, cfg.reaction, cfg.convective,
        frozen_options=MinimizerOptions(tol=1e-8),
    )
    rep_tight = solve_problem(inst_tight, OuterOptions(tol=1e-7))
    assert rep_tight.converged
    u = inst_tight.trunc.floor.copy()
    best = (np.inf, u.copy())
    from scipy.optimize import brentq

    for _ in range(400):
        prob = frozen_at(inst_tight, u)
        r = frozen_gradient(prob, u)
        res = scaled_norm(r)
        if res < best[0]:
            best = (res, u.copy())
        if res < 1e-9:
            break
        for i in range(u.size):
            def node_res(val):
                w = u.copy()
                w[i] = val
                return frozen_gradient(prob, w)[i]

            width = 0.5
            lo, hi = u[i] - width, u[i] + width
            while node_res(lo) * node_res(hi) > 0.0 and width < 64.0:
                width *= 2.0
                lo, hi = u[i] - width, u[i] + width
            if node_res(lo) * node_res(hi) <= 0.0:
                u[i] = brentq(node_res, lo, hi, xtol=1e-14)
    assert best[0] < 1e-9
    assert np.max(np.abs(grid.pack(rep_tight.raw) - best[1])) <= 1e-5

    # every shipped config: monitored solve, residual, positivity, Hopf bound
    for name in SHIPPED:
        cfg, inst = shipped_instances[name]
        rep = solve_problem(inst, cfg.outer, seed=cfg.seed)
        assert rep.converged, (name, rep.message)
        assert rep.ball is not None and math.isfinite(rep.ball.rho)
        assert all(v <= rep.ball.rho * (1.0 + 1e-9) for v in rep.v_norms), name
        assert rep.final_residual < 1e-5, (name, rep.final_residual)
        uv = inst.grid.pack(rep.u)
        assert np.all(uv > 0.0), name
        cert = inst.certificate
        assert cert.exponent == cfg.exponents.s1
        d = inst.grid.interior_distance
        assert np.all(uv >= cert.eta * d**cert.exponent - 1e-12), name
    _report(7, "fixed point vs coupled oracle, monitor, positivity", t0)


def test_criterion_8_hypothesis_gate(capsys):
    t0 = time.perf_counter()
    expected = {
        "q_ge_p.json": "2<q<p<N/s1",
        "s1p_le_1.json": "s1*p>1",
        "gamma_out_of_range.json": "gamma in (0,1)",
        "r_too_large.json": "r in (1,p-1)",
        "zeta_too_large.json": "zeta in (1,p-1)",
        "s1_hits_resonance.json": "s1<1/(p'*gamma)",
        "q_prime_s2_equals_s1.json": "q'*s2 != s1",
    }
    for name, check in expected.items():
        code = cli.main(
            ["check-hypotheses", "--config", str(CONFIG_DIR / "negative" / name)]
        )
        captured = capsys.readouterr()
        assert code == 2, name
        err = json.loads(captured.err)
        assert [f["name"] for f in err["failures"]] == [check], name
    # whole acceptance run stays within the stated budget
    assert time.perf_counter() - _SUITE_T0 < 300.0
    _report(8, "all seven negative configs rejected by name, exit 2", t0)
