"""Acceptance suite: every reference criterion at its stated tolerance.

Each test prints one line ``criterion <n> (<name>): PASS|FAIL <measurements>``;
run with ``pytest tests/test_acceptance.py -v -s`` to see them all.

Two sub-assertions are expected to fail, and are left failing on purpose
rather than loosened.  Both pin two-sided rate windows on quantities that are
only bounded from above by the theory and in fact superconverge here:

* criterion 6 asserts the midpoint-variant residual dual norm decays with
  log-log slope in [1.7, 2.3]; the measured slope is ~3 (the quadrature
  defect of the lumped term is one order better than the generic bound, and
  the curve block is Galerkin-orthogonal to the interpolation error);
* criterion 7 asserts the distance between the computed stationary point and
  the cubic interpolant of the exact curve has EOC in [1.7, 2.3]; measured
  ~3 (the discrete solution sits an order closer to the interpolant than the
  error estimate's ball radius; the true error EOC is exactly 2 and is
  printed alongside).
"""

import numpy as np
import pytest

from elastica_fem import (BoundaryConditions, ConstraintVariant, FlowConfig,
                          Mesh1D, QuadraticField, SaddleSystem,
                          assemble_matrices, eoc, h2_error, weak_errors)
from elastica_fem import flow as _flow_mod
from elastica_fem.experiments import named_experiment, stationarity_check
from elastica_fem.flow import run as flow_run
from elastica_fem.stationary import (DiscreteNorms, SaddlePoint,
                                     coercivity_estimate, infsup_estimate,
                                     jacobian, make_interpolant_pair,
                                     newton_solve, residual,
                                     residual_dual_norm)
from elastica_fem.splines import HermiteCurve

from conftest import (fit_rate, lumped_product, restriction_matrix, solve,
                      with_norms)

P1, P2 = ConstraintVariant.P1, ConstraintVariant.P2

# flow statistics registered by criteria 1, 2, 4, 5 and checked by 8
FLOW_LOG = []


def run_flow_sweep(spec, constraint, initializer, tau, mesh_sizes,
                   flow_variant=None, norms=("h2",)):
    """One (mesh) sweep at fixed tau; returns {norm: errors} and hs."""
    variant = flow_variant or spec.flow_variant
    errors = {n: [] for n in norms}
    hs = []
    for M in mesh_sizes:
        mesh = Mesh1D.uniform(*spec.interval, M)
        mats = assemble_matrices(mesh, spec.dim)
        cfg = FlowConfig(tau=tau, T=spec.T, variant=variant,
                         constraint=constraint, bc=spec.bc)
        state, _ = flow_run(cfg, mesh, spec.z0, spec.dim,
                            initializer=initializer, matrices=mats)
        FLOW_LOG.append((spec.name, constraint.value, M, tau,
                         state.max_identity_violation,
                         state.max_constraint_residual))
        hs.append(mesh.h)
        if "h2" in norms:
            errors["h2"].append(h2_error(state.curve, spec.exact, mats))
        if "l2" in norms or "h1" in norms:
            l2, h1 = weak_errors(state.curve, spec.exact, mats)
            if "l2" in norms:
                errors["l2"].append(l2)
            if "h1" in norms:
                errors["h1"].append(h1)
    return errors, hs


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_circle_p2_quadratic():
    spec = named_experiment("circle")
    errors, hs = run_flow_sweep(spec, P2, "j3", 1.0 / 10.0, [10, 20, 40, 80])
    rates = eoc(errors["h2"], hs)
    ok = all(1.7 <= r <= 2.3 for r in rates)
    report(1, "circle P2 H2 EOC", ok, f"eoc={[f'{r:.2f}' for r in rates]}")
    assert ok


def test_criterion_2_circle_p1_linear():
    spec = named_experiment("circle")
    errors, hs = run_flow_sweep(spec, P1, "j2", 1.0 / 10.0, [10, 20, 40, 80])
    rates = eoc(errors["h2"], hs)
    ok = all(0.7 <= r <= 1.3 for r in rates)
    report(2, "circle P1 H2 EOC", ok, f"eoc={[f'{r:.2f}' for r in rates]}")
    assert ok


def test_criterion_3_stationarity():
    v_p2 = stationarity_check("circle", P2, "j3", mesh_size=20)
    v_p1 = stationarity_check("circle", P1, "j2", mesh_size=20)
    v_mix = stationarity_check("circle", P1, "j3", mesh_size=20)
    ok = v_p2 <= 1e-9 and v_p1 <= 1e-9 and v_mix >= 1e-3
    report(3, "stationarity", ok,
           f"|dtZ1|: p2/j3={v_p2:.2e} p1/j2={v_p1:.2e} p1/j3={v_mix:.2e}")
    assert ok


def test_criterion_4_helix_clamped():
    spec = named_experiment("helix")
    p2_errs, hs = run_flow_sweep(spec, P2, "j3", 1.0 / 10.0, [10, 20, 40, 80],
                                 norms=("h2", "l2", "h1"))
    p1_errs, _ = run_flow_sweep(spec, P1, "j3", 1.0 / 10.0, [10, 20, 40, 80],
                                norms=("h2", "l2", "h1"))
    r_p2 = eoc(p2_errs["h2"], hs)
    r_p1 = eoc(p1_errs["h2"], hs)
    r_l2 = eoc(p2_errs["l2"], hs)
    r_h1 = eoc(p2_errs["h1"], hs)
    r_p1_l2 = eoc(p1_errs["l2"], hs)
    r_p1_h1 = eoc(p1_errs["h1"], hs)
    ok = (all(1.7 <= r <= 2.3 for r in r_p2)
          and all(0.7 <= r <= 1.3 for r in r_p1)
          and all(r >= 3.5 for r in r_l2)
          and all(r >= 3.0 for r in r_h1)
          and all(1.7 <= r <= 2.3 for r in r_p1_l2 + r_p1_h1))
    report(4, "helix clamped", ok,
           f"H2: p2={[f'{r:.2f}' for r in r_p2]} p1={[f'{r:.2f}' for r in r_p1]} "
           f"weak p2: L2={[f'{r:.2f}' for r in r_l2]} H1={[f'{r:.2f}' for r in r_h1]} "
           f"weak p1: L2={[f'{r:.2f}' for r in r_p1_l2]} H1={[f'{r:.2f}' for r in r_p1_h1]}")
    assert ok


def test_criterion_5_oval_h2_flow_vs_l2_flow():
    # tau and T are pinned by the criterion; the mesh list keeps the spatial
    # error above the O(tau) constraint-drift bias of the time discretization
    spec = named_experiment("oval-h2")
    mesh_sizes = [5, 10, 20]
    h2_errs, hs = run_flow_sweep(spec, P2, "j3", 1.0 / 200.0, mesh_sizes,
                                 flow_variant="h2")
    l2_errs, _ = run_flow_sweep(spec, P2, "j3", 1.0 / 200.0, mesh_sizes,
                                flow_variant="l2")
    rates = eoc(h2_errs["h2"], hs)
    ratios = [l2_errs["h2"][i] / l2_errs["h2"][i + 1]
              for i in range(len(mesh_sizes) - 1)]
    h2_ok = all(1.7 <= r <= 2.3 for r in rates)
    contrast_ok = not all(r >= 2.0 for r in ratios)
    ok = h2_ok and contrast_ok
    report(5, "oval H2 vs L2 flow", ok,
           f"H2-flow eoc={[f'{r:.2f}' for r in rates]} "
           f"L2-flow ratios={[f'{r:.2f}' for r in ratios]}")
    assert ok


def test_criterion_6_residual_scaling():
    spec = named_experiment("circle")
    slopes = {}
    for variant in (P2, P1):
        duals, hs = [], []
        for M in (10, 20, 40, 80):
            mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
            mats = assemble_matrices(mesh, 2)
            pair = make_interpolant_pair(spec.exact.oracle,
                                         spec.exact.multiplier, mesh, 2,
                                         variant)
            duals.append(with_norms(residual_dual_norm, pair, variant, spec.bc,
                                    mats))
            hs.append(mesh.h)
        slopes[variant] = fit_rate(duals, hs)
    p2_ok = 1.7 <= slopes[P2] <= 2.3
    p1_ok = 0.7 <= slopes[P1] <= 1.3
    ok = p2_ok and p1_ok
    report(6, "residual dual-norm scaling", ok,
           f"slope p2={slopes[P2]:.2f} (window [1.7,2.3]; measured decay is "
           f"superconvergent), p1={slopes[P1]:.2f}")
    assert ok, (
        "the midpoint-variant residual decays one order faster than the "
        "two-sided window allows; see the module docstring")


def test_criterion_7_newton():
    results = {}
    for name in ("circle", "helix"):
        spec = named_experiment(name)
        proxy, true_err, hs, quad_flags = [], [], [], []
        for M in (10, 20, 40):
            mesh = Mesh1D.uniform(*spec.interval, M)
            mats = assemble_matrices(mesh, spec.dim)
            pair = make_interpolant_pair(spec.exact.oracle,
                                         spec.exact.multiplier, mesh,
                                         spec.dim, P2)
            sol, log = newton_solve(pair, P2, spec.bc, mats, tol=1e-11)
            rn = log["residual_norms"]
            assert log["iterations"] <= 8 and rn[-1] <= 1e-11
            rho = [r / rn[0] for r in rn[1:]]
            quad_flags.append(any(rho[k + 1] <= 10.0 * rho[k]**2
                                  for k in range(len(rho) - 1)))
            proxy.append(mats.h2_norm(sol.u.dofs - pair.u.dofs))
            true_err.append(h2_error(sol.u, spec.exact, mats))
            hs.append(mesh.h)
        results[name] = (eoc(proxy, hs), eoc(true_err, hs), any(quad_flags))
    proxy_ok = all(1.7 <= r <= 2.3
                   for rates, _, _ in results.values() for r in rates)
    quad_ok = all(q for _, _, q in results.values())
    ok = proxy_ok and quad_ok
    report(7, "newton", ok,
           f"interpolant-distance eoc: circle={[f'{r:.2f}' for r in results['circle'][0]]} "
           f"helix={[f'{r:.2f}' for r in results['helix'][0]]} (window [1.7,2.3]); "
           f"true H2-error eoc: circle={[f'{r:.2f}' for r in results['circle'][1]]} "
           f"helix={[f'{r:.2f}' for r in results['helix'][1]]}; "
           f"quadratic step pair: {quad_ok}")
    assert ok, (
        "the distance to the interpolant superconverges past the window; "
        "the true H2 error converges quadratically as the estimate predicts")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(20240817)
    details = []

    # Simpson exactness on cubics; error relative to the magnitude of the
    # summed terms (exactness of the rule, not of float cancellation)
    worst = 0.0
    for _ in range(200):
        nodes = np.unique(rng.uniform(0.0, 10.0, rng.integers(3, 12)))
        if nodes.size < 2:
            continue
        mesh = Mesh1D(nodes)
        p = np.polynomial.Polynomial(rng.normal(size=4))
        P = p.integ()
        for i in range(mesh.num_elements):
            a, b = mesh.nodes[i], mesh.nodes[i + 1]
            m = mesh.midpoints[i]
            simpson = (b - a) / 6.0 * (p(a) + 4.0 * p(m) + p(b))
            exact = P(b) - P(a)
            scale = max(1.0, abs(exact), abs(P(a)), abs(P(b)),
                        (b - a) / 6.0 * (abs(p(a)) + 4.0 * abs(p(m)) + abs(p(b))))
            worst = max(worst, abs(simpson - exact) / scale)
    simpson_ok = worst <= 1e-13
    details.append(f"simpson={worst:.1e}")

    # norm equivalence over 1000 random quadratic fields
    ratios = []
    for _ in range(1000):
        M = int(rng.integers(1, 30))
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, M))])
        mesh = Mesh1D(nodes * rng.uniform(0.1, 5.0))
        d = int(rng.integers(1, 4))
        f = QuadraticField(mesh, d, rng.normal(size=(2 * M + 1, d)))
        ratios.append(lumped_product(f, f, P2) / f.l2_norm_sq())
    norm_ok = min(ratios) >= 0.2 and max(ratios) <= 5.0
    details.append(f"norm-ratio=[{min(ratios):.2f},{max(ratios):.2f}]")

    # energy-decrease identity over every flow run of this suite
    if not FLOW_LOG:  # standalone invocation: register one run ourselves
        run_flow_sweep(named_experiment("circle"), P2, "j3", 0.1, [10])
    worst_identity = max(entry[4] for entry in FLOW_LOG)
    worst_linearized = max(entry[5] for entry in FLOW_LOG)
    energy_ok = worst_identity <= 1e-12
    lin_ok = worst_linearized <= 1e-10
    details.append(f"energy-identity={worst_identity:.1e} over {len(FLOW_LOG)} runs")
    details.append(f"linearized-constraint={worst_linearized:.1e}")

    # Jacobian finite-difference consistency
    spec = named_experiment("circle")
    mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 12)
    mats = assemble_matrices(mesh, 2)
    pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                 mesh, 2, P2)
    A, B = jacobian(pair, P2, spec.bc, mats)
    free = np.flatnonzero(np.diff(
        restriction_matrix(spec.bc.restriction(mesh, 2)).indptr))
    r_u0, r_mu0 = residual(pair, P2, spec.bc, mats)
    qu = rng.normal(size=free.size)
    ql = rng.normal(size=B.shape[0])
    eps_list = [1e-2, 1e-3, 1e-4]
    rems = []
    for eps in eps_list:
        dofs = pair.u.dofs.copy()
        dofs[free] += eps * qu
        cand = SaddlePoint(HermiteCurve.from_dofs(mesh, 2, dofs),
                           pair.lam + eps * ql)
        r_u1, r_mu1 = residual(cand, P2, spec.bc, mats)
        rems.append(np.sqrt(
            np.linalg.norm(r_u1 - r_u0 - eps * (A @ qu + B.T @ ql))**2
            + np.linalg.norm(r_mu1 - r_mu0 - eps * (B @ qu))**2))
    slope = fit_rate(rems, eps_list)
    fd_ok = abs(slope - 2.0) <= 0.2
    details.append(f"fd-slope={slope:.2f}")

    # direct KKT solve against dense Schur elimination on 100 random systems
    worst_kkt = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 40))
        m = int(rng.integers(1, max(2, n // 3)))
        Q = rng.normal(size=(n, n))
        A_mat = Q @ Q.T + n * np.eye(n)
        B_mat = rng.normal(size=(m, n))
        b = rng.normal(size=n)
        c = rng.normal(size=m)
        x, lam = solve(SaddleSystem(A_mat, B_mat, b, c))
        # lam = (B A^-1 B^T)^-1 (B A^-1 b - c), x = A^-1 b - A^-1 B^T lam
        Ainv_b = np.linalg.solve(A_mat, b)
        Ainv_Bt = np.linalg.solve(A_mat, B_mat.T)
        lam_s = np.linalg.solve(B_mat @ Ainv_Bt, B_mat @ Ainv_b - c)
        x_s = Ainv_b - Ainv_Bt @ lam_s
        rel = (np.linalg.norm(x - x_s) + np.linalg.norm(lam - lam_s)) \
            / (1.0 + np.linalg.norm(x_s))
        worst_kkt = max(worst_kkt, rel)
    kkt_ok = worst_kkt <= 1e-8
    details.append(f"kkt-vs-schur={worst_kkt:.1e}")

    ok = simpson_ok and norm_ok and energy_ok and lin_ok and fd_ok and kkt_ok
    report(8, "property suites", ok, " ".join(details))
    assert ok


def test_criterion_9_brezzi_diagnostics():
    spec = named_experiment("circle")
    alphas, betas = [], []
    for M in (10, 20, 40):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                     mesh, 2, P2)
        norms = DiscreteNorms.build(mats, spec.bc, P2)
        alphas.append(coercivity_estimate(pair, P2, spec.bc, mats, norms))
        betas.append(infsup_estimate(pair, P2, spec.bc, mats, norms))
    ok = (min(alphas) > 0.0 and min(betas) > 0.0
          and alphas[-1] / alphas[0] >= 0.5 and betas[-1] / betas[0] >= 0.5)
    report(9, "brezzi diagnostics", ok,
           f"alpha={[f'{a:.3f}' for a in alphas]} beta={[f'{b:.3f}' for b in betas]}")
    assert ok
