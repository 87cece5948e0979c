from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from numpy.testing import assert_allclose

from elastica_fem import (BoundaryConditions, ConstraintVariant,
                          FunctionOracle, HermiteCurve, KKTSingularError,
                          Mesh1D, NewtonError, assemble_matrices,
                          unit_speed_violation)
from elastica_fem import assembly, saddle_solver, stationary
from elastica_fem.experiments import named_experiment, HELIX_FREQ
from elastica_fem.flow import FlowConfig, run
from elastica_fem.splines import lumped_weights
from elastica_fem.stationary import (DiscreteNorms, SaddlePoint,
                                     _extreme_eigenvalue, _jacobian_pattern,
                                     _pattern, coercivity_estimate,
                                     infsup_estimate, jacobian,
                                     make_interpolant_pair, newton_solve,
                                     residual, residual_dual_norm)

from conftest import (bending_matrix, derivative_matrix, fit_rate,
                      restriction_matrix, with_norms)

P1, P2 = ConstraintVariant.P1, ConstraintVariant.P2


def straight_pair(M=6, length=1.0, variant=P2):
    mesh = Mesh1D.uniform(0.0, length, M)
    vals = np.stack([mesh.nodes, np.zeros(M + 1)], axis=1)
    ders = np.tile([1.0, 0.0], (M + 1, 1))
    u = HermiteCurve(mesh, 2, vals, ders)
    # zero multiplier at the interior constraint nodes of ``variant``
    return SaddlePoint(u, np.zeros(2 * M // variant.stride - 1)), mesh


def clamped_segment_bc(length=1.0):
    return BoundaryConditions.clamped((0.0, 0.0), (1.0, 0.0),
                                      (length, 0.0), (1.0, 0.0))


class TestResidual:
    def test_straight_segment_zero(self):
        pair, mesh = straight_pair()
        mats = assemble_matrices(mesh, 2)
        r_u, r_mu = residual(pair, P2, clamped_segment_bc(), mats)
        assert np.abs(r_u).max() == pytest.approx(0.0, abs=1e-13)
        assert np.abs(r_mu).max() == pytest.approx(0.0, abs=1e-15)

    def test_circle_dual_norm_scaling(self, circle_spec):
        # the a-priori bound is O(h^2) for the midpoint-enforced variant and
        # O(h) for the node-only variant; the measured decay satisfies both
        # (superconvergently for the former) and the two are well separated
        slopes = {}
        for variant in (P2, P1):
            duals, hs = [], []
            for M in (10, 20, 40, 80):
                mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
                mats = assemble_matrices(mesh, 2)
                pair = make_interpolant_pair(
                    circle_spec.exact.oracle, circle_spec.exact.multiplier,
                    mesh, 2, variant)
                duals.append(with_norms(residual_dual_norm, pair, variant,
                                        circle_spec.bc, mats))
                hs.append(mesh.h)
            slopes[variant] = fit_rate(duals, hs)
        assert slopes[P2] >= 1.7
        assert 0.7 <= slopes[P1] <= 1.3
        assert slopes[P2] - slopes[P1] >= 1.0

    def test_multiplier_block_is_constraint_defect(self, circle_spec):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 8)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2, P2)
        _, r_mu = residual(pair, P2, circle_spec.bc, mats)
        beta = lumped_weights(mesh, P2)
        du = pair.u.derivative_at_constraint_nodes(P2)
        expect = 0.5 * beta[1:-1] * (np.einsum("nd,nd->n", du, du)[1:-1] - 1.0)
        assert_allclose(r_mu, expect, rtol=0, atol=1e-16)


class TestJacobian:
    def test_zero_multiplier_gives_bending_block(self, circle_spec):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 7)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     lambda x: np.zeros_like(x), mesh, 2, P2)
        A, _ = jacobian(pair, P2, circle_spec.bc, mats)
        free = np.flatnonzero(np.diff(restriction_matrix(
            circle_spec.bc.restriction(mesh, 2)).indptr))
        expect = bending_matrix(mats).toarray()[np.ix_(free, free)]
        assert_allclose(A.toarray(), expect, atol=1e-14)

    def test_symmetry(self, circle_spec):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 9)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2, P2)
        A, _ = jacobian(pair, P2, circle_spec.bc, mats)
        Ad = A.toarray()
        assert np.array_equal(Ad, Ad.T)

    @pytest.mark.parametrize("variant", [P1, P2])
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_pattern_fixed_over_newton(self, name, variant):
        # entries that vanish or cancel at one iterate keep their place
        spec = named_experiment(name)
        mesh = Mesh1D.uniform(*spec.interval, 20)
        mats = assemble_matrices(mesh, spec.dim)
        pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                     mesh, spec.dim, variant)
        sol, log = newton_solve(pair, variant, spec.bc, mats)
        assert log["iterations"] >= 1
        A0, _ = jacobian(pair, variant, spec.bc, mats)
        A1, _ = jacobian(sol, variant, spec.bc, mats)
        assert np.array_equal(A0.indptr, A1.indptr)
        assert np.array_equal(A0.indices, A1.indices)

    @pytest.mark.parametrize("variant", [P1, P2])
    def test_matches_sparse_products(self, circle_spec, variant):
        # the reference: P^T (S + D^T diag(w) D) P from scipy's products,
        # which sum in another order, so equal up to roundoff
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 9)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2,
                                     variant)
        A, _ = jacobian(pair, variant, circle_spec.bc, mats)
        D = derivative_matrix(mats.derivative_map(variant), mesh)
        P = restriction_matrix(circle_spec.bc.restriction(mesh, 2))
        w = np.repeat(lumped_weights(mesh, variant)
                      * np.concatenate(([0.0], pair.lam, [0.0])), 2)
        expect = (P.T @ (bending_matrix(mats) + D.T @ sp.diags(w) @ D)
                  @ P).toarray()
        assert_allclose(A.toarray(), expect, rtol=0,
                        atol=1e-14 * np.abs(expect).max())

    @pytest.mark.parametrize("variant", [P2, P1])
    def test_finite_difference_consistency(self, rng, circle_spec, variant):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 10)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier,
                                     mesh, 2, variant)
        A, B = jacobian(pair, variant, circle_spec.bc, mats)
        free = np.flatnonzero(np.diff(restriction_matrix(
            circle_spec.bc.restriction(mesh, 2)).indptr))
        r_u0, r_mu0 = residual(pair, variant, circle_spec.bc, mats)
        qu = rng.normal(size=free.size)
        ql = rng.normal(size=B.shape[0])
        remainders, eps_list = [], [1e-2, 1e-3, 1e-4, 1e-5]
        for eps in eps_list:
            dofs = pair.u.dofs.copy()
            dofs[free] += eps * qu
            cand = SaddlePoint(
                HermiteCurve.from_dofs(mesh, 2, dofs),
                pair.lam + eps * ql)
            r_u1, r_mu1 = residual(cand, variant, circle_spec.bc, mats)
            rem = np.sqrt(
                np.linalg.norm(r_u1 - r_u0 - eps * (A @ qu + B.T @ ql))**2
                + np.linalg.norm(r_mu1 - r_mu0 - eps * (B @ qu))**2)
            remainders.append(rem)
        slope = fit_rate(remainders, eps_list)
        assert abs(slope - 2.0) <= 0.2
        # remainder constant stays stable (F quadratic in the curve)
        consts = [r / e**2 for r, e in zip(remainders, eps_list)]
        assert max(consts) / min(consts) <= 1.5


class TestNewton:
    def test_straight_segment_needs_no_iterations(self):
        pair, mesh = straight_pair()
        mats = assemble_matrices(mesh, 2)
        sol, log = newton_solve(pair, P2, clamped_segment_bc(), mats)
        assert log["iterations"] == 0
        assert np.array_equal(sol.u.dofs, pair.u.dofs)

    @pytest.mark.parametrize("name,M", [("circle", 20), ("helix", 20)])
    def test_converges_from_interpolants(self, name, M):
        spec = named_experiment(name)
        a, b = spec.interval
        mesh = Mesh1D.uniform(a, b, M)
        mats = assemble_matrices(mesh, spec.dim)
        pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                     mesh, spec.dim, P2)
        sol, log = newton_solve(pair, P2, spec.bc, mats)
        assert log["iterations"] <= 8
        assert log["residual_norms"][-1] <= 1e-11
        assert unit_speed_violation(sol.u, P2) <= 1e-10

    @pytest.mark.parametrize("M", [80, 160])
    @pytest.mark.parametrize("variant", [P1, P2], ids=["p1", "p2"])
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_default_tol_converges_on_fine_meshes(self, name, variant, M):
        # the default stop sits at the residual's roundoff floor, which
        # exceeds 1e-11 from M=80 on
        spec = named_experiment(name)
        mesh = Mesh1D.uniform(*spec.interval, M)
        mats = assemble_matrices(mesh, spec.dim)
        pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                     mesh, spec.dim, variant)
        _, log = newton_solve(pair, variant, spec.bc, mats)
        assert 1e-11 < log["tol"] < 1e-8
        assert 1 <= log["iterations"] <= 2
        assert log["residual_norms"][-1] <= log["tol"]

    def test_helix_multiplier_value(self, helix_spec):
        # clamped ends force a constant multiplier lam with
        # u'''' = lam * u'', i.e. lam = -freq^2 (not -|u''|^2 = -freq^4,
        # whose derivation needs the endpoint value at b to be free)
        mesh = Mesh1D.uniform(*helix_spec.interval, 20)
        mats = assemble_matrices(mesh, 3)
        pair = make_interpolant_pair(helix_spec.exact.oracle,
                                     helix_spec.exact.multiplier, mesh, 3, P2)
        sol, _ = newton_solve(pair, P2, helix_spec.bc, mats)
        lam_mid = sol.lam[10:-10]
        assert np.abs(lam_mid - (-HELIX_FREQ**2)).max() <= 0.01

    def test_circle_multiplier_value(self, circle_spec):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 20)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2, P2)
        sol, _ = newton_solve(pair, P2, circle_spec.bc, mats)
        lam_mid = sol.lam[5:-5]
        assert np.abs(lam_mid + 1.0).max() <= 0.01

    def test_max_iter_exceeded_raises(self, circle_spec):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 10)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2, P2)
        with pytest.raises(NewtonError):
            newton_solve(pair, P2, circle_spec.bc, mats, tol=1e-30, max_iter=3)

    def test_flow_newton_agreement(self, circle_spec):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 20)
        mats = assemble_matrices(mesh, 2)
        cfg = FlowConfig(tau=0.1, T=50.0, constraint=P2, bc=circle_spec.bc)
        state, _ = run(cfg, mesh, circle_spec.z0, 2, matrices=mats)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2, P2)
        sol, _ = newton_solve(pair, P2, circle_spec.bc, mats)
        diff = sol.u.dofs - state.curve.dofs
        assert mats.h2_norm(diff) <= 1e-7

    @pytest.mark.parametrize("variant", [P1, P2])
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_iterations_solve_on_the_band(self, monkeypatch, name, variant):
        calls = []
        band_factor = saddle_solver.BandedKKT.factor

        def band_spy(band, *args):
            calls.append(band)
            return band_factor(band, *args)

        monkeypatch.setattr(saddle_solver.BandedKKT, "factor", band_spy)
        spec = named_experiment(name)
        mesh = Mesh1D.uniform(*spec.interval, 40)
        mats = assemble_matrices(mesh, spec.dim)
        pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                     mesh, spec.dim, variant)
        _, log = newton_solve(pair, variant, spec.bc, mats)
        assert log["iterations"] >= 1
        assert len(calls) == log["iterations"]

    @pytest.mark.parametrize("name,variant", [("circle", P2), ("helix", P1),
                                              ("helix", P2)])
    def test_one_band_per_solve(self, monkeypatch, name, variant):
        # the Jacobian's patterns are the discretization's, so one band
        # serves every iteration of a solve
        built = []
        band_init = saddle_solver.BandedKKT.__init__

        def init_spy(band, *args):
            built.append(band)
            band_init(band, *args)

        monkeypatch.setattr(saddle_solver.BandedKKT, "__init__", init_spy)
        spec = named_experiment(name)
        mesh = Mesh1D.uniform(*spec.interval, 20)
        mats = assemble_matrices(mesh, spec.dim)
        pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                     mesh, spec.dim, variant)
        _, log = newton_solve(pair, variant, spec.bc, mats)
        assert log["iterations"] >= 2
        assert len(built) == 1

    @pytest.mark.parametrize("variant", [P1, P2])
    def test_each_iterate_is_evaluated_once(self, monkeypatch, variant):
        # u' at the constraint nodes once per curve (Newton's iterates and
        # halving candidates), the lumped weights once per mesh and variant
        curves, weights = [], []
        derivative = HermiteCurve.derivative_at_constraint_nodes
        lumped = stationary.lumped_weights

        def derivative_spy(curve, variant):
            curves.append(curve)
            return derivative(curve, variant)

        def weights_spy(*args):
            weights.append(args)
            return lumped(*args)

        spec = named_experiment("helix")
        mesh = Mesh1D.uniform(*spec.interval, 20)
        mats = assemble_matrices(mesh, spec.dim)
        pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                     mesh, spec.dim, variant)
        monkeypatch.setattr(HermiteCurve, "derivative_at_constraint_nodes",
                            derivative_spy)
        monkeypatch.setattr(stationary, "lumped_weights", weights_spy)
        _, log = newton_solve(pair, variant, spec.bc, mats)
        assert log["iterations"] >= 2
        assert len(curves) == len({id(c) for c in curves}) \
            == log["iterations"] + log["step_halvings"] + 1
        assert len(weights) == 1

    def test_circle_p2_converges_at_two_elements(self, circle_spec):
        # alpha < 0 here and the last pivot ratio is 4.4e-12, near the
        # 1e-12 gate: the band must be scaled by the first Jacobian's
        # diagonal, as a band of Newton's own is
        mesh = Mesh1D.uniform(*circle_spec.interval, 2)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2, P2)
        with_norms(infsup_estimate, pair, P2, circle_spec.bc,
                   mats)     # builds the band
        _, log = newton_solve(pair, P2, circle_spec.bc, mats)
        assert log["iterations"] == 4

    def test_no_free_curve_dofs_raises_before_any_factor(self, helix_spec,
                                                          monkeypatch):
        # helix clamps both ends of its one element: P has no column, and
        # the KKT matrix would be the 1x1 zero of the midpoint multiplier
        factored = []
        monkeypatch.setattr(saddle_solver.BandedKKT, "factor",
                            lambda band, *args: factored.append(band))
        mesh = Mesh1D.uniform(*helix_spec.interval, 1)
        mats = assemble_matrices(mesh, 3)
        pair = make_interpolant_pair(helix_spec.exact.oracle,
                                     helix_spec.exact.multiplier, mesh, 3, P2)
        r_u, r_mu = residual(pair, P2, helix_spec.bc, mats)
        assert r_u.size == 0 and np.abs(r_mu).max() > 0.0
        with pytest.raises(NewtonError, match="^no free curve DOFs$") as info:
            newton_solve(pair, P2, helix_spec.bc, mats)
        assert info.value.residual_norms == [float(np.abs(r_mu).max())]
        # a residual within tol is a solution, as with free DOFs
        _, log = newton_solve(pair, P2, helix_spec.bc, mats,
                              tol=info.value.residual_norms[0])
        assert log["iterations"] == 0 and log["converged"]
        assert factored == []

    @pytest.mark.parametrize("variant", [P1, P2])
    def test_singular_jacobian_raises_newton_error(self, circle_spec,
                                                   variant):
        # the degenerate tangent of test_degenerate_tangent_detected makes
        # the first Jacobian singular; newton_solve wraps the KKT failure
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 8)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2,
                                     variant)
        derivs = pair.u.derivs.copy()
        derivs[3] = 0.0
        broken = SaddlePoint(HermiteCurve(mesh, 2, pair.u.values, derivs),
                             pair.lam)
        with pytest.raises(NewtonError) as info:
            newton_solve(broken, variant, circle_spec.bc, mats)
        assert isinstance(info.value.__cause__, KKTSingularError)
        assert info.value.__cause__.deficiency >= 1


def test_derivative_map_built_once_per_matrices_and_variant(monkeypatch,
                                                            circle_spec):
    calls = []
    build = assembly.derivative_map

    def spy(mesh, dim, variant):
        calls.append(variant)
        return build(mesh, dim, variant)

    monkeypatch.setattr(assembly, "derivative_map", spy)
    mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 20)
    mats = assemble_matrices(mesh, 2)
    pair = make_interpolant_pair(circle_spec.exact.oracle,
                                 circle_spec.exact.multiplier, mesh, 2, P2)
    _, log = newton_solve(pair, P2, circle_spec.bc, mats)
    # every iteration calls jacobian and residual at least once each
    assert log["iterations"] >= 1
    assert calls == [P2]
    p1_pair = make_interpolant_pair(circle_spec.exact.oracle,
                                    circle_spec.exact.multiplier, mesh, 2, P1)
    for _ in range(2):
        residual(p1_pair, P1, circle_spec.bc, mats)
        jacobian(p1_pair, P1, circle_spec.bc, mats)
    assert calls == [P2, P1]
    residual(pair, P2, circle_spec.bc, assemble_matrices(mesh, 2))
    assert calls == [P2, P1, P2]


class TestBrezziDiagnostics:
    def test_straight_segment_coercive(self):
        # node-only constraint: B has full rank and the pure bending form is
        # coercive on its kernel under clamped conditions
        pair, mesh = straight_pair(variant=P1)
        mats = assemble_matrices(mesh, 2)
        alpha = with_norms(coercivity_estimate, pair, P1, clamped_segment_bc(),
                           mats)
        assert alpha > 0.0

    def test_straight_segment_p2_rank_deficient(self):
        # with midpoints enforced, a straight configuration yields 2M-1 point
        # evaluations of one derivative component that has fewer free DOFs:
        # the constraint linearization is genuinely rank deficient there
        pair, mesh = straight_pair()
        mats = assemble_matrices(mesh, 2)
        with pytest.raises(ValueError, match="rank deficient"):
            with_norms(coercivity_estimate, pair, P2, clamped_segment_bc(),
                       mats)

    def test_circle_alpha_beta_stable(self, circle_spec):
        alphas, betas = [], []
        for M in (10, 20, 40):
            mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
            mats = assemble_matrices(mesh, 2)
            pair = make_interpolant_pair(circle_spec.exact.oracle,
                                         circle_spec.exact.multiplier,
                                         mesh, 2, P2)
            norms = DiscreteNorms.build(mats, circle_spec.bc, P2)
            alphas.append(coercivity_estimate(pair, P2, circle_spec.bc,
                                              mats, norms))
            betas.append(infsup_estimate(pair, P2, circle_spec.bc, mats, norms))
        assert min(alphas) > 0.0 and min(betas) > 0.0
        assert alphas[-1] / alphas[0] >= 0.5
        assert betas[-1] / betas[0] >= 0.5

    def test_p1_and_p2_both_positive(self, circle_spec):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 16)
        mats = assemble_matrices(mesh, 2)
        for variant in (P1, P2):
            pair = make_interpolant_pair(circle_spec.exact.oracle,
                                         circle_spec.exact.multiplier,
                                         mesh, 2, variant)
            for estimate in (infsup_estimate, coercivity_estimate):
                assert with_norms(estimate, pair, variant, circle_spec.bc,
                                  mats) > 0.0

    def test_degenerate_tangent_detected(self, circle_spec):
        # a vanishing tangent at one interior node zeroes that constraint
        # row: the inf-sup estimate collapses and coercivity reports the
        # rank deficiency
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 8)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2, P2)
        derivs = pair.u.derivs.copy()
        derivs[3] = 0.0
        broken = SaddlePoint(HermiteCurve(mesh, 2, pair.u.values, derivs),
                             pair.lam)
        assert with_norms(infsup_estimate, broken, P2, circle_spec.bc, mats) \
            == pytest.approx(0.0, abs=1e-6)
        with pytest.raises(ValueError, match="rank deficient"):
            with_norms(coercivity_estimate, broken, P2, circle_spec.bc, mats)

    def test_gram_off_the_band_pattern_raises(self, circle_spec, monkeypatch):
        # both estimates factor the Gram they are given on the mesh's KKT
        # band: one of another pattern raises before any Lanczos run
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 10)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2, P2)
        norms = DiscreteNorms.build(mats, circle_spec.bc, P2)
        gram = norms.gram.copy()
        gram.data[1] = 0.0          # an entry right of row 0's diagonal
        gram.eliminate_zeros()

        def forbidden(*args, **kwargs):
            raise AssertionError("a Lanczos run started")
        monkeypatch.setattr(stationary, "_extreme_eigenvalue", forbidden)
        for estimate in (coercivity_estimate, infsup_estimate):
            with pytest.raises(ValueError, match="band pattern"):
                estimate(pair, P2, circle_spec.bc, mats,
                         replace(norms, gram=gram))

    def test_non_finite_point_raises_before_any_factor(self, circle_spec,
                                                      monkeypatch):
        # a NaN multiplier leaves B intact but not the residual or A; the
        # inf-sup estimate reads only u and keeps its value
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 10)
        mats = assemble_matrices(mesh, 2)
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier, mesh, 2, P2)
        norms = DiscreteNorms.build(mats, circle_spec.bc, P2)
        nan_lam = SaddlePoint(pair.u, np.full_like(pair.lam, np.nan))
        derivs = pair.u.derivs.copy()
        derivs[3] = np.nan
        nan_u = SaddlePoint(HermiteCurve(mesh, 2, pair.u.values, derivs),
                            pair.lam)
        beta = infsup_estimate(pair, P2, circle_spec.bc, mats, norms)
        assert infsup_estimate(nan_lam, P2, circle_spec.bc, mats, norms) == beta

        def forbidden(*args, **kwargs):
            raise AssertionError("a factorization started")
        monkeypatch.setattr(saddle_solver.BandedKKT, "factor", forbidden)
        monkeypatch.setattr(stationary.lapack, "dpbtrf", forbidden)
        for estimate, p, what in ((residual_dual_norm, nan_lam, "residual"),
                                  (coercivity_estimate, nan_lam, "Jacobian"),
                                  (infsup_estimate, nan_u, "tangents of u")):
            with pytest.raises(ValueError, match=f"^non-finite {what}$"):
                estimate(p, P2, circle_spec.bc, mats, norms)

    def test_overflow_is_reported_as_non_finite(self, circle_spec):
        # lam = 1e300 is finite, but the dual norm and A's spectrum overflow
        pair = make_interpolant_pair(circle_spec.exact.oracle,
                                     circle_spec.exact.multiplier,
                                     Mesh1D.uniform(0.0, 2.0 * np.pi, 10), 2, P2)
        huge = SaddlePoint(pair.u, np.full_like(pair.lam, 1e300))
        mats = assemble_matrices(pair.u.mesh, 2)
        for estimate, what in ((residual_dual_norm, "residual dual norm"),
                               (coercivity_estimate, "Jacobian spectrum")):
            with pytest.warns(RuntimeWarning, match="overflow"), \
                    pytest.raises(ValueError, match=f"non-finite {what}"):
                with_norms(estimate, huge, P2, circle_spec.bc, mats)

    def test_periodic_rejected(self, circle_spec):
        pair, mesh = straight_pair()
        mats = assemble_matrices(mesh, 2)
        with pytest.raises(ValueError, match="endpoint"):
            residual(pair, P2, BoundaryConditions(periodic=True), mats)


# ---------------------------------------------------------------------------
# the dense Brezzi diagnostics that the banded ones replaced, as their oracle

def dense_multiplier_grams(mesh, variant):
    """(mass, stiffness) of the multiplier space restricted to the interior
    constraint nodes (zero boundary values), assembled element by element."""
    h = mesh.element_lengths
    if variant is P2:
        mass_ref = np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0],
                             [-1.0, 2.0, 4.0]]) / 30.0
        stiff_ref = np.array([[7.0, -8.0, 1.0], [-8.0, 16.0, -8.0],
                              [1.0, -8.0, 7.0]]) / 3.0
    else:
        mass_ref = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        stiff_ref = np.array([[1.0, -1.0], [-1.0, 1.0]])
    step = mass_ref.shape[0] - 1
    nz = step * mesh.num_elements + 1
    mass, stiff = np.zeros((nz, nz)), np.zeros((nz, nz))
    for e in range(mesh.num_elements):
        idx = np.ix_(step * e + np.arange(step + 1),
                     step * e + np.arange(step + 1))
        mass[idx] += h[e] * mass_ref
        stiff[idx] += stiff_ref / h[e]
    return mass[1:-1, 1:-1], stiff[1:-1, 1:-1]


def dense_brezzi(pair, variant, bc, mats):
    """(residual dual norm, alpha, beta) from dense matrices: alpha from an
    orthonormal basis Z of ker B, the generalized eigenproblem of
    (Z^T A Z, Z^T G Z); beta^2 the smallest eigenvalue of W y = mu N y with
    W = B G^-1 B^T and N = mass H^-1 mass."""
    G = _pattern(mats, variant, bc).restrict(
        mats.mass + mats.combine(gradient=1.0) + bending_matrix(mats)).toarray()
    mass, stiff = dense_multiplier_grams(mats.mesh, variant)
    h1 = mass + stiff
    r_u, r_mu = residual(pair, variant, bc, mats)
    t = sla.solve(mass, r_mu, assume_a="pos")
    dual = np.hypot(np.sqrt(max(r_u @ sla.solve(G, r_u, assume_a="pos"), 0.0)),
                    np.sqrt(max(t @ h1 @ t, 0.0)))
    A, B = jacobian(pair, variant, bc, mats)
    Bd = B.toarray()
    Z = sla.null_space(Bd)
    assert Bd.shape[1] - Z.shape[1] == Bd.shape[0]
    a_red = Z.T @ A.toarray() @ Z
    alpha = sla.eigh(0.5 * (a_red + a_red.T), Z.T @ G @ Z,
                     eigvals_only=True, subset_by_index=[0, 0])[0]
    W = Bd @ sla.solve(G, Bd.T, assume_a="pos")
    N = mass @ sla.solve(h1, mass, assume_a="pos")
    mu = sla.eigh(0.5 * (W + W.T), 0.5 * (N + N.T), eigvals_only=True,
                  subset_by_index=[0, 0])[0]
    return dual, alpha, np.sqrt(max(mu, 0.0))


def scaled_pair(name, M, variant, scale=1.0):
    """Interpolant pair with the exact multiplier times ``scale``; from
    about 10 on the second variation is indefinite on ker B."""
    spec = named_experiment(name)
    mesh = Mesh1D.uniform(*spec.interval, M)
    mats = assemble_matrices(mesh, spec.dim)
    pair = make_interpolant_pair(
        spec.exact.oracle, lambda x: scale * spec.exact.multiplier(x),
        mesh, spec.dim, variant)
    return pair, variant, spec.bc, mats


def banded_brezzi(pair, variant, bc, mats):
    norms = DiscreteNorms.build(mats, bc, variant)
    return tuple(f(pair, variant, bc, mats, norms) for f in
                 (residual_dual_norm, coercivity_estimate, infsup_estimate))


def band_applies(monkeypatch, args):
    """Calls of ``BandedKKT.apply`` by the alpha and by the beta estimate
    at ``args`` (the nu run and the beta run)."""
    calls = []
    apply = saddle_solver.BandedKKT.apply

    def spy(band, rhs):
        calls.append(band)
        return apply(band, rhs)

    monkeypatch.setattr(saddle_solver.BandedKKT, "apply", spy)
    norms = DiscreteNorms.build(args[3], args[2], args[1])
    counts = []
    for estimate in (coercivity_estimate, infsup_estimate):
        calls.clear()
        estimate(*args, norms)
        counts.append(len(calls))
    return counts


class TestBandedBrezziAgainstDense:
    @pytest.mark.parametrize("M", [10, 20, 40, 80, 160])
    @pytest.mark.parametrize("variant", [P1, P2], ids=["p1", "p2"])
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_matches_dense(self, name, variant, M):
        args = scaled_pair(name, M, variant)
        assert_allclose(banded_brezzi(*args), dense_brezzi(*args), rtol=1e-6)

    @pytest.mark.parametrize("M", [20, 80])
    @pytest.mark.parametrize("scale", [10.0, 30.0])
    @pytest.mark.parametrize("variant", [P1, P2], ids=["p1", "p2"])
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_indefinite_alpha_matches_dense(self, name, variant, scale, M):
        # the unshifted inverse iteration reports a positive alpha here
        args = scaled_pair(name, M, variant, scale)
        expect = dense_brezzi(*args)[1]
        assert expect < 0.0
        assert with_norms(coercivity_estimate, *args) \
            == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("scale,expect", [(10.0, -2.14621),
                                              (30.0, -7.27517)])
    def test_indefinite_circle_value(self, scale, expect):
        alpha = with_norms(coercivity_estimate,
                           *scaled_pair("circle", 20, P2, scale))
        assert round(alpha, 5) == expect

    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_reruns_are_bit_identical(self, name):
        pair, variant, bc, mats = scaled_pair(name, 40, P2)
        norms = DiscreteNorms.build(mats, bc, variant)
        for estimate in (residual_dual_norm, coercivity_estimate,
                         infsup_estimate):
            first = estimate(pair, variant, bc, mats, norms)
            assert estimate(pair, variant, bc, mats, norms) == first

    def test_each_estimate_factors_its_kkt_once(self, monkeypatch):
        calls = []
        factor = saddle_solver.BandedKKT.factor

        def spy(band, *args):
            calls.append(band)
            return factor(band, *args)

        monkeypatch.setattr(saddle_solver.BandedKKT, "factor", spy)
        args = scaled_pair("helix", 40, P2)
        with_norms(coercivity_estimate, *args)
        with_norms(infsup_estimate, *args)
        assert len(calls) == 2 and calls[0] is calls[1]

    @pytest.mark.parametrize("M", [10, 40, 160])
    @pytest.mark.parametrize("variant", [P1, P2], ids=["p1", "p2"])
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_lanczos_applies_per_estimate(self, monkeypatch, name, variant, M):
        # each Lanczos step applies the factored KKT band once; ARPACK's
        # residual test took 16-21 applies per estimate here
        counts = band_applies(monkeypatch, scaled_pair(name, M, variant))
        assert all(1 <= c <= 14 for c in counts), counts


    @pytest.mark.parametrize("M", [10, 40, 160])
    @pytest.mark.parametrize("variant", [P1, P2], ids=["p1", "p2"])
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_brezzi_tol_against_converged_runs(self, monkeypatch, name,
                                               variant, M):
        # stopped at _BREZZI_TOL, alpha and beta agree with the nu and beta
        # runs iterated to float64 convergence (tol 0).  The run that only
        # places alpha's shift keeps its 1e-2: a shift moved by it moves
        # alpha at roundoff, 1.3e-8 relative at circle P1 M=160
        args = scaled_pair(name, M, variant)
        norms = DiscreteNorms.build(args[3], args[2], variant)
        estimates = (coercivity_estimate, infsup_estimate)
        stopped = [f(*args, norms) for f in estimates]
        run = stationary._extreme_eigenvalue
        monkeypatch.setattr(stationary, "_extreme_eigenvalue",
                            lambda matvec, n, which, tol=0.0: run(
                                matvec, n, which,
                                0.0 if tol == stationary._BREZZI_TOL else tol))
        assert_allclose(stopped, [f(*args, norms) for f in estimates],
                        rtol=1e-8)

    def test_brezzi_runs_stop_at_their_tolerance(self, monkeypatch):
        # circle P2 at M=40: iterated to float64 convergence, the nu run of
        # alpha applied the band 10 times and the beta run 13 times
        assert band_applies(monkeypatch, scaled_pair("circle", 40, P2)) \
            == [8, 10]


# ---------------------------------------------------------------------------
# the Lanczos of the Brezzi estimates against dense eigenvalues

def with_spectrum(lam, seed=1):
    """Symmetric matrix Q diag(lam) Q^T, Q a random orthogonal matrix."""
    lam = np.asarray(lam, dtype=float)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (lam.size, lam.size)))
    return (Q * lam) @ Q.T


def counted(A):
    """(y -> A y, the list of the vectors it was applied to)."""
    calls = []

    def matvec(y):
        calls.append(y)
        return A @ y
    return matvec, calls


def assert_extreme(A, which, tol=0.0):
    """The Lanczos value of ``which`` against eigvalsh: to a few ulps of
    the spectral radius at tol 0, and from the right side (a Ritz value
    lies inside the spectrum) within tol^2 of it otherwise."""
    lam = np.linalg.eigvalsh(A)
    value = _extreme_eigenvalue(counted(A)[0], A.shape[0], which, tol)
    exact = lam[-1] if which == "LA" else lam[0]
    radius = np.abs(lam).max()
    if tol == 0.0:
        assert abs(value - exact) <= 1e-14 * radius
    else:
        inside = exact - value if which == "LA" else value - exact
        assert -1e-14 * radius <= inside <= 10 * tol ** 2 * radius


@pytest.mark.parametrize("which", ["LA", "SA"])
class TestExtremeEigenvalue:
    @pytest.mark.parametrize("tol", [0.0, 1e-2])
    @pytest.mark.parametrize("n", [1, 2, 5, 30, 100])
    def test_random_symmetric(self, which, n, tol):
        X = np.random.default_rng(n).standard_normal((n, n))
        assert_extreme(X + X.T, which, tol)

    def test_indefinite_spectrum(self, which):
        lam = np.concatenate([np.linspace(-3.0, -0.5, 40),
                              np.linspace(0.5, 2.0, 40)])
        assert_extreme(with_spectrum(lam), which)

    def test_exhausted_krylov_space_is_exact(self, which):
        # a basis spanning R^n gives the eigenvalue of the full tridiagonal
        A = with_spectrum([-1.0, 0.3, 0.31, 0.32, 2.0, 2.01])
        matvec, calls = counted(A)
        value = _extreme_eigenvalue(matvec, 6, which)
        lam = np.linalg.eigvalsh(A)
        assert len(calls) == 6
        assert value == pytest.approx(lam[-1] if which == "LA" else lam[0],
                                      abs=1e-14)

    def test_start_in_an_invariant_subspace(self, which):
        # A = L L^T with the start q in its null space: A q = 0 exactly, so
        # b_1 = 0 and the Krylov space of q alone knows only the eigenvalue 0
        n = 30
        q = np.random.default_rng(0).standard_normal(n)
        q /= np.linalg.norm(q)

        def matvec(y):          # L^T y = (q[j+1] y[j] - q[j] y[j+1])_j
            t = q[1:] * y[:-1] - q[:-1] * y[1:]
            out = np.zeros(n)
            out[:-1] += q[1:] * t
            out[1:] -= q[:-1] * t
            return out

        assert not matvec(q).any()
        A = np.column_stack([matvec(e) for e in np.eye(n)])
        lam = np.linalg.eigvalsh(A)
        value = _extreme_eigenvalue(matvec, n, which)
        assert value == pytest.approx(lam[-1] if which == "LA" else 0.0,
                                      abs=1e-14 * lam[-1])

    @pytest.mark.parametrize("tol", [0.0, 1e-2])
    def test_near_null_cluster(self, which, tol):
        # three eigenvalues within 1e-10 of 0 at the end of the spectrum,
        # like the Gram-relative Jacobian of helix P2 at M=160 below [0.25,
        # 1]: measured against the largest |Ritz value|, not against the
        # Ritz value, the residual converges in a few steps
        sign = 1.0 if which == "LA" else -1.0
        lam = sign * np.concatenate([[-1e-10, 0.0, 1e-10],
                                     np.linspace(-1.0, -0.25, 197)])
        matvec, calls = counted(with_spectrum(lam))
        value = sign * _extreme_eigenvalue(matvec, lam.size, which, tol)
        # a Ritz value inside the spectrum, off the cluster's hull by at
        # most its error r^2 / gap
        assert -1e-10 - 10 * tol ** 2 - 1e-15 <= value <= 1e-10 + 1e-15
        assert len(calls) <= 30

    def test_reruns_are_bit_identical(self, which):
        X = np.random.default_rng(7).standard_normal((50, 50))
        A = X + X.T
        first, second = (_extreme_eigenvalue(lambda y: A @ y, 50, which)
                         for _ in range(2))
        assert np.array_equal(np.array([first]).view(np.uint8),
                              np.array([second]).view(np.uint8))

    def test_cap_raises(self, which):
        # 2000 evenly spaced eigenvalues: the extreme one is not resolved
        # in 80 steps
        d, calls = np.linspace(0.0, 1.0, 2000), []
        with pytest.raises(ValueError, match="did not converge in 80 steps"):
            _extreme_eigenvalue(lambda y: calls.append(y) or d * y, d.size,
                                which)
        assert len(calls) == stationary._LANCZOS_CAP == 80


# ---------------------------------------------------------------------------
# one KKT structure per mesh, variant and set of fixed ends

def fresh_row(name, variant, M=20):
    spec = named_experiment(name)
    mesh = Mesh1D.uniform(*spec.interval, M)
    mats = assemble_matrices(mesh, spec.dim)
    pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                 mesh, spec.dim, variant)
    return pair, variant, spec.bc, mats


def row_result(routine, pair, variant, bc, mats):
    """alpha, beta or the Newton solution's DOFs, on ``mats``."""
    if routine == "newton":
        sol, _ = newton_solve(pair, variant, bc, mats)
        return np.append(sol.u.dofs, sol.lam)
    norms = DiscreteNorms.build(mats, bc, variant)
    estimate = {"alpha": coercivity_estimate, "beta": infsup_estimate}[routine]
    return np.array([estimate(pair, variant, bc, mats, norms)])


@pytest.mark.parametrize("variant", [P1, P2])
@pytest.mark.parametrize("name", ["circle", "helix"])
class TestOneKKTPerMesh:
    def test_diagnostics_row_builds_one_band(self, monkeypatch, name,
                                             variant):
        built = []
        band_init = saddle_solver.BandedKKT.__init__

        def init_spy(band, *args):
            built.append(band)
            band_init(band, *args)

        monkeypatch.setattr(saddle_solver.BandedKKT, "__init__", init_spy)
        pair, variant, bc, mats = fresh_row(name, variant)
        norms = DiscreteNorms.build(mats, bc, variant)
        for estimate in (residual_dual_norm, coercivity_estimate,
                         infsup_estimate):
            estimate(pair, variant, bc, mats, norms)
        newton_solve(pair, variant, bc, mats)
        assert len(built) == 1

    def test_results_do_not_depend_on_order(self, name, variant):
        # each routine first on fresh matrices, and last after the others
        routines = ("alpha", "beta", "newton")
        for routine in routines:
            pair, variant, bc, mats = fresh_row(name, variant)
            first = row_result(routine, pair, variant, bc, mats)
            mats = assemble_matrices(mats.mesh, mats.dim)
            for other in routines:
                if other != routine:
                    row_result(other, pair, variant, bc, mats)
            last = row_result(routine, pair, variant, bc, mats)
            assert np.array_equal(first.view(np.uint8), last.view(np.uint8))

    def test_each_routine_equilibrates_by_its_own_matrix(self, monkeypatch,
                                                         name, variant):
        # the shared band scales K as a band of the routine's own would:
        # by the diagonal of A - sigma G, of G, and of Newton's first Jacobian
        seen = []
        factor = saddle_solver.BandedKKT.factor

        def spy(band, A, B):
            d = np.abs(A.diagonal())
            factor(band, A, B)
            seen.append((band._d_perm[np.argsort(band.perm)][:d.size], d))

        monkeypatch.setattr(saddle_solver.BandedKKT, "factor", spy)
        pair, variant, bc, mats = fresh_row(name, variant)
        for routine in ("alpha", "beta", "newton"):
            row_result(routine, pair, variant, bc, mats)
        assert len(seen) >= 3
        for i, (d, diag) in enumerate(seen):
            own = diag if i < 3 else seen[2][1]
            assert np.array_equal(d, np.where(own > 0, own, 1.0) ** -0.5)

    def test_union_pattern_holds_jacobian_and_gram(self, rng, name, variant):
        spec = named_experiment(name)
        meshes = [Mesh1D.uniform(*spec.interval, M) for M in (1, 2, 5, 20)]
        meshes.append(Mesh1D(spec.interval[0] + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.5, 1.4, 12))])))
        for mesh in meshes:
            mats = assemble_matrices(mesh, spec.dim)
            D = derivative_matrix(mats.derivative_map(variant), mesh)
            S = bending_matrix(mats)
            # nonzero multiplier weights: no Jacobian term cancels
            w = rng.uniform(1.0, 2.0, D.shape[0])
            for bc in (spec.bc, BoundaryConditions.free()):
                template = _jacobian_pattern(mats, variant, bc)[0]
                P = restriction_matrix(bc.restriction(mesh, spec.dim))
                held = template.copy()
                held.data[:] = 1.0
                for A in (P.T @ (S + D.T @ sp.diags(w) @ D) @ P,
                          P.T @ (mats.mass + mats.combine(gradient=1.0)
                                 + S) @ P):
                    outside = abs(A) - abs(A).multiply(held)
                    assert outside.count_nonzero() == 0
                if mesh.constraint_nodes(variant).size > 2 and P.shape[1]:
                    gram = DiscreteNorms.build(mats, bc, variant).gram
                    assert (abs(gram) - abs(gram).multiply(held)
                            ).count_nonzero() == 0


@pytest.mark.parametrize("variant, size", [(P1, 3), (P2, 7)])
def test_multiplier_held_as_interior_values(circle_spec, variant, size):
    # M=4: M-1 interior constraint nodes for P1, 2M-1 for P2
    mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 4)
    pair = make_interpolant_pair(circle_spec.exact.oracle, np.sin, mesh, 2,
                                 variant)
    assert pair.lam.shape == (size,)
    assert np.array_equal(pair.lam,
                          np.sin(mesh.constraint_nodes(variant)[1:-1]))


def test_malformed_multiplier_raises(circle_spec):
    mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 4)
    mats = assemble_matrices(mesh, 2)
    u = make_interpolant_pair(circle_spec.exact.oracle, np.sin, mesh, 2,
                              P2).u
    # fits neither M-1 nor 2M-1, or is not a vector
    for lam in (np.zeros(5), np.zeros(9), np.zeros((7, 1))):
        with pytest.raises(ValueError, match="multiplier"):
            SaddlePoint(u, lam)
    # fits one variant and is used with the other
    for lam, variant in ((np.zeros(7), P1), (np.zeros(3), P2)):
        for f in (residual, jacobian, newton_solve):
            with pytest.raises(ValueError, match="multiplier"):
                f(SaddlePoint(u, lam), variant, circle_spec.bc, mats)
