import os
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from elastica_fem import (BoundaryConditions, ConstraintVariant, FlowConfig,
                          FlowSolveError, FunctionOracle, HermiteCurve,
                          KKTSingularError, Mesh1D, SaddleSystem,
                          assemble_constraint, assemble_matrices,
                          dump_trajectory, flow, init_state, run, solve_kkt,
                          step, unit_speed_violation)
from elastica_fem.experiments import (circle_initial, named_experiment,
                                      oval_initial)
from elastica_fem.flow import StepStructure, tangent_frames

from conftest import solve

P1, P2 = ConstraintVariant.P1, ConstraintVariant.P2


def circle_bc():
    return BoundaryConditions(value_a=(1.0, 0.0), deriv_a=(0.0, 1.0),
                              deriv_b=(0.0, 1.0))


class TestInitState:
    def test_j3_satisfies_p2_constraint(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 8)
        state = init_state(circle_initial(), mesh, 2, P2, "j3")
        assert state.constraint_violation <= 1e-13
        assert state.n == 0

    def test_j2_satisfies_p1_constraint(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 8)
        state = init_state(circle_initial(), mesh, 2, P1, "j2")
        assert state.constraint_violation <= 1e-14

    def test_straight_segment_zero_energy(self):
        z0 = FunctionOracle(
            value=lambda x: np.stack([x, np.zeros_like(x)], axis=-1),
            deriv=lambda x: np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1))
        mesh = Mesh1D.uniform(0.0, 1.0, 4)
        state = init_state(z0, mesh, 2, P2, "j3")
        assert state.energy == pytest.approx(0.0, abs=1e-14)

    def test_non_unit_speed_rejected(self):
        z0 = FunctionOracle(
            value=lambda x: np.stack([2 * x, np.zeros_like(x)], axis=-1),
            deriv=lambda x: np.stack([2 * np.ones_like(x), np.zeros_like(x)],
                                     axis=-1))
        mesh = Mesh1D.uniform(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="unit speed"):
            init_state(z0, mesh, 2, P2, "j3")

    def test_unknown_initializer(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 4)
        with pytest.raises(ValueError, match="initializer"):
            init_state(circle_initial(), mesh, 2, P2, "j5")


class TestStep:
    def test_stationary_circle_p2_j3(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 20)
        mats = assemble_matrices(mesh, 2)
        cfg = FlowConfig(tau=0.1, T=0.1, constraint=P2, bc=circle_bc())
        state = init_state(circle_initial(), mesh, 2, P2, "j3", mats)
        new = step(state, StepStructure.build(cfg, mats))
        assert new.last_velocity_norm <= 1e-9
        assert_allclose(new.curve.dofs, state.curve.dofs, atol=1e-9)

    def test_stationary_circle_p1_j2(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 20)
        mats = assemble_matrices(mesh, 2)
        cfg = FlowConfig(tau=0.1, T=0.1, constraint=P1, bc=circle_bc())
        state = init_state(circle_initial(), mesh, 2, P1, "j2", mats)
        new = step(state, StepStructure.build(cfg, mats))
        assert new.last_velocity_norm <= 1e-9

    def test_p1_from_j3_moves(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 20)
        mats = assemble_matrices(mesh, 2)
        cfg = FlowConfig(tau=0.1, T=0.1, constraint=P1, bc=circle_bc())
        state = init_state(circle_initial(), mesh, 2, P1, "j3", mats)
        new = step(state, StepStructure.build(cfg, mats))
        assert new.last_velocity_norm >= 1e-3

    def test_oval_first_step_decreases_energy(self):
        spec_bc = BoundaryConditions(value_a=(1.0, 0.0), deriv_a=(0.0, 1.0),
                                     deriv_b=(0.0, 1.0))
        mesh = Mesh1D.uniform(0.0, 4.0 * np.pi, 12)
        mats = assemble_matrices(mesh, 2)
        cfg = FlowConfig(tau=0.05, T=0.05, constraint=P2, bc=spec_bc)
        state = init_state(oval_initial(), mesh, 2, P2, "j3", mats)
        new = step(state, StepStructure.build(cfg, mats))
        assert new.energy < state.energy
        # energy decrease dominated by the velocity term
        tau = cfg.tau
        v_sq = (state.energy - new.energy) / tau
        assert new.energy <= state.energy - tau * new.last_velocity_norm**2 \
            + 1e-12 * max(1.0, state.energy)
        assert new.max_identity_violation <= 1e-12
        assert new.max_constraint_residual <= 1e-10

    def test_step_carries_the_next_right_hand_side(self):
        mesh = Mesh1D.uniform(0.0, 4.0 * np.pi, 12)
        mats = assemble_matrices(mesh, 2)
        cfg = FlowConfig(tau=0.05, T=0.1, constraint=P2, bc=circle_bc())
        state = init_state(oval_initial(), mesh, 2, P2, "j3", mats)
        assert np.array_equal(state.bending_load,
                              mats.apply_bending(state.curve.dofs))
        new = step(state, StepStructure.build(cfg, mats))
        assert np.array_equal(new.bending_load,
                              mats.apply_bending(new.curve.dofs))
        assert np.array_equal(new.tangents,
                              new.curve.derivative_at_constraint_nodes(P2))
        assert new.energy == pytest.approx(
            0.5 * mats.quad_bending(new.curve.dofs), rel=1e-15)


class TestRun:
    @pytest.mark.parametrize("variant", ["l2", "h2"])
    @pytest.mark.parametrize("name, M, elements", [
        ("circle", 2, "0, 1"), ("oval-h2", 2, "0, 1"), ("oval-h2", 3, "0"),
        ("oval-h2", 4, "0, 2")])
    def test_j2_failure_names_vanishing_midpoint_rows(self, name, M,
                                                      elements, variant):
        # J2's derivative is linear on an element, so at a midpoint it is
        # the mean of the two node tangents, here opposite: the midpoint
        # row of the P2 constraint is 0 and the KKT matrix singular
        spec = named_experiment(name)
        cfg = FlowConfig(tau=0.05, T=0.05, variant=variant, constraint=P2,
                         bc=spec.bc)
        with pytest.raises(FlowSolveError) as info:
            run(cfg, Mesh1D.uniform(*spec.interval, M), spec.z0, spec.dim,
                initializer="j2")
        assert str(info.value) == (
            "saddle solve failed at flow step 0: KKT matrix numerically "
            f"singular; u' vanishes at the midpoint of element {elements}, "
            "so its constraint row is 0")

    @pytest.mark.parametrize("variant", [P1, P2])
    def test_failure_with_midpoint_tangents_names_none(self, monkeypatch,
                                                        variant):
        # the node tangents of P1 and the midpoint tangents of J3 are unit
        def failing(system, band):
            raise KKTSingularError("forced", 1)
        monkeypatch.setattr(flow, "solve_kkt", failing)
        cfg = FlowConfig(tau=0.1, T=0.1, constraint=variant, bc=circle_bc())
        with pytest.raises(FlowSolveError) as info:
            run(cfg, Mesh1D.uniform(0.0, 2.0 * np.pi, 2), circle_initial(), 2)
        assert str(info.value) == "saddle solve failed at flow step 0: forced"

    def test_zero_horizon_returns_initial(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 6)
        cfg = FlowConfig(tau=0.1, T=0.0, constraint=P2, bc=circle_bc())
        state, snaps = run(cfg, mesh, circle_initial(), 2)
        assert state.n == 0
        assert snaps == []

    def test_circle_long_run_stays_put(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 20)
        mats = assemble_matrices(mesh, 2)
        cfg = FlowConfig(tau=0.1, T=5.0, constraint=P2, bc=circle_bc())
        state, _ = run(cfg, mesh, circle_initial(), 2, matrices=mats)
        assert state.n == 50
        assert state.constraint_violation <= 1e-10
        assert state.max_identity_violation <= 1e-12
        assert state.max_constraint_residual <= 1e-10
        init = init_state(circle_initial(), mesh, 2, P2, "j3", mats)
        assert np.abs(state.curve.dofs - init.curve.dofs).max() <= 1e-8

    def test_fixed_dofs_never_change(self):
        mesh = Mesh1D.uniform(0.0, 4.0 * np.pi, 10)
        mats = assemble_matrices(mesh, 2)
        bc = BoundaryConditions(value_a=(1.0, 0.0), deriv_a=(0.0, 1.0),
                                deriv_b=(0.0, 1.0))
        cfg = FlowConfig(tau=0.05, T=1.0, variant="l2", constraint=P2, bc=bc)
        init = init_state(oval_initial(), mesh, 2, P2, "j3", mats)
        state, _ = run(cfg, mesh, oval_initial(), 2, matrices=mats)
        fixed = np.flatnonzero(np.diff(bc.restriction(mesh, 2).indptr) == 0)
        # bitwise equality, not approximate
        assert np.array_equal(state.curve.dofs[fixed], init.curve.dofs[fixed])
        assert state.energy < init.energy

    def test_constraint_drift_decreases_with_tau(self):
        bc = BoundaryConditions(value_a=(1.0, 0.0), deriv_a=(0.0, 1.0),
                                deriv_b=(0.0, 1.0))
        mesh = Mesh1D.uniform(0.0, 4.0 * np.pi, 10)
        mats = assemble_matrices(mesh, 2)
        violations = []
        for tau in (1 / 10, 1 / 20, 1 / 40):
            cfg = FlowConfig(tau=tau, T=2.0, constraint=P2, bc=bc)
            state, _ = run(cfg, mesh, oval_initial(), 2, matrices=mats)
            violations.append(state.constraint_violation)
        assert violations[1] < violations[0]
        assert violations[2] < violations[1]

    def test_h2_flow_periodic_is_singular(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 8)
        cfg = FlowConfig(tau=0.1, T=0.2, variant="h2", constraint=P2,
                         bc=BoundaryConditions(periodic=True))
        with pytest.raises(FlowSolveError) as info:
            run(cfg, mesh, circle_initial(), 2)
        assert info.value.step_index == 0

    def test_l2_flow_periodic_works(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 10)
        cfg = FlowConfig(tau=0.1, T=0.5, variant="l2", constraint=P2,
                         bc=BoundaryConditions(periodic=True))
        mats = assemble_matrices(mesh, 2)
        init = init_state(circle_initial(), mesh, 2, P2, "j3", mats)
        state, _ = run(cfg, mesh, circle_initial(), 2, matrices=mats)
        dim = 2
        last = 2 * dim * (mesh.nodes.size - 1)
        # increments are tied exactly, so the initial endpoint gap (roundoff
        # of the cumulative initializer) is preserved bitwise
        gap0 = init.curve.dofs[last:last + 2 * dim] - init.curve.dofs[:2 * dim]
        gap = state.curve.dofs[last:last + 2 * dim] - state.curve.dofs[:2 * dim]
        assert_allclose(gap, gap0, rtol=0, atol=1e-15)
        assert np.abs(gap).max() <= 1e-12

    def test_h2_flow_circle(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 12)
        cfg = FlowConfig(tau=0.1, T=2.0, variant="h2", constraint=P2,
                         bc=circle_bc())
        state, _ = run(cfg, mesh, circle_initial(), 2)
        assert state.max_identity_violation <= 1e-12

    def test_bad_config(self):
        # T must be a finite, whole number of finite steps tau
        for tau, T in ((0.0, 1.0), (0.1, -1.0), (np.inf, 1.0), (np.nan, 1.0),
                       (0.1, np.inf), (0.1, np.nan), (0.3, 0.1), (0.1, 0.25),
                       (1e-320, 1.0)):
            with pytest.raises(ValueError):
                FlowConfig(tau=tau, T=T)
        with pytest.raises(ValueError):
            FlowConfig(tau=0.1, T=1.0, variant="h3")

    def test_horizon_of_whole_steps_up_to_rounding(self):
        for tau, T, steps in ((0.1, 0.3, 3), (1.0 / 200.0, 0.5, 100),
                              (0.1, 0.0, 0), (1.0 / 2000.0, 5000.0, 10 ** 7)):
            assert FlowConfig(tau=tau, T=T).num_steps == steps


def _flow_kkt(name, variant, bc_kind, M):
    """The first L2-flow KKT system of a named experiment, rotated as
    ``StepStructure.kkt`` builds it, and its structure."""
    spec = named_experiment(name)
    bc = {"free": BoundaryConditions.free(), "clamped": spec.bc,
          "periodic": BoundaryConditions(periodic=True)}[bc_kind]
    mesh = Mesh1D.uniform(*spec.interval, M)
    mats = assemble_matrices(mesh, spec.dim)
    cfg = FlowConfig(tau=0.1, T=0.1, constraint=variant, bc=bc)
    state = init_state(spec.z0, mesh, spec.dim, variant, "j3", mats)
    structure = StepStructure.build(cfg, mats)
    return structure.kkt(state)[0], structure, cfg, mats


def _refined_dense_solution(system):
    """Dense solve of the KKT system refined three times, each residual
    summed in longdouble from K's exact entries: the reference for the
    banded solves.  With free ends cond_2 K reaches ~4e5 at M=80, and
    residuals summed in float64 leave that reference 1.3e-12 off
    (rotated helix P1, periodic), while the band is within 5e-16."""
    K = np.block([[system.A.toarray(), system.B.T.toarray()],
                  [system.B.toarray(), np.zeros((system.B.shape[0],) * 2)]])
    rhs = np.concatenate([system.rhs_top, system.rhs_bottom])
    reference = np.linalg.solve(K, rhs)
    for _ in range(3):
        residual = rhs.astype(np.longdouble) \
            - K.astype(np.longdouble) @ reference.astype(np.longdouble)
        reference += np.linalg.solve(K, residual.astype(float))
    return reference


class TestTangentFrames:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_frames_are_orthonormal_with_the_tangent_first(self, rng, dim):
        eye = np.eye(dim)
        t = np.concatenate([
            rng.standard_normal((200, dim)) * rng.uniform(0.1, 10.0, (200, 1)),
            eye, -eye, 3.0 * eye, eye + 1e-9 * rng.standard_normal((dim, dim)),
            -eye + 1e-12 * rng.standard_normal((dim, dim)),
            1e-3 * eye[::-1] + eye])       # near +-e_i, and not unit
        Q = tangent_frames(t)
        assert Q.shape == (t.shape[0], dim, dim)
        gram = np.einsum("kci,kcj->kij", Q, Q)
        assert np.abs(gram - eye).max() <= 1e-15
        x = t / np.linalg.norm(t, axis=1, keepdims=True)
        assert np.abs(Q[:, :, 0] - x).max() <= 1e-15
        # N_k^T t_k = 0, relative to |t_k|
        normal = np.einsum("kcj,kc->kj", Q[:, :, 1:], t)
        assert np.abs(normal).max(initial=0.0) \
            <= 1e-15 * np.linalg.norm(t, axis=1).max()

    @pytest.mark.parametrize("variant", [P1, P2])
    @pytest.mark.parametrize("name, bc_kind", [
        ("circle", "free"), ("helix", "clamped"), ("circle", "periodic")])
    def test_residual_is_that_of_every_node_and_midpoint_row(
            self, monkeypatch, name, bc_kind, variant):
        # max |T(Z^n) D P v_r| over the rows of assemble_constraint, which
        # the rotated system solves only in part (P2: the midpoint rows)
        system, structure, cfg, mats = _flow_kkt(name, variant, bc_kind, 12)
        spec = named_experiment(name)
        state = init_state(spec.z0, mats.mesh, spec.dim, variant, "j3", mats)
        solved = []
        real = flow.solve_kkt

        def spy(system, band):
            solved.append(real(system, band=band)[0])
            return solved[-1].copy(), None
        monkeypatch.setattr(flow, "solve_kkt", spy)
        new = step(state, structure)
        nodes = structure.pattern.rows
        nodes = nodes[nodes * variant.stride % 2 == 0]
        deriv = (nodes * variant.stride + 1)[:, None] * spec.dim \
            + np.arange(spec.dim)
        v_r = solved[0].copy()
        v_r[deriv] = np.einsum("kcj,kj->kc", tangent_frames(
            state.tangents[nodes]), solved[0][deriv])
        rows = assemble_constraint(state.curve, variant, cfg.bc,
                                   pattern=structure.pattern)
        assert rows.shape[0] == structure.pattern.rows.size >= nodes.size > 0
        assert new.max_constraint_residual == np.abs(rows @ v_r).max()
        assert new.max_constraint_residual <= 1e-13


class TestStepStructure:
    @pytest.mark.parametrize("M", [1, 2, 5, 80])
    @pytest.mark.parametrize("bc_kind", ["free", "clamped", "periodic"])
    @pytest.mark.parametrize("variant", [P1, P2])
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_banded_solve_matches_general_path(self, name, variant, bc_kind,
                                               M):
        system, structure, _, _ = _flow_kkt(name, variant, bc_kind, M)
        rhs = np.concatenate([system.rhs_top, system.rhs_bottom])
        try:
            structure.band.factor(system.A, system.B)
            banded = structure.band.apply(rhs)
        except KKTSingularError as exc:
            # singular flow KKTs (some single-element meshes): the scaled
            # pivot test rejects them with the same diagnosis for the
            # structure's band as for one built for the call
            with pytest.raises(KKTSingularError) as info:
                solve(system)
            assert info.value.deficiency == exc.deficiency >= 1
            return
        x, lam = solve_kkt(system, band=structure.band)
        assert np.array_equal(np.concatenate([x, lam]), banded)
        assert np.array_equal(np.concatenate(solve(system)), banded)
        reference = _refined_dense_solution(system)
        assert np.linalg.norm(banded - reference) \
            <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("name, variant, width", [
        ("circle", P1, 5), ("circle", P2, 6), ("helix", P1, 9),
        ("helix", P2, 10)])
    def test_bandwidth_independent_of_mesh(self, name, variant, width):
        # the rotated system, its uncoupled rows out of the band (the node
        # rows' system had 8, 9, 11 and 12)
        for bc_kind in ("clamped", "free"):
            widths = [_flow_kkt(name, variant, bc_kind, M)[1].band.bandwidth
                      for M in (20, 1280)]
            assert widths == [width, width], bc_kind

    def test_eliminated_dofs_keep_uncoupled_rows(self):
        system, structure, _, mats = _flow_kkt("circle", P2, "clamped", 5)
        P = named_experiment("circle").bc.restriction(mats.mesh, 2)
        fixed = np.flatnonzero(np.diff(P.indptr) == 0)
        # the tangential component of each node with free derivative DOFs
        tangential = 4 * (structure.nodes * P2.stride // 2) + 2
        A = structure.system.A.toarray()
        assert A.shape == (mats.mass.shape[0],) * 2
        diag = mats.mass.diagonal() + 0.1 * mats.bending.diagonal()
        for rows in (fixed, tangential):
            assert np.array_equal(A[rows], np.diag(diag)[rows])
            assert np.array_equal(A[:, rows], np.diag(diag)[:, rows])
            assert system.B[:, rows].nnz == 0
        x, _ = solve_kkt(system, band=structure.band)
        assert np.all(x[fixed] == 0.0) and np.all(x[tangential] == 0.0)
        # out of the band, after every other unknown
        lone = np.concatenate([fixed, tangential])
        assert set(structure.band.perm[-lone.size:]) == set(lone)

    def test_band_rejects_other_pattern_and_refines_other_matrix(self):
        system, structure, _, _ = _flow_kkt("circle", P2, "clamped", 20)
        other, _, _, _ = _flow_kkt("circle", P1, "clamped", 20)
        n = system.A.shape[0]
        corners = sp.csr_matrix(([1.0, 1.0], ([0, n - 1], [n - 1, 0])),
                                shape=(n, n))
        for mismatched in (
                SaddleSystem(system.A, other.B, system.rhs_top,
                             other.rhs_bottom),
                SaddleSystem(system.A + corners, system.B, system.rhs_top,
                             system.rhs_bottom)):
            with pytest.raises(ValueError, match="band pattern"):
                solve_kkt(mismatched, band=structure.band)
        # the band holds patterns only: it solves A + I, which has A's
        # pattern, with that system's values, and then A again
        shifted = SaddleSystem(system.A + sp.identity(n, format="csr"),
                               system.B, system.rhs_top, system.rhs_bottom)
        for kkt in (shifted, system):
            sol = np.concatenate(solve_kkt(kkt, band=structure.band))
            reference = _refined_dense_solution(kkt)
            assert np.linalg.norm(sol - reference) \
                <= 1e-12 * np.linalg.norm(reference)

    def test_step_builds_structure_like_run(self):
        mesh = Mesh1D.uniform(0.0, 4.0 * np.pi, 12)
        mats = assemble_matrices(mesh, 2)
        bc = BoundaryConditions(value_a=(1.0, 0.0), deriv_a=(0.0, 1.0),
                                deriv_b=(0.0, 1.0))
        cfg = FlowConfig(tau=0.05, T=0.05, variant="h2", constraint=P2, bc=bc)
        state = init_state(oval_initial(), mesh, 2, P2, "j3", mats)
        alone = step(state, StepStructure.build(cfg, mats))
        first, _ = run(cfg, mesh, oval_initial(), 2, matrices=mats)
        assert first.n == alone.n == 1
        assert np.array_equal(alone.curve.dofs, first.curve.dofs)
        assert alone.energy == first.energy
        assert alone.max_identity_violation == first.max_identity_violation

    def test_build_memory_is_bounded(self):
        # tracemalloc over the memory before the build, helix P2 at M=320
        # (the derivative map already cached): the structure keeps 2.572
        # MB and the build holds at most 2.631 MB at once; the bounds are
        # 5% above (the build that sorted its index lists kept 2.628 and
        # peaked at 3.075 MB)
        spec = named_experiment("helix")
        mats = assemble_matrices(Mesh1D.uniform(*spec.interval, 320), 3)
        cfg = FlowConfig(tau=0.1, T=0.1, bc=spec.bc)
        StepStructure.build(cfg, mats)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            structure = StepStructure.build(cfg, mats)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert structure.system.A.shape[0] == 6 * 321
        assert kept - base <= 1.05 * 2.572e6
        assert peak - base <= 1.05 * 2.631e6

    @pytest.mark.parametrize("M", [8, 1280])
    def test_h2_flow_periodic_fails_in_kkt_diagnosis(self, M):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
        cfg = FlowConfig(tau=0.1, T=0.2, variant="h2", constraint=P2,
                         bc=BoundaryConditions(periodic=True))
        start = time.perf_counter()
        with pytest.raises(FlowSolveError) as info:
            run(cfg, mesh, circle_initial(), 2)
        # the band's own pivots diagnose the singular K, with no O(N^3) work
        assert time.perf_counter() - start < 1.0
        assert isinstance(info.value.__cause__, KKTSingularError)
        assert info.value.__cause__.deficiency >= 1

    @pytest.mark.parametrize("name, variant, M, flow, free, tau, steps", [
        ("oval-h2", P2, 320, "h2", False, 1.0 / 200.0, 3),
        ("oval-h2", P2, 1280, "h2", False, 1.0 / 200.0, 3),
        ("oval-h2", P2, 1280, "l2", False, 1.0 / 200.0, 3),
        ("circle", P2, 320, "l2", True, 0.1, 2),
        ("helix", P1, 320, "l2", True, 0.1, 2),
    ])
    def test_fine_mesh_flow_takes_its_steps(self, name, variant, M, flow,
                                            free, tau, steps):
        # sound solves (backward error below 1e-17) whose relative residual
        # exceeds 1e-10 at these M
        spec = named_experiment(name, constraint=variant)
        bc = BoundaryConditions.free() if free else spec.bc
        cfg = FlowConfig(tau=tau, T=steps * tau, variant=flow,
                         constraint=variant, bc=bc)
        state, _ = run(cfg, Mesh1D.uniform(*spec.interval, M), spec.z0,
                       spec.dim, initializer=spec.initializer)
        assert state.n == steps
        assert state.max_constraint_residual <= 1e-12


    @pytest.mark.parametrize("name, tau, steps", [
        ("circle", 0.1, 2), ("helix", 0.1, 2), ("oval-h2", 1.0 / 200.0, 3)])
    def test_fine_mesh_energy_identity(self, name, tau, steps):
        # the identity compares O(1) energies, so its defect shows the
        # roundoff of the bending forms, whose terms grow like 1/h^3
        spec = named_experiment(name)
        cfg = FlowConfig(tau=tau, T=steps * tau, variant="l2",
                         constraint=spec.constraint, bc=spec.bc)
        state, _ = run(cfg, Mesh1D.uniform(*spec.interval, 1280), spec.z0,
                       spec.dim, initializer=spec.initializer)
        assert state.n == steps
        assert state.max_identity_violation <= 1e-12


def _on_pattern(values: sp.csr_matrix, template: sp.csr_matrix):
    """``values`` placed on the pattern of ``template``, which must hold
    every nonzero of it (a sparse product drops the entries it computes as
    0, the step keeps them)."""
    if not template.nnz:
        return template.copy()
    held = template.copy()
    held.data = np.ones(held.nnz)
    assert (abs(values) - abs(values).multiply(held)).count_nonzero() == 0
    rows = np.repeat(np.arange(template.shape[0]), np.diff(template.indptr))
    placed = template.copy()
    placed.data = np.asarray(values[rows, template.indices], dtype=float).ravel()
    return placed


def _reference_run(cfg, mesh, spec, mats):
    """The flow from sparse pieces: P^T A P from ``restrict``, the node and
    midpoint rows from ``assemble_constraint``, the frames as an explicit
    sparse Q, the rotated system as products with Q (each entry of A times
    its entry of Q^T E Q, E A's pattern without the rotated nodes' own
    blocks, whose Q_k^T Q_k is I), solved with a band built per solve, and
    the drift from the curve.  Also solves each step unrotated.
    Returns the final (dofs, energy, identity, constraint residual, drift)
    and the largest |v - v_unrotated| / max(|v_unrotated|, 1) over the
    steps (max norms; the circle's velocities are roundoff)."""
    structure = StepStructure.build(cfg, mats)
    pattern, d, tau = structure.pattern, spec.dim, cfg.tau
    P = pattern.restriction
    n = P.shape[0]
    A_form = ({"mass": 1.0, "bending": tau} if cfg.variant == "l2"
              else {"bending": 1.0 + tau})
    A = pattern.restrict(mats.combine(**A_form))
    scalar = sp.kron(pattern.restrict(mats.combine(1, **A_form), d),
                     np.ones((d, d)), format="csr")
    # the rotated nodes: those of the node rows; their tangential DOFs
    nodes = pattern.rows[pattern.rows * cfg.constraint.stride % 2 == 0]
    deriv = (nodes * cfg.constraint.stride + 1)[:, None] * d + np.arange(d)
    own = np.zeros(n)
    own[deriv] = 1.0
    E = A.copy()
    E.data[:] = 1.0
    E = E - sp.diags(own, format="csr")
    E.eliminate_zeros()
    normal = np.ones(n)
    normal[deriv[:, 0]] = 0.0
    T = sp.diags(normal, format="csr")
    midpoints = np.flatnonzero(pattern.rows * cfg.constraint.stride % 2)
    coef = pattern.template.copy()
    coef.data = pattern.coef
    state = init_state(spec.z0, mesh, spec.dim, cfg.constraint,
                       spec.initializer, mats)
    Z, energy, identity, residual = state.curve, state.energy, 0.0, 0.0
    worst = 0.0
    for _ in range(cfg.num_steps):
        t = Z.derivative_at_constraint_nodes(cfg.constraint)
        rotated = np.setdiff1d(np.arange(n), deriv)
        Q = sp.csr_matrix((
            np.concatenate([np.ones(rotated.size),
                            tangent_frames(t[pattern.rows[
                                pattern.rows * cfg.constraint.stride % 2 == 0]]
                                           ).ravel()]),
            (np.concatenate([rotated, np.repeat(deriv, d)]),
             np.concatenate([rotated, np.tile(deriv, d).ravel()]))),
            shape=(n, n))
        G = T @ (Q.T @ E @ Q).multiply(scalar) @ T + sp.diags(A.diagonal() * own)
        rows = assemble_constraint(Z, cfg.constraint, cfg.bc, pattern=pattern)
        tangents = pattern.template.copy()
        tangents.data = t.ravel()[pattern.tangent]
        B_rot = ((tangents @ Q).multiply(coef) @ T)[midpoints]
        f = P.T @ -mats.apply_bending(Z.dofs)
        w, _ = solve(SaddleSystem(
            _on_pattern(G, structure.system.A),
            _on_pattern(B_rot, structure.system.B),
            T @ (Q.T @ f), np.zeros(midpoints.size)))
        v_r = Q @ w
        v = P @ v_r
        unrotated = P @ solve(SaddleSystem(A, rows, f,
                                           np.zeros(rows.shape[0])))[0]
        worst = max(worst, np.abs(v - unrotated).max()
                    / max(np.abs(unrotated).max(), 1.0))
        dofs = Z.dofs + tau * v
        v_mass, v_bend, new_energy, _ = mats.step_forms(v, dofs)
        if cfg.variant == "l2":
            err = abs(new_energy - energy + tau * v_mass + 0.5 * tau**2 * v_bend)
        else:
            err = abs(new_energy - energy + (tau + 0.5 * tau**2) * v_bend)
        identity = max(identity, err / max(1.0, abs(energy)))
        residual = max(residual, float(np.abs(rows @ v_r).max()))
        Z, energy = HermiteCurve.from_dofs(mesh, spec.dim, dofs), new_energy
    return (Z.dofs, energy, identity, residual,
            unit_speed_violation(Z, cfg.constraint)), worst


class TestStepPath:
    @pytest.mark.parametrize("name, variant, bc_kind, flow_variant, tau, M", [
        pytest.param(*case, 10, id="-".join(map(str, case))) for case in [
            ("oval-h2", P2, "spec", "h2", 1.0 / 200.0),
            ("oval-h2", P2, "spec", "l2", 1.0 / 200.0),
            ("circle", P1, "free", "l2", 0.05),
            ("helix", P2, "periodic", "l2", 0.05),
            ("circle", P2, "spec", "l2", 0.05)]
    ] + [
        # periodic ties that wrap the index maps (circle P2 at M=1 is
        # singular); the helix's every end DOF fixed, under the H2 flow
        (name, variant, "periodic", "l2", 0.05, M)
        for name in ("circle", "helix") for variant in (P1, P2)
        for M in (1, 2, 3) if M > 1 or variant is P1
    ] + [("helix", variant, "spec", "h2", 0.05, M)
         for variant in (P1, P2) for M in (2, 5)])
    def test_run_matches_sparse_reference_bitwise(self, name, variant,
                                                  bc_kind, flow_variant, tau,
                                                  M):
        spec = named_experiment(name, constraint=variant)
        bc = {"spec": spec.bc, "free": BoundaryConditions.free(),
              "periodic": BoundaryConditions(periodic=True)}[bc_kind]
        mesh = Mesh1D.uniform(*spec.interval, M)
        mats = assemble_matrices(mesh, spec.dim)
        cfg = FlowConfig(tau=tau, T=20 * tau, variant=flow_variant,
                         constraint=variant, bc=bc)
        state, _ = run(cfg, mesh, spec.z0, spec.dim,
                       initializer=spec.initializer, matrices=mats)
        (dofs, energy, identity, residual, drift), worst = _reference_run(
            cfg, mesh, spec, mats)
        assert state.n == 20
        assert np.array_equal(state.curve.dofs, dofs)
        assert state.energy == energy
        assert state.max_identity_violation == identity
        assert state.max_constraint_residual == residual
        assert state.constraint_violation == drift
        # the rotation changes only the rounding of a step's velocity: at
        # most 4.1e-15 here (oval-h2, H2 flow), a bound 24 times that
        assert worst <= 1e-13

    def test_tangents_computed_once_per_curve(self, monkeypatch):
        curves = []
        derivative = HermiteCurve.derivative_at_constraint_nodes
        start = flow.init_state

        def spy(curve, variant):
            curves.append(curve)
            return derivative(curve, variant)

        def init_spy(*args, **kwargs):
            state = start(*args, **kwargs)
            curves.clear()
            return state

        monkeypatch.setattr(HermiteCurve, "derivative_at_constraint_nodes",
                            spy)
        monkeypatch.setattr(flow, "init_state", init_spy)
        spec = named_experiment("oval-h2")
        cfg = FlowConfig(tau=1.0 / 200.0, T=0.05, variant="h2",
                         constraint=spec.constraint, bc=spec.bc)
        state, _ = run(cfg, Mesh1D.uniform(*spec.interval, 10), spec.z0,
                       spec.dim)
        # one call per step, each on the new curve Z^{n+1}
        assert state.n == cfg.num_steps == len(curves) == 10
        assert curves[-1] is state.curve
        assert len({id(c) for c in curves}) == len(curves)


def test_snapshots_and_trajectory_dump(tmp_path):
    mesh = Mesh1D.uniform(0.0, 4.0 * np.pi, 6)
    bc = BoundaryConditions(value_a=(1.0, 0.0), deriv_a=(0.0, 1.0),
                            deriv_b=(0.0, 1.0))
    cfg = FlowConfig(tau=0.1, T=1.0, constraint=P2, bc=bc)
    state, snaps = run(cfg, mesh, oval_initial(), 2, snapshot_stride=5)
    assert [n for n, _ in snaps] == [0, 5, 10]
    path = os.path.join(tmp_path, "traj.txt")
    dump_trajectory(snaps, cfg.tau, path)
    blocks = open(path).read().strip().split("\n\n")
    assert len(blocks) == 3
    first = blocks[0].splitlines()
    assert first[0].startswith("# step 0")
    rows = [line.split() for line in first[1:]]
    assert len(rows) == 6 * 10 + 1  # ten points per element plus endpoint
    assert all(len(r) == 3 for r in rows)  # x u1 u2
    assert float(rows[0][1]) == pytest.approx(1.0)


def test_trajectory_dump_is_the_per_value_layout(tmp_path):
    # byte for byte the rows " ".join(f"{v:.12g}") of every sample point,
    # also for negative, tiny and huge values
    spec = named_experiment("helix")
    cfg = FlowConfig(tau=0.05, T=0.2, constraint=spec.constraint, bc=spec.bc)
    _, snaps = run(cfg, Mesh1D.uniform(*spec.interval, 8), spec.z0, spec.dim,
                   snapshot_stride=2)
    odd = HermiteCurve(Mesh1D.uniform(-1.0, 2.0, 1), 2,
                       [[-2.5e-7, 1e-300], [1e15, 1.0 / 3.0]], np.zeros((2, 2)))
    snaps.append((7, odd))
    path = os.path.join(tmp_path, "traj.txt")
    dump_trajectory(snaps, cfg.tau, path)
    lines = []
    for n, curve in snaps:
        mesh, t = curve.mesh, np.linspace(0.0, 1.0, 10, endpoint=False)
        x = np.append(mesh.nodes[:-1, None]
                      + np.outer(mesh.element_lengths, t), mesh.b)
        lines.append(f"# step {n} t={n * cfg.tau:.6g}")
        lines += [" ".join(f"{v:.12g}" for v in (xi, *row))
                  for xi, row in zip(x, curve.eval(x))]
        lines.append("")
    with open(path, "rb") as fh:
        assert fh.read() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("variant", ["l2", "h2"])
def test_clamped_single_element_stays_put(variant):
    # helix's ends fix every DOF of one element: its P2 midpoint row keeps
    # no entry and is dropped, and each step solves for v = 0
    spec = named_experiment("helix")
    mesh = Mesh1D.uniform(*spec.interval, 1)
    cfg = FlowConfig(tau=0.1, T=0.3, variant=variant, constraint=P2,
                     bc=spec.bc)
    start = init_state(spec.z0, mesh, spec.dim, P2)
    state, _ = run(cfg, mesh, spec.z0, spec.dim)
    assert state.n == 3 and state.last_velocity_norm == 0.0
    assert np.array_equal(state.curve.dofs, start.curve.dofs)
    structure = StepStructure.build(cfg, assemble_matrices(mesh, spec.dim))
    assert structure.system.B.shape == (0, 2 * 2 * spec.dim)
