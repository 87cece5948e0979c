"""The per-mesh structures built by index arithmetic against the scipy
constructions they replace, inlined here as oracles, bit for bit: the
derivative map D, the constraint pattern, P^T A P, the sums of the system
matrices, the Jacobian's terms placed on P^T S P, which holds the union of
their pattern and the H2 Gram's, the natural-order KKT graph of the band's
reverse Cuthill-McKee branch, the band's order and K's pattern in it, and
``csr_pattern`` itself.  Guards: every matrix of a mesh has the pattern its
elements couple, whatever its values; no general sparse operation runs in
set-up, nor in a stationary solve once the mesh's structures exist."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from scipy.sparse import csgraph
from hypothesis import strategies as st

from elastica_fem import (BoundaryConditions, ConstraintVariant, FlowConfig,
                          Mesh1D, assemble_matrices, saddle_solver)
from elastica_fem.assembly import (constraint_pattern, csr_pattern,
                                   derivative_map)
from elastica_fem.experiments import named_experiment
from elastica_fem.flow import StepStructure
from elastica_fem.stationary import (DiscreteNorms, _jacobian_pattern,
                                     _pattern, _upper_band,
                                     coercivity_estimate, infsup_estimate,
                                     make_interpolant_pair, newton_solve,
                                     residual_dual_norm)

from conftest import element_pattern

P1, P2 = ConstraintVariant.P1, ConstraintVariant.P2


# ---------------------------------------------------------------------------
# the scipy constructions of the parent commit

def scipy_derivative_map(mesh, dim, variant):
    node = np.arange(mesh.nodes.size)[:, None]
    comp = np.arange(dim)
    rows, cols = [2 * dim * node + comp], [2 * dim * node + dim + comp]
    elem = np.arange(mesh.num_elements)[:, None, None]
    h = mesh.element_lengths[:, None, None]
    quarter = np.full(h.shape, -0.25)
    cols.append(2 * dim * elem + comp[:, None] + dim * np.arange(4))
    rows.append(np.broadcast_to(dim * (2 * elem + 1) + comp[:, None],
                                cols[1].shape))
    vals = [np.ones(rows[0].shape), np.broadcast_to(
        np.concatenate([-1.5 / h, quarter, 1.5 / h, quarter], axis=2),
        cols[1].shape)]
    data, row, col = (np.concatenate([a.ravel() for a in parts])
                      for parts in (vals, rows, cols))
    nz = 2 * mesh.num_elements + 1
    D = sp.csr_matrix((data, (row, col)),
                      shape=(dim * nz, 2 * dim * mesh.nodes.size))
    return D[(dim * np.arange(0, nz, variant.stride)[:, None] + comp).ravel()]


def scipy_constraint_pattern(D, P, dim, variant, rows=None):
    """(template, coef, tangent, rows, columns) from D @ P, its row
    selection and a lexsort."""
    columns = np.full(P.shape[0], P.shape[1])
    columns[np.diff(P.indptr) > 0] = P.indices
    if rows is None:
        cols, first = np.unique(columns, return_index=True)
        own = np.isin(np.arange(P.shape[0]), first[cols < P.shape[1]])
        keep = np.ones(P.shape[0] // dim - 1, dtype=bool)
        keep[::2] = own.reshape(-1, 2, dim)[:, 1].all(axis=1)
        rows = np.flatnonzero(keep[::variant.stride])
    sel = (dim * rows[:, None] + np.arange(dim)).ravel()
    DP = (D @ P)[sel]
    counts = np.diff(DP.indptr)
    tangent = np.repeat(sel, counts)
    out_row = np.repeat(np.repeat(np.arange(rows.size), dim), counts)
    order = np.lexsort((DP.indices, out_row))
    template = sp.csr_matrix(
        (np.zeros(order.size), DP.indices[order],
         np.concatenate([[0], np.cumsum(counts.reshape(-1, dim).sum(axis=1))])),
        shape=(rows.size, P.shape[1]))
    return template, DP.data[order], tangent[order], rows, columns


def scipy_restrict(columns, k, A):
    """P^T A P by a stable argsort of the (row, column) keys and
    ``sum_duplicates``, with A's diagonal in the empty columns."""
    c = columns
    gone = np.flatnonzero(np.bincount(c, minlength=k + 1)[:k] == 0)
    rows = np.append(np.repeat(c, np.diff(A.indptr)), gone)
    cols = np.append(c[A.indices], gone)
    kept = np.flatnonzero((rows < k) & (cols < k))
    kept = kept[np.argsort(rows[kept] * k + cols[kept], kind="stable")]
    reduced = sp.csr_matrix(
        (np.append(A.data, A.diagonal()[gone])[kept], cols[kept],
         np.searchsorted(rows[kept], np.arange(k + 1))), shape=(k, k))
    reduced.sum_duplicates()
    return reduced


def scipy_jacobian_pattern(matrices, pattern, variant, gram):
    """(template, slot) of the union of the Jacobian's terms and the Gram's
    entries from ``np.unique``; slot places the D^T D terms."""
    D, S, c = matrices.derivative_map(variant), matrices.bending, pattern.columns
    k = pattern.restriction.shape[1]
    lo, hi = D.indptr[:-1, None], D.indptr[1:, None]
    entry = lo + np.arange((hi - lo).max())
    both = (entry < hi)[:, :, None] & (entry < hi)[:, None, :]
    e, f = (np.broadcast_to(x, both.shape)[both]
            for x in (entry[:, :, None], entry[:, None, :]))
    rows = c[np.append(D.indices[e],
                       np.repeat(np.arange(S.shape[0]), np.diff(S.indptr)))]
    cols = c[np.append(D.indices[f], S.indices)]
    kept = (rows < k) & (cols < k)
    gram_rows = np.repeat(np.arange(k), np.diff(gram.indptr))
    keys, slot = np.unique(np.append(rows[kept] * k + cols[kept],
                                     gram_rows * k + gram.indices),
                           return_inverse=True)
    template = sp.csr_matrix(
        (np.zeros(keys.size), keys % k,
         np.searchsorted(keys, k * np.arange(k + 1))), shape=(k, k))
    return template, slot[:np.count_nonzero(kept[:e.size])]


def on_pattern(A, template):
    """A's values at the entries of ``template``, +0.0 where A has none."""
    return A.toarray()[np.repeat(np.arange(template.shape[0]),
                                 np.diff(template.indptr)), template.indices]


def scipy_upper_band(A):
    off = A.indices - np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    ab, up = np.zeros((off.max() + 1, A.shape[0])), off >= 0
    ab[off.max() - off[up], A.indices[up]] = A.data[up]
    return ab


def sorted_band(A, B):
    """(perm, bandwidth, slot, indptr, indices, pos) of the band of K =
    [[A, B^T], [B, 0]] by sorting: the unknowns along the curve, each
    multiplier at the middle of its row's columns (the first and last
    rows' before and after them), those of uncoupled rows last; where
    that band is over half the size, the reverse Cuthill-McKee order of
    K's COO pattern if narrower; K's entries in the order by one stable
    argsort of their (row, column) keys."""
    n, m = A.shape[0], B.shape[0]
    size = n + m
    ends = np.zeros((2, m))
    filled = np.diff(B.indptr) > 0
    ends[0, filled] = B.indices[B.indptr[:-1][filled]]
    ends[1, filled] = B.indices[B.indptr[1:][filled] - 1]
    middle = ends.mean(axis=0)
    if m:
        first, last = middle.argmin(), middle.argmax()
        middle[first] = ends[0, first] - 0.5
        middle[last] = ends[1, last] + 0.5
    a_rows = np.repeat(np.arange(n), np.diff(A.indptr))
    b_rows = np.repeat(np.arange(m), np.diff(B.indptr))
    rows = np.concatenate([a_rows, n + b_rows, B.indices])
    cols = np.concatenate([A.indices, B.indices, n + b_rows])
    lone = np.diff(A.indptr) == 1
    lone[lone] = A.indices[A.indptr[:-1][lone]] == np.flatnonzero(lone)
    lone &= np.bincount(B.indices, minlength=n) == 0
    lone = np.append(lone, np.zeros(m, dtype=bool))

    def ordered(perm):
        inv = np.empty(size, dtype=np.intp)
        inv[perm] = np.arange(size)
        return (int(np.abs(inv[rows] - inv[cols]).max(initial=0)), perm,
                inv[rows], inv[cols])
    order = ordered(np.argsort(np.where(lone, size, np.concatenate(
        [np.arange(n), middle])), kind="stable"))
    if 2 * order[0] > size:
        graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                              shape=(size, size))
        rcm = csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
        order = min(order, ordered(rcm[np.argsort(lone[rcm], kind="stable")]),
                    key=lambda o: o[0])
    bw, perm, rows, cols = order
    src = np.argsort(rows * size + cols, kind="stable")
    slot = np.empty(src.size, dtype=np.int32)
    slot[src] = np.arange(src.size)
    rows, cols = rows[src], cols[src]
    band = max(size - int(lone.sum()), min(size, 1))
    in_band = np.count_nonzero(rows < band)
    return (perm, bw, slot, np.searchsorted(rows, np.arange(size + 1)), cols,
            (cols * (3 * bw + 1) + 2 * bw + rows - cols)[:in_band])


# ---------------------------------------------------------------------------

def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if want.dtype.kind == "f":
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    else:
        assert np.array_equal(got, want)


def same_csr(got, want):
    assert got.shape == want.shape
    assert got.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        same_bits(getattr(got, attr), getattr(want, attr))


def boundary_conditions(dim):
    e = np.eye(dim)[0]
    return [BoundaryConditions.free(),
            BoundaryConditions(value_a=np.zeros(dim), deriv_a=e, deriv_b=e),
            BoundaryConditions.clamped(np.zeros(dim), e, np.ones(dim), e),
            BoundaryConditions(periodic=True)]


def assert_structures_match_scipy(mesh, dim):
    mats = assemble_matrices(mesh, dim)
    gram = mats.mass + mats.combine(gradient=1.0) + mats.bending
    flows = (mats.mass + 0.1 * mats.bending, 1.1 * mats.bending)
    same_csr(mats.combine(mass=1.0, gradient=1.0, bending=1.0), gram)
    same_csr(mats.combine(mass=1.0, bending=0.1), flows[0])
    same_csr(mats.combine(bending=1.1), flows[1])
    for variant in (P1, P2):
        D = derivative_map(mesh, dim, variant)
        same_csr(D, scipy_derivative_map(mesh, dim, variant))
        nz = mesh.constraint_nodes(variant).size
        for bc in boundary_conditions(dim):
            # the flow's full restriction, and the stationary rows at the
            # interior constraint nodes (endpoint conditions only)
            cases = [(False, None), (True, None)] + (
                [] if bc.periodic else [(False, np.arange(1, nz - 1))])
            for full, rows in cases:
                P = bc.restriction(mesh, dim, full=full)
                pattern = constraint_pattern(D, P, dim, variant, rows=rows)
                template, coef, tangent, want_rows, columns = \
                    scipy_constraint_pattern(D, P, dim, variant, rows=rows)
                same_csr(pattern.template, template)
                same_bits(pattern.coef, coef)
                same_bits(pattern.tangent, tangent)
                same_bits(pattern.rows, want_rows)
                same_bits(pattern.columns, columns)
                for A in (gram,) + flows:
                    same_csr(pattern.restrict(A),
                             scipy_restrict(columns, P.shape[1], A))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 2, 5, 20, 1280])
@pytest.mark.parametrize("name", ["circle", "helix", "oval-h2"])
def test_structures_bitwise_equal_scipy(name, M, dim):
    assert_structures_match_scipy(
        Mesh1D.uniform(*named_experiment(name).interval, M), dim)


@given(st.lists(st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
                min_size=1, max_size=40),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_graded_structures_bitwise_equal_scipy(widths, dim):
    assert_structures_match_scipy(
        Mesh1D(np.concatenate([[0.0], np.cumsum(widths)])), dim)


@pytest.mark.parametrize("variant", [P1, P2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_periodic_restrict_sums_ties_in_entry_order(variant, dim):
    # at M=1 the last node is node 0: four entries of A meet at each entry
    # of node 0's block, and at M=2 two; values of spread magnitudes make
    # the bits depend on the order of the sum
    rng = np.random.default_rng(dim)
    for M in (1, 2):
        mesh = Mesh1D.uniform(0.0, 1.0, M)
        A = assemble_matrices(mesh, dim).combine(mass=1.0, bending=1.0)
        A.data = rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-8, 9, A.nnz)
        for full in (False, True):
            P = BoundaryConditions(periodic=True).restriction(mesh, dim,
                                                             full=full)
            pattern = constraint_pattern(derivative_map(mesh, dim, variant), P,
                                         dim, variant)
            got = pattern.restrict(A)
            same_csr(got, scipy_restrict(pattern.columns, P.shape[1], A))
            terms = [A[i, j] for i in (0, 2 * dim * M) for j in (0, 2 * dim * M)
                     if A[i, j] != 0.0]
            assert len(terms) == (4 if M == 1 else 2)
            assert got[0, 0] == sum(terms)     # in A's entry order


@pytest.mark.parametrize("M", [1, 2, 5, 20, 1280])
@pytest.mark.parametrize("name", ["circle", "helix"])
def test_jacobian_and_gram_bitwise_equal_scipy(name, M):
    spec = named_experiment(name)
    mats = assemble_matrices(Mesh1D.uniform(*spec.interval, M), spec.dim)
    for variant in (P1, P2):
        if mats.mesh.constraint_nodes(variant).size <= 2:
            continue
        for bc in (spec.bc, BoundaryConditions.free()):
            pattern = _pattern(mats, variant, bc)
            k = pattern.restriction.shape[1]
            gram = scipy_restrict(pattern.columns, k, mats.mass
                                  + mats.combine(gradient=1.0) + mats.bending)
            template, slot = scipy_jacobian_pattern(mats, pattern, variant,
                                                    gram)
            got = _jacobian_pattern(mats, variant, bc)
            # the union is the pattern of P^T S P, which holds S's values
            template.data = on_pattern(
                scipy_restrict(pattern.columns, k, mats.bending), template)
            same_csr(got[0], template)
            same_bits(got[1], slot)
            if k == 0:     # every DOF fixed
                with pytest.raises(ValueError):
                    DiscreteNorms.build(mats, bc, variant)
                continue
            norms = DiscreteNorms.build(mats, bc, variant)
            same_csr(norms.gram, gram)
            same_bits(_upper_band(norms.gram), scipy_upper_band(gram))
            # the Gram on that pattern
            template.data = on_pattern(gram, template)
            same_csr(norms.gram, template)


def same_pattern(got, want):
    assert got.shape == want.shape
    same_bits(got.indptr, want.indptr)
    same_bits(got.indices, want.indices)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 2, 5, 20, 1280])
@pytest.mark.parametrize("name", ["circle", "helix", "oval-h2"])
def test_one_pattern_per_mesh(name, M, dim):
    # the elements fix every pattern, not the values: entries that cancel
    # stay.  So the L2 and H2 flows of a mesh share their KKT structure,
    # and the H2 Gram has the Newton Jacobian's pattern
    mesh = Mesh1D.uniform(*named_experiment(name).interval, M)
    mats = assemble_matrices(mesh, dim)
    want = element_pattern(mesh, dim)
    for matrix in (mats.mass, mats.bending, mats.combine(gradient=1.0),
                   mats.combine(mass=1.0, gradient=1.0, bending=1.0),
                   mats.combine(mass=1.0, bending=0.1)):
        same_pattern(matrix, want)
    for variant in (P1, P2):
        for bc in boundary_conditions(dim):
            l2, h2 = (StepStructure.build(FlowConfig(
                tau=0.1, T=0.1, variant=flow, constraint=variant, bc=bc), mats)
                for flow in ("l2", "h2"))
            same_pattern(l2.system.A, h2.system.A)
            same_pattern(l2.system.B, h2.system.B)
            same_bits(l2.band.perm, h2.band.perm)
            if bc.periodic or mesh.constraint_nodes(variant).size <= 2 \
                    or not _pattern(mats, variant, bc).restriction.shape[1]:
                continue
            same_pattern(DiscreteNorms.build(mats, bc, variant).gram,
                         _jacobian_pattern(mats, variant, bc)[0])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 2, 5, 20])
def test_band_graph_is_coo_pattern(monkeypatch, M, dim):
    # periodic flows and tiny meshes take the reverse Cuthill-McKee branch;
    # its graph is K's pattern in the natural order, as the COO
    # construction of K's entries gives it.  The rotated flow systems are
    # narrower and miss the branch at some (M, dim), so the node-row
    # systems P^T A P with every row of T(Z) D P go through a band as well
    graphs, rcm = [], saddle_solver.csgraph.reverse_cuthill_mckee

    def spy(graph, symmetric_mode):
        graphs.append(graph)
        return rcm(graph, symmetric_mode=symmetric_mode)

    monkeypatch.setattr(saddle_solver.csgraph, "reverse_cuthill_mckee", spy)
    mats = assemble_matrices(Mesh1D.uniform(0.0, 2.0 * np.pi, M), dim)
    taken = 0
    for variant in (P1, P2):
        for bc in (BoundaryConditions(periodic=True),
                   BoundaryConditions.free()):
            structure = StepStructure.build(
                FlowConfig(tau=0.1, T=0.1, constraint=variant, bc=bc), mats)
            pattern = structure.pattern
            node_rows = (pattern.restrict(mats.combine(mass=1.0, bending=0.1)),
                         pattern.template)
            for A, B in ((structure.system.A, structure.system.B),
                         node_rows):
                graphs.clear()
                saddle_solver.BandedKKT(A, B)
                if not graphs:
                    continue
                taken += 1
                n, m = A.shape[0], B.shape[0]
                a_rows = np.repeat(np.arange(n), np.diff(A.indptr))
                b_rows = np.repeat(np.arange(m), np.diff(B.indptr))
                rows = np.concatenate([a_rows, n + b_rows, B.indices])
                cols = np.concatenate([A.indices, B.indices, n + b_rows])
                want = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                                     shape=(n + m, n + m))
                same_bits(graphs[0].indptr, want.indptr)
                same_bits(graphs[0].indices, want.indices)
    assert taken        # the branch ran


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 2, 5, 20])
def test_band_order_equals_sorted_band(M, dim):
    # the flow's rotated system (free and periodic ends), and the Newton
    # Jacobian's and the H2 Gram's patterns (free and clamped ends; the
    # stationary routines take no periodic ends): the band's order, K's
    # pattern in it and the place of every entry as sorting gave them
    mats = assemble_matrices(Mesh1D.uniform(0.0, 2.0 * np.pi, M), dim)
    e = np.eye(dim)[0]
    systems = []
    for variant in (P1, P2):
        for bc in (BoundaryConditions(periodic=True),
                   BoundaryConditions.free()):
            for flow in ("l2", "h2"):
                structure = StepStructure.build(FlowConfig(
                    tau=0.1, T=0.1, variant=flow, constraint=variant, bc=bc),
                    mats)
                systems.append((structure.system.A, structure.system.B))
        if mats.mesh.constraint_nodes(variant).size <= 2:
            continue
        for bc in (BoundaryConditions.free(), BoundaryConditions.clamped(
                np.zeros(dim), e, np.ones(dim), e)):
            pattern = _pattern(mats, variant, bc)
            if pattern.restriction.shape[1] == 0:
                continue
            systems.append((_jacobian_pattern(mats, variant, bc)[0],
                            pattern.template))
            systems.append((DiscreteNorms.build(mats, bc, variant).gram,
                            pattern.template))
    for A, B in systems:
        band = saddle_solver.BandedKKT(A, B)
        perm, bw, slot, indptr, indices, pos = sorted_band(A, B)
        same_bits(band.perm, perm)
        assert band.bandwidth == bw
        same_bits(band._slot, slot)
        same_bits(band._k.indptr, indptr.astype(np.int32))
        same_bits(band._k.indices, indices.astype(np.int32))
        same_bits(band._pos, pos)


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
@settings(max_examples=200, deadline=None)
def test_csr_pattern_is_unique_with_inverse(nrows, ncols, nnz, seed, runs):
    # any entries, repeated ones and columns far from the diagonal included
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, ncols, nnz)
    if runs:    # three presorted runs, as entries that periodic ends
        # tie arrive
        key = rows * ncols + cols
        order = np.concatenate([
            run[np.argsort(key[run], kind="stable")] for run in
            np.split(np.arange(nnz), np.sort(rng.integers(0, nnz + 1, 2)))])
        rows, cols = rows[order], cols[order]
    keys, slot = np.unique(rows * ncols + cols, return_inverse=True)
    indptr, indices, got_slot = csr_pattern(rows, cols, (nrows, ncols))
    assert np.array_equal(indptr, np.searchsorted(keys, ncols * np.arange(
        nrows + 1)))
    assert np.array_equal(indices, keys % ncols)
    assert np.array_equal(got_slot, slot)


def forbid_sparse(monkeypatch, operators, entry_points):
    """Make each (class, method) of ``entry_points`` raise, and each binary
    operator in ``operators`` raise when both operands are sparse."""
    from scipy.sparse import _base

    def forbidden(*args, **kwargs):
        raise AssertionError("a general sparse operation ran")

    def no_sparse(name):
        original = getattr(_base._spbase, name)

        def guarded(self, other):
            if sp.issparse(other):
                forbidden()
            return original(self, other)
        return guarded

    for cls, method in entry_points:
        monkeypatch.setattr(cls, method, forbidden)
    for name in operators:
        monkeypatch.setattr(_base._spbase, name, no_sparse(name))


def test_setup_uses_no_general_sparse_operations(monkeypatch):
    # DiscreteNorms.build, StepStructure.build, _jacobian_pattern and
    # BandedKKT(A, B) build each matrix as one CSR array: no COO
    # construction, no sparse product or sum, no fancy row indexing
    from scipy.sparse import _coo, _index

    spec = named_experiment("helix")
    mats = [assemble_matrices(Mesh1D.uniform(*spec.interval, 6), 3)
            for _ in range(2)]
    forbid_sparse(monkeypatch, ("__matmul__", "__add__", "__radd__"),
                  [(_coo._coo_base, "__init__"),
                   (_index.IndexMixin, "__getitem__")])
    for variant in (P1, P2):
        norms = DiscreteNorms.build(mats[0], spec.bc, variant)
        template = _jacobian_pattern(mats[0], variant, spec.bc)[0]
        saddle_solver.BandedKKT(norms.gram, _pattern(mats[0], variant,
                                                     spec.bc).template)
        saddle_solver.BandedKKT(template, _pattern(mats[0], variant,
                                                   spec.bc).template)
        for bc in (spec.bc, BoundaryConditions(periodic=True)):
            for flow in ("l2", "h2"):
                StepStructure.build(FlowConfig(tau=0.1, T=0.1, variant=flow,
                                               constraint=variant, bc=bc),
                                    mats[1])


def test_stationary_solves_use_no_sparse_construction(monkeypatch):
    # once a mesh's KKT structure exists, the Brezzi estimates and Newton
    # work on data arrays: no COO or CSR construction, no transpose, no
    # sparse-with-sparse sum, difference or product
    from scipy.sparse import _base, _compressed, _coo

    cases = []
    for name in ("circle", "helix"):
        spec = named_experiment(name)
        mesh = Mesh1D.uniform(*spec.interval, 10)
        mats = assemble_matrices(mesh, spec.dim)
        for variant in (P1, P2):
            pair = make_interpolant_pair(spec.exact.oracle,
                                         spec.exact.multiplier, mesh,
                                         spec.dim, variant)
            args = (pair, variant, spec.bc, mats,
                    DiscreteNorms.build(mats, spec.bc, variant))
            coercivity_estimate(*args)      # builds the structures
            cases.append(args)
    forbid_sparse(monkeypatch, ("__matmul__", "__rmatmul__", "__add__",
                                "__radd__", "__sub__", "__rsub__"),
                  [(_coo._coo_base, "__init__"),
                   (_compressed._cs_matrix, "__init__"),
                   (_base._spbase, "transpose")])
    for args in cases:
        for estimate in (residual_dual_norm, coercivity_estimate,
                         infsup_estimate):
            estimate(*args)
        assert newton_solve(*args[:4])[1]["iterations"] >= 1
