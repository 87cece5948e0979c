import numpy as np
import pytest
import scipy.sparse as sp

from elastica_fem import (BoundaryConditions, ConstraintVariant, FunctionOracle,
                          Mesh1D, QuadraticField, SaddleSystem,
                          assemble_matrices, lumped_weights, solve_kkt)
from elastica_fem.experiments import named_experiment
from elastica_fem.saddle_solver import BandedKKT
from elastica_fem.stationary import DiscreteNorms


@pytest.fixture(scope="session")
def circle_spec():
    return named_experiment("circle")


@pytest.fixture(scope="session")
def helix_spec():
    return named_experiment("helix")


@pytest.fixture(scope="session")
def oval_spec():
    return named_experiment("oval-h2")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def solve(system):
    """(x, lam) of ``system`` by ``solve_kkt`` on a band built for its
    blocks, dense or sparse, as CSR."""
    A, B = (sp.csr_matrix(block) for block in (system.A, system.B))
    return solve_kkt(SaddleSystem(A, B, system.rhs_top, system.rhs_bottom),
                     BandedKKT(A, B))


def with_norms(estimate, p, variant, bc, matrices):
    """A Brezzi ``estimate`` at p on ``DiscreteNorms`` built for its
    matrices, conditions and variant."""
    return estimate(p, variant, bc, matrices,
                    DiscreteNorms.build(matrices, bc, variant))


def element_pattern(mesh, dim):
    """The entries the element blocks write, (x) I_dim: a CSR matrix of
    ones by COO assembly and scipy's Kronecker product."""
    local = 2 * np.arange(mesh.num_elements)[:, None] + np.arange(4)
    rows, cols = np.repeat(local, 4, axis=1).ravel(), np.tile(local, 4).ravel()
    n = 2 * mesh.nodes.size
    a = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return sp.kron(a, sp.eye(dim), format="csr")


def random_graded_mesh(rng, a=0.0, length=None, max_elements=20):
    """Mildly graded mesh with quasi-uniformity ratio below 3."""
    M = int(rng.integers(1, max_elements + 1))
    widths = rng.uniform(0.5, 1.4, M)
    nodes = a + np.concatenate([[0.0], np.cumsum(widths)])
    if length is not None:
        nodes = a + (nodes - a) * length / (nodes[-1] - a)
    return Mesh1D(nodes)


def smooth_unit_speed_curve(rng, num_modes=3):
    """Random planar unit-speed curve: direction angle is a trig polynomial."""
    coeffs = rng.normal(scale=0.8, size=(num_modes, 2))

    def theta(x):
        x = np.asarray(x, dtype=float)
        out = 0.3 * x
        for k, (a, b) in enumerate(coeffs, start=1):
            out = out + a * np.sin(k * x) + b * np.cos(k * x)
        return out

    def value(x):
        # not needed analytically; integral evaluated on demand is overkill,
        # tests use the derivative only
        raise NotImplementedError

    def deriv(x):
        t = theta(x)
        return np.stack([np.cos(t), np.sin(t)], axis=-1)

    return FunctionOracle(value=deriv, deriv=deriv)


def fit_rate(errors, hs):
    """Least-squares slope of log(error) against log(h)."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if np.any(errors <= 0.0) or np.any(hs <= 0.0):
        raise ValueError("errors and mesh sizes must be positive")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def lumped_product(f: QuadraticField, g: QuadraticField,
                   variant: ConstraintVariant = ConstraintVariant.P2) -> float:
    """Lumped L2 product: the integral of the nodal interpolant of the
    pointwise dot product f.g.

    P2 amounts to the elementwise Simpson rule on node/midpoint samples, P1
    to the elementwise trapezoid rule on nodal samples.  Symmetric and
    bilinear in f and g.
    """
    if f.mesh is not g.mesh and not np.array_equal(f.mesh.nodes, g.mesh.nodes):
        raise ValueError("lumped product requires fields on the same mesh")
    if f.dim != g.dim:
        raise ValueError("lumped product requires fields of equal dimension")
    prod = np.einsum("nd,nd->n", f.values, g.values)
    return float(np.dot(lumped_weights(f.mesh, variant), prod[::variant.stride]))
