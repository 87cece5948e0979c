import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from elastica_fem import ConstraintVariant, Mesh1D


def test_uniform_basic():
    mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 4)
    assert_allclose(mesh.nodes, [0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi])
    assert_allclose(mesh.midpoints, [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4,
                                     7 * np.pi / 4])
    lengths = mesh.element_lengths
    assert lengths.max() / lengths.min() == 1.0


def test_uniform_single_element():
    mesh = Mesh1D.uniform(0.0, 1.0, 1)
    assert_allclose(mesh.nodes, [0.0, 1.0])
    assert_allclose(mesh.midpoints, [0.5])
    assert mesh.h == 1.0


def test_uniform_4pi():
    mesh = Mesh1D.uniform(0.0, 4.0 * np.pi, 8)
    assert mesh.nodes.size == 9
    assert mesh.midpoints.size == 8
    assert_allclose(mesh.h, np.pi / 2)


@pytest.mark.parametrize("a,b,M", [(1.0, 0.0, 4), (0.0, 0.0, 4), (0.0, 1.0, 0)])
def test_invalid_arguments(a, b, M):
    with pytest.raises(ValueError):
        Mesh1D.uniform(a, b, M)


def test_nonmonotone_nodes_rejected():
    with pytest.raises(ValueError):
        Mesh1D(np.array([0.0, 0.5, 0.5, 1.0]))


@pytest.mark.parametrize("build", [
    lambda: Mesh1D(np.array([0.0, np.nan, 1.0])),
    lambda: Mesh1D(np.array([0.0, 1.0, np.inf])),
    lambda: Mesh1D.uniform(0.0, np.inf, 4),
    lambda: Mesh1D.uniform(-np.inf, 0.0, 4),
], ids=["nan-node", "inf-node", "uniform-inf-b", "uniform-inf-a"])
def test_nonfinite_nodes_rejected(build):
    # a NaN length compares false with 0, so monotonicity alone let it pass
    with pytest.raises(ValueError, match="finite"):
        build()


def test_constraint_nodes_examples():
    mesh = Mesh1D.uniform(0.0, 1.0, 2)
    assert_allclose(mesh.constraint_nodes(ConstraintVariant.P1), [0.0, 0.5, 1.0])
    assert_allclose(mesh.constraint_nodes(ConstraintVariant.P2),
                    [0.0, 0.25, 0.5, 0.75, 1.0])
    single = Mesh1D.uniform(0.0, 2.0 * np.pi, 1)
    assert_allclose(single.constraint_nodes(ConstraintVariant.P2),
                    [0.0, np.pi, 2.0 * np.pi])


def test_midpoints_strictly_interior():
    rng = np.random.default_rng(0)
    for _ in range(50):
        nodes = np.unique(rng.uniform(0, 10, size=rng.integers(2, 15)))
        if nodes.size < 2:
            continue
        mesh = Mesh1D(nodes)
        assert np.all(mesh.midpoints > mesh.nodes[:-1])
        assert np.all(mesh.midpoints < mesh.nodes[1:])


@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
       st.floats(min_value=0.1, max_value=20.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_constraint_node_counts(M, a, length):
    mesh = Mesh1D.uniform(a, a + length, M)
    assert mesh.constraint_nodes(ConstraintVariant.P1).size == M + 1
    assert mesh.constraint_nodes(ConstraintVariant.P2).size == 2 * M + 1


@given(st.lists(st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
                min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_element_lengths_sum(widths):
    nodes = np.concatenate([[0.0], np.cumsum(widths)])
    mesh = Mesh1D(nodes)
    total = mesh.element_lengths.sum()
    assert abs(total - (mesh.b - mesh.a)) <= \
        mesh.num_elements * np.finfo(float).eps * abs(mesh.b - mesh.a)


def test_element_of_tie_break():
    mesh = Mesh1D.uniform(0.0, 1.0, 4)
    assert mesh.element_of(0.25, side="right") == 1
    assert mesh.element_of(0.25, side="left") == 0
    assert mesh.element_of(0.0) == 0
    assert mesh.element_of(1.0) == 3
    with pytest.raises(ValueError):
        mesh.element_of(1.5)


def test_graded_mesh_ratio():
    mesh = Mesh1D(np.array([0.0, 0.1, 0.3, 0.6, 1.0]))
    assert_allclose(mesh.element_lengths.max() / mesh.element_lengths.min(),
                    4.0)
    assert mesh.h == pytest.approx(0.4)
