"""1D meshes of a parameter interval and constraint-node enumeration."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class ConstraintVariant(Enum):
    """Where the inextensibility constraint is enforced.

    P2: at the nodes and the element midpoints, the 2M+1 points of the
    sequence node, midpoint, node, ...
    P1: at the mesh nodes only, the M+1 even entries of that sequence.
    """

    P1 = "p1"
    P2 = "p2"

    @property
    def stride(self) -> int:
        """Step that picks this variant's constraint nodes out of the P2
        sequence: every array ordered like that sequence is sliced [::stride]."""
        return 2 if self is ConstraintVariant.P1 else 1


@dataclass(frozen=True)
class Mesh1D:
    """Partition a = x_0 < x_1 < ... < x_M = b of an interval.

    Midpoints are stored at construction so that every module sees
    bit-identical constraint-node coordinates.
    """

    nodes: np.ndarray
    midpoints: np.ndarray = field(init=False)
    element_lengths: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("mesh needs at least two nodes")
        lengths = np.diff(nodes)
        # a NaN length compares false, and an infinite node an infinite span
        if not (np.all(lengths > 0.0) and nodes[-1] - nodes[0] < np.inf):
            raise ValueError("mesh nodes must be finite and strictly increasing")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        mids.flags.writeable = False
        lengths.flags.writeable = False
        object.__setattr__(self, "midpoints", mids)
        object.__setattr__(self, "element_lengths", lengths)

    @classmethod
    def uniform(cls, a: float, b: float, num_elements: int) -> "Mesh1D":
        """Uniform mesh with ``num_elements`` equal elements on (a, b)."""
        if not -np.inf < a < b < np.inf:
            raise ValueError(f"invalid interval: a={a} must be < b={b}, both finite")
        if num_elements < 1:
            raise ValueError("number of elements must be >= 1")
        return cls(np.linspace(a, b, num_elements + 1))

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def num_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def h(self) -> float:
        """Largest element length."""
        return float(self.element_lengths.max())

    def constraint_nodes(self, variant: ConstraintVariant) -> np.ndarray:
        """Points where the constraint is enforced, in ascending order.

        The P2 sequence node, midpoint, node, ... sliced by ``variant.stride``.
        """
        pts = np.empty(2 * self.num_elements + 1)
        pts[0::2] = self.nodes
        pts[1::2] = self.midpoints
        return pts[::variant.stride]

    def element_of(self, x: np.ndarray, side: str = "right") -> np.ndarray:
        """Element indices containing the points x.

        At interior nodes the tie-break follows ``side``: "right" assigns
        x_i to element i, "left" to element i-1.
        """
        x = np.asarray(x)
        if np.any(x < self.a) or np.any(x > self.b):
            raise ValueError("point outside the mesh interval")
        idx = np.searchsorted(self.nodes, x, side=side) - 1
        return np.clip(idx, 0, self.num_elements - 1)
