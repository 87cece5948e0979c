"""Direct solution of block KKT systems [[A, B^T], [B, 0]]."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph


class KKTSingularError(RuntimeError):
    """Raised when the KKT matrix is singular or numerically rank deficient.

    ``deficiency`` carries the estimated rank deficiency: the number of
    pivots of the equilibrated band (for ``SchurSolver``, singular values
    of the Schur complement) at most _PIVOT_TOL times the largest.  It is
    0 when every pivot passed and only the backward-error test failed.
    """

    def __init__(self, message: str, deficiency: int):
        super().__init__(message)
        self.deficiency = deficiency


@dataclass
class SaddleSystem:
    """Equality-constrained quadratic system.

    A is n x n symmetric, B is m x n; the block matrix [[A, B^T], [B, 0]] is
    solvable iff B has full row rank and A is definite on ker B.
    ``rhs_bottom`` is zero in every flow step and nonzero in Newton steps.
    """

    A: sp.spmatrix
    B: sp.spmatrix
    rhs_top: np.ndarray
    rhs_bottom: np.ndarray

    def __post_init__(self):
        # the csr constructor's format checks cost more than a small solve
        self.A, self.B = (m if sp.issparse(m) and m.format == "csr"
                          else sp.csr_matrix(m) for m in (self.A, self.B))
        self.rhs_top = np.asarray(self.rhs_top, dtype=float).ravel()
        self.rhs_bottom = np.asarray(self.rhs_bottom, dtype=float).ravel()
        n, m = self.A.shape[0], self.B.shape[0]
        if self.A.shape != (n, n) or self.B.shape[1] != n:
            raise ValueError("incompatible block shapes")
        if self.rhs_top.size != n or self.rhs_bottom.size != m:
            raise ValueError("right-hand side does not match block sizes")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[0]


_PIVOT_TOL = 1e-12   # relative pivot threshold flagging rank deficiency
_BACKWARD_TOL = 1e-14   # largest normwise backward error of a solve


def _ordered(perm: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """(half-bandwidth, perm, rows, cols) of the entries (rows, cols) once
    the unknowns are ordered by ``perm``."""
    inv = np.empty(perm.size, dtype=np.intp)
    inv[perm] = np.arange(perm.size)
    rows, cols = inv[rows], inv[cols]
    return int(np.abs(rows - cols).max(initial=0)), perm, rows, cols


class BandedKKT:
    """Banded LU storage of [[A, B^T], [B, 0]] for fixed CSR patterns of A
    and B, reused by every solve whose A and B have those patterns.

    In 1D every constraint row touches the DOFs of one element.  Ordering
    the unknowns along the curve, with each multiplier at the middle of its
    row's column range, keeps the half-bandwidth small and independent of
    M (flow and Newton systems: 8-9 for d=2, 11-12 for d=3).  Periodic
    ends, and systems with no such structure, take the reverse
    Cuthill-McKee order of K's pattern when it is narrower.  ``factor``
    scatters the values of A and B into one preallocated band array and
    factors it in place with LAPACK gbtrf (partial pivoting, safe for the
    indefinite K); ``apply`` solves with gbtrs, as often as a caller with
    one K (a Lanczos iteration) needs.

    The band holds D K D, d_i = |A_ii|^(-1/2) on x (1 on the multipliers
    and where A_ii = 0) from the A given at construction.  Value and
    derivative DOFs differ by powers of h, so the pivots of K itself fall
    below _PIVOT_TOL from M ~ 300 on; those of D K D measure rank.
    """

    def __init__(self, A: sp.csr_matrix, B: sp.csr_matrix):
        # values are scattered entry by entry, so an entry must not repeat
        if not (A.has_canonical_format and B.has_canonical_format):
            raise ValueError("A and B need sorted, unique column indices "
                             "in every row")
        n, m = A.shape[0], B.shape[0]
        self._n = n
        self._patterns = (A.indptr, A.indices, B.indptr, B.indices)
        # each multiplier at the middle of its row's columns; fixed DOFs may
        # cut the ranges of the first and last rows, which go before and
        # after their columns instead
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
        # K's entries in the order (A, B below the diagonal, B^T above)
        rows = np.concatenate([a_rows, n + b_rows, B.indices])
        cols = np.concatenate([A.indices, B.indices, n + b_rows])
        size = n + m
        order = _ordered(np.argsort(np.concatenate([np.arange(n), middle]),
                                    kind="stable"), rows, cols)
        # along an open curve one element sets the band at every M; a band
        # over half the size means joined (periodic) ends or a tiny mesh,
        # and there the reverse Cuthill-McKee order is taken if narrower
        if 2 * order[0] > size:
            graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                                  shape=(size, size))
            order = min(order, _ordered(
                csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True),
                rows, cols), key=lambda o: o[0])
        self.bandwidth, self.perm, rows, cols = order
        bw = self.bandwidth
        # gbtrf's layout: K[i, j] at ab[2*bw + i - j, j], with bw extra rows
        # on top for the fill-in of row pivoting.  ab is the transpose of a
        # C-ordered (size, 3*bw+1) array, so it is Fortran-contiguous and
        # factored in place, and its flat index is j*(3*bw+1) + 2*bw + i - j.
        self._ab_t = np.zeros((size, 3 * bw + 1))
        self._flat = self._ab_t.reshape(-1)
        pos = cols * (3 * bw + 1) + 2 * bw + rows - cols
        self._pos_a = pos[:A.nnz]
        self._pos_b = pos[A.nnz:].reshape(2, -1)
        # [A; B; B^T] as one CSR on (x, lam) and its longdouble twin, for
        # the residuals: K sol is (its A rows + its B^T rows, its B rows),
        # B^T's rows summed in B's order.  A's entries lead its data and B's
        # entry k is at data[_slot_b[:, k]].
        bt_src = np.argsort(B.indices, kind="stable")
        self._stack = sp.csr_matrix(
            (np.zeros(A.nnz + 2 * B.nnz),
             np.concatenate([A.indices, B.indices, n + b_rows[bt_src]]),
             np.concatenate([A.indptr, A.nnz + B.indptr[1:],
                             A.nnz + B.nnz + np.cumsum(
                                 np.bincount(B.indices, minlength=n))])),
            shape=(2 * n + m, size))
        self._stack_ld = copy.copy(self._stack)    # on the same index arrays
        self._stack_ld.data = self._stack.data.astype(np.longdouble)
        self._slot_b = A.nnz + np.stack([np.arange(B.nnz),
                                         B.nnz + np.argsort(bt_src)])
        diag = np.abs(A.diagonal())
        d = np.append(np.where(diag > 0, diag, 1.0) ** -0.5, np.ones(m))
        self._scale_a = d[a_rows] * d[A.indices]
        self._scale_b = d[B.indices]
        self._d_perm = d[self.perm]

    def solve(self, system: SaddleSystem, rhs: np.ndarray) -> np.ndarray:
        """Solution (x, lam) of the system after one refinement step:
        ``factor`` with its A and B, then ``apply`` to ``rhs``."""
        self.factor(system.A, system.B)
        return self.apply(rhs)

    def factor(self, A: sp.csr_matrix, B: sp.csr_matrix) -> None:
        """Factor the band of A and B, which have the patterns given at
        construction, for the ``apply`` calls that follow.  Raises
        ``KKTSingularError`` when a pivot of the scaled band is at most
        _PIVOT_TOL times the largest."""
        # flow and Newton pass the index arrays the band was built from;
        # identity settles those without comparing them (a few us each,
        # several percent of a small flow step)
        if not all(given is built or np.array_equal(given, built)
                   for given, built in zip((A.indptr, A.indices, B.indptr,
                                            B.indices), self._patterns)):
            raise ValueError("KKT blocks do not match the band pattern")
        bw, self._factors = self.bandwidth, None   # the band is overwritten
        stack = self._stack.data
        stack[:A.nnz] = A.data
        stack[self._slot_b] = B.data
        self._stack_ld.data[:] = stack
        # gbtrf sets the fill-in rows itself; zero the rows that hold D K D
        self._ab_t[:, bw:] = 0.0
        self._flat[self._pos_a] = A.data * self._scale_a
        self._flat[self._pos_b] = B.data * self._scale_b
        lu, piv, _ = lapack.dgbtrf(self._ab_t.T, bw, bw, overwrite_ab=1)
        pivots = np.abs(lu[2 * bw])
        small = int(np.count_nonzero(pivots <= _PIVOT_TOL * pivots.max()))
        if small:
            raise KKTSingularError("KKT matrix numerically singular", small)
        self._factors = (lu, piv, np.linalg.norm(stack))   # |K|_F

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """Solution (x, lam) for ``rhs`` with the last ``factor``, after one
        refinement step.  Raises ``KKTSingularError`` when the normwise
        backward error |K sol - rhs| / (|K|_F |sol| + |rhs|), which unlike
        a relative residual does not grow with cond(K) (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 7), exceeds _BACKWARD_TOL.

        The refinement residual is summed in np.longdouble in K's units;
        where that is wider than float64 (80-bit x87 on x86-64 Linux), the
        solution does not carry cond(K) times a float64 residual's roundoff.
        The backward error takes one float64 product with the same stack.
        """
        lu, piv, norm_k = self._factors
        bw, d = self.bandwidth, self._d_perm
        sol = np.empty_like(rhs)
        sol[self.perm] = d * lapack.dgbtrs(lu, bw, bw, d * rhs[self.perm],
                                           piv)[0]
        correction = rhs - self._product(self._stack_ld, sol.astype(np.longdouble))
        sol[self.perm] += d * lapack.dgbtrs(
            lu, bw, bw, d * correction[self.perm].astype(float), piv)[0]
        res = np.linalg.norm(rhs - self._product(self._stack, sol))
        if not res <= _BACKWARD_TOL * (norm_k * np.linalg.norm(sol)
                                       + np.linalg.norm(rhs)):
            raise KKTSingularError(f"KKT solve residual {res:.3e} exceeds "
                                   "the backward-error bound", 0)
        return sol

    def _product(self, stack, sol: np.ndarray) -> np.ndarray:   # K sol from a stack
        y, n = stack @ sol, self._n
        y[:n] += y[sol.size:]
        return y[:sol.size]


def solve_kkt(system: SaddleSystem, band: Optional[BandedKKT] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the block system with ``band`` (built for the patterns of
    this A and B) or a band built here; returns (x, lam).  Raises
    ``KKTSingularError`` from ``BandedKKT.solve``.  A and B need sorted,
    unique column indices in every row.
    """
    if band is None:
        band = BandedKKT(system.A, system.B)
    sol = band.solve(system, np.concatenate([system.rhs_top,
                                             system.rhs_bottom]))
    return sol[:system.n], sol[system.n:]


class SchurSolver:
    """Schur-complement path that factorizes A once and reuses it while the
    constraint block changes every step.

    Intended for long flows where A = M + tau*S is constant; requires A to be
    nonsingular (it is symmetric positive definite in the L2 flow).
    """

    def __init__(self, A: sp.spmatrix):
        self.A = sp.csc_matrix(A)
        self._lu = spla.splu(self.A)

    def solve(self, B: sp.spmatrix, rhs_top: np.ndarray,
              rhs_bottom: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        B = sp.csr_matrix(B)
        m = B.shape[0]
        if rhs_bottom is None:
            rhs_bottom = np.zeros(m)
        y0 = self._lu.solve(rhs_top)
        if m == 0:
            return y0, np.zeros(0)
        Y = self._lu.solve(B.T.toarray())
        schur = B @ Y
        try:
            c, low = sla.cho_factor(schur)
            lam = sla.cho_solve((c, low), B @ y0 - rhs_bottom)
        except np.linalg.LinAlgError as exc:
            svals = sla.svdvals(schur)
            raise KKTSingularError(
                "Schur complement not positive definite",
                int(np.sum(svals <= _PIVOT_TOL * svals[0]))) from exc
        x = y0 - Y @ lam
        return x, lam
