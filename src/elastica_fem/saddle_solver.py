"""Direct solution of block KKT systems [[A, B^T], [B, 0]]."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import lapack
import scipy.sparse as sp
from scipy.sparse import csgraph

from .assembly import _csr, csr_pattern


class KKTSingularError(RuntimeError):
    """Raised when the KKT matrix is singular or numerically rank deficient.

    ``deficiency`` carries the estimated rank deficiency: the number of
    pivots of the equilibrated band at most _PIVOT_TOL times the largest,
    or 0 when every pivot passed and only the backward-error test failed.
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
    """Banded LU storage of K = [[A, B^T], [B, 0]] for fixed CSR patterns of
    A and B, reused by every solve whose A and B have those patterns.

    In 1D every constraint row touches the DOFs of one element.  Ordering
    the unknowns along the curve, with each multiplier at the middle of its
    row's column range, keeps the half-bandwidth small and independent of
    M (Newton: 8-9 for d=2, 11-12 for d=3; the rotated flow: 5-6 and 9-10).
    Periodic ends, and systems with no such structure, take the reverse
    Cuthill-McKee order of K's pattern when it is narrower.  An unknown on
    an uncoupled row (A's diagonal only, in no row of B: a fixed DOF, a
    tangential flow component) goes last, out of the band, and a division
    solves it.

    K is held once: a CSR matrix in the band's order, with a longdouble
    twin on the same index arrays.  ``factor`` writes K's values, which
    fill the twin, give |K|_F and are scattered into one preallocated band
    array, factored in place with LAPACK gbtrf (partial pivoting, safe for
    the indefinite K); ``apply`` solves with gbtrs, as often as a caller
    with one K (a Lanczos iteration) needs.

    The band holds D K D, d_i = |A_ii|^(-1/2) on x (1 on the multipliers
    and where A_ii = 0) of the first A factored after construction or
    ``rescale``.  Value and derivative DOFs differ by powers of h, so the
    pivots of K itself fall below _PIVOT_TOL from M ~ 300 on; those of D K
    D measure rank.
    """

    def __init__(self, A: sp.csr_matrix, B: sp.csr_matrix):
        # values are scattered entry by entry, so an entry must not repeat
        if not (A.has_canonical_format and B.has_canonical_format):
            raise ValueError("A and B need sorted, unique column indices "
                             "in every row")
        n, m = A.shape[0], B.shape[0]
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
        del a_rows, b_rows    # what is alive at the end sets a build's peak
        size = n + m
        # the unknowns on uncoupled rows go last
        lone = np.diff(A.indptr) == 1
        lone[lone] = A.indices[A.indptr[:-1][lone]] == np.flatnonzero(lone)
        lone &= np.bincount(B.indices, minlength=n) == 0
        lone = np.append(lone, np.zeros(m, dtype=bool))
        order = _ordered(np.argsort(np.where(lone, size, np.concatenate(
            [np.arange(n), middle])), kind="stable"), rows, cols)
        # along an open curve one element sets the band at every M; a band
        # over half the size means joined (periodic) ends or a tiny mesh,
        # and there the reverse Cuthill-McKee order is taken if narrower
        if 2 * order[0] > size:
            indptr, indices, _ = csr_pattern(rows, cols, (size, size))
            graph = _csr(np.ones(indices.size), indices, indptr, (size, size))
            rcm = csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
            order = min(order, _ordered(rcm[np.argsort(lone[rcm], kind="stable")],
                                        rows, cols), key=lambda o: o[0])
        self.bandwidth, self.perm, rows, cols = order
        bw = self.bandwidth
        # K's entries sorted by (row, col) in the band's order, in place so
        # that one copy of the entry list is alive; entry i of the list,
        # valued (A.data, B.data, B.data)[i], is K.data[_slot[i]]
        src = np.argsort(rows * size + cols, kind="stable")
        rows[:], cols[:] = rows[src], cols[src]
        self._slot = np.empty(src.size, dtype=np.int32)
        self._slot[src] = np.arange(src.size)
        del src
        self._k = _csr(np.zeros(rows.size), cols,
                       np.searchsorted(rows, np.arange(size + 1)), (size, size))
        self._k_ld = copy.copy(self._k)    # on the same index arrays
        self._k_ld.data = np.zeros(rows.size, dtype=np.longdouble)
        # gbtrf's layout: K[i, j] at ab[2*bw + i - j, j], with bw extra rows
        # on top for the fill-in of row pivoting.  ab is the transpose of a
        # C-ordered (rows, 3*bw+1) array, so it is Fortran-contiguous and
        # factored in place, and its flat index is j*(3*bw+1) + 2*bw + i - j.
        # the band holds the first rows (one at least); the uncoupled ones,
        # after them, hold K's last entries, one each
        band = max(size - int(lone.sum()), min(size, 1))
        self._in_band = int(self._k.indptr[band])
        self._pos = (cols * (3 * bw + 1) + 2 * bw + rows - cols)[:self._in_band]
        self._ab_t, self._scale = np.zeros((band, 3 * bw + 1)), None

    def rescale(self) -> None:
        """Take d from the next A factored, as after construction."""
        self._scale = None

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
        if self._scale is None:
            a = np.abs(A.diagonal())
            d = np.append(np.where(a > 0, a, 1.0) ** -0.5,
                          np.ones(self.perm.size - a.size))
            self._d_perm = d[self.perm]
            self._scale = (np.repeat(self._d_perm, np.diff(self._k.indptr))
                           * self._d_perm[self._k.indices.astype(np.intp)])
        k, slot = self._k.data, self._slot
        k[slot[:A.nnz]] = A.data
        k[slot[A.nnz:].reshape(2, -1)] = B.data     # B and B^T
        self._k_ld.data[:] = k
        # gbtrf sets the fill-in rows itself; zero the rows that hold D K D
        self._ab_t[:, bw:] = 0.0
        scaled, e = k * self._scale, self._in_band
        self._ab_t.reshape(-1)[self._pos] = scaled[:e]
        lu, piv, _ = lapack.dgbtrf(self._ab_t.T, bw, bw, overwrite_ab=1)
        pivots = np.abs(np.concatenate([lu[2 * bw], scaled[e:]]))
        small = int(np.count_nonzero(pivots <= _PIVOT_TOL * pivots.max()))
        if small:
            raise KKTSingularError("KKT matrix numerically singular", small)
        # |K|_F, and the uncoupled rows' diagonal
        self._factors = (lu, piv, np.sqrt(k @ k), k[e:])

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """Solution (x, lam) for ``rhs`` with the last ``factor``, after one
        refinement step.  Raises ``KKTSingularError`` when the normwise
        backward error |K sol - rhs| / (|K|_F |sol| + |rhs|), which unlike
        a relative residual does not grow with cond(K) (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 7), exceeds _BACKWARD_TOL.

        ``rhs`` goes into the band's order once and the solution out of it
        once; both solves and both residuals run in that order.  The
        refinement residual is summed with K's longdouble twin; where that
        is wider than float64 (80-bit x87 on x86-64 Linux), the solution
        does not carry cond(K) times a float64 residual's roundoff.  The
        backward error takes one float64 product with K.
        """
        norm_k = self._factors[2]
        b = rhs[self.perm]
        sol = self._solve(b)
        correction = b - self._k_ld @ sol.astype(np.longdouble)
        sol += self._solve(correction.astype(float))
        r = b - self._k @ sol
        res = np.sqrt(r @ r)       # the 2-norms as np.linalg.norm takes them
        if not res <= _BACKWARD_TOL * (norm_k * np.sqrt(sol @ sol)
                                       + np.sqrt(rhs @ rhs)):
            raise KKTSingularError(f"KKT solve residual {res:.3e} exceeds "
                                   "the backward-error bound", 0)
        out = np.empty_like(rhs)
        out[self.perm] = sol
        return out

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """K^-1 b in the band's order with the last factors: D (D K D)^-1 D
        b on the band, a division on the uncoupled rows."""
        lu, piv, _, lone = self._factors
        band, d = lu.shape[1], self._d_perm[:lu.shape[1]]
        x = d * lapack.dgbtrs(lu, self.bandwidth, self.bandwidth,
                              d * b[:band], piv)[0]
        return np.concatenate([x, b[band:] / lone]) if lone.size else x


def solve_kkt(system: SaddleSystem, band: Optional[BandedKKT] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the block system with ``band`` (built for the patterns of
    this A and B) or a band built here: ``factor`` with its A and B, then
    ``apply``; returns (x, lam).  Raises ``KKTSingularError`` from either.
    A and B need sorted, unique column indices in every row.
    """
    if band is None:
        band = BandedKKT(system.A, system.B)
    band.factor(system.A, system.B)
    sol = band.apply(np.concatenate([system.rhs_top, system.rhs_bottom]))
    return sol[:system.n], sol[system.n:]

