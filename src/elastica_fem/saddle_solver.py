"""Direct solution of block KKT systems [[A, B^T], [B, 0]]."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.linalg import lapack
import scipy.sparse as sp
from scipy.sparse import csgraph

from .assembly import _csr


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


_PIVOT_TOL = 1e-12   # relative pivot threshold flagging rank deficiency
_BACKWARD_TOL = 1e-14   # largest normwise backward error of a solve


def _kkt_pattern(A: sp.csr_matrix, B: sp.csr_matrix, perm: np.ndarray):
    """(half-bandwidth, perm, K, slot, rows) of K = [[A, B^T], [B, 0]] in
    the order ``perm``: K's CSR pattern, each entry's row, and each (A, B,
    B^T) data entry's place in K.  Rows are filled by counting (A, then B^T
    in B's row order), then sorted by scipy's compiled per-row sort."""
    n, m, na, nb = A.shape[0], B.shape[0], A.indices.size, B.indices.size
    inv = np.empty(n + m, dtype=np.int32)
    inv[perm] = np.arange(n + m, dtype=np.int32)
    a_len, b_len = np.diff(A.indptr), np.diff(B.indptr)
    t_len = np.bincount(B.indices, minlength=n)
    indptr = np.append(0, np.cumsum(np.append(a_len + t_len, b_len)[perm]))
    start = indptr[inv]                  # of each row in the natural order
    at = np.arange(na + 2 * nb)
    at[:na + nb] += np.repeat(np.append(start[:n] - A.indptr[:-1], start[n:]
                                        - B.indptr[:-1] - na), np.append(a_len, b_len))
    # B^T's entries, each column's in B's row order
    at[na + nb:][np.argsort(B.indices, kind="stable")] = np.arange(nb) \
        - np.repeat(np.cumsum(t_len) - t_len, t_len)
    at[na + nb:] += (start[:n] + a_len)[B.indices]
    k = _csr(np.empty_like(at), np.empty(at.size, dtype=np.int32), indptr,
             (n + m, n + m))
    k.indices[at] = np.take(inv, np.concatenate(
        [A.indices, B.indices, np.repeat(np.arange(n, n + m), b_len)]))
    k.data[at] = np.arange(at.size)
    k.sort_indices()
    slot = np.empty_like(at)     # read by every factor: intp, as index
    slot[k.data] = np.arange(at.size)
    rows = np.repeat(np.arange(n + m, dtype=np.int32), np.diff(k.indptr))
    return int(np.abs(rows - k.indices).max(initial=0)), perm, k, slot, rows


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
        n, m = A.shape[0], B.shape[0]
        if A.shape != (n, n) or B.shape[1] != n:
            raise ValueError("incompatible block shapes")
        # values are scattered entry by entry, so an entry must not repeat
        if not (A.has_canonical_format and B.has_canonical_format):
            raise ValueError("A and B need sorted, unique column indices "
                             "in every row")
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
        size = n + m
        # the unknowns on uncoupled rows go last
        lone = np.diff(A.indptr) == 1
        lone[lone] = A.indices[A.indptr[:-1][lone]] == np.flatnonzero(lone)
        lone &= np.bincount(B.indices, minlength=n) == 0
        lone = np.append(lone, np.zeros(m, dtype=bool))
        order = _kkt_pattern(A, B, np.argsort(np.where(lone, size, np.concatenate(
            [np.arange(n), middle])), kind="stable"))
        # along an open curve one element sets the band at every M; a band
        # over half the size means joined (periodic) ends or a tiny mesh,
        # and there the reverse Cuthill-McKee order is taken if narrower
        if 2 * order[0] > size:
            rcm = csgraph.reverse_cuthill_mckee(
                _kkt_pattern(A, B, np.arange(size))[2], symmetric_mode=True)
            order = min(order, _kkt_pattern(
                A, B, rcm[np.argsort(lone[rcm], kind="stable")]),
                key=lambda o: o[0])
        self.bandwidth, self.perm, self._k, self._slot, rows = order
        bw, indptr, indices = self.bandwidth, self._k.indptr, self._k.indices
        # gbtrf's layout: K[i, j] at ab[2*bw + i - j, j], with bw extra rows
        # on top for the fill-in of row pivoting.  ab is the transpose of a
        # C-ordered (rows, 3*bw+1) array, so it is Fortran-contiguous and
        # factored in place, and its flat index is j*(3*bw+1) + 2*bw + i - j.
        # the band holds the first rows (one at least); the uncoupled ones,
        # after them, hold K's last entries, one each
        band = max(size - int(lone.sum()), min(size, 1))
        self._in_band = int(indptr[band])
        self._pos = np.multiply(indices[:self._in_band], 3 * bw, dtype=np.intp)
        self._pos += rows[:self._in_band] + 2 * bw
        del order, rows     # what is alive at the end sets a build's peak
        # entry i of (A.data, B.data, B.data) is K.data[_slot[i]]; K's
        # values, its twin's and the band are all written by factor
        self._k.data = np.empty(indices.size)
        self._k_ld = copy.copy(self._k)    # on the same index arrays
        self._k_ld.data = np.empty(indices.size, dtype=np.longdouble)
        self._ab_t, self._scale = np.empty((band, 3 * bw + 1)), None

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
        if rhs.shape != self.perm.shape:
            raise ValueError("right-hand side does not match block sizes")
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


def solve_kkt(system: SaddleSystem, band: BandedKKT
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the block system with ``band``, built for the CSR patterns of
    its A and B: ``factor``, then ``apply`` to the stacked right-hand
    sides; returns (x, lam).  Raises ``KKTSingularError`` from either,
    ``ValueError`` on blocks or sizes that do not match the band."""
    band.factor(system.A, system.B)
    sol = band.apply(np.concatenate([system.rhs_top, system.rhs_bottom]))
    return sol[:system.A.shape[0]], sol[system.A.shape[0]:]

