"""A fixed calibration kernel that tracks the speed of the machine.

On a shared machine the speed available to one process drifts by tens of
percent over seconds to minutes, so raw pass times of identical code spread
too widely between runs to gate a regression.  The kernel below does the
same fixed work every time, independent of the package: interpreter-bound
Python, small numpy operations, scipy.sparse construction plus a sparse LU
solve, and a dense symmetric eigensolve, the four kinds of work the
workloads spend their time in.  A pass runs it before every cell and after
the last one; the normalised metrics divide the pass time by the kernel
time, which cancels the drift common to both.  The set-up time, which is
reported in seconds, is scaled the same way and multiplied by
``REFERENCE_S``: it reads as seconds on a machine where one run of the
kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# median time of one kernel run on the 2-vCPU x86_64 machine the benchmark
# was sized on, single-threaded BLAS
REFERENCE_S = 0.030


class Calibration:
    """Callable returning the wall time of one run of the fixed kernel
    (``REFERENCE_S`` on the machine the benchmark was sized on)."""

    def __init__(self):
        n, m, dense_n = 120, 30, 200
        rng = np.random.default_rng(20251017)
        a = sp.random(n, n, density=0.05, random_state=rng, format="csr")
        self.A = (a + a.T + 4.0 * sp.eye(n)).tocsr()
        self.B = sp.random(m, n, density=0.1, random_state=rng, format="csr")
        self.rhs = rng.standard_normal(n + m)
        self.blocks = rng.standard_normal((4 * n, 4, 4))
        self.local = rng.standard_normal((4 * n, 4, 2))
        g = rng.standard_normal((dense_n, dense_n))
        self.dense = g @ g.T + dense_n * np.eye(dense_n)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += (i % 7) * 0.5
        for _ in range(6):
            np.einsum("eab,ebd->ead", self.blocks, self.local)
            K = sp.bmat([[self.A, self.B.T], [self.B, None]], format="csc")
            spla.splu(K).solve(self.rhs)
        for _ in range(2):
            sla.eigh(self.dense, eigvals_only=True)
        sla.svdvals(self.dense[:150])
        return time.perf_counter() - start
