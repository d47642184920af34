"""A fixed calibration kernel that measures how fast the machine runs right now.

Shared and virtual machines change speed by tens of percent over seconds to
minutes.  The benchmark times this kernel around every op and scales the op
time by ``REFERENCE_S / kernel time``, which reports it in seconds of a
machine that runs the kernel in ``REFERENCE_S``.  The kernel mixes the kinds
of work magstep does: batched 2x2 matmuls, a batched ``eigh``, a Python loop
of small matmuls and float formatting.  It uses none of magstep's code, so a change to magstep cannot
move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the machine the benchmark was defined on: 2-core
# x86_64 VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 pinned to 1 thread.
REFERENCE_S = 0.037


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4096, 2, 2)) + 1j * rng.standard_normal((4096, 2, 2))
        self._hermitian = a + np.conj(np.swapaxes(a, -1, -2))
        self._unitary = np.linalg.qr(a)[0]
        self._values = rng.standard_normal(4096)

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        start = time.perf_counter()
        for _ in range(6):
            self._hermitian @ self._hermitian
        for _ in range(2):
            np.linalg.eigh(self._hermitian)
        acc = np.eye(2, dtype=np.complex128)
        for u in self._unitary:
            acc = u @ acc
        for _ in range(2):
            ",".join(f"{x:.17g}" for x in self._values)
        return time.perf_counter() - start
