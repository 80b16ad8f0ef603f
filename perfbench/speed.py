"""How fast the CPU this benchmark is pinned to runs right now.

On a shared virtual machine the speed of a vCPU drifts by up to 1.6x in
phases of seconds to minutes while this process keeps the CPU (its CPU
time equals its wall time), and the two vCPUs drift independently. The
benchmark therefore pins itself and its children to one CPU and times a
fixed ~5 ms kernel before and after every request. Each request's time is
scaled by ``REFERENCE_S`` over the mean of the two kernel times: the
figures are seconds on a CPU that runs the kernel in ``REFERENCE_S``.
Measured drift between runs of identical requests fell about threefold.
Raw wall-clock figures are printed alongside.
"""

from __future__ import annotations

import functools
import os
import time

# roughly the kernel's median on one vCPU of a 2-vCPU x86-64 VM at 2.0 GHz
REFERENCE_S = 0.0045


@functools.lru_cache(maxsize=1)
def _arrays():
    # numpy is imported on first use, after the caller has capped BLAS threads
    import numpy as np

    return np, np.exp(1j * np.linspace(0.0, 1.0, 1601)), np.ones(1 << 18)


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts, to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def kernel_s() -> float:
    """Seconds for a fixed mix of interpreter, small-array and memory work,
    like the requests: a Horner-style complex update, a bytecode loop and
    sums over a 2 MiB array."""
    np, rotation, block = _arrays()
    t0 = time.perf_counter()
    acc = np.zeros(rotation.size, dtype=complex)
    for _ in range(400):
        acc = acc * rotation + 1.0
    total = 0
    for i in range(30_000):
        total += i * i
    for _ in range(8):
        block.sum()
    return time.perf_counter() - t0


def scales(kernel_times: list[float]) -> list[float]:
    """Scale for the interval between consecutive kernel runs."""
    return [2.0 * REFERENCE_S / (a + b) for a, b in zip(kernel_times, kernel_times[1:])]
