"""A fixed piece of numpy work, timed between items to read the host's speed.

On a shared virtual machine the speed of identical work swings by up to
1.7x within seconds, as other tenants load the same physical cores; CPU
time swings with wall time, so neither shows it. ``reference`` does what
the package spends its time on, small Cholesky and eigenvalue
factorizations driven from Python, and runs none of the package's code, so
a change to the package cannot move it. Timed after every item, it gives
each item the host speed around it: an item's time times
``REFERENCE_MS / local reference time`` is its time at the speed of a quiet
host. Over five minutes of swings on a 2-vCPU VM, two-second stretches of
montecarlo items varied by 24% (coefficient of variation) in wall time and
by 4% once scaled.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# bound at import, before a traced run wraps the module attributes, so the
# kernel counts of a traced run never include the reference
_cholesky = np.linalg.cholesky
_cho_factor = scipy.linalg.cho_factor
_cho_solve = scipy.linalg.cho_solve
_eigvalsh = np.linalg.eigvalsh

# one reference() on a quiet host (Xeon, Sapphire Rapids, 2 vCPUs)
REFERENCE_MS = 2.5
REPEATS = 12
SIZES = (3, 6, 9, 12, 25)
# an item's local speed: the median of the references from two before it
# to two after it
HALF_WINDOW = 2


def _problems() -> list:
    rng = np.random.default_rng(0)
    out = []
    for d in SIZES:
        A = rng.normal(size=(d, d))
        out.append((A @ A.T + d * np.eye(d), rng.normal(size=d)))
    return out


_PROBLEMS = _problems()


def reference() -> float:
    """Seconds one fixed unit of factorizations takes now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        for M, b in _PROBLEMS:
            _cholesky(M)
            _cho_solve(_cho_factor(M), b)
            _eigvalsh(M)
    return time.perf_counter() - start


def scaled(latencies: list, refs: list) -> list:
    """Each latency at the speed of a quiet host.

    ``refs[k]`` was timed just before item ``k`` and ``refs[k + 1]`` just
    after it, so ``len(refs) == len(latencies) + 1``.
    """
    nominal = REFERENCE_MS / 1e3
    out = []
    for k, latency in enumerate(latencies):
        window = refs[max(k + 1 - HALF_WINDOW, 0):k + 1 + HALF_WINDOW]
        out.append(latency * nominal / statistics.median(window))
    return out


def timed(call) -> tuple[float, float]:
    """Wall seconds of ``call()``, and the same scaled by references around it."""
    before = [reference() for _ in range(HALF_WINDOW + 1)]
    start = time.perf_counter()
    call()
    elapsed = time.perf_counter() - start
    after = [reference() for _ in range(HALF_WINDOW + 1)]
    return elapsed, elapsed * (REFERENCE_MS / 1e3) / statistics.median(before + after)
