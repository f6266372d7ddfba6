"""Numerically stable log-space probability arithmetic.

Probabilities are carried as natural-log values with ``NEG_INF`` standing in
for probability 0. The scalar ``log_add`` is kept free of numpy call
overhead. The beam core in ``decode`` writes the same arithmetic out inline
on its per-frame hot path, and must stay bit-identical to it.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without leaving log space."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def log_sum(values: np.ndarray) -> float:
    """log of the sum of exp(values) over a 1-D array."""
    values = np.asarray(values, dtype=np.float64)
    hi = float(np.max(values, initial=NEG_INF))
    if hi == NEG_INF:
        return NEG_INF
    return hi + float(np.log(np.sum(np.exp(values - hi))))


def log_matrix(probs: np.ndarray) -> np.ndarray:
    """Element-wise log with exact zeros mapped to NEG_INF, warning-free."""
    with np.errstate(divide="ignore"):
        return np.log(probs)
