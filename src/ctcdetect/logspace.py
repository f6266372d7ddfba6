"""Numerically stable log-space probability arithmetic.

Probabilities are carried as natural-log values with ``NEG_INF`` standing in
for probability 0. Both beam cores add two log-probabilities, and they rest on
one contract: ``np.logaddexp(a, b)`` has the bits of what decode's scalar core
computes inline, ``hi + math.log1p(math.exp(lo - hi))`` with hi the larger, or
the other part alone where one is -inf. numpy evaluates the same expression
with the C library's exp and log1p, which math calls too, and on a tie returns
``hi + ln 2``, the rounding of ``log1p(exp(0))``. So the lockstep batch adds
whole arrays with np.logaddexp and still gives each window the
single-stream search's bits. The two differ on -inf with -0.0 (+0.0 against
-0.0), which never arises, as no log-probability is a negative zero.
tests/test_logspace.py pins the contract on the numpy it runs with.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")


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
