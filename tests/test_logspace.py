"""The log-add contract that both beam cores rest on (ctcdetect.logspace).

decode's scalar core adds two log-probabilities inline, as oracles.log_add
does; the lockstep batch adds whole arrays with np.logaddexp. The batch gives
each window the single-stream search's bits only if the two agree bit for bit.
"""

import math

import numpy as np

from ctcdetect.logspace import NEG_INF, log_matrix

from oracles import log_add

TINY = 5e-324  # the smallest subnormal


def assert_logaddexp_is_log_add(a, b) -> np.ndarray:
    """np.logaddexp(a, b) has the bits of log_add on every pair; returns them."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    got = np.logaddexp(a, b)
    want = np.array([log_add(x, y) for x, y in zip(a.tolist(), b.tolist())])
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert not bad.size, (
        f"np.logaddexp rounds {bad.size} of {a.size} pairs otherwise than the scalar core's "
        f"inline log-add, first ({a[bad[0]]!r}, {b[bad[0]]!r}): {got[bad[0]].hex()} against "
        f"{want[bad[0]].hex()}; on numpy {np.__version__} the lockstep batch and the "
        "single-stream search part ways in the last bit"
    )
    return want


def test_seeded_pairs():
    # masses from 1e-3 to 1e4 nats, a little above 0 too, and differences
    # from 1e-12 to past -745, where exp underflows to 0
    rng = np.random.default_rng(20)
    n = 1_000_000
    hi = rng.uniform(-1.0, 0.01, n) * 10.0 ** rng.integers(-3, 5, n)
    d = -(10.0 ** rng.uniform(-12, 3.5, n))
    assert d.max() > -1e-11 and d.min() < -2000 and (d < -745).mean() > 0.03
    lo = hi + d
    swap = rng.random(n) < 0.5
    assert_logaddexp_is_log_add(np.where(swap, lo, hi), np.where(swap, hi, lo))


def test_exact_ties():
    rng = np.random.default_rng(21)
    values = [0.0, -math.log(2), -TINY, -1e-310, -1e-300, -0.5, -1.0, -745.0, -1e4, -1e300]
    values += (rng.uniform(-1.0, 0.0, 10_000) * 10.0 ** rng.integers(-3, 5, 10_000)).tolist()
    assert_logaddexp_is_log_add(values, values)


def test_neg_inf_on_either_side_and_both():
    values = [0.0, -TINY, -1e-310, -1e-12, -1.0, -745.0, -1e4, -1e300, NEG_INF]
    infs = [NEG_INF] * len(values)
    assert_logaddexp_is_log_add(values, infs)
    assert_logaddexp_is_log_add(infs, values)


def test_subnormal_and_zero_results():
    a = [-TINY, -1e-310, -1e-310, 0.0, 0.0, -math.log(2)]
    b = [-800.0, -1000.0, NEG_INF, -800.0, NEG_INF, -math.log(2)]
    want = assert_logaddexp_is_log_add(a, b)
    assert (0 < -want[:3]).all() and (-want[:3] < np.finfo(float).tiny).all()
    assert want[3:].tolist() == [0.0] * 3 and not np.signbit(want[3:]).any()


def test_no_log_probability_is_a_negative_zero():
    # the one pair outside the contract is -inf and -0.0: np.logaddexp gives
    # +0.0, the inline form -0.0. Probability 1 logs to +0.0, and sums and
    # log-adds of masses never make a zero negative
    zero = log_matrix(np.array([1.0, 0.0]))
    assert zero.tolist() == [0.0, NEG_INF] and not np.signbit(zero[0])
