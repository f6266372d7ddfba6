import os
import sys
from pathlib import Path

import numpy as np
import pytest

from ctcdetect import Alphabet, ProbMatrix, decode, lockstep

sys.path.insert(0, str(Path(__file__).parent))

# Eight-frame, three-token worked example used across the suite. Known facts,
# all independently verified by enumeration in tests:
#   greedy alignment [E,E,_,_,_,D,D,D] -> label [E,D]
#   label [E,D] has probability 0.07189632, label [E,E,D] 0.13049988
#   best single alignment of [E,E,D] is [E,E,_,E,_,D,D,D] with prob 0.00441
WORKED_ROWS = np.array(
    [
        [0.30, 0.50, 0.20],
        [0.25, 0.60, 0.15],
        [0.60, 0.20, 0.20],
        [0.40, 0.35, 0.25],
        [0.50, 0.40, 0.10],
        [0.30, 0.30, 0.40],
        [0.10, 0.20, 0.70],
        [0.20, 0.30, 0.50],
    ]
)

E, D = 1, 2


def assert_no_child_left() -> None:
    """No forked worker of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def worked_alphabet() -> Alphabet:
    return Alphabet.from_names(("E", "D"))


@pytest.fixture(scope="session")
def worked_matrix(worked_alphabet) -> ProbMatrix:
    return ProbMatrix(WORKED_ROWS, sample_rate_hz=1.0)


@pytest.fixture()
def searches(monkeypatch) -> list:
    """The frame count of every single-stream beam search the test runs,
    whichever module calls decode._search."""
    calls = []
    for module in (decode, lockstep):
        search = module._search

        def counted(*args, search=search):
            calls.append(len(args[0]))
            return search(*args)

        monkeypatch.setattr(module, "_search", counted)
    return calls
