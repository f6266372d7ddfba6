"""Core domain types shared by all modules.

Alphabet       -- token universe (blank at index 0 plus event classes).
ProbMatrix     -- T x |alphabet| row-stochastic matrix of per-frame token
                  probabilities with an attached sample rate.
collapse()     -- merge repeated tokens, then drop blanks: the mapping from a
                  frame-level alignment to its event label sequence.
validate_prob_matrix() -- checked (optionally renormalizing) constructor for
                  ProbMatrix from raw rows.
check_alphabet() -- a matrix and an alphabet agree on the token count.
check_positive() -- a number lies in (0, inf).
DataError      -- base of the errors about malformed outside data (CLI exit 4).

Alignments and label sequences are plain tuples of token ids throughout the
package; an alignment has one token per frame, a label sequence is blank-free.
All types are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Token id reserved for the blank ("no event") symbol.
BLANK_ID = 0

#: Display name of the blank; no class may take it or the empty name.
BLANK_NAME = "_"

#: Strict absolute tolerance on row sums of a probability matrix.
ROW_SUM_ATOL = 1e-6

#: Rows whose sum is within this tolerance of 1 may be rescaled on request.
ROW_SUM_RENORM_ATOL = 1e-3

TokenSeq = tuple[int, ...]


class DataError(ValueError):
    """Outside data (a file's contents, a class name) is malformed."""


class InvalidTokenError(DataError):
    """A token id falls outside the alphabet."""


class NormalizationError(DataError):
    """A probability lies outside [0, 1] or a row does not sum to 1 within tolerance."""


class ParameterError(ValueError):
    """A caller-supplied parameter violates its documented constraints."""


def check_positive(value: float, what: str) -> float:
    """``value`` if it lies in (0, inf), else ParameterError naming ``what``."""
    if not 0 < value < math.inf:
        raise ParameterError(f"{what} must be in (0, inf), got {value}")
    return value


def check_class_name(name: str) -> str:
    """``name`` if a class may take it, else ParameterError.

    It must be non-empty, not the blank's name, printable (no control or
    whitespace character but the space), and hold no comma or space: commas
    separate the names of ``loss --label`` and the fields of ``sweep`` rows,
    and ``sweep`` joins a label's names with spaces.
    """
    if name in ("", BLANK_NAME) or not name.isprintable() or "," in name or " " in name:
        raise ParameterError(
            f"class name {name!r} must be non-empty, not {BLANK_NAME!r}, printable"
            " and hold no comma or space"
        )
    return name


@dataclass(frozen=True)
class Alphabet:
    """Token universe: blank at index 0 plus ``size - 1`` event classes.

    Args:
        size: Total token count including blank; must be >= 2.
        class_names: Optional display names for the non-blank tokens, in
            token-id order (so ``class_names[0]`` names token 1).
    """

    size: int
    class_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ParameterError(f"alphabet needs blank plus >= 1 class, got size {self.size}")
        if self.class_names is not None:
            names = tuple(self.class_names)
            object.__setattr__(self, "class_names", names)
            if len(names) != self.size - 1:
                raise ParameterError(f"expected {self.size - 1} class names, got {len(names)}")
            if len(set(names)) != len(names):
                raise ParameterError("class names must be unique")
            for name in names:
                check_class_name(name)

    def validate_token(self, token: int) -> None:
        if not 0 <= token < self.size:
            raise InvalidTokenError(f"token {token} outside alphabet of size {self.size}")

    def name_of(self, token: int) -> str:
        """Display name of a token ('_' for blank, 'C<k>' without names)."""
        self.validate_token(token)
        if token == BLANK_ID:
            return BLANK_NAME
        if self.class_names is not None:
            return self.class_names[token - 1]
        return f"C{token}"

    def id_of(self, name: str) -> int:
        """Token id of a class display name."""
        if self.class_names is None:
            raise ParameterError("alphabet has no class names")
        try:
            return self.class_names.index(name) + 1
        except ValueError:
            raise InvalidTokenError(f"unknown class name {name!r}") from None

    @classmethod
    def from_names(cls, class_names: tuple[str, ...] | list[str]) -> "Alphabet":
        return cls(size=len(class_names) + 1, class_names=tuple(class_names))


@dataclass(frozen=True)
class ProbMatrix:
    """Row-stochastic per-frame token probabilities.

    ``probs[t, c]`` is the probability of token ``c`` at frame ``t``. Every
    entry must lie in [0, 1] (NaN and infinities raise NormalizationError) and
    every row must sum to 1 within ``ROW_SUM_ATOL``; use
    :func:`validate_prob_matrix` to build one from unchecked rows. The
    sample rate must be finite and positive. It holds a frozen copy of ``probs``.
    """

    probs: np.ndarray
    sample_rate_hz: float = 1.0

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ParameterError(f"expected a (frames, tokens>=2) matrix, got shape {arr.shape}")
        check_positive(self.sample_rate_hz, "sample rate")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both tests
            t, c = np.argwhere(~((arr >= 0.0) & (arr <= 1.0)))[0]
            raise NormalizationError(
                f"probability at frame {t}, token {c} is {arr[t, c]}, out of [0, 1]"
            )
        sums = arr.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_ATOL)
        if bad.size:
            raise NormalizationError(
                f"row {bad[0]} sums to {sums[bad[0]]:.9f}, expected 1 +/- {ROW_SUM_ATOL}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def frames(self) -> int:
        return self.probs.shape[0]

    @property
    def n_tokens(self) -> int:
        return self.probs.shape[1]

    def window(self, start: int, stop: int) -> "ProbMatrix":
        """Frame slice ``[start, stop)`` as a read-only view with the same rate.

        A slice of a valid matrix is valid, so it is neither rechecked nor copied.
        detect_pipeline does not use it; it slices rows.
        """
        if not 0 <= start < stop <= self.frames:
            raise ParameterError(f"invalid window [{start}, {stop}) for {self.frames} frames")
        view = object.__new__(ProbMatrix)
        object.__setattr__(view, "probs", self.probs[start:stop])
        object.__setattr__(view, "sample_rate_hz", self.sample_rate_hz)
        return view


def validate_prob_matrix(
    rows: np.ndarray | list[list[float]],
    sample_rate_hz: float = 1.0,
    renormalize: bool = False,
) -> ProbMatrix:
    """Build a ProbMatrix from raw rows, optionally rescaling near-stochastic rows.

    With ``renormalize``, rows whose sum is within ``ROW_SUM_RENORM_ATOL`` of 1
    are scaled to sum exactly 1 before the strict check; rows further off still
    fail. Raises NormalizationError for entries that are not finite or lie
    outside [0, 1], and (with the offending row index) for row-sum violations.
    """
    arr = np.asarray(rows, dtype=np.float64)
    if renormalize and arr.ndim == 2 and arr.shape[0] >= 1:
        sums = arr.sum(axis=1)
        fixable = np.abs(sums - 1.0) <= ROW_SUM_RENORM_ATOL
        if not fixable.all():
            bad = int(np.flatnonzero(~fixable)[0])
            raise NormalizationError(
                f"row {bad} sums to {sums[bad]:.9f}, beyond renormalizable "
                f"tolerance {ROW_SUM_RENORM_ATOL}"
            )
        arr = arr / sums[:, None]
    return ProbMatrix(arr, sample_rate_hz)


def check_alphabet(m: ProbMatrix, alphabet: Alphabet) -> None:
    """Raise ParameterError unless ``m`` has one column per alphabet token."""
    if m.n_tokens != alphabet.size:
        raise ParameterError(f"matrix has {m.n_tokens} tokens, alphabet {alphabet.size}")


def collapse(tokens, alphabet: Alphabet) -> TokenSeq:
    """Collapse an alignment to its label sequence.

    Maximal runs of equal tokens are replaced by a single token, then all
    blanks are removed; order is preserved. Note the intermediate step
    matters: [E, blank, E] collapses to [E, E] (two distinct events), not [E].
    """
    out: list[int] = []
    prev = -1
    for tok in tokens:
        tok = int(tok)
        if not 0 <= tok < alphabet.size:
            alphabet.validate_token(tok)  # raises InvalidTokenError
        if tok != prev and tok != BLANK_ID:
            out.append(tok)
        prev = tok
    return tuple(out)
