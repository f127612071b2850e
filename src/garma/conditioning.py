"""Index patterns for distribution queries.

Every query over an ``m``-dimensional Gaussian classifies each index as one
of three states:

* FREE          - the query ranges over this coordinate;
* CONDITIONED   - this coordinate is pinned to a known value;
* MARGINALISED  - this coordinate is integrated out (dropped).

Marginalisation is applied before conditioning, which for a Gaussian just
means deleting rows and columns before taking the Schur complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllConditionedError,
    AllMarginalisedError,
    CondOnMissingError,
    DimensionMismatchError,
    InvalidParamError,
    _set_fields,
)

__all__ = ["FREE", "CONDITIONED", "MARGINALISED", "CondPattern", "build_pattern"]

FREE = 0
CONDITIONED = 1
MARGINALISED = 2


@dataclass(frozen=True)
class CondPattern:
    """Per-index states plus conditioning values.

    ``values`` is NaN everywhere except at conditioned positions.  A pattern
    whose conditioned positions all carry finite values is *bound* and can be
    used directly; an unbound pattern only fixes the states, with values
    supplied later (for example row by row from a data matrix).  Both arrays
    are read-only views; ``state`` shares memory with an int8 array passed
    in, and ``values`` is always a copy.
    """

    state: np.ndarray
    values: np.ndarray = None

    def __post_init__(self):
        state = np.asarray(self.state, dtype=np.int8)
        if state.ndim != 1:
            raise InvalidParamError("pattern state must be one-dimensional")
        if not np.all((state >= FREE) & (state <= MARGINALISED)):
            raise InvalidParamError("pattern state codes must be 0, 1, or 2")
        if self.values is None:
            values = np.full(state.shape, np.nan)
        else:
            values = np.array(self.values, dtype=float)
            if values.shape != state.shape:
                raise DimensionMismatchError(
                    f"pattern values have shape {values.shape}, "
                    f"state has shape {state.shape}"
                )
        values[state != CONDITIONED] = np.nan
        _set_fields(self, state=state, values=values)

    def __len__(self):
        return len(self.state)

    @property
    def free_mask(self):
        return self.state == FREE

    @property
    def cond_mask(self):
        return self.state == CONDITIONED

    @property
    def marg_mask(self):
        return self.state == MARGINALISED

    @property
    def is_bound(self):
        """True when every conditioned position carries a finite value."""
        return bool(np.all(np.isfinite(self.values[self.cond_mask])))


def _flags(entries, what):
    """A boolean mask from booleans or the integers 0 and 1; any other entry
    raises :class:`InvalidParamError`."""
    flags = np.atleast_1d(np.asarray(entries))
    if flags.dtype != bool:
        if not np.all(np.isin(flags, (0, 1))):
            raise InvalidParamError(f"{what} flags must be booleans or the integers 0 and 1")
        flags = flags.astype(bool)
    return flags


def build_pattern(missing=None, cond_flags=None, condvals=None, values=None) -> CondPattern:
    """Normalise the two conditioning syntaxes into one :class:`CondPattern`.

    Either pass ``condvals`` (finite entry = conditioned at that value, NaN =
    free; the value-list style), or pass a ``missing`` mask and optional
    ``cond_flags`` (the flag style; missing positions are marginalised).
    Flags and missing entries are booleans or the integers 0 and 1; any
    other entry is rejected.  With the flag style, ``values`` optionally
    binds the conditioning values from a data row.

    Raises
    ------
    InvalidParamError
        If a flag or missing entry is neither boolean nor 0/1, or the
        arguments mix or omit both syntaxes.
    CondOnMissingError
        If a position is flagged as conditioning but is missing, or a
        conditioning value is non-finite.
    AllMarginalisedError
        If nothing survives marginalisation.
    DimensionMismatchError
        If the arguments disagree in length.
    """
    miss = None if missing is None else _flags(missing, "missing")
    if condvals is not None:
        if cond_flags is not None:
            raise InvalidParamError("pass either condvals or cond_flags, not both")
        values = np.atleast_1d(np.asarray(condvals, dtype=float))
        if values.ndim != 1:
            raise InvalidParamError("condvals must be one-dimensional")
        if np.any(np.isinf(values)):
            raise InvalidParamError("condvals entries must be finite or NaN")
        flags = np.isfinite(values)
    elif cond_flags is not None:
        flags = _flags(cond_flags, "cond")
    elif miss is None:
        raise InvalidParamError("build_pattern needs missing, cond_flags, or condvals")
    else:
        flags = np.zeros(miss.shape, dtype=bool)
    if miss is None:
        miss = np.zeros(flags.shape, dtype=bool)
    if flags.shape != miss.shape:
        raise DimensionMismatchError(
            f"the conditioning entries have length {flags.size}, "
            f"the missing mask has length {miss.size}"
        )
    if np.any(flags & miss):
        raise CondOnMissingError(
            "conditioning flag or value set on a missing position "
            f"(positions {np.nonzero(flags & miss)[0] + 1})"
        )
    if miss.all():
        raise AllMarginalisedError("every position is marginalised")
    state = np.where(flags, CONDITIONED, FREE).astype(np.int8)
    state[miss] = MARGINALISED
    if values is None:
        return CondPattern(state=state)
    row = np.atleast_1d(np.asarray(values, dtype=float))
    if row.shape != state.shape:
        raise DimensionMismatchError(
            f"values have length {row.size}, pattern has length {state.size}"
        )
    if np.any(~np.isfinite(row[flags])):
        raise CondOnMissingError("a flagged position carries no finite value")
    return CondPattern(state=state, values=row)


def _require_free(pattern, n):
    """Check a caller-supplied pattern for an ``n``-dimensional query: it must
    be a :class:`CondPattern` of length ``n`` with a free position left.

    Raises :class:`AllMarginalisedError` when every position is marginalised
    and :class:`AllConditionedError` when the rest are all conditioned.
    """
    if not isinstance(pattern, CondPattern):
        raise InvalidParamError("cond must be a CondPattern (see build_pattern)")
    if len(pattern) != n:
        raise DimensionMismatchError(
            f"the conditioning pattern has length {len(pattern)}, expected {n}"
        )
    if not pattern.free_mask.any():
        if not pattern.cond_mask.any():
            raise AllMarginalisedError("every position is marginalised")
        raise AllConditionedError(
            "every retained position is a conditioning position; no free position remains"
        )
