"""Exception and warning types, input checks, and the warning and record helpers of the package."""

import math
import numbers
import sys
import warnings

import numpy as np


class GarmaError(Exception):
    """Base class for every error raised by this package."""


class InvalidParamError(GarmaError, ValueError):
    """A parameter lies outside its allowed domain."""


class NonStationaryError(GarmaError, ValueError):
    """The autoregressive polynomial has a root on or inside the unit circle.

    Attributes
    ----------
    min_modulus : float
        Smallest root modulus found; stationarity requires it to exceed 1.
    """

    def __init__(self, min_modulus, message=None):
        self.min_modulus = float(min_modulus)
        if message is None:
            message = (
                "model is not stationary: smallest AR root modulus is "
                f"{self.min_modulus:.6g} (must be > 1)"
            )
        super().__init__(message)


class DimensionMismatchError(GarmaError, ValueError):
    """Lengths or shapes of related arguments disagree."""


class NotPositiveDefiniteError(GarmaError, ValueError):
    """A covariance matrix is not positive definite, even after bounded
    diagonal inflation."""


class AllConditionedError(GarmaError, ValueError):
    """Every retained index is a conditioning index; no free index remains."""


class AllMarginalisedError(GarmaError, ValueError):
    """Every index is marginalised away; nothing remains to work with."""


class CondOnMissingError(GarmaError, ValueError):
    """A position was flagged as conditioning but carries no value."""


class ZeroVarianceError(GarmaError, ValueError):
    """The input series is constant, so scaling by its spread is undefined."""


class EmptyInputError(GarmaError, ValueError):
    """The input series contains no observations."""


class ToleranceNotReachedError(GarmaError, RuntimeError):
    """An iterative estimate hit its sample cap before reaching the requested
    tolerance.

    Attributes
    ----------
    best_estimate : float
        The estimate at the point the cap was hit.
    error_estimate : float
        Estimated standard error of ``best_estimate``.
    """

    def __init__(self, best_estimate, error_estimate, message=None):
        self.best_estimate = float(best_estimate)
        self.error_estimate = float(error_estimate)
        if message is None:
            message = (
                f"sample cap reached with error estimate {self.error_estimate:.3g} "
                f"above the requested tolerance (best estimate {self.best_estimate:.10g})"
            )
        super().__init__(message)


class GarmaWarning(UserWarning):
    """Base class for every warning emitted by this package."""


class NearUnitRootWarning(GarmaWarning):
    """An AR root modulus is barely above 1; results may be ill-conditioned."""


class SharedRootWarning(GarmaWarning):
    """The AR and MA polynomials share a root; the model is over-parameterised."""


class AllConditionedWarning(GarmaWarning):
    """Every non-marginalised position is a conditioning value; the density or
    probability is set to one by convention."""


class NumericalAdjustmentWarning(GarmaWarning):
    """A covariance was adjusted to make it factorable: its diagonal was
    inflated by ``eps`` times its mean diagonal entry.

    Attributes
    ----------
    eps : float
        The inflation, as a fraction of the mean diagonal entry.
    """

    def __init__(self, eps, message=None):
        self.eps = float(eps)
        if message is None:
            message = (
                f"covariance diagonal inflated by {self.eps:g} of its mean "
                "to make it positive definite"
            )
        super().__init__(message)


def _set_fields(record, **fields):
    """Store each field on the frozen dataclass ``record``, an ndarray as a
    read-only view: the record cannot change it, and an array the caller
    passed in keeps its own flags and shares its memory with the field."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value.view()
            value.setflags(write=False)
        object.__setattr__(record, name, value)


def _table(labels, rows, min_width=0):
    """``labels`` over each row of ``rows`` (one row or a matrix) to 7 decimals,
    right-aligned in columns two wider than the longest label or value, at least ``min_width``."""
    lines = [labels] + [[f"{v:.7f}" for v in row] for row in np.atleast_2d(rows)]
    width = max(max(len(cell) for line in lines for cell in line) + 2, min_width)
    return "\n".join("".join(cell.rjust(width) for cell in line) for line in lines)


def _warn(warning):
    """Issue ``warning`` at the caller's line: the first stack frame outside this package."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(warning, stacklevel=level)


def _check_seed(seed):
    """``seed`` for numpy's generators: ``None`` and numpy's seed objects pass,
    a ``SeedSequence`` as a copy (a generator spawns children from its
    ``SeedSequence``, which would change the caller's object), and a number,
    alone or in a list or tuple, must be a non-negative integer (an integral
    float becomes an ``int``), else :class:`InvalidParamError`."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size,
                                      n_children_spawned=seed.n_children_spawned)
    if seed is None or isinstance(seed, (np.random.BitGenerator, np.random.Generator)):
        return seed
    entries = seed if isinstance(seed, (list, tuple)) else [seed]
    ints = [int(v) if isinstance(v, (int, np.integer))
            or (isinstance(v, (float, np.floating)) and float(v).is_integer()) else -1
            for v in entries]
    if min(ints, default=0) < 0:
        raise InvalidParamError(f"seed must be a non-negative integer, got {seed!r}")
    return ints if entries is seed else ints[0]


def _check_count(name, value, minimum):
    """``value`` as an ``int`` if it is an integer, not a bool, of at least
    ``minimum`` (0 or 1), else :class:`InvalidParamError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        kind = "positive" if minimum == 1 else "non-negative"
        raise InvalidParamError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _check_tol(name, value):
    """``value`` as a float if it is a finite real number above 0 and not a
    bool, else :class:`InvalidParamError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise InvalidParamError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def _dense_memory_error(nbytes, what):
    """:class:`InvalidParamError` for a dense allocation of ``nbytes`` for
    ``what`` that failed, naming the functions that need only ``O(m)``
    memory for a series of length ``m``."""
    return InvalidParamError(
        f"cannot allocate {nbytes} bytes for {what}; dgarma and rgarma need "
        "only O(m) memory"
    )


def _deviation(values, mean, checked=slice(None), name=None):
    """``values - mean``, the one checked input of the Gaussian engines, without
    an overflow warning: :class:`InvalidParamError`, naming ``name`` or the first
    bad row, unless each row of its ``checked`` columns (last axis) is finite."""
    with np.errstate(over="ignore"):
        dev = values - mean
    finite = np.isfinite(dev[..., checked]).all(axis=-1)
    if not finite.all():
        where = name or f"row {int(np.argmin(finite)) + 1}"
        raise InvalidParamError(f"values must be finite: {where} minus the mean is not")
    return dev
