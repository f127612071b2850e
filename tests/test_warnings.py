"""Every GarmaWarning names the line in the caller's code that called garma,
whichever path inside the package raised it."""

import warnings

import numpy as np
import pytest

from garma import (
    AllConditionedWarning,
    ArmaSpec,
    NearUnitRootWarning,
    NumericalAdjustmentWarning,
    SharedRootWarning,
    acf_vector,
    build_pattern,
    dgarma,
    mvn,
    pgarma,
    psi_weights,
    rgarma,
    validate_stationary,
    variance_matrix,
)

SHARED = ArmaSpec(ar=(0.5,), ma=(-0.5,))
NEAR_UNIT = ArmaSpec(ar=(1 - 1e-7,))
# The first two coordinates are one variable twice: a singular conditioned block.
SINGULAR = mvn.GaussianParams(np.zeros(3), [[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])

# Each call on one line, so that line is the one its warnings must name.
CALLS = {
    "validate_stationary": (lambda: validate_stationary(SHARED), [SharedRootWarning]),
    "psi_weights": (lambda: psi_weights(SHARED), [SharedRootWarning]),
    "acf_vector": (lambda: acf_vector(3, NEAR_UNIT), [NearUnitRootWarning]),
    "variance_matrix": (lambda: variance_matrix(3, SHARED), [SharedRootWarning]),
    "dgarma": (lambda: dgarma([0.1, 0.2], SHARED), [SharedRootWarning]),
    "pgarma": (lambda: pgarma([0.1, 0.2], SHARED), [SharedRootWarning]),
    "rgarma": (lambda: rgarma(2, 3, SHARED, seed=1), [SharedRootWarning]),
    "dgarma-all-conditioned": (
        lambda: dgarma([0.1, 0.2], ArmaSpec(ar=(0.5,)), cond=[True, True]),
        [AllConditionedWarning],
    ),
    "cholesky": (lambda: mvn.cholesky([[1.0, 1.0], [1.0, 1.0]]), [NumericalAdjustmentWarning]),
    "conditional_moments": (
        lambda: mvn.conditional_moments(SINGULAR, build_pattern(condvals=[0.1, 0.1, np.nan])),
        [NumericalAdjustmentWarning],
    ),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_warning_names_the_calling_line(name):
    call, expected = CALLS[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [w.category for w in caught] == expected
    for w in caught:
        assert (w.filename, w.lineno) == (__file__, call.__code__.co_firstlineno)
