"""Tests for the result records: frozen, with read-only array fields,
leaving the arrays they were built from as they were, and rejecting malformed
fields with typed errors."""

import dataclasses

import numpy as np
import pytest

from garma import (
    AcvSequence,
    ArmaSpec,
    CondPattern,
    DimensionMismatchError,
    IntensityVector,
    InvalidParamError,
    PsiWeights,
    SpectrumTestResult,
    VarianceMatrix,
    intensity,
    mvn,
)


def build(kind, vec, mat, state):
    """A record of type ``kind`` built from the writeable arrays given."""
    return {
        "ArmaSpec": lambda: ArmaSpec(ar=vec[1:], ma=vec[:1]),
        "PsiWeights": lambda: PsiWeights(weights=vec, truncation_index=2, tail_bound=0.0),
        "AcvSequence": lambda: AcvSequence(values=vec),
        "VarianceMatrix": lambda: VarianceMatrix(entries=mat, index_labels=(1, 2, 3)),
        "CondPattern": lambda: CondPattern(state=state, values=vec),
        "GaussianParams": lambda: mvn.GaussianParams(mean=vec, cov=mat),
        "ConditionalMoments": lambda: mvn.ConditionalMoments(cond_mean=vec, cond_cov=mat),
        "CdfResult": lambda: mvn.CdfResult(value=vec[2], error_estimate=0.0, method="qmc"),
        "IntensityVector": lambda: IntensityVector(
            values=vec, frequencies=vec, centred=True, scaled=True,
            nyquist_truncated=True, dof=2, series_len=3),
        "SpectrumTestResult": lambda: SpectrumTestResult(
            statistic=1.0, p_value=0.5, sims=3, null_sample=vec, seed=1, series_len=3,
            intensity=intensity(vec)),
    }[kind]()


# Fields that hold a copy of the array passed in, not a view of it.
COPIES = {("GaussianParams", "mean"), ("GaussianParams", "cov"), ("CondPattern", "values")}


@pytest.mark.parametrize("kind", [
    "ArmaSpec", "PsiWeights", "AcvSequence", "VarianceMatrix", "CondPattern",
    "GaussianParams", "ConditionalMoments", "CdfResult", "IntensityVector",
    "SpectrumTestResult",
])
def test_array_fields_read_only_and_inputs_untouched(kind):
    vec, mat = np.array([1.0, 0.5, 0.25]), np.eye(3)
    state = np.array([0, 1, 2], dtype=np.int8)
    record = build(kind, vec, mat, state)
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, None)
    for name, value in vars(record).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name
            with pytest.raises(ValueError):
                value.flat[0] = 0
            shared = any(np.shares_memory(value, a) for a in (vec, mat, state))
            assert shared == ((kind, name) not in COPIES), name
    assert vec.flags.writeable and mat.flags.writeable and state.flags.writeable


@pytest.mark.parametrize("make, error, message", [
    (lambda: CondPattern(state=[[0, 1]]), InvalidParamError,
     "pattern state must be one-dimensional"),
    (lambda: CondPattern(state=[0, 3]), InvalidParamError,
     "pattern state codes must be 0, 1, or 2"),
    (lambda: CondPattern(state=[0, 1], values=[1.0]), DimensionMismatchError,
     "pattern values have shape (1,), state has shape (2,)"),
    (lambda: mvn.GaussianParams(mean=[[0.0, 1.0]], cov=np.eye(2)), InvalidParamError,
     "mean must be one-dimensional"),
    (lambda: mvn.GaussianParams(mean=[0.0, 1.0], cov=[[1.0, np.inf], [np.inf, 1.0]]),
     InvalidParamError, "covariance entries must all be finite"),
    (lambda: mvn.CdfResult(1.5, 0.0, "qmc"), InvalidParamError,
     "probability out of range: 1.5"),
    (lambda: ArmaSpec(ar=[[0.5]]), InvalidParamError,
     "ar must be a one-dimensional sequence"),
])
def test_malformed_fields_raise_typed_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_derived_properties():
    assert AcvSequence(values=[1.0, 0.5, 0.25]).lag_count == 3
    labels = VarianceMatrix(entries=np.eye(2), index_labels=(2, 5)).labels
    assert labels == ["Time[2]", "Time[5]"]
