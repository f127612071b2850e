"""Stationary Gaussian ARMA distributions, spectral intensity, and the
permutation-spectrum test.

The distribution of any finite stretch of a stationary Gaussian ARMA series
is multivariate normal with a Toeplitz covariance, so densities, CDFs,
conditional laws, and exact samplers are all available in closed form.  This
package exposes them (`dgarma`, `pgarma`, `rgarma`), the underlying ARMA
plumbing (`ArmaSpec`, `acf_vector`, `variance_matrix`, ...), a general
multivariate-normal engine (`garma.mvn`), and spectral tools (`intensity`,
`spectrum_test`, `dft`).
"""

from . import mvn
from .arma import (
    AcvSequence,
    ArmaSpec,
    PsiWeights,
    VarianceMatrix,
    acf_vector,
    autocovariance,
    psi_weights,
    validate_stationary,
    variance_matrix,
)
from .conditioning import CONDITIONED, FREE, MARGINALISED, CondPattern, build_pattern
from .distribution import as_series_matrix, dgarma, pgarma, rgarma
from .errors import (
    AllConditionedError,
    AllConditionedWarning,
    AllMarginalisedError,
    CondOnMissingError,
    DimensionMismatchError,
    EmptyInputError,
    GarmaError,
    GarmaWarning,
    InvalidParamError,
    NearUnitRootWarning,
    NonStationaryError,
    NotPositiveDefiniteError,
    NumericalAdjustmentWarning,
    SharedRootWarning,
    ToleranceNotReachedError,
    ZeroVarianceError,
)
from .spectral import IntensityVector, SpectrumTestResult, dft, intensity, spectrum_test
from .svgplots import emit_plot

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "mvn",
    "ArmaSpec",
    "PsiWeights",
    "AcvSequence",
    "VarianceMatrix",
    "validate_stationary",
    "psi_weights",
    "autocovariance",
    "acf_vector",
    "variance_matrix",
    "CondPattern",
    "build_pattern",
    "FREE",
    "CONDITIONED",
    "MARGINALISED",
    "dgarma",
    "pgarma",
    "rgarma",
    "as_series_matrix",
    "IntensityVector",
    "SpectrumTestResult",
    "dft",
    "intensity",
    "spectrum_test",
    "emit_plot",
    "GarmaError",
    "InvalidParamError",
    "NonStationaryError",
    "DimensionMismatchError",
    "NotPositiveDefiniteError",
    "AllConditionedError",
    "AllMarginalisedError",
    "CondOnMissingError",
    "ZeroVarianceError",
    "EmptyInputError",
    "ToleranceNotReachedError",
    "GarmaWarning",
    "NearUnitRootWarning",
    "SharedRootWarning",
    "AllConditionedWarning",
    "NumericalAdjustmentWarning",
]
