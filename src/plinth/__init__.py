"""Exact-arithmetic toolkit for additive-group actions on affine space.

Sparse rational polynomial arithmetic, locally nilpotent derivations and
their flows, SAGBI subduction with replayable certificates, and themed
verification suites: Roberts' action on affine 7-space, binary-form
modules of SL2, separating-set sampling, and two small quotient case
studies.
"""

from .polyring import (
    ANY_DEGREE,
    INHOMOGENEOUS,
    InfiniteGradedPieceError,
    Monomial,
    PolyError,
    Polynomial,
    VariableMismatchError,
    VariableSet,
    WeightSystem,
    ZeroPolynomialError,
)
from .derivation import Derivation
from .sagbi import GeneratorSet, SubductionCertificate, TeteATete
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "ANY_DEGREE",
    "INHOMOGENEOUS",
    "Derivation",
    "GeneratorSet",
    "InfiniteGradedPieceError",
    "Monomial",
    "PolyError",
    "Polynomial",
    "SubductionCertificate",
    "TeteATete",
    "VariableMismatchError",
    "VariableSet",
    "VerificationReport",
    "WeightSystem",
    "ZeroPolynomialError",
    "__version__",
]
