"""Lipschitz surrogate properties for strongly orderable discrete targets.

The package turns a discrete, strongly orderable prediction target over a
finite-outcome probability simplex into a Lipschitz-continuous surrogate
property plus a link function back to the discrete reports, and audits
predictors for the associated calibration notions.
"""

from ordelic.simplex import LabeledDataset, as_simplex_point, sample_simplex
from ordelic.piecewise import MaxAffinePieces, PiecewiseAffine
from ordelic.properties import (
    AffineBoundary,
    CostMatrix,
    OrderableSpec,
    OrientedNormals,
    Surrogate,
)
from ordelic.embedding import EmbeddingInput, build_surrogate
from ordelic.normals import build_from_spec
from ordelic.audit import AuditReport

__version__ = "0.1.0"

__all__ = [
    "LabeledDataset",
    "as_simplex_point",
    "sample_simplex",
    "MaxAffinePieces",
    "PiecewiseAffine",
    "AffineBoundary",
    "CostMatrix",
    "OrderableSpec",
    "OrientedNormals",
    "Surrogate",
    "EmbeddingInput",
    "build_surrogate",
    "build_from_spec",
    "AuditReport",
    "__version__",
]
