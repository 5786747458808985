"""Lipschitz surrogate properties for strongly orderable discrete targets.

The package turns a discrete, strongly orderable prediction target over a
finite-outcome probability simplex into a Lipschitz-continuous surrogate
property plus a link function back to the discrete reports, and audits
predictors for the associated calibration notions.
"""

from ordelic.simplex import LabelCounts, as_simplex_point, sample_simplex
from ordelic.properties import (
    AffineBoundary,
    CostMatrix,
    OrientedNormals,
    Surrogate,
)
from ordelic.embedding import EmbeddingInput, build_surrogate
from ordelic.normals import build_from_normals
from ordelic.audit import AuditReport

__version__ = "0.1.0"

__all__ = [
    "LabelCounts",
    "as_simplex_point",
    "sample_simplex",
    "AffineBoundary",
    "CostMatrix",
    "OrientedNormals",
    "Surrogate",
    "EmbeddingInput",
    "build_surrogate",
    "build_from_normals",
    "AuditReport",
    "__version__",
]
