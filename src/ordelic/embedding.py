"""Smoothed surrogate built from an embedded max-affine loss.

The discrete reports are embedded at strictly increasing reals phi.  Each
outcome's loss becomes the max of the lower-convex-envelope chords through
the embedded cost values plus steep outer extensions.  A three-case
pseudo-derivative at the interpolation grid, linearly interpolated with
unit-slope tails, gives a nondecreasing identification function whose
expected root is a Lipschitz property refining the discrete target through
a midpoint-threshold link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ordelic.errors import SpecError
from ordelic.piecewise import MaxAffinePieces, lower_convex_envelope
from ordelic.properties import CostMatrix, Surrogate

_EMBED_TOL = 1e-10


@dataclass(frozen=True)
class EmbeddingInput:
    """Per-outcome embedded losses plus the report embedding points."""

    losses: tuple  # MaxAffinePieces per outcome
    phi: np.ndarray  # strictly increasing, one per report
    cost: CostMatrix | None = None
    outer_slope: float | None = None  # of the outer extensions, when built here

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if np.any(np.diff(phi) <= 0):
            raise SpecError("embedding points must be strictly increasing")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "losses", tuple(self.losses))
        if self.cost is not None:
            if len(phi) != self.cost.n_reports:
                raise SpecError("one embedding point per report required")
            if len(self.losses) != self.cost.n_outcomes:
                raise SpecError("one loss per outcome required")
            for y, loss in enumerate(self.losses):
                got = loss(phi)
                want = self.cost.entries[:, y]
                if np.any(np.abs(got - want) > _EMBED_TOL * (1.0 + np.abs(want))):
                    raise SpecError(_mismatch_message(want, phi, y + 1))

    @property
    def n_outcomes(self) -> int:
        return len(self.losses)


def _mismatch_message(costs: np.ndarray, phi: np.ndarray, outcome: int) -> str:
    """Why an embedded loss misses an outcome's costs: the consecutive report
    triple whose costs bend down most against phi, and the spacing ratio of
    phi that would make it convex; a generic message if none bends down."""
    d, gaps = np.diff(costs), np.diff(phi)
    ratio = gaps[1:] / gaps[:-1]
    bend = d[:-1] * ratio - d[1:]  # > 0: the middle point is above the chord
    if not np.any(bend > 0):
        return (f"loss for outcome {outcome} does not match the cost matrix "
                "at the embedded points")
    r = int(np.argmax(bend))
    d1, d2 = d[r], d[r + 1]
    spacing = f"(phi{r + 3} - phi{r + 2})/(phi{r + 2} - phi{r + 1})"
    if d1 < 0 or d2 > 0:
        need = (f"the spacing ratio {spacing} is {ratio[r]:g} but this triple "
                f"needs it {'>=' if d1 < 0 else '<='} {d2 / d1:g}")
    else:
        need = f"no spacing ratio {spacing} makes this triple convex"
    return (f"costs of outcome {outcome} are not convex in phi: reports "
            f"{r + 1}, {r + 2}, {r + 3} cost {costs[r]:g}, {costs[r + 1]:g}, "
            f"{costs[r + 2]:g} at phi {phi[r]:g}, {phi[r + 1]:g}, {phi[r + 2]:g}; "
            f"{need}")


def build_envelope_loss(cost: CostMatrix, phi, outer_slope: float | None = None
                        ) -> EmbeddingInput:
    """Embedded loss: envelope chords of (phi_r, cost[r, y]) plus outer
    extensions of slope -S and +S through the extreme points.

    ``outer_slope`` S must be at least the largest chord-slope magnitude so
    the extensions never cut below the chords; by default it is 1 plus the
    largest over all outcomes.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if len(phi) != cost.n_reports:
        raise SpecError("one embedding point per report required")
    if not np.all(np.isfinite(phi)):
        raise SpecError(f"embedding points phi must be finite, got {phi.tolist()}")
    if np.any(np.diff(phi) <= 0):
        raise SpecError("embedding points must be strictly increasing")
    if outer_slope is not None and not 0 < float(outer_slope) < np.inf:
        raise SpecError(f"outer slope must be finite and positive, got {float(outer_slope)}")
    points = [np.column_stack([phi, cost.entries[:, y]]) for y in range(cost.n_outcomes)]
    chords = [lower_convex_envelope(pts) for pts in points]
    steepest = [max(abs(a) for a, _ in c) for c in chords]
    S = 1.0 + max(steepest) if outer_slope is None else float(outer_slope)
    losses = []
    for y, (pts, c, max_slope) in enumerate(zip(points, chords, steepest)):
        if S < max_slope - 1e-12:
            raise SpecError(
                f"outer slope {S} does not dominate chord slopes "
                f"(max magnitude {max_slope}) for outcome {y + 1}"
            )
        left = (-S, pts[0, 1] + S * pts[0, 0])
        right = (S, pts[-1, 1] - S * pts[-1, 0])
        pieces = []
        for piece in [left] + c + [right]:
            if not any(
                abs(piece[0] - q[0]) <= 1e-12 and abs(piece[1] - q[1]) <= 1e-12
                for q in pieces
            ):
                pieces.append(piece)
        losses.append(MaxAffinePieces(np.array(pieces)))
    return EmbeddingInput(tuple(losses), phi, cost=cost, outer_slope=S)


def pseudo_identification_many(inp: EmbeddingInput, us, outcome: int) -> np.ndarray:
    """Three-case pseudo-derivative of the embedded loss (1-based outcome)
    at each of ``us``.

    Differentiable: the derivative.  Left/right derivative signs differ: 0.
    Same sign: their average.
    """
    dl, dr = inp.losses[outcome - 1].derivative_interval_many(us)
    return np.where(np.abs(dl - dr) <= 1e-12, dl,
                    np.where(np.sign(dl) != np.sign(dr), 0.0, 0.5 * (dl + dr)))


def interpolation_grid(inp: EmbeddingInput) -> np.ndarray:
    """Embedding points union consecutive midpoints, sorted."""
    phi = inp.phi
    mids = 0.5 * (phi[:-1] + phi[1:])
    return np.unique(np.concatenate([phi, mids]))


def build_surrogate(inp: EmbeddingInput) -> Surrogate:
    """Full construction: the identification nodes are each outcome's
    pseudo-derivative on the interpolation grid; thresholds are midpoints."""
    grid = interpolation_grid(inp)
    nodes = [pseudo_identification_many(inp, grid, y) for y in range(1, inp.n_outcomes + 1)]
    return Surrogate(grid, nodes, thresholds=0.5 * (inp.phi[:-1] + inp.phi[1:]),
                     cost=inp.cost)
