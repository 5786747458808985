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

from ordelic._kernels import roe_batch
from ordelic.errors import SpecError
from ordelic.piecewise import MaxAffinePieces, PiecewiseAffine, lower_convex_envelope
from ordelic.properties import CostMatrix, Surrogate

_EMBED_TOL = 1e-10


@dataclass(frozen=True)
class EmbeddingInput:
    """Per-outcome embedded losses plus the report embedding points."""

    losses: tuple  # MaxAffinePieces per outcome
    phi: np.ndarray  # strictly increasing, one per report
    cost: CostMatrix | None = None

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


def build_envelope_loss(cost: CostMatrix, phi, outer_slope: float) -> EmbeddingInput:
    """Embedded loss: envelope chords of (phi_r, cost[r, y]) plus outer
    extensions of slope -S and +S through the extreme points.

    ``outer_slope`` must be at least the largest chord-slope magnitude so the
    extensions never cut below the chords.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if len(phi) != cost.n_reports:
        raise SpecError("one embedding point per report required")
    if np.any(np.diff(phi) <= 0):
        raise SpecError("embedding points must be strictly increasing")
    S = float(outer_slope)
    if S <= 0:
        raise SpecError("outer slope must be positive")
    losses = []
    for y in range(cost.n_outcomes):
        pts = np.column_stack([phi, cost.entries[:, y]])
        chords = lower_convex_envelope(pts)
        max_slope = max(abs(a) for a, _ in chords)
        if S < max_slope - 1e-12:
            raise SpecError(
                f"outer slope {S} does not dominate chord slopes "
                f"(max magnitude {max_slope}) for outcome {y + 1}"
            )
        left = (-S, pts[0, 1] + S * pts[0, 0])
        right = (S, pts[-1, 1] - S * pts[-1, 0])
        pieces = []
        for piece in [left] + chords + [right]:
            if not any(
                abs(piece[0] - q[0]) <= 1e-12 and abs(piece[1] - q[1]) <= 1e-12
                for q in pieces
            ):
                pieces.append(piece)
        losses.append(MaxAffinePieces(np.array(pieces)))
    return EmbeddingInput(tuple(losses), phi, cost=cost)


def pseudo_identification(inp: EmbeddingInput, u: float, outcome: int) -> float:
    """Three-case pseudo-derivative of the embedded loss at u (1-based outcome).

    Differentiable: the derivative.  Left/right derivative signs differ: 0.
    Same sign: their average.
    """
    dl, dr = inp.losses[outcome - 1].derivative_interval(float(u))
    if abs(dl - dr) <= 1e-12:
        return dl
    if np.sign(dl) != np.sign(dr):
        return 0.0
    return 0.5 * (dl + dr)


def interpolation_grid(inp: EmbeddingInput) -> np.ndarray:
    """Embedding points union consecutive midpoints, sorted."""
    phi = inp.phi
    mids = 0.5 * (phi[:-1] + phi[1:])
    return np.unique(np.concatenate([phi, mids]))


def interpolate_identification(inp: EmbeddingInput) -> list[PiecewiseAffine]:
    """Per-outcome piecewise-linear interpolation of the pseudo-derivative
    over the interpolation grid, continued with unit slope outside it."""
    grid = interpolation_grid(inp)
    out = []
    for y in range(1, inp.n_outcomes + 1):
        nodes = np.array([pseudo_identification(inp, u, y) for u in grid])
        if np.any(np.diff(nodes) < -1e-12):
            raise SpecError(
                f"interpolated identification for outcome {y} is decreasing; "
                "input loss is not convex in the embedded sense"
            )
        out.append(PiecewiseAffine.from_nodes(grid, nodes, 1.0, 1.0))
    return out


def build_surrogate(inp: EmbeddingInput) -> Surrogate:
    """Full construction: interpolate, set midpoint thresholds, and take the
    property range from the simplex-vertex roots (the expected identification
    at any p lies between the vertices' own)."""
    v_bar = interpolate_identification(inp)
    grid = interpolation_grid(inp)
    roots = roe_batch(grid, np.stack([v(grid) for v in v_bar]), np.eye(inp.n_outcomes))
    return Surrogate(
        identification=tuple(v_bar),
        thresholds=0.5 * (inp.phi[:-1] + inp.phi[1:]),
        value_range=(float(roots.min()), float(roots.max())),
        cost=inp.cost,
    )
