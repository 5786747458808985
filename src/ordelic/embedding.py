"""Smoothed surrogate built from the slopes of the embedded costs.

The discrete reports are embedded at strictly increasing reals phi.  Each
outcome's embedded loss interpolates its costs at phi linearly, with outer
slopes -S and +S, and it is convex exactly when its slopes do not fall.
Its three-case pseudo-derivative at phi and at the midpoints between them,
linearly interpolated with unit-slope tails, gives a nondecreasing
identification function whose expected root is a Lipschitz property
refining the discrete target through a midpoint-threshold link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ordelic.errors import SpecError
from ordelic.properties import NODE_DECREASE_TOL, CostMatrix, Surrogate


@dataclass(frozen=True)
class EmbeddingInput:
    """A cost matrix, the strictly increasing points ``phi`` its reports are
    embedded at, and the outer slope S, by default the steepest cost slope
    of any outcome, so that scaling the costs or phi scales S alike.

    ``slopes`` holds each outcome's embedded-loss slopes from left to right:
    -S, the slopes (c_{r+1} - c_r) / (phi_{r+1} - phi_r) of its costs, S.
    A row must not fall by more than NODE_DECREASE_TOL times its largest
    magnitude, which makes each embedded loss convex: a fall inside names
    the report triple that bends down and a phi that works, if one does; a
    fall at an end means S is too small.
    """

    cost: CostMatrix
    phi: np.ndarray
    outer_slope: float | None = None
    slopes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        costs = self.cost.entries
        if len(phi) != self.cost.n_reports:
            raise SpecError("one embedding point per report required")
        if not np.all(np.isfinite(phi)):
            raise SpecError(f"embedding points phi must be finite, got {phi.tolist()}")
        if np.any(np.diff(phi) <= 0):
            raise SpecError("embedding points must be strictly increasing")
        if self.outer_slope is not None and not 0 < float(self.outer_slope) < np.inf:
            raise SpecError(f"outer slope must be finite and positive, got "
                            f"{float(self.outer_slope)}")
        d = np.diff(costs, axis=0).T / np.diff(phi)
        S = float(np.abs(d).max() if self.outer_slope is None else self.outer_slope)
        slopes = np.column_stack([np.full(len(d), -S), d, np.full(len(d), S)])
        falls = np.diff(slopes) < -NODE_DECREASE_TOL * np.abs(slopes).max(axis=1)[:, None]
        ends = falls[:, [0, -1]].any(axis=1)
        if ends.any():
            y = int(np.argmax(ends))
            raise SpecError(f"outer slope {S} does not dominate chord slopes "
                            f"(max magnitude {np.abs(d[y]).max()}) for outcome {y + 1}")
        if falls.any():
            y = int(np.argmax(falls.any(axis=1)))
            raise SpecError(f"{_mismatch_message(costs[:, y], phi, falls[y, 1:-1], y + 1)}; "
                            f"{_convex_phi(costs, phi)}")
        for name, value in (("phi", phi), ("outer_slope", S), ("slopes", slopes)):
            object.__setattr__(self, name, value)


def _mismatch_message(costs: np.ndarray, phi: np.ndarray, falls: np.ndarray,
                      outcome: int) -> str:
    """Why an outcome's costs are not convex in phi: of the consecutive
    report triples whose slope falls (``falls``), the one whose costs bend
    down most against phi, and the spacing ratio of phi that would make it
    convex."""
    d, gaps = np.diff(costs), np.diff(phi)
    ratio = gaps[1:] / gaps[:-1]
    bend = d[:-1] * ratio - d[1:]  # > 0: the middle point is above the chord
    r = int(np.argmax(np.where(falls, bend, -np.inf)))
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


def _convex_phi(costs: np.ndarray, phi: np.ndarray) -> str:
    """A phi from the first two of ``phi`` at which the costs of every
    outcome (the columns of ``costs``) are convex, or why none exists.

    With cost steps d1, d2 across a report triple, its spacing ratio rho > 0
    makes the triple convex when d1 rho <= d2: rho >= d2 / d1 where d1 < 0,
    rho <= d2 / d1 where d1 > 0, and none where d1 = 0 > d2.  Each triple
    keeps its ratio where it fits every outcome, else takes the middle of
    the ratios that do, or twice the least when they have no upper bound.
    """
    gaps = np.diff(phi)
    ratio = gaps[1:] / gaps[:-1]
    d = np.diff(costs, axis=0)
    d1, d2 = d[:-1], d[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = d2 / d1
    least = np.where(d1 < 0, bound, 0.0).max(axis=1, initial=0.0)
    most = np.where(d1 > 0, bound, np.inf).min(axis=1)
    most[((d1 == 0) & (d2 < 0)).any(axis=1)] = 0.0
    none = (most <= 0) | (least > most)
    if none.any():
        r = int(np.argmax(none))
        return (f"no phi makes the costs of every outcome convex, as no spacing "
                f"ratio (phi{r + 3} - phi{r + 2})/(phi{r + 2} - phi{r + 1}) does")
    fits = (least <= ratio) & (ratio <= most)
    pick = np.where(fits, ratio, np.where(most < np.inf, 0.5 * (least + most), 2.0 * least))
    steps = gaps[0] * np.cumprod(np.concatenate([[1.0], pick]))
    works = phi[0] + np.concatenate([[0.0], np.cumsum(steps)])
    return f"phi {','.join(map(repr, works.tolist()))} makes the costs of every outcome convex"


def build_surrogate(inp: EmbeddingInput) -> Surrogate:
    """Full construction: the identification nodes are each outcome's
    three-case pseudo-derivative of its embedded loss at phi and at the
    midpoints between them; the thresholds are the midpoints.

    At phi_r the left and right derivatives are the slopes on either side:
    the node is 0 where their signs differ, else their mean (the derivative
    where they are equal).  At a midpoint it is its interval's slope.
    """
    phi, s = inp.phi, inp.slopes
    mids = 0.5 * (phi[:-1] + phi[1:])
    left, right = s[:, :-1], s[:, 1:]
    kinks = np.where(np.sign(left) != np.sign(right), 0.0, 0.5 * (left + right))
    # a midpoint that rounds onto a point of phi is that point
    grid, first = np.unique(np.concatenate([phi, mids]), return_index=True)
    nodes = np.concatenate([kinks, s[:, 1:-1]], axis=1)[:, first]
    return Surrogate(grid, nodes, thresholds=mids, cost=inp.cost)
