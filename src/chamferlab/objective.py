"""Weighted Chamfer objective: value, analytic gradients, weight schedules,
and uncertainty-based weighting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import Matching, PointCloud
from .cloud import nearest_neighbors  # noqa: F401  (perfbench's tracer wraps this binding)
from .errors import InvalidInputError
from .metrics import _check_positive, _check_r, _matched, cd_global, cd_local

SCHEDULE_KINDS = ("static", "stair", "linear", "abridged-linear", "exponential", "uncertainty")


@dataclass(frozen=True)
class FcdWeights:
    """Pair of positive weights: alpha scales local fitting, beta global coverage.

    Equal weights recover the plain symmetric Chamfer objective; beta > alpha
    emphasizes covering the target over hugging the current matches.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise InvalidInputError(
                f"weights must be positive and finite, got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class ScheduleSpec:
    """Epoch-indexed rule for the (alpha, beta) weights.

    theta and tau are the upper and lower weight bounds, t the transition
    epoch for the stair / abridged-linear kinds, T the total epoch count, and
    sigma the exponential decay rate. alpha stays at tau for every kind; beta
    starts at theta and decays per kind.
    """

    kind: str
    theta: float = 2.0
    tau: float = 1.0
    t: int = 200
    T: int = 400
    sigma: float = 200.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidInputError(f"unknown schedule kind {self.kind!r}")
        if not self.theta > self.tau > 0:
            raise InvalidInputError(
                f"need theta > tau > 0, got theta={self.theta}, tau={self.tau}"
            )
        if not self.theta < math.inf:
            raise InvalidInputError(f"theta must be finite, got {self.theta}")
        # only stair and abridged-linear read t; linear divides by T
        if self.kind in ("stair", "abridged-linear") and not 0 < self.t < self.T:
            raise InvalidInputError(f"need 0 < t < T, got t={self.t}, T={self.T}")
        if not self.T >= 1:
            raise InvalidInputError(f"need T >= 1, got T={self.T}")
        _check_positive("sigma", self.sigma)


@dataclass
class UncertaintyState:
    """Log-variance parameters of the two sub-objectives.

    The effective weight of each term is exp(-s); descending the state jointly
    with the points lets the weights adapt to the observed losses.
    """

    s_local: float
    s_global: float

    def __post_init__(self):
        if not (math.isfinite(self.s_local) and math.isfinite(self.s_global)):
            raise InvalidInputError("uncertainty state must be finite")

    @classmethod
    def initial(cls, tau: float = 1.0, theta: float = 2.0) -> "UncertaintyState":
        """State whose effective weights start at (tau, theta)."""
        return cls(s_local=-math.log(tau), s_global=-math.log(theta))

    def weights(self) -> FcdWeights:
        return FcdWeights(alpha=math.exp(-self.s_local), beta=math.exp(-self.s_global))


def fcd(p: PointCloud, g: PointCloud, weights: FcdWeights, r: int = 1, *,
        matching: Matching | None = None) -> float:
    """Weighted Chamfer objective: alpha * local-fit term + beta * coverage term."""
    m = _matched(p, g, matching)
    local, coverage = cd_local(p, g, r, matching=m), cd_global(p, g, r, matching=m)
    return weights.alpha * local + weights.beta * coverage


def _direction(diff: np.ndarray, dist: np.ndarray, r: int) -> np.ndarray:
    """Per-row gradient of d^r with respect to the first point of each pair.

    For r=1 this is the unit vector diff/dist (zero where the pair coincides,
    a valid subgradient); for r=2 it is 2*diff.
    """
    if r == 2:
        return 2.0 * diff
    norm = dist[:, None]
    return np.divide(diff, norm, out=np.zeros_like(diff), where=norm > 0.0)


def fcd_gradient(p: PointCloud, g: PointCloud, weights: FcdWeights, r: int = 1, *,
                 matching: Matching | None = None) -> np.ndarray:
    """Gradient of the weighted Chamfer objective with respect to each predicted point.

    Nearest-neighbor assignments are frozen at the current configuration (the
    subgradient of the min), and recomputed on every call unless ``matching``
    supplies them. Returns an (n, dim) array aligned with p.
    """
    m = _matched(p, g, matching)
    _check_r(r)
    gi, gd = m.p_to_g
    pi, pd = m.g_to_p

    grad = (weights.alpha / len(p)) * _direction(p.points - g.points[gi], gd, r)
    pull = (weights.beta / len(g)) * _direction(p.points[pi] - g.points, pd, r)
    np.add.at(grad, pi, pull)
    if not np.isfinite(grad).all():
        raise InvalidInputError("gradient contains non-finite entries")
    return grad


def dcd_gradient(p: PointCloud, g: PointCloud, temperature: float = 1000.0, *,
                 matching: Matching | None = None) -> np.ndarray:
    """Gradient of the density-aware Chamfer distance with respect to each predicted point.

    Assignments and match counts are frozen at the current configuration, so
    only the exponential distance kernels are differentiated.
    """
    _check_positive("temperature", temperature)
    m = _matched(p, g, matching)
    gi, gd = m.p_to_g
    pi, pd = m.g_to_p

    kern_p = temperature * np.exp(-temperature * gd) / m.hits_on_g[gi]
    grad = (0.5 / len(p)) * kern_p[:, None] * _direction(p.points - g.points[gi], gd, 1)
    kern_g = temperature * np.exp(-temperature * pd) / m.hits_on_p[pi]
    pull = (0.5 / len(g)) * kern_g[:, None] * _direction(p.points[pi] - g.points, pd, 1)
    np.add.at(grad, pi, pull)
    return grad


def schedule_weights(
    spec: ScheduleSpec, epoch: int, state: UncertaintyState | None = None
) -> FcdWeights:
    """Evaluate a weight schedule at an epoch.

    alpha is pinned to tau for every preset kind; beta follows the kind's
    decay from theta toward tau. The uncertainty kind ignores the epoch and
    reads the effective weights from the supplied state.
    """
    if not 0 <= epoch <= spec.T:
        raise InvalidInputError(f"epoch must be in [0, {spec.T}], got {epoch}")
    if spec.kind == "uncertainty":
        if state is None:
            raise InvalidInputError("uncertainty schedule requires an UncertaintyState")
        return state.weights()
    theta, tau = spec.theta, spec.tau
    if spec.kind == "static":
        beta = theta
    elif spec.kind == "stair":
        beta = theta if epoch < spec.t else tau
    elif spec.kind == "linear":
        beta = theta - (epoch / spec.T) * (theta - tau)
    elif spec.kind == "abridged-linear":
        if epoch <= spec.t:
            beta = theta
        else:
            beta = theta - ((epoch - spec.t) / (spec.T - spec.t)) * (theta - tau)
    else:  # exponential
        beta = (theta - tau) * math.exp(-epoch / spec.sigma) + tau
    return FcdWeights(alpha=tau, beta=beta)


def uncertainty_loss(
    local_loss: float, global_loss: float, state: UncertaintyState
) -> tuple[float, tuple[float, float]]:
    """Uncertainty-weighted total loss and its partials with respect to the state.

    total = exp(-s_local) * local + exp(-s_global) * global + s_local + s_global.
    The log terms penalize inflating a variance just to silence its loss.
    """
    if local_loss < 0 or global_loss < 0:
        raise InvalidInputError("losses must be non-negative")
    w_local = math.exp(-state.s_local)
    w_global = math.exp(-state.s_global)
    total = w_local * local_loss + w_global * global_loss + state.s_local + state.s_global
    grad_local = -w_local * local_loss + 1.0
    grad_global = -w_global * global_loss + 1.0
    return total, (grad_local, grad_global)
