"""Weighted Chamfer objective: value, analytic gradients, weight schedules,
and uncertainty-based weighting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import Matching, PointCloud, _check_int
from .cloud import nearest_neighbors  # noqa: F401  (perfbench's tracer wraps this binding)
from .errors import InvalidInputError, NumericalError
from .metrics import _DCD, _check_positive, _check_r, _matched, _mean, _terms, _weighted

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
        _check_int("T", self.T)
        # only stair and abridged-linear read t; linear divides by T
        if self.kind in ("stair", "abridged-linear"):
            _check_int("t", self.t)
            if not 0 < self.t < self.T:
                raise InvalidInputError(f"need 0 < t < T, got t={self.t}, T={self.T}")
        if not self.T >= 1:
            raise InvalidInputError(f"need T >= 1, got T={self.T}")
        if self.kind == "exponential":  # no other kind reads sigma
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
        _check_positive("tau", tau)
        _check_positive("theta", theta)
        return cls(s_local=-math.log(tau), s_global=-math.log(theta))

    def weights(self) -> FcdWeights:
        """The effective weights; NumericalError if either leaves the float range."""
        try:
            alpha, beta = math.exp(-self.s_local), math.exp(-self.s_global)
        except OverflowError:
            raise NumericalError("uncertainty weights overflowed") from None
        if alpha == 0.0 or beta == 0.0:
            raise NumericalError("uncertainty weights underflowed")
        return FcdWeights(alpha=alpha, beta=beta)


def fcd(p: PointCloud, g: PointCloud, weights: FcdWeights, r: int = 1, *,
        matching: Matching | None = None) -> float:
    """Weighted Chamfer objective: alpha * local-fit term + beta * coverage term."""
    m = _matched(p, g, matching)
    _check_r(r)
    return _weighted(m, weights.alpha, weights.beta, r)


def _direction(diff: np.ndarray, dist: np.ndarray, r: int) -> np.ndarray:
    """Per-row gradient of d^r with respect to the first point of each pair.

    For r=1 this is the unit vector diff/dist (zero where the pair coincides,
    a valid subgradient); for r=2 it is 2*diff.
    """
    if r == 2:
        return 2.0 * diff
    norm = dist[:, None]
    return np.divide(diff, norm, out=np.zeros_like(diff), where=norm > 0.0)


def _value_grad(m: Matching, alpha: float, beta: float, r: int, temperature: float | None):
    """The means of m's two directions of ``_terms`` and the gradient at m.p of alpha times
    the first plus beta times the second; NumericalError if it is not finite."""
    p, g = m.p, m.g
    (gi, gd), (pi, pd) = m.p_to_g, m.g_to_p
    terms_p, factor_p = _terms(m, 0, r, temperature)
    terms_g, factor_g = _terms(m, 1, r, temperature)

    def scaled(weight, factor, direction):
        return weight * direction if factor is None else (weight * factor[:, None]) * direction

    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports an overflow
        grad = scaled(alpha / len(p), factor_p, _direction(p.points - g.points[gi], gd, r))
        pull = scaled(beta / len(g), factor_g, _direction(p.points[pi] - g.points, pd, r))
        np.add.at(grad, pi, pull)
    if not np.isfinite(grad).all():
        raise NumericalError("gradient contains non-finite entries")
    return _mean(terms_p), _mean(terms_g), grad


def fcd_gradient(p: PointCloud, g: PointCloud, weights: FcdWeights, r: int = 1, *,
                 matching: Matching | None = None) -> np.ndarray:
    """Gradient of the weighted Chamfer objective with respect to each predicted point.

    Nearest-neighbor assignments are frozen at the current configuration (the
    subgradient of the min), and recomputed on every call unless ``matching``
    supplies them. Returns an (n, dim) array aligned with p.
    """
    m = _matched(p, g, matching)
    _check_r(r)
    return _value_grad(m, weights.alpha, weights.beta, r, None)[2]


def dcd_gradient(p: PointCloud, g: PointCloud, temperature: float = 1000.0, *,
                 matching: Matching | None = None) -> np.ndarray:
    """Gradient of the density-aware Chamfer distance with respect to each predicted point.

    Assignments and match counts are frozen at the current configuration, so only the
    exponential distance kernels are differentiated; NumericalError if an entry is not finite.
    """
    _check_positive("temperature", temperature)
    m = _matched(p, g, matching)
    return _value_grad(m, *_DCD, temperature)[2]


def schedule_weights(
    spec: ScheduleSpec, epoch: int, state: UncertaintyState | None = None
) -> FcdWeights:
    """Evaluate a weight schedule at an epoch.

    alpha is pinned to tau for every preset kind; beta follows the kind's
    decay from theta toward tau. The uncertainty kind ignores the epoch and
    reads the effective weights from the supplied state.
    """
    _check_int("epoch", epoch)
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

    total = exp(-s_local) * local + exp(-s_global) * global + s_local + s_global, the
    weights being ``state.weights()``. The log terms penalize inflating a variance just
    to silence its loss.
    """
    if not (local_loss >= 0 and global_loss >= 0):  # NaN fails too
        raise InvalidInputError("losses must be non-negative")
    w = state.weights()
    total = w.alpha * local_loss + w.beta * global_loss + state.s_local + state.s_global
    grad_local = -w.alpha * local_loss + 1.0
    grad_global = -w.beta * global_loss + 1.0
    return total, (grad_local, grad_global)
