"""Direct gradient descent of free point coordinates against a target cloud,
including the coarse-to-fine supervised variant."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .cloud import Matching, PointCloud, _check_pair, subsample
from .errors import DivergenceError, InvalidInputError
from .metrics import EMD_EXACT_MAX, cd_global, cd_local, chamfer_l1, dcd, emd_exact
from .metrics import _check_positive, _check_r
from .objective import (
    FcdWeights,
    ScheduleSpec,
    UncertaintyState,
    dcd_gradient,
    fcd,
    fcd_gradient,
    schedule_weights,
    uncertainty_loss,
)

DIVERGENCE_FACTOR = 1e6
OBJECTIVE_KINDS = ("cd-l1", "cd-l2", "fcd", "dcd-loss")


@dataclass(frozen=True)
class OptimizerConfig:
    """Plain / momentum gradient-descent settings."""

    steps: int
    step_size: float
    update_rule: str = "plain"
    momentum_coeff: float = 0.0
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise InvalidInputError(f"steps must be >= 1, got {self.steps}")
        _check_positive("step_size", self.step_size)
        if self.update_rule not in ("plain", "momentum"):
            raise InvalidInputError(f"unknown update rule {self.update_rule!r}")
        if not 0.0 <= self.momentum_coeff < 1.0:
            raise InvalidInputError(f"momentum_coeff must lie in [0, 1), got {self.momentum_coeff}")
        if self.record_every < 1:
            raise InvalidInputError(f"record_every must be >= 1, got {self.record_every}")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which loss drives the descent.

    cd-l1 and cd-l2 are the symmetric Chamfer conventions (weights (1/2, 1/2)
    with plain distances, and (1, 1) with squared distances, respectively);
    fcd takes explicit weights or a schedule; dcd-loss descends the
    density-aware distance directly.
    """

    kind: str
    weights: FcdWeights | None = None
    r: int = 1
    dcd_temperature: float = 1000.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise InvalidInputError(f"unknown objective kind {self.kind!r}")
        _check_r(self.r)
        _check_positive("dcd_temperature", self.dcd_temperature)

    def resolved(self) -> tuple[FcdWeights | None, int]:
        """Fixed (weights, r) for this objective, or (None, r) for a scheduled fcd.

        dcd-loss gets (1/2, 1/2), the weights its two directional terms carry.
        """
        if self.kind == "fcd":
            return self.weights, self.r
        if self.kind == "cd-l2":
            return FcdWeights(1.0, 1.0), 2
        return FcdWeights(0.5, 0.5), 1  # cd-l1 and dcd-loss


@dataclass(frozen=True)
class TraceRecord:
    epoch: int
    objective: float
    alpha: float
    beta: float
    cd_l1: float
    dcd: float
    emd: float
    grad_max: float


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


@dataclass
class OptimizationTrace:
    """Per-step record of objective, weights, snapshot metrics, and gradient size."""

    records: list[TraceRecord]

    def to_csv(self) -> str:
        lines = [",".join(TRACE_COLUMNS)]
        for rec in self.records:
            cells = [str(rec.epoch)] + [repr(float(getattr(rec, c))) for c in TRACE_COLUMNS[1:]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class HierarchySpec:
    """Parametric coarse-to-fine cloud: each coarse point carries m children.

    The fine cloud is the union of (coarse point + child offset); offsets are
    free variables initialized near zero.
    """

    children_per_coarse: int
    offset_scale: float = 1e-3

    def __post_init__(self):
        if self.children_per_coarse < 1:
            raise InvalidInputError("children_per_coarse must be >= 1")
        if not 0 <= self.offset_scale < math.inf:
            raise InvalidInputError(f"offset_scale must be >= 0 and finite, got {self.offset_scale}")


def support_pinning(cloud: PointCloud, pinned) -> np.ndarray:
    """Validate pin indices against a cloud; pinned points never move."""
    idx = np.unique(np.asarray(list(pinned), dtype=np.intp).reshape(-1))
    if idx.size and (idx.min() < 0 or idx.max() >= len(cloud)):
        raise InvalidInputError(f"pinned indices out of range for cloud of size {len(cloud)}")
    return idx


def _snapshot(epoch: int, value: float, weights: FcdWeights, grad: np.ndarray,
              m: Matching, seed: int) -> TraceRecord:
    """Trace record at m.p; its snapshot metrics reuse the step's matching of (m.p, m.g)."""
    p, target = m.p, m.g
    return TraceRecord(
        epoch=epoch,
        objective=value,
        alpha=weights.alpha,
        beta=weights.beta,
        cd_l1=chamfer_l1(p, target, matching=m),
        dcd=dcd(p, target, matching=m),
        emd=_snapshot_emd(p, target, seed),
        grad_max=float(np.linalg.norm(grad, axis=1).max()),
    )


def _snapshot_emd(p: PointCloud, target: PointCloud, seed: int) -> float:
    if len(p) == len(target) and len(p) <= EMD_EXACT_MAX:
        return emd_exact(p, target)
    k = min(128, len(p), len(target))
    return emd_exact(
        subsample(p, k, "random", seed),
        subsample(target, k, "random", seed),
    )


class _Loss:
    """One stage's objective: its value, gradient and weights at an epoch.

    The weights are the objective's fixed ones (``ObjectiveSpec.resolved``),
    or, under a schedule, the schedule's at the epoch clamped to T. Only fcd
    takes a schedule; the uncertainty kind adds a state that the descent
    loop updates.
    """

    def __init__(self, objective: ObjectiveSpec, schedule: ScheduleSpec | None):
        self.objective = objective
        self.schedule = schedule
        self.state: UncertaintyState | None = None
        self.weights, self.r = objective.resolved()
        if schedule is not None and objective.kind != "fcd":
            raise InvalidInputError(f"objective kind {objective.kind!r} does not take a schedule")
        if schedule is None and self.weights is None:
            raise InvalidInputError("fcd objective needs explicit weights or a schedule")
        if schedule is not None and schedule.kind == "uncertainty":
            self.state = UncertaintyState.initial(schedule.tau, schedule.theta)

    def value_grad(self, m: Matching, epoch: int):
        """Returns (objective, gradient at m.p, weights, state gradient or None)."""
        p, target = m.p, m.g
        weights = self.weights
        if self.schedule is not None:
            weights = schedule_weights(self.schedule, min(epoch, self.schedule.T), self.state)
        if self.objective.kind == "dcd-loss":
            temp = self.objective.dcd_temperature
            value = dcd(p, target, temp, matching=m)
            return value, dcd_gradient(p, target, temp, matching=m), weights, None
        state_grad = None
        if self.state is not None:
            local = cd_local(p, target, self.r, matching=m)
            glob = cd_global(p, target, self.r, matching=m)
            value, state_grad = uncertainty_loss(local, glob, self.state)
        else:
            value = fcd(p, target, weights, self.r, matching=m)
        return value, fcd_gradient(p, target, weights, self.r, matching=m), weights, state_grad


class _FreePoints:
    """Parameter rows that are the fine cloud itself; pinned rows stay frozen."""

    def __init__(self, init: PointCloud, frozen: np.ndarray):
        self.start = init.points
        self.frozen = frozen

    def clouds(self, theta: np.ndarray) -> list[np.ndarray]:
        return [theta]

    def chain(self, grads: list[np.ndarray]) -> np.ndarray:
        return grads[0]


class _Skeleton:
    """Parameter rows [coarse points; child offsets]: stage clouds coarse, then fine.

    The fine cloud repeats each coarse point once per child and adds the
    child's offset; frozen offsets form one block of frozen rows.
    """

    def __init__(self, coarse: np.ndarray, offsets: np.ndarray, freeze_offsets: bool):
        self.start = np.concatenate([coarse, offsets])
        self.count = len(coarse)
        self.children = len(offsets) // len(coarse)
        rows = np.arange(len(self.start))
        self.frozen = rows[self.count:] if freeze_offsets else rows[:0]

    def clouds(self, theta: np.ndarray) -> list[np.ndarray]:
        coarse = theta[: self.count]
        return [coarse, np.repeat(coarse, self.children, axis=0) + theta[self.count:]]

    def chain(self, grads: list[np.ndarray]) -> np.ndarray:
        grad_coarse, grad_fine = grads
        # children chain back onto their coarse parent
        children = grad_fine.reshape(self.count, self.children, -1).sum(axis=1)
        return np.concatenate([grad_coarse + children, grad_fine])


def _radius_sq(points: np.ndarray, center: np.ndarray) -> float:
    diff = points - center
    return float(np.einsum("ij,ij->i", diff, diff).max())


def _descend(param: _FreePoints | _Skeleton, stages: list[tuple[PointCloud, _Loss]],
             config: OptimizerConfig) -> tuple[list[PointCloud], OptimizationTrace]:
    """The descent loop: evaluates config.steps + 1 parameter states, steps between them.

    ``stages`` holds one (target, loss) pair per cloud of ``param.clouds``,
    the fine stage last. Each evaluation matches every stage cloud with its
    target once and sums the stage values; ``param.chain`` sums the stage
    gradients onto the parameters. The fine stage's matching, weights and
    state gradient feed the trace snapshot and the uncertainty update.
    Returns the stage clouds of the last evaluation.
    """
    theta = param.start.copy()
    velocity = np.zeros_like(theta)
    records: list[TraceRecord] = []
    target, loss = stages[-1]
    center = target.points.mean(axis=0)
    reach_sq = None
    for step in range(config.steps + 1):
        clouds = [PointCloud(points) for points in param.clouds(theta)]
        spread_sq = max(_radius_sq(c.points, center) for c in clouds)
        if reach_sq is None:  # from the radius of init and target about the target centroid
            reach_sq = DIVERGENCE_FACTOR**2 * max(spread_sq, _radius_sq(target.points, center))
        elif spread_sq > reach_sq:
            # hypot does not square, so a finite offset past 1e154 reports a finite distance
            spread = max(float(np.hypot.reduce(c.points - center, axis=1).max()) for c in clouds)
            raise DivergenceError(
                f"a point lies {spread:.3e} from the target centroid, beyond "
                f"{DIVERGENCE_FACTOR:.0e} x the radius of init and target, at step {step}"
            )
        value, grads = 0.0, []
        for cloud, (stage_target, stage_loss) in zip(clouds, stages):
            m = Matching(cloud, stage_target)
            try:
                stage_value, stage_grad, weights, state_grad = stage_loss.value_grad(m, step)
            except OverflowError:  # math.exp of a stepped uncertainty state
                raise DivergenceError(f"uncertainty weights overflowed at step {step}") from None
            value += stage_value
            grads.append(stage_grad)
        grad = param.chain(grads)  # m, weights and state_grad are the fine stage's
        if not np.isfinite(value):
            raise DivergenceError(f"objective became non-finite at step {step}")
        if step % config.record_every == 0 or step == config.steps:
            records.append(_snapshot(step, value, weights, grad, m, config.seed))
        if step == config.steps:
            return clouds, OptimizationTrace(records)

        if param.frozen.size:
            grad[param.frozen] = 0.0
        if config.update_rule == "momentum":
            velocity = config.momentum_coeff * velocity + grad
            theta = theta - config.step_size * velocity
        else:
            theta = theta - config.step_size * grad
        if state_grad is not None:
            loss.state = UncertaintyState(
                s_local=loss.state.s_local - config.step_size * state_grad[0],
                s_global=loss.state.s_global - config.step_size * state_grad[1],
            )
        if not np.isfinite(theta).all():
            raise DivergenceError(f"coordinates became non-finite at step {step}")


def optimize(
    init: PointCloud,
    target: PointCloud,
    objective: ObjectiveSpec,
    config: OptimizerConfig,
    schedule: ScheduleSpec | None = None,
    pinned=None,
) -> tuple[PointCloud, OptimizationTrace]:
    """Descend free point coordinates against a target cloud.

    Nearest-neighbor assignments (and scheduled weights) are recomputed every
    step; pinned points receive zero update. Runs are deterministic for a
    fixed config. Raises DivergenceError if the objective, the coordinates or
    the uncertainty weights become non-finite, or if a point moves farther from
    the target centroid than 1e6 times the radius of init and target about it.
    """
    _check_pair(init, target)
    pin_idx = support_pinning(init, pinned) if pinned is not None else np.empty(0, dtype=np.intp)
    stages = [(target, _Loss(objective, schedule))]
    (final,), trace = _descend(_FreePoints(init, pin_idx), stages, config)
    return final, trace


def optimize_hierarchical(
    init_coarse: PointCloud,
    hierarchy: HierarchySpec,
    target: PointCloud,
    schedule: ScheduleSpec,
    config: OptimizerConfig,
    r: int = 1,
    freeze_offsets: bool = False,
) -> tuple[PointCloud, PointCloud, OptimizationTrace]:
    """Coarse-to-fine descent: a coarse skeleton plus per-point child offsets.

    The coarse cloud is supervised against a farthest-point subsample of the
    target with static (tau, theta) weights; the fine cloud (coarse points
    plus offsets) is supervised against the full target with the scheduled
    weights. Coarse coordinates and offsets descend jointly, under the same
    update rule, uncertainty update and divergence guard as ``optimize``.
    """
    _check_pair(init_coarse, target)
    count = len(init_coarse)
    if count > len(target):
        raise InvalidInputError(f"more coarse points than target points ({count} > {len(target)})")

    coarse_target = subsample(target, count, "farthest-point", config.seed)
    rng = np.random.default_rng(config.seed)
    n_fine = count * hierarchy.children_per_coarse
    offsets = hierarchy.offset_scale * rng.standard_normal((n_fine, init_coarse.dim))
    coarse_loss = _Loss(ObjectiveSpec("fcd", FcdWeights(schedule.tau, schedule.theta), r), None)
    stages = [(coarse_target, coarse_loss), (target, _Loss(ObjectiveSpec("fcd", r=r), schedule))]
    param = _Skeleton(init_coarse.points, offsets, freeze_offsets)
    (coarse, fine), trace = _descend(param, stages, config)
    return fine, coarse, trace


def clustered_grid_benchmark(n: int = 64, seed: int = 42) -> tuple[PointCloud, PointCloud]:
    """Canonical clustered-init benchmark: (init, target).

    Target is a planar unit grid of n points; init draws n points from a
    Gaussian blob of standard deviation 0.05 centered on the grid corner at the
    origin, reproducing the pathological local clustering that symmetric
    Chamfer descent struggles to escape.
    """
    side = round(n ** 0.5)
    if side * side != n:
        raise InvalidInputError(f"benchmark size must be a perfect square, got {n}")
    axis = np.linspace(0.0, 1.0, side)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    target = PointCloud(np.column_stack([gx.ravel(), gy.ravel()]))
    rng = np.random.default_rng(seed)
    init = PointCloud(0.05 * rng.standard_normal((n, 2)))
    return init, target
